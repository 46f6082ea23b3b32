//! Link failure: teardown, rerouting, partition and manual recovery.
#![cfg(test)]

use super::*;
use crate::setup::{cbr_mbps, SetupStrategy};
use crate::testkit::{mesh_net, output_wire};

/// The wired port from `a` toward `b`, if adjacent.
fn port_toward(net: &NetworkSim, a: NodeId, b: NodeId) -> PortId {
    net.topology()
        .neighbors(a)
        .into_iter()
        .find(|&(_, peer, _)| peer == b)
        .map(|(port, _, _)| port)
        .expect("adjacent")
}

#[test]
fn failing_a_link_tears_down_crossing_connections() {
    let mut net = mesh_net();
    let through = net
        .establish(NodeId(0), NodeId(2), cbr_mbps(10.0), SetupStrategy::Epb)
        .expect("path exists");
    let elsewhere = net
        .establish(NodeId(6), NodeId(8), cbr_mbps(10.0), SetupStrategy::Epb)
        .expect("path exists");
    // A 0->2 path on the top row crosses 0-1 and 1-2; fail whichever
    // wire the connection actually took.
    let (node, port) = output_wire(&net, through, 0);
    let broken = net.fail_link(node, port).expect("inter-router wire");
    assert_eq!(broken, vec![through], "only the crossing connection breaks");
    assert!(net.connection(through).is_none());
    assert!(net.connection(elsewhere).is_some(), "unrelated connection survives");
    // No local reservations leaked.
    let total: usize = (0..9).map(|n| net.router(NodeId(n)).connections()).sum();
    assert_eq!(total, net.connection(elsewhere).expect("live").hops.len());
}

#[test]
fn epb_reroutes_around_a_failed_link() {
    let mut net = mesh_net();
    // Fail the 0-1 wire; 0 -> 2 must go around (0-3-4-1-2 or similar).
    let p = port_toward(&net, NodeId(0), NodeId(1));
    net.fail_link(NodeId(0), p).expect("inter-router wire");
    let conn = net
        .establish(NodeId(0), NodeId(2), cbr_mbps(10.0), SetupStrategy::Epb)
        .expect("alternative path exists");
    let hops = net.connection(conn).expect("live").hops.len();
    assert!(hops >= 3, "0->2 is no longer two hops: {hops} routers");
    // Traffic still flows end to end.
    net.inject(conn, Cycles(0)).expect("live");
    let mut delivered = 0;
    for t in 0..40u64 {
        delivered += net.step(Cycles(t)).delivered.len();
    }
    assert_eq!(delivered, 1);
}

#[test]
fn packets_route_around_failures() {
    let mut net = mesh_net();
    let p = port_toward(&net, NodeId(0), NodeId(1));
    net.fail_link(NodeId(0), p).expect("inter-router wire");
    net.send_packet(NodeId(0), NodeId(2), FlitKind::BestEffort, Cycles(0)).expect("valid");
    for t in 0..100u64 {
        net.step(Cycles(t));
    }
    assert_eq!(net.stats().packets_delivered, 1, "packet detours around the break");
}

#[test]
fn disconnection_is_reported_as_unreachable() {
    // Ring of 4: failing two opposite wires splits the ring.
    let mut net = NetworkSim::new(
        Topology::ring(4, 4).expect("topology wires within the port budget"),
        RouterConfig::paper_default().vcs_per_port(8).candidates(2),
    );
    let p01 = port_toward(&net, NodeId(0), NodeId(1));
    let p23 = port_toward(&net, NodeId(2), NodeId(3));
    net.fail_link(NodeId(0), p01).expect("inter-router wire");
    net.fail_link(NodeId(2), p23).expect("inter-router wire");
    let err = net
        .establish(NodeId(0), NodeId(2), cbr_mbps(1.0), SetupStrategy::Epb)
        .expect_err("0 and 2 are in different fragments");
    assert_eq!(err, crate::setup::SetupError::Unreachable);
}

#[test]
fn recovery_reestablishes_broken_streams() {
    let mut net = mesh_net();
    let conn = net
        .establish(NodeId(0), NodeId(8), cbr_mbps(124.0), SetupStrategy::Epb)
        .expect("path exists");
    // Find and fail a wire the stream crosses.
    let (node, port) = output_wire(&net, conn, 1);
    let broken = net.fail_link(node, port).expect("inter-router wire");
    assert_eq!(broken, vec![conn]);
    // The fault-tolerant recovery pattern: re-establish with EPB.
    let recovered = net
        .establish(NodeId(0), NodeId(8), cbr_mbps(124.0), SetupStrategy::Epb)
        .expect("a 3x3 mesh survives one link failure");
    net.inject(recovered, Cycles(0)).expect("live");
    let mut delivered = 0;
    for t in 0..60u64 {
        delivered += net.step(Cycles(t)).delivered.len();
    }
    assert_eq!(delivered, 1);
}
