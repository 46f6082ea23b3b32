//! Asynchronous setup: probes and acknowledgments moving one hop per cycle.
#![cfg(test)]

use super::*;
use crate::setup::{cbr_mbps, SetupError, SetupStrategy};
use crate::testkit::mesh_net;

#[test]
fn async_setup_takes_probe_plus_ack_cycles() {
    let mut net = mesh_net();
    let token =
        net.request_connection(NodeId(0), NodeId(8), cbr_mbps(10.0), SetupStrategy::Epb, Cycles(0));
    assert_eq!(net.probes_in_flight(), 1);
    let mut event = None;
    for t in 0..40u64 {
        if let Some(e) = net.step(Cycles(t)).setups.first().copied() {
            event = Some(e);
            break;
        }
    }
    let event = event.expect("setup completes");
    assert_eq!(event.token, token);
    let conn = event.result.expect("resources abundant");
    // Probe: 4 forward moves; ack: 4 links back => ~9 cycles.
    assert!(
        event.latency >= Cycles(8) && event.latency <= Cycles(12),
        "round-trip latency {:?}",
        event.latency
    );
    assert_eq!(net.connection(conn).expect("live").hops.len(), 5, "a minimal 0->8 path");
    assert_eq!(net.probes_in_flight(), 0);
    // The established connection carries traffic end to end.
    net.inject(conn, Cycles(50)).expect("live");
    let mut delivered = 0;
    for t in 50..80u64 {
        delivered += net.step(Cycles(t)).delivered.len();
    }
    assert_eq!(delivered, 1);
}

#[test]
fn async_setup_failure_is_reported_with_latency() {
    let mut net = mesh_net();
    // Saturate node 0's network-interface link so the probe must fail.
    net.establish(NodeId(0), NodeId(1), cbr_mbps(620.0), SetupStrategy::Epb).expect("block");
    net.establish(NodeId(0), NodeId(3), cbr_mbps(620.0), SetupStrategy::Epb).expect("block");
    net.request_connection(NodeId(0), NodeId(8), cbr_mbps(620.0), SetupStrategy::Epb, Cycles(0));
    let mut result = None;
    for t in 0..100u64 {
        if let Some(e) = net.step(Cycles(t)).setups.first().copied() {
            result = Some(e.result);
            break;
        }
    }
    assert!(matches!(result, Some(Err(SetupError::Exhausted { .. }))), "{result:?}");
    // No reservations leaked.
    let total: usize = (0..9).map(|n| net.router(NodeId(n)).connections()).sum();
    assert_eq!(total, 4, "only the two blocking connections' hops remain");
}

#[test]
fn concurrent_probes_compete_for_resources() {
    let mut net = NetworkSim::new(
        Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget"),
        RouterConfig::paper_default().vcs_per_port(4).candidates(2),
    );
    // Launch many probes at once; they race for VCs.
    let n_probes = 12;
    for i in 0..n_probes {
        let src = NodeId(i % 9);
        let dst = NodeId((i + 4) % 9);
        net.request_connection(src, dst, cbr_mbps(124.0), SetupStrategy::Epb, Cycles(0));
    }
    let mut ok = 0;
    let mut failed = 0;
    for t in 0..300u64 {
        for e in net.step(Cycles(t)).setups {
            match e.result {
                Ok(_) => ok += 1,
                Err(_) => failed += 1,
            }
        }
    }
    assert_eq!(ok + failed, u32::from(n_probes), "every probe resolves");
    assert!(ok >= 6, "most setups succeed: {ok}");
}

#[test]
fn async_and_atomic_setups_reserve_identically() {
    // The same request through both APIs yields the same path length.
    let mut a = mesh_net();
    let mut b = mesh_net();
    let atomic = a
        .establish(NodeId(0), NodeId(8), cbr_mbps(10.0), SetupStrategy::Epb)
        .expect("ok");
    let token =
        b.request_connection(NodeId(0), NodeId(8), cbr_mbps(10.0), SetupStrategy::Epb, Cycles(0));
    let mut got = None;
    for t in 0..50u64 {
        if let Some(e) = b.step(Cycles(t)).setups.first().copied() {
            assert_eq!(e.token, token);
            got = Some(e.result.expect("ok"));
            break;
        }
    }
    let async_conn = got.expect("completes");
    assert_eq!(
        a.connection(atomic).expect("live").hops.len(),
        b.connection(async_conn).expect("live").hops.len()
    );
}
