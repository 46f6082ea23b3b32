//! [`NetworkSim`] end to end: streams, credits, teardown, load and packets.
#![cfg(test)]

use super::*;
use crate::setup::{cbr_mbps, SetupStrategy};
use crate::testkit::mesh_net;

/// The accounted footprint of a fresh 12-node up*/down* fabric: twelve
/// 5-port, 8-VC routers and the tables at their all-destinations size.
#[test]
fn a_fabric_footprint_is_its_routers_and_its_tables() {
    let topology = Topology::torus2d(4, 3, 5).expect("wires");
    let net = NetworkSim::new(topology, RouterConfig::paper_default().vcs_per_port(8));
    assert_eq!(net.router(NodeId(0)).heap_bytes(), 7_910);
    assert_eq!(net.memory_footprint(), 12 * 7_910 + 4_128);
}

#[test]
fn stream_flows_end_to_end_in_order() {
    let mut net = mesh_net();
    // 620 Mbps reserves half of each link, so one flit per 4 cycles is
    // comfortably inside the per-round quota.
    let id = net
        .establish(NodeId(0), NodeId(8), cbr_mbps(620.0), SetupStrategy::Epb)
        .expect("path exists");
    let mut delivered = 0;
    for t in 0..200u64 {
        if t % 4 == 0 && net.can_inject(id) {
            net.inject(id, Cycles(t)).expect("room");
        }
        let rep = net.step(Cycles(t));
        for d in &rep.delivered {
            assert!(d.in_order, "stream stays in order");
            assert_eq!(d.conn, id);
            // 0->8 on a 3x3 mesh crosses 5 routers: latency >= hops.
            assert!(d.latency >= Cycles(4), "latency {:?}", d.latency);
            delivered += 1;
        }
    }
    assert!(delivered >= 40, "sustained delivery: {delivered}");
    assert_eq!(net.stats().out_of_order, 0);
}

#[test]
fn credits_bound_inflight_flits() {
    let mut net = mesh_net();
    let id = net
        .establish(NodeId(0), NodeId(2), cbr_mbps(1240.0), SetupStrategy::Epb)
        .expect("path exists");
    // Inject as fast as possible; credits must throttle, never overflow.
    let mut injected = 0u64;
    let mut delivered = 0u64;
    for t in 0..300u64 {
        while net.can_inject(id) && injected < 250 {
            net.inject(id, Cycles(t)).expect("checked");
            injected += 1;
        }
        delivered += net.step(Cycles(t)).delivered.len() as u64;
    }
    // Drain.
    for t in 300..400u64 {
        delivered += net.step(Cycles(t)).delivered.len() as u64;
    }
    assert_eq!(injected, delivered, "conservation across the network");
}

#[test]
fn teardown_releases_every_hop() {
    let mut net = mesh_net();
    let before: usize = (0..9).map(|n| net.router(NodeId(n)).connections()).sum();
    let id = net
        .establish(NodeId(0), NodeId(8), cbr_mbps(10.0), SetupStrategy::Epb)
        .expect("path exists");
    let during: usize = (0..9).map(|n| net.router(NodeId(n)).connections()).sum();
    assert!(during >= before + 5, "a 0->8 path spans at least 5 routers");
    net.teardown(id).expect("live");
    let after: usize = (0..9).map(|n| net.router(NodeId(n)).connections()).sum();
    assert_eq!(after, before);
    assert_eq!(net.teardown(id), Err(NetError::UnknownConnection(id)));
}

#[test]
fn voluntary_teardown_counts_queued_flits_as_lost() {
    let mut net = mesh_net();
    let id = net
        .establish(NodeId(0), NodeId(8), cbr_mbps(10.0), SetupStrategy::Epb)
        .expect("path exists");
    // Inject without stepping: the flits sit queued at the source NI.
    for _ in 0..3 {
        net.inject(id, Cycles(0)).expect("source buffer has room");
    }
    net.teardown(id).expect("live");
    let stats = net.stats();
    assert_eq!(stats.flits_delivered, 0);
    assert_eq!(stats.flits_lost, 3, "queued flits are accounted, not vanished");
}

#[test]
fn link_load_tracks_reservations() {
    let mut net = mesh_net();
    assert_eq!(net.link_load(), (0.0, 0.0), "idle fabric has zero load");
    let id = net
        .establish(NodeId(0), NodeId(8), cbr_mbps(620.0), SetupStrategy::Epb)
        .expect("path exists");
    let (peak, mean) = net.link_load();
    assert!(peak > 0.3, "a half-link-rate stream shows up in the peak: {peak}");
    assert!(mean > 0.0 && mean <= peak, "mean {mean} peak {peak}");
    net.teardown(id).expect("live");
    assert_eq!(net.link_load(), (0.0, 0.0), "teardown releases the books");
}

#[test]
fn packets_reach_their_destination() {
    let mut net = mesh_net();
    let mut got = Vec::new();
    net.send_packet(NodeId(0), NodeId(8), FlitKind::Control, Cycles(0)).expect("valid");
    net.send_packet(NodeId(3), NodeId(5), FlitKind::BestEffort, Cycles(0)).expect("valid");
    for t in 0..100u64 {
        let rep = net.step(Cycles(t));
        got.extend(rep.packets);
    }
    assert_eq!(got.len(), 2, "both packets delivered: {got:?}");
    assert_eq!(net.stats().packets_delivered, 2);
    for p in &got {
        assert!(p.hops >= 1);
    }
}

#[test]
fn control_packets_cut_through_an_idle_network() {
    let mut net = mesh_net();
    net.send_packet(NodeId(0), NodeId(2), FlitKind::Control, Cycles(0)).expect("valid");
    let mut latency = None;
    for t in 0..50u64 {
        if let Some(p) = net.step(Cycles(t)).packets.first() {
            latency = Some(p.latency);
            break;
        }
    }
    let latency = latency.expect("delivered");
    // Two wire hops with cut-through at intermediate routers: a handful
    // of cycles, far below the buffered worst case.
    assert!(latency <= Cycles(6), "cut-through latency {latency}");
    let cut_throughs: u64 = (0..9).map(|n| net.router(NodeId(n)).stats().cut_throughs).sum();
    assert!(cut_throughs >= 1);
}

#[test]
fn many_packets_with_small_vc_pool_eventually_deliver() {
    let topology = Topology::mesh2d(2, 2, 6).expect("topology wires within the port budget");
    let cfg = RouterConfig::paper_default().vcs_per_port(4).candidates(2).vc_depth(2);
    let mut net = NetworkSim::new(topology, cfg);
    for i in 0..20 {
        net.send_packet(NodeId(i % 4), NodeId((i + 1) % 4), FlitKind::BestEffort, Cycles(0))
            .expect("valid");
    }
    for t in 0..500u64 {
        net.step(Cycles(t));
    }
    assert_eq!(net.stats().packets_delivered, 20, "blocked packets retry until done");
}

/// A port costs what it carries: on a dragonfly with a handful of EPB
/// sessions, the ports holding per-VC tables (scheduling records, credits,
/// free-VC stacks) are exactly the distinct (router, port) pairs the
/// sessions' hops lease, a stretch of traffic through them allocates none
/// anywhere else, and tearing the sessions down gives every table back. A
/// count, not a size: exact on any host.
#[test]
fn only_the_ports_sessions_lease_hold_tables() {
    use crate::routing::MinimalSpec;
    use crate::topology::Dragonfly;
    use std::collections::BTreeSet;
    let minimal = MinimalSpec::Dragonfly(Dragonfly::balanced(8, 1, 1));
    let routing = RoutingSpec { minimal, valiant_salt: None };
    let mut net = NetworkSim::with_routing(
        Topology::dragonfly(8, 1, 1).expect("the dragonfly fits its port budget"),
        RouterConfig::paper_default().candidates(4),
        routing,
    );
    let nodes = net.topology().nodes() as u16;
    let holding = |net: &NetworkSim| -> usize {
        (0..nodes).map(|n| net.router(NodeId(n)).ports_holding_tables()).sum()
    };
    assert_eq!(holding(&net), 0, "a fabric with no session holds no table");
    let ids: Vec<NetConnectionId> = [(0, 40), (5, 71), (13, 14), (30, 2), (66, 9), (40, 0)]
        .into_iter()
        .map(|(s, d)| {
            net.establish(NodeId(s), NodeId(d), cbr_mbps(8.0), SetupStrategy::Epb).expect("admits")
        })
        .collect();
    let leased: BTreeSet<(NodeId, PortId)> = ids
        .iter()
        .flat_map(|&id| net.connection(id).expect("live").hops.clone())
        .flat_map(|hop| {
            let state = net.router(hop.node).connection(hop.local).expect("mapped");
            [(hop.node, state.input_vc.port), (hop.node, state.output_vc.port)]
        })
        .collect();
    assert!(leased.len() > 2 * ids.len(), "{} pairs", leased.len());
    assert_eq!(holding(&net), leased.len());
    let mut delivered = 0;
    for t in 0..2_000u64 {
        for &id in &ids {
            if t % 16 == 0 && net.can_inject(id) {
                net.inject(id, Cycles(t)).expect("room was checked");
            }
        }
        delivered += net.step(Cycles(t)).delivered.len();
    }
    assert!(delivered > 50, "{delivered} flits delivered");
    assert_eq!(holding(&net), leased.len(), "the data path allocated a table");
    // Torn down last-in first-out, every free-VC stack is pristine again,
    // so the ports give back every table.
    for &id in ids.iter().rev() {
        net.teardown(id).expect("live");
    }
    assert_eq!(holding(&net), 0, "a table outlived its port's last session");
}
