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
            assert_eq!(d.conn, id);
            // 0->8 on a 3x3 mesh crosses 5 routers: latency >= hops.
            assert!(d.latency >= Cycles(4), "latency {:?}", d.latency);
            delivered += 1;
        }
    }
    assert!(delivered >= 40, "sustained delivery: {delivered}");
    assert_eq!(net.stats().out_of_order, 0);
}

/// Drives one 0 -> 8 stream on `net` over `cycles`, one flit every 4
/// cycles; returns the flits delivered.
fn stream(net: &mut NetworkSim, id: NetConnectionId, cycles: std::ops::Range<u64>) -> u64 {
    let mut delivered = 0;
    for t in cycles {
        if t % 4 == 0 && net.can_inject(id) {
            net.inject(id, Cycles(t)).expect("room");
        }
        delivered += net.step(Cycles(t)).delivered.len() as u64;
    }
    delivered
}

/// The destination NI is the stream's one sequence ledger: a skip is one
/// loss, a late flit one duplicate, and the late flit does not move the
/// ledger back, so the flit after it is in order again.
#[test]
fn a_late_flit_is_one_duplicate_not_a_rewind() {
    let mut conn = NetConnection { id: NetConnectionId(7), hops: Vec::new(), next_seq: 0 };
    let mut stats = NetStats::default();
    let mut aud = Auditor::default();
    for seq in [0, 1, 3, 2, 4] {
        let flit = Flit::data(ConnectionId(0), seq, Cycles(0));
        deliver_at_ni(&mut conn, flit, Cycles(5), &mut stats, Some(&mut aud));
    }
    assert_eq!((stats.flits_delivered, stats.out_of_order, conn.next_seq), (5, 2, 5));
    assert_eq!(
        aud.violations(),
        [
            AuditViolation::StreamLoss { stream: 7, expected: 2, got: 3 },
            AuditViolation::StreamDuplicate { stream: 7, expected: 4, got: 2 },
        ]
    );
}

/// An auditor armed in the middle of a healthy stream finds it in order:
/// the sequence it checks is the one the stream started with.
#[test]
fn an_auditor_armed_mid_stream_finds_it_clean() {
    let mut net = mesh_net();
    let id = net
        .establish(NodeId(0), NodeId(8), cbr_mbps(620.0), SetupStrategy::Epb)
        .expect("path exists");
    let before = stream(&mut net, id, 0..100);
    net.enable_audit(AuditConfig::default());
    let after = stream(&mut net, id, 100..300);
    assert!(before >= 20 && after >= 40, "delivered {before} then {after}");
    let aud = net.auditor().expect("armed");
    assert!(aud.checks() > 0, "the auditor actually ran");
    assert!(aud.is_clean(), "a healthy stream: {}", aud.summary());
}

/// A torn-down connection takes its sequence ledger with it: the flits cut
/// with it are counted lost, not reported as a stream loss, and the
/// session re-established on the same path starts its own sequence.
#[test]
fn a_closed_stream_restarts_cleanly() {
    let mut net = mesh_net();
    net.enable_audit(AuditConfig::default());
    let (src, dst, class) = (NodeId(0), NodeId(8), cbr_mbps(620.0));
    let first = net.establish(src, dst, class, SetupStrategy::Epb).expect("path exists");
    stream(&mut net, first, 0..50);
    net.inject(first, Cycles(50)).expect("room");
    net.teardown(first).expect("live");
    let second = net.establish(src, dst, class, SetupStrategy::Epb).expect("path exists");
    assert!(stream(&mut net, second, 51..200) >= 30, "the new stream flows");
    assert!(net.stats().flits_lost >= 1, "the cut flits are lost");
    assert_eq!(net.stats().out_of_order, 0);
    let aud = net.auditor().expect("armed");
    assert!(aud.is_clean(), "a cut is no stream loss: {}", aud.summary());
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
    net.send_packet(NodeId(0), NodeId(8), FlitKind::Control, Cycles(0)).expect("valid");
    net.send_packet(NodeId(3), NodeId(5), FlitKind::BestEffort, Cycles(0)).expect("valid");
    for t in 0..100u64 {
        net.step(Cycles(t));
    }
    assert_eq!(net.stats().packets_delivered, 2, "both packets delivered");
}

#[test]
fn control_packets_cut_through_an_idle_network() {
    let mut net = mesh_net();
    net.send_packet(NodeId(0), NodeId(2), FlitKind::Control, Cycles(0)).expect("valid");
    for t in 0..50u64 {
        net.step(Cycles(t));
    }
    let latency = &net.stats().packet_latency;
    assert_eq!(latency.count(), 1, "delivered");
    // Two wire hops with cut-through at intermediate routers: a handful
    // of cycles, far below the buffered worst case.
    assert!(latency.mean() <= 6.0, "cut-through latency {}", latency.mean());
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

/// A settled router is counted, not stepped (DESIGN.md §9 "Settled"): on a
/// 3×3 mesh, four corner sources are each policed to a flit a round and
/// driven harder, so each holds flits behind a spent quota for most of every
/// round. `drain_awake` counts their cycles eagerly without a
/// `Router::step_into` call, and a mid-round wake of a settled router still
/// counts exactly one cycle. Counts, not times: exact on any host.
#[test]
fn a_settled_router_is_counted_without_a_step() {
    use super::routers::DRAIN_STEPS;
    let steps = || DRAIN_STEPS.with(std::cell::Cell::get);
    let mut net = mesh_net();
    let round = net.router(NodeId(0)).config().round_cycles();
    let sources = [NodeId(0), NodeId(2), NodeId(6), NodeId(8)];
    let ids: Vec<NetConnectionId> = sources
        .iter()
        .map(|&s| {
            let d = NodeId(8 - s.0);
            net.establish(s, d, cbr_mbps(30.0), SetupStrategy::Epb).expect("path exists")
        })
        .collect();
    let cycles = |net: &NetworkSim| -> Vec<u64> {
        sources.iter().map(|&n| net.router(n).stats().cycles).collect()
    };
    let (mut early, mut late) = (0, 0);
    for t in 0..8 * round {
        for &id in &ids {
            if net.can_inject(id) {
                net.inject(id, Cycles(t)).expect("room was checked");
            }
        }
        let stepped = steps();
        net.step(Cycles(t));
        // A source holds flits from its first injection on, so it stays
        // awake and its cycle is counted as it happens.
        assert_eq!(cycles(&net), [t + 1; 4], "cycle {t}");
        if t % round < round / 2 {
            early += steps() - stepped;
        } else {
            late += steps() - stepped;
        }
    }
    // The first half of a round is where quotas are spent; in the second,
    // every router still awake is a settled source.
    assert_eq!((early, late), (290, 0), "step_into calls in the first, second half of rounds");
    // Mid-round, every source is settled: a wake makes no step and counts
    // one cycle, not two.
    let t = 8 * round + round / 2;
    for cycle in 8 * round..t {
        net.step(Cycles(cycle));
    }
    let stepped = steps();
    net.routers.wake(sources[1]);
    net.step(Cycles(t));
    assert_eq!(steps(), stepped, "a woken settled router was stepped");
    assert_eq!(cycles(&net), [t + 1; 4]);
}
