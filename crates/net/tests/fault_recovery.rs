//! Property tests over fault injection, repair, and recovery invariants.

use mmr_core::ids::PortId;
use mmr_core::router::RouterConfig;
use mmr_core::LlrConfig;
use mmr_net::setup::cbr_mbps;
use mmr_net::{
    FaultInjector, FaultPlan, NetworkSim, NodeId, RecoveryManager, RecoveryPolicy, SetupStrategy,
    Topology, UpDownRouting,
};
use mmr_sim::{Cycles, SeededRng};
use proptest::prelude::*;

/// Sum of router-local connection slots across the fabric.
fn total_reservations(net: &NetworkSim, nodes: u16) -> usize {
    (0..nodes).map(|n| net.router(NodeId(n)).connections()).sum()
}

/// Largest guaranteed-bandwidth load factor on any book in the fabric.
fn max_load_factor(net: &NetworkSim, nodes: u16, ports: u8) -> f64 {
    let mut max = 0.0f64;
    for n in 0..nodes {
        let router = net.router(NodeId(n));
        for p in 0..ports {
            let port = PortId(p);
            max = max.max(router.bandwidth_book(port).load_factor());
            max = max.max(router.input_bandwidth_book(port).load_factor());
        }
    }
    max
}

/// All router-to-router wires of the topology as failable endpoints.
fn wire_endpoints(net: &NetworkSim) -> Vec<(NodeId, PortId)> {
    net.topology().wires().iter().map(|w| w.a).collect()
}

/// A host-independent work gate for the failure path: counts, not times.
/// A topology event replaces the up*/down* relation, and the relation
/// builds a destination's rows only when somebody routes there; the retry
/// layer's pump visits only the links holding a frame. Both are pinned as
/// exact totals for one seeded scenario and bounded in shape — the numbers
/// an eager all-pairs build (128 rows per event on this torus) or a pump
/// over every existing link cannot meet.
#[test]
fn a_fault_costs_what_it_breaks() {
    const CYCLES: u64 = 20_000;
    let topology = Topology::torus2d(8, 8, 8).expect("an 8x8 torus fits 8 ports");
    let plan = FaultPlan::seeded_campaign(&topology, 7, 8, 500..CYCLES - 1_000, Cycles(300))
        .merged(FaultPlan::seeded_node_campaign(&topology, 7, 2, 500..CYCLES - 1_000, Cycles(300)));
    let mut injector = FaultInjector::new(plan).expect("the seeded plan is consistent");
    let mut net = NetworkSim::new(
        topology,
        RouterConfig::paper_default().vcs_per_port(16).candidates(4).seed(7),
    );
    net.enable_llr(LlrConfig::default());
    let policy = RecoveryPolicy::default()
        .max_retries(12)
        .backoff(Cycles(8), Cycles(256))
        .setup_timeout(Cycles(200));
    let mut mgr = RecoveryManager::new(policy);
    let mut rng = SeededRng::new(7);
    let mut sessions = Vec::new();
    while sessions.len() < 32 {
        let (src, dst) = (NodeId(rng.index(64) as u16), NodeId(rng.index(64) as u16));
        if src != dst {
            sessions.push(mgr.open(&mut net, src, dst, cbr_mbps(124.0)).expect("an idle torus admits"));
        }
    }

    let rows = |net: &NetworkSim| net.routing().up_down().map_or(0, UpDownRouting::rows_filled);
    let (mut rows_built, mut events, mut links_pumped) = (0usize, 0u64, 0usize);
    let mut live_before = 0;
    for t in 0..CYCLES {
        let now = Cycles(t);
        let (epoch, rows_so_far) = (net.topology_epoch(), rows(&net));
        let tick = injector.poll(&mut net, now);
        if net.topology_epoch() != epoch {
            // The event dropped the old relation: bank what it had built.
            rows_built += rows_so_far;
            events += net.topology_epoch() - epoch;
        }
        mgr.on_faults(&tick.broken, now);
        if t % 8 == 0 {
            for &session in &sessions {
                if let Some(conn) = mgr.conn(session) {
                    let _ = net.inject(conn, now);
                }
            }
        }
        let report = net.step(now);
        let live = net.llr_live_links();
        // A link is visited because a router handed it a frame this cycle
        // (at most one per switched flit) or because the last pump left it
        // holding one.
        assert!(live <= report.flits_switched + live_before, "t={t}: {live} live links");
        assert!(net.llr_live_covers_senders(), "t={t}");
        links_pumped += live;
        live_before = live;
        mgr.service(&mut net, &report, now);
    }
    rows_built += rows(&net);

    assert_eq!(injector.pending(), 0);
    assert_eq!(events, 20, "8 link and 2 node faults, each failed and repaired");
    assert!(rows_built as u64 <= 16 * events, "{rows_built} rows over {events} events");
    assert_eq!((rows_built, links_pumped), (44, 324_557), "the pinned work of seed 7");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary interleavings of fail/repair/establish/teardown leak no VC
    /// slots and no bandwidth reservations: once every surviving connection
    /// is closed and all links repaired, every router and every
    /// `BandwidthBook` is back to its pre-campaign state.
    #[test]
    fn fault_campaigns_leak_nothing(
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u8>(), 0u16..9, 0u16..9, any::<u16>()), 1..80)
    ) {
        let mut net = NetworkSim::new(
            Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(6).candidates(2).seed(seed),
        );
        prop_assert_eq!(total_reservations(&net, 9), 0);
        prop_assert_eq!(max_load_factor(&net, 9, 8), 0.0);
        let wires = wire_endpoints(&net);
        let baseline_wires = net.topology().wires().len();

        let mut live: Vec<mmr_net::NetConnectionId> = Vec::new();
        for (op, a, b, pick) in ops {
            match op % 4 {
                0 => {
                    // Establish (may fail under load or partition — fine).
                    if a != b {
                        if let Ok(conn) =
                            net.establish(NodeId(a), NodeId(b), cbr_mbps(124.0), SetupStrategy::Epb)
                        {
                            live.push(conn);
                        }
                    }
                }
                1 => {
                    // Teardown one live connection.
                    if !live.is_empty() {
                        let conn = live.swap_remove(usize::from(pick) % live.len());
                        net.teardown(conn).expect("was live");
                    }
                }
                2 => {
                    // Fail a wire; drop the connections it tore down.
                    let (node, port) = wires[usize::from(pick) % wires.len()];
                    if let Ok(broken) = net.fail_link(node, port) {
                        live.retain(|c| !broken.contains(c));
                    }
                }
                _ => {
                    // Repair a wire (no-op error if it is up).
                    let (node, port) = wires[usize::from(pick) % wires.len()];
                    let _ = net.repair_link(node, port);
                }
            }
        }

        // Drain the campaign: close every survivor, repair every link.
        for conn in live {
            net.teardown(conn).expect("was live");
        }
        for &(node, port) in &wires {
            let _ = net.repair_link(node, port);
        }
        prop_assert_eq!(total_reservations(&net, 9), 0, "VC slots leaked");
        let residue = max_load_factor(&net, 9, 8);
        prop_assert!(residue.abs() < 1e-9, "bandwidth reservation leaked: {residue}");
        prop_assert_eq!(net.live_topology().wires().len(), baseline_wires, "wires restored");
    }

    /// `repair_link` after `fail_link` restores full reachability on mesh
    /// and torus fabrics: the live topology regains every wire and the
    /// recomputed up*/down* routing reaches every pair again.
    #[test]
    fn repair_restores_reachability(
        seed in any::<u64>(),
        torus in any::<bool>(),
        cuts in prop::collection::vec(any::<u16>(), 1..6)
    ) {
        let topo = if torus {
            Topology::torus2d(3, 3, 8).expect("topology wires within the port budget")
        } else {
            Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget")
        };
        let baseline_wires = topo.wires().len();
        let mut net = NetworkSim::new(
            topo,
            RouterConfig::paper_default().vcs_per_port(6).candidates(2).seed(seed),
        );
        let wires = wire_endpoints(&net);
        let mut downed: Vec<(NodeId, PortId)> = Vec::new();
        for pick in cuts {
            let (node, port) = wires[usize::from(pick) % wires.len()];
            if net.fail_link(node, port).is_ok() {
                downed.push((node, port));
            }
        }
        prop_assert!(!downed.is_empty());
        prop_assert_eq!(net.live_topology().wires().len(), baseline_wires - downed.len());
        for (node, port) in downed {
            net.repair_link(node, port).expect("was failed");
        }
        prop_assert_eq!(net.live_topology().wires().len(), baseline_wires);
        let routing = UpDownRouting::new(net.live_topology());
        for a in 0..9u16 {
            for b in 0..9u16 {
                prop_assert!(
                    routing.legal_distance(NodeId(a), NodeId(b), None) != usize::MAX,
                    "{a}->{b} unroutable after full repair"
                );
            }
        }
        // The repaired fabric admits connections again end to end.
        let conn = net
            .establish(NodeId(0), NodeId(8), cbr_mbps(124.0), SetupStrategy::Epb)
            .expect("repaired fabric has capacity");
        net.teardown(conn).expect("was live");
    }
}
