//! Property tests over the multi-router network invariants.

use mmr_core::router::RouterConfig;
use mmr_net::setup::cbr_mbps;
use mmr_net::{NetworkSim, NodeId, SetupStrategy, Topology, UpDownRouting};
use mmr_sim::{Cycles, SeededRng};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random irregular topologies are always connected, degree-bounded,
    /// and legally routable between every pair.
    #[test]
    fn irregular_topologies_are_sound(seed in any::<u64>(), nodes in 4usize..14, extra in 0usize..8) {
        let mut rng = SeededRng::new(seed);
        let t = Topology::irregular(nodes, 6, extra, &mut rng).expect("topology wires within the port budget");
        prop_assert!(t.is_connected());
        let routing = UpDownRouting::new(&t);
        for a in 0..nodes as u16 {
            prop_assert!(t.terminal_port(NodeId(a)).is_some());
            for b in 0..nodes as u16 {
                prop_assert!(
                    routing.legal_distance(NodeId(a), NodeId(b), None) != usize::MAX,
                    "{a}->{b} unroutable"
                );
            }
        }
    }

    /// Any interleaving of setups and teardowns leaves the routers with
    /// exactly the live connections' reservations — nothing leaks, nothing
    /// is double-freed.
    #[test]
    fn setup_teardown_is_leak_free(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u16..9, 0u16..9, any::<bool>()), 1..60)
    ) {
        let mut net = NetworkSim::new(
            Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(6).candidates(2).seed(seed),
        );
        let mut live = Vec::new();
        let mut expected_hops = 0usize;
        for (a, b, teardown) in ops {
            if teardown && !live.is_empty() {
                let (conn, hops) = live.swap_remove(0);
                net.teardown(conn).expect("was live");
                expected_hops -= hops;
            } else if a != b {
                if let Ok(conn) = net.establish(NodeId(a), NodeId(b), cbr_mbps(124.0), SetupStrategy::Epb) {
                    let hops = net.connection(conn).expect("live").hops.len();
                    live.push((conn, hops));
                    expected_hops += hops;
                }
            }
            let total: usize = (0..9).map(|n| net.router(NodeId(n)).connections()).sum();
            prop_assert_eq!(total, expected_hops, "router-local reservations match live paths");
        }
    }

    /// Streams deliver every injected flit in order, whatever the topology
    /// seed and injection pattern.
    #[test]
    fn stream_delivery_is_lossless_and_ordered(
        seed in any::<u64>(),
        period in 4u64..12,
        cycles in 200u64..600
    ) {
        let mut rng = SeededRng::new(seed);
        let t = Topology::irregular(8, 6, 4, &mut rng).expect("topology wires within the port budget");
        let far = (0..8u16)
            .max_by_key(|&n| t.distances_from(NodeId(0))[usize::from(n)])
            .expect("non-empty");
        let mut net = NetworkSim::new(
            t,
            RouterConfig::paper_default().vcs_per_port(8).candidates(4).seed(seed),
        );
        // Rate matched to the injection period with slack.
        let mbps = (1240.0 / period as f64) * 0.9;
        let Ok(conn) = net.establish(NodeId(0), NodeId(far), cbr_mbps(mbps), SetupStrategy::Epb)
        else {
            // Some tight irregular graphs cannot fit the stream; that is an
            // admission outcome, not a failure of this property.
            return Ok(());
        };
        let (mut injected, mut delivered) = (0u64, 0u64);
        for t in 0..cycles + 100 {
            if t < cycles && t % period == 0 && net.can_inject(conn) {
                net.inject(conn, Cycles(t)).expect("checked");
                injected += 1;
            }
            delivered += net.step(Cycles(t)).delivered.len() as u64;
        }
        prop_assert_eq!(delivered, injected);
        prop_assert_eq!(net.stats().out_of_order, 0);
    }
}
