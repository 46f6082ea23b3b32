//! Property wall for the generalized routing layer: on every structured
//! fabric class, minimal and Valiant routing must be livelock-free (no
//! repeated `(node, ctx)` state), reach the destination within the
//! documented hop bound, keep VC classes non-decreasing along the walk
//! (the escape-ordering that underwrites deadlock freedom), and agree
//! with up*/down* on reachability over the same wires.
//!
//! The sweep drives 10 000 seeded `(src, dst)` pairs per fabric per
//! algorithm — deterministic (seeded, not proptest) so a failure names
//! the exact pair.

use mmr_net::routing::RoutingAlgorithm;
use mmr_net::{
    Butterfly, Dragonfly, Hypercube, MinimalSpec, NodeId, Routing, RoutingSpec, Topology,
};
use mmr_sim::SeededRng;

const PAIRS: usize = 10_000;

/// The fabrics under test: one of each routed topology class, sized so
/// the 10k-pair sweep stays fast but no shape degenerates.
fn fabrics() -> Vec<(&'static str, Topology, MinimalSpec)> {
    vec![
        (
            "dragonfly(4,1,1)",
            Topology::dragonfly(4, 1, 1).expect("builds"),
            MinimalSpec::Dragonfly(Dragonfly::balanced(4, 1, 1)),
        ),
        (
            "dragonfly(6,1,2,g=10)",
            Dragonfly::with_groups(6, 1, 2, 10).build().expect("builds"),
            MinimalSpec::Dragonfly(Dragonfly::with_groups(6, 1, 2, 10)),
        ),
        (
            "butterfly(2,5)",
            Topology::butterfly(2, 5).expect("builds"),
            MinimalSpec::Butterfly(Butterfly::new(2, 5)),
        ),
        (
            "butterfly(3,3)",
            Topology::butterfly(3, 3).expect("builds"),
            MinimalSpec::Butterfly(Butterfly::new(3, 3)),
        ),
        (
            "hypercube(6)",
            Topology::hypercube(6).expect("builds"),
            MinimalSpec::Hypercube(Hypercube::new(6)),
        ),
    ]
}

/// Walks a packet from `src` to `dst` under `routing`, asserting the
/// livelock/deadlock-freedom properties at every step. Returns the hop
/// count.
fn checked_walk(
    label: &str,
    routing: &Routing,
    topology: &Topology,
    src: NodeId,
    dst: NodeId,
    salt: u64,
) -> usize {
    let mut current = src;
    let mut ctx = routing.initial_ctx(src, dst, salt);
    let mut hops = 0;
    let mut last_class = 0u8;
    let mut seen = std::collections::BTreeSet::new();
    while current != dst {
        // Livelock freedom: a deterministic router revisiting the same
        // (node, ctx) state would cycle forever.
        assert!(
            seen.insert((current, ctx)),
            "{label}: {src}->{dst} revisited state at {current} after {hops} hops"
        );
        let class = routing.vc_class(current, dst, ctx);
        assert!(
            class < routing.vc_classes(),
            "{label}: class {class} out of range"
        );
        assert!(
            class >= last_class,
            "{label}: {src}->{dst} VC class dropped {last_class}->{class} at {current}"
        );
        last_class = class;
        let hop = routing
            .next_hop(topology, current, dst, ctx)
            .unwrap_or_else(|| panic!("{label}: {src}->{dst} stuck at {current}"));
        assert!(
            topology.neighbors_iter(current).any(|(p, peer, _)| p == hop.port && peer == hop.next),
            "{label}: hop {current}->{} uses a wire that does not exist",
            hop.next
        );
        current = hop.next;
        ctx = hop.ctx;
        hops += 1;
        assert!(
            hops <= routing.hop_bound(),
            "{label}: {src}->{dst} exceeded hop bound {}",
            routing.hop_bound()
        );
    }
    hops
}

#[test]
fn minimal_routes_reach_within_bound_and_match_distance() {
    for (label, topology, minimal) in fabrics() {
        let routing = Routing::build(RoutingSpec { minimal, valiant_salt: None }, &topology);
        let mut rng = SeededRng::new(0x5ca1e ^ topology.nodes() as u64);
        let mut checked = 0;
        while checked < PAIRS {
            let src = NodeId(rng.index(topology.nodes()) as u16);
            let dst = NodeId(rng.index(topology.nodes()) as u16);
            if src == dst {
                continue;
            }
            let hops = checked_walk(label, &routing, &topology, src, dst, checked as u64);
            assert_eq!(
                hops,
                routing.distance(src, dst),
                "{label}: {src}->{dst} walk length vs routing distance"
            );
            checked += 1;
        }
    }
}

#[test]
fn valiant_routes_reach_within_doubled_bound() {
    for (label, topology, minimal) in fabrics() {
        let routing =
            Routing::build(RoutingSpec { minimal, valiant_salt: Some(0xDEC0) }, &topology);
        let mut rng = SeededRng::new(0x7a11 ^ topology.nodes() as u64);
        let mut checked = 0;
        while checked < PAIRS {
            let src = NodeId(rng.index(topology.nodes()) as u16);
            let dst = NodeId(rng.index(topology.nodes()) as u16);
            if src == dst {
                continue;
            }
            // Distinct salts draw distinct intermediates — the sweep
            // exercises both the detour and the degenerate straight path.
            checked_walk(label, &routing, &topology, src, dst, checked as u64);
            checked += 1;
        }
    }
}

/// up*/down* built over the same wires agrees on reachability: every pair
/// the structured algorithm routes, the fallback routes too (both
/// directions — its legality relation is not symmetric).
#[test]
fn updown_agrees_on_reachability() {
    for (label, topology, minimal) in fabrics() {
        let structured =
            Routing::build(RoutingSpec { minimal, valiant_salt: None }, &topology);
        let updown = Routing::build(RoutingSpec::up_down(), &topology);
        let mut rng = SeededRng::new(0x0b5e ^ topology.nodes() as u64);
        for i in 0..2_000 {
            let src = NodeId(rng.index(topology.nodes()) as u16);
            let dst = NodeId(rng.index(topology.nodes()) as u16);
            if src == dst {
                continue;
            }
            let s = structured.route(&topology, src, dst);
            let u = updown.route(&topology, src, dst);
            assert!(
                s.is_some() && u.is_some(),
                "{label}: pair {i} {src}->{dst} reachability disagrees \
                 (structured {:?}, updown {:?})",
                s.map(|r| r.len()),
                u.map(|r| r.len())
            );
        }
    }
}

/// The up*/down* fallback satisfies the same walk properties on the new
/// fabric classes it now backstops.
#[test]
fn updown_walks_are_loop_free_on_structured_fabrics() {
    for (label, topology, _) in fabrics() {
        let updown = Routing::build(RoutingSpec::up_down(), &topology);
        let mut rng = SeededRng::new(0xdd ^ topology.nodes() as u64);
        for i in 0..2_000u64 {
            let src = NodeId(rng.index(topology.nodes()) as u16);
            let dst = NodeId(rng.index(topology.nodes()) as u16);
            if src == dst {
                continue;
            }
            checked_walk(label, &updown, &topology, src, dst, i);
        }
    }
}

/// The all-pairs up*/down* tables the way `UpDownRouting` built them
/// before it filled a destination's rows on first ask, every row computed
/// up front. Kept as the oracle the lazy rows are compared against.
struct EagerTables {
    /// BFS level of each node from the root.
    level: Vec<usize>,
    /// dist\[from\]\[to\]: plain hop distance.
    dist: Vec<Vec<usize>>,
    /// legal\[dest\]\[node\]\[phase\]: minimum legal hops.
    legal: Vec<Vec<[usize; 2]>>,
}

fn eager_tables(topology: &Topology, root: NodeId) -> EagerTables {
    let n = topology.nodes();
    let level = topology.distances_from(root);
    let dist: Vec<Vec<usize>> =
        (0..n).map(|i| topology.distances_from(NodeId(i as u16))).collect();
    let down = |from: NodeId, to: NodeId| -> bool {
        let (lf, lt) = (level[from.index()], level[to.index()]);
        !(lt < lf || (lt == lf && to < from))
    };
    // Backward BFS over the legality state space, per destination.
    let mut legal = vec![vec![[usize::MAX; 2]; n]; n];
    for dest in 0..n {
        let table = &mut legal[dest];
        table[dest] = [0, 0];
        let mut queue = std::collections::VecDeque::from([(dest, 0usize), (dest, 1usize)]);
        while let Some((node, phase)) = queue.pop_front() {
            let d = table[node][phase];
            // Incoming transitions: a move `prev -> node` lands in phase
            // `down`; it is legal from `prev`'s phase `p` when `p` may still
            // go up or the move descends.
            for (_, prev, _) in topology.neighbors(NodeId(node as u16)) {
                let descends = down(prev, NodeId(node as u16));
                if usize::from(descends) != phase {
                    continue;
                }
                let from_phases: &[usize] = if descends { &[0, 1] } else { &[0] };
                for &p in from_phases {
                    if table[prev.index()][p] == usize::MAX {
                        table[prev.index()][p] = d + 1;
                        queue.push_back((prev.index(), p));
                    }
                }
            }
        }
    }
    EagerTables { level, dist, legal }
}

/// `topology` minus `link_cuts` random wires and every wire of `node_cuts`
/// random routers, and the root the fabric would migrate to: the lowest-id
/// router still standing.
fn damaged(
    topology: &Topology,
    link_cuts: usize,
    node_cuts: usize,
    rng: &mut SeededRng,
) -> (Topology, NodeId) {
    let n = topology.nodes();
    let dead_nodes: Vec<usize> = (0..node_cuts).map(|_| rng.index(n)).collect();
    let dead_wires: Vec<usize> =
        (0..link_cuts).map(|_| rng.index(topology.wires().len())).collect();
    let mut survivor = Topology::new(n, topology.ports_per_node());
    for (i, w) in topology.wires().iter().enumerate() {
        let dead = dead_wires.contains(&i)
            || dead_nodes.contains(&w.a.0.index())
            || dead_nodes.contains(&w.b.0.index());
        if !dead {
            survivor.connect(w.a, w.b);
        }
    }
    let root = (0..n).find(|i| !dead_nodes.contains(i)).unwrap_or(0);
    (survivor, NodeId(root as u16))
}

/// Every answer of the lazily filled relation equals the eager table's, on
/// intact and damaged (partitioned, re-rooted) graphs, whatever order the
/// destinations are first asked in.
#[test]
fn lazy_rows_match_the_eager_tables() {
    use mmr_net::{LinkDir, UpDownRouting};

    let mut rng = SeededRng::new(0x1a2);
    let mut graphs: Vec<(String, Topology)> =
        fabrics().into_iter().map(|(label, t, _)| (label.to_string(), t)).collect();
    for seed in 0..12u64 {
        let nodes = 12 + rng.index(28);
        let t = Topology::irregular(nodes, 6, nodes / 2, &mut SeededRng::new(seed))
            .expect("irregular graphs wire within six ports");
        graphs.push((format!("irregular({nodes}) seed {seed}"), t));
    }

    let (mut partitioned, mut migrated) = (0, 0);
    for (label, intact) in &graphs {
        for (links, nodes) in [(0, 0), (3, 0), (2, 2), (intact.wires().len() / 3, 1)] {
            let (graph, root) = damaged(intact, links, nodes, &mut rng);
            let n = graph.nodes();
            let EagerTables { level, dist, legal } = eager_tables(&graph, root);
            let dir = |from: NodeId, to: NodeId| {
                let (lf, lt) = (level[from.index()], level[to.index()]);
                if lt < lf || (lt == lf && to < from) { LinkDir::Up } else { LinkDir::Down }
            };
            partitioned += usize::from(dist[root.index()].contains(&usize::MAX));
            migrated += usize::from(root != NodeId(0));

            let ascending: Vec<usize> = (0..n).collect();
            let descending: Vec<usize> = (0..n).rev().collect();
            let mut shuffled = ascending.clone();
            rng.shuffle(&mut shuffled);
            for order in [ascending, descending, shuffled] {
                let lazy = UpDownRouting::with_root(&graph, root);
                assert_eq!(lazy.rows_filled(), 0, "{label}: construction builds no row");
                for &b in &order {
                    let to = NodeId(b as u16);
                    for a in 0..n {
                        let from = NodeId(a as u16);
                        let at = format!("{label} -{links} links -{nodes} nodes root {root}: {from}->{to}");
                        assert_eq!(lazy.distance(from, to), dist[a][b], "{at} distance");
                        assert_eq!(lazy.distance(from, to), lazy.distance(to, from), "{at} symmetry");
                        for (phase, last) in [None, Some(LinkDir::Down)].into_iter().enumerate() {
                            let here = legal[b][a][phase];
                            assert_eq!(lazy.legal_distance(from, to, last), here, "{at} legal, phase {phase}");
                            // The oracle's hop choice: the lowest port
                            // among the legal moves that land closest.
                            let want = graph
                                .neighbors_iter(from)
                                .map(|(port, peer, _)| (port, peer, dir(from, peer)))
                                .filter(|&(_, _, dir)| phase == 0 || dir == LinkDir::Down)
                                .map(|(port, peer, dir)| {
                                    (legal[b][peer.index()][usize::from(dir == LinkDir::Down)], port, peer, dir)
                                })
                                .filter(|&(there, ..)| a != b && here != usize::MAX && there < here)
                                .min_by_key(|&(there, port, ..)| (there, port.index()))
                                .map(|(_, port, peer, dir)| (port, peer, dir));
                            assert_eq!(lazy.best_hop(&graph, from, to, last), want, "{at} hop, phase {phase}");
                        }
                    }
                }
                assert_eq!(lazy.rows_filled(), 2 * n, "{label}: one distance and one legality row per destination");
            }
        }
    }
    assert!(partitioned >= 10, "the damage partitions some graphs: {partitioned}");
    assert!(migrated >= 1, "and takes node 0 down in some: {migrated}");
}
