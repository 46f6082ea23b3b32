//! Up*/down* routing for irregular topologies.
//!
//! §3.5: "For best effort packets, the MMR uses a fully adaptive routing
//! algorithm that has been proposed for wormhole networks with irregular
//! topology [26, 27] and is valid for VCT switching." Those proposals build
//! on up*/down* routing (from Autonet): a BFS spanning tree orients every
//! link — toward the root is *up* — and a legal path takes zero or more up
//! links followed by zero or more down links, which breaks every cycle and
//! hence every deadlock.
//!
//! Adaptivity needs care: a greedy "move closer" rule can strand a packet,
//! because the shortest *legal* path may have to ascend away from the
//! destination first, and a wrong down-move can make the destination
//! unreachable (no up-moves are allowed afterwards). [`UpDownRouting`]
//! therefore computes legal distances over the state space
//! `(node, still-may-go-up?)` — one row per destination, built the first
//! time that destination is routed to — so every offered hop strictly
//! reduces the remaining legal distance and routing can never dead-end.

use std::cell::OnceCell;
use std::collections::VecDeque;

use mmr_core::ids::PortId;

use crate::routing::{RouteCtx, RouteHop, RoutingAlgorithm};
use crate::topology::{NodeId, Topology};

/// Direction of a traversed link relative to the spanning tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDir {
    /// Toward the root (lower BFS level, ties by lower node id).
    Up,
    /// Away from the root.
    Down,
}

/// Phase of a packet's legal walk: still allowed to ascend, or descending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    MayGoUp = 0,
    DownOnly = 1,
}

impl Phase {
    fn from_last(last: Option<LinkDir>) -> Phase {
        match last {
            None | Some(LinkDir::Up) => Phase::MayGoUp,
            Some(LinkDir::Down) => Phase::DownOnly,
        }
    }
}

/// The up*/down* routing relation for one topology. Only the BFS levels are
/// computed up front; a destination's distance row and legality row are
/// built the first time a query names that destination (DESIGN.md §6d), so
/// replacing the relation after a fault costs one BFS, and a run pays only
/// for the destinations it routes to.
#[derive(Debug, Clone)]
pub struct UpDownRouting {
    /// Spanning-tree root the link orientation hangs from.
    root: NodeId,
    /// The graph the relation was built over (its own copy — the whole
    /// relation is replaced when the fabric changes); rows are filled from it.
    graph: Topology,
    /// BFS level of each node (from the root).
    level: Vec<usize>,
    /// dist\[dest\]\[node\] = plain hop distance (minimal-path checks for
    /// EPB); the graph is undirected, so one row serves both directions.
    dist: Vec<OnceCell<Vec<usize>>>,
    /// legal\[dest\]\[node\]\[phase\] = minimum legal hops to `dest` from
    /// `node` in `phase` (`usize::MAX` if unreachable legally).
    legal: Vec<OnceCell<Vec<[usize; 2]>>>,
}

impl UpDownRouting {
    /// Builds the routing relation with node 0 as the tree root.
    pub fn new(topology: &Topology) -> Self {
        Self::with_root(topology, NodeId(0))
    }

    /// Builds the routing relation rooted at `root`. Node failures can take
    /// the default root down; the survivor topology then re-roots the tree
    /// at the lowest-id live node (root migration). Nodes disconnected from
    /// `root` get `usize::MAX` levels, which the level/id tie-break still
    /// orients acyclically.
    pub fn with_root(topology: &Topology, root: NodeId) -> Self {
        let level = topology.distances_from(root);
        let n = level.len();
        let (dist, legal) = (vec![OnceCell::new(); n], vec![OnceCell::new(); n]);
        UpDownRouting { root, graph: topology.clone(), level, dist, legal }
    }

    /// The spanning-tree root this relation is oriented around.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Node count of the fabric the tables were built for.
    pub fn nodes(&self) -> usize {
        self.level.len()
    }

    /// Accounting footprint of the routing tables: the O(n²) distance and
    /// legality matrices that structured routing avoids, at the size they
    /// reach once every destination has been asked for — not what is
    /// resident now. The figure feeds `net.footprint_bytes` and through it
    /// every pinned `sim_digest`, so it must not depend on which rows a run
    /// happened to fill (DESIGN.md §9 "The footprint is pinned").
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let n = self.level.len();
        self.level.capacity() * size_of::<usize>()
            + n * n * (size_of::<usize>() + size_of::<[usize; 2]>())
            + 2 * n * size_of::<Vec<usize>>()
    }

    /// Distance and legality rows built so far (a work count for tests).
    #[doc(hidden)]
    pub fn rows_filled(&self) -> usize {
        self.dist.iter().filter(|row| row.get().is_some()).count()
            + self.legal.iter().filter(|row| row.get().is_some()).count()
    }

    /// Plain hop distances to `dest` from every node, built on first ask.
    fn dist_row(&self, dest: NodeId) -> &[usize] {
        self.dist[dest.index()].get_or_init(|| self.graph.distances_from(dest))
    }

    /// Legal distances to `dest` from every `(node, phase)`, built on first
    /// ask: a backward BFS over the legality state space.
    fn legal_row(&self, dest: NodeId) -> &[[usize; 2]] {
        self.legal[dest.index()].get_or_init(|| {
            let mut table = vec![[usize::MAX; 2]; self.level.len()];
            table[dest.index()] = [0, 0];
            let mut queue = VecDeque::from([(dest, 0usize), (dest, 1usize)]);
            while let Some((node, phase)) = queue.pop_front() {
                let d = table[node.index()][phase];
                // Incoming transitions: a move `prev -> node` with direction
                // `dir` lands in phase `dir == Down`; it is legal from
                // `prev`'s phase `p` when `p == MayGoUp || dir == Down`.
                for (_, prev, _) in self.graph.neighbors_iter(node) {
                    let dir = self.direction(prev, node);
                    let landing_phase = usize::from(dir == LinkDir::Down);
                    if landing_phase != phase {
                        continue;
                    }
                    let from_phases: &[usize] =
                        if dir == LinkDir::Down { &[0, 1] } else { &[0] };
                    for &p in from_phases {
                        if table[prev.index()][p] == usize::MAX {
                            table[prev.index()][p] = d + 1;
                            queue.push_back((prev, p));
                        }
                    }
                }
            }
            table
        })
    }

    /// Direction of the link `from → to`.
    pub fn direction(&self, from: NodeId, to: NodeId) -> LinkDir {
        let (lf, lt) = (self.level[from.index()], self.level[to.index()]);
        if lt < lf || (lt == lf && to < from) {
            LinkDir::Up
        } else {
            LinkDir::Down
        }
    }

    /// Plain (topological) hop distance between two nodes.
    pub fn distance(&self, from: NodeId, to: NodeId) -> usize {
        self.dist_row(to)[from.index()]
    }

    /// Minimum *legal* hops from `from` (having last moved `last_dir`) to
    /// `to`; `usize::MAX` when unreachable.
    pub fn legal_distance(&self, from: NodeId, to: NodeId, last_dir: Option<LinkDir>) -> usize {
        self.legal_row(to)[from.index()][Phase::from_last(last_dir) as usize]
    }

    /// The single best legal next hop — minimum remaining legal distance,
    /// lowest port index as tie-break. Every offered hop strictly reduces
    /// the remaining legal distance, so following it always reaches the
    /// destination. Allocation-free: this is what the per-packet offer path
    /// runs, through [`RoutingAlgorithm::next_hop`].
    pub fn best_hop(
        &self,
        topology: &Topology,
        current: NodeId,
        dest: NodeId,
        last_dir: Option<LinkDir>,
    ) -> Option<(PortId, NodeId, LinkDir)> {
        if current == dest {
            return None;
        }
        let phase = Phase::from_last(last_dir);
        let legal = self.legal_row(dest);
        let here = legal[current.index()][phase as usize];
        if here == usize::MAX {
            return None;
        }
        let mut best: Option<(usize, PortId, NodeId, LinkDir)> = None;
        for (port, peer, _) in topology.neighbors_iter(current) {
            let dir = self.direction(current, peer);
            if phase == Phase::DownOnly && dir == LinkDir::Up {
                continue;
            }
            let landing = usize::from(dir == LinkDir::Down);
            let there = legal[peer.index()][landing];
            if there < here
                && best.is_none_or(|(bt, bp, _, _)| (there, port.index()) < (bt, bp.index()))
            {
                best = Some((there, port, peer, dir));
            }
        }
        best.map(|(_, port, peer, dir)| (port, peer, dir))
    }
}

impl RoutingAlgorithm for UpDownRouting {
    fn name(&self) -> &'static str {
        "updown"
    }

    /// `phase` 0 means the packet may still ascend (fresh, or last moved
    /// Up), 1 means it is committed downward — exactly the private
    /// [`Phase`] the legality tables are indexed by, so routing through
    /// the trait is bit-identical to the historical `last_dir` tracking.
    fn next_hop(
        &self,
        topology: &Topology,
        current: NodeId,
        dst: NodeId,
        ctx: RouteCtx,
    ) -> Option<RouteHop> {
        let last_dir = if ctx.phase == 1 { Some(LinkDir::Down) } else { None };
        self.best_hop(topology, current, dst, last_dir).map(|(port, next, dir)| RouteHop {
            port,
            next,
            ctx: RouteCtx { phase: u8::from(dir == LinkDir::Down), via: ctx.via },
        })
    }

    fn distance(&self, from: NodeId, to: NodeId) -> usize {
        UpDownRouting::distance(self, from, to)
    }

    fn vc_class(&self, _current: NodeId, _dst: NodeId, ctx: RouteCtx) -> u8 {
        ctx.phase.min(1)
    }

    fn vc_classes(&self) -> u8 {
        2
    }

    fn hop_bound(&self) -> usize {
        // A legal walk ascends at most to the root and descends at most
        // once through every node.
        2 * self.level.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RouteHop;
    use mmr_sim::SeededRng;

    /// The up*/down* rule itself: once a walk has descended it never ascends.
    fn assert_never_up_after_down(r: &UpDownRouting, src: NodeId, path: &[RouteHop]) {
        let mut current = src;
        let mut gone_down = false;
        for hop in path {
            let dir = r.direction(current, hop.next);
            assert!(!(gone_down && dir == LinkDir::Up), "walk from {src} went up after down");
            gone_down |= dir == LinkDir::Down;
            current = hop.next;
        }
    }

    #[test]
    fn directions_are_antisymmetric() {
        let t = Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget");
        let r = UpDownRouting::new(&t);
        for w in t.wires() {
            let d1 = r.direction(w.a.0, w.b.0);
            let d2 = r.direction(w.b.0, w.a.0);
            assert_ne!(d1, d2, "each link is up one way and down the other");
        }
    }

    #[test]
    fn routes_reach_destination_on_mesh() {
        let t = Topology::mesh2d(4, 4, 8).expect("topology wires within the port budget");
        let r = UpDownRouting::new(&t);
        for src in 0..16 {
            for dst in 0..16 {
                let path = r.route(&t, NodeId(src), NodeId(dst)).expect("reachable");
                if src == dst {
                    assert!(path.is_empty());
                } else {
                    assert_eq!(path.last().expect("non-empty").next, NodeId(dst));
                }
            }
        }
    }

    #[test]
    fn routes_never_go_up_after_down() {
        let t = Topology::mesh2d(4, 4, 8).expect("topology wires within the port budget");
        let r = UpDownRouting::new(&t);
        for src in 0..16u16 {
            for dst in 0..16u16 {
                let path = r.route(&t, NodeId(src), NodeId(dst)).expect("reachable");
                assert_never_up_after_down(&r, NodeId(src), &path);
            }
        }
    }

    #[test]
    fn routes_work_on_irregular_graphs() {
        for seed in 0..10 {
            let mut rng = SeededRng::new(seed);
            let t = Topology::irregular(12, 5, 6, &mut rng).expect("topology wires within the port budget");
            let r = UpDownRouting::new(&t);
            for src in 0..12u16 {
                for dst in 0..12u16 {
                    let path = r.route(&t, NodeId(src), NodeId(dst));
                    assert!(path.is_some(), "seed {seed}: {src}->{dst} unroutable");
                    // Legal distance bounds the realised path length.
                    let path = path.expect("checked");
                    assert_eq!(path.len(), r.legal_distance(NodeId(src), NodeId(dst), None));
                }
            }
        }
    }

    #[test]
    fn legal_distance_at_least_plain_distance() {
        let mut rng = SeededRng::new(3);
        let t = Topology::irregular(10, 5, 4, &mut rng).expect("topology wires within the port budget");
        let r = UpDownRouting::new(&t);
        for src in 0..10u16 {
            for dst in 0..10u16 {
                let legal = r.legal_distance(NodeId(src), NodeId(dst), None);
                let plain = r.distance(NodeId(src), NodeId(dst));
                assert!(legal >= plain, "{src}->{dst}: legal {legal} < plain {plain}");
                assert!(legal != usize::MAX, "connected graphs are legally routable");
            }
        }
    }

    #[test]
    fn next_hops_always_progress() {
        let t = Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget");
        let r = UpDownRouting::new(&t);
        for src in 0..9u16 {
            for dst in 0..9u16 {
                if src == dst {
                    continue;
                }
                let (_, peer, dir) = r
                    .best_hop(&t, NodeId(src), NodeId(dst), None)
                    .unwrap_or_else(|| panic!("{src}->{dst} must offer a hop"));
                let here = r.legal_distance(NodeId(src), NodeId(dst), None);
                let there = r.legal_distance(peer, NodeId(dst), Some(dir));
                assert!(there < here, "the offered hop strictly progresses");
            }
        }
    }

    #[test]
    fn re_rooted_trees_stay_legal_and_reachable() {
        let t = Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget");
        let r = UpDownRouting::with_root(&t, NodeId(4));
        assert_eq!(r.root(), NodeId(4));
        for src in 0..9u16 {
            for dst in 0..9u16 {
                let path = r.route(&t, NodeId(src), NodeId(dst)).expect("reachable");
                if src != dst {
                    assert_eq!(path.last().expect("non-empty").next, NodeId(dst));
                }
                assert_never_up_after_down(&r, NodeId(src), &path);
            }
        }
    }

    #[test]
    fn adaptivity_offers_multiple_hops() {
        let t = Topology::torus2d(4, 4, 8).expect("topology wires within the port budget");
        let r = UpDownRouting::new(&t);
        // Neighbours of `s` that strictly reduce the legal distance to `d`.
        let progressing = |s: NodeId, d: NodeId| {
            let here = r.legal_distance(s, d, None);
            t.neighbors_iter(s)
                .filter(|&(_, peer, _)| {
                    r.legal_distance(peer, d, Some(r.direction(s, peer))) < here
                })
                .count()
        };
        let multi = (0..16u16)
            .flat_map(|s| (0..16u16).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d)
            .filter(|&(s, d)| progressing(NodeId(s), NodeId(d)) > 1)
            .count();
        assert!(multi > 20, "adaptive choice exists for many pairs: {multi}");
    }

    #[test]
    fn down_only_phase_restricts_hops() {
        let t = Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget");
        let r = UpDownRouting::new(&t);
        for src in 0..9u16 {
            for dst in 0..9u16 {
                if src == dst {
                    continue;
                }
                let descending = r.best_hop(&t, NodeId(src), NodeId(dst), Some(LinkDir::Down));
                if let Some((_, peer, _)) = descending {
                    assert_eq!(
                        r.direction(NodeId(src), peer),
                        LinkDir::Down,
                        "descending packets only descend"
                    );
                }
            }
        }
    }
}
