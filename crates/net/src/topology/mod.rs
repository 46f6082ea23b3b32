//! Network topologies.
//!
//! The MMR targets clusters and LANs, which often have *irregular*
//! topologies (§3.5 cites the adaptive routing of Silla & Duato for
//! "wormhole networks with irregular topology"). This module builds the
//! standard regular shapes (2D mesh, 2D torus, ring) plus connected random
//! irregular graphs, and assigns router ports: each node's low-numbered
//! ports are wired to neighbours, the remainder serve as network-interface
//! (terminal) ports.
//!
//! The HPC-scale shapes live in submodules and share the same `Topology`
//! representation: [`Dragonfly`] (fully-connected groups joined by global
//! links), [`Butterfly`] (k-ary n-fly multistage) and [`Hypercube`]. Each
//! exposes a parameter struct whose `build()` wires the fabric through
//! [`Topology::connect_next_free`], plus closed-form node/link/diameter
//! figures that the property-test wall checks against the built graph.

use mmr_core::ids::PortId;
use mmr_sim::SeededRng;

mod dragonfly;
mod hypercube;
mod multistage;

pub use dragonfly::Dragonfly;
pub use hypercube::Hypercube;
pub use multistage::Butterfly;

/// A node (router) index in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Errors from wiring a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// Every port of the node is already wired — the requested shape needs
    /// more ports per router.
    NoFreePort {
        /// The saturated node.
        node: NodeId,
    },
    /// The two nodes are already joined by a direct wire; the regular
    /// builders never need parallel links, so asking for one is a bug in
    /// the caller's wiring plan.
    DuplicateLink {
        /// First endpoint of the existing link.
        a: NodeId,
        /// Second endpoint of the existing link.
        b: NodeId,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::NoFreePort { node } => {
                write!(f, "node {node} has no free port; increase ports_per_node")
            }
            TopologyError::DuplicateLink { a, b } => {
                write!(f, "nodes {a} and {b} are already linked")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// One endpoint-to-endpoint wire between two router ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wire {
    /// First endpoint.
    pub a: (NodeId, PortId),
    /// Second endpoint.
    pub b: (NodeId, PortId),
}

/// An undirected multigraph of routers with port assignments.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: usize,
    ports_per_node: u8,
    wires: Vec<Wire>,
    /// peer\[node\]\[port\] = Some((peer node, peer port)).
    peer: Vec<Vec<Option<(NodeId, PortId)>>>,
}

impl Topology {
    /// Creates an edgeless topology of `nodes` routers with `ports_per_node`
    /// ports each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(nodes: usize, ports_per_node: u8) -> Self {
        // mmr-lint: allow(P-TRANS, reason="construction-time topology validation; unreachable from the per-cycle path")
        assert!(nodes > 0, "need at least one node");
        assert!(ports_per_node > 0, "routers need ports"); // mmr-lint: allow(P-TRANS, reason="construction-time topology validation; unreachable from the per-cycle path")
        Topology {
            nodes,
            ports_per_node,
            wires: Vec::new(),
            peer: vec![vec![None; usize::from(ports_per_node)]; nodes],
        }
    }

    /// Number of routers.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Ports per router.
    pub fn ports_per_node(&self) -> u8 {
        self.ports_per_node
    }

    /// All wires.
    pub fn wires(&self) -> &[Wire] {
        &self.wires
    }

    /// Connects two free ports with a wire.
    ///
    /// # Panics
    ///
    /// Panics if a port is out of range or already wired, or on self-loops
    /// at the same port.
    pub fn connect(&mut self, a: (NodeId, PortId), b: (NodeId, PortId)) {
        // mmr-lint: allow(P-TRANS, reason="construction-time topology validation; unreachable from the per-cycle path")
        assert!(a != b, "cannot wire a port to itself");
        for &(n, p) in &[a, b] {
            assert!(n.index() < self.nodes, "node {n} out of range"); // mmr-lint: allow(P-TRANS, reason="construction-time topology validation; unreachable from the per-cycle path")
            assert!(p.index() < usize::from(self.ports_per_node), "port {p} out of range"); // mmr-lint: allow(P-TRANS, reason="construction-time topology validation; unreachable from the per-cycle path")
            assert!(self.peer[n.index()][p.index()].is_none(), "port {n}.{p} already wired"); // mmr-lint: allow(P-TRANS, reason="construction-time topology validation; unreachable from the per-cycle path")
        }
        self.peer[a.0.index()][a.1.index()] = Some(b); // mmr-lint: allow(P-TRANS, reason="both ports were just bounds-asserted against the fixed dimensions")
        self.peer[b.0.index()][b.1.index()] = Some(a); // mmr-lint: allow(P-TRANS, reason="both ports were just bounds-asserted against the fixed dimensions")
        self.wires.push(Wire { a, b });
    }

    /// The peer of a port, if wired (`None` = terminal / NI port).
    pub fn peer_of(&self, node: NodeId, port: PortId) -> Option<(NodeId, PortId)> {
        // mmr-lint: allow(P-TRANS, reason="the peer tables are fully sized at construction; node/port ids are validated at wiring time")
        self.peer[node.index()][port.index()]
    }

    /// Whether a port is a terminal (network-interface) port.
    pub fn is_terminal(&self, node: NodeId, port: PortId) -> bool {
        self.peer_of(node, port).is_none()
    }

    /// The first terminal port of a node, if any.
    pub fn terminal_port(&self, node: NodeId) -> Option<PortId> {
        (0..self.ports_per_node).map(PortId).find(|&p| self.is_terminal(node, p))
    }

    /// Neighbours of a node without materializing a list: the allocation-free
    /// form used on per-packet paths (routing, reconvergence sweeps).
    pub fn neighbors_iter(
        &self,
        node: NodeId,
    ) -> impl Iterator<Item = (PortId, NodeId, PortId)> + '_ {
        (0..self.ports_per_node).filter_map(move |p| {
            let port = PortId(p);
            self.peer_of(node, port).map(|(n, pp)| (port, n, pp))
        })
    }

    /// Neighbours of a node: (local port, peer node, peer port).
    pub fn neighbors(&self, node: NodeId) -> Vec<(PortId, NodeId, PortId)> {
        // mmr-lint: allow(A-TRANS, reason="materialized neighbor lists are control-plane only (setup probes, topology construction); per-packet routing uses neighbors_iter")
        self.neighbors_iter(node).collect()
    }

    /// Router degree (wired ports) of a node.
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors_iter(node).count()
    }

    /// Whether a direct wire already joins `a` and `b`.
    pub fn linked(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors_iter(a).any(|(_, peer, _)| peer == b)
    }

    /// For tests: whether every router reaches every other.
    #[doc(hidden)]
    pub fn is_connected(&self) -> bool {
        if self.nodes <= 1 {
            return true;
        }
        let mut seen = vec![false; self.nodes];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        while let Some(n) = stack.pop() {
            for (_, peer, _) in self.neighbors_iter(n) {
                if !std::mem::replace(&mut seen[peer.index()], true) {
                    stack.push(peer);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// BFS hop distances from `from` to every node (`usize::MAX` if
    /// unreachable).
    pub fn distances_from(&self, from: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.nodes];
        // mmr-lint: allow(P-TRANS, reason="dist was just sized to the node count; from is a valid node id")
        dist[from.index()] = 0;
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            for (_, peer, _) in self.neighbors_iter(n) {
                if dist[peer.index()] == usize::MAX { // mmr-lint: allow(P-TRANS, reason="dist is sized to the node count; peer ids come from the wired topology")
                    dist[peer.index()] = dist[n.index()] + 1; // mmr-lint: allow(P-TRANS, reason="dist is sized to the node count; peer ids come from the wired topology")
                    queue.push_back(peer);
                }
            }
        }
        dist
    }

    /// The lowest-numbered unwired port of a node.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoFreePort`] if every port is wired.
    pub fn next_free_port(&self, node: NodeId) -> Result<PortId, TopologyError> {
        (0..self.ports_per_node)
            .map(PortId)
            .find(|&p| self.peer_of(node, p).is_none())
            .ok_or(TopologyError::NoFreePort { node })
    }

    /// Wires the next free port of `a` to the next free port of `b`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DuplicateLink`] if the nodes are already
    /// directly linked and [`TopologyError::NoFreePort`] if either node has
    /// no port left; the topology is unchanged in either case. Parallel
    /// links remain expressible through [`Topology::connect`] with explicit
    /// ports.
    pub fn connect_next_free(&mut self, a: NodeId, b: NodeId) -> Result<(), TopologyError> {
        if self.linked(a, b) {
            return Err(TopologyError::DuplicateLink { a, b });
        }
        let pa = self.next_free_port(a)?;
        let pb = self.next_free_port(b)?;
        self.connect((a, pa), (b, pb));
        Ok(())
    }

    /// A `width × height` 2D mesh. Each router needs at least 4 + 1 ports
    /// (4 directions plus a terminal).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoFreePort`] if a router runs out of ports
    /// while wiring.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are zero or `ports_per_node < 5`.
    pub fn mesh2d(width: usize, height: usize, ports_per_node: u8) -> Result<Self, TopologyError> {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        assert!(ports_per_node >= 5, "a 2D mesh router needs >= 5 ports");
        let mut t = Topology::new(width * height, ports_per_node);
        let id = |x: usize, y: usize| NodeId((y * width + x) as u16);
        for y in 0..height {
            for x in 0..width {
                if x + 1 < width {
                    t.connect_next_free(id(x, y), id(x + 1, y))?;
                }
                if y + 1 < height {
                    t.connect_next_free(id(x, y), id(x, y + 1))?;
                }
            }
        }
        Ok(t)
    }

    /// A `width × height` 2D torus (wrap-around mesh). Degenerate dimensions
    /// of size 1 or 2 fall back to single links instead of double wires.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoFreePort`] if a router runs out of ports
    /// while wiring.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are zero or `ports_per_node < 5`.
    pub fn torus2d(width: usize, height: usize, ports_per_node: u8) -> Result<Self, TopologyError> {
        assert!(width > 0 && height > 0, "torus dimensions must be positive");
        assert!(ports_per_node >= 5, "a 2D torus router needs >= 5 ports");
        let mut t = Topology::new(width * height, ports_per_node);
        let id = |x: usize, y: usize| NodeId((y * width + x) as u16);
        for y in 0..height {
            for x in 0..width {
                if width > 1 && (x + 1 < width || width > 2) {
                    t.connect_next_free(id(x, y), id((x + 1) % width, y))?;
                }
                if height > 1 && (y + 1 < height || height > 2) {
                    t.connect_next_free(id(x, y), id(x, (y + 1) % height))?;
                }
            }
        }
        Ok(t)
    }

    /// A ring of `nodes` routers.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoFreePort`] if a router runs out of ports
    /// while wiring.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 3` or `ports_per_node < 3`.
    pub fn ring(nodes: usize, ports_per_node: u8) -> Result<Self, TopologyError> {
        assert!(nodes >= 3, "a ring needs at least three nodes");
        assert!(ports_per_node >= 3, "a ring router needs >= 3 ports");
        let mut t = Topology::new(nodes, ports_per_node);
        for n in 0..nodes {
            t.connect_next_free(NodeId(n as u16), NodeId(((n + 1) % nodes) as u16))?;
        }
        Ok(t)
    }

    /// A connected random irregular topology: a random spanning tree plus
    /// `extra_links` random additional links, degree-bounded so every node
    /// keeps at least one terminal port.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoFreePort`] if a router runs out of ports
    /// while wiring (the degree bound makes this unreachable in practice).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or `ports_per_node < 3`.
    pub fn irregular(
        nodes: usize,
        ports_per_node: u8,
        extra_links: usize,
        rng: &mut SeededRng,
    ) -> Result<Self, TopologyError> {
        assert!(nodes > 0, "need at least one node");
        assert!(ports_per_node >= 3, "irregular routers need >= 3 ports");
        let mut t = Topology::new(nodes, ports_per_node);
        let max_degree = usize::from(ports_per_node) - 1; // keep one NI port
        // Random spanning tree: connect each new node to a random earlier
        // node with spare degree.
        let mut order: Vec<usize> = (0..nodes).collect();
        rng.shuffle(&mut order);
        for i in 1..nodes {
            let new = NodeId(order[i] as u16);
            // Pick an attachment point with room.
            let mut tries = 0;
            loop {
                let parent = NodeId(order[rng.index(i)] as u16);
                if t.degree(parent) < max_degree {
                    t.connect_next_free(parent, new)?;
                    break;
                }
                tries += 1;
                if tries > nodes * 4 {
                    // Fall back to a linear scan for a node with room.
                    let parent = (0..i)
                        .map(|j| NodeId(order[j] as u16))
                        .find(|&n| t.degree(n) < max_degree)
                        .expect("tree attachment always exists under the degree bound");
                    t.connect_next_free(parent, new)?;
                    break;
                }
            }
        }
        // Extra random links.
        let mut added = 0;
        let mut attempts = 0;
        while added < extra_links && attempts < extra_links * 20 + 40 {
            attempts += 1;
            let a = NodeId(rng.index(nodes) as u16);
            let b = NodeId(rng.index(nodes) as u16);
            if a == b || t.degree(a) >= max_degree || t.degree(b) >= max_degree {
                continue;
            }
            // Skip duplicate direct links for cleaner graphs (wiring one
            // would be rejected as a DuplicateLink anyway).
            if t.linked(a, b) {
                continue;
            }
            t.connect_next_free(a, b)?;
            added += 1;
        }
        Ok(t)
    }

    /// A balanced dragonfly with `a` routers per group, `p` terminals per
    /// router and `h` global links per router (`a·h + 1` groups).
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if the wiring plan is inconsistent; see
    /// [`Dragonfly::build`].
    pub fn dragonfly(a: u16, p: u16, h: u16) -> Result<Self, TopologyError> {
        Dragonfly::balanced(a, p, h).build()
    }

    /// A k-ary n-fly butterfly with `stages` switch columns.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if the wiring plan is inconsistent; see
    /// [`Butterfly::build`].
    pub fn butterfly(k: u16, stages: u16) -> Result<Self, TopologyError> {
        Butterfly::new(k, stages).build()
    }

    /// For tests: a binary hypercube of `2^dim` routers.
    #[doc(hidden)]
    pub fn hypercube(dim: u32) -> Result<Self, TopologyError> {
        Hypercube::new(dim).build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_shape() {
        let t = Topology::mesh2d(3, 3, 8).expect("wires fit");
        assert_eq!(t.nodes(), 9);
        assert_eq!(t.wires().len(), 12); // 2*3*2 horizontal+vertical
        assert!(t.is_connected());
        // Corner has degree 2, centre degree 4.
        assert_eq!(t.degree(NodeId(0)), 2);
        assert_eq!(t.degree(NodeId(4)), 4);
        // Every node keeps a terminal port on an 8-port router.
        for n in 0..9 {
            assert!(t.terminal_port(NodeId(n)).is_some());
        }
    }

    #[test]
    fn torus_is_regular() {
        let t = Topology::torus2d(3, 3, 8).expect("wires fit");
        assert!(t.is_connected());
        for n in 0..9 {
            assert_eq!(t.degree(NodeId(n)), 4, "torus nodes all have degree 4");
        }
        assert_eq!(t.wires().len(), 18);
    }

    #[test]
    fn torus_degenerate_dimensions() {
        // 2-wide torus must not double-wire.
        let t = Topology::torus2d(2, 3, 8).expect("wires fit");
        assert!(t.is_connected());
        assert_eq!(t.degree(NodeId(0)), 3); // 1 horizontal + 2 vertical
    }

    #[test]
    fn ring_shape() {
        let t = Topology::ring(5, 4).expect("wires fit");
        assert!(t.is_connected());
        for n in 0..5 {
            assert_eq!(t.degree(NodeId(n)), 2);
        }
    }

    #[test]
    fn wires_are_symmetric() {
        let t = Topology::mesh2d(2, 2, 8).expect("wires fit");
        for w in t.wires() {
            assert_eq!(t.peer_of(w.a.0, w.a.1), Some(w.b));
            assert_eq!(t.peer_of(w.b.0, w.b.1), Some(w.a));
        }
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_wiring_panics() {
        let mut t = Topology::new(2, 2);
        t.connect((NodeId(0), PortId(0)), (NodeId(1), PortId(0)));
        t.connect((NodeId(0), PortId(0)), (NodeId(1), PortId(1)));
    }

    #[test]
    fn irregular_is_connected_and_degree_bounded() {
        for seed in 0..10 {
            let mut rng = SeededRng::new(seed);
            let t = Topology::irregular(12, 5, 6, &mut rng).expect("wires fit");
            assert!(t.is_connected(), "seed {seed}");
            for n in 0..12 {
                let node = NodeId(n);
                assert!(t.degree(node) <= 4, "degree bound leaves an NI port");
                assert!(t.terminal_port(node).is_some());
            }
        }
    }

    #[test]
    fn distances_bfs() {
        let t = Topology::mesh2d(3, 3, 8).expect("wires fit");
        let d = t.distances_from(NodeId(0));
        assert_eq!(d[0], 0);
        assert_eq!(d[8], 4, "opposite corner of a 3x3 mesh");
    }

    #[test]
    fn exhausted_ports_surface_as_an_error() {
        let mut t = Topology::new(3, 1);
        t.connect_next_free(NodeId(0), NodeId(1)).expect("both nodes have a free port");
        assert_eq!(
            t.connect_next_free(NodeId(0), NodeId(2)),
            Err(TopologyError::NoFreePort { node: NodeId(0) }),
        );
        assert_eq!(t.wires().len(), 1, "failed wiring leaves the topology unchanged");
        assert_eq!(t.next_free_port(NodeId(2)), Ok(PortId(0)));
        let msg = TopologyError::NoFreePort { node: NodeId(0) }.to_string();
        assert!(msg.contains("n0 has no free port"), "{msg}");
    }

    #[test]
    fn duplicate_links_surface_as_an_error() {
        let mut t = Topology::new(3, 4);
        t.connect_next_free(NodeId(0), NodeId(1)).expect("both nodes have a free port");
        assert_eq!(
            t.connect_next_free(NodeId(1), NodeId(0)),
            Err(TopologyError::DuplicateLink { a: NodeId(1), b: NodeId(0) }),
        );
        assert_eq!(t.wires().len(), 1, "rejected wiring leaves the topology unchanged");
        let msg = TopologyError::DuplicateLink { a: NodeId(1), b: NodeId(0) }.to_string();
        assert!(msg.contains("n1 and n0 are already linked"), "{msg}");
        // Parallel links stay expressible through explicit ports.
        t.connect((NodeId(0), PortId(2)), (NodeId(1), PortId(2)));
        assert_eq!(t.wires().len(), 2);
    }

    #[test]
    fn single_node_topology_is_connected() {
        let t = Topology::new(1, 8);
        assert!(t.is_connected());
        assert_eq!(t.terminal_port(NodeId(0)), Some(PortId(0)));
    }
}
