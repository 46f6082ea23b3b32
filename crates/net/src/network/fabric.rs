//! The fabric: the physical topology, which of its wires and routers are
//! up, and the routing engine over the survivors. The only place that
//! records a failure, bumps the topology epoch and rebuilds routing.

use std::collections::BTreeSet;

use mmr_core::ids::PortId;

use super::{Endpoint, NetError};
use crate::routing::{MinimalRouting, Routing, RoutingSpec};
use crate::topology::{NodeId, Topology};
use crate::updown::UpDownRouting;

#[derive(Debug)]
pub(super) struct Fabric {
    topology: Topology,
    /// The surviving graph after failures (routing decisions use this).
    live: Topology,
    routing: Routing,
    /// The configured routing description; faults fall back to up*/down*
    /// over the survivor graph, full repair restores this.
    spec: RoutingSpec,
    /// Ports whose attached wire has failed (both endpoints are listed).
    failed_ports: BTreeSet<Endpoint>,
    /// Nodes whose whole router has failed (quarantined). Kept separate
    /// from `failed_ports` so link faults on a dead node's wires compose
    /// independently; a wire is operational only if neither its endpoints
    /// nor their owning nodes are failed.
    failed_nodes: BTreeSet<NodeId>,
    /// Monotonic counter bumped by every topology change (link or node,
    /// fail or repair). Recovery parks partitioned sessions against the
    /// epoch they were rejected in and re-probes only when it moves.
    epoch: u64,
}

impl Fabric {
    pub(super) fn new(topology: Topology, spec: RoutingSpec) -> Self {
        Fabric {
            routing: Routing::build(spec, &topology),
            spec,
            live: topology.clone(),
            topology,
            failed_ports: BTreeSet::new(),
            failed_nodes: BTreeSet::new(),
            epoch: 0,
        }
    }

    /// The physical topology (as built, including failed wires).
    pub(super) fn topology(&self) -> &Topology {
        &self.topology
    }

    pub(super) fn live_topology(&self) -> &Topology {
        &self.live
    }

    pub(super) fn routing(&self) -> &Routing {
        &self.routing
    }

    pub(super) fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(super) fn link_ok(&self, node: NodeId, port: PortId) -> bool {
        !self.failed_ports.contains(&(node, port))
    }

    pub(super) fn node_ok(&self, node: NodeId) -> bool {
        !self.failed_nodes.contains(&node)
    }

    pub(super) fn check_node(&self, node: NodeId) -> Result<(), NetError> {
        if node.index() < self.topology.nodes() {
            Ok(())
        } else {
            Err(NetError::UnknownNode { node })
        }
    }

    /// Validates that `(node, port)` addresses an inter-router wire and
    /// returns its far endpoint.
    pub(super) fn wire_endpoint(&self, node: NodeId, port: PortId) -> Result<Endpoint, NetError> {
        self.check_node(node)?;
        if port.index() >= usize::from(self.topology.ports_per_node()) {
            return Err(NetError::InvalidPort { node, port });
        }
        self.topology.peer_of(node, port).ok_or(NetError::TerminalPort { node, port })
    }

    /// Marks the wire at `(node, port)` failed and reroutes around it;
    /// returns the far endpoint. Unchanged on error.
    pub(super) fn fail_link(&mut self, node: NodeId, port: PortId) -> Result<Endpoint, NetError> {
        let peer = self.wire_endpoint(node, port)?;
        if !self.link_ok(node, port) {
            return Err(NetError::LinkAlreadyFailed { node, port });
        }
        self.failed_ports.insert((node, port));
        self.failed_ports.insert(peer);
        self.topology_changed();
        Ok(peer)
    }

    /// Splices the wire at `(node, port)` back in; returns the far
    /// endpoint. Unchanged on error.
    pub(super) fn repair_link(&mut self, node: NodeId, port: PortId) -> Result<Endpoint, NetError> {
        let peer = self.wire_endpoint(node, port)?;
        if self.link_ok(node, port) {
            return Err(NetError::LinkNotFailed { node, port });
        }
        self.failed_ports.remove(&(node, port));
        self.failed_ports.remove(&peer);
        self.topology_changed();
        Ok(peer)
    }

    /// Marks `node` failed and reroutes around it; returns its attached
    /// wires as `(port, peer, peer_port)`. The wires are *not* marked
    /// link-failed: they come back with the node, while independently
    /// failed links stay failed. Unchanged on error.
    pub(super) fn fail_node(
        &mut self,
        node: NodeId,
    ) -> Result<Vec<(PortId, NodeId, PortId)>, NetError> {
        self.check_node(node)?;
        if !self.failed_nodes.insert(node) {
            return Err(NetError::NodeAlreadyFailed { node });
        }
        self.topology_changed();
        Ok(self.topology.neighbors(node))
    }

    /// Brings `node` back; returns its attached wires as
    /// `(port, peer, peer_port)`. Unchanged on error.
    pub(super) fn repair_node(
        &mut self,
        node: NodeId,
    ) -> Result<Vec<(PortId, NodeId, PortId)>, NetError> {
        self.check_node(node)?;
        if !self.failed_nodes.remove(&node) {
            return Err(NetError::NodeNotFailed { node });
        }
        self.topology_changed();
        Ok(self.topology.neighbors(node))
    }

    /// Rebuilds the operational topology and the routing engine from the
    /// physical topology minus the currently failed wires and the wires
    /// attached to failed nodes, and moves the epoch. Structured
    /// algorithms assume the intact regular fabric, so any failure swaps
    /// routing to up*/down* over the survivor graph; once everything is
    /// repaired the configured algorithm is restored.
    fn topology_changed(&mut self) {
        self.epoch += 1;
        if self.failed_ports.is_empty() && self.failed_nodes.is_empty() {
            self.routing = Routing::build(self.spec, &self.topology);
            self.live = self.topology.clone();
            return;
        }
        let mut survivor = Topology::new(self.topology.nodes(), self.topology.ports_per_node());
        for w in self.topology.wires() {
            let dead = self.failed_ports.contains(&w.a)
                || self.failed_ports.contains(&w.b)
                || self.failed_nodes.contains(&w.a.0)
                || self.failed_nodes.contains(&w.b.0);
            if !dead {
                survivor.connect(w.a, w.b);
            }
        }
        // Root migration: the spanning tree hangs from the lowest-id live
        // node, so the default root (node 0) dying re-roots the orientation
        // deterministically instead of leveling from a dead router.
        let root = (0..self.topology.nodes() as u16)
            .map(NodeId)
            .find(|n| !self.failed_nodes.contains(n))
            .unwrap_or(NodeId(0));
        self.routing =
            Routing::Minimal(MinimalRouting::UpDown(UpDownRouting::with_root(&survivor, root)));
        self.live = survivor;
    }
}
