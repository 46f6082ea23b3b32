//! The fault plane's entry points: transient wire faults, link and node
//! failure and repair. Each records the change in the fabric, then has
//! every component holding state on the affected wires let go of it — the
//! same way for a link fault and for each wire of a dead node.

use mmr_core::ids::PortId;

use super::{NetConnectionId, NetError, NetworkSim, TransientKind};
use crate::topology::NodeId;

impl NetworkSim {
    /// Arms a transient wire fault: the next stream flit delivered into
    /// `(node, port)` is corrupted or dropped. Multiple armed transients on
    /// the same endpoint strike successive flits in arming order; an armed
    /// transient persists until a flit consumes it. VCT packets and probes
    /// are not affected (transients model data-plane wire noise).
    ///
    /// # Errors
    ///
    /// [`NetError::TerminalPort`] for NI ports and
    /// [`NetError::UnknownNode`]/[`NetError::InvalidPort`] for out-of-range
    /// addresses.
    pub fn arm_transient(
        &mut self,
        node: NodeId,
        port: PortId,
        kind: TransientKind,
    ) -> Result<(), NetError> {
        self.fabric.wire_endpoint(node, port)?;
        self.wires.arm((node, port), kind);
        Ok(())
    }

    /// Fails the wire attached to `(node, port)` — the fault-injection hook
    /// behind the fault campaigns. Both endpoints stop carrying traffic,
    /// flits currently on the wire are lost, routing recomputes around the
    /// break, and every established connection crossing it is torn down.
    ///
    /// Returns the torn-down connections so callers (such as
    /// [`crate::recovery::RecoveryManager`]) can re-establish them — the
    /// recovery pattern of the fault-tolerant protocols the MMR's EPB
    /// descends from.
    ///
    /// # Errors
    ///
    /// [`NetError::TerminalPort`] for NI ports (they cannot fail here),
    /// [`NetError::LinkAlreadyFailed`] for a wire that is already down, and
    /// [`NetError::UnknownNode`]/[`NetError::InvalidPort`] for out-of-range
    /// addresses. The network is unchanged on error.
    pub fn fail_link(
        &mut self,
        node: NodeId,
        port: PortId,
    ) -> Result<Vec<NetConnectionId>, NetError> {
        let here = (node, port);
        let there = self.fabric.fail_link(node, port)?;
        self.stats.links_failed += 1;
        let mut lost = self.wires.sever(here, there) + self.packets.sever(here, there);

        // Tear down every connection crossing the failed wire; flits still
        // buffered along those paths are lost with them.
        let broken: Vec<NetConnectionId> = self
            .conns
            .values()
            .filter(|c| {
                c.hops.iter().any(|h| {
                    self.routers.get(h.node).connection(h.local).is_some_and(|state| {
                        [state.output_vc.port, state.input_vc.port]
                            .iter()
                            .any(|&p| (h.node, p) == here || (h.node, p) == there)
                    })
                })
            })
            .map(|c| c.id)
            .collect();
        lost += self.teardown_broken(&broken);
        self.stats.flits_lost += lost;
        // Both endpoints must observe the break even if asleep: the fault
        // changed their world (lost frames, dead neighbor) and the wake-set
        // invariant demands re-examination.
        self.routers.wake(node);
        self.routers.wake(there.0);
        Ok(broken)
    }

    /// Repairs the wire attached to `(node, port)`: both endpoints are
    /// spliced back into the operational topology and the up*/down* routing
    /// relation is recomputed over the restored graph. Connections torn
    /// down by the failure are *not* resurrected — re-establish them (or
    /// let a [`crate::recovery::RecoveryManager`] do it).
    ///
    /// # Errors
    ///
    /// [`NetError::LinkNotFailed`] when the wire is operational,
    /// [`NetError::TerminalPort`] for NI ports, and
    /// [`NetError::UnknownNode`]/[`NetError::InvalidPort`] for out-of-range
    /// addresses. The network is unchanged on error.
    pub fn repair_link(&mut self, node: NodeId, port: PortId) -> Result<(), NetError> {
        let (peer, _) = self.fabric.repair_link(node, port)?;
        self.stats.links_repaired += 1;
        // Both endpoints may have been asleep; the restored wire is a state
        // change they must observe.
        self.routers.wake(node);
        self.routers.wake(peer);
        Ok(())
    }

    /// Fails the whole router at `node` — the node-fault hook behind the
    /// fault campaigns. The router is quarantined: every connection
    /// crossing it is torn down (neighbors' VC slots, credits, and
    /// bandwidth reservations released through their live ledgers), its
    /// buffered flits are drained and counted lost, in-flight flits and
    /// VCT packets on its attached wires are lost, the wires' LLR state is
    /// reconciled rather than leaked, active setup probes whose path
    /// touches the router abort (surfacing as
    /// [`SetupError::Aborted`](crate::setup::SetupError::Aborted)
    /// completions on the next step), and up*/down* routing recomputes over
    /// the surviving topology — migrating the spanning-tree root when the
    /// root died.
    ///
    /// Attached wires are *not* marked link-failed: they come back with the
    /// node on [`NetworkSim::repair_node`], while independently failed
    /// links stay failed.
    ///
    /// Returns the torn-down connections so callers (such as
    /// [`crate::recovery::RecoveryManager`]) can evacuate the sessions.
    ///
    /// # Errors
    ///
    /// [`NetError::NodeAlreadyFailed`] for a node that is already down and
    /// [`NetError::UnknownNode`] for out-of-range addresses. The network is
    /// unchanged on error.
    pub fn fail_node(&mut self, node: NodeId) -> Result<Vec<NetConnectionId>, NetError> {
        let attached = self.fabric.fail_node(node)?;
        self.stats.nodes_failed += 1;

        // Abort in-flight setup probes whose stack touches the dying router
        // *before* quarantining it, so their partial reservations release
        // through live ledgers.
        self.abort_probes_visiting(node);

        // Tear down every connection crossing the router while it is still
        // live, so each hop — on the dying node and its neighbors alike —
        // releases through the normal teardown path with exact accounting.
        let broken: Vec<NetConnectionId> = self
            .conns
            .values()
            .filter(|c| c.hops.iter().any(|h| h.node == node))
            .map(|c| c.id)
            .collect();
        let mut lost = self.teardown_broken(&broken);

        // Every attached wire stops carrying traffic, in either direction.
        // The far endpoints wake: a sleeping neighbor must observe its dead
        // peer.
        for (port, peer, peer_port) in attached {
            let (here, there) = ((node, port), (peer, peer_port));
            lost += self.wires.sever(here, there) + self.packets.sever(here, there);
            self.routers.wake(peer);
        }
        lost += self.packets.purge_node(node);

        // Quarantine last: any connection still registered on the router
        // (none, after the teardowns above) is drained with its flits
        // counted, and establishment is refused until repair.
        lost += self.routers.get_mut(node).quarantine() as u64;
        self.stats.flits_lost += lost;
        Ok(broken)
    }

    /// Repairs the router at `node`: the quarantine lifts, its attached
    /// wires (minus any independently failed links) rejoin the operational
    /// topology, and up*/down* routing recomputes. Connections torn down by
    /// the failure are *not* resurrected — re-establish them (or let a
    /// [`crate::recovery::RecoveryManager`] do it).
    ///
    /// # Errors
    ///
    /// [`NetError::NodeNotFailed`] when the node is operational and
    /// [`NetError::UnknownNode`] for out-of-range addresses. The network is
    /// unchanged on error.
    pub fn repair_node(&mut self, node: NodeId) -> Result<(), NetError> {
        let attached = self.fabric.repair_node(node)?;
        self.stats.nodes_repaired += 1;
        self.routers.get_mut(node).lift_quarantine();
        // The revived router and its neighbors all gained usable wires.
        for (_, peer, _) in attached {
            self.routers.wake(peer);
        }
        Ok(())
    }

    /// Tears down the connections a fault broke; returns the flits still
    /// buffered along their paths (lost with them).
    fn teardown_broken(&mut self, broken: &[NetConnectionId]) -> u64 {
        let mut lost = 0;
        for &id in broken {
            match self.teardown_counting(id) {
                Ok(n) => lost += n,
                // The ids came from the live table; a miss here means a
                // duplicate in `broken` — count it rather than panic.
                Err(_) => self.stats.ghost_releases += 1,
            }
        }
        lost
    }
}
