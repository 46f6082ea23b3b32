//! The VCT packet plane: single-flit control / best-effort packets hopping
//! router to router under the fabric's routing engine (§3.4–§3.5), sharing
//! the routers' VC and buffer pool with the PCS streams.

use std::collections::BTreeMap;

use mmr_core::flit::FlitKind;
use mmr_core::ids::PortId;
use mmr_core::router::{PacketError, PacketOutcome};
use mmr_sim::Cycles;

use super::fabric::Fabric;
use super::routers::RouterArray;
use super::{Endpoint, NetError, NetStats, Owner, PacketId};
use crate::routing::{RouteCtx, RoutingAlgorithm};
use crate::topology::{NodeId, Topology};

#[derive(Debug, Clone)]
struct PacketState {
    dst: NodeId,
    kind: FlitKind,
    injected_at: Cycles,
    /// Per-packet routing state (up*/down* phase, butterfly walk segment,
    /// Valiant intermediate — whatever the active algorithm carries).
    ctx: RouteCtx,
    /// The router the packet is buffered in, if any; the router connection
    /// holding it carries its [`Owner::Buffered`] tag.
    buffered_at: Option<NodeId>,
}

/// A packet on a wire, due at the router behind `at`. Unlike stream flits
/// these outlive a step: a cut-through during the arrivals pass is already
/// on its next wire, due the cycle after.
#[derive(Debug, Clone)]
struct PacketArrival {
    deliver_at: Cycles,
    at: Endpoint,
    packet: PacketId,
}

#[derive(Debug, Default)]
pub(super) struct PacketPlane {
    packets: BTreeMap<PacketId, PacketState>,
    arrivals: Vec<PacketArrival>,
    /// Scratch for the arrival pass (capacity persists across cycles).
    arrivals_scratch: Vec<PacketArrival>,
    /// Packets blocked at a node awaiting a free VC, retried each cycle.
    blocked: Vec<(Endpoint, PacketId)>,
    /// Scratch for the blocked-packet retry pass (capacity persists).
    blocked_scratch: Vec<(Endpoint, PacketId)>,
    next_packet: u64,
}

impl PacketPlane {
    /// Creates a packet at `src`'s NI and offers it to the source router.
    pub(super) fn send_packet(
        &mut self,
        (src, dst): (NodeId, NodeId),
        kind: FlitKind,
        now: Cycles,
        fabric: &Fabric,
        routers: &mut RouterArray,
        stats: &mut NetStats,
    ) -> Result<PacketId, NetError> {
        if !matches!(kind, FlitKind::Control | FlitKind::BestEffort) {
            return Err(NetError::NotAPacketKind(kind));
        }
        fabric.check_node(src)?;
        fabric.check_node(dst)?;
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        let Some(entry) = fabric.topology().terminal_port(src) else {
            return Err(NetError::NoTerminalPort { node: src });
        };
        let ctx = fabric.routing().initial_ctx(src, dst, id.0);
        let state = PacketState { dst, kind, injected_at: now, ctx, buffered_at: None };
        self.packets.insert(id, state);
        self.offer((src, entry), id, now, fabric, routers, stats);
        Ok(id)
    }

    /// Offers a packet to the router behind `at`; on `Blocked` it queues
    /// for retry.
    fn offer(
        &mut self,
        at: Endpoint,
        packet: PacketId,
        now: Cycles,
        fabric: &Fabric,
        routers: &mut RouterArray,
        stats: &mut NetStats,
    ) {
        let (node, entry) = at;
        // A packet that vanished (torn down by a fault mid-retry) has
        // nothing left to offer.
        let Some(state) = self.packets.get_mut(&packet) else { return };
        // Next output: terminal port when at the destination, else the
        // routing engine's next hop (the packet's routing context — e.g.
        // the up*/down* descent phase — is sticky).
        let (output, next_ctx) = if node == state.dst {
            let Some(ni) = fabric.topology().terminal_port(node) else {
                // No NI to deliver into: the packet cannot exit; drop it.
                self.packets.remove(&packet);
                stats.ghost_releases += 1;
                return;
            };
            (ni, None)
        } else {
            match fabric.routing().next_hop(fabric.live_topology(), node, state.dst, state.ctx) {
                Some(hop) => (hop.port, Some(hop.ctx)),
                None => {
                    // Unreachable destination: drop the packet.
                    self.packets.remove(&packet);
                    return;
                }
            }
        };
        let outcome = routers.get_mut(node).inject_packet(entry, output, state.kind, now);
        if let Ok(placed) = &outcome {
            state.ctx = next_ctx.unwrap_or(state.ctx);
            state.buffered_at = matches!(placed, PacketOutcome::Buffered(_)).then_some(node);
        }
        match outcome {
            // The packet crossed this router within the cycle; it is now
            // on the output wire (or delivered, at the destination).
            Ok(PacketOutcome::CutThrough) => {
                self.forward(node, output, packet, now, fabric.topology(), stats);
            }
            Ok(PacketOutcome::Buffered(local)) => {
                routers.tag(node, local, Owner::Buffered(packet).tag());
            }
            Err(PacketError::Blocked) => {
                self.blocked.push((at, packet)); // mmr-lint: allow(A-TRANS, reason="bounded by the in-flight packet population; the list keeps its capacity across cycles")
            }
            Err(PacketError::InvalidPort { .. }) => {
                // Ports came from the topology/routing tables; a mismatch
                // means those tables and the router disagree. Drop the
                // packet and count it rather than panic mid-campaign.
                self.packets.remove(&packet);
                stats.ghost_releases += 1;
            }
        }
    }

    /// Moves a packet from `node`'s `output` port onto the wire (or records
    /// delivery when the output is a terminal): it cut through the router,
    /// or the router transmitted it from a buffer (packet connections tear
    /// down on transmit inside the router).
    pub(super) fn forward(
        &mut self,
        node: NodeId,
        output: PortId,
        packet: PacketId,
        now: Cycles,
        topology: &Topology,
        stats: &mut NetStats,
    ) {
        match topology.peer_of(node, output) {
            Some(at) => {
                if let Some(state) = self.packets.get_mut(&packet) {
                    state.buffered_at = None;
                }
                // mmr-lint: allow(A-TRANS, reason="amortized: the arrival buffer keeps its capacity across cycles (scratch-swap delivery pass)")
                self.arrivals.push(PacketArrival { deliver_at: now + Cycles(1), at, packet });
            }
            None => {
                let Some(state) = self.packets.remove(&packet) else { return };
                debug_assert_eq!(node, state.dst, "packets exit only at their destination");
                let latency = now.since(state.injected_at);
                stats.packet_latency.record(latency.as_f64());
                stats.packets_delivered += 1;
            }
        }
    }

    /// Retries packets blocked waiting for a free VC, strictly in
    /// first-blocked order: offers run oldest-first and a still-blocked
    /// packet re-queues before anything that blocks later in the cycle,
    /// so VC allocation can never depend on buffer churn (regression:
    /// `blocked_packets_retry_in_fifo_order`). The scratch swap keeps
    /// both buffers' capacity across cycles.
    pub(super) fn retry_blocked(
        &mut self,
        now: Cycles,
        fabric: &Fabric,
        routers: &mut RouterArray,
        stats: &mut NetStats,
    ) {
        let mut blocked = std::mem::take(&mut self.blocked_scratch);
        std::mem::swap(&mut blocked, &mut self.blocked);
        for &(at, packet) in &blocked {
            self.offer(at, packet, now, fabric, routers, stats);
        }
        blocked.clear();
        self.blocked_scratch = blocked;
    }

    /// Offers the packets that finished crossing a wire to the routers
    /// behind it. A cut-through here is already on its next wire, due the
    /// cycle after, so later arrivals are kept (same scratch-swap
    /// discipline as the blocked queue).
    pub(super) fn deliver_arrivals(
        &mut self,
        now: Cycles,
        fabric: &Fabric,
        routers: &mut RouterArray,
        stats: &mut NetStats,
    ) {
        let mut arriving = std::mem::take(&mut self.arrivals_scratch);
        std::mem::swap(&mut arriving, &mut self.arrivals);
        for a in arriving.drain(..) {
            if a.deliver_at > now + Cycles(1) {
                // mmr-lint: allow(A-TRANS, reason="amortized: the arrival buffer keeps its capacity across cycles (scratch-swap delivery pass)")
                self.arrivals.push(a);
            } else {
                self.offer(a.at, a.packet, a.deliver_at, fabric, routers, stats);
            }
        }
        self.arrivals_scratch = arriving;
    }

    /// Every buffered packet with the router holding it.
    pub(super) fn buffered(&self) -> impl Iterator<Item = (NodeId, PacketId)> + '_ {
        self.packets.iter().filter_map(|(&packet, state)| Some((state.buffered_at?, packet)))
    }

    /// The wire between `a` and `b` was cut: packets on it, in either
    /// direction, are lost. Returns how many.
    pub(super) fn sever(&mut self, a: Endpoint, b: Endpoint) -> u64 {
        let mut lost = 0;
        self.arrivals.retain(|arrival| {
            let dead = arrival.at == a || arrival.at == b;
            if dead {
                self.packets.remove(&arrival.packet);
                lost += 1;
            }
            !dead
        });
        lost
    }

    /// The router at `node` died: packets buffered in its VCs are drained
    /// (and counted) by the router's quarantine, so only their records go;
    /// packets blocked there awaiting a VC evaporate with it and are
    /// returned as lost.
    pub(super) fn purge_node(&mut self, node: NodeId) -> u64 {
        let mut lost = 0;
        self.packets.retain(|_, state| state.buffered_at != Some(node));
        self.blocked.retain(|&((n, _), packet)| {
            if n == node {
                self.packets.remove(&packet);
                lost += 1;
            }
            n != node
        });
        lost
    }
}

#[cfg(test)]
mod tests {
    use mmr_core::router::RouterConfig;

    use super::*;
    use crate::network::NetworkSim;

    /// Guards the retry-order invariant documented on [`PacketPlane::retry_blocked`]:
    /// blocked packets win freed VCs strictly in first-blocked order, and a
    /// still-blocked packet re-queues ahead of anything that blocks later
    /// in the same cycle.
    #[test]
    fn blocked_packets_retry_in_fifo_order() {
        // Tiny VC pool so a same-cycle burst down one path saturates it and
        // the tail lands in the blocked queue.
        let topology = Topology::mesh2d(2, 2, 6).expect("topology wires within the port budget");
        let cfg = RouterConfig::paper_default().vcs_per_port(2).candidates(2).vc_depth(2);
        let mut net = NetworkSim::new(topology, cfg);
        let ids: Vec<PacketId> = (0..12)
            .map(|_| {
                net.send_packet(NodeId(0), NodeId(1), FlitKind::BestEffort, Cycles(0))
                    .expect("valid")
            })
            .collect();
        // Whatever failed to win a VC at injection queued in send order, and
        // it is exactly the latest sends (the head of the burst got the VCs).
        let blocked: Vec<PacketId> = net.packets.blocked.iter().map(|&(_, p)| p).collect();
        assert!(!blocked.is_empty(), "burst saturates the VC pool");
        assert!(ids.ends_with(&blocked), "blocked tail {blocked:?} in send order of {ids:?}");

        let mut prev = blocked;
        for t in 0..500u64 {
            net.step(Cycles(t));
            let cur: Vec<PacketId> = net.packets.blocked.iter().map(|&(_, p)| p).collect();
            // Survivors are the packets blocked both before and after the
            // cycle. FIFO retries mean (a) whatever left the queue was its
            // oldest entries — survivors are a suffix of the old queue —
            // and (b) survivors re-queued before anything newly blocked
            // this cycle — they are a prefix of the new queue.
            let survivors: Vec<PacketId> =
                cur.iter().copied().filter(|p| prev.contains(p)).collect();
            assert!(
                prev.ends_with(&survivors),
                "cycle {t}: retries must drain oldest-first; {prev:?} -> {cur:?}"
            );
            assert!(
                cur.starts_with(&survivors),
                "cycle {t}: still-blocked packets re-queue first; {prev:?} -> {cur:?}"
            );
            prev = cur;
            if net.stats().packets_delivered == ids.len() as u64 {
                break;
            }
        }
        assert_eq!(net.stats().packets_delivered, 12, "all packets deliver via FIFO retries");
    }
}
