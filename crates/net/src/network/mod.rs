//! The multi-router network simulator.
//!
//! [`NetworkSim`] instantiates one [`Router`] per topology node, wires their
//! ports per the [`Topology`], and moves flits across links with one flit
//! cycle of wire latency and credit-based link-level flow control (§3.2's
//! "flits_available / credits_available" machinery operating across real
//! router boundaries). Established connections span multiple routers via
//! pinned virtual channels — the direct/reverse channel mappings of §3.5 —
//! and single-flit VCT packets (control / best-effort) hop through the
//! network under up*/down* adaptive routing (§3.4–§3.5).
//!
//! The simulator is a thin owner of four components, each with private
//! state and a narrow surface, coupled only inside [`NetworkSim::step`]
//! (DESIGN.md "NetworkSim anatomy"): the fabric (`fabric.rs`: which wires
//! are up, the topology epoch, routing), the wires and their link-level
//! retry layer (`wire.rs`), the VCT packet plane (`packets.rs`) and the
//! router array with its wake set (`routers.rs`). The asynchronous setup
//! probes live beside their state machine in [`crate::setup`]; the fault
//! entry points that orchestrate all of them are in `faults.rs`.

use std::collections::BTreeMap;

use mmr_core::audit::{AuditConfig, AuditViolation, Auditor};
use mmr_core::conn::ConnectionRequest;
use mmr_core::flit::{Flit, FlitKind};
use mmr_core::ids::{ConnRef, ConnectionId, PortId, VcIndex, VcRef};
use mmr_core::llr::LlrConfig;
use mmr_core::router::{EstablishError, InjectError, Router, RouterConfig};
use mmr_sim::{Bandwidth, Cycles, SeededRng};

use crate::routing::{Routing, RoutingSpec};
use crate::setup::ProbeQueue;
use crate::topology::{NodeId, Topology};

mod audit_pass;
mod fabric;
mod faults;
mod packets;
mod routers;
mod types;
mod wire;

// Unit tests, one file per concern; each file gates itself with
// `#![cfg(test)]`.
mod async_setup_tests;
mod failure_tests;
mod fault_plane_tests;
mod node_fault_tests;
mod tests;

use audit_pass::AuditPass;
use fabric::Fabric;
use packets::PacketPlane;
use routers::RouterArray;
use wire::Wires;

pub use types::{
    DeliveredFlit, Hop, NetConnection, NetConnectionId, NetError, NetStats, NetStepReport,
    PacketId, ProbeToken, SetupEvent, TransientKind,
};

/// One end of an inter-router wire: a router and the port the wire plugs
/// into. Per-wire state is keyed by the *receiving* endpoint.
type Endpoint = (NodeId, PortId);

/// Who owns a router connection, as the connection's tag
/// ([`ConnState::tag`](mmr_core::conn::ConnState::tag)) spells it: hop `at`
/// of a session, or a VCT packet buffered in that router. Tag 0 — never
/// set — is a setup probe's reservation.
#[derive(Debug, Clone, Copy)]
enum Owner {
    Hop(NetConnectionId, u16),
    Buffered(PacketId),
}

impl Owner {
    const HOP: u64 = 1 << 62;
    const PACKET: u64 = 1 << 63;

    fn tag(self) -> u64 {
        match self {
            Owner::Hop(id, at) => Self::HOP | u64::from(id.0) << 16 | u64::from(at),
            Owner::Buffered(packet) => Self::PACKET | packet.0,
        }
    }

    fn of(tag: u64) -> Option<Owner> {
        if tag & Self::PACKET != 0 {
            Some(Owner::Buffered(PacketId(tag & !Self::PACKET)))
        } else if tag & Self::HOP != 0 {
            Some(Owner::Hop(NetConnectionId((tag >> 16) as u32), tag as u16))
        } else {
            None
        }
    }
}

/// The multi-router simulator.
#[derive(Debug)]
pub struct NetworkSim {
    fabric: Fabric,
    routers: RouterArray,
    wires: Wires,
    packets: PacketPlane,
    /// Asynchronous setups in flight ([`NetworkSim::request_connection`]).
    pub(crate) probes: ProbeQueue,
    /// The live sessions. Which session hop a router connection is rides
    /// on the connection itself, as its [`Owner`] tag.
    conns: BTreeMap<NetConnectionId, NetConnection>,
    next_conn: u32,
    pub(crate) rng: SeededRng,
    stats: NetStats,
    /// The invariant auditor, when enabled ([`NetworkSim::enable_audit`] or
    /// the `MMR_AUDIT=1` environment switch).
    auditor: Option<Auditor>,
    /// Escalate any violation to a panic (set by `MMR_AUDIT=1`; cleared by
    /// an explicit [`NetworkSim::enable_audit`], which records instead).
    audit_enforce: bool,
    /// What the auditor's end-of-cycle pass carries from one cycle to the
    /// next (`audit_pass.rs`).
    audit_pass: AuditPass,
}

impl NetworkSim {
    /// Builds a network of routers over `topology`. The router configuration
    /// is applied per node with credit tracking forced on (links are real
    /// here) and per-node seeds derived from the configuration seed.
    ///
    /// # Panics
    ///
    /// Panics if the topology needs more ports than the configuration has.
    pub fn new(topology: Topology, router_cfg: RouterConfig) -> Self {
        Self::with_routing(topology, router_cfg, RoutingSpec::up_down())
    }

    /// Builds the network with an explicit routing description. Structured
    /// specs (dimension-order, dragonfly, butterfly) carry no per-network
    /// tables, which is what lets thousand-router fabrics fit in memory;
    /// `RoutingSpec::up_down()` reproduces [`NetworkSim::new`] exactly.
    ///
    /// # Panics
    ///
    /// Panics if the topology needs more ports than the configuration has
    /// or does not match the declared routing shape.
    pub fn with_routing(
        topology: Topology,
        router_cfg: RouterConfig,
        spec: RoutingSpec,
    ) -> Self {
        // MMR_AUDIT=1 turns every simulation self-checking: the auditor
        // runs in enforce mode and panics on the first broken invariant
        // (the CI tier-1 suite runs once this way).
        let audit_env =
            std::env::var("MMR_AUDIT").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
        let mut routers = RouterArray::new(&topology, &router_cfg);
        if audit_env {
            routers.arm_audit();
        }
        NetworkSim {
            routers,
            fabric: Fabric::new(topology, spec),
            wires: Wires::default(),
            packets: PacketPlane::default(),
            probes: ProbeQueue::default(),
            conns: BTreeMap::new(),
            next_conn: 0,
            rng: SeededRng::new(0x4E45_5457),
            stats: NetStats::default(),
            auditor: audit_env.then(Auditor::default),
            audit_enforce: audit_env,
            audit_pass: AuditPass::default(),
        }
    }

    /// Selects the stepping engine: `true` forces the dense reference
    /// engine (every router stepped every cycle), `false` — the default —
    /// uses the event-driven wake set. Both engines produce byte-identical
    /// results; the dense engine exists as the oracle for differential
    /// tests (DESIGN.md §9). Switching wakes every router so no pending
    /// idle bookkeeping is stranded.
    pub fn set_dense_stepping(&mut self, dense: bool) {
        self.routers.set_dense(dense);
    }

    /// Turns on link-level retransmission for every wire: per-flit CRC
    /// checking at the receiver, per-link sequence numbers, and a bounded
    /// go-back-N replay buffer per directed link. Fault-free traffic is
    /// byte-identical with LLR on or off (the wire still carries at most
    /// one flit per cycle per link, delivered on the same cycle); the layer
    /// earns its keep under transient faults (see
    /// [`NetworkSim::arm_transient`]).
    pub fn enable_llr(&mut self, cfg: LlrConfig) {
        let topology = self.fabric.topology();
        self.wires.enable_llr(cfg, topology.nodes(), usize::from(topology.ports_per_node()));
    }

    /// Links of the retry layer that the last pump found holding a frame,
    /// plus those handed one since: a count of per-cycle work, for tests.
    #[doc(hidden)]
    pub fn llr_live_links(&self) -> usize {
        self.wires.live_links()
    }

    /// Whether the pump's live set covers every link-level sender that is
    /// not drained — the condition under which skipping the others is a
    /// no-op. Read-only; for tests.
    #[doc(hidden)]
    pub fn llr_live_covers_senders(&self) -> bool {
        self.wires.live_covers_senders()
    }

    /// Whether every router connection's tag names its owner: the session
    /// hop `conns` says it is, or the VCT packet the packet plane holds
    /// buffered in that router; every other connection (a setup probe's
    /// reservation) is untagged. Rebuilds from the tables what the tags
    /// stand for and compares. Read-only; for tests.
    #[doc(hidden)]
    pub fn tags_agree(&self) -> bool {
        // (router, connection, tag); a packet's connection is left out, as
        // the packet plane does not keep it.
        let mut want = Vec::new();
        for conn in self.conns.values() {
            for (at, hop) in conn.hops.iter().enumerate() {
                // A hop its router already let go of has no tag to check.
                if self.routers.get(hop.node).connection(hop.local).is_some() {
                    want.push((hop.node, Some(hop.local), Owner::Hop(conn.id, at as u16).tag()));
                }
            }
        }
        let packets = self.packets.buffered();
        want.extend(packets.map(|(node, packet)| (node, None, Owner::Buffered(packet).tag())));
        let mut have = Vec::new();
        for (n, router) in self.routers.iter().enumerate() {
            for state in router.connections_iter().filter(|state| state.tag != 0) {
                let hop = matches!(Owner::of(state.tag), Some(Owner::Hop(..)));
                have.push((NodeId(n as u16), hop.then_some(state.handle()), state.tag));
            }
        }
        want.sort_unstable();
        have.sort_unstable();
        want == have
    }

    /// Turns on the cycle-accurate invariant auditor in *record* mode:
    /// violations accumulate in [`NetworkSim::auditor`] instead of
    /// panicking. (The `MMR_AUDIT=1` environment switch enables *enforce*
    /// mode instead, which panics on the first violation; an explicit call
    /// here overrides it.)
    pub fn enable_audit(&mut self, cfg: AuditConfig) {
        self.auditor = Some(Auditor::new(cfg));
        self.audit_enforce = false;
        // A fresh auditor knows nothing: its first pass sweeps.
        let exhaustive = self.audit_pass.exhaustive;
        self.audit_pass = AuditPass::default();
        self.audit_pass.exhaustive = exhaustive;
        self.routers.arm_audit();
    }

    /// Makes every audit pass the full sweep — every law, every router,
    /// every hop pair, every cycle — instead of one pass in 1,024. The
    /// sweep is the oracle the incremental pass is tested against
    /// (DESIGN.md §6c); both report the same violations in the same order
    /// on the same cycle.
    #[doc(hidden)]
    pub fn set_exhaustive_audit(&mut self, exhaustive: bool) {
        self.audit_pass.exhaustive = exhaustive;
    }

    /// Violators a full sweep found that the incremental pass in its place
    /// would not have visited: 0 unless a change to the network escaped the
    /// auditor's mark rules (DESIGN.md §6c).
    #[doc(hidden)]
    pub fn audit_sweep_misses(&self) -> u64 {
        self.audit_pass.missed
    }

    /// The invariant auditor, when enabled.
    pub fn auditor(&self) -> Option<&Auditor> {
        self.auditor.as_ref()
    }

    /// The physical topology (as built, including failed wires).
    pub fn topology(&self) -> &Topology {
        self.fabric.topology()
    }

    /// The operational topology (failed wires removed); routing decisions
    /// use this view.
    pub fn live_topology(&self) -> &Topology {
        self.fabric.live_topology()
    }

    /// The active routing engine (the configured algorithm, or the
    /// up*/down* fault fallback while parts of the fabric are down).
    pub fn routing(&self) -> &Routing {
        self.fabric.routing()
    }

    /// Whether the wire attached to `(node, port)` is operational.
    pub fn link_ok(&self, node: NodeId, port: PortId) -> bool {
        self.fabric.link_ok(node, port)
    }

    /// For tests: whether router `node` is up.
    #[doc(hidden)]
    pub fn node_ok(&self, node: NodeId) -> bool {
        self.fabric.node_ok(node)
    }

    /// Monotonic counter bumped by every topology change — link or node,
    /// fail or repair. A session parked on
    /// [`SetupError::Unreachable`](crate::setup::SetupError::Unreachable)
    /// compares epochs to decide when re-probing could possibly succeed.
    pub fn topology_epoch(&self) -> u64 {
        self.fabric.epoch()
    }

    /// A node's router (read access for assertions and stats).
    pub fn router(&self, node: NodeId) -> &Router {
        self.routers.get(node)
    }

    /// Reserves one hop of a path being set up on `node`'s router (see
    /// `RouterArray::establish`).
    pub(crate) fn reserve_hop(
        &mut self,
        node: NodeId,
        req: ConnectionRequest,
        pinned_input: Option<VcIndex>,
    ) -> Result<ConnRef, EstablishError> {
        self.routers.establish(node, req, pinned_input)
    }

    /// Releases a hop [`NetworkSim::reserve_hop`] reserved, returning the
    /// flits dropped with it.
    pub(crate) fn release_hop(
        &mut self,
        node: NodeId,
        local: ConnRef,
    ) -> Result<usize, ConnRef> {
        self.routers.teardown(node, local)
    }

    /// The fabric's accounted bytes: every router's [`Router::heap_bytes`]
    /// plus the up*/down* tables at the size they reach when every
    /// destination has been asked for ([`mmr_core::footprint::updown`];
    /// the structured algorithms hold none). `mmr-bench scale` divides it
    /// by the router count for its bytes-per-router figure.
    ///
    /// It is accounted, not resident (DESIGN.md §9 "The footprint is a
    /// model"); the resident counts are [`Router::ports_holding_tables`] and
    /// [`Router::materialized_vc_banks`].
    pub fn memory_footprint(&self) -> usize {
        let routers: usize = self.routers.iter().map(Router::heap_bytes).sum();
        routers + self.fabric.routing().up_down().map_or(0, |r| mmr_core::footprint::updown(r.nodes()))
    }

    /// A connection's state.
    pub fn connection(&self, id: NetConnectionId) -> Option<&NetConnection> {
        self.conns.get(&id)
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Records a release that named state no longer present (see
    /// [`NetStats::ghost_releases`]); used by the probe machinery and the
    /// recovery layer.
    pub(crate) fn note_ghost_release(&mut self) {
        self.stats.ghost_releases += 1;
    }

    /// Records a setup attempt that resolved `Unreachable` (see
    /// [`NetStats::partitioned_sessions`]); called from `setup.rs`.
    pub(crate) fn note_partition(&mut self) {
        self.stats.partitioned_sessions += 1;
    }

    pub(crate) fn register_connection(&mut self, mut conn: NetConnection) -> NetConnectionId {
        let id = NetConnectionId(self.next_conn);
        self.next_conn += 1;
        conn.id = id;
        for (at, hop) in conn.hops.iter().enumerate() {
            self.routers.tag(hop.node, hop.local, Owner::Hop(id, at as u16).tag());
            // The session's hop pairs exist from this cycle on; each is
            // marked at its downstream end.
            if at > 0 {
                self.routers.mark_pair(hop.node, hop.local.vc);
            }
        }
        self.conns.insert(id, conn); // mmr-lint: allow(A-TRANS, reason="per-connection-setup bookkeeping (control plane), not the per-flit data path")
        id
    }

    /// Tears down an end-to-end connection, releasing every hop. Flits
    /// still queued on the path are dropped with the connection and counted
    /// into [`NetStats::flits_lost`], so the conservation identity
    /// `injected = delivered + lost` survives session churn and preemption.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownConnection`] if the id is not live.
    pub fn teardown(&mut self, id: NetConnectionId) -> Result<(), NetError> {
        let dropped = self.teardown_counting(id)?;
        self.stats.flits_lost += dropped;
        Ok(())
    }

    /// [`NetworkSim::teardown`] returning the number of flits still queued
    /// inside routers on the path (dropped with the connection).
    fn teardown_counting(&mut self, id: NetConnectionId) -> Result<u64, NetError> {
        let conn = self.conns.remove(&id).ok_or(NetError::UnknownConnection(id))?;
        let mut dropped = 0u64;
        for hop in &conn.hops {
            match self.routers.teardown(hop.node, hop.local) {
                Ok(n) => dropped += n as u64,
                // A hop released twice (e.g. the router side already torn
                // down by a fault) is counted, not fatal.
                Err(_) => self.stats.ghost_releases += 1,
            }
        }
        Ok(dropped)
    }

    /// Injects the next flit of `conn` at its source NI.
    ///
    /// # Errors
    ///
    /// [`InjectError`] on backpressure (source buffer full) or unknown ids.
    pub fn inject(&mut self, id: NetConnectionId, now: Cycles) -> Result<(), InjectError> {
        // A registered connection always holds at least one hop; an empty
        // path would make the id as unusable as an unknown one.
        let &Hop { node, local } = self
            .conns
            .get(&id)
            .and_then(|conn| conn.hops.first())
            .ok_or(InjectError::UnknownConnection(ConnectionId(id.0)))?;
        self.routers.get_mut_for(node, local).inject(local, now)
    }

    /// Whether the source NI can inject another flit this cycle.
    pub fn can_inject(&self, id: NetConnectionId) -> bool {
        self.conns
            .get(&id)
            .and_then(|c| c.hops.first())
            .is_some_and(|first| self.routers.get(first.node).can_inject(first.local))
    }

    /// Guaranteed-bandwidth load factors over the operational inter-router
    /// wires, reduced to `(peak, mean)`. Each wire direction contributes
    /// its output [`LinkBandwidthBook`](mmr_core::bandwidth::LinkBandwidthBook)
    /// occupancy; `(0.0, 0.0)` when no wire is up. This is the congestion
    /// signal the admission controller throttles and sheds on.
    pub fn link_load(&self) -> (f64, f64) {
        let mut peak = 0.0f64;
        let mut sum = 0.0f64;
        let mut n = 0u32;
        for w in self.fabric.live_topology().wires() {
            for (node, port) in [w.a, w.b] {
                let load = self.routers.get(node).bandwidth_book(port).load_factor();
                peak = peak.max(load);
                sum += load;
                n += 1;
            }
        }
        if n == 0 {
            (0.0, 0.0)
        } else {
            (peak, sum / f64::from(n))
        }
    }

    /// The flit rate of one physical link. Also the injection ceiling of a
    /// node's NI input port: the crossbar matches each input port to at
    /// most one output per flit cycle, so a node whose *own* sessions
    /// reserve more aggregate egress than this cannot be served — the one
    /// oversubscription the per-output bandwidth books do not catch, and
    /// the reason the admission controller tracks per-source egress.
    pub fn link_rate(&self) -> Bandwidth {
        self.routers.iter().next().map_or(Bandwidth::ZERO, |r| r.config().timing().link_rate())
    }

    /// Sends a single-flit VCT packet from `src` toward `dst`.
    ///
    /// Control packets may cut through idle routers; blocked packets wait at
    /// their current node and are retried every cycle, per §3.4.
    ///
    /// # Errors
    ///
    /// [`NetError::NotAPacketKind`] for stream flit kinds (only control and
    /// best-effort flits travel as VCT packets), [`NetError::UnknownNode`]
    /// for out-of-range endpoints.
    pub fn send_packet(
        &mut self,
        src: NodeId,
        dst: NodeId,
        kind: FlitKind,
        now: Cycles,
    ) -> Result<PacketId, NetError> {
        self.packets.send_packet((src, dst), kind, now, &self.fabric, &mut self.routers, &mut self.stats)
    }

    /// Runs one network flit cycle.
    ///
    /// Routers are stepped through an event-driven wake set rather than a
    /// dense `0..nodes` scan: a router examined and found quiescent (no
    /// buffered flits, no busy outputs, idle crossbar) goes to sleep, and
    /// stays unexamined until some event — an arriving flit, a probe
    /// reservation, a packet offer, a returned credit — wakes it. Skipping
    /// a sleeping router is a provable no-op, so every emitted series is
    /// byte-identical to dense stepping; see DESIGN.md §9 for the wake
    /// rules and the identity argument. [`NetworkSim::set_dense_stepping`]
    /// forces the dense reference engine for differential tests.
    // mmr-lint: hot
    pub fn step(&mut self, now: Cycles) -> NetStepReport {
        let mut report = NetStepReport::default();
        // Link-level ack/nack feedback from last cycle's wire deliveries.
        self.wires.deliver_signals(now);
        // In-flight setup probes and acknowledgments move one hop.
        // mmr-lint: allow(A-TRANS, reason="an up*/down* distance row is built by the first probe naming its destination in a topology epoch; every later query reads it")
        self.advance_probes(now, &mut report.setups);
        // Packets blocked waiting for a free VC retry, oldest first.
        // mmr-lint: allow(A-TRANS, reason="an up*/down* legality row is built by the first packet offer naming its destination in a topology epoch; every later hop reads it")
        self.packets.retry_blocked(now, &self.fabric, &mut self.routers, &mut self.stats);
        // The awake routers step; what they transmit goes onto a wire, to
        // the packet plane, or out of the destination NI.
        self.step_routers(now, &mut report);
        // Stream flits cross their wire into the next router.
        self.wires.pump_and_deliver(now, &mut self.routers, &mut self.stats);
        // Packets that finished crossing a wire are offered onward.
        self.packets.deliver_arrivals(now, &self.fabric, &mut self.routers, &mut self.stats);
        // Cycle-accurate invariant pass over the settled end-of-cycle state.
        if self.auditor.is_some() {
            // mmr-lint: allow(A-TRANS, reason="the audit pass runs only with an auditor armed, which no unaudited step is; its lists are amortized scratch and the violation store is capped")
            self.run_audit(now);
        }
        report
    }

    /// The router phase of [`NetworkSim::step`]: drains the wake set and
    /// dispatches every transmitted flit.
    fn step_routers(&mut self, now: Cycles, report: &mut NetStepReport) {
        let NetworkSim { fabric, routers, wires, packets, conns, stats, auditor, .. } = self;
        let topology = fabric.topology();
        routers.drain_awake(now, |routers, node, transmitted| {
            report.flits_switched += transmitted.len();
            for t in transmitted {
                // Return a credit upstream: this router freed an input slot.
                // The upstream router is woken for form's sake — a credit
                // alone cannot make a quiescent router non-quiescent (it
                // has no flits to spend it on), but the invariant "every
                // router mutation wakes" is cheaper to keep than to argue
                // around.
                if let Some((up, up_port)) = topology.peer_of(node, t.input_vc.port) {
                    routers.return_credit(up, VcRef { port: up_port, vc: t.input_vc.vc });
                }
                let output = t.output_vc.port;
                let owner = match Owner::of(t.tag) {
                    Some(Owner::Buffered(packet)) => {
                        packets.forward(node, output, packet, now, topology, stats);
                        continue;
                    }
                    Some(Owner::Hop(id, at)) => Some((id, at)),
                    None => None,
                };
                let peer = topology.peer_of(node, output);
                if let Some((_, at)) = owner {
                    // A slot freed behind this hop, a credit spent ahead.
                    let behind = (at > 0).then_some(t.input_vc);
                    let ahead = peer.map(|(peer, port)| (peer, VcRef { port, vc: t.output_vc.vc }));
                    routers.mark_pairs(node, behind, ahead);
                }
                match peer {
                    Some(peer) => wires.send(peer, t.output_vc.vc, owner, t.flit),
                    None => {
                        // Terminal port: the NI consumes the flit at once and
                        // returns the credit.
                        routers.return_credit(node, t.output_vc);
                        let Some((id, _)) = owner else { continue };
                        let Some(conn) = conns.get_mut(&id) else {
                            // The tag names a session the table no longer
                            // holds: count and drop the delivery.
                            stats.ghost_releases += 1;
                            continue;
                        };
                        let delivered = deliver_at_ni(conn, t.flit, now, stats, auditor.as_mut());
                        // mmr-lint: allow(A-TRANS, reason="per-step report handed to the caller by value; growth amortizes over the step's own deliveries")
                        report.delivered.push(delivered);
                    }
                }
            }
        });
    }

    /// The end-of-cycle invariant pass over the settled state, and the
    /// `MMR_AUDIT=1` escalation of anything it finds.
    fn run_audit(&mut self, now: Cycles) {
        let Some(aud) = self.auditor.as_mut() else { return };
        self.audit_pass.run(aud, now, &mut self.routers, self.fabric.topology(), &self.wires);
        if self.audit_enforce && !aud.is_clean() {
            // mmr-lint: allow(P-PANIC, reason="MMR_AUDIT=1 opt-in enforcement: aborting the campaign on an invariant breach is the auditor's contract")
            panic!("MMR_AUDIT: invariant violated at cycle {}: {}", now.count(), aud.summary());
        }
    }
}

/// A stream flit exits at its destination NI: sequence check, end-to-end
/// latency and integrity accounting.
///
/// The NI's `next_seq` is the stream's one sequence ledger. A flit off it
/// counts once into [`NetStats::out_of_order`] and, with an auditor armed,
/// is reported as a [`AuditViolation::StreamLoss`] (it skipped ahead) or a
/// [`AuditViolation::StreamDuplicate`] (it came late); a late flit never
/// moves the ledger back. A torn-down connection takes its ledger with it,
/// so a deliberately cut stream is no loss.
fn deliver_at_ni(
    conn: &mut NetConnection,
    flit: Flit,
    now: Cycles,
    stats: &mut NetStats,
    auditor: Option<&mut Auditor>,
) -> DeliveredFlit {
    let (expected, got) = (conn.next_seq, flit.seq);
    conn.next_seq = expected.max(got + 1);
    let latency = now.since(flit.injected_at);
    stats.latency.record(latency.as_f64());
    stats.flits_delivered += 1;
    if got != expected {
        stats.out_of_order += 1;
        let stream = u64::from(conn.id.0);
        let violation = if got > expected {
            AuditViolation::StreamLoss { stream, expected, got }
        } else {
            AuditViolation::StreamDuplicate { stream, expected, got }
        };
        if let Some(aud) = auditor {
            aud.report(violation);
        }
    }
    // End-to-end integrity: a flit corrupted on some wire and never caught
    // at a link check exits here with a stale CRC.
    if !flit.crc_ok() {
        stats.undetected_corruptions += 1;
    }
    DeliveredFlit { conn: conn.id, flit, latency }
}
