//! The MMR router engine: connection management and the flit-cycle loop.
//!
//! [`Router`] is the paper's Figure 1. Per input link, an `InputLink`
//! (`links.rs`) owns the virtual channel memory, the status bit vectors and
//! the link scheduler ([`crate::linksched::LinkScheduler::select`]) that
//! reads them; per output link, an `OutputLink` owns the bandwidth
//! allocation registers and the credits; the router itself holds what is
//! shared — the connection table (§3.5's channel mappings), the multiplexed
//! [`Crossbar`] and its [`SwitchScheduler`]. Each call to [`Router::step`]
//! is one flit cycle (§3.4): link schedulers pick candidate sets, the switch
//! scheduler computes the matching, matched head flits cross the switch,
//! and the crossbar is reconfigured for the next cycle.

use mmr_sim::{Cycles, SeededRng};

use crate::arbiter::Candidate;
use crate::bandwidth::{LinkBandwidthBook, RoundConfig};
use crate::conn::{ConnState, ConnectionRequest, ConnectionTable, QosClass};
use crate::crossbar::Crossbar;
use crate::flit::{CommandWord, Flit, FlitKind};
use crate::ids::{ConnRef, PortId, VcIndex, VcRef};
use crate::linksched::{LinkScheduler, VcSched};
use crate::switchsched::{MatchedPair, SwitchScheduler};
use crate::table::set_ports;
use crate::vcm::{VcmError, VirtualChannelMemory};

mod config;
mod links;
mod tests;

pub use config::{
    ConfigError, EstablishError, InjectError, PacketError, PacketOutcome, RouterConfig,
    RouterDims, RouterStats, StepReport, Transmitted,
};
use links::{InputLink, OutputLink};

/// The MultiMedia Router.
#[derive(Debug, Clone)]
pub struct Router {
    cfg: RouterConfig,
    round: RoundConfig,
    inputs: Vec<InputLink>,
    outputs: Vec<OutputLink>,
    conns: ConnectionTable,
    scheduler: SwitchScheduler,
    crossbar: Crossbar,
    rng: SeededRng,
    /// Lifetime counters; `reconfigurations` and `bank_conflicts` are read
    /// off the crossbar and the VCMs by [`Router::stats`].
    counters: RouterStats,
    /// Guaranteed traffic may use at most this many cycles of each output's
    /// round (§4.2 best-effort reserve). Depends only on the configuration,
    /// so it is computed once here instead of every flit cycle.
    guaranteed_cap: u32,
    /// First cycle of the next round. The round-boundary reset latches on
    /// this rather than on `now % cycles_per_round == 0`, so an event-driven
    /// caller that skips the exact boundary cycle still applies the reset at
    /// its next step — with the same observable effect, since skipped cycles
    /// are quiescent and nothing reads the counters in between — and the
    /// division runs only when a boundary is crossed.
    next_round_start: u64,
    /// What the schedulers consume as slices across ports, one entry per
    /// port: each input's candidates, and per output whether guaranteed
    /// traffic may still use it this round (kept current where the output's
    /// guaranteed-flit count changes: `transmit` and the round boundary).
    /// Reused every cycle — the per-flit-cycle hot path must not allocate
    /// (§4.1 motivates single-cycle scheduling decisions).
    candidate_bufs: Vec<Vec<Candidate>>,
    guaranteed_open: Vec<bool>,
    /// The link scheduler's scratch, lent to each input port's select in
    /// turn.
    link_sched: LinkScheduler,
    /// Port summary words, bit *p* = port *p* (`ports ≤ 64` is a
    /// [`RouterConfig::validate`] rule): §4.4's status-bit trick one level
    /// up, so a per-cycle question about all ports is one word test and a
    /// stage visits only the ports that hold work for it.
    ///
    /// Input *p* holds a flit (`inputs[p].has_flits()`); written after the
    /// four operations that can change it — a VCM push, pop or flush, and
    /// `InputLink::close`.
    occupied: u64,
    /// Input *p*'s VCM was pushed or popped since its bank budget was last
    /// reset, so `begin_cycle` owes it one.
    touched: u64,
    /// Input *p* offered a candidate at the last link scheduling:
    /// `candidate_bufs[p]` is non-empty exactly for these.
    offered: u64,
    /// Output *o* was claimed by a cut-through this cycle.
    cut_through_outputs: u64,
    /// Output *o* carried a flit or a cut-through last cycle.
    output_busy_last_cycle: u64,
    /// Input *p* latched a serviced bit, and output *o* carried a guaranteed
    /// flit, since the last round boundary: the ports that boundary resets.
    /// Every other port's serviced banks and guaranteed count are zero
    /// already.
    round_inputs: u64,
    round_outputs: u64,
    /// The last full step offered no candidate on any port and left the
    /// crossbar idle and both latch words zero. From there every step is the
    /// same no-op (DESIGN.md §9 "Settled") until the round turns or a
    /// mutator clears the memo (`touch`), so until then
    /// [`Router::step_into`] only counts its cycle.
    settled: bool,
    pairs_buf: Vec<MatchedPair>,
    completed_buf: Vec<ConnRef>,
    /// Whether the router's node has failed: every connection has been
    /// drained and [`Router::establish_pinned`] refuses new ones until
    /// [`Router::lift_quarantine`]. Cycle state (crossbar configuration,
    /// cut-through latches) is deliberately left to settle through normal
    /// stepping so reconfiguration accounting stays engine-identical.
    quarantined: bool,
}

impl Router {
    /// Builds a router from a configuration; prefer
    /// [`RouterConfig::build`].
    ///
    /// # Panics
    ///
    /// Panics if [`RouterConfig::validate`] rejects the configuration.
    pub fn new(cfg: RouterConfig) -> Self {
        if let Err(e) = cfg.validate() {
            // mmr-lint: allow(P-PANIC, reason="construction-time config validation (documented # Panics contract), not on the flit-cycle path")
            panic!("invalid router configuration: {e}");
        }
        let ports = usize::from(cfg.ports);
        let round = RoundConfig::new(usize::from(cfg.vcs_per_port), cfg.round_k);
        let book = || {
            LinkBandwidthBook::new(round, cfg.timing, cfg.best_effort_reserve, cfg.concurrency_factor)
        };
        Router {
            inputs: (0..ports).map(|_| InputLink::new(&cfg, book())).collect(),
            outputs: (0..ports).map(|_| OutputLink::new(&cfg, book())).collect(),
            conns: ConnectionTable::default(),
            scheduler: SwitchScheduler::new(cfg.arbiter, ports),
            crossbar: Crossbar::new(ports),
            rng: SeededRng::new(cfg.seed),
            counters: RouterStats::default(),
            guaranteed_cap: ((1.0 - cfg.best_effort_reserve) * round.cycles_per_round() as f64)
                .ceil() as u32,
            next_round_start: 0,
            candidate_bufs: vec![Vec::new(); ports],
            guaranteed_open: vec![true; ports],
            link_sched: LinkScheduler::new(usize::from(cfg.vcs_per_port)),
            occupied: 0,
            touched: 0,
            offered: 0,
            cut_through_outputs: 0,
            output_busy_last_cycle: 0,
            round_inputs: 0,
            round_outputs: 0,
            settled: false,
            pairs_buf: Vec::new(),
            completed_buf: Vec::new(),
            quarantined: false,
            round,
            cfg,
        }
    }

    /// Forgets the settled memo. The memo says "no input offers a
    /// candidate", and a candidate is a buffered flit with a credit and open
    /// quota, so the entry points that call this first are the ones that
    /// hand the schedulers a flit (`enqueue`), a credit (`return_credit`)
    /// or a claimed output (`inject_packet`'s cut-through). The others
    /// cannot un-settle a router: `establish_pinned` opens a VC that holds
    /// no flit until `enqueue`, `teardown` only takes away, and the
    /// quarantine flag feeds no scheduling decision —
    /// `a_settled_step_changes_nothing` runs all three against a router
    /// whose memo is cleared before every operation.
    #[inline]
    fn touch(&mut self) {
        self.settled = false;
    }

    /// The accounted bytes of this router (`crate::footprint`):
    /// the per-router term of the scale benchmarks' bytes-per-router figure
    /// and of perfbench's `footprint_bytes`.
    ///
    /// It is accounted, not resident (DESIGN.md §9 "The footprint is a
    /// model"): every port's per-VC tables count whether the port holds
    /// them or not. The resident counts are
    /// [`Router::ports_holding_tables`] and
    /// [`Router::materialized_vc_banks`].
    pub fn heap_bytes(&self) -> usize {
        let queues = self.inputs.iter().map(|l| l.vcm().queue_bytes()).sum();
        crate::footprint::router_bytes(&self.config(), self.conns.len(), queues)
    }

    /// For tests: the ports holding any of their lazily allocated tables
    /// (scheduling records, output credits, either free-VC stack) — the
    /// resident count that [`Router::heap_bytes`], which accounts every
    /// port's tables, cannot show.
    #[doc(hidden)]
    pub fn ports_holding_tables(&self) -> usize {
        let ports = self.inputs.iter().zip(&self.outputs);
        ports.filter(|(i, o)| i.holds_tables() || o.holds_tables()).count()
    }

    /// Total lazily materialized VC queue banks across all input ports —
    /// the scale benchmarks report this against the eager worst case of
    /// `ports × vcs / QUEUE_BANK_VCS`.
    pub fn materialized_vc_banks(&self) -> usize {
        self.inputs.iter().map(|l| l.vcm().materialized_banks()).sum()
    }

    /// The router's dimensions and timing.
    pub fn config(&self) -> RouterDims {
        RouterDims {
            ports: usize::from(self.cfg.ports),
            vcs_per_port: usize::from(self.cfg.vcs_per_port),
            round_cycles: self.round.cycles_per_round(),
            timing: self.cfg.timing,
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            reconfigurations: self.crossbar.reconfigurations(),
            bank_conflicts: self.inputs.iter().map(|l| l.vcm().bank_conflicts()).sum(),
            ..self.counters
        }
    }

    /// Mean switch utilization so far (flits per output port per cycle).
    pub fn utilization(&self) -> f64 {
        self.stats().utilization(usize::from(self.cfg.ports))
    }

    /// The bandwidth book of an output link (admission state).
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    pub fn bandwidth_book(&self, output: PortId) -> &LinkBandwidthBook {
        &self.outputs[output.index()].lease.book
    }

    /// The bandwidth book of an *input* link (admission state for the
    /// arriving side).
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    pub fn input_bandwidth_book(&self, input: PortId) -> &LinkBandwidthBook {
        &self.inputs[input.index()].lease.book
    }

    /// Looks up a connection's state; `None` once it is torn down.
    pub fn connection(&self, conn: ConnRef) -> Option<&ConnState> {
        self.conns.get(conn)
    }

    /// The virtual channel memory of an input port (invariant-auditor
    /// introspection).
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    pub fn vcm(&self, port: PortId) -> &VirtualChannelMemory {
        self.inputs[port.index()].vcm()
    }

    /// Credits currently available on an output VC. Meaningful only when
    /// [`RouterConfig::track_output_credits`] is on; 0 on a port no
    /// connection has written a credit count for.
    ///
    /// # Panics
    ///
    /// Panics if the VC reference is out of range.
    pub fn output_credit(&self, vc: VcRef) -> u32 {
        self.outputs[vc.port.index()].credits.get(vc.vc)
    }

    /// Whether downstream output credits are tracked.
    pub fn credits_tracked(&self) -> bool {
        self.cfg.track_output_credits
    }

    /// Per-VC buffer depth in flits.
    pub fn vc_depth(&self) -> usize {
        self.cfg.vc_depth
    }

    /// Unmapped VC counts on a port as `(input_free, output_free)`
    /// (invariant-auditor introspection).
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    pub fn free_vc_counts(&self, port: PortId) -> (usize, usize) {
        (self.inputs[port.index()].lease.free_vcs(), self.outputs[port.index()].lease.free_vcs())
    }

    /// Guaranteed-class flits serviced on an output this round.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    pub fn guaranteed_serviced_on(&self, output: PortId) -> u32 {
        self.outputs[output.index()].guaranteed_serviced
    }

    /// Iterates the live connections in handle (input-VC) order
    /// (invariant-auditor introspection).
    pub fn connections_iter(&self) -> impl Iterator<Item = &ConnState> {
        self.conns.iter()
    }

    /// Direct channel mapping: the connection owning an *input* VC, if any.
    /// Multi-router simulators use this to retag flits arriving on a link
    /// and to check the arriving flit's owner against the connection's tag.
    pub fn connection_by_input_vc(&self, vc: VcRef) -> Option<&ConnState> {
        self.conns.by_input_vc(vc)
    }

    /// Sets `conn`'s owner tag ([`ConnState::tag`]); a no-op when the
    /// connection does not exist. Changes nothing the router reads.
    pub fn set_tag(&mut self, conn: ConnRef, tag: u64) {
        if let Some(state) = self.conns.get_mut(conn) {
            state.tag = tag;
        }
    }

    /// Reverse channel mapping: the connection owning an *output* VC, if
    /// any — whose credit a return onto that VC moves.
    pub fn connection_by_output_vc(&self, vc: VcRef) -> Option<ConnRef> {
        self.conns.by_output_vc(vc).map(ConnState::handle)
    }

    /// The connections whose input VC holds a flit, in input-VC order: what
    /// the starvation watchdog has to look at. Walks the set bits of the
    /// `occupied` word and of each such port's `flits_available`, so a
    /// router with nothing buffered costs one word test.
    pub fn buffered_connections(&self) -> impl Iterator<Item = ConnRef> + '_ {
        set_ports(self.occupied).flat_map(move |p| {
            self.inputs[p].vcm().flits_available().iter_set().filter_map(move |vc| {
                let vc = VcRef { port: PortId(p as u8), vc: VcIndex(vc as u16) };
                self.conns.by_input_vc(vc).map(ConnState::handle)
            })
        })
    }

    /// For tests: number of established connections.
    #[doc(hidden)]
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    fn check_port(&self, port: PortId) -> Result<(), PortId> {
        if port.index() < usize::from(self.cfg.ports) {
            Ok(())
        } else {
            Err(port)
        }
    }

    /// Establishes a connection through the router: reserves an input VC, an
    /// output VC, and link bandwidth (§4.2).
    ///
    /// # Errors
    ///
    /// [`EstablishError`] if a port is invalid, either link has no free VC,
    /// or admission control rejects the bandwidth request. On error all
    /// partially reserved resources are released — exactly the paper's
    /// "if resources cannot be reserved along the whole path … all the
    /// resources reserved during the construction of the path are released".
    pub fn establish(&mut self, req: ConnectionRequest) -> Result<ConnRef, EstablishError> {
        self.establish_pinned(req, None)
    }

    /// Like [`Router::establish`], but reserves a *specific* input virtual
    /// channel when `pinned_input` is given. Multi-router paths need this:
    /// the upstream router has already chosen the VC on the shared link, so
    /// this router must reserve exactly that VC on its input side.
    ///
    /// # Errors
    ///
    /// As [`Router::establish`]; additionally
    /// [`EstablishError::NoFreeInputVc`] when the pinned VC is taken.
    pub fn establish_pinned(
        &mut self,
        req: ConnectionRequest,
        pinned_input: Option<VcIndex>,
    ) -> Result<ConnRef, EstablishError> {
        if self.quarantined {
            return Err(EstablishError::Quarantined);
        }
        self.check_port(req.input).map_err(|port| EstablishError::InvalidPort { port })?;
        self.check_port(req.output).map_err(|port| EstablishError::InvalidPort { port })?;
        let input = &mut self.inputs[req.input.index()].lease;
        let output = &mut self.outputs[req.output.index()].lease;

        let in_vc = input.take_vc(pinned_input).ok_or(EstablishError::NoFreeInputVc)?;
        let out_vc = output.take_vc(None);
        let admitted = out_vc.ok_or(EstablishError::NoFreeOutputVc).and_then(|out_vc| {
            let in_alloc = input.book.try_admit(req.class)?;
            match output.book.try_admit(req.class) {
                Ok(granted) => {
                    debug_assert_eq!(in_alloc, granted, "the books share round and timing");
                    Ok((out_vc, granted))
                }
                Err(e) => {
                    input.book.release(in_alloc);
                    Err(e.into())
                }
            }
        });
        let (out_vc, granted) = match admitted {
            Ok(reserved) => reserved,
            Err(e) => {
                // The one rollback: whichever VCs were taken go back.
                input.return_vc(in_vc);
                if let Some(vc) = out_vc {
                    output.return_vc(vc);
                }
                return Err(e);
            }
        };

        let state = ConnState::new(
            self.conns.next_id(),
            VcRef { port: req.input, vc: in_vc },
            VcRef { port: req.output, vc: out_vc },
            req.class,
            granted,
            self.cfg.timing,
            self.rng.unit(),
        );
        let record = VcSched::of(self.cfg.arbiter, &state);
        // mmr-lint: allow(A-TRANS, reason="ConnectionTable::insert is per-connection-setup (control plane); its own growth is audited in conn.rs")
        let conn = self.conns.insert(state);
        self.inputs[req.input.index()].open(in_vc, req.class, record);
        if self.cfg.track_output_credits {
            *self.outputs[req.output.index()].credits.slot_mut(out_vc) = self.cfg.vc_depth as u32;
        }
        Ok(conn)
    }

    /// Tears down a connection, releasing its VCs and bandwidth and dropping
    /// any queued flits. Returns the number of flits dropped.
    ///
    /// # Errors
    ///
    /// Returns the handle back if its connection is gone.
    pub fn teardown(&mut self, conn: ConnRef) -> Result<usize, ConnRef> {
        let state = self.conns.remove(conn).ok_or(conn)?;
        let input = &mut self.inputs[state.input_vc.port.index()];
        let dropped = input.close(state.input_vc.vc);
        clear_if_empty(&mut self.occupied, state.input_vc.port, input);
        input.release(state.input_vc.vc, state.allocation());
        self.outputs[state.output_vc.port.index()].release(state.output_vc.vc, state.allocation());
        Ok(dropped)
    }

    /// Quarantines the router after a node failure: tears down every
    /// established connection (releasing VCs, bandwidth books, and class
    /// masks exactly as individual teardowns would) and refuses new
    /// establishment until [`Router::lift_quarantine`]. Returns the total
    /// number of buffered flits drained. In-cycle crossbar/cut-through
    /// state is left untouched — the next step settles it identically
    /// under dense and event-driven stepping.
    ///
    /// Connections go in id order, so the bandwidth books take their
    /// releases back in the order they were granted.
    pub fn quarantine(&mut self) -> usize {
        self.quarantined = true;
        let mut conns: Vec<ConnRef> = self.conns.iter().map(ConnState::handle).collect();
        conns.sort_unstable_by_key(|conn| conn.id);
        conns.into_iter().map(|conn| self.teardown(conn).unwrap_or(0)).sum()
    }

    /// Lifts a node-failure quarantine; the router admits connections again.
    pub fn lift_quarantine(&mut self) {
        self.quarantined = false;
    }

    /// For tests: whether the router is quarantined (node failed).
    #[doc(hidden)]
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// Injects the next data flit of `conn` into its input VC (the arrival
    /// of one flit from the upstream link or the source interface).
    ///
    /// # Errors
    ///
    /// [`InjectError::BufferFull`] when the VC's small buffer is occupied —
    /// the caller models the paper's link-level flow control by retrying
    /// later.
    pub fn inject(&mut self, conn: ConnRef, now: Cycles) -> Result<(), InjectError> {
        self.enqueue(conn, now, |seq| Flit::data(conn.id, seq, now))
    }

    /// Injects an in-band command word into `conn`'s stream (§4.3); the
    /// router applies it when the flit crosses the switch. A stream carries
    /// data and command flits only: a control or best-effort flit is a
    /// packet, and only [`Router::inject_packet`] queues one.
    ///
    /// # Errors
    ///
    /// Same as [`Router::inject`].
    pub fn inject_command(
        &mut self,
        conn: ConnRef,
        cmd: CommandWord,
        now: Cycles,
    ) -> Result<(), InjectError> {
        self.enqueue(conn, now, |seq| Flit::new(conn.id, FlitKind::Command(cmd), seq, now))
    }

    /// Accepts a flit arriving from an upstream router for `conn`,
    /// preserving its original sequence number and injection time (so
    /// end-to-end latency and ordering survive multi-hop forwarding).
    ///
    /// # Errors
    ///
    /// Same as [`Router::inject`].
    pub fn accept(
        &mut self,
        conn: ConnRef,
        flit: Flit,
        now: Cycles,
    ) -> Result<(), InjectError> {
        self.enqueue(conn, now, |_| flit)
    }

    /// Pushes one flit into `conn`'s input VC; `flit` builds it from the
    /// connection's next sequence number.
    #[inline]
    fn enqueue(
        &mut self,
        conn: ConnRef,
        now: Cycles,
        flit: impl FnOnce(u64) -> Flit,
    ) -> Result<(), InjectError> {
        self.touch();
        let state = self.conns.get_mut(conn).ok_or(InjectError::UnknownConnection(conn.id))?;
        let vc = conn.vc;
        let vcm = self.inputs[vc.port.index()].vcm_mut();
        // mmr-lint: allow(A-TRANS, reason="VirtualChannelMemory::push is depth-gated VCM admission, not container growth; its buffer ops are audited in vcm.rs")
        match vcm.push(vc.vc, flit(state.flits_injected), now) {
            Ok(()) => {
                state.flits_injected += 1;
                self.occupied |= 1 << vc.port.index();
                self.touched |= 1 << vc.port.index();
                Ok(())
            }
            Err(VcmError::BufferFull { .. }) => Err(InjectError::BufferFull(conn.id)),
            Err(VcmError::NoSuchVc { .. }) => Err(InjectError::InvalidVc(conn.id)),
        }
    }

    /// Whether `conn` can accept another flit this cycle.
    pub fn can_inject(&self, conn: ConnRef) -> bool {
        self.conns.get(conn).is_some() && !self.vcm(conn.vc.port).is_full(conn.vc.vc)
    }

    /// Hands a single-flit VCT packet to the router (§3.4).
    ///
    /// Control packets cut through immediately when the requested output was
    /// idle in the previous flit cycle and has not been claimed this cycle;
    /// the claimed output "will be considered busy during link arbitration
    /// for the next flit cycle". Otherwise — and always for best-effort —
    /// the packet reserves a free VC and is scheduled synchronously.
    ///
    /// # Errors
    ///
    /// [`PacketError::Blocked`] when no VC is free; the caller retries.
    pub fn inject_packet(
        &mut self,
        input: PortId,
        output: PortId,
        kind: FlitKind,
        now: Cycles,
    ) -> Result<PacketOutcome, PacketError> {
        self.check_port(input).map_err(|port| PacketError::InvalidPort { port })?;
        self.check_port(output).map_err(|port| PacketError::InvalidPort { port })?;
        debug_assert!(
            matches!(kind, FlitKind::Control | FlitKind::BestEffort),
            "VCT packets are control or best-effort"
        );

        if matches!(kind, FlitKind::Control)
            && (self.output_busy_last_cycle | self.cut_through_outputs) & (1 << output.index()) == 0
        {
            self.touch();
            self.cut_through_outputs |= 1 << output.index();
            self.counters.cut_throughs += 1;
            return Ok(PacketOutcome::CutThrough);
        }

        // The flit's kind is what ends its connection in `transmit`, so a
        // kind that is not a packet's is sent as best effort, the class it
        // is given, rather than leave a connection nothing ends.
        let (class, kind) = if matches!(kind, FlitKind::Control) {
            (QosClass::Control, FlitKind::Control)
        } else {
            (QosClass::BestEffort, FlitKind::BestEffort)
        };
        let conn = self
            .establish(ConnectionRequest { input, output, class })
            .map_err(|_| PacketError::Blocked)?;
        if self.enqueue(conn, now, |seq| Flit::new(conn.id, kind, seq, now)).is_err() {
            // A freshly reserved VC should have room; if the first flit
            // bounces, the table and VCM disagree. Release the reservation,
            // count the ghost, and report backpressure instead of panicking.
            let _ = self.teardown(conn);
            self.counters.ghost_matches += 1;
            return Err(PacketError::Blocked);
        }
        Ok(PacketOutcome::Buffered(conn))
    }

    /// Returns one credit for an output VC (the downstream router freed a
    /// buffer slot). No-op unless credit tracking is enabled.
    pub fn return_credit(&mut self, output_vc: VcRef) {
        self.touch();
        if !self.cfg.track_output_credits {
            return;
        }
        // Saturate at the buffer depth: a credit returning after its
        // connection tore down (late return onto a re-leased VC) must not
        // mint capacity the downstream buffer does not have. A credit for a
        // port no connection ever wrote a count on has nothing to count
        // against: establishment writes the count before anything reads it.
        let Some(c) = self.outputs[output_vc.port.index()].credits.get_mut(output_vc.vc) else {
            return;
        };
        *c += 1;
        *c = (*c).min(self.cfg.vc_depth as u32);
        if let Some(conn) = self.conns.by_output_vc(output_vc) {
            self.inputs[conn.input_vc.port.index()].set_credits_available(conn.input_vc.vc, true);
        }
    }

    /// Whether a [`Router::step`] right now would provably do nothing: no
    /// VC anywhere holds a ready flit, no cut-through is armed, no output
    /// was busy last cycle, and the crossbar is disconnected — four word
    /// tests that touch no per-port line. An event-driven engine
    /// may skip a quiescent router's cycles entirely — every per-cycle
    /// output and statistic stays byte-identical to dense stepping —
    /// provided it accounts the skipped cycles via
    /// [`Router::note_idle_cycles`] and steps the router again before any
    /// flit is injected or accepted.
    // mmr-lint: hot
    pub fn is_quiescent(&self) -> bool {
        self.occupied == 0
            && self.cut_through_outputs == 0
            && self.output_busy_last_cycle == 0
            && self.crossbar.is_idle()
    }

    /// Accounts `n` quiescent cycles that an event-driven caller skipped
    /// without calling [`Router::step`], keeping [`RouterStats::cycles`]
    /// (and everything derived from it, like utilization) identical to
    /// dense stepping.
    pub fn note_idle_cycles(&mut self, n: u64) {
        self.counters.cycles += n;
    }

    /// Runs one flit cycle at time `now` and reports the flits transmitted.
    ///
    /// Callers advance `now` by one cycle per call; the round boundary and
    /// all per-cycle state derive from it. `now` may jump forward by more
    /// than one cycle when every skipped cycle was quiescent (see
    /// [`Router::is_quiescent`]).
    // mmr-lint: hot
    pub fn step(&mut self, now: Cycles) -> StepReport {
        let mut report = StepReport::default();
        self.step_into(now, &mut report);
        report
    }

    /// Counts the cycle at `now` and returns `true` if the router is
    /// settled there: it is at a fixed point of the flit cycle's stages
    /// until its quotas come back at the round boundary or a mutator clears
    /// the memo, so a step would change the cycle counter and nothing else
    /// (DESIGN.md §9 "Settled"). A caller that gets `true` skips the step;
    /// [`Router::step_into`] asks first itself.
    // mmr-lint: hot
    pub fn count_settled_cycle(&mut self, now: Cycles) -> bool {
        let settled = self.settled && now.count() < self.next_round_start;
        self.counters.cycles += u64::from(settled);
        settled
    }

    /// [`Router::step`] writing into a caller-owned report, so per-cycle
    /// drivers can reuse one `transmitted` buffer for the whole run instead
    /// of allocating a fresh one every flit cycle. The body is §3.4's flit
    /// cycle, one call per stage.
    // mmr-lint: hot
    pub fn step_into(&mut self, now: Cycles, report: &mut StepReport) {
        report.transmitted.clear();
        if self.count_settled_cycle(now) {
            return;
        }
        self.begin_cycle(now);
        // With no ready flit anywhere, no armed cut-through, no output busy
        // last cycle and an idle crossbar, the stages below are a provable
        // no-op — selection finds no candidates (the eligible set requires
        // flits_available), the scheduler draws no randomness on empty
        // inputs, the empty matching leaves the idle crossbar untouched, and
        // the busy flags stay clear — so they are skipped wholesale.
        if self.is_quiescent() {
            return;
        }
        self.link_schedule(now);
        self.switch_schedule();
        let outputs_used = self.transmit_matched(now, &mut report.transmitted);
        self.end_cycle(outputs_used);
    }

    /// Stage 0: count the cycle, reset the bank budget of every VCM that
    /// was accessed since its last reset and, at a round boundary, make
    /// every quota whole again (§4.1) — on the ports the round serviced.
    // mmr-lint: hot
    fn begin_cycle(&mut self, now: Cycles) {
        self.counters.cycles += 1;
        for p in set_ports(std::mem::take(&mut self.touched)) {
            self.inputs[p].begin_cycle();
        }
        if now.count() >= self.next_round_start {
            let cpr = self.round.cycles_per_round();
            self.next_round_start = (now.count() / cpr + 1).saturating_mul(cpr);
            for conn in self.conns.iter_mut() {
                conn.serviced_this_round = 0;
            }
            for p in set_ports(std::mem::take(&mut self.round_inputs)) {
                self.inputs[p].new_round();
            }
            for o in set_ports(std::mem::take(&mut self.round_outputs)) {
                self.outputs[o].guaranteed_serviced = 0;
            }
            self.guaranteed_open.fill(self.guaranteed_cap > 0);
        }
    }

    /// Stage 1, link scheduling: every input link that holds a flit offers
    /// its candidates. An empty link offers nothing and leaves its pointer
    /// alone, so only one that offered last cycle has a list to clear.
    // mmr-lint: hot
    fn link_schedule(&mut self, now: Cycles) {
        for p in set_ports(self.offered & !self.occupied) {
            self.candidate_bufs[p].clear();
        }
        self.offered = 0;
        for p in set_ports(self.occupied) {
            let (input, out) = (&mut self.inputs[p], &mut self.candidate_bufs[p]);
            let port = PortId(p as u8);
            let view = input.view(port, &self.cfg, &self.conns, &self.guaranteed_open, now);
            input.rr_pointer = self.link_sched.select(&view, out);
            self.offered |= u64::from(!out.is_empty()) << p;
        }
    }

    /// Stage 2, switch scheduling: the matching over the offered candidates.
    // mmr-lint: hot
    fn switch_schedule(&mut self) {
        self.scheduler.schedule_offered(
            &self.candidate_bufs,
            self.offered,
            self.cut_through_outputs,
            &mut self.rng,
            &mut self.pairs_buf,
        );
    }

    /// Stage 3, transmission: each matched head flit crosses the switch and
    /// single-flit packets that completed give their VCs back. Returns the
    /// bitmap of outputs that carried a flit.
    // mmr-lint: hot
    fn transmit_matched(&mut self, now: Cycles, transmitted: &mut Vec<Transmitted>) -> u64 {
        let mut outputs_used: u64 = 0;
        for i in 0..self.pairs_buf.len() {
            let pair = self.pairs_buf[i];
            if let Some(t) = self.transmit(pair, now) {
                outputs_used |= 1 << t.output_vc.port.index();
                // mmr-lint: allow(A-PUSH, reason="amortized: reusable buffer retains its capacity across cycles (PR 1 zero-alloc design)")
                transmitted.push(t);
            }
        }
        for i in 0..self.completed_buf.len() {
            if self.teardown(self.completed_buf[i]).is_err() {
                self.counters.ghost_matches += 1;
            }
        }
        self.completed_buf.clear();
        self.counters.flits_transmitted += transmitted.len() as u64;
        outputs_used
    }

    /// Stage 4, crossbar reconfiguration for the cycle that just ran, the
    /// output-busy latches next cycle's cut-through decisions read, and the
    /// settled memo.
    // mmr-lint: hot
    fn end_cycle(&mut self, outputs_used: u64) {
        self.crossbar.apply(&self.pairs_buf);
        self.output_busy_last_cycle = outputs_used | self.cut_through_outputs;
        self.cut_through_outputs = 0;
        self.settled =
            self.offered == 0 && self.output_busy_last_cycle == 0 && self.crossbar.is_idle();
    }

    // mmr-lint: hot
    fn transmit(&mut self, pair: MatchedPair, now: Cycles) -> Option<Transmitted> {
        let input = &mut self.inputs[pair.input.index()];
        let (flit, delay, emptied) = input.vcm_mut().pop_timed(pair.vc, now)?;
        self.touched |= 1 << pair.input.index();
        if emptied {
            clear_if_empty(&mut self.occupied, pair.input, input);
        }
        let conn = ConnRef { vc: VcRef { port: pair.input, vc: pair.vc }, id: pair.conn };
        let Some(state) = self.conns.get_mut(conn) else {
            // A matching can name a vanished connection only if a teardown
            // raced the scheduler; the flit's VC was flushed with it (and may
            // have been re-leased since), so this stray copy is dropped and
            // counted rather than panicking.
            self.counters.ghost_matches += 1;
            return None;
        };
        let output = &mut self.outputs[state.output_vc.port.index()];
        state.serviced_this_round += 1;
        state.flits_forwarded += 1;
        if state.class.reserves_bandwidth() {
            // Best-effort reserve: guaranteed traffic may use at most
            // (1 - reserve) of each output's round (§4.2).
            output.guaranteed_serviced += 1;
            self.round_outputs |= 1 << state.output_vc.port.index();
            self.guaranteed_open[state.output_vc.port.index()] =
                output.guaranteed_serviced < self.guaranteed_cap;
        }

        // Apply in-band command words as they pass through (§4.3).
        if let FlitKind::Command(cmd) = flit.kind {
            match cmd {
                CommandWord::SetPriority(prio) => state.dynamic_priority = prio,
                CommandWord::ScaleRate { num, den } => {
                    if num > 0 && den > 0 {
                        // Rate × num/den ⇒ inter-arrival × den/num — the
                        // biased arbiter's key.
                        state.interarrival_cycles *= f64::from(den) / f64::from(num);
                        input.rekey(pair.vc, VcSched::of(self.cfg.arbiter, state));
                    }
                }
                CommandWord::AbortFrame => {
                    input.vcm_mut().flush(pair.vc);
                    clear_if_empty(&mut self.occupied, pair.input, input);
                }
            }
        }

        // The credit table exists exactly where `establish_pinned` wrote a
        // count: on this mapped output VC's port when credits are tracked.
        if let Some(c) = output.credits.get_mut(state.output_vc.vc) {
            debug_assert!(*c > 0, "scheduled without a credit");
            *c -= 1;
            if *c == 0 {
                input.set_credits_available(pair.vc, false);
            }
        }
        if state.round_spent() {
            input.latch_serviced(pair.vc, state.class);
            self.round_inputs |= 1 << pair.input.index();
        }
        if matches!(flit.kind, FlitKind::Control | FlitKind::BestEffort) {
            // A packet flit is its connection's one flit: `inject_packet`
            // opened the connection for it. A best-effort or control
            // *session* carries data flits and lives until it is torn down.
            // mmr-lint: allow(A-PUSH, reason="amortized: reusable buffer retains its capacity across cycles (PR 1 zero-alloc design)")
            self.completed_buf.push(conn);
        }

        Some(Transmitted {
            conn: pair.conn,
            input_vc: state.input_vc,
            output_vc: state.output_vc,
            flit,
            delay,
            tag: state.tag,
        })
    }
}

/// Clears `port`'s bit of the `occupied` word unless `input` still holds a
/// flit on another VC.
#[inline]
fn clear_if_empty(occupied: &mut u64, port: PortId, input: &InputLink) {
    if !input.has_flits() {
        *occupied &= !(1 << port.index());
    }
}
