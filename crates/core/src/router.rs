//! The MMR router engine: configuration, connection management and the
//! flit-cycle loop.
//!
//! [`Router`] wires together the architecture of Figure 1: one
//! [`VirtualChannelMemory`] and status-bit-vector bank per input link, the
//! multiplexed [`Crossbar`], per-output-link bandwidth allocation registers
//! ([`LinkBandwidthBook`]), the link schedulers
//! ([`crate::linksched::select_candidates`]) and the [`SwitchScheduler`].
//! Each call to [`Router::step`] is one flit cycle (§3.4): link schedulers
//! pick candidate sets, the switch scheduler computes the matching, matched
//! head flits cross the switch, and the crossbar is reconfigured for the
//! next cycle.

use mmr_bitvec::{Condition, StatusMatrix};
use mmr_sim::{Cycles, FlitTiming, SeededRng};

use crate::arbiter::ArbiterKind;
use crate::bandwidth::{AdmissionError, Allocation, LinkBandwidthBook, RoundConfig};
use crate::conn::{ConnState, ConnectionRequest, ConnectionTable, QosClass};
use crate::crossbar::Crossbar;
use crate::flit::{CommandWord, Flit, FlitKind};
use crate::ids::{ConnectionId, PortId, VcIndex, VcRef};
use crate::linksched::{CandidatePolicy, ClassMasks, LinkSchedView, LinkScheduler};
use crate::switchsched::{MatchedPair, SwitchScheduler};
use crate::vcm::{VcmError, VirtualChannelMemory};

/// Router configuration (consuming builder).
///
/// Defaults are the paper's headline setup: an 8×8 router with 256 virtual
/// channels per input port, 1.24 Gbps links, 128-bit flits, 4-flit VC
/// buffers, biased-priority arbitration with 4 candidates, and rounds of
/// `K = 2` × 256 cycles.
///
/// # Example
///
/// ```
/// use mmr_core::router::RouterConfig;
/// use mmr_core::arbiter::ArbiterKind;
///
/// let router = RouterConfig::paper_default()
///     .candidates(8)
///     .arbiter(ArbiterKind::BiasedPriority)
///     .seed(1)
///     .build();
/// assert_eq!(router.config().ports(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct RouterConfig {
    ports: u8,
    vcs_per_port: u16,
    vc_depth: usize,
    vcm_banks: usize,
    candidates: usize,
    arbiter: ArbiterKind,
    round_k: u32,
    best_effort_reserve: f64,
    concurrency_factor: f64,
    enforce_round_quota: bool,
    candidate_policy: CandidatePolicy,
    track_output_credits: bool,
    timing: FlitTiming,
    phits_per_flit: u16,
    seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl RouterConfig {
    /// The configuration of the paper's simulation study (§5).
    pub fn paper_default() -> Self {
        RouterConfig {
            ports: 8,
            vcs_per_port: 256,
            vc_depth: 4,
            vcm_banks: 8,
            candidates: 4,
            arbiter: ArbiterKind::BiasedPriority,
            round_k: 2,
            best_effort_reserve: 0.0,
            concurrency_factor: 4.0,
            enforce_round_quota: true,
            candidate_policy: CandidatePolicy::RotatingScan,
            track_output_credits: false,
            timing: FlitTiming::paper_default(),
            phits_per_flit: 1,
            seed: 0x004D_4D52_3139_3939_u64, // "MMR1999"
        }
    }

    /// Sets the number of physical ports (an N×N router).
    pub fn ports(mut self, ports: u8) -> Self {
        self.ports = ports;
        self
    }

    /// Sets the number of virtual channels per input port.
    pub fn vcs_per_port(mut self, vcs: u16) -> Self {
        self.vcs_per_port = vcs;
        self
    }

    /// Sets the per-VC buffer depth in flits ("small fixed-size buffers").
    pub fn vc_depth(mut self, depth: usize) -> Self {
        self.vc_depth = depth;
        self
    }

    /// Sets the number of interleaved VCM banks.
    pub fn vcm_banks(mut self, banks: usize) -> Self {
        self.vcm_banks = banks;
        self
    }

    /// Sets the link-scheduler candidate-set size (the C of Figures 3–5).
    pub fn candidates(mut self, candidates: usize) -> Self {
        self.candidates = candidates;
        self
    }

    /// Sets the arbitration scheme.
    pub fn arbiter(mut self, arbiter: ArbiterKind) -> Self {
        self.arbiter = arbiter;
        self
    }

    /// Sets the round-length multiplier `K` (round = K × VCs flit cycles).
    pub fn round_k(mut self, k: u32) -> Self {
        self.round_k = k;
        self
    }

    /// Reserves a fraction of each round for best-effort traffic (§4.2).
    pub fn best_effort_reserve(mut self, fraction: f64) -> Self {
        self.best_effort_reserve = fraction;
        self
    }

    /// Sets the VBR concurrency factor (§4.2).
    pub fn concurrency_factor(mut self, factor: f64) -> Self {
        self.concurrency_factor = factor;
        self
    }

    /// Enables or disables per-round quota enforcement by the link
    /// schedulers (§4.3).
    pub fn enforce_round_quota(mut self, enforce: bool) -> Self {
        self.enforce_round_quota = enforce;
        self
    }

    /// Sets how the link schedulers pick their candidate sets (see
    /// [`CandidatePolicy`]).
    pub fn candidate_policy(mut self, policy: CandidatePolicy) -> Self {
        self.candidate_policy = policy;
        self
    }

    /// Enables credit tracking on output VCs (multi-router operation). When
    /// disabled, outputs behave as infinite sinks — the single-router setup
    /// of the paper's evaluation.
    pub fn track_output_credits(mut self, track: bool) -> Self {
        self.track_output_credits = track;
        self
    }

    /// Sets the flit/link timing model.
    pub fn timing(mut self, timing: FlitTiming) -> Self {
        self.timing = timing;
        self
    }

    /// Sets the internal serialization factor (phits per flit).
    pub fn phits_per_flit(mut self, phits: u16) -> Self {
        self.phits_per_flit = phits;
        self
    }

    /// Seeds the router's internal randomness (fixed-priority draws, PIM).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the router.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `candidates` exceeds the VC count.
    pub fn build(self) -> Router {
        Router::new(self)
    }
}

/// Read-only view of a built router's dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterDims {
    ports: usize,
    vcs_per_port: usize,
    candidates: usize,
    arbiter: ArbiterKind,
    round_cycles: u64,
    timing: FlitTiming,
}

impl RouterDims {
    /// Number of physical ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Virtual channels per input port.
    pub fn vcs_per_port(&self) -> usize {
        self.vcs_per_port
    }

    /// Candidate-set size per input port.
    pub fn candidates(&self) -> usize {
        self.candidates
    }

    /// Active arbitration scheme.
    pub fn arbiter(&self) -> ArbiterKind {
        self.arbiter
    }

    /// Round length in flit cycles.
    pub fn round_cycles(&self) -> u64 {
        self.round_cycles
    }

    /// The flit/link timing model.
    pub fn timing(&self) -> FlitTiming {
        self.timing
    }
}

/// Why a connection could not be established.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstablishError {
    /// Input or output port index out of range.
    InvalidPort {
        /// The offending port.
        port: PortId,
    },
    /// No free virtual channel on the input link.
    NoFreeInputVc,
    /// No free virtual channel on the output link ("at the next router").
    NoFreeOutputVc,
    /// Bandwidth admission control rejected the request.
    Admission(AdmissionError),
    /// The router is quarantined (its node failed) and admits nothing until
    /// repaired.
    Quarantined,
}

impl std::fmt::Display for EstablishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstablishError::InvalidPort { port } => write!(f, "port {port} does not exist"),
            EstablishError::NoFreeInputVc => write!(f, "no free virtual channel on the input link"),
            EstablishError::NoFreeOutputVc => {
                write!(f, "no free virtual channel on the output link")
            }
            EstablishError::Admission(e) => write!(f, "admission control rejected: {e}"),
            EstablishError::Quarantined => {
                write!(f, "the router is quarantined (its node failed)")
            }
        }
    }
}

impl std::error::Error for EstablishError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EstablishError::Admission(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AdmissionError> for EstablishError {
    fn from(e: AdmissionError) -> Self {
        EstablishError::Admission(e)
    }
}

/// Why a flit could not be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectError {
    /// The connection id is not in the table.
    UnknownConnection(ConnectionId),
    /// The input VC buffer is full — link-level flow control backpressure.
    BufferFull(ConnectionId),
    /// The connection's input VC is not present in the VC memory: the
    /// connection table and the VCM disagree. An internal inconsistency,
    /// surfaced as a typed error rather than a hot-path panic.
    InvalidVc(ConnectionId),
}

impl std::fmt::Display for InjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectError::UnknownConnection(c) => write!(f, "{c} is not established"),
            InjectError::BufferFull(c) => write!(f, "input buffer of {c} is full"),
            InjectError::InvalidVc(c) => write!(f, "input VC of {c} is not in the VC memory"),
        }
    }
}

impl std::error::Error for InjectError {}

/// Outcome of handing a VCT packet (control or best-effort) to the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketOutcome {
    /// The packet cut through immediately — the requested output link was
    /// free this cycle (§3.4, control packets only).
    CutThrough,
    /// The packet was stored in a reserved virtual channel and will be
    /// scheduled synchronously with the data streams.
    Buffered(ConnectionId),
}

/// Why a VCT packet was refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PacketError {
    /// Port index out of range.
    InvalidPort {
        /// The offending port.
        port: PortId,
    },
    /// No free virtual channel — "the packet is blocked" (§3.4). The caller
    /// keeps the packet and retries later.
    Blocked,
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::InvalidPort { port } => write!(f, "port {port} does not exist"),
            PacketError::Blocked => write!(f, "no free virtual channel; packet blocked"),
        }
    }
}

impl std::error::Error for PacketError {}

/// One flit that crossed the switch during a [`Router::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transmitted {
    /// The connection serviced.
    pub conn: ConnectionId,
    /// Input VC the flit came from.
    pub input_vc: VcRef,
    /// Output VC the flit left on.
    pub output_vc: VcRef,
    /// The flit itself.
    pub flit: Flit,
    /// The paper's delay metric: cycles between the flit being ready at the
    /// switch and leaving it.
    pub delay: Cycles,
}

/// The result of one flit cycle.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// Flits that crossed the switch this cycle, in output-port order.
    pub transmitted: Vec<Transmitted>,
    /// Number of distinct output ports that carried a flit this cycle
    /// (switch utilization numerator).
    pub outputs_used: usize,
}

/// Aggregate counters over a router's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Flit cycles executed.
    pub cycles: u64,
    /// Flits transmitted through the switch.
    pub flits_transmitted: u64,
    /// VCT packets that cut through without buffering.
    pub cut_throughs: u64,
    /// Crossbar reconfigurations.
    pub reconfigurations: u64,
    /// VCM bank-budget violations (should be zero when sized correctly).
    pub bank_conflicts: u64,
    /// Scheduler matchings, packet completions, or fresh reservations that
    /// named a connection or VC no longer consistent with the table (stale
    /// state after a teardown). These were previously hot-path panics; now
    /// they are counted and the flit is dropped, leaving the invariant
    /// auditor to flag the stream.
    pub ghost_matches: u64,
}

impl RouterStats {
    /// Mean switch utilization: flits per port per cycle.
    pub fn utilization(&self, ports: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flits_transmitted as f64 / (self.cycles as f64 * ports as f64)
        }
    }
}

/// The MultiMedia Router.
#[derive(Debug, Clone)]
pub struct Router {
    cfg: RouterConfig,
    round: RoundConfig,
    vcms: Vec<VirtualChannelMemory>,
    status: Vec<StatusMatrix>,
    conns: ConnectionTable,
    books: Vec<LinkBandwidthBook>,
    /// Input-side admission registers: a connection consumes bandwidth on
    /// the link it *arrives* on too, so both ends are policed (§4.2 reserves
    /// bandwidth on every link of the path).
    input_books: Vec<LinkBandwidthBook>,
    allocations: std::collections::BTreeMap<ConnectionId, (Allocation, Allocation)>,
    free_input_vcs: Vec<Vec<VcIndex>>,
    free_output_vcs: Vec<Vec<VcIndex>>,
    credits: Vec<Vec<u32>>,
    scheduler: SwitchScheduler,
    crossbar: Crossbar,
    rr_pointers: Vec<usize>,
    /// Guaranteed-class (CBR/VBR) flits serviced per output this round.
    guaranteed_serviced: Vec<u32>,
    rng: SeededRng,
    cut_through_outputs: Vec<bool>,
    output_busy_last_cycle: Vec<bool>,
    flits_transmitted: u64,
    cycles_run: u64,
    cut_throughs: u64,
    ghost_matches: u64,
    /// Per-input link schedulers with their reusable classification state.
    link_scheds: Vec<LinkScheduler>,
    /// Per-input-port class membership masks (maintained at establishment
    /// and teardown; the link schedulers derive phase domains from them).
    class_masks: Vec<ClassMasks>,
    /// Guaranteed traffic may use at most this many cycles of each output's
    /// round (§4.2 best-effort reserve). Depends only on the configuration,
    /// so it is computed once here instead of every flit cycle.
    guaranteed_cap: u32,
    /// Round ordinal (`now / cycles_per_round`) of the most recent step, or
    /// `u64::MAX` before the first. The round-boundary reset latches on this
    /// rather than on `now % cycles_per_round == 0`, so an event-driven
    /// caller that skips the exact boundary cycle still applies the reset at
    /// its next step — with the same observable effect, since skipped cycles
    /// are quiescent and nothing reads the counters in between.
    last_round: u64,
    /// First cycle of the round after `last_round` — the round-boundary
    /// check is a comparison against this latch instead of a division every
    /// flit cycle; the division runs only when a boundary is crossed.
    next_round_start: u64,
    /// Reusable per-cycle scratch buffers — the per-flit-cycle hot path must
    /// not allocate (§4.1 motivates single-cycle scheduling decisions).
    candidate_bufs: Vec<Vec<crate::arbiter::Candidate>>,
    pairs_buf: Vec<MatchedPair>,
    guaranteed_open: Vec<bool>,
    completed_buf: Vec<ConnectionId>,
    /// Whether [`Router::return_credit`] saturates at the buffer depth.
    /// Always `true` in production; the conformance harness disables it via
    /// [`Router::set_credit_clamp`] to resurrect the pre-fix
    /// phantom-capacity bug as a differential-testing target.
    credit_clamp: bool,
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
    /// Panics if any dimension is zero or inconsistent.
    pub fn new(cfg: RouterConfig) -> Self {
        // mmr-lint: allow(P-PANIC, reason="construction-time config validation (documented # Panics contract), not on the flit-cycle path")
        assert!(cfg.ports > 0, "router needs at least one port");
        // mmr-lint: allow(P-PANIC, reason="construction-time config validation (documented # Panics contract), not on the flit-cycle path")
        assert!(cfg.vcs_per_port > 0, "router needs at least one VC per port");
        // mmr-lint: allow(P-PANIC, reason="construction-time config validation (documented # Panics contract), not on the flit-cycle path")
        assert!(cfg.candidates > 0, "candidate set must be non-empty");
        // mmr-lint: allow(P-PANIC, reason="construction-time config validation (documented # Panics contract), not on the flit-cycle path")
        assert!(
            cfg.candidates <= usize::from(cfg.vcs_per_port),
            "cannot offer more candidates than virtual channels"
        );
        let ports = usize::from(cfg.ports);
        let vcs = usize::from(cfg.vcs_per_port);
        let round = RoundConfig::new(vcs, cfg.round_k);
        let mk_books = || {
            (0..ports)
                .map(|_| {
                    LinkBandwidthBook::new(
                        round,
                        cfg.timing,
                        cfg.best_effort_reserve,
                        cfg.concurrency_factor,
                    )
                })
                .collect::<Vec<_>>()
        };
        let books = mk_books();
        let input_books = mk_books();
        // Free VC stacks hold indices in descending order so allocation
        // hands out low indices first.
        let free: Vec<VcIndex> = (0..cfg.vcs_per_port).rev().map(VcIndex).collect();
        Router {
            scheduler: SwitchScheduler::new(cfg.arbiter, ports),
            crossbar: Crossbar::new(ports, cfg.phits_per_flit),
            vcms: (0..ports)
                .map(|_| VirtualChannelMemory::new(vcs, cfg.vc_depth, cfg.vcm_banks))
                .collect(),
            status: (0..ports).map(|_| StatusMatrix::new(vcs)).collect(),
            conns: ConnectionTable::new(),
            books,
            input_books,
            allocations: std::collections::BTreeMap::new(),
            free_input_vcs: vec![free.clone(); ports],
            free_output_vcs: vec![free; ports],
            credits: vec![vec![0; vcs]; ports],
            rr_pointers: vec![0; ports],
            guaranteed_serviced: vec![0; ports],
            rng: SeededRng::new(cfg.seed),
            cut_through_outputs: vec![false; ports],
            output_busy_last_cycle: vec![false; ports],
            flits_transmitted: 0,
            cycles_run: 0,
            cut_throughs: 0,
            ghost_matches: 0,
            link_scheds: (0..ports).map(|_| LinkScheduler::new(vcs)).collect(),
            class_masks: (0..ports).map(|_| ClassMasks::new(vcs)).collect(),
            guaranteed_cap: ((1.0 - cfg.best_effort_reserve)
                * round.cycles_per_round() as f64)
                .ceil() as u32,
            last_round: u64::MAX,
            next_round_start: 0,
            candidate_bufs: vec![Vec::new(); ports],
            pairs_buf: Vec::new(),
            guaranteed_open: vec![true; ports],
            completed_buf: Vec::new(),
            credit_clamp: true,
            quarantined: false,
            round,
            cfg,
        }
    }

    /// Test-only fault hook: disables (or restores) the saturation clamp in
    /// [`Router::return_credit`], resurrecting the historical
    /// phantom-capacity bug where a late credit return onto a re-leased VC
    /// minted buffer capacity the downstream router does not have. The
    /// conformance harness arms this to prove the differential oracle (and
    /// the cycle auditor) catch the bug class; production code never calls
    /// it.
    #[doc(hidden)]
    pub fn set_credit_clamp(&mut self, clamp: bool) {
        self.credit_clamp = clamp;
    }

    /// Estimated heap bytes of this router's steady-state structures — the
    /// per-router term of the scale benchmarks' bytes-per-router figure.
    ///
    /// Covers the dominant per-port state: VC memories (lazily materialized
    /// queue banks), status matrices, link-scheduler scratch, class masks,
    /// free-VC stacks, credit tables, and bandwidth books, plus per-port
    /// vector headers. Transient contents (in-flight candidate lists, the
    /// allocation map's node overhead) are estimated shallowly; the figure
    /// is an accounting lower bound rather than an allocator measurement.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let ports = usize::from(self.cfg.ports);
        let vcms: usize = self.vcms.iter().map(VirtualChannelMemory::heap_bytes).sum();
        let status: usize = self.status.iter().map(StatusMatrix::heap_bytes).sum();
        let scheds: usize = self.link_scheds.iter().map(LinkScheduler::heap_bytes).sum();
        let masks: usize = self.class_masks.iter().map(ClassMasks::heap_bytes).sum();
        let stacks: usize = self
            .free_input_vcs
            .iter()
            .chain(self.free_output_vcs.iter())
            .map(|s| s.capacity() * size_of::<VcIndex>())
            .sum();
        let credits: usize =
            self.credits.iter().map(|c| c.capacity() * size_of::<u32>()).sum();
        let books = (self.books.len() + self.input_books.len()) * size_of::<LinkBandwidthBook>();
        let allocs = self.allocations.len()
            * (size_of::<ConnectionId>() + 2 * size_of::<Allocation>());
        // Per-port vector headers of the remaining dense tables.
        let headers = ports
            * (size_of::<VirtualChannelMemory>()
                + size_of::<StatusMatrix>()
                + size_of::<LinkScheduler>()
                + size_of::<ClassMasks>()
                + 3 * size_of::<Vec<u32>>()
                + size_of::<usize>()
                + size_of::<u32>()
                + 2 * size_of::<bool>());
        vcms + status + scheds + masks + stacks + credits + books + allocs + headers
    }

    /// Total lazily materialized VC queue banks across all input ports —
    /// the scale benchmarks report this against the eager worst case of
    /// `ports × vcs / QUEUE_BANK_VCS`.
    pub fn materialized_vc_banks(&self) -> usize {
        self.vcms.iter().map(VirtualChannelMemory::materialized_banks).sum()
    }

    /// The router's dimensions and timing.
    pub fn config(&self) -> RouterDims {
        RouterDims {
            ports: usize::from(self.cfg.ports),
            vcs_per_port: usize::from(self.cfg.vcs_per_port),
            candidates: self.cfg.candidates,
            arbiter: self.cfg.arbiter,
            round_cycles: self.round.cycles_per_round(),
            timing: self.cfg.timing,
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            cycles: self.cycles_run,
            flits_transmitted: self.flits_transmitted,
            cut_throughs: self.cut_throughs,
            reconfigurations: self.crossbar.reconfigurations(),
            bank_conflicts: self.vcms.iter().map(VirtualChannelMemory::bank_conflicts).sum(),
            ghost_matches: self.ghost_matches,
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
        &self.books[output.index()]
    }

    /// The bandwidth book of an *input* link (admission state for the
    /// arriving side).
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    pub fn input_bandwidth_book(&self, input: PortId) -> &LinkBandwidthBook {
        &self.input_books[input.index()]
    }

    /// Looks up a connection's state.
    pub fn connection(&self, id: ConnectionId) -> Option<&ConnState> {
        self.conns.get(id)
    }

    /// The virtual channel memory of an input port (invariant-auditor
    /// introspection).
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    pub fn vcm(&self, port: PortId) -> &VirtualChannelMemory {
        &self.vcms[port.index()]
    }

    /// Credits currently available on an output VC. Meaningful only when
    /// [`RouterConfig::track_output_credits`] is on.
    ///
    /// # Panics
    ///
    /// Panics if the VC reference is out of range.
    pub fn output_credit(&self, vc: VcRef) -> u32 {
        self.credits[vc.port.index()][vc.vc.index()]
    }

    /// Whether downstream output credits are tracked.
    pub fn credits_tracked(&self) -> bool {
        self.cfg.track_output_credits
    }

    /// Whether per-round quotas are enforced by the link schedulers.
    pub fn quota_enforced(&self) -> bool {
        self.cfg.enforce_round_quota
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
        (self.free_input_vcs[port.index()].len(), self.free_output_vcs[port.index()].len())
    }

    /// Guaranteed-class flits serviced on an output this round.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    pub fn guaranteed_serviced_on(&self, output: PortId) -> u32 {
        self.guaranteed_serviced[output.index()]
    }

    /// Iterates the live connections in id order (invariant-auditor
    /// introspection).
    pub fn connections_iter(&self) -> impl Iterator<Item = &ConnState> {
        self.conns.iter()
    }

    /// Direct channel mapping: the connection owning an *input* VC, if any.
    /// Multi-router simulators use this to retag flits arriving on a link.
    pub fn connection_by_input_vc(&self, vc: VcRef) -> Option<ConnectionId> {
        self.conns.by_input_vc(vc).map(|c| c.id)
    }

    /// Number of established connections.
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
    pub fn establish(&mut self, req: ConnectionRequest) -> Result<ConnectionId, EstablishError> {
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
    ) -> Result<ConnectionId, EstablishError> {
        if self.quarantined {
            return Err(EstablishError::Quarantined);
        }
        self.check_port(req.input).map_err(|port| EstablishError::InvalidPort { port })?;
        self.check_port(req.output).map_err(|port| EstablishError::InvalidPort { port })?;

        let free_inputs = &mut self.free_input_vcs[req.input.index()];
        let in_vc = match pinned_input {
            Some(vc) => {
                let pos = free_inputs
                    .iter()
                    .position(|&v| v == vc)
                    .ok_or(EstablishError::NoFreeInputVc)?;
                free_inputs.swap_remove(pos)
            }
            None => free_inputs.pop().ok_or(EstablishError::NoFreeInputVc)?,
        };
        let input_vc = VcRef { port: req.input, vc: in_vc };
        let output_vc = self.free_output_vcs[req.output.index()]
            .pop()
            .map(|vc| VcRef { port: req.output, vc });
        let admitted = output_vc.ok_or(EstablishError::NoFreeOutputVc).and_then(|output_vc| {
            let in_alloc = self.input_books[req.input.index()].try_admit(req.class)?;
            match self.books[req.output.index()].try_admit(req.class) {
                Ok(alloc) => Ok((output_vc, in_alloc, alloc)),
                Err(e) => {
                    self.input_books[req.input.index()].release(in_alloc);
                    Err(e.into())
                }
            }
        });
        let (output_vc, in_alloc, alloc) = match admitted {
            Ok(granted) => granted,
            Err(e) => {
                // The one rollback: whichever VCs were taken go back.
                self.release_vcs(input_vc, output_vc);
                return Err(e);
            }
        };

        let id = self.conns.next_id();
        let interarrival = match req.class {
            QosClass::Cbr { rate } => self.cfg.timing.interarrival_cycles(rate),
            QosClass::Vbr { permanent, .. } => self.cfg.timing.interarrival_cycles(permanent),
            QosClass::BestEffort | QosClass::Control => f64::INFINITY,
        };
        let (vbr_perm, vbr_peak, dyn_prio) = match req.class {
            QosClass::Vbr { permanent, peak, priority } => (
                self.round.cycles_for_rate(permanent, self.cfg.timing),
                self.round.cycles_for_rate(peak, self.cfg.timing),
                priority,
            ),
            _ => (0.0, 0.0, 0),
        };
        // Fixed (static) priorities follow the connection's bandwidth class,
        // as in the priority scheme of Chien & Kim the paper compares
        // against: a high-speed connection permanently outranks a slow one.
        // A tiny random component breaks ties between same-rate connections.
        let fixed_priority = match req.class {
            QosClass::Cbr { rate } => rate.fraction_of(self.cfg.timing.link_rate()),
            QosClass::Vbr { permanent, .. } => permanent.fraction_of(self.cfg.timing.link_rate()),
            QosClass::BestEffort | QosClass::Control => 0.0,
        } + self.rng.unit() * 1e-6;
        // mmr-lint: allow(A-TRANS, reason="ConnectionTable::insert is per-connection-setup (control plane); its own growth is audited in conn.rs")
        self.conns.insert(ConnState {
            id,
            input_vc,
            output_vc,
            class: req.class,
            interarrival_cycles: interarrival,
            fixed_priority,
            allocated_cycles_per_round: alloc.guaranteed_cycles,
            serviced_this_round: 0,
            vbr_permanent_cycles: vbr_perm,
            vbr_peak_cycles: vbr_peak,
            dynamic_priority: dyn_prio,
            flits_forwarded: 0,
            flits_injected: 0,
        });
        self.allocations.insert(id, (in_alloc, alloc)); // mmr-lint: allow(A-TRANS, reason="per-connection-setup bookkeeping (control plane), not the per-flit data path")

        self.class_masks[req.input.index()].set(in_vc.index(), req.class);
        let status = &mut self.status[req.input.index()];
        status.set(Condition::ConnectionActive, in_vc.index(), true);
        if self.cfg.track_output_credits {
            self.credits[req.output.index()][output_vc.vc.index()] = self.cfg.vc_depth as u32;
        }
        status.set(Condition::CreditsAvailable, in_vc.index(), true);
        Ok(id)
    }

    /// Tears down a connection, releasing its VCs and bandwidth and dropping
    /// any queued flits. Returns the number of flits dropped.
    ///
    /// # Errors
    ///
    /// Returns the id back if it is unknown.
    pub fn teardown(&mut self, id: ConnectionId) -> Result<usize, ConnectionId> {
        let state = self.conns.remove(id).ok_or(id)?;
        let dropped = self.vcms[state.input_vc.port.index()].flush(state.input_vc.vc);
        if let Some((in_alloc, out_alloc)) = self.allocations.remove(&id) {
            self.input_books[state.input_vc.port.index()].release(in_alloc);
            self.books[state.output_vc.port.index()].release(out_alloc);
        }
        self.class_masks[state.input_vc.port.index()].clear(state.input_vc.vc.index());
        let status = &mut self.status[state.input_vc.port.index()];
        for cond in [
            Condition::ConnectionActive,
            Condition::CreditsAvailable,
            Condition::FlitsAvailable,
            Condition::CbrServiceRequested,
            Condition::CbrBandwidthServiced,
            Condition::VbrBandwidthServiced,
        ] {
            status.set(cond, state.input_vc.vc.index(), false);
        }
        self.release_vcs(state.input_vc, Some(state.output_vc));
        Ok(dropped)
    }

    /// Returns a connection's VCs to their ports' free lists: teardown, and
    /// setup rollback (where the output VC may not have been taken yet).
    fn release_vcs(&mut self, input: VcRef, output: Option<VcRef>) {
        // mmr-lint: allow(A-TRANS, reason="returns a VC to a free list whose capacity was reserved for every VC at construction")
        self.free_input_vcs[input.port.index()].push(input.vc);
        if let Some(output) = output {
            self.free_output_vcs[output.port.index()].push(output.vc); // mmr-lint: allow(A-TRANS, reason="returns a VC to a free list whose capacity was reserved for every VC at construction")
        }
    }

    /// Quarantines the router after a node failure: tears down every
    /// established connection (releasing VCs, bandwidth books, and class
    /// masks exactly as individual teardowns would) and refuses new
    /// establishment until [`Router::lift_quarantine`]. Returns the total
    /// number of buffered flits drained. In-cycle crossbar/cut-through
    /// state is left untouched — the next step settles it identically
    /// under dense and event-driven stepping.
    pub fn quarantine(&mut self) -> usize {
        self.quarantined = true;
        let ids: Vec<ConnectionId> = self.conns.iter().map(|c| c.id).collect();
        let mut dropped = 0;
        for id in ids {
            dropped += self.teardown(id).unwrap_or(0);
        }
        dropped
    }

    /// Lifts a node-failure quarantine; the router admits connections again.
    pub fn lift_quarantine(&mut self) {
        self.quarantined = false;
    }

    /// Whether the router is currently quarantined (node failed).
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
    pub fn inject(&mut self, conn: ConnectionId, now: Cycles) -> Result<(), InjectError> {
        self.inject_kind(conn, FlitKind::Data, now)
    }

    /// Injects a flit of an explicit kind (data, command word, …).
    ///
    /// # Errors
    ///
    /// Same as [`Router::inject`].
    pub fn inject_kind(
        &mut self,
        conn: ConnectionId,
        kind: FlitKind,
        now: Cycles,
    ) -> Result<(), InjectError> {
        self.enqueue(conn, now, |seq| Flit::new(conn, kind, seq, now))
    }

    /// Accepts a flit arriving from an upstream router for `conn`,
    /// preserving its original sequence number and injection time (so
    /// end-to-end latency and ordering survive multi-hop forwarding). The
    /// flit is retagged with this router's connection id.
    ///
    /// # Errors
    ///
    /// Same as [`Router::inject`].
    pub fn accept(
        &mut self,
        conn: ConnectionId,
        flit: Flit,
        now: Cycles,
    ) -> Result<(), InjectError> {
        self.enqueue(conn, now, |_| Flit { conn, ..flit })
    }

    /// Pushes one flit into `conn`'s input VC and raises its
    /// flits-available bit; `flit` builds it from the connection's next
    /// sequence number.
    #[inline]
    fn enqueue(
        &mut self,
        conn: ConnectionId,
        now: Cycles,
        flit: impl FnOnce(u64) -> Flit,
    ) -> Result<(), InjectError> {
        let state = self.conns.get_mut(conn).ok_or(InjectError::UnknownConnection(conn))?;
        let vc_ref = state.input_vc;
        // mmr-lint: allow(A-TRANS, reason="VirtualChannelMemory::push is depth-gated VCM admission, not container growth; its buffer ops are audited in vcm.rs")
        match self.vcms[vc_ref.port.index()].push(vc_ref.vc, flit(state.flits_injected), now) {
            Ok(()) => {
                state.flits_injected += 1;
                self.status[vc_ref.port.index()].set(
                    Condition::FlitsAvailable,
                    vc_ref.vc.index(),
                    true,
                );
                Ok(())
            }
            Err(VcmError::BufferFull { .. }) => Err(InjectError::BufferFull(conn)),
            Err(VcmError::NoSuchVc { .. }) => Err(InjectError::InvalidVc(conn)),
        }
    }

    /// Whether `conn` can accept another flit this cycle.
    pub fn can_inject(&self, conn: ConnectionId) -> bool {
        self.conns
            .get(conn)
            .is_some_and(|s| !self.vcms[s.input_vc.port.index()].is_full(s.input_vc.vc))
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
            && !self.output_busy_last_cycle[output.index()]
            && !self.cut_through_outputs[output.index()]
        {
            self.cut_through_outputs[output.index()] = true;
            self.cut_throughs += 1;
            return Ok(PacketOutcome::CutThrough);
        }

        let class =
            if matches!(kind, FlitKind::Control) { QosClass::Control } else { QosClass::BestEffort };
        let id = self
            .establish(ConnectionRequest { input, output, class })
            .map_err(|_| PacketError::Blocked)?;
        if self.inject_kind(id, kind, now).is_err() {
            // A freshly reserved VC should have room; if the first flit
            // bounces, the table and VCM disagree. Release the reservation,
            // count the ghost, and report backpressure instead of panicking.
            let _ = self.teardown(id);
            self.ghost_matches += 1;
            return Err(PacketError::Blocked);
        }
        Ok(PacketOutcome::Buffered(id))
    }

    /// Returns one credit for an output VC (the downstream router freed a
    /// buffer slot). No-op unless credit tracking is enabled.
    pub fn return_credit(&mut self, output_vc: VcRef) {
        if !self.cfg.track_output_credits {
            return;
        }
        // Saturate at the buffer depth: a credit returning after its
        // connection tore down (late return onto a re-leased VC) must not
        // mint capacity the downstream buffer does not have. The clamp is
        // lifted only by the conformance harness's bug hook
        // ([`Router::set_credit_clamp`]).
        let c = &mut self.credits[output_vc.port.index()][output_vc.vc.index()];
        *c += 1;
        if self.credit_clamp {
            *c = (*c).min(self.cfg.vc_depth as u32);
        }
        if let Some(conn) = self.conns.by_output_vc(output_vc) {
            let in_vc = conn.input_vc;
            self.status[in_vc.port.index()].set(
                Condition::CreditsAvailable,
                in_vc.vc.index(),
                true,
            );
        }
    }

    /// Whether a [`Router::step`] right now would provably do nothing: no
    /// VC anywhere holds a ready flit (checked with one word-parallel
    /// operation per 64 VCs), no cut-through is armed, no output was busy
    /// last cycle, and the crossbar is disconnected. An event-driven engine
    /// may skip a quiescent router's cycles entirely — every per-cycle
    /// output and statistic stays byte-identical to dense stepping —
    /// provided it accounts the skipped cycles via
    /// [`Router::note_idle_cycles`] and steps the router again before any
    /// flit is injected or accepted.
    // mmr-lint: hot
    pub fn is_quiescent(&self) -> bool {
        self.status.iter().all(|s| !s.any_set(Condition::FlitsAvailable))
            && !self.cut_through_outputs.contains(&true)
            && !self.output_busy_last_cycle.contains(&true)
            && self.crossbar.is_idle()
    }

    /// Accounts `n` quiescent cycles that an event-driven caller skipped
    /// without calling [`Router::step`], keeping [`RouterStats::cycles`]
    /// (and everything derived from it, like utilization) identical to
    /// dense stepping.
    pub fn note_idle_cycles(&mut self, n: u64) {
        self.cycles_run += n;
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

    /// [`Router::step`] writing into a caller-owned report, so per-cycle
    /// drivers can reuse one `transmitted` buffer for the whole run instead
    /// of allocating a fresh one every flit cycle.
    // mmr-lint: hot
    pub fn step_into(&mut self, now: Cycles, report: &mut StepReport) {
        report.transmitted.clear();
        report.outputs_used = 0;
        let ports = usize::from(self.cfg.ports);
        self.cycles_run += 1;
        for vcm in &mut self.vcms {
            vcm.begin_cycle();
        }

        // Round boundary: reset every connection's serviced quota (§4.1)
        // and the per-output guaranteed-service counters. Latched on the
        // round ordinal rather than `now % cycles_per_round == 0`, so an
        // event-driven caller that skips the boundary cycle itself (it was
        // quiescent) still applies the reset at its next step. Under dense
        // stepping the two rules fire on exactly the same cycles.
        if now.count() >= self.next_round_start {
            let cpr = self.round.cycles_per_round();
            let round_ord = now.count() / cpr;
            self.last_round = round_ord;
            self.next_round_start = (round_ord + 1).saturating_mul(cpr);
            for conn in self.conns.iter_mut() {
                conn.serviced_this_round = 0;
            }
            self.guaranteed_serviced.fill(0);
            for status in &mut self.status {
                status.clear_condition(Condition::CbrBandwidthServiced);
                status.clear_condition(Condition::VbrBandwidthServiced);
            }
        }

        // Quiescent fast path: one word-parallel test per 64 VCs answers
        // "do any of these lanes have work?". With no ready flit anywhere,
        // no armed cut-through, no output busy last cycle and an idle
        // crossbar, the full pass below is a provable no-op — selection
        // finds no candidates (the eligible set requires flits_available),
        // the scheduler draws no randomness on empty inputs, the empty
        // matching leaves the idle crossbar untouched, and the busy flags
        // stay clear — so it is skipped wholesale.
        if self.is_quiescent() {
            return;
        }

        // Link scheduling: candidate selection per input port.
        let max_candidates = match self.cfg.arbiter {
            ArbiterKind::FixedPriority
            | ArbiterKind::BiasedPriority
            | ArbiterKind::RoundRobin
            | ArbiterKind::OldestFirst => self.cfg.candidates,
            // Iterative/random and perfect schemes see the full eligible set
            // and apply their own selection rule.
            ArbiterKind::Autonet { .. } | ArbiterKind::Islip { .. } | ArbiterKind::Perfect => {
                usize::from(self.cfg.vcs_per_port)
            }
        };
        // Best-effort reserve: guaranteed traffic may use at most
        // (1 - reserve) of each output's round (§4.2). The cap is a pure
        // function of the configuration, precomputed at construction.
        for (open, &serviced) in self.guaranteed_open.iter_mut().zip(&self.guaranteed_serviced) {
            *open = serviced < self.guaranteed_cap;
        }

        for p in 0..ports {
            // Quiescent-port fast path: with no buffered flit on the whole
            // port the eligible set is provably empty, so selection would
            // offer nothing and leave the rotating pointer unchanged — one
            // word-parallel bank test skips the pass (and the view build).
            if !self.status[p].any_set(Condition::FlitsAvailable) {
                self.candidate_bufs[p].clear();
                continue;
            }
            let next_pointer = self.link_scheds[p].select(
                &LinkSchedView {
                    port: PortId(p as u8),
                    vcm: &self.vcms[p],
                    status: &self.status[p],
                    conns: &self.conns,
                    kind: self.cfg.arbiter,
                    max_candidates,
                    enforce_quota: self.cfg.enforce_round_quota,
                    policy: self.cfg.candidate_policy,
                    classes: &self.class_masks[p],
                    guaranteed_open: &self.guaranteed_open,
                    rr_pointer: self.rr_pointers[p],
                    now,
                },
                &mut self.candidate_bufs[p],
            );
            self.rr_pointers[p] = next_pointer;
        }

        // Switch scheduling.
        self.scheduler.schedule_into(
            &self.candidate_bufs,
            &self.cut_through_outputs,
            &mut self.rng,
            &mut self.pairs_buf,
        );

        // Transmission. The pair/completion buffers move out of `self` for
        // the duration of the loop so `transmit` can borrow the router.
        let pairs = std::mem::take(&mut self.pairs_buf);
        let mut completed_packets = std::mem::take(&mut self.completed_buf);
        let mut outputs_used: u64 = 0;
        for pair in &pairs {
            if let Some(t) = self.transmit(pair, now, &mut completed_packets) {
                outputs_used |= 1 << t.output_vc.port.index();
                // mmr-lint: allow(A-PUSH, reason="amortized: reusable buffer retains its capacity across cycles (PR 1 zero-alloc design)")
                report.transmitted.push(t);
            }
        }
        for id in completed_packets.drain(..) {
            if self.teardown(id).is_err() {
                self.ghost_matches += 1;
            }
        }

        // Crossbar reconfiguration for the cycle that just ran.
        self.crossbar.apply(&pairs);
        self.pairs_buf = pairs;
        self.completed_buf = completed_packets;

        // Output-busy bookkeeping for next cycle's cut-through decisions.
        for (o, busy) in self.output_busy_last_cycle.iter_mut().enumerate() {
            *busy = outputs_used & (1 << o) != 0 || self.cut_through_outputs[o];
        }
        self.cut_through_outputs.fill(false);

        report.outputs_used = outputs_used.count_ones() as usize;
        self.flits_transmitted += report.transmitted.len() as u64;
    }

    // mmr-lint: hot
    fn transmit(
        &mut self,
        pair: &MatchedPair,
        now: Cycles,
        completed_packets: &mut Vec<ConnectionId>,
    ) -> Option<Transmitted> {
        let p = pair.input.index();
        let (flit, delay, emptied) = self.vcms[p].pop_timed(pair.vc, now)?;
        if emptied {
            self.status[p].set(Condition::FlitsAvailable, pair.vc.index(), false);
        }

        let track_credits = self.cfg.track_output_credits;
        let state = match self.conns.by_input_vc_mut(VcRef { port: pair.input, vc: pair.vc }) {
            Some(state) if state.id == pair.conn => state,
            // A matching can name a vanished connection only if a teardown
            // raced the scheduler; the flit's VC was flushed with it (and may
            // have been re-leased since), so this stray copy is dropped and
            // counted rather than panicking.
            _ => {
                self.ghost_matches += 1;
                return None;
            }
        };
        state.serviced_this_round += 1;
        state.flits_forwarded += 1;
        // Latch quota exhaustion into the status matrix (§4.4's
        // "CBR_Completely_Serviced" bit): the link scheduler subtracts these
        // banks from its scan domains instead of visiting and rejecting the
        // same exhausted VCs every remaining cycle of the round. The round
        // boundary clears the banks again. The VBR bit latches *peak*-quota
        // exhaustion — past-permanent VCs still compete in the excess phase.
        let serviced_cond = match state.class {
            QosClass::Cbr { .. } if state.quota_exhausted() => {
                Some(Condition::CbrBandwidthServiced)
            }
            QosClass::Vbr { .. }
                if state.serviced_this_round
                    >= state.vbr_peak_cycles.ceil().max(1.0) as u32 =>
            {
                Some(Condition::VbrBandwidthServiced)
            }
            _ => None,
        };
        if matches!(state.class, QosClass::Cbr { .. } | QosClass::Vbr { .. }) {
            self.guaranteed_serviced[state.output_vc.port.index()] += 1;
        }
        let output_vc = state.output_vc;
        let input_vc = state.input_vc;
        let is_packet =
            matches!(state.class, QosClass::Control | QosClass::BestEffort);

        // Apply in-band command words as they pass through (§4.3).
        if let FlitKind::Command(cmd) = flit.kind {
            match cmd {
                CommandWord::SetPriority(prio) => state.dynamic_priority = prio,
                CommandWord::ScaleRate { num, den } => {
                    if num > 0 && den > 0 {
                        // Rate × num/den ⇒ inter-arrival × den/num.
                        state.interarrival_cycles *=
                            f64::from(den) / f64::from(num);
                    }
                }
                CommandWord::AbortFrame => {
                    let dropped = self.vcms[p].flush(input_vc.vc);
                    if dropped > 0 {
                        self.status[p].set(Condition::FlitsAvailable, input_vc.vc.index(), false);
                    }
                }
            }
        }

        if track_credits {
            let c = &mut self.credits[output_vc.port.index()][output_vc.vc.index()];
            debug_assert!(*c > 0, "scheduled without a credit");
            *c -= 1;
            if *c == 0 {
                self.status[p].set(Condition::CreditsAvailable, input_vc.vc.index(), false);
            }
        }
        if let Some(cond) = serviced_cond {
            self.status[p].set(cond, input_vc.vc.index(), true);
        }

        if is_packet {
            // mmr-lint: allow(A-PUSH, reason="amortized: reusable buffer retains its capacity across cycles (PR 1 zero-alloc design)")
            completed_packets.push(pair.conn);
        }

        Some(Transmitted { conn: pair.conn, input_vc, output_vc, flit, delay })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmr_sim::Bandwidth;

    fn small_router(arbiter: ArbiterKind) -> Router {
        RouterConfig::paper_default()
            .ports(4)
            .vcs_per_port(8)
            .candidates(4)
            .arbiter(arbiter)
            .seed(42)
            .build()
    }

    fn cbr(rate_mbps: f64, input: u8, output: u8) -> ConnectionRequest {
        ConnectionRequest {
            input: PortId(input),
            output: PortId(output),
            class: QosClass::Cbr { rate: Bandwidth::from_mbps(rate_mbps) },
        }
    }

    #[test]
    fn establish_reserves_and_teardown_releases() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        let id = r.establish(cbr(124.0, 0, 1)).expect("admits");
        assert_eq!(r.connections(), 1);
        let book_load = r.bandwidth_book(PortId(1)).load_factor();
        assert!(book_load > 0.09 && book_load < 0.11, "10% of the link: {book_load}");
        r.teardown(id).expect("present");
        assert_eq!(r.connections(), 0);
        assert_eq!(r.bandwidth_book(PortId(1)).load_factor(), 0.0);
        assert_eq!(r.teardown(id), Err(id), "double teardown reports the id");
    }

    #[test]
    fn quarantine_drains_connections_and_blocks_admission_until_lifted() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        let a = r.establish(cbr(10.0, 0, 1)).expect("admits");
        let b = r.establish(cbr(10.0, 2, 3)).expect("admits");
        r.inject(a, Cycles(0)).expect("buffer empty");
        r.inject(b, Cycles(0)).expect("buffer empty");
        let drained = r.quarantine();
        assert!(r.is_quarantined());
        assert_eq!(drained, 2, "both buffered flits drained");
        assert_eq!(r.connections(), 0, "ledger emptied");
        assert_eq!(r.bandwidth_book(PortId(1)).load_factor(), 0.0, "bandwidth released");
        let err = r.establish(cbr(10.0, 0, 1)).expect_err("quarantined");
        assert_eq!(err, EstablishError::Quarantined);
        r.lift_quarantine();
        assert!(!r.is_quarantined());
        // Full VC pools again: repeat the exhaustion pattern cleanly.
        for _ in 0..8 {
            r.establish(cbr(1.0, 0, 1)).expect("VC pools intact after quarantine");
        }
    }

    #[test]
    fn establish_rejects_invalid_port() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        let err = r.establish(cbr(1.0, 9, 1)).expect_err("port 9 of 4");
        assert!(matches!(err, EstablishError::InvalidPort { .. }));
    }

    #[test]
    fn vc_exhaustion_is_reported_and_recoverable() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        // 8 VCs per port; the 9th connection on the same ports must fail.
        let ids: Vec<_> = (0..8).map(|_| r.establish(cbr(1.0, 0, 1)).expect("fits")).collect();
        let err = r.establish(cbr(1.0, 0, 1)).expect_err("VCs exhausted");
        assert!(matches!(err, EstablishError::NoFreeInputVc));
        // Different input port, same output: output VCs are also exhausted.
        let err = r.establish(cbr(1.0, 2, 1)).expect_err("output VCs exhausted");
        assert!(matches!(err, EstablishError::NoFreeOutputVc));
        r.teardown(ids[0]).expect("present");
        r.establish(cbr(1.0, 0, 1)).expect("VC recycled");
    }

    #[test]
    fn admission_failure_releases_vcs() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        r.establish(cbr(1240.0, 0, 1)).expect("full link admits");
        let err = r.establish(cbr(124.0, 0, 1)).expect_err("link is full");
        assert!(matches!(err, EstablishError::Admission(_)));
        // The failed attempt must not leak VCs: more connections on other
        // ports still fit (input 0 is bandwidth-saturated, so use input 2).
        for _ in 0..7 {
            r.establish(cbr(1.0, 2, 2)).expect("VC pools intact");
        }
        // Input 0's own bandwidth is genuinely exhausted on both sides.
        let err = r.establish(cbr(124.0, 0, 2)).expect_err("input link full");
        assert!(matches!(err, EstablishError::Admission(_)));
    }

    #[test]
    fn single_flit_flows_through_in_one_cycle() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        let id = r.establish(cbr(124.0, 0, 1)).expect("admits");
        r.inject(id, Cycles(5)).expect("buffer empty");
        let report = r.step(Cycles(5));
        assert_eq!(report.transmitted.len(), 1);
        let t = &report.transmitted[0];
        assert_eq!(t.conn, id);
        assert_eq!(t.delay, Cycles(0), "uncontended flit leaves immediately");
        assert_eq!(t.output_vc.port, PortId(1));
        assert_eq!(report.outputs_used, 1);
        // The queue is now empty.
        assert!(r.step(Cycles(6)).transmitted.is_empty());
    }

    #[test]
    fn conflicting_inputs_share_an_output() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        let a = r.establish(cbr(124.0, 0, 3)).expect("admits");
        let b = r.establish(cbr(124.0, 1, 3)).expect("admits");
        r.inject(a, Cycles(0)).expect("room");
        r.inject(b, Cycles(0)).expect("room");
        let first = r.step(Cycles(0));
        assert_eq!(first.transmitted.len(), 1, "one output carries one flit per cycle");
        let second = r.step(Cycles(1));
        assert_eq!(second.transmitted.len(), 1);
        let served: std::collections::BTreeSet<_> = first
            .transmitted
            .iter()
            .chain(&second.transmitted)
            .map(|t| t.conn)
            .collect();
        assert_eq!(served.len(), 2, "both connections served across two cycles");
        // The loser waited exactly one cycle.
        assert_eq!(second.transmitted[0].delay, Cycles(1));
    }

    #[test]
    fn buffer_full_backpressure() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        let id = r.establish(cbr(1.0, 0, 1)).expect("admits");
        for _ in 0..4 {
            r.inject(id, Cycles(0)).expect("vc_depth = 4");
        }
        assert!(!r.can_inject(id));
        assert_eq!(r.inject(id, Cycles(0)), Err(InjectError::BufferFull(id)));
        r.step(Cycles(0));
        assert!(r.can_inject(id), "transmission freed a slot");
    }

    #[test]
    fn unknown_connection_errors() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        let ghost = ConnectionId(99);
        assert_eq!(r.inject(ghost, Cycles(0)), Err(InjectError::UnknownConnection(ghost)));
        assert!(!r.can_inject(ghost));
    }

    #[test]
    fn control_packet_cuts_through_idle_output() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        let out = r
            .inject_packet(PortId(0), PortId(2), FlitKind::Control, Cycles(0))
            .expect("output idle");
        assert_eq!(out, PacketOutcome::CutThrough);
        assert_eq!(r.stats().cut_throughs, 1);
        // A second control packet to the same output in the same cycle must
        // buffer instead.
        let out2 = r
            .inject_packet(PortId(1), PortId(2), FlitKind::Control, Cycles(0))
            .expect("buffers");
        assert!(matches!(out2, PacketOutcome::Buffered(_)));
        // The claimed output is busy for this cycle's matching.
        let report = r.step(Cycles(0));
        assert!(report.transmitted.is_empty(), "output 2 was claimed by the cut-through");
        // Next cycle the buffered control packet goes through and its
        // ephemeral VC is released.
        let report = r.step(Cycles(1));
        assert_eq!(report.transmitted.len(), 1);
        assert_eq!(report.transmitted[0].flit.kind, FlitKind::Control);
        assert_eq!(r.connections(), 0, "packet connection torn down after transmit");
    }

    #[test]
    fn best_effort_packets_always_buffer() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        let out = r
            .inject_packet(PortId(0), PortId(1), FlitKind::BestEffort, Cycles(0))
            .expect("free VCs");
        assert!(matches!(out, PacketOutcome::Buffered(_)));
        let report = r.step(Cycles(0));
        assert_eq!(report.transmitted.len(), 1);
        assert_eq!(report.transmitted[0].flit.kind, FlitKind::BestEffort);
    }

    #[test]
    fn best_effort_yields_to_streams() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        let stream = r.establish(cbr(124.0, 0, 1)).expect("admits");
        // Best-effort from another input to the same output.
        r.inject_packet(PortId(2), PortId(1), FlitKind::BestEffort, Cycles(0)).expect("buffers");
        r.inject(stream, Cycles(0)).expect("room");
        let report = r.step(Cycles(0));
        assert_eq!(report.transmitted.len(), 1);
        assert_eq!(report.transmitted[0].conn, stream, "CBR outranks best-effort");
        let report = r.step(Cycles(1));
        assert_eq!(report.transmitted[0].flit.kind, FlitKind::BestEffort);
    }

    #[test]
    fn command_word_set_priority_applies() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        let id = r.establish(cbr(124.0, 0, 1)).expect("admits");
        r.inject_kind(id, FlitKind::Command(CommandWord::SetPriority(9)), Cycles(0))
            .expect("room");
        r.step(Cycles(0));
        assert_eq!(r.connection(id).expect("live").dynamic_priority, 9);
    }

    #[test]
    fn command_word_scale_rate_changes_interarrival() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        let id = r.establish(cbr(124.0, 0, 1)).expect("admits");
        let before = r.connection(id).expect("live").interarrival_cycles;
        // Halve the rate => double the inter-arrival.
        r.inject_kind(id, FlitKind::Command(CommandWord::ScaleRate { num: 1, den: 2 }), Cycles(0))
            .expect("room");
        r.step(Cycles(0));
        let after = r.connection(id).expect("live").interarrival_cycles;
        assert!((after / before - 2.0).abs() < 1e-12);
    }

    #[test]
    fn command_word_abort_frame_flushes_queue() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        let id = r.establish(cbr(124.0, 0, 1)).expect("admits");
        r.inject_kind(id, FlitKind::Command(CommandWord::AbortFrame), Cycles(0)).expect("room");
        r.inject(id, Cycles(0)).expect("room");
        r.inject(id, Cycles(0)).expect("room");
        let report = r.step(Cycles(0));
        assert_eq!(report.transmitted.len(), 1, "the command word itself is forwarded");
        // The two queued data flits were dropped.
        assert!(r.step(Cycles(1)).transmitted.is_empty());
    }

    #[test]
    fn credits_gate_scheduling_when_tracked() {
        let mut r = RouterConfig::paper_default()
            .ports(2)
            .vcs_per_port(4)
            .vc_depth(2)
            .candidates(2)
            .track_output_credits(true)
            .enforce_round_quota(false)
            .seed(1)
            .build();
        let id = r.establish(cbr(124.0, 0, 1)).expect("admits");
        let out_vc = r.connection(id).expect("live").output_vc;
        // Drain both credits.
        for cycle in 0..2 {
            r.inject(id, Cycles(cycle)).expect("room");
            let rep = r.step(Cycles(cycle));
            assert_eq!(rep.transmitted.len(), 1);
        }
        // No credits left: the flit stays queued.
        r.inject(id, Cycles(2)).expect("room");
        assert!(r.step(Cycles(2)).transmitted.is_empty());
        // A returned credit unblocks it.
        r.return_credit(out_vc);
        assert_eq!(r.step(Cycles(3)).transmitted.len(), 1);
    }

    #[test]
    fn round_quota_throttles_over_rate_connection() {
        // 1-VC-per-candidate router with quota enforcement: a connection
        // allocated ~10% of the link cannot burst past its round quota.
        let mut r = RouterConfig::paper_default()
            .ports(2)
            .vcs_per_port(4)
            .vc_depth(4)
            .candidates(1)
            .round_k(2) // round = 8 cycles
            .seed(3)
            .build();
        let id = r.establish(cbr(155.0, 0, 1)).expect("admits"); // 12.5% => 1 cycle/round
        let mut sent = 0;
        for cycle in 0..8u64 {
            if r.can_inject(id) {
                r.inject(id, Cycles(cycle)).expect("room");
            }
            sent += r.step(Cycles(cycle)).transmitted.len();
        }
        assert_eq!(sent, 1, "quota of ceil(1.0) = 1 flit in the 8-cycle round");
    }

    #[test]
    fn utilization_counts_flits_per_port_cycle() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        // Full-link-rate connections so one flit per cycle is within quota.
        let a = r.establish(cbr(1240.0, 0, 1)).expect("admits");
        let b = r.establish(cbr(1240.0, 1, 2)).expect("admits");
        for cycle in 0..10u64 {
            r.inject(a, Cycles(cycle)).expect("room");
            r.inject(b, Cycles(cycle)).expect("room");
            r.step(Cycles(cycle));
        }
        // 2 flits per cycle on a 4-port router = 50% utilization.
        assert!((r.utilization() - 0.5).abs() < 1e-9);
        assert_eq!(r.stats().flits_transmitted, 20);
        assert_eq!(r.stats().cycles, 10);
    }

    #[test]
    fn perfect_switch_has_no_conflicts() {
        let mut r = small_router(ArbiterKind::Perfect);
        let a = r.establish(cbr(124.0, 0, 3)).expect("admits");
        let b = r.establish(cbr(124.0, 1, 3)).expect("admits");
        r.inject(a, Cycles(0)).expect("room");
        r.inject(b, Cycles(0)).expect("room");
        let report = r.step(Cycles(0));
        assert_eq!(report.transmitted.len(), 2, "perfect switch absorbs the conflict");
        assert!(report.transmitted.iter().all(|t| t.delay == Cycles(0)));
    }

    #[test]
    fn autonet_router_transmits_under_contention() {
        let mut r = small_router(ArbiterKind::autonet_default());
        let a = r.establish(cbr(124.0, 0, 3)).expect("admits");
        let b = r.establish(cbr(124.0, 1, 3)).expect("admits");
        let mut total = 0;
        for cycle in 0..4u64 {
            let _ = r.inject(a, Cycles(cycle));
            let _ = r.inject(b, Cycles(cycle));
            total += r.step(Cycles(cycle)).transmitted.len();
        }
        assert!(total >= 4, "PIM serves the contended output every cycle: {total}");
    }

    #[test]
    fn clone_produces_independent_router() {
        let mut r = small_router(ArbiterKind::BiasedPriority);
        let id = r.establish(cbr(124.0, 0, 1)).expect("admits");
        let mut copy = r.clone();
        r.inject(id, Cycles(0)).expect("room");
        r.step(Cycles(0));
        assert_eq!(copy.stats().flits_transmitted, 0);
        copy.inject(id, Cycles(0)).expect("room");
        assert_eq!(copy.step(Cycles(0)).transmitted.len(), 1);
    }
}
