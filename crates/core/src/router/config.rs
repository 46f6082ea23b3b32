//! What a router is built from and what it reports: [`RouterConfig`] and its
//! one validation rule set, the [`RouterDims`] view, the typed errors of
//! establishment / injection / packet hand-off, and the per-cycle
//! [`StepReport`] and lifetime [`RouterStats`].

use mmr_sim::{Cycles, FlitTiming};

use super::Router;
use crate::arbiter::ArbiterKind;
use crate::bandwidth::AdmissionError;
use crate::flit::Flit;
use crate::ids::{ConnRef, ConnectionId, PortId, VcRef};
use crate::linksched::CandidatePolicy;

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
    pub(super) ports: u8,
    pub(super) vcs_per_port: u16,
    pub(super) vc_depth: usize,
    pub(super) vcm_banks: usize,
    pub(super) candidates: usize,
    pub(super) arbiter: ArbiterKind,
    pub(super) round_k: u32,
    pub(super) best_effort_reserve: f64,
    pub(super) concurrency_factor: f64,
    pub(super) candidate_policy: CandidatePolicy,
    pub(super) track_output_credits: bool,
    pub(super) timing: FlitTiming,
    pub(super) seed: u64,
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
            candidate_policy: CandidatePolicy::RotatingScan,
            track_output_credits: false,
            timing: FlitTiming::paper_default(),
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

    /// Seeds the router's internal randomness (fixed-priority draws, PIM).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks every dimension rule the router and its parts rely on — the
    /// one place they are stated. [`Router::new`] panics with the error's
    /// message; a front end reports it instead.
    ///
    /// # Errors
    ///
    /// The first broken rule, in the order below.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let vcs = usize::from(self.vcs_per_port);
        let rules = [
            // The schedulers keep their per-port request maps in one 64-bit
            // word (`SwitchScheduler`, `OutputSet`).
            ("ports", "must be between 1 and 64", f64::from(self.ports), (1..=64).contains(&self.ports)),
            ("vcs_per_port", "must be at least 1", vcs as f64, vcs >= 1),
            ("vc_depth", "must be at least 1", self.vc_depth as f64, self.vc_depth >= 1),
            ("vcm_banks", "must be at least 1", self.vcm_banks as f64, self.vcm_banks >= 1),
            (
                "candidates",
                "must be between 1 and vcs_per_port",
                self.candidates as f64,
                (1..=vcs).contains(&self.candidates),
            ),
            // §4.1: K > 1, so every VC can be offered a cycle with room to spare.
            ("round_k", "must be at least 2", f64::from(self.round_k), self.round_k >= 2),
            (
                "best_effort_reserve",
                "must be a fraction in [0, 1)",
                self.best_effort_reserve,
                (0.0..1.0).contains(&self.best_effort_reserve),
            ),
            (
                "concurrency_factor",
                "must be at least 1",
                self.concurrency_factor,
                self.concurrency_factor >= 1.0,
            ),
        ];
        match rules.into_iter().find(|&(.., holds)| !holds) {
            Some((field, rule, value, _)) => Err(ConfigError { field, rule, value }),
            None => Ok(()),
        }
    }

    /// How many candidates each link scheduler offers the switch scheduler:
    /// the configured `C` for the candidate-set schemes; iterative and
    /// perfect schemes see the full eligible set and apply their own rule.
    pub(super) fn offered_candidates(&self) -> usize {
        match self.arbiter {
            ArbiterKind::FixedPriority
            | ArbiterKind::BiasedPriority
            | ArbiterKind::RoundRobin
            | ArbiterKind::OldestFirst => self.candidates,
            ArbiterKind::Autonet { .. } | ArbiterKind::Islip { .. } | ArbiterKind::Perfect => {
                usize::from(self.vcs_per_port)
            }
        }
    }

    /// Builds the router.
    ///
    /// # Panics
    ///
    /// Panics if [`RouterConfig::validate`] rejects the configuration.
    pub fn build(self) -> Router {
        Router::new(self)
    }
}

/// A [`RouterConfig`] dimension the router cannot be built with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigError {
    /// The builder field that broke its rule.
    pub field: &'static str,
    /// The rule, e.g. `"must be between 1 and 64"`.
    pub rule: &'static str,
    /// The offending value.
    pub value: f64,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} (got {})", self.field, self.rule, self.value)
    }
}

impl std::error::Error for ConfigError {}

/// Read-only view of a built router's dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterDims {
    pub(super) ports: usize,
    pub(super) vcs_per_port: usize,
    pub(super) round_cycles: u64,
    pub(super) timing: FlitTiming,
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
    Buffered(ConnRef),
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
    /// The connection's owner tag ([`crate::conn::ConnState::tag`]) when
    /// the flit left.
    pub tag: u64,
}

/// The result of one flit cycle.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// Flits that crossed the switch this cycle, in output-port order.
    pub transmitted: Vec<Transmitted>,
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
