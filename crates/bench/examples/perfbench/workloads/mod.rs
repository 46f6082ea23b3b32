//! The six benchmark workloads and the episode protocol they share.
//!
//! An *episode* is one complete simulation: set-up (build the fabric and
//! its routing, generate the tape from the seed, open the initial
//! population, simulate the warm-up so lazy VC banks and scratch buffers
//! are materialized), then the measured window — a fixed number of
//! simulated cycles, so every simulated statistic is a pure function of
//! `(workload, seed)` — then a read of the counters and an untimed drain
//! that closes the conservation identity. A run repeats episodes of one
//! seed until its time budget is spent and reports the fastest of their
//! host times, taken slice by slice (see [`SLICES`]).
//!
//! What turns over during the window is drawn from the run's seed: packet
//! and fault tapes, session endpoints, refill pairs, source phases,
//! arbitration streams. Two things are fixed, each for a measured reason
//! given in its module: `router_cbr80`'s static population and the churn
//! workloads' session tape with the fabric it plays on.
//!
//! All sources are open-loop schedules in *simulated* time (CBR pacers,
//! Poisson packet and session tapes); host time is never an input.

use std::time::Instant;

use mmr_net::{NetworkSim, NodeId};
use mmr_sim::{Cycles, DelayJitterRecorder, TailSummary};

use crate::trace::Probe;

pub mod churn;
pub mod dragonfly_sparse;
pub mod fault_storm;
pub mod mesh_hybrid;
pub mod router_cbr80;

/// The seed `perfbench run` uses when none is given; the digests in
/// [`Workload::pinned_digest`] belong to it.
pub const DEFAULT_SEED: u64 = 1999;

/// A benchmark workload. Names are final: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's single-router experiment at 0.8 offered load.
    RouterCbr80,
    /// 4×4 torus, static CBR streams plus best-effort VCT packets.
    MeshHybrid,
    /// Session churn through the admission controller, auditor off.
    ChurnOverload,
    /// The head of the same churn tape with the auditor armed.
    ChurnAudited,
    /// 1056-router dragonfly with 64 live sessions.
    DragonflySparse,
    /// 8×8 torus under a dense link + node fault campaign.
    FaultStorm,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::RouterCbr80,
        Workload::MeshHybrid,
        Workload::ChurnOverload,
        Workload::ChurnAudited,
        Workload::DragonflySparse,
        Workload::FaultStorm,
    ];

    /// The stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RouterCbr80 => "router_cbr80",
            Workload::MeshHybrid => "mesh_hybrid",
            Workload::ChurnOverload => "churn_overload",
            Workload::ChurnAudited => "churn_audited",
            Workload::DragonflySparse => "dragonfly_sparse",
            Workload::FaultStorm => "fault_storm",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: the layer that does most of its work.
    /// Copied into `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::RouterCbr80 => "the paper's own experiment: mmr-core does ~72% (Router::step_into), mmr-traffic pump ~18%, mmr-net nothing; the accuracy anchor (paper: 0.4-0.6 us delay for biased-8C at 70-80% load)",
            Workload::MeshHybrid => "pure NetworkSim::step data plane (~86%): wire delivery, credit return, index lookups, awake routers all busy; control plane idle after set-up",
            Workload::ChurnOverload => "control plane: admission request/service/close + per-session inject ~56%, net.step only ~39%; where a cheaper controller shows and a data-plane-only change should not",
            Workload::ChurnAudited => "head of the churn_overload tape with the invariant auditor armed (~88% of wall): what CI and the committed BENCH_churn/BENCH_scale numbers ran; only a cheaper auditor moves it",
            Workload::DragonflySparse => "1056 routers, ~64 live sessions, almost every router asleep: net.step ~98%, the O(fabric)-vs-O(awake) per-cycle costs; the only non-trivial fabric build and peak_rss_mb",
            Workload::FaultStorm => "failure path: FaultInjector::poll (fail/repair + full up*/down* recompute) ~19%, recovery.service ~7%, LLR-enabled net.step ~63%; only here do reconvergence and retransmission cost anything",
        }
    }

    /// Whether the workload arms the invariant auditor. Auditor state is
    /// set only here, never by the environment.
    pub fn auditor(self) -> bool {
        self == Workload::ChurnAudited
    }

    /// Whether a lost flit is a failed operation: true where nothing
    /// faults and nothing hangs up mid-stream. Churn workloads lose the
    /// flits still queued behind a voluntary teardown, the fault workload
    /// loses what a cut wire carried; both are reported and pinned by the
    /// digest instead.
    pub fn loss_is_failure(self) -> bool {
        matches!(
            self,
            Workload::RouterCbr80 | Workload::MeshHybrid | Workload::DragonflySparse
        )
    }

    /// Warm-up and measured cycles. The windows are half the cycle counts
    /// of the issue that defined the benchmark (which sized them for ≈ 8 s
    /// of host time on the reference container): ≈ 4 s each, so a 10-second
    /// run holds three whole episodes and the driver's 136 runs fit its
    /// hour. The warm-up is 5 % of the window. `quick` is 1/50 of both, for
    /// the unit tests.
    pub fn sizes(self, quick: bool) -> Sizes {
        let window = match self {
            Workload::RouterCbr80 => 1_000_000,
            Workload::MeshHybrid => 250_000,
            // ≈ 36 day/night periods of 5 600 cycles.
            Workload::ChurnOverload => 200_000,
            // The head of the same tape: the auditor makes each cycle
            // ~20x dearer.
            Workload::ChurnAudited => 25_000,
            // 37 teardown/refill rounds of 2 000 cycles.
            Workload::DragonflySparse => 75_000,
            Workload::FaultStorm => 150_000,
        };
        let window = if quick { window / 50 } else { window };
        Sizes {
            warmup: window / 20,
            window,
            quick,
        }
    }

    /// `sim_digest` of the full-size workload at [`DEFAULT_SEED`]. A
    /// change that is only meant to make the simulator faster must leave
    /// these identical.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::RouterCbr80 => 0xfc14_edaf_1447_6a22,
            Workload::MeshHybrid => 0x6c9e_6922_07e9_325b,
            Workload::ChurnOverload => 0x92cd_0ed6_c153_ef95,
            Workload::ChurnAudited => 0x949b_58c1_597d_fee8,
            Workload::DragonflySparse => 0xa059_7aac_dda1_85e6,
            Workload::FaultStorm => 0xe140_8a6b_6e14_dc78,
        }
    }

    /// Runs one episode of this workload.
    pub fn episode<P: Probe>(self, seed: u64, quick: bool, probe: &mut P) -> Episode {
        let sizes = self.sizes(quick);
        let mut episode = match self {
            Workload::RouterCbr80 => run_episode::<router_cbr80::State, P>(seed, sizes, probe),
            Workload::MeshHybrid => run_episode::<mesh_hybrid::State, P>(seed, sizes, probe),
            Workload::ChurnOverload => run_episode::<churn::State<false>, P>(seed, sizes, probe),
            Workload::ChurnAudited => run_episode::<churn::State<true>, P>(seed, sizes, probe),
            Workload::DragonflySparse => {
                run_episode::<dragonfly_sparse::State, P>(seed, sizes, probe)
            }
            Workload::FaultStorm => run_episode::<fault_storm::State, P>(seed, sizes, probe),
        };
        self.verify(&mut episode, sizes);
        episode
    }

    /// The per-workload invariants of `--check`, appended to the
    /// episode's failure list.
    fn verify(self, episode: &mut Episode, sizes: Sizes) {
        let s = &episode.sim;
        let mut fail = |what: String| episode.failures.push(format!("{}: {what}", self.name()));
        if s.cycles != sizes.window {
            fail(format!(
                "measured {} cycles, expected {}",
                s.cycles, sizes.window
            ));
        }
        if s.flits == 0 {
            fail("no flit was delivered in the measured window".into());
        }
        if s.out_of_order != 0 {
            fail(format!("{} out-of-order deliveries", s.out_of_order));
        }
        if s.undetected_corruptions != 0 {
            fail(format!(
                "{} undetected corruptions",
                s.undetected_corruptions
            ));
        }
        if s.audit_violations != 0 {
            fail(format!("{} audit violations", s.audit_violations));
        }
        if self.auditor() != (s.audit_checks > 0) {
            fail(format!(
                "auditor state is wrong: {} checks ran",
                s.audit_checks
            ));
        }
        if self.loss_is_failure() && s.lost != 0 {
            fail(format!(
                "{} flits lost with no fault and no teardown in flight",
                s.lost
            ));
        }
        if s.slots_missed != 0 {
            fail(format!(
                "{} of {} due CBR slots were refused",
                s.slots_missed, s.slots_due
            ));
        }
        if s.permanently_failed != 0 {
            fail(format!(
                "{} sessions failed permanently",
                s.permanently_failed
            ));
        }
        if s.incidents < s.recovered + s.permanently_failed {
            fail(format!(
                "{} incidents but {} recovered + {} failed",
                s.incidents, s.recovered, s.permanently_failed
            ));
        }
    }
}

/// The tail of a recorder that saw no flit.
pub const NO_TAIL: TailSummary = TailSummary {
    p50: 0.0,
    p95: 0.0,
    p99: 0.0,
};

/// Cycle counts of one episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Simulated before the window opens, as part of set-up.
    pub warmup: u64,
    /// The measured window.
    pub window: u64,
    /// Whether these are the 1/50 test sizes (tapes shrink to match).
    pub quick: bool,
}

impl Sizes {
    /// Warm-up plus window.
    pub fn horizon(self) -> u64 {
        self.warmup + self.window
    }
}

/// Every simulated counter a workload reads. Zero where a workload has no
/// such thing. Counters are cumulative over the episode (warm-up
/// included) unless they say "window".
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Window: simulated network cycles (router cycles for
    /// `router_cbr80`), skipped idle cycles included.
    pub cycles: u64,
    /// Window: stream flits delivered end to end (switched, for
    /// `router_cbr80`).
    pub flits: u64,
    /// Window: flits transmitted by any router (`NetStepReport::flits_switched`).
    pub flit_hops: u64,
    /// Stream flits accepted by a source NI.
    pub injected: u64,
    /// Stream flits delivered.
    pub delivered: u64,
    /// Stream flits lost (faults, and flits queued behind a teardown).
    pub lost: u64,
    /// Out-of-order deliveries.
    pub out_of_order: u64,
    /// Flits delivered with a bad CRC.
    pub undetected_corruptions: u64,
    /// VCT packets sent.
    pub packets_sent: u64,
    /// VCT packets delivered.
    pub packets_delivered: u64,
    /// Window: isochronous slots that came due on live CBR sessions.
    pub slots_due: u64,
    /// Window: due slots whose flit the source NI refused.
    pub slots_missed: u64,
    /// Sessions or connections asked for (set-up population included).
    pub sessions_requested: u64,
    /// Requests granted at the asked rate.
    pub accepted: u64,
    /// Requests granted below the asked rate.
    pub degraded: u64,
    /// Requests refused.
    pub rejected: u64,
    /// Voluntary closes executed.
    pub departures: u64,
    /// Sessions preempted by the shedder.
    pub preempted: u64,
    /// Rungs won back by load-recede upgrades.
    pub upgrades: u64,
    /// Shed rounds fired.
    pub shed_rounds: u64,
    /// Connection-breaking incidents.
    pub incidents: u64,
    /// Incidents recovered.
    pub recovered: u64,
    /// Sessions that died for good.
    pub permanently_failed: u64,
    /// Re-establish attempts.
    pub retries: u64,
    /// Attempts abandoned on the set-up timeout.
    pub timeouts: u64,
    /// Attempts deferred by the concurrent-probe cap.
    pub probe_throttled: u64,
    /// Flits replayed by the link-level retry layer.
    pub retransmitted: u64,
    /// Releases that named state no longer present.
    pub ghost_releases: u64,
    /// Set-ups that found the destination partitioned off.
    pub partitioned_sessions: u64,
    /// Σ `RouterStats::cycles`: stepped cycles plus lazily credited idle
    /// ones.
    pub router_cycles: u64,
    /// Σ VCT cut-throughs.
    pub cut_throughs: u64,
    /// Σ scheduler matches that named a vanished connection.
    pub ghost_matches: u64,
    /// Σ VCM bank-budget violations.
    pub bank_conflicts: u64,
    /// Σ lazily materialized VC queue banks at window end.
    pub materialized_banks: u64,
    /// `NetworkSim::memory_footprint` at window end.
    pub footprint_bytes: u64,
    /// Auditor passes executed.
    pub audit_checks: u64,
    /// Invariant violations the auditor recorded.
    pub audit_violations: u64,
    /// Window: mean end-to-end delay in cycles.
    pub delay_mean: f64,
    /// Window: median delay in cycles.
    pub delay_p50: f64,
    /// Window: 99th-percentile delay in cycles.
    pub delay_p99: f64,
    /// Window: 99th-percentile |Δdelay| between successive flits of a flow.
    pub jitter_p99: f64,
    /// Mean fault-to-recovery time in cycles.
    pub ttr_mean: f64,
}

impl SimStats {
    /// FNV-1a-64 over every field, in declaration order.
    pub fn digest(&self) -> u64 {
        let s = self;
        let words = [
            s.cycles,
            s.flits,
            s.flit_hops,
            s.injected,
            s.delivered,
            s.lost,
            s.out_of_order,
            s.undetected_corruptions,
            s.packets_sent,
            s.packets_delivered,
            s.slots_due,
            s.slots_missed,
            s.sessions_requested,
            s.accepted,
            s.degraded,
            s.rejected,
            s.departures,
            s.preempted,
            s.upgrades,
            s.shed_rounds,
            s.incidents,
            s.recovered,
            s.permanently_failed,
            s.retries,
            s.timeouts,
            s.probe_throttled,
            s.retransmitted,
            s.ghost_releases,
            s.partitioned_sessions,
            s.router_cycles,
            s.cut_throughs,
            s.ghost_matches,
            s.bank_conflicts,
            s.materialized_banks,
            s.footprint_bytes,
            s.audit_checks,
            s.audit_violations,
            s.delay_mean.to_bits(),
            s.delay_p50.to_bits(),
            s.delay_p99.to_bits(),
            s.jitter_p99.to_bits(),
            s.ttr_mean.to_bits(),
        ];
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Operations attempted: flits and packets offered plus sessions asked
    /// for.
    pub fn attempted(&self) -> u64 {
        self.injected + self.slots_missed + self.packets_sent + self.sessions_requested
    }

    /// Operations that failed: reordered or silently corrupted flits,
    /// broken invariants, refused isochronous slots, sessions lost for
    /// good, and — where nothing faults or hangs up — any lost flit.
    /// Admission refusals under overload are the controller working, and
    /// are reported as `sim.reject_ratio` instead.
    pub fn failed(&self, workload: Workload) -> u64 {
        let lost = if workload.loss_is_failure() {
            self.lost
        } else {
            0
        };
        self.out_of_order
            + self.undetected_corruptions
            + self.audit_violations
            + self.slots_missed
            + self.permanently_failed
            + lost
    }
}

/// One workload's simulation state, driven by [`run_episode`].
pub trait Sim: Sized {
    /// Builds the fabric and its routing, generates the tape from `seed`
    /// and opens the initial population.
    fn build<P: Probe>(seed: u64, sizes: Sizes, probe: &mut P) -> Self;
    /// Simulates the next `cycles` cycles; statistics are gathered only
    /// while `measuring`.
    fn advance<P: Probe>(&mut self, cycles: u64, measuring: bool, probe: &mut P);
    /// Reads the counters, then drains the fabric (untimed) and checks the
    /// conservation identity. Returns the statistics as of the window's
    /// end and what the checks found wrong.
    fn finish(self) -> (SimStats, Vec<String>);
}

/// The outcome of one episode.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    /// Host seconds of set-up: construct, populate, simulated warm-up.
    pub setup_s: f64,
    /// Host seconds of the measured window.
    pub window_s: f64,
    /// Host seconds of each of the window's [`SLICES`] equal parts.
    pub slice_s: Vec<f64>,
    /// The simulated statistics.
    pub sim: SimStats,
    /// Failed checks, empty when the episode is correct.
    pub failures: Vec<String>,
}

/// Equal parts a measured window is timed in (every window size, quick
/// ones included, is a multiple). Slice `k` of every episode of a run does
/// the same work, so a run can take its statistic slice by slice: a slow
/// phase of the host that lasts a second then costs the run a few slices of
/// one episode, not that episode's whole window.
pub const SLICES: u64 = 20;

/// Runs one episode of `W`: set-up, measured window, counters, drain.
pub fn run_episode<W: Sim, P: Probe>(seed: u64, sizes: Sizes, probe: &mut P) -> Episode {
    let start = Instant::now();
    let mut sim = W::build(seed, sizes, probe);
    sim.advance(sizes.warmup, false, probe);
    let setup_s = start.elapsed().as_secs_f64();

    probe.window_begin();
    let start = Instant::now();
    let mut slice_s = Vec::with_capacity(SLICES as usize);
    let mut slice_start = start;
    for _ in 0..SLICES {
        sim.advance(sizes.window / SLICES, true, probe);
        let now = Instant::now();
        slice_s.push((now - slice_start).as_secs_f64());
        slice_start = now;
    }
    let window = start.elapsed();
    probe.window_end(window.as_nanos() as u64);

    let (sim, failures) = sim.finish();
    Episode {
        setup_s,
        window_s: window.as_secs_f64(),
        slice_s,
        sim,
        failures,
    }
}

/// A CBR source paced in simulated time: one flit every `interarrival`
/// cycles from a random phase. A refused slot is a missed deadline, not a
/// backlog (the isochronous reading the churn campaigns use).
#[derive(Debug, Clone, Copy)]
pub struct Pacer<Id> {
    /// What the pacer feeds (a connection or a session).
    pub id: Id,
    /// Simulated cycle the next flit is due.
    pub next: f64,
    /// Cycles between flits.
    pub interarrival: f64,
}

impl<Id: Copy> Pacer<Id> {
    /// Number of slots due at or before `now`; advances the schedule.
    #[inline]
    pub fn due(&mut self, now: f64) -> u32 {
        let mut due = 0;
        while self.next <= now {
            self.next += self.interarrival;
            due += 1;
        }
        due
    }
}

/// Copies everything a [`NetworkSim`] and a window recorder know into
/// `stats`.
pub fn read_net(net: &NetworkSim, recorder: &DelayJitterRecorder, stats: &mut SimStats) {
    let n = net.stats();
    stats.delivered = n.flits_delivered;
    stats.lost = n.flits_lost;
    stats.out_of_order = n.out_of_order;
    stats.undetected_corruptions = n.undetected_corruptions;
    stats.packets_delivered = n.packets_delivered;
    stats.retransmitted = n.flits_retransmitted;
    stats.ghost_releases = n.ghost_releases;
    stats.partitioned_sessions = n.partitioned_sessions;
    for node in 0..net.topology().nodes() {
        let router = net.router(NodeId(node as u16));
        let r = router.stats();
        stats.router_cycles += r.cycles;
        stats.cut_throughs += r.cut_throughs;
        stats.ghost_matches += r.ghost_matches;
        stats.bank_conflicts += r.bank_conflicts;
        stats.materialized_banks += router.materialized_vc_banks() as u64;
    }
    stats.footprint_bytes = net.memory_footprint() as u64;
    if let Some(auditor) = net.auditor() {
        stats.audit_checks = auditor.checks();
        stats.audit_violations = auditor.violation_count();
    }
    let delay = recorder.delay_tail().unwrap_or(NO_TAIL);
    stats.delay_mean = recorder.mean_delay_cycles();
    stats.delay_p50 = delay.p50;
    stats.delay_p99 = delay.p99;
    stats.jitter_p99 = recorder.jitter_tail().unwrap_or(NO_TAIL).p99;
}

/// Steps `net` with every source silent until conservation closes — every
/// injected flit delivered or counted lost, every packet sent delivered,
/// nothing still queued — for at most [`DRAIN_LIMIT`] cycles from `t`.
/// Reports an identity that never closes.
pub fn drain(net: &mut NetworkSim, t: u64, sent: &SimStats, failures: &mut Vec<String>) {
    let settled = |net: &NetworkSim| {
        let n = net.stats();
        sent.injected == n.flits_delivered + n.flits_lost
            && sent.packets_sent == n.packets_delivered
    };
    let mut now = t;
    while !settled(net) && now < t + DRAIN_LIMIT {
        net.step(Cycles(now));
        now += 1;
    }
    if !settled(net) {
        let n = net.stats();
        failures.push(format!(
            "conservation broken after a {DRAIN_LIMIT}-cycle drain: flits injected {} != delivered {} + lost {}, or packets sent {} != delivered {}",
            sent.injected, n.flits_delivered, n.flits_lost, sent.packets_sent, n.packets_delivered
        ));
    }
}

/// Longest drain [`drain`] attempts, in cycles.
const DRAIN_LIMIT: u64 = 20_000;
