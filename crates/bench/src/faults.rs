//! Seeded fault and chaos campaigns: network resilience under link and
//! router failure + repair, optionally with transient wire faults (flit
//! corruption and drops), the link-level retry layer (LLR) and the
//! invariant auditor.
//!
//! Both campaigns are one trial loop ([`run_trial`]): build a multi-router
//! fabric, open a population of CBR sessions under a [`RecoveryManager`],
//! and drive a seeded [`FaultPlan`] through the run while the manager
//! re-establishes broken sessions via EPB (retry/backoff, graceful rate
//! degradation). [`Faults`] is the storm with zero transients, LLR and
//! auditor off; [`Chaos`] runs each fabric's mixed schedule twice — LLR off
//! and on, auditor watching every cycle — so its series doubles as the
//! robustness claim of DESIGN.md: with LLR on, every corrupted flit is
//! caught at a link CRC check and replayed (`undetected_corruptions == 0`,
//! auditor clean); with LLR off, damaged flits reach their destination NIs
//! silently and dropped flits leak credits that the auditor's conservation
//! equation flags.
//!
//! Every number is a pure function of `(spec, trial seed)`, so
//! `BENCH_{faults,chaos}.json` and `results/{faults,chaos}.txt` are
//! byte-identical at any `--jobs` value (see [`crate::campaign`]).

use mmr_core::conn::QosClass;
use mmr_core::{AuditConfig, LlrConfig};
use mmr_net::{
    FaultInjector, FaultPlan, NetStats, NetworkSim, NodeId, RecoveryManager, RecoveryPolicy,
    RecoveryStats, SessionId, Topology,
};
use mmr_sim::{Cycles, SeededRng};
use mmr_traffic::SlotClock;

use crate::campaign::{Campaign, Column, Value};
use crate::FIGURE_SEED;

/// Fabrics the campaign sweeps over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignTopology {
    /// 3×3 mesh.
    Mesh3x3,
    /// 3×3 torus.
    Torus3x3,
    /// 12-node connected irregular graph (seed-dependent wiring).
    Irregular12,
}

impl CampaignTopology {
    /// All swept fabrics, in emission order.
    pub const ALL: [CampaignTopology; 3] =
        [CampaignTopology::Mesh3x3, CampaignTopology::Torus3x3, CampaignTopology::Irregular12];

    /// Stable series name.
    pub fn name(&self) -> &'static str {
        match self {
            CampaignTopology::Mesh3x3 => "mesh3x3",
            CampaignTopology::Torus3x3 => "torus3x3",
            CampaignTopology::Irregular12 => "irregular12",
        }
    }

    /// Node count of the fabric.
    pub fn nodes(&self) -> usize {
        match self {
            CampaignTopology::Mesh3x3 | CampaignTopology::Torus3x3 => 9,
            CampaignTopology::Irregular12 => 12,
        }
    }

    /// Builds the fabric (irregular wiring is a pure function of `seed`).
    pub fn build(&self, seed: u64) -> Topology {
        match self {
            CampaignTopology::Mesh3x3 => Topology::mesh2d(3, 3, 8),
            CampaignTopology::Torus3x3 => Topology::torus2d(3, 3, 8),
            CampaignTopology::Irregular12 => {
                Topology::irregular(12, 8, 4, &mut SeededRng::new(seed ^ 0x1220))
            }
        }
        .expect("campaign fabrics fit the port budget")
    }
}

/// One cell of a fault or chaos grid.
#[derive(Debug, Clone)]
pub struct StormSpec {
    /// Fabric under test.
    pub topology: CampaignTopology,
    /// Permanent link faults (fail + repair) per trial.
    pub faults: usize,
    /// Transient wire faults (corrupt/drop, 50/50 seeded) per trial.
    pub transients: usize,
    /// Whether the link-level retry layer protects the wires.
    pub llr: bool,
    /// Whether the invariant auditor (record mode) watches every cycle.
    pub audit: bool,
    /// Independent seeded trials aggregated into the cell.
    pub trials: usize,
    /// Cycles before the fault window opens.
    pub warmup: u64,
    /// Cycles of the fault + recovery window.
    pub measure: u64,
}

/// Outcome of one trial, and the sum over a cell's trials: the recovery
/// manager's and the network's own statistics, plus the auditor's counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StormResult {
    /// The recovery manager's statistics (`faults` counts the
    /// connection-breaking incidents; the cell's mean time-to-recover is
    /// its merged `time_to_recover`).
    pub recovery: RecoveryStats,
    /// The network's statistics (failures, repairs, transient damage,
    /// deliveries and losses).
    pub net: NetStats,
    /// Invariant violations recorded by the auditor (0 with it off).
    pub violations: u64,
    /// Auditor passes executed (proof the auditor ran).
    pub audit_checks: u64,
}

impl StormResult {
    /// Fraction of incidents recovered (1 when nothing broke).
    pub fn recovery_rate(&self) -> f64 {
        if self.recovery.faults == 0 {
            1.0
        } else {
            self.recovery.recovered as f64 / self.recovery.faults as f64
        }
    }

    fn absorb(&mut self, trial: StormResult) {
        self.recovery.absorb(&trial.recovery);
        self.net.absorb(&trial.net);
        self.violations += trial.violations;
        self.audit_checks += trial.audit_checks;
    }
}

/// CBR sessions opened per trial.
const SESSIONS: usize = 10;

/// Whole-router fail/repair cycles per trial: every cell also loses and
/// regains one router, so both campaigns exercise quarantine, root
/// migration and session evacuation on every fabric.
const NODE_FAULTS: usize = 1;

/// Runs one seeded trial: permanent (and, for chaos, transient) faults
/// under automatic recovery.
pub fn run_trial(spec: &StormSpec, seed: u64) -> StormResult {
    run_trial_on(spec, seed, false).0
}

/// [`run_trial`] that also hands back the network it ran on, with every
/// audit pass made the full sweep if `exhaustive_audit` — so the
/// differential tests can hold the incremental pass to the sweep on the
/// campaign's own trials (`tests/engine_differential.rs`).
#[doc(hidden)]
pub fn run_trial_on(
    spec: &StormSpec,
    seed: u64,
    exhaustive_audit: bool,
) -> (StormResult, NetworkSim) {
    let router = mmr_core::router::RouterConfig::paper_default()
        .vcs_per_port(16)
        .candidates(4)
        .seed(seed ^ 0xD06);
    let topo = spec.topology.build(seed);
    let mut net = NetworkSim::new(topo, router);
    let timing = net.router(NodeId(0)).config().timing();
    if spec.audit {
        net.enable_audit(AuditConfig::default());
        net.set_exhaustive_audit(exhaustive_audit);
    }
    if spec.llr {
        net.enable_llr(LlrConfig::default());
    }
    let mut rng = SeededRng::new(seed);
    let nodes = spec.topology.nodes();
    let ladder = mmr_traffic::rates::paper_rate_ladder();
    let policy = RecoveryPolicy::default()
        .max_retries(6)
        .backoff(Cycles(8), Cycles(256))
        .setup_timeout(Cycles(200));
    let mut mgr = RecoveryManager::new(policy);

    // Stream population: CBR pairs paced by their own slot clocks.
    let mut pacers: Vec<(SessionId, SlotClock)> = Vec::new();
    let mut attempts = 0;
    while pacers.len() < SESSIONS && attempts < 200 {
        attempts += 1;
        let src = NodeId(rng.index(nodes) as u16);
        let dst = NodeId(rng.index(nodes) as u16);
        if src == dst {
            continue;
        }
        // Mid-to-upper ladder rungs so degradation has room to step down.
        let rate = ladder[3 + rng.index(ladder.len() - 3)];
        if let Ok(session) = mgr.open(&mut net, src, dst, QosClass::Cbr { rate }) {
            let interarrival = timing.interarrival_cycles(rate);
            pacers.push((session, SlotClock::new(rng.uniform(0.0, interarrival), interarrival)));
        }
    }

    // Permanent faults strike in the first half of the window; outages last
    // an eighth of it, so repairs land in-run and recoveries have room to
    // finish. Transients share the strike window.
    let window = spec.warmup..spec.warmup + spec.measure / 2;
    let outage = Cycles((spec.measure / 8).max(50));
    let plan = FaultPlan::seeded_chaos_campaign(
        net.topology(),
        seed,
        spec.faults,
        spec.transients,
        window.clone(),
        outage,
    )
    .merged(FaultPlan::seeded_node_campaign(net.topology(), seed, NODE_FAULTS, window, outage));
    let mut injector = FaultInjector::new(plan).expect("seeded campaigns are consistent");

    let total = spec.warmup + spec.measure;
    for t in 0..total {
        let now = Cycles(t);
        let tick = injector.poll(&mut net, now);
        if !tick.broken.is_empty() {
            mgr.on_faults(&tick.broken, now);
        }
        // A recovering session's stream pauses; a refused slot is dropped.
        for (session, clock) in &mut pacers {
            let Some(conn) = mgr.conn(*session) else {
                clock.pause(now);
                continue;
            };
            for _ in 0..clock.due(now) {
                let _ = net.inject(conn, now);
            }
        }
        let report = net.step(now);
        // The campaign checks itself: the retry layer's pump may skip only
        // links whose sender is drained (a dropped tail frame is the case
        // only its timeout rescues).
        assert!(net.llr_live_covers_senders(), "cycle {t}: an undrained link left the live set");
        // Every router connection's tag names its owner (an O(fabric)
        // rebuild, so debug builds only: the test suites).
        debug_assert!(net.tags_agree(), "cycle {t}: a router connection's tag names the wrong owner");
        for event in mgr.service(&mut net, &report, now) {
            // Degradation changes the session's rate; repace its stream.
            if let mmr_net::RecoveryEvent::Degraded { session, to, .. } = event {
                if let Some((_, clock)) = pacers.iter_mut().find(|(s, _)| *s == session) {
                    clock.set_interarrival(timing.interarrival_cycles(to));
                }
            }
        }
    }

    let auditor = net.auditor();
    let result = StormResult {
        recovery: mgr.stats().clone(),
        net: net.stats().clone(),
        violations: auditor.map_or(0, |a| a.violation_count()),
        audit_checks: auditor.map_or(0, |a| a.checks()),
    };
    (result, net)
}

/// Every fabric × every `(faults, transients, llr)` variant, on the windows
/// the fault, chaos and churn campaigns share.
fn storm_grid(quick: bool, audit: bool, variants: &[(usize, usize, bool)]) -> Vec<StormSpec> {
    let (trials, warmup, measure) = if quick { (2, 400, 2_400) } else { (3, 1_000, 8_000) };
    let mut grid = Vec::new();
    for topology in CampaignTopology::ALL {
        for &(faults, transients, llr) in variants {
            let spec =
                StormSpec { topology, faults, transients, llr, audit, trials, warmup, measure };
            grid.push(spec);
        }
    }
    grid
}

/// Link + node failure/repair with automatic recovery
/// (`BENCH_faults.json`, `results/faults.txt`).
pub struct Faults;

impl Campaign for Faults {
    const NAME: &'static str = "faults";
    const SEED: u64 = FIGURE_SEED ^ 0xFA17_0CA4;
    const TITLE: &'static str =
        "fault campaigns: seeded link + node failure/repair with automatic recovery";
    type Spec = StormSpec;
    type Cell = StormResult;

    /// Every fabric × every fault count.
    fn grid(quick: bool) -> Vec<StormSpec> {
        let fault_counts: &[usize] = if quick { &[1, 3] } else { &[1, 3, 6] };
        let variants: Vec<_> = fault_counts.iter().map(|&faults| (faults, 0, false)).collect();
        storm_grid(quick, false, &variants)
    }

    fn trials(spec: &StormSpec) -> usize {
        spec.trials
    }

    fn run_trial(spec: &StormSpec, seed: u64) -> StormResult {
        run_trial(spec, seed)
    }

    fn absorb(cell: &mut StormResult, trial: StormResult) {
        cell.absorb(trial);
    }

    fn columns() -> Vec<Column<Self>> {
        use Value::{Fixed, Int, Text};
        let (show, json) = (Column::<Self>::show, Column::<Self>::json);
        vec![
            show("topology", "topology", 12, |s, _| Text(s.topology.name().into())),
            show("faults_planned", "faults", 6, |s, _| Int(s.faults as u64)),
            json("node_faults_planned", |_, _| Int(NODE_FAULTS as u64)),
            json("trials", |s, _| Int(s.trials as u64)),
            show("", "nodes", 5, |_, r| Int(r.net.nodes_failed)),
            show("sessions_broken", "broken", 7, |_, r| Int(r.recovery.faults)),
            show("recovered", "recovered", 9, |_, r| Int(r.recovery.recovered)),
            show("permanently_failed", "perm-fail", 9, |_, r| Int(r.recovery.permanently_failed)),
            show("degraded", "degraded", 8, |_, r| Int(r.recovery.degraded)),
            show("retries", "retries", 8, |_, r| Int(r.recovery.retries)),
            json("timeouts", |_, r| Int(r.recovery.timeouts)),
            json("backoff_cycles", |_, r| Int(r.recovery.backoff_cycles)),
            show("", "parked", 7, |_, r| Int(r.recovery.partitioned)),
            show("", "mean-ttr", 9, |_, r| Fixed(r.recovery.time_to_recover.mean(), 2)),
            json("mean_ttr_cycles", |_, r| Fixed(r.recovery.time_to_recover.mean(), 4)),
            json("recovery_rate", |_, r| Fixed(r.recovery_rate(), 4)),
            show("flits_lost", "lost", 9, |_, r| Int(r.net.flits_lost)),
            show("flits_delivered", "delivered", 10, |_, r| Int(r.net.flits_delivered)),
            json("links_failed", |_, r| Int(r.net.links_failed)),
            json("links_repaired", |_, r| Int(r.net.links_repaired)),
            json("nodes_failed", |_, r| Int(r.net.nodes_failed)),
            json("nodes_repaired", |_, r| Int(r.net.nodes_repaired)),
            json("partitioned_sessions", |_, r| Int(r.recovery.partitioned)),
            json("probe_throttled", |_, r| Int(r.recovery.probe_throttled)),
        ]
    }
}

/// Permanent outages plus transient wire faults, LLR off vs on, auditor
/// always watching (`BENCH_chaos.json`, `results/chaos.txt`).
pub struct Chaos;

impl Campaign for Chaos {
    const NAME: &'static str = "chaos";
    const SEED: u64 = FIGURE_SEED ^ 0xC4A0_50FA;
    const TITLE: &'static str =
        "chaos campaigns: permanent outages + transient wire faults, auditor on";
    type Spec = StormSpec;
    type Cell = StormResult;

    /// Every fabric × LLR off/on, same mixed fault schedule.
    fn grid(quick: bool) -> Vec<StormSpec> {
        let (faults, transients) = if quick { (2, 8) } else { (3, 16) };
        storm_grid(quick, true, &[(faults, transients, false), (faults, transients, true)])
    }

    fn trials(spec: &StormSpec) -> usize {
        spec.trials
    }

    fn run_trial(spec: &StormSpec, seed: u64) -> StormResult {
        run_trial(spec, seed)
    }

    fn absorb(cell: &mut StormResult, trial: StormResult) {
        cell.absorb(trial);
    }

    fn columns() -> Vec<Column<Self>> {
        use Value::{Int, Switch, Text};
        let (show, json) = (Column::<Self>::show, Column::<Self>::json);
        vec![
            show("topology", "topology", 12, |s, _| Text(s.topology.name().into())),
            show("llr", "llr", 4, |s, _| Switch(s.llr)),
            json("faults_planned", |s, _| Int(s.faults as u64)),
            json("transients_planned", |s, _| Int(s.transients as u64)),
            json("trials", |s, _| Int(s.trials as u64)),
            show("flits_corrupted", "corrupt", 7, |_, r| Int(r.net.flits_corrupted)),
            show("flits_dropped", "dropped", 9, |_, r| Int(r.net.flits_dropped)),
            show("flits_retransmitted", "retrans", 8, |_, r| Int(r.net.flits_retransmitted)),
            show("undetected_corruptions", "silent", 6, |_, r| Int(r.net.undetected_corruptions)),
            show("audit_violations", "violations", 11, |_, r| Int(r.violations)),
            json("audit_checks", |_, r| Int(r.audit_checks)),
            show("flits_delivered", "delivered", 11, |_, r| Int(r.net.flits_delivered)),
            show("flits_lost", "lost", 6, |_, r| Int(r.net.flits_lost)),
            json("out_of_order", |_, r| Int(r.net.out_of_order)),
            json("sessions_broken", |_, r| Int(r.recovery.faults)),
            show("recovered", "recovered", 10, |_, r| Int(r.recovery.recovered)),
            json("links_failed", |_, r| Int(r.net.links_failed)),
            json("links_repaired", |_, r| Int(r.net.links_repaired)),
            json("nodes_failed", |_, r| Int(r.net.nodes_failed)),
            json("nodes_repaired", |_, r| Int(r.net.nodes_repaired)),
            json("partitioned_sessions", |_, r| Int(r.recovery.partitioned)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(topology: CampaignTopology, transients: usize, llr: bool) -> StormSpec {
        StormSpec {
            topology,
            faults: 1,
            transients,
            llr,
            audit: transients > 0,
            trials: 1,
            warmup: 300,
            measure: 2_000,
        }
    }

    #[test]
    fn a_cell_is_the_field_wise_sum_of_its_trials() {
        // `k` times a distinct, non-zero value in every field; the library
        // stats' own folds are pinned beside them in mmr-net.
        let trial = |k: u64| StormResult {
            recovery: RecoveryStats { faults: k, ..RecoveryStats::default() },
            net: NetStats { flits_delivered: 2 * k, ..NetStats::default() },
            violations: 3 * k,
            audit_checks: 4 * k,
        };
        let mut cell = trial(1);
        cell.absorb(trial(100));
        assert_eq!(cell, trial(101));
    }

    #[test]
    fn trials_are_pure_functions_of_their_seed() {
        for spec in
            [spec(CampaignTopology::Mesh3x3, 0, false), spec(CampaignTopology::Mesh3x3, 10, true)]
        {
            let a = run_trial(&spec, 11);
            assert_eq!(a, run_trial(&spec, 11));
            assert_ne!(a, run_trial(&spec, 12), "different seeds give different campaigns");
        }
    }

    #[test]
    fn campaigns_observe_faults_and_recover() {
        let spec =
            StormSpec { faults: 3, measure: 2_400, ..spec(CampaignTopology::Torus3x3, 0, false) };
        let r = run_trial(&spec, 5);
        assert!(r.net.links_failed > 0, "faults were injected");
        assert_eq!(r.net.links_failed, r.net.links_repaired, "every outage ends in repair");
        assert!(r.net.nodes_failed >= 1, "a whole router died");
        assert_eq!(r.net.nodes_failed, r.net.nodes_repaired, "every router outage ends in repair");
        assert!(r.net.flits_delivered > 100, "traffic flowed: {}", r.net.flits_delivered);
        if r.recovery.faults > 0 {
            assert!(r.recovery.recovered + r.recovery.permanently_failed > 0, "incidents resolved");
        }
        let transients = r.net.flits_corrupted + r.net.flits_dropped;
        assert_eq!(transients, 0, "a fault campaign plans no transients");
    }

    #[test]
    fn llr_masks_the_storm_and_its_absence_is_visible() {
        // The acceptance claim: the same seeded storm, protected vs bare.
        let on = run_trial(&spec(CampaignTopology::Mesh3x3, 10, true), 1);
        let struck = on.net.flits_corrupted + on.net.flits_dropped;
        assert!(struck > 0, "the storm actually struck: {on:?}");
        assert_eq!(on.net.undetected_corruptions, 0, "LLR caught every corruption: {on:?}");
        assert_eq!(on.violations, 0, "auditor clean under LLR: {on:?}");
        assert_eq!(on.net.out_of_order, 0, "go-back-N preserves order");
        assert!(on.audit_checks > 0, "the auditor ran");

        let off = run_trial(&spec(CampaignTopology::Mesh3x3, 10, false), 1);
        assert!(off.net.flits_corrupted > 0, "bare wires take corruption hits: {off:?}");
        assert!(off.net.undetected_corruptions > 0, "silent corruption reaches the NIs: {off:?}");
        assert!(off.violations > 0, "dropped flits leak credits the auditor flags: {off:?}");
    }
}
