//! Seeded churn campaigns: dynamic session arrivals/departures under a
//! diurnal load curve, with the overload controls (utilization-guarded
//! admission, degrade-on-admit, priority-aware shedding) switched off vs
//! on over the *same* churn tape.
//!
//! Each grid cell replays one seeded [`ChurnSchedule`] against a fabric
//! twice. With the controls **off** (the naive baseline —
//! [`AdmitPolicy::naive`]) admission is the raw per-output bandwidth
//! book, which cannot see the one resource a node's own sessions share:
//! the NI input port, served by the crossbar at one flit per cycle. The
//! diurnal peak concentrates more reserved egress on busy nodes than
//! their NIs can inject, admitted CBR sessions back up in their source
//! NIs, and they **miss isochronous slots**. With the controls **on**,
//! the per-source egress guard ([`NI_HEADROOM`](mmr_net::admission::NI_HEADROOM))
//! and the link-load headroom keep the operating point schedulable (degrading or
//! turning away the excess), and the sessions the controller *did* admit
//! keep every slot — the `missed_cbr_slots` column reads 0. That
//! asymmetry is the robustness claim of DESIGN.md §10.
//!
//! Every number is a pure function of `(topology, churn intensity,
//! controls, trial seed)`, so `BENCH_churn.json` and `results/churn.txt`
//! are byte-identical at any `--jobs` value (see [`crate::campaign`]).

use std::collections::BTreeMap;

use mmr_core::conn::QosClass;
use mmr_core::AuditConfig;
use mmr_net::{
    AdmissionController, AdmitPolicy, AdmitStats, NetStats, NetworkSim, NodeId, SessionId,
};
use mmr_sim::{Cycles, DelayJitterRecorder, SeededRng};
use mmr_traffic::{
    ChurnConfig, ChurnEventKind, ChurnSchedule, DiurnalCurve, SessionClass, SlotClock,
};

use crate::campaign::{Campaign, Column, Value};
use crate::faults::CampaignTopology;
use crate::FIGURE_SEED;

/// One cell of the churn grid.
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    /// Fabric under test.
    pub topology: CampaignTopology,
    /// Peak session arrivals per 1000 cycles (the diurnal curve scales
    /// instantaneous intensity below this).
    pub arrivals_per_kcycle: f64,
    /// Whether the overload controls (headroom guard, degrade-on-admit,
    /// shedding, upgrades) are on; off is the naive book-only baseline.
    pub controls: bool,
    /// Independent seeded trials aggregated into the cell.
    pub trials: usize,
    /// Cycles before measurement (the tape plays from cycle 0).
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
}

impl ChurnSpec {
    /// Total simulated cycles per trial (warmup plus measured window).
    pub fn horizon(&self) -> u64 {
        self.warmup + self.measure
    }
}

/// Aggregated outcome of one churn cell (sums over its trials; the tail
/// percentiles and peak load are worst-case across trials): the admission
/// controller's and the network's own statistics, plus what only the trial
/// measures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnResult {
    /// Session arrivals the tape offered.
    pub arrivals: u64,
    /// Voluntary departures executed.
    pub departures: u64,
    /// The admission controller's statistics: each arrival's verdict, the
    /// shedder's preemptions, load-recede upgrades.
    pub admit: AdmitStats,
    /// The network's statistics (deliveries, losses, ordering).
    pub net: NetStats,
    /// Isochronous slots due from admitted, live CBR sessions in the
    /// measured window.
    pub cbr_slots_due: u64,
    /// Due slots whose flit the source NI refused — admitted-session QoS
    /// violations. The headline column: 0 with the controls on.
    pub missed_cbr_slots: u64,
    /// Invariant violations recorded by the auditor.
    pub violations: u64,
    /// Auditor passes executed (proof the auditor ran).
    pub audit_checks: u64,
    /// Worst per-mille peak link load observed across the trials.
    pub peak_link_load_milli: u64,
    /// Worst p50 end-to-end delay (cycles) across the trials.
    pub delay_p50: f64,
    /// Worst p95 end-to-end delay (cycles) across the trials.
    pub delay_p95: f64,
    /// Worst p99 end-to-end delay (cycles) across the trials.
    pub delay_p99: f64,
    /// Worst p99 inter-arrival jitter (cycles) across the trials.
    pub jitter_p99: f64,
}

/// Runs one seeded trial of a churn cell: the tape's arrivals go through
/// the admission controller, live CBR sessions pace isochronous flits,
/// departures tear down, the auditor watches every cycle.
pub fn run_trial(spec: &ChurnSpec, seed: u64) -> ChurnResult {
    run_trial_on(spec, seed, false).0
}

/// [`run_trial`] that also hands back the network it ran on, with every
/// audit pass made the full sweep if `exhaustive_audit` (see
/// [`crate::faults::run_trial_on`]).
#[doc(hidden)]
pub fn run_trial_on(
    spec: &ChurnSpec,
    seed: u64,
    exhaustive_audit: bool,
) -> (ChurnResult, NetworkSim) {
    // 24 VCs per port so the VC pools outlast the bandwidth math: the
    // binding resources are the per-output books and the NI injection
    // ceiling, which is exactly what the admission controller manages.
    let router = mmr_core::router::RouterConfig::paper_default()
        .vcs_per_port(24)
        .candidates(4)
        .seed(seed ^ 0xD07);
    let mut net = NetworkSim::new(spec.topology.build(seed), router);
    let timing = net.router(NodeId(0)).config().timing();
    net.enable_audit(AuditConfig::default());
    net.set_exhaustive_audit(exhaustive_audit);

    let policy = if spec.controls { AdmitPolicy::default() } else { AdmitPolicy::naive() };
    let mut ctl = AdmissionController::new(policy);

    // The churn tape: heavy-tailed holding times around half the window,
    // the two top ladder rungs (55/120 Mbps) so the bandwidth math — not
    // the VC pools — is the binding constraint on a 1.24 Gbps fabric, one
    // diurnal period per horizon.
    let mut cfg = ChurnConfig::new(
        spec.arrivals_per_kcycle / 1_000.0,
        spec.topology.nodes(),
        spec.horizon(),
    );
    cfg.median_holding = (spec.horizon() / 2).max(500) as f64;
    cfg.holding_sigma = 0.8;
    cfg.rungs = (7, 8);
    cfg.best_effort_fraction = 0.25;
    cfg.diurnal = DiurnalCurve::day_night(0.25, spec.horizon() as f64);
    let tape = ChurnSchedule::generate(&cfg, seed);

    let mut pacers: Vec<(SessionId, SlotClock)> = Vec::new();
    let mut live: BTreeMap<u32, SessionId> = BTreeMap::new();
    let mut phase_rng = SeededRng::new(seed ^ 0x9A5E);
    let mut recorder = DelayJitterRecorder::new();
    let mut r = ChurnResult::default();
    let mut upgrades_seen = 0u64;
    let mut event_idx = 0usize;

    let total = spec.horizon();
    for t in 0..total {
        let now = Cycles(t);
        let measuring = t >= spec.warmup;

        // Play the tape up to now.
        while let Some(ev) = tape.events.get(event_idx) {
            if ev.at > now {
                break;
            }
            event_idx += 1;
            let Some(plan) = tape.sessions.get(ev.session as usize) else { continue };
            match ev.kind {
                ChurnEventKind::Arrival => {
                    r.arrivals += 1;
                    let class = match plan.class {
                        SessionClass::Cbr { .. } => QosClass::Cbr { rate: plan.class.rate() },
                        SessionClass::BestEffort => QosClass::BestEffort,
                    };
                    let verdict = ctl.request(
                        &mut net,
                        NodeId(plan.src as u16),
                        NodeId(plan.dst as u16),
                        class,
                    );
                    if let Some(session) = verdict.session() {
                        live.insert(plan.id, session);
                        if let Some(QosClass::Cbr { rate }) = ctl.sessions().class(session) {
                            let interarrival = timing.interarrival_cycles(rate);
                            let first = now.as_f64() + phase_rng.uniform(0.0, interarrival);
                            pacers.push((session, SlotClock::new(first, interarrival)));
                        }
                    }
                }
                ChurnEventKind::Departure => {
                    if let Some(session) = live.remove(&plan.id) {
                        pacers.retain(|(s, _)| *s != session);
                        if ctl.close(&mut net, session) {
                            r.departures += 1;
                        }
                    }
                }
            }
        }

        // Live CBR sessions pace their isochronous slots; a refused slot
        // is a missed deadline, not a backlog.
        for (session, clock) in &mut pacers {
            let Some(conn) = ctl.sessions().conn(*session) else {
                clock.pause(now);
                continue;
            };
            for _ in 0..clock.due(now) {
                let missed = net.inject(conn, now).is_err();
                if measuring {
                    r.cbr_slots_due += 1;
                    r.missed_cbr_slots += u64::from(missed);
                }
            }
        }

        let report = net.step(now);
        if measuring {
            for d in &report.delivered {
                recorder.record(d.conn.0, d.latency);
            }
        }
        let (events, preempted) = ctl.service(&mut net, &report, now);
        debug_assert!(events.is_empty(), "no faults are injected in churn trials");
        for v in &preempted {
            pacers.retain(|(s, _)| *s != v.session);
            live.retain(|_, s| *s != v.session);
        }
        let upgrades = ctl.stats().upgrades;
        if upgrades != upgrades_seen {
            upgrades_seen = upgrades;
            for (session, clock) in &mut pacers {
                if let Some(QosClass::Cbr { rate }) = ctl.sessions().class(*session) {
                    clock.set_interarrival(timing.interarrival_cycles(rate));
                }
            }
        }
        let (peak, _) = net.link_load();
        r.peak_link_load_milli = r.peak_link_load_milli.max((peak * 1_000.0).round() as u64);
    }

    r.admit = ctl.stats().clone();
    r.net = net.stats().clone();
    let aud = net.auditor().expect("auditor enabled for every churn trial");
    r.violations = aud.violation_count();
    r.audit_checks = aud.checks();
    if let Some(tail) = recorder.delay_tail() {
        r.delay_p50 = tail.p50;
        r.delay_p95 = tail.p95;
        r.delay_p99 = tail.p99;
    }
    if let Some(tail) = recorder.jitter_tail() {
        r.jitter_p99 = tail.p99;
    }
    (r, net)
}

/// Diurnal session churn, overload controls off vs on over the same tape
/// (`BENCH_churn.json`, `results/churn.txt`).
pub struct Churn;

impl Campaign for Churn {
    const NAME: &'static str = "churn";
    const SEED: u64 = FIGURE_SEED ^ 0x0C48_A4E5;
    const TITLE: &'static str =
        "churn campaigns: diurnal arrivals + heavy-tailed holding, overload controls off vs on";
    type Spec = ChurnSpec;
    type Cell = ChurnResult;

    /// Overloadable fabrics × {nominal, overload} churn intensity × controls
    /// off/on.
    ///
    /// Torus3x3 is deliberately absent: its symmetric 4-regular wiring
    /// spreads per-node egress so evenly that uniform churn saturates the VC
    /// pools long before any NI injection ceiling — the naive baseline never
    /// collapses there, so the off/on contrast carries no signal. Mesh (edge
    /// and corner nodes) and the irregular fabric both concentrate demand
    /// enough for naive admission to oversubscribe source NIs.
    fn grid(quick: bool) -> Vec<ChurnSpec> {
        let (trials, warmup, measure) = if quick { (2, 400, 2_400) } else { (3, 1_000, 8_000) };
        let mut grid = Vec::new();
        for topology in [CampaignTopology::Mesh3x3, CampaignTopology::Irregular12] {
            for arrivals_per_kcycle in [100.0, 800.0] {
                for controls in [false, true] {
                    grid.push(ChurnSpec {
                        topology,
                        arrivals_per_kcycle,
                        controls,
                        trials,
                        warmup,
                        measure,
                    });
                }
            }
        }
        grid
    }

    fn trials(spec: &ChurnSpec) -> usize {
        spec.trials
    }

    /// The seed derives from the controls-free identity of the trial —
    /// `(fabric, intensity, trial ordinal)` — so the off/on rows of one cell
    /// replay the same churn tape.
    fn seed_index(spec: &ChurnSpec, ordinal: usize, _flat: usize) -> usize {
        let tape_key = (spec.topology.nodes() as u64) << 32
            ^ (spec.arrivals_per_kcycle * 16.0) as u64
            ^ (ordinal as u64) << 20;
        tape_key as usize
    }

    fn run_trial(spec: &ChurnSpec, seed: u64) -> ChurnResult {
        run_trial(spec, seed)
    }

    fn absorb(cell: &mut ChurnResult, trial: ChurnResult) {
        cell.arrivals += trial.arrivals;
        cell.departures += trial.departures;
        cell.admit.absorb(&trial.admit);
        cell.net.absorb(&trial.net);
        cell.cbr_slots_due += trial.cbr_slots_due;
        cell.missed_cbr_slots += trial.missed_cbr_slots;
        cell.violations += trial.violations;
        cell.audit_checks += trial.audit_checks;
        cell.peak_link_load_milli = cell.peak_link_load_milli.max(trial.peak_link_load_milli);
        cell.delay_p50 = cell.delay_p50.max(trial.delay_p50);
        cell.delay_p95 = cell.delay_p95.max(trial.delay_p95);
        cell.delay_p99 = cell.delay_p99.max(trial.delay_p99);
        cell.jitter_p99 = cell.jitter_p99.max(trial.jitter_p99);
    }

    fn columns() -> Vec<Column<Self>> {
        use Value::{Fixed, Int, Real, Switch, Text};
        let (show, json) = (Column::<Self>::show, Column::<Self>::json);
        vec![
            show("topology", "topology", 12, |s, _| Text(s.topology.name().into())),
            show("arrivals_per_kcycle", "arr/kcyc", 8, |s, _| Real(s.arrivals_per_kcycle)),
            show("controls", "controls", 9, |s, _| Switch(s.controls)),
            json("trials", |s, _| Int(s.trials as u64)),
            json("arrivals", |_, r| Int(r.arrivals)),
            show("accepted", "admit", 7, |_, r| Int(r.admit.accepted)),
            show("degraded", "degrade", 8, |_, r| Int(r.admit.degraded)),
            show("rejected", "reject", 8, |_, r| {
                let a = &r.admit;
                Int(a.rejected_saturated + a.rejected_resources + a.rejected_other)
            }),
            json("departures", |_, r| Int(r.departures)),
            json("preempted_best_effort", |_, r| Int(r.admit.preempted_best_effort)),
            json("preempted_cbr", |_, r| Int(r.admit.preempted_cbr)),
            show("", "shed", 6, |_, r| Int(r.admit.preempted_best_effort + r.admit.preempted_cbr)),
            show("upgrades", "upgr", 6, |_, r| Int(r.admit.upgrades)),
            show("cbr_slots_due", "slots-due", 10, |_, r| Int(r.cbr_slots_due)),
            show("missed_cbr_slots", "missed", 8, |_, r| Int(r.missed_cbr_slots)),
            json("flits_delivered", |_, r| Int(r.net.flits_delivered)),
            json("flits_lost", |_, r| Int(r.net.flits_lost)),
            json("out_of_order", |_, r| Int(r.net.out_of_order)),
            json("audit_violations", |_, r| Int(r.violations)),
            json("audit_checks", |_, r| Int(r.audit_checks)),
            show("peak_link_load_milli", "peak\u{2030}", 7, |_, r| Int(r.peak_link_load_milli)),
            show("delay_p50", "p50", 7, |_, r| Fixed(r.delay_p50, 1)),
            json("delay_p95", |_, r| Fixed(r.delay_p95, 1)),
            show("delay_p99", "p99", 7, |_, r| Fixed(r.delay_p99, 1)),
            json("jitter_p99", |_, r| Fixed(r.jitter_p99, 1)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(controls: bool) -> ChurnSpec {
        ChurnSpec {
            topology: CampaignTopology::Mesh3x3,
            arrivals_per_kcycle: 800.0,
            controls,
            trials: 1,
            warmup: 400,
            measure: 2_400,
        }
    }

    #[test]
    fn a_cell_sums_its_trials_counters_and_keeps_their_worst_tails() {
        // `k` times a distinct, non-zero value in every counter; the
        // library stats' own folds are pinned beside them in mmr-net. The
        // peak and the tails alternate which trial is worse.
        let trial = |k: u64, worst: f64| ChurnResult {
            arrivals: k,
            departures: 2 * k,
            admit: AdmitStats { accepted: 3 * k, ..AdmitStats::default() },
            net: NetStats { flits_delivered: 4 * k, ..NetStats::default() },
            cbr_slots_due: 5 * k,
            missed_cbr_slots: 6 * k,
            violations: 7 * k,
            audit_checks: 8 * k,
            peak_link_load_milli: worst as u64,
            delay_p50: worst + 1.0,
            delay_p95: 50.0 - worst,
            delay_p99: worst + 2.0,
            jitter_p99: 50.0 - worst,
        };
        let mut cell = trial(1, 10.0);
        Churn::absorb(&mut cell, trial(100, 20.0));
        let expected = ChurnResult { delay_p95: 40.0, jitter_p99: 40.0, ..trial(101, 20.0) };
        assert_eq!(cell, expected);
    }

    #[test]
    fn trials_are_pure_functions_of_their_seed() {
        assert_eq!(run_trial(&spec(true), 7), run_trial(&spec(true), 7));
    }

    /// Every arrival's verdict is counted once by the controller.
    fn assert_verdicts_conserved(r: &ChurnResult) {
        let a = &r.admit;
        let verdicts = a.accepted
            + a.degraded
            + a.rejected_saturated
            + a.rejected_resources
            + a.rejected_other;
        assert_eq!(r.arrivals, verdicts, "one verdict per arrival: {r:?}");
    }

    #[test]
    fn controls_hold_admitted_qos_and_their_absence_is_visible() {
        // The acceptance claim: the same churn tape, guarded vs naive.
        let on = run_trial(&spec(true), 3);
        assert_verdicts_conserved(&on);
        assert!(on.arrivals > 50, "the tape actually churns: {on:?}");
        assert!(on.cbr_slots_due > 1_000, "admitted CBR paced slots: {on:?}");
        assert_eq!(on.missed_cbr_slots, 0, "controls hold admitted QoS: {on:?}");
        assert_eq!(on.violations, 0, "auditor clean: {on:?}");
        assert_eq!(on.net.out_of_order, 0);
        assert!(on.audit_checks > 0, "the auditor ran");
        assert!(on.arrivals > on.admit.accepted, "the guard actually gated: {on:?}");

        let off = run_trial(&spec(false), 3);
        assert_verdicts_conserved(&off);
        assert!(
            off.missed_cbr_slots > 0,
            "the naive baseline overpacks and misses slots: {off:?}"
        );
        assert!(
            off.peak_link_load_milli > on.peak_link_load_milli,
            "naive packs harder: {} vs {}",
            off.peak_link_load_milli,
            on.peak_link_load_milli
        );
    }
}
