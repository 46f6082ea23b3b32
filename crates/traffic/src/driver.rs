//! The single-router experiment driver used by the paper's evaluation.
//!
//! §5: "Simulation experiments were conducted using a C++ discrete event
//! simulator that models a single router … The simulations were run until
//! steady state was reached and statistics gathered over approximately
//! 100,000 router cycles." [`Experiment`] reproduces that procedure: build a
//! CBR population at a target offered load, warm the router up, then measure
//! per-flit delay and per-connection jitter over the measurement window.

use mmr_core::router::RouterConfig;
use mmr_sim::{Bandwidth, Cycles, DelayJitterRecorder, SeededRng, Warmup};

use crate::cbr::CbrWorkload;
use crate::rates::paper_rate_ladder;

/// Configuration of one experiment run (one point of one figure series).
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Router configuration (arbiter, candidates, dimensions).
    pub router: RouterConfig,
    /// Target offered load as a fraction of total switch bandwidth.
    pub target_load: f64,
    /// Warm-up cycles before statistics are gathered.
    pub warmup_cycles: u64,
    /// Measured cycles (the paper uses ≈100,000).
    pub measure_cycles: u64,
    /// Workload seed (connection mix, phases, PIM randomness).
    pub seed: u64,
    /// Connection-rate ladder; defaults to the paper's nine rates.
    pub ladder: Vec<Bandwidth>,
    /// Force dense per-cycle stepping. By default the driver skips ahead to
    /// the workload's next due injection whenever the router is quiescent —
    /// a skipped cycle provably injects nothing, transmits nothing, and
    /// records nothing, so results are byte-identical either way (the dense
    /// engine exists as the oracle for differential tests; DESIGN.md §9).
    pub dense_stepping: bool,
}

impl Experiment {
    /// An experiment with the paper's measurement procedure on the given
    /// router configuration and load.
    pub fn new(router: RouterConfig, target_load: f64) -> Self {
        Experiment {
            router,
            target_load,
            warmup_cycles: 20_000,
            measure_cycles: 100_000,
            seed: 1999,
            ladder: paper_rate_ladder().to_vec(),
            dense_stepping: false,
        }
    }

    /// Selects the stepping engine (`true` = dense reference engine).
    pub fn dense_stepping(mut self, dense: bool) -> Self {
        self.dense_stepping = dense;
        self
    }

    /// Overrides the warm-up and measurement windows (shorter runs for
    /// tests and smoke benchmarks).
    pub fn windows(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup_cycles = warmup;
        self.measure_cycles = measure;
        self
    }

    /// Overrides the workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the rate ladder.
    pub fn ladder(mut self, ladder: Vec<Bandwidth>) -> Self {
        self.ladder = ladder;
        self
    }

    /// Runs the experiment and gathers the paper's metrics.
    pub fn run(&self) -> ExperimentResult {
        let mut router = self.router.clone().seed(self.seed ^ 0xA5A5_5A5A).build();
        let mut rng = SeededRng::new(self.seed);
        let mut workload =
            CbrWorkload::build(&mut router, &self.ladder, self.target_load, &mut rng);
        let offered_load = workload.offered_load(&router);
        let connections = workload.connections().len();

        // `rates` holds the distinct rate rungs in ascending order, `rung`
        // each source's.
        let bps = |rate: &Bandwidth| rate.bits_per_sec() as u64;
        let mut rates: Vec<u64> = workload.connections().iter().map(bps).collect();
        rates.sort_unstable();
        rates.dedup();
        let rung_of = |c| rates.binary_search(&bps(c)).expect("rate present");
        let rung: Vec<usize> = workload.connections().iter().map(rung_of).collect();
        let mut rate_recorders = vec![DelayJitterRecorder::default(); rates.len()];

        let warmup = Warmup::until(Cycles(self.warmup_cycles));
        let total = self.warmup_cycles + self.measure_cycles;
        let mut recorder = DelayJitterRecorder::new();
        let mut measured_flits = 0u64;
        let mut report = mmr_core::router::StepReport::default();

        let mut t = 0u64;
        while t < total {
            let now = Cycles(t);
            workload.pump(&mut router, now);
            router.step_into(now, &mut report);
            workload.note_transmitted(&report.transmitted);
            if warmup.measuring(now) {
                for tx in &report.transmitted {
                    recorder.record(tx.conn.raw(), tx.delay);
                    if let Some(source) = workload.source_of(tx) {
                        rate_recorders[rung[source]].record(tx.conn.raw(), tx.delay);
                    }
                }
                measured_flits += report.transmitted.len() as u64;
            }
            t += 1;
            // Event skip: with the router drained quiescent and no source
            // due before `due`, every cycle in between is a provable no-op
            // — no injection, no transmission, nothing recorded. Jump
            // straight to the next due injection (pending retries report
            // `due = 0` and parked sources imply buffered flits, so both
            // hold the loop dense).
            if !self.dense_stepping
                && report.transmitted.is_empty()
                && router.is_quiescent()
            {
                match workload.next_due_cycle() {
                    Some(due) if due > t => {
                        let until = due.min(total);
                        router.note_idle_cycles(until - t);
                        t = until;
                    }
                    Some(_) => {}
                    None => {
                        router.note_idle_cycles(total - t);
                        break;
                    }
                }
            }
        }

        let dims = router.config();
        let timing = dims.timing();
        ExperimentResult {
            offered_load,
            connections,
            mean_delay_cycles: recorder.mean_delay_cycles(),
            mean_delay_us: timing.cycles_f64_to_time(recorder.mean_delay_cycles()).us(),
            mean_jitter_cycles: recorder.mean_jitter_cycles(),
            utilization: measured_flits as f64
                / (self.measure_cycles as f64 * dims.ports() as f64),
            flits_measured: measured_flits,
            bank_conflicts: router.stats().bank_conflicts,
            per_rate: rates
                .into_iter()
                .zip(rate_recorders)
                .filter(|(_, rec)| rec.flits() > 0)
                .map(|(rate_bps, rec)| RateClassResult {
                    rate: Bandwidth::from_bps(rate_bps as f64),
                    mean_delay_cycles: rec.mean_delay_cycles(),
                    mean_jitter_cycles: rec.mean_jitter_cycles(),
                    flits: rec.flits(),
                })
                .collect(),
        }
    }
}

/// Per-rate-class metrics of one experiment run (the §5.2 observation that
/// "actual jitter values for high-speed connections will be even less and
/// those for low-speed connections will be relatively higher").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateClassResult {
    /// The connection rate of this class.
    pub rate: Bandwidth,
    /// Flit-weighted mean delay of this class, in cycles.
    pub mean_delay_cycles: f64,
    /// Connection-weighted mean jitter of this class, in cycles.
    pub mean_jitter_cycles: f64,
    /// Flits this class transmitted in the measurement window.
    pub flits: u64,
}

/// The metrics of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Offered load actually admitted (the x-axis of every figure).
    pub offered_load: f64,
    /// Number of admitted connections.
    pub connections: usize,
    /// Mean per-flit switch delay in flit cycles.
    pub mean_delay_cycles: f64,
    /// Mean per-flit switch delay in microseconds (Figure 4/5 y-axis).
    pub mean_delay_us: f64,
    /// Connection-weighted mean jitter in flit cycles (Figure 3/5 y-axis).
    pub mean_jitter_cycles: f64,
    /// Measured switch utilization (flits per port per cycle).
    pub utilization: f64,
    /// Flits measured after warm-up.
    pub flits_measured: u64,
    /// VCM bank-budget violations over the whole run (zero when the bank
    /// array is sized for the load; see the A5 ablation).
    pub bank_conflicts: u64,
    /// Breakdown by connection rate class, ascending by rate.
    pub per_rate: Vec<RateClassResult>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmr_core::arbiter::ArbiterKind;

    fn quick(router: RouterConfig, load: f64) -> ExperimentResult {
        Experiment::new(router, load).windows(2_000, 10_000).seed(7).run()
    }

    fn small() -> RouterConfig {
        RouterConfig::paper_default().vcs_per_port(64).candidates(4)
    }

    #[test]
    fn experiment_measures_flits_at_load() {
        let r = quick(small(), 0.5);
        assert!(r.offered_load > 0.45 && r.offered_load < 0.55, "load {}", r.offered_load);
        assert!(r.flits_measured > 1_000, "flits {}", r.flits_measured);
        assert!(r.connections > 20);
        // Utilization tracks offered load for CBR traffic below saturation.
        assert!((r.utilization - r.offered_load).abs() < 0.08,
            "utilization {} vs load {}", r.utilization, r.offered_load);
    }

    #[test]
    fn delay_grows_with_load() {
        let low = quick(small(), 0.2);
        let high = quick(small(), 0.9);
        assert!(
            high.mean_delay_cycles > low.mean_delay_cycles,
            "delay at 90% ({}) above 20% ({})",
            high.mean_delay_cycles,
            low.mean_delay_cycles
        );
    }

    #[test]
    fn biased_beats_fixed_at_high_load() {
        // The paper's headline qualitative result, on a small config.
        let biased = quick(small().arbiter(ArbiterKind::BiasedPriority).candidates(2), 0.8);
        let fixed = quick(small().arbiter(ArbiterKind::FixedPriority).candidates(2), 0.8);
        assert!(
            biased.mean_delay_cycles < fixed.mean_delay_cycles,
            "biased {} < fixed {}",
            biased.mean_delay_cycles,
            fixed.mean_delay_cycles
        );
        assert!(
            biased.mean_jitter_cycles < fixed.mean_jitter_cycles,
            "biased jitter {} < fixed jitter {}",
            biased.mean_jitter_cycles,
            fixed.mean_jitter_cycles
        );
    }

    #[test]
    fn perfect_switch_is_a_lower_bound() {
        let perfect = quick(small().arbiter(ArbiterKind::Perfect), 0.8);
        let biased = quick(small().arbiter(ArbiterKind::BiasedPriority).candidates(8), 0.8);
        assert!(perfect.mean_delay_cycles <= biased.mean_delay_cycles + 1e-9);
        assert!(perfect.mean_jitter_cycles <= biased.mean_jitter_cycles + 1e-9);
    }

    /// The recorder an experiment keeps, fed by a real router at 80 % load:
    /// its tail is monotone and never sits below its mean.
    #[test]
    fn tails_dominate_means() {
        let mut router = small().seed(7).build();
        let mut workload =
            CbrWorkload::build(&mut router, &paper_rate_ladder(), 0.8, &mut SeededRng::new(7));
        let mut recorder = DelayJitterRecorder::new();
        for t in 0..12_000u64 {
            workload.pump(&mut router, Cycles(t));
            let report = router.step(Cycles(t));
            workload.note_transmitted(&report.transmitted);
            for tx in &report.transmitted {
                recorder.record(tx.conn.raw(), tx.delay);
            }
        }
        let delay = recorder.delay_tail().expect("flits measured");
        assert!(delay.p50 <= delay.p95 && delay.p95 <= delay.p99, "tail must be monotone");
        let mean = recorder.mean_delay_cycles();
        assert!(delay.p99 + 1.0 >= mean, "p99 {} can't sit below the mean {mean}", delay.p99);
        assert!(recorder.jitter_tail().is_some());
    }

    #[test]
    fn experiment_is_reproducible() {
        let a = quick(small(), 0.6);
        let b = quick(small(), 0.6);
        assert_eq!(a.mean_delay_cycles.to_bits(), b.mean_delay_cycles.to_bits());
        assert_eq!(a.mean_jitter_cycles.to_bits(), b.mean_jitter_cycles.to_bits());
        assert_eq!(a.flits_measured, b.flits_measured);
    }

    #[test]
    fn different_seeds_change_the_mix() {
        let a = Experiment::new(small(), 0.5).windows(1_000, 5_000).seed(1).run();
        let b = Experiment::new(small(), 0.5).windows(1_000, 5_000).seed(2).run();
        assert_ne!(a.connections, b.connections);
    }
}
