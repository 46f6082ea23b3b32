//! `router_cbr80`: the paper's own experiment. One 8×8 router, 256 VCs per
//! port, biased priority, 8 candidates, a CBR population drawn from the
//! nine-rate ladder up to 0.8 offered load. The loop mirrors
//! `mmr_traffic::Experiment::run`, event skip on.
//!
//! This workload takes nothing from the run's seed. Its one input is the
//! population (with, from the same stream, its sources' phases), and that
//! is `Experiment`'s default draw, [`POPULATION_SEED`]. A static population
//! is drawn once and then decides the cost of every cycle: drawn from the
//! run's seed, ten seeds gave mean delays of 4.8–9.3 cycles and, following
//! them, 288k–223k cycles/s — an interquartile range of 18 % of the median,
//! against 3 % for ten runs of one seed, and wider than any bound worth
//! setting. Two seeds were two workloads. `CbrWorkload::build` offers no
//! way to balance a draw, so the benchmark holds the one behind the
//! repository's figures (biased priority draws nothing at run time, so the
//! router's own seed decides nothing either).

use mmr_core::arbiter::ArbiterKind;
use mmr_core::ids::PortId;
use mmr_core::router::{Router, RouterConfig, StepReport};
use mmr_sim::{Cycles, DelayJitterRecorder, SeededRng};
use mmr_traffic::cbr::CbrWorkload;
use mmr_traffic::rates::paper_rate_ladder;

use super::{Sim, SimStats, Sizes, NO_TAIL};
use crate::trace::{Probe, Span};

/// Offered load as a fraction of switch bandwidth.
const LOAD: f64 = 0.8;
/// The seed `mmr_traffic::Experiment` defaults to.
const POPULATION_SEED: u64 = 1999;

/// The router, its CBR population and the measurement state.
pub struct State {
    router: Router,
    workload: CbrWorkload,
    report: StepReport,
    recorder: DelayJitterRecorder,
    /// Next cycle to simulate.
    t: u64,
    injected: u64,
    switched: u64,
    stats: SimStats,
}

impl Sim for State {
    fn build<P: Probe>(_seed: u64, _sizes: Sizes, _probe: &mut P) -> Self {
        let mut router = RouterConfig::paper_default()
            .arbiter(ArbiterKind::BiasedPriority)
            .candidates(8)
            .seed(POPULATION_SEED ^ 0xA5A5_5A5A)
            .build();
        let mut rng = SeededRng::new(POPULATION_SEED);
        let workload = CbrWorkload::build(&mut router, &paper_rate_ladder(), LOAD, &mut rng);
        State {
            router,
            workload,
            report: StepReport::default(),
            recorder: DelayJitterRecorder::new(),
            t: 0,
            injected: 0,
            switched: 0,
            stats: SimStats::default(),
        }
    }

    fn advance<P: Probe>(&mut self, cycles: u64, measuring: bool, probe: &mut P) {
        let State {
            router,
            workload,
            report,
            recorder,
            ..
        } = self;
        let total = self.t + cycles;
        let mut t = self.t;
        let mut switched = 0u64;
        while t < total {
            let now = Cycles(t);
            probe.cycle_begin(t);
            self.injected +=
                u64::from(probe.time(Span::TrafficCbrPump, || workload.pump(router, now)));
            probe.time(Span::CoreRouterStep, || router.step_into(now, report));
            probe.time(Span::TrafficCbrPump, || {
                workload.note_transmitted(&report.transmitted);
            });
            switched += report.transmitted.len() as u64;
            if measuring {
                probe.time(Span::SimRecorder, || {
                    for tx in &report.transmitted {
                        recorder.record(tx.conn.raw(), tx.delay);
                    }
                });
            }
            probe.cycle_end();
            t += 1;
            // Event skip: a quiescent router with no source due is a
            // provable no-op until the next due injection.
            if report.transmitted.is_empty() && router.is_quiescent() {
                let until = match workload.next_due_cycle() {
                    Some(due) if due > t => due.min(total),
                    Some(_) => t,
                    None => total,
                };
                router.note_idle_cycles(until - t);
                t = until;
            }
        }
        self.t = total;
        self.switched += switched;
        if measuring {
            self.stats.cycles += cycles;
            self.stats.flits += switched;
        }
    }

    fn finish(self) -> (SimStats, Vec<String>) {
        let router = &self.router;
        let r = router.stats();
        let delay = self.recorder.delay_tail().unwrap_or(NO_TAIL);
        let connections = self.workload.connections().len() as u64;
        let stats = SimStats {
            flit_hops: self.stats.flits,
            injected: self.injected,
            delivered: self.switched,
            sessions_requested: connections,
            accepted: connections,
            router_cycles: r.cycles,
            cut_throughs: r.cut_throughs,
            ghost_matches: r.ghost_matches,
            bank_conflicts: r.bank_conflicts,
            materialized_banks: router.materialized_vc_banks() as u64,
            footprint_bytes: router.heap_bytes() as u64,
            delay_mean: self.recorder.mean_delay_cycles(),
            delay_p50: delay.p50,
            delay_p99: delay.p99,
            jitter_p99: self.recorder.jitter_tail().unwrap_or(NO_TAIL).p99,
            ..self.stats
        };
        // Nothing leaves a lone router but through its crossbar: every
        // injected flit was switched or still sits in a VC.
        let queued: u64 = (0..router.config().ports())
            .map(|p| router.vcm(PortId(p as u8)).total_occupancy() as u64)
            .sum();
        let mut failures = Vec::new();
        if self.injected != self.switched + queued {
            failures.push(format!(
                "router_cbr80: conservation broken: injected {} != switched {} + queued {queued}",
                self.injected, self.switched
            ));
        }
        (stats, failures)
    }
}
