//! `churn_overload` and `churn_audited`: the `churnsweep` recipe on the
//! 12-node irregular fabric — a session tape (800 arrivals per
//! 1 000 cycles at the day/night peak, ladder rungs 7–8, a quarter
//! best-effort, heavy-tailed holding times) played through the
//! [`AdmissionController`] with the overload controls on.
//!
//! The session tape and the fabric it plays on are one fixed draw
//! ([`TAPE_SEED`]); the run's seed draws every stream's phase and every
//! router's arbitration stream. Who is offered what, and in which order
//! the books fill, decides how many flits the fabric delivers: with tape
//! and wiring drawn from the run's seed, ten seeds spread `churn_audited`'s
//! delivered flits per cycle — a simulated, exact number — by 12 % of
//! their median (interquartile range), before any host noise. Its window
//! holds only 4.5 day/night periods, too few for tape luck to average out.
//!
//! The two workloads share every byte of the tape:
//! `churn_audited` plays the head with the invariant auditor armed,
//! `churn_overload` plays all of it (some 37 day/night periods) with the
//! auditor off. The difference between their `net.step` costs is the
//! auditor, and nothing else.

use std::collections::BTreeMap;

use mmr_core::conn::QosClass;
use mmr_core::router::RouterConfig;
use mmr_core::AuditConfig;
use mmr_net::{
    AdmissionController, AdmitPolicy, AdmitVerdict, NetworkSim, NodeId, SessionId, Topology,
};
use mmr_sim::{Cycles, DelayJitterRecorder, FlitTiming, SeededRng};
use mmr_traffic::{ChurnConfig, ChurnEventKind, ChurnSchedule, DiurnalCurve, SessionClass};

use super::{drain, read_net, Pacer, Sim, SimStats, Sizes, Workload};
use crate::trace::{Probe, Span};

/// Nodes of the irregular fabric.
const NODES: usize = 12;
/// Seed of the session tape and of the fabric's wiring.
const TAPE_SEED: u64 = 1999;
/// Peak session arrivals per cycle.
const PEAK_ARRIVALS: f64 = 0.8;
/// Cycles per day/night period.
pub const PERIOD: u64 = 5_600;
/// Median session holding time in cycles.
const MEDIAN_HOLDING: f64 = 1_500.0;

/// Generates the session tape both churn workloads play. Its horizon is
/// always `churn_overload`'s, so `churn_audited` sees a strict prefix.
pub fn tape(quick: bool) -> ChurnSchedule {
    let mut cfg = ChurnConfig::new(
        PEAK_ARRIVALS,
        NODES,
        Workload::ChurnOverload.sizes(quick).horizon(),
    );
    cfg.median_holding = MEDIAN_HOLDING;
    cfg.holding_sigma = 0.8;
    cfg.rungs = (7, 8);
    cfg.best_effort_fraction = 0.25;
    cfg.diurnal = DiurnalCurve::day_night(0.25, PERIOD as f64);
    ChurnSchedule::generate(&cfg, TAPE_SEED)
}

/// The fabric, the controller, the tape and the live sessions' pacers.
pub struct State<const AUDITED: bool> {
    net: NetworkSim,
    ctl: AdmissionController,
    timing: FlitTiming,
    tape: ChurnSchedule,
    next_event: usize,
    pacers: Vec<Pacer<SessionId>>,
    /// Tape session id → admitted session.
    live: BTreeMap<u32, SessionId>,
    phase_rng: SeededRng,
    upgrades_seen: u64,
    recorder: DelayJitterRecorder,
    t: u64,
    stats: SimStats,
}

impl<const AUDITED: bool> Sim for State<AUDITED> {
    fn build<P: Probe>(seed: u64, sizes: Sizes, _probe: &mut P) -> Self {
        // 24 VCs per port so the bandwidth books and the NI injection
        // ceiling bind before the VC pools do (as in `churnsweep`).
        let router = RouterConfig::paper_default()
            .vcs_per_port(24)
            .candidates(4)
            .seed(seed ^ 0xD07);
        let timing = router.clone().build().config().timing();
        let topology = Topology::irregular(NODES, 8, 4, &mut SeededRng::new(TAPE_SEED ^ 0x1220))
            .expect("the irregular fabric fits 8 ports");
        let mut net = NetworkSim::new(topology, router);
        if AUDITED {
            net.enable_audit(AuditConfig::default());
        }
        State {
            net,
            ctl: AdmissionController::new(AdmitPolicy::default()),
            timing,
            tape: tape(sizes.quick),
            next_event: 0,
            pacers: Vec::new(),
            live: BTreeMap::new(),
            phase_rng: SeededRng::new(seed ^ 0x9A5E),
            upgrades_seen: 0,
            recorder: DelayJitterRecorder::new(),
            t: 0,
            stats: SimStats::default(),
        }
    }

    fn advance<P: Probe>(&mut self, cycles: u64, measuring: bool, probe: &mut P) {
        let State {
            net,
            ctl,
            timing,
            tape,
            next_event,
            pacers,
            live,
            phase_rng,
            upgrades_seen,
            recorder,
            stats,
            ..
        } = self;
        for t in self.t..self.t + cycles {
            let now = Cycles(t);
            probe.cycle_begin(t);

            // Play the tape up to now.
            while let Some(ev) = tape.events.get(*next_event).filter(|ev| ev.at <= now) {
                *next_event += 1;
                let Some(plan) = tape.sessions.get(ev.session as usize) else {
                    continue;
                };
                match ev.kind {
                    ChurnEventKind::Arrival => {
                        stats.sessions_requested += 1;
                        let class = match plan.class {
                            SessionClass::Cbr { .. } => QosClass::Cbr {
                                rate: plan.class.rate(),
                            },
                            SessionClass::BestEffort => QosClass::BestEffort,
                        };
                        let (src, dst) = (NodeId(plan.src as u16), NodeId(plan.dst as u16));
                        let verdict = probe
                            .time(Span::AdmissionRequest, || ctl.request(net, src, dst, class));
                        match verdict {
                            AdmitVerdict::Accepted { .. } => stats.accepted += 1,
                            AdmitVerdict::Degraded { .. } => stats.degraded += 1,
                            AdmitVerdict::Rejected { .. } => stats.rejected += 1,
                        }
                        let Some(session) = verdict.session() else {
                            continue;
                        };
                        live.insert(plan.id, session);
                        if let Some(QosClass::Cbr { rate }) = ctl.sessions().class(session) {
                            let interarrival = timing.interarrival_cycles(rate);
                            pacers.push(Pacer {
                                id: session,
                                next: now.as_f64() + phase_rng.uniform(0.0, interarrival),
                                interarrival,
                            });
                        }
                    }
                    ChurnEventKind::Departure => {
                        let Some(session) = live.remove(&plan.id) else {
                            continue;
                        };
                        pacers.retain(|p| p.id != session);
                        if probe.time(Span::AdmissionClose, || ctl.close(net, session)) {
                            stats.departures += 1;
                        }
                    }
                }
            }

            // Live CBR sessions pace their isochronous slots.
            probe.time(Span::NetInject, || {
                for pacer in pacers.iter_mut() {
                    let Some(conn) = ctl.sessions().conn(pacer.id) else {
                        pacer.next = pacer.next.max(now.as_f64());
                        continue;
                    };
                    for _ in 0..pacer.due(now.as_f64()) {
                        if measuring {
                            stats.slots_due += 1;
                        }
                        if net.inject(conn, now).is_ok() {
                            stats.injected += 1;
                        } else if measuring {
                            stats.slots_missed += 1;
                        }
                    }
                }
            });

            let report = probe.time(Span::NetStep, || net.step(now));
            if measuring {
                stats.flits += report.delivered.len() as u64;
                stats.flit_hops += report.flits_switched as u64;
                probe.time(Span::SimRecorder, || {
                    for d in &report.delivered {
                        recorder.record(d.conn.0, d.latency);
                    }
                });
            }

            let (_, preempted) =
                probe.time(Span::AdmissionService, || ctl.service(net, &report, now));
            for victim in &preempted {
                pacers.retain(|p| p.id != victim.session);
                live.retain(|_, s| *s != victim.session);
            }
            let upgrades = ctl.stats().upgrades;
            if upgrades != *upgrades_seen {
                *upgrades_seen = upgrades;
                for pacer in pacers.iter_mut() {
                    if let Some(QosClass::Cbr { rate }) = ctl.sessions().class(pacer.id) {
                        pacer.interarrival = timing.interarrival_cycles(rate);
                    }
                }
            }
            // The campaign tracks the peak link load every cycle; so does
            // any operator dashboard.
            std::hint::black_box(probe.time(Span::NetLinkLoad, || net.link_load()));
            probe.cycle_end();
        }
        self.t += cycles;
        if measuring {
            self.stats.cycles += cycles;
        }
    }

    fn finish(mut self) -> (SimStats, Vec<String>) {
        read_net(&self.net, &self.recorder, &mut self.stats);
        let admit = self.ctl.stats();
        self.stats.preempted = admit.preempted_best_effort + admit.preempted_cbr;
        self.stats.upgrades = admit.upgrades;
        self.stats.shed_rounds = admit.shed_rounds;
        let recovery = self.ctl.sessions().stats();
        self.stats.incidents = recovery.faults;
        self.stats.recovered = recovery.recovered;
        self.stats.permanently_failed = recovery.permanently_failed;
        let mut failures = Vec::new();
        drain(&mut self.net, self.t, &self.stats, &mut failures);
        (self.stats, failures)
    }
}
