//! `fault_storm`: an 8×8 torus with link-level retry on, 128 CBR sessions
//! under a [`RecoveryManager`] (the `faultsweep` policy, 12 retries), and a dense
//! seeded fault campaign: about twelve plan events per 1 000 cycles (each
//! fault is a fail plus its repair 300 cycles later), five link faults to
//! every whole-router fault. Every fail and repair recomputes up*/down*
//! routing over the survivor graph.

use mmr_core::conn::QosClass;
use mmr_core::router::RouterConfig;
use mmr_core::LlrConfig;
use mmr_net::{
    FaultInjector, FaultPlan, NetworkSim, NodeId, RecoveryEvent, RecoveryManager, RecoveryPolicy,
    SessionId, Topology,
};
use mmr_sim::{Cycles, DelayJitterRecorder, FlitTiming, SeededRng};
use mmr_traffic::rates::paper_rate_ladder;

use super::{drain, read_net, Pacer, Sim, SimStats, Sizes};
use crate::trace::{Probe, Span};

/// Side of the torus.
const SIDE: usize = 8;
/// CBR sessions opened at set-up.
const SESSIONS: usize = 128;
/// Link faults per 1 000 cycles.
const LINK_FAULTS_PER_KCYCLE: u64 = 5;
/// Cycles a failed link or router stays down.
const OUTAGE: u64 = 300;

/// The torus, its sessions and the fault plan.
pub struct State {
    net: NetworkSim,
    mgr: RecoveryManager,
    injector: FaultInjector,
    timing: FlitTiming,
    pacers: Vec<Pacer<SessionId>>,
    recorder: DelayJitterRecorder,
    t: u64,
    stats: SimStats,
}

impl Sim for State {
    fn build<P: Probe>(seed: u64, sizes: Sizes, _probe: &mut P) -> Self {
        let router = RouterConfig::paper_default()
            .vcs_per_port(16)
            .candidates(4)
            .seed(seed ^ 0xD06);
        let timing = router.clone().build().config().timing();
        let topology = Topology::torus2d(SIDE, SIDE, 8).expect("an 8x8 torus fits 8 ports");
        let mut net = NetworkSim::new(topology, router);
        net.enable_llr(LlrConfig::default());
        // `faultsweep`'s policy with twice its retries: under a storm this
        // dense six attempts ran out on about one seed in ten (the
        // destination failed again, or the probe cap deferred the attempt),
        // and a session lost for good is a failed operation.
        let policy = RecoveryPolicy::default()
            .max_retries(12)
            .backoff(Cycles(8), Cycles(256))
            .setup_timeout(Cycles(200));
        let mut mgr = RecoveryManager::new(policy);
        let mut stats = SimStats::default();

        // Mid-to-upper ladder rungs, so degradation has room to step down,
        // dealt round-robin: every seed offers the same load (a free draw of
        // 128 rates moves it by ±10 %, and the host cost of a cycle with
        // it); the seed places it.
        let mut rng = SeededRng::new(seed);
        let ladder = paper_rate_ladder();
        let nodes = SIDE * SIDE;
        let mut pacers = Vec::new();
        let mut attempts = 0;
        while pacers.len() < SESSIONS && attempts < SESSIONS * 8 {
            attempts += 1;
            let src = NodeId(rng.index(nodes) as u16);
            let dst = NodeId(rng.index(nodes) as u16);
            if src == dst {
                continue;
            }
            let rate = ladder[3 + pacers.len() % (ladder.len() - 3)];
            stats.sessions_requested += 1;
            match mgr.open(&mut net, src, dst, QosClass::Cbr { rate }) {
                Ok(session) => {
                    stats.accepted += 1;
                    let interarrival = timing.interarrival_cycles(rate);
                    pacers.push(Pacer {
                        id: session,
                        next: rng.uniform(0.0, interarrival),
                        interarrival,
                    });
                }
                Err(_) => stats.rejected += 1,
            }
        }

        // Faults strike uniformly over the whole run, warm-up included. A
        // link fault and a router fault that overlap on one port make a
        // plan the injector refuses (about one seed in twenty at this
        // density); the campaign is then redrawn from the next stream.
        let horizon = sizes.horizon();
        let link_faults = (horizon * LINK_FAULTS_PER_KCYCLE / 1_000) as usize;
        let injector = (0..64u64)
            .find_map(|redraw| {
                let campaign_seed = seed ^ (redraw << 48);
                let plan = FaultPlan::seeded_campaign(
                    net.topology(),
                    campaign_seed,
                    link_faults,
                    0..horizon,
                    Cycles(OUTAGE),
                )
                .merged(FaultPlan::seeded_node_campaign(
                    net.topology(),
                    campaign_seed,
                    link_faults / 5,
                    0..horizon,
                    Cycles(OUTAGE),
                ));
                FaultInjector::new(plan).ok()
            })
            .expect("one of 64 campaign draws is consistent");

        State {
            net,
            mgr,
            injector,
            timing,
            pacers,
            recorder: DelayJitterRecorder::new(),
            t: 0,
            stats,
        }
    }

    fn advance<P: Probe>(&mut self, cycles: u64, measuring: bool, probe: &mut P) {
        let State {
            net,
            mgr,
            injector,
            timing,
            pacers,
            recorder,
            stats,
            ..
        } = self;
        for t in self.t..self.t + cycles {
            let now = Cycles(t);
            probe.cycle_begin(t);
            let tick = probe.time_keep(
                Span::FaultPoll,
                || injector.poll(net, now),
                |tick| !tick.is_quiet(),
            );
            if !tick.broken.is_empty() {
                probe.time(Span::RecoveryOnFaults, || mgr.on_faults(&tick.broken, now));
            }
            probe.time(Span::NetInject, || {
                for pacer in pacers.iter_mut() {
                    let Some(conn) = mgr.conn(pacer.id) else {
                        // Recovering or failed: pause the stream at `now`
                        // so it resumes cleanly once the session is back.
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
            let events = probe.time(Span::RecoveryService, || mgr.service(net, &report, now));
            for event in events {
                // Degradation changes the session's rate; repace its stream.
                if let RecoveryEvent::Degraded { session, to, .. } = event {
                    if let Some(pacer) = pacers.iter_mut().find(|p| p.id == session) {
                        pacer.interarrival = timing.interarrival_cycles(to);
                    }
                }
            }
            probe.cycle_end();
        }
        self.t += cycles;
        if measuring {
            self.stats.cycles += cycles;
        }
    }

    fn finish(mut self) -> (SimStats, Vec<String>) {
        read_net(&self.net, &self.recorder, &mut self.stats);
        let recovery = self.mgr.stats();
        self.stats.incidents = recovery.faults;
        self.stats.recovered = recovery.recovered;
        self.stats.permanently_failed = recovery.permanently_failed;
        self.stats.degraded = recovery.degraded;
        self.stats.retries = recovery.retries;
        self.stats.timeouts = recovery.timeouts;
        self.stats.probe_throttled = recovery.probe_throttled;
        self.stats.ttr_mean = recovery.time_to_recover.mean();
        let mut failures = Vec::new();
        drain(&mut self.net, self.t, &self.stats, &mut failures);
        (self.stats, failures)
    }
}
