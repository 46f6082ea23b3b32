//! `dragonfly_sparse`: the `scalebench` recipe on the 1056-router
//! dragonfly `(a=32, p=1, h=1)` with group-minimal routing. 64 CBR
//! sessions at 8 Mbps inject every 16 cycles; every 2 000 cycles the
//! sources fall silent for 600 cycles so the fabric drains, a third of the
//! population is torn down and refilled. The drain keeps teardown from
//! discarding flits in flight, so `lost` closes at zero.

use mmr_core::router::RouterConfig;
use mmr_net::setup::cbr_mbps;
use mmr_net::{
    Dragonfly, MinimalSpec, NetConnectionId, NetworkSim, NodeId, RoutingSpec, SetupStrategy,
    Topology,
};
use mmr_sim::{Cycles, DelayJitterRecorder, SeededRng};

use super::{drain, read_net, Sim, SimStats, Sizes};
use crate::trace::{Probe, Span};

/// Routers per group (`a`); the balanced dragonfly has `a·h + 1` groups.
const GROUP: u16 = 32;
/// Sessions held open.
const SESSIONS: usize = 64;
/// Cycles between two teardown/refill rounds.
pub const PERIOD: u64 = 2_000;
/// Silent cycles before each round. `scalebench` waits 400; this waits one
/// whole scheduling round (2 × 256 VCs = 512 cycles, the period in which a
/// CBR connection is served its quota) plus the path latency, so that a
/// full source VC is certain to empty wherever the round boundary falls.
const DRAIN: u64 = 600;
/// Cycles between injections on a live session.
const INJECT_EVERY: u64 = 16;

/// The fabric and its live sessions.
pub struct State {
    net: NetworkSim,
    rng: SeededRng,
    live: Vec<NetConnectionId>,
    recorder: DelayJitterRecorder,
    t: u64,
    stats: SimStats,
}

impl State {
    /// Draws endpoint pairs until the population is back at [`SESSIONS`]
    /// (the draw is bounded; a denied pair is not an error).
    fn refill<P: Probe>(&mut self, probe: &mut P) {
        let nodes = self.net.topology().nodes();
        let mut attempts = 0;
        while self.live.len() < SESSIONS && attempts < SESSIONS * 4 {
            attempts += 1;
            let src = NodeId(self.rng.index(nodes) as u16);
            let dst = NodeId(self.rng.index(nodes) as u16);
            if src == dst {
                continue;
            }
            self.stats.sessions_requested += 1;
            let net = &mut self.net;
            match probe.time(Span::NetEstablish, || {
                net.establish(src, dst, cbr_mbps(8.0), SetupStrategy::Epb)
            }) {
                Ok(conn) => {
                    self.live.push(conn);
                    self.stats.accepted += 1;
                }
                Err(_) => self.stats.rejected += 1,
            }
        }
    }
}

impl Sim for State {
    fn build<P: Probe>(seed: u64, _sizes: Sizes, probe: &mut P) -> Self {
        let topology =
            Topology::dragonfly(GROUP, 1, 1).expect("the dragonfly fits its port budget");
        let routing = RoutingSpec {
            minimal: MinimalSpec::Dragonfly(Dragonfly::balanced(GROUP, 1, 1)),
            valiant_salt: None,
        };
        let router = RouterConfig::paper_default()
            .candidates(4)
            .seed(seed ^ 0x5CA1E);
        let mut state = State {
            net: NetworkSim::with_routing(topology, router, routing),
            rng: SeededRng::new(seed),
            live: Vec::new(),
            recorder: DelayJitterRecorder::new(),
            t: 0,
            stats: SimStats::default(),
        };
        state.refill(probe);
        state
    }

    fn advance<P: Probe>(&mut self, cycles: u64, measuring: bool, probe: &mut P) {
        for t in self.t..self.t + cycles {
            let now = Cycles(t);
            probe.cycle_begin(t);
            let phase = t % PERIOD;
            if phase == 0 && t > 0 {
                // The fabric has been silent for DRAIN cycles: close a
                // third of the population and refill it.
                let closing = self.live.len() / 3;
                for conn in self.live.drain(..closing) {
                    let net = &mut self.net;
                    probe
                        .time(Span::NetTeardown, || net.teardown(conn))
                        .expect("tracked as live");
                    self.stats.departures += 1;
                }
                self.refill(probe);
            }
            if phase < PERIOD - DRAIN && t.is_multiple_of(INJECT_EVERY) {
                // The source offers a flit every 16 cycles against an
                // 8 Mbps reservation (one per ~155): a full source VC is
                // the policer at work, not a missed deadline.
                let State {
                    net, live, stats, ..
                } = self;
                probe.time(Span::NetInject, || {
                    for &conn in live.iter() {
                        if net.can_inject(conn) && net.inject(conn, now).is_ok() {
                            stats.injected += 1;
                        }
                    }
                });
            }
            let net = &mut self.net;
            let report = probe.time(Span::NetStep, || net.step(now));
            if measuring {
                self.stats.flits += report.delivered.len() as u64;
                self.stats.flit_hops += report.flits_switched as u64;
                let recorder = &mut self.recorder;
                probe.time(Span::SimRecorder, || {
                    for d in &report.delivered {
                        recorder.record(d.conn.0, d.latency);
                    }
                });
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
        let mut failures = Vec::new();
        drain(&mut self.net, self.t, &self.stats, &mut failures);
        (self.stats, failures)
    }
}
