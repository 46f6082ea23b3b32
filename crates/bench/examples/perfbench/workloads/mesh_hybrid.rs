//! `mesh_hybrid`: a 4×4 torus carrying static CBR streams (ladder rungs
//! 4–8, set up by EPB until every NI offers half its capacity) plus
//! Poisson best-effort VCT packets at 0.05 per node per cycle. No faults,
//! auditor off: after set-up only the data plane works.
//!
//! No NI *receives* more than [`NI_INBOUND_CAP`] of its link rate in
//! streams. Without that cap a population now and then fills one
//! destination NI to 0.94, which leaves the packets bound there 0.06 of a
//! link against 0.05 offered: a critically loaded queue whose backlog
//! grows to thousands of blocked packets on some tapes, each retried every
//! cycle, and `net.step` gets 2.5–10 times dearer as the window goes on
//! (3 seeds of 34). An open-loop source that outruns its link measures
//! the length of the window, not the simulator.

use mmr_core::conn::QosClass;
use mmr_core::flit::FlitKind;
use mmr_core::router::RouterConfig;
use mmr_net::{NetConnectionId, NetworkSim, NodeId, SetupStrategy, Topology};
use mmr_sim::{Bandwidth, Cycles, DelayJitterRecorder, SeededRng};
use mmr_traffic::rates::paper_rate_ladder;

use super::{drain, read_net, Pacer, Sim, SimStats, Sizes};
use crate::trace::{Probe, Span};

/// Side of the torus.
const SIDE: usize = 4;
/// Share of each NI's link rate its CBR streams reserve.
const NI_LOAD: f64 = 0.5;
/// Largest share of an NI's link rate its inbound CBR streams may reserve.
const NI_INBOUND_CAP: f64 = 0.75;
/// Best-effort packets per node per cycle.
const PACKET_RATE: f64 = 0.05;

/// One best-effort packet of the tape.
#[derive(Debug, Clone, Copy)]
struct PacketPlan {
    at: u64,
    src: NodeId,
    dst: NodeId,
}

/// The torus, its stream population and the packet tape.
pub struct State {
    net: NetworkSim,
    pacers: Vec<Pacer<NetConnectionId>>,
    packets: Vec<PacketPlan>,
    next_packet: usize,
    recorder: DelayJitterRecorder,
    t: u64,
    stats: SimStats,
}

impl Sim for State {
    fn build<P: Probe>(seed: u64, sizes: Sizes, probe: &mut P) -> Self {
        let router = RouterConfig::paper_default()
            .vcs_per_port(64)
            .candidates(4)
            .best_effort_reserve(0.05)
            .seed(seed ^ 0x4859_4252);
        let timing = router.clone().build().config().timing();
        let topology = Topology::torus2d(SIDE, SIDE, 8).expect("a 4x4 torus fits 8 ports");
        let mut net = NetworkSim::new(topology, router);
        let nodes = SIDE * SIDE;
        let mut rng = SeededRng::new(seed);
        let ladder = paper_rate_ladder();
        let mut stats = SimStats::default();

        // Streams: fill each NI in turn to half its link rate.
        let budget = timing.link_rate() * NI_LOAD;
        let inbound_cap = timing.link_rate() * NI_INBOUND_CAP;
        let mut inbound = vec![Bandwidth::ZERO; nodes];
        let mut pacers = Vec::new();
        for src in 0..nodes {
            let mut offered = Bandwidth::ZERO;
            let mut refused = 0;
            while offered < budget && refused < 32 {
                let rate = ladder[4 + rng.index(5)];
                let mut dst = rng.index(nodes);
                if dst == src {
                    dst = (dst + 1) % nodes;
                }
                if inbound[dst] + rate > inbound_cap {
                    refused += 1;
                    continue;
                }
                stats.sessions_requested += 1;
                let class = QosClass::Cbr { rate };
                let (src, dst) = (NodeId(src as u16), NodeId(dst as u16));
                match probe.time(Span::NetEstablish, || {
                    net.establish(src, dst, class, SetupStrategy::Epb)
                }) {
                    Ok(conn) => {
                        stats.accepted += 1;
                        offered += rate;
                        inbound[dst.index()] += rate;
                        let interarrival = timing.interarrival_cycles(rate);
                        pacers.push(Pacer {
                            id: conn,
                            next: rng.uniform(0.0, interarrival),
                            interarrival,
                        });
                    }
                    Err(_) => {
                        stats.rejected += 1;
                        refused += 1;
                    }
                }
            }
        }

        // Packets: one Poisson process over the whole fabric.
        let mut packet_rng = rng.fork(0xBE57);
        let mut packets = Vec::new();
        let mut at = 0.0f64;
        loop {
            at += packet_rng.exponential(1.0 / (PACKET_RATE * nodes as f64));
            if at >= sizes.horizon() as f64 {
                break;
            }
            let src = packet_rng.index(nodes);
            let mut dst = packet_rng.index(nodes);
            if dst == src {
                dst = (dst + 1) % nodes;
            }
            packets.push(PacketPlan {
                at: at as u64,
                src: NodeId(src as u16),
                dst: NodeId(dst as u16),
            });
        }

        State {
            net,
            pacers,
            packets,
            next_packet: 0,
            recorder: DelayJitterRecorder::new(),
            t: 0,
            stats,
        }
    }

    fn advance<P: Probe>(&mut self, cycles: u64, measuring: bool, probe: &mut P) {
        let State {
            net,
            pacers,
            packets,
            next_packet,
            recorder,
            stats,
            ..
        } = self;
        for t in self.t..self.t + cycles {
            let now = Cycles(t);
            probe.cycle_begin(t);
            probe.time(Span::NetInject, || {
                for pacer in pacers.iter_mut() {
                    for _ in 0..pacer.due(now.as_f64()) {
                        if measuring {
                            stats.slots_due += 1;
                        }
                        if net.inject(pacer.id, now).is_ok() {
                            stats.injected += 1;
                        } else if measuring {
                            stats.slots_missed += 1;
                        }
                    }
                }
            });
            while let Some(plan) = packets.get(*next_packet).filter(|p| p.at <= t) {
                *next_packet += 1;
                let sent = probe.time(Span::NetSendPacket, || {
                    net.send_packet(plan.src, plan.dst, FlitKind::BestEffort, now)
                });
                sent.expect("tape endpoints are nodes of the torus");
                stats.packets_sent += 1;
            }
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
