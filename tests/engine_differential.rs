//! Differential engine gate: the event-driven wake-set engine must be
//! observationally identical to the dense per-cycle reference (DESIGN.md
//! §9). Every regression-corpus scenario and every quick figure sweep is
//! run under both engines and the outputs compared — the corpus down to
//! the exact divergence list, the figures byte-for-byte on the rendered
//! tables — and the policed-source shape of perfbench's `dragonfly_sparse`
//! is replayed in miniature down to every router's counters. CI repeats
//! this suite with `MMR_AUDIT=1` so the enforcing invariant auditor watches
//! both engines take identical steps.

use std::path::PathBuf;

use mmr_bench::{fig3_jitter, fig4_delay, fig5, Fig5Metric, Quality};
use mmr_conform::{parse_seed, run_scenario, Hooks, Scenario};
use mmr_core::router::{RouterConfig, RouterStats};
use mmr_net::setup::cbr_mbps;
use mmr_net::{
    Dragonfly, MinimalSpec, NetConnectionId, NetworkSim, NodeId, RoutingSpec, SetupStrategy,
    Topology,
};
use mmr_sim::sweep::SweepOptions;
use mmr_sim::{Cycles, SeededRng};

/// Loads `(name, seed, hooks)` for every corpus file, mirroring the
/// parser in `conformance_corpus.rs` for the keys the differential gate
/// cares about (seed and fault hooks; expectations are the other test's
/// business — here both engines just have to agree, clean or not).
fn corpus_seeds() -> Vec<(String, u64, Hooks)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("corpus");
    let mut cases: Vec<(String, u64, Hooks)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("corpus dir entry readable").path();
            if path.extension().is_none_or(|e| e != "seed") {
                return None;
            }
            let name =
                path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let mut seed = None;
            let mut hooks = Hooks::default();
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let Some((key, value)) = line.split_once('=') else { continue };
                match (key.trim(), value.trim()) {
                    ("seed", v) => seed = Some(parse_seed(v)),
                    ("bug", "phantom-credit") => hooks.phantom_credit = true,
                    _ => {}
                }
            }
            let seed = seed.unwrap_or_else(|| panic!("{name}: missing seed"));
            Some((name, seed, hooks))
        })
        .collect();
    cases.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(!cases.is_empty(), "corpus at {} is empty", dir.display());
    cases
}

/// Every corpus scenario — including the bug-hooked ones, which diverge
/// from the oracle on purpose — must produce the same `CaseRun` on both
/// engines, down to the exact divergence list.
#[test]
fn corpus_scenarios_agree_across_engines() {
    for (name, seed, hooks) in corpus_seeds() {
        let scenario = Scenario::generate(seed);
        let event = run_scenario(&scenario, hooks);
        let dense = run_scenario(&scenario, Hooks { dense_stepping: true, ..hooks });
        assert_eq!(event.admitted, dense.admitted, "{name}: admitted connections differ");
        assert_eq!(event.rejected, dense.rejected, "{name}: rejected connections differ");
        assert_eq!(event.injected, dense.injected, "{name}: injected flit counts differ");
        assert_eq!(event.delivered, dense.delivered, "{name}: delivered flit counts differ");
        assert_eq!(event.cycles_run, dense.cycles_run, "{name}: quiescence cycles differ");
        assert_eq!(event.divergences, dense.divergences, "{name}: divergence lists differ");
    }
}

fn engines() -> (SweepOptions, SweepOptions) {
    let event = SweepOptions::all_cores();
    (event, SweepOptions { dense: true, ..event })
}

/// Figure 3 panel (a), quick preset: byte-identical tables.
#[test]
fn fig3_quick_is_byte_identical_across_engines() {
    let quality = Quality::quick();
    let (event, dense) = engines();
    let a = format!("{}", fig3_jitter(&[1, 2], &quality, &event));
    let b = format!("{}", fig3_jitter(&[1, 2], &quality, &dense));
    assert_eq!(a, b, "fig3 differs between the event-driven and dense engines");
}

/// Figure 4, quick preset: byte-identical tables.
#[test]
fn fig4_quick_is_byte_identical_across_engines() {
    let quality = Quality::quick();
    let (event, dense) = engines();
    let a = format!("{}", fig4_delay(&[1, 2], &quality, &event));
    let b = format!("{}", fig4_delay(&[1, 2], &quality, &dense));
    assert_eq!(a, b, "fig4 differs between the event-driven and dense engines");
}

/// Figure 5 (all four scheduling algorithms, including Autonet/DEC and
/// the perfect switch), quick preset: byte-identical tables.
#[test]
fn fig5_quick_is_byte_identical_across_engines() {
    let quality = Quality::quick();
    let (event, dense) = engines();
    let a = format!("{}", fig5(Fig5Metric::Jitter, &quality, &event));
    let b = format!("{}", fig5(Fig5Metric::Jitter, &quality, &dense));
    assert_eq!(a, b, "fig5 differs between the event-driven and dense engines");
}

/// perfbench's `dragonfly_sparse` recipe in miniature: a 20-router dragonfly
/// under group-minimal routing, a dozen 8 Mbps sessions offered a flit every
/// 16 cycles (one per ~155 is reserved, so every source router holds a flit
/// behind a spent quota for most of each 512-cycle round — awake, settled,
/// never quiescent), and three silent-drain / teardown / refill rounds. Both
/// engines must report the same cycle by cycle, and once the event-driven
/// engine's lazily credited idle cycles are settled, every router must read
/// the same counters.
#[test]
fn policed_sources_on_a_dragonfly_agree_across_engines() {
    const SESSIONS: usize = 12;
    const PERIOD: u64 = 2_000;
    const DRAIN: u64 = 600;
    let run = |dense: bool| -> (Vec<String>, String, Vec<RouterStats>) {
        let topology = Topology::dragonfly(4, 1, 1).expect("fits the port budget");
        let routing = RoutingSpec {
            minimal: MinimalSpec::Dragonfly(Dragonfly::balanced(4, 1, 1)),
            valiant_salt: None,
        };
        let router = RouterConfig::paper_default().candidates(4).seed(0x5CA1E);
        let mut net = NetworkSim::with_routing(topology, router, routing);
        net.set_dense_stepping(dense);
        let nodes = net.topology().nodes();
        let mut rng = SeededRng::new(20);
        let mut live: Vec<NetConnectionId> = Vec::new();
        let mut frames = Vec::new();
        let end = 3 * PERIOD + 700;
        for t in 0..end {
            if t % PERIOD == 0 {
                // The fabric has been silent for DRAIN cycles (or is new):
                // close a third of the population and refill it.
                for conn in live.drain(..live.len() / 3) {
                    net.teardown(conn).expect("tracked as live");
                }
                for _ in 0..SESSIONS * 4 {
                    let (src, dst) = (rng.index(nodes) as u16, rng.index(nodes) as u16);
                    if live.len() < SESSIONS && src != dst {
                        live.extend(net.establish(
                            NodeId(src),
                            NodeId(dst),
                            cbr_mbps(8.0),
                            SetupStrategy::Epb,
                        ));
                    }
                }
            }
            if t % PERIOD < PERIOD - DRAIN && t % 16 == 0 {
                for &conn in &live {
                    if net.can_inject(conn) {
                        net.inject(conn, Cycles(t)).expect("checked");
                    }
                }
            }
            frames.push(format!("{:?}", net.step(Cycles(t))));
        }
        assert_eq!(live.len(), SESSIONS, "the population refilled");
        assert!(net.stats().flits_delivered > 100, "the sessions carried traffic");
        // One dense step makes the event-driven engine credit every
        // sleeping router the cycles it skipped.
        net.set_dense_stepping(true);
        frames.push(format!("{:?}", net.step(Cycles(end))));
        let routers = (0..nodes).map(|n| net.router(NodeId(n as u16)).stats()).collect();
        (frames, format!("{:?}", net.stats()), routers)
    };
    let (event_frames, event_stats, event_routers) = run(false);
    let (dense_frames, dense_stats, dense_routers) = run(true);
    for (t, (e, d)) in event_frames.iter().zip(&dense_frames).enumerate() {
        assert_eq!(e, d, "engines diverge at cycle {t}");
    }
    assert_eq!(event_stats, dense_stats, "identical aggregate statistics");
    for (n, (e, d)) in event_routers.iter().zip(&dense_routers).enumerate() {
        assert_eq!(e, d, "router {n} counters differ");
        assert_eq!(e.cycles, 3 * PERIOD + 701, "router {n} is credited every cycle");
    }
}
