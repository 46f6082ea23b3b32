//! Extension experiments (E1–E3 in DESIGN.md): the directions the paper
//! defers to future work — VBR traffic, hybrid traffic, and network-level
//! connection establishment.
//!
//! Independent simulation points (factors, loads) fan out through
//! [`SweepOptions::run_indexed`], seed-replicated cells through the campaign
//! harness's [`fan_out`]; per-point seeds are fixed up front and all
//! floating-point aggregation happens serially over the collected results in
//! point order, so every table is identical at any `--jobs` setting.

use mmr_core::conn::{ConnectionRequest, QosClass};
use mmr_core::flit::FlitKind;
use mmr_core::ids::PortId;
use mmr_core::router::RouterConfig;
use mmr_net::setup::cbr_mbps;
use mmr_net::{NetworkSim, NodeId, SetupStrategy, Topology};
use mmr_sim::sweep::SweepOptions;
use mmr_sim::{Cycles, SeededRng, SweepTable};
use mmr_traffic::cbr::CbrWorkload;
use mmr_traffic::rates::paper_rate_ladder;
use mmr_traffic::vbr::{MpegGopModel, VbrSource};

use crate::campaign::fan_out;
use crate::Quality;

/// The two probe strategies E3 and E4 compare, with their series labels.
const STRATEGIES: [(SetupStrategy, &str); 2] =
    [(SetupStrategy::Epb, "EPB"), (SetupStrategy::Greedy, "greedy")];

/// E1 — VBR MPEG-2 streams under the §4.3 three-phase schedule, sweeping
/// the concurrency factor: higher factors admit more streams but degrade
/// the peak service each receives.
pub fn vbr_concurrency(quality: &Quality, opts: &SweepOptions) -> SweepTable {
    let factors = [1.0f64, 2.0, 4.0, 8.0];
    let model = MpegGopModel::sd_5mbps();
    let results = opts.run_indexed(factors.len(), |i| {
        let factor = factors[i];
        let mut router = RouterConfig::paper_default()
            .vcs_per_port(128)
            .candidates(8)
            .concurrency_factor(factor)
            .seed(41)
            .build();
        let timing = router.config().timing();
        let class = QosClass::Vbr {
            permanent: model.mean_rate(),
            peak: model.peak_rate(),
            priority: 1,
        };
        // Admit as many streams as the factor allows onto one output link.
        let mut sources = Vec::new();
        let mut rng = SeededRng::new(41);
        while let Ok(conn) = router.establish(ConnectionRequest {
            input: PortId((sources.len() % 7) as u8),
            output: PortId(7),
            class,
        }) {
            sources.push(VbrSource::new(
                conn,
                model.clone(),
                timing,
                rng.fork(sources.len() as u64),
            ));
        }
        let admitted = sources.len();
        let mut injected = 0u64;
        let mut forwarded = 0u64;
        let total = quality.warmup + quality.measure;
        for t in 0..total {
            let now = Cycles(t);
            for s in &mut sources {
                injected += u64::from(s.pump(&mut router, now));
            }
            forwarded += router.step(now).transmitted.len() as u64;
        }
        (admitted, injected, forwarded)
    });
    let mut table =
        SweepTable::new("E1 — VBR MPEG-2: admitted streams and delivery vs concurrency factor");
    for (&factor, &(admitted, injected, forwarded)) in factors.iter().zip(&results) {
        table.push("streams admitted", factor, admitted as f64);
        table.push("flits injected (k)", factor, injected as f64 / 1e3);
        table.push("flits forwarded (k)", factor, forwarded as f64 / 1e3);
        table.push(
            "delivery ratio",
            factor,
            if injected == 0 { 1.0 } else { forwarded as f64 / injected as f64 },
        );
    }
    table
}

/// E2 — hybrid traffic (§3.4 priority rules): CBR streams at 60% load plus
/// increasing best-effort pressure; stream jitter must stay flat while
/// best-effort throughput rides the leftover bandwidth.
pub fn hybrid(quality: &Quality, opts: &SweepOptions) -> SweepTable {
    let be_rates = [0.0f64, 0.05, 0.1, 0.2, 0.4];
    let results = opts.run_indexed(be_rates.len(), |i| {
        let be_rate = be_rates[i];
        let mut router = RouterConfig::paper_default()
            .vcs_per_port(128)
            .candidates(8)
            .best_effort_reserve(0.1)
            .seed(42)
            .build();
        let mut rng = SeededRng::new(42);
        let mut streams = CbrWorkload::build(&mut router, &paper_rate_ladder(), 0.6, &mut rng);
        let mut recorder = mmr_sim::DelayJitterRecorder::new();
        let warmup = mmr_sim::Warmup::until(Cycles(quality.warmup));
        let mut be_rng = SeededRng::new(4242);
        let mut be_delivered = 0u64;
        let total = quality.warmup + quality.measure;
        for t in 0..total {
            let now = Cycles(t);
            streams.pump(&mut router, now);
            if be_rate > 0.0 && be_rng.chance(be_rate) {
                let src = PortId(be_rng.index(8) as u8);
                let dst = PortId(be_rng.index(8) as u8);
                let _ = router.inject_packet(src, dst, FlitKind::BestEffort, now);
            }
            let report = router.step(now);
            streams.note_transmitted(&report.transmitted);
            if warmup.measuring(now) {
                for tx in &report.transmitted {
                    match tx.flit.kind {
                        FlitKind::Data => recorder.record(tx.conn.raw(), tx.delay),
                        FlitKind::BestEffort => be_delivered += 1,
                        _ => {}
                    }
                }
            }
        }
        (recorder.mean_jitter_cycles(), recorder.mean_delay_cycles(), be_delivered)
    });
    let mut table = SweepTable::new("E2 — hybrid traffic vs best-effort offered rate");
    for (&be_rate, &(jitter, delay, be_delivered)) in be_rates.iter().zip(&results) {
        table.push("stream jitter (cyc)", be_rate, jitter);
        table.push("stream delay (cyc)", be_rate, delay);
        table.push("BE delivered (k)", be_rate, be_delivered as f64 / 1e3);
    }
    table
}

/// E3 — connection-setup success probability: EPB vs greedy probes over
/// mesh / torus / irregular topologies with scarce virtual channels.
pub fn epb_vs_greedy(trials: u64, opts: &SweepOptions) -> SweepTable {
    // One cell per (topology, strategy), one trial per seed; aggregation
    // over seeds happens after the sweep, in trial order.
    let cells: Vec<(usize, SetupStrategy, &str)> = (0..3)
        .flat_map(|t_idx| STRATEGIES.map(|(strategy, label)| (t_idx, strategy, label)))
        .collect();
    let seeds = |_: &_| trials as usize;
    let results = fan_out(&cells, seeds, opts, |&(t_idx, strategy, _), seed, _| {
        let seed = seed as u64;
        let topology = match t_idx {
            0 => Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget"),
            1 => Topology::torus2d(3, 3, 8).expect("topology wires within the port budget"),
            _ => Topology::irregular(10, 5, 4, &mut SeededRng::new(seed))
                .expect("topology wires within the port budget"),
        };
        let nodes = topology.nodes();
        let mut net = NetworkSim::new(
            topology,
            RouterConfig::paper_default().vcs_per_port(4).candidates(2).seed(seed),
        );
        let mut rng = SeededRng::new(seed ^ 0xE3);
        let (mut attempts, mut ok, mut probe_hops) = (0u64, 0u64, 0u64);
        for _ in 0..30 {
            let a = NodeId(rng.index(nodes) as u16);
            let b = NodeId(rng.index(nodes) as u16);
            if a == b {
                continue;
            }
            attempts += 1;
            if let Ok(receipt) = net.establish_with_receipt(a, b, cbr_mbps(124.0), strategy) {
                ok += 1;
                probe_hops += u64::from(receipt.probe_hops);
            }
        }
        (attempts, ok, probe_hops)
    });
    let mut table = SweepTable::new("E3 — setup success rate and probe cost, EPB vs greedy");
    for (&(t_idx, _, label), runs) in cells.iter().zip(&results) {
        let (attempts, ok, probe_hops) =
            runs.iter().fold((0, 0, 0), |sum, t| (sum.0 + t.0, sum.1 + t.1, sum.2 + t.2));
        let x = t_idx as f64;
        table.push(&format!("{label} success"), x, ok as f64 / attempts as f64);
        table.push(&format!("{label} hops/setup"), x, probe_hops as f64 / ok.max(1) as f64);
    }
    table
}

/// E4 — cycle-accurate connection-setup latency: asynchronous EPB probes
/// (one hop per flit cycle, acknowledgment returning along the reverse
/// mappings) launched into a mesh carrying increasing background
/// connection load.
pub fn setup_latency(trials: u64, opts: &SweepOptions) -> SweepTable {
    let cells: Vec<(usize, SetupStrategy, &str)> = [0usize, 20, 40, 80]
        .into_iter()
        .flat_map(|bg| STRATEGIES.map(|(strategy, label)| (bg, strategy, label)))
        .collect();
    let seeds = |_: &_| trials as usize;
    let results = fan_out(&cells, seeds, opts, |&(bg_connections, strategy, _), seed, _| {
        let seed = seed as u64;
        // Scarce VCs so background connections crowd the minimal paths and
        // force the probe to search.
        let mut net = NetworkSim::new(
            Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(6).candidates(2).seed(seed),
        );
        let mut rng = SeededRng::new(seed ^ 0xE4);
        let mut placed = 0;
        let mut attempts = 0;
        while placed < bg_connections && attempts < bg_connections * 20 + 20 {
            attempts += 1;
            let a = NodeId(rng.index(9) as u16);
            let b = NodeId(rng.index(9) as u16);
            if a != b && net.establish(a, b, cbr_mbps(124.0), SetupStrategy::Epb).is_ok() {
                placed += 1;
            }
        }
        net.request_connection(NodeId(0), NodeId(8), cbr_mbps(62.0), strategy, Cycles(0));
        for t in 0..500u64 {
            let report = net.step(Cycles(t));
            if let Some(e) = report.setups.first() {
                return match e.result {
                    Ok(_) => (Some(e.latency.as_f64()), 0u64),
                    Err(_) => (None, 1u64),
                };
            }
        }
        (None, 0)
    });
    let mut table = SweepTable::new("E4 — setup round-trip latency (cycles) vs background load");
    for (&(bg_connections, _, label), runs) in cells.iter().zip(&results) {
        let latencies: Vec<f64> = runs.iter().filter_map(|(latency, _)| *latency).collect();
        let failed: u64 = runs.iter().map(|(_, fail)| fail).sum();
        let x = bg_connections as f64;
        if !latencies.is_empty() {
            let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
            table.push(&format!("{label} latency"), x, mean);
        }
        table.push(&format!("{label} failures"), x, failed as f64);
    }
    table
}

/// E5 — call-level admission: blocking probability vs offered erlangs on
/// the single router (the §4.2 registers as an Erlang loss system).
pub fn call_blocking(quality: &Quality, opts: &SweepOptions) -> SweepTable {
    use mmr_traffic::calls::{run_calls, CallWorkload};
    let arrival_rates = [0.002f64, 0.005, 0.01, 0.02, 0.05, 0.1];
    let total_cycles = (quality.warmup + quality.measure) * 4;
    let results = opts.run_indexed(arrival_rates.len(), |i| {
        let workload = CallWorkload {
            arrival_rate: arrival_rates[i],
            mean_holding: 20_000.0,
            ladder: mmr_traffic::rates::paper_rate_ladder().to_vec(),
            seed: 55,
        };
        let mut router = RouterConfig::paper_default().vcs_per_port(128).seed(55).build();
        let stats = run_calls(&mut router, &workload, total_cycles);
        (workload.offered_erlangs(), stats.blocking_probability(), stats.carried_erlangs)
    });
    let mut table = SweepTable::new("E5 — call blocking probability vs offered erlangs");
    for &(erlangs, blocking, carried) in &results {
        table.push("blocking probability", erlangs, blocking);
        table.push("carried erlangs", erlangs, carried);
    }
    table
}

/// E6 — fault recovery: fail links one by one in a loaded mesh; every
/// broken stream is re-established by a fresh EPB probe (the recovery
/// pattern of the fault-tolerant routing family the MMR's EPB descends
/// from). Reports how many streams break, how many recover, and the
/// probe cost of recovery.
pub fn fault_recovery(trials: u64, opts: &SweepOptions) -> SweepTable {
    let failure_levels = [1usize, 2, 3, 4];
    let seeds = |_: &_| trials as usize;
    let results = fan_out(&failure_levels, seeds, opts, |&failures, seed, _| {
        let seed = seed as u64;
        let mut net = NetworkSim::new(
            Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(16).candidates(4).seed(seed),
        );
        let mut rng = SeededRng::new(seed ^ 0xE6);
        // Populate with streams (id -> endpoints, updated on recovery).
        let mut streams = std::collections::BTreeMap::new();
        for _ in 0..20 {
            let a = NodeId(rng.index(9) as u16);
            let b = NodeId(rng.index(9) as u16);
            if a != b {
                if let Ok(c) = net.establish(a, b, cbr_mbps(62.0), SetupStrategy::Epb) {
                    streams.insert(c, (a, b));
                }
            }
        }
        let (mut broken_total, mut recovered_total, mut recovery_hops) = (0u64, 0u64, 0u64);
        // Fail random inter-router wires.
        for _ in 0..failures {
            let wires: Vec<_> = net
                .topology()
                .wires()
                .iter()
                .filter(|w| net.link_ok(w.a.0, w.a.1))
                .copied()
                .collect();
            if wires.is_empty() {
                break;
            }
            let w = wires[rng.index(wires.len())];
            let broken = net.fail_link(w.a.0, w.a.1).expect("chosen from live wires");
            broken_total += broken.len() as u64;
            // Recover each broken stream by a fresh EPB setup.
            for id in broken {
                let (src, dst) = streams.remove(&id).expect("broken streams were registered");
                if let Ok(receipt) =
                    net.establish_with_receipt(src, dst, cbr_mbps(62.0), SetupStrategy::Epb)
                {
                    recovered_total += 1;
                    recovery_hops += u64::from(receipt.probe_hops);
                    streams.insert(receipt.conn, (src, dst));
                }
            }
        }
        (broken_total, recovered_total, recovery_hops)
    });
    let mut table = SweepTable::new("E6 — streams broken/recovered vs failed links (3x3 mesh)");
    for (&failures, runs) in failure_levels.iter().zip(&results) {
        let (broken_total, recovered_total, recovery_hops) =
            runs.iter().fold((0, 0, 0), |sum, t| (sum.0 + t.0, sum.1 + t.1, sum.2 + t.2));
        let x = failures as f64;
        table.push("broken / trial", x, broken_total as f64 / trials as f64);
        table.push(
            "recovery rate",
            x,
            if broken_total == 0 { 1.0 } else { recovered_total as f64 / broken_total as f64 },
        );
        table.push(
            "probe hops / recovery",
            x,
            recovery_hops as f64 / recovered_total.max(1) as f64,
        );
    }
    table
}

/// E7 — network-level end-to-end latency and jitter vs offered load on a
/// 3×3 mesh (the multi-router analogue of Figures 3–4).
pub fn network_load(quality: &Quality, opts: &SweepOptions) -> SweepTable {
    use mmr_net::NetExperiment;
    let results = opts.run_indexed(quality.loads.len(), |i| {
        NetExperiment::new(
            Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(32).candidates(4),
            quality.loads[i],
        )
        .windows(quality.warmup / 2, quality.measure / 2)
        .seed(77)
        .run()
    });
    let mut table =
        SweepTable::new("E7 — end-to-end latency (cycles) and jitter vs network load (3x3 mesh)");
    for r in &results {
        table.push("latency (cyc)", r.offered_load, r.mean_latency_cycles);
        table.push("jitter (cyc)", r.offered_load, r.mean_jitter_cycles);
        table.push("streams", r.offered_load, r.streams as f64);
    }
    table
}
