//! One run of one workload: repeat episodes of one seed until the time
//! budget is spent, check them, and reduce to the contract's metrics.
//!
//! An untraced run reports the end-to-end metrics from the fastest of its
//! episodes' host times (three ≈ 4-second episodes in the default ten
//! seconds): set-up as a whole, the window slice by slice. A traced run
//! alternates traced and untraced episodes — the ratio of their window
//! times is `bench.trace_overhead` — and reports the per-layer table from
//! the traced ones.

use std::io::BufWriter;
use std::path::{Path, PathBuf};

use mmr_sim::FlitTiming;

use crate::json::Json;
use crate::kernels;
use crate::metrics::{end_to_end, per_layer};
use crate::trace::{calibrate_timer_ns, HostClock, NoProbe, Span, Tracer};
use crate::workloads::{churn, run_episode, Episode, SimStats, Workload, DEFAULT_SEED, SLICES};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// The tape seed.
    pub seed: u64,
    /// Host seconds of measured windows to accumulate.
    pub seconds: f64,
    /// Record spans and report the per-layer table.
    pub trace: bool,
    /// 1/50-size episodes (tests).
    pub quick: bool,
    /// Where the raw spans of a traced run go.
    pub trace_out: Option<PathBuf>,
}

/// A metric value with its unit, in emission order.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// The reduced outcome of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Episodes run (traced and untraced).
    pub episodes: usize,
    /// Failed checks; empty means correct.
    pub failures: Vec<String>,
    /// Operations attempted over the first episode.
    pub attempted: u64,
    /// Operations failed over the first episode.
    pub failed: u64,
    /// Simulated statistics of the first episode (all episodes agree).
    pub sim: SimStats,
    /// The end-to-end metrics.
    pub end_to_end: Metrics,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Metrics,
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The smallest of a host time over a run's episodes. Episodes of one
/// seed do identical work, so their times differ only by host noise, and
/// this host's noise is one-sided: phases, a second to minutes long, in
/// which everything runs a sixth to a third slower. The fastest episode is
/// what the program costs outside them; a median still moves with how many
/// of a run's three episodes one of them caught.
fn fastest_of(episodes: &[Episode], time: impl Fn(&Episode) -> f64) -> f64 {
    episodes.iter().map(time).fold(f64::INFINITY, f64::min)
}

/// Host seconds one measured window costs: the sum over the window's
/// slices of each slice's fastest time among the run's episodes.
fn window_time(episodes: &[Episode]) -> f64 {
    (0..SLICES as usize)
        .map(|k| fastest_of(episodes, |e| e.slice_s[k]))
        .sum()
}

/// Runs `spec` to completion.
pub fn run(spec: &RunSpec) -> Outcome {
    let workload = spec.workload;
    let mut tracer = Tracer::new(HostClock::default(), calibrate_timer_ns());
    let mut plain: Vec<Episode> = Vec::new();
    let mut traced: Vec<Episode> = Vec::new();
    let mut measured = 0.0;
    // The high-water mark of one episode: later episodes of the process
    // would add allocator fragmentation to it.
    let mut rss_mb = 0.0;
    while measured < spec.seconds || plain.is_empty() || (spec.trace && traced.is_empty()) {
        let episode = if spec.trace && traced.len() <= plain.len() {
            traced.push(workload.episode(spec.seed, spec.quick, &mut tracer));
            traced.last()
        } else {
            plain.push(workload.episode(spec.seed, spec.quick, &mut NoProbe));
            plain.last()
        };
        if plain.len() + traced.len() == 1 {
            rss_mb = peak_rss_mb();
        }
        measured += episode.map_or(0.0, |e| e.window_s);
    }

    let all = || plain.iter().chain(&traced);
    let first = plain.first().expect("at least one untraced episode ran");
    let sim = first.sim;
    let mut failures: Vec<String> = all().flat_map(|e| e.failures.iter().cloned()).collect();
    failures.sort();
    failures.dedup();
    if all().any(|e| e.sim.digest() != sim.digest()) {
        failures.push(format!(
            "{}: episodes of one seed disagree on sim_digest",
            workload.name()
        ));
    }
    if spec.seed == DEFAULT_SEED && !spec.quick && sim.digest() != workload.pinned_digest() {
        failures.push(format!(
            "{}: sim_digest {:#018x} differs from the pinned {:#018x}",
            workload.name(),
            sim.digest(),
            workload.pinned_digest()
        ));
    }

    let window_s = window_time(&plain);
    let values = [
        fastest_of(&plain, |e| e.setup_s),
        sim.cycles as f64 / window_s,
        sim.flits as f64 / window_s,
        rss_mb,
    ];
    let end_to_end: Metrics = end_to_end()
        .into_iter()
        .zip(values)
        .map(|(d, v)| (d.name, v, d.unit))
        .collect();

    let per_layer = if spec.trace {
        let overhead = window_time(&traced) / window_s - 1.0;
        let audit_overhead = if workload == Workload::ChurnAudited {
            audit_step_overhead_ns(spec, &tracer)
        } else {
            0.0
        };
        if let Some(path) = &spec.trace_out {
            if let Err(e) = write_raw(&tracer, path) {
                failures.push(format!("cannot write {}: {e}", path.display()));
            }
        }
        per_layer_values(workload, &tracer, &sim, overhead, audit_overhead)
    } else {
        Vec::new()
    };

    Outcome {
        episodes: plain.len() + traced.len(),
        failures,
        attempted: sim.attempted().max(1),
        failed: sim.failed(workload),
        sim,
        end_to_end,
        per_layer,
    }
}

fn write_raw(tracer: &Tracer, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    tracer.write_raw(&mut out)?;
    std::io::Write::flush(&mut out)
}

/// `net.step` cost with the auditor armed minus the same call on the same
/// tape without it: one traced, unaudited twin of the audited episode.
fn audit_step_overhead_ns(spec: &RunSpec, audited: &Tracer) -> f64 {
    let sizes = Workload::ChurnAudited.sizes(spec.quick);
    let mut twin = Tracer::new(HostClock::default(), audited.timer_ns());
    run_episode::<churn::State<false>, _>(spec.seed, sizes, &mut twin);
    per_call_ns(audited, Span::NetStep) - per_call_ns(&twin, Span::NetStep)
}

fn per_call_ns(tracer: &Tracer, span: Span) -> f64 {
    let (calls, ns) = tracer.totals(span);
    ns / calls.max(1) as f64
}

/// Distance in µs from a mean delay in cycles to the paper's 0.4–0.6 µs
/// band for biased priority, 8 candidates, 70–80 % load; 0 inside it.
fn paper_delay_err_us(delay_mean_cycles: f64) -> f64 {
    let us = FlitTiming::paper_default()
        .cycles_f64_to_time(delay_mean_cycles)
        .us();
    (0.4 - us).max(us - 0.6).max(0.0)
}

fn per_layer_values(
    workload: Workload,
    tracer: &Tracer,
    sim: &SimStats,
    trace_overhead: f64,
    audit_overhead_ns: f64,
) -> Metrics {
    let mut values: Vec<f64> = Vec::new();
    for row in tracer.table() {
        if row.name == "bench.harness" {
            values.push(row.share);
            continue;
        }
        values.extend([row.calls, row.ns_per_call, row.share]);
        if let Some((p50, p99)) = row.tail_ns {
            values.extend([p50, p99]);
        }
    }
    let hops_per_cycle = ratio(sim.flit_hops, sim.cycles);
    let step_ns_per_call = per_call_ns(tracer, Span::NetStep);
    values.extend([
        audit_overhead_ns,
        sim.audit_checks as f64,
        sim.audit_violations as f64,
        // Host time per simulated event: one net.step covers one cycle.
        if hops_per_cycle > 0.0 {
            step_ns_per_call / hops_per_cycle
        } else {
            0.0
        },
        sim.router_cycles as f64,
        sim.cut_throughs as f64,
        sim.ghost_matches as f64,
        sim.bank_conflicts as f64,
        sim.materialized_banks as f64,
        sim.footprint_bytes as f64,
        sim.retransmitted as f64,
        sim.ghost_releases as f64,
        sim.partitioned_sessions as f64,
        sim.retries as f64,
        sim.timeouts as f64,
        sim.probe_throttled as f64,
        sim.shed_rounds as f64,
        sim.preempted as f64,
        sim.upgrades as f64,
        tracer.timer_ns(),
        trace_overhead,
    ]);
    values.extend(kernels::run_all());
    values.extend([
        sim.delay_mean,
        sim.delay_p50,
        sim.delay_p99,
        sim.jitter_p99,
        ratio(sim.slots_missed, sim.slots_due),
        ratio(sim.rejected, sim.sessions_requested),
        sim.ttr_mean,
        sim.lost as f64,
        // Best-effort packets still in the fabric when the window closes:
        // an open-loop source that outruns a link shows here first.
        (sim.packets_sent - sim.packets_delivered) as f64,
        ratio(sim.failed(workload), sim.attempted()),
        if workload == Workload::RouterCbr80 {
            paper_delay_err_us(sim.delay_mean)
        } else {
            0.0
        },
    ]);
    let defs = per_layer();
    assert_eq!(
        defs.len(),
        values.len(),
        "per-layer table and values are out of step"
    );
    defs.into_iter()
        .zip(values)
        .map(|(d, v)| (d.name, v, d.unit))
        .collect()
}

/// The contract's result line.
pub fn result_line(spec: &RunSpec, outcome: &Outcome) -> Json {
    let metrics = if spec.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    Json::obj([
        ("correct", Json::Bool(outcome.failures.is_empty())),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", metrics_json(metrics)),
    ])
}

fn metrics_json(metrics: &Metrics) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })
            .collect(),
    )
}

/// Everything else a report wants from a run, printed on the line before
/// the result line.
pub fn detail_line(spec: &RunSpec, outcome: &Outcome) -> Json {
    Json::obj([
        ("workload", Json::str(spec.workload.name())),
        ("seed", Json::Int(spec.seed)),
        ("trace", Json::Bool(spec.trace)),
        ("auditor", Json::Bool(spec.workload.auditor())),
        ("episodes", Json::Int(outcome.episodes as u64)),
        (
            "sim_digest",
            Json::str(format!("{:#018x}", outcome.sim.digest())),
        ),
        (
            "failures",
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        ),
        ("end_to_end", metrics_json(&outcome.end_to_end)),
        ("per_layer", metrics_json(&outcome.per_layer)),
    ])
}
