//! The metric tables: every name the benchmark emits, with its unit and
//! which direction is better. `BENCHMARK.json` is generated from these
//! (`perfbench manifest`), so the contract and the code cannot drift.

use crate::json::Json;
use crate::trace::Span;
use crate::workloads::Workload;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest spelling.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// The name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// The unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// For end-to-end metrics: the allowances a regression is judged by.
    pub bounds: Option<Bounds>,
}

/// By how much an end-to-end metric may worsen before a change counts as a
/// regression, under each of the two protocols that judge one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// `compare`, which judges two reports of **one seed**: the share of
    /// A's median B may lose.
    pub same_seed: f64,
    /// `compare` again: an absolute allowance in the metric's own unit. B
    /// may worsen by the share or by this, whichever is larger (a share
    /// of a 10 ms set-up or a 4 MiB process is a handful of scheduler
    /// ticks or pages).
    pub floor: f64,
    /// The `bound` of `BENCHMARK.json`, which judges medians of runs over
    /// **many seeds**, taken at different times: the share of the
    /// parent's median a change may lose.
    pub across_seeds: f64,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bounds: None,
    }
}

/// Seconds one run measures for (`run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 10;

/// The end-to-end metrics: what someone running the simulator sees. All
/// are host-side measurements; the simulated statistics repeat exactly for
/// a seed, so they are checked (digest, invariants) and reported under
/// `sim.*` instead of being bounded here.
///
/// The same-seed bounds are the issue's: 10 % on the two rates, 5 % (or
/// 1 MiB) on `peak_rss_mb`, 25 % (or 0.02 s) on `setup_s`.
///
/// The across-seeds bounds are wider because the contract that reads them
/// accepts the benchmark only if ten runs on ten *different* seeds, taken
/// twice, spread (interquartile range over median) by no more than the
/// bound, and asks for a third of it. On the reference host ten runs of
/// *one* seed already spread by 2–3 % in a quiet quarter of an hour and by
/// 5–10 % in a noisy one (it has slow phases, seconds to minutes long, in
/// which everything runs a sixth to a third slower), and a seed adds its
/// own few per cent on the workloads that draw structure from it. Only
/// 0.25, the widest bound the contract admits, leaves that margin. The
/// README's table has the measurements.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name: &str, unit, better, same_seed, floor, across_seeds| MetricDef {
        bounds: Some(Bounds {
            same_seed,
            floor,
            across_seeds,
        }),
        ..def(name, unit, better)
    };
    vec![
        bounded("setup_s", "s", Better::Lower, 0.25, 0.02, 0.25),
        bounded(
            "net_cycles_per_s",
            "cycles/s",
            Better::Higher,
            0.10,
            0.0,
            0.25,
        ),
        bounded("flits_per_s", "flits/s", Better::Higher, 0.10, 0.0, 0.25),
        bounded("peak_rss_mb", "MiB", Better::Lower, 0.05, 1.0, 0.10),
    ]
}

/// Counted and derived per-layer metrics, after the span columns.
const COUNTED: [(&str, &str, Better); 21] = [
    ("audit.step_overhead_ns", "ns", Better::Lower),
    ("audit.checks", "count", Better::Higher),
    ("audit.violations", "count", Better::Lower),
    ("net.step.ns_per_flit_hop", "ns", Better::Lower),
    ("core.router.cycles_credited", "count", Better::Lower),
    ("core.router.cut_throughs", "count", Better::Higher),
    ("core.router.ghost_matches", "count", Better::Lower),
    ("core.vcm.bank_conflicts", "count", Better::Lower),
    ("core.vcm.materialized_banks", "count", Better::Lower),
    ("net.footprint_bytes", "bytes", Better::Lower),
    ("net.flits_retransmitted", "count", Better::Lower),
    ("net.ghost_releases", "count", Better::Lower),
    ("net.partitioned_sessions", "count", Better::Lower),
    ("recovery.retries", "count", Better::Lower),
    ("recovery.timeouts", "count", Better::Lower),
    ("recovery.probe_throttled", "count", Better::Lower),
    ("admission.shed_rounds", "count", Better::Lower),
    ("admission.preempted", "count", Better::Lower),
    ("admission.upgrades", "count", Better::Higher),
    ("bench.timer_ns", "ns", Better::Lower),
    ("bench.trace_overhead", "ratio", Better::Lower),
];

/// Isolated kernels, timed once per traced run.
pub const KERNELS: [&str; 9] = [
    "kernel.bitvec.and_256_ns",
    "kernel.bitvec.eligible_query_ns",
    "kernel.core.switchsched_8x8c_ns",
    "kernel.core.vcm_push_pop_ns",
    "kernel.core.establish_teardown_ns",
    "kernel.net.updown_build_torus64_ns",
    "kernel.net.updown_build_dragonfly1056_ns",
    "kernel.net.topology_dragonfly1056_ns",
    "kernel.traffic.churn_generate_ns",
];

/// Simulated statistics: exact for a `(workload, seed)`, so a change
/// compares them for equality rather than against a bound.
const SIMULATED: [(&str, &str, Better); 11] = [
    ("sim.delay_mean_cycles", "cycles", Better::Lower),
    ("sim.delay_p50_cycles", "cycles", Better::Lower),
    ("sim.delay_p99_cycles", "cycles", Better::Lower),
    ("sim.jitter_p99_cycles", "cycles", Better::Lower),
    ("sim.missed_slot_ratio", "ratio", Better::Lower),
    ("sim.reject_ratio", "ratio", Better::Lower),
    ("sim.ttr_mean_cycles", "cycles", Better::Lower),
    ("sim.flits_lost", "count", Better::Lower),
    ("sim.packet_backlog", "count", Better::Lower),
    ("sim.failed_op_ratio", "ratio", Better::Lower),
    ("sim.paper_delay_err_us", "us", Better::Lower),
];

/// The per-layer metrics, in emission order: for every span `X` its
/// `X.calls`, `X.ns_per_call`, `X.share` (and `X.p50_ns`, `X.p99_ns` for
/// the sampled ones), `bench.harness.share`, then the counted, kernel and
/// simulated tables.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    for span in Span::ALL {
        let name = span.name();
        defs.push(def(format!("{name}.calls"), "count", Better::Lower));
        defs.push(def(format!("{name}.ns_per_call"), "ns", Better::Lower));
        defs.push(def(format!("{name}.share"), "ratio", Better::Lower));
        if span.sampled() {
            defs.push(def(format!("{name}.p50_ns"), "ns", Better::Lower));
            defs.push(def(format!("{name}.p99_ns"), "ns", Better::Lower));
        }
    }
    defs.push(def("bench.harness.share", "ratio", Better::Lower));
    defs.extend(
        COUNTED
            .iter()
            .map(|&(name, unit, better)| def(name, unit, better)),
    );
    defs.extend(KERNELS.iter().map(|&name| def(name, "ns", Better::Lower)));
    defs.extend(
        SIMULATED
            .iter()
            .map(|&(name, unit, better)| def(name, unit, better)),
    );
    defs
}

/// The contents of `BENCHMARK.json`.
pub fn manifest(dir: &str) -> Json {
    let metric = |d: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(d.name.clone())),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.word())),
        ];
        if let Some(bounds) = d.bounds {
            pairs.push(("bound", Json::Num(bounds.across_seeds)));
        }
        Json::obj(pairs)
    };
    let manifest_path = format!("{dir}/Cargo.toml");
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        manifest_path.as_str(),
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str(dir)])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_fits_the_contract() {
        let mut names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        for d in end_to_end().iter().chain(&per_layer()) {
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "unit {:?}",
                d.unit
            );
            names.push(d.name.clone());
        }
        for name in &names {
            assert!(well_formed(name), "name {name:?}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
        assert!(end_to_end()
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn manifest_is_valid_json_with_exactly_the_contract_keys() {
        let text = manifest("crates/bench/examples/perfbench").pretty();
        assert!(text.len() < 64 * 1024);
        let parsed = Json::parse(&text).expect("manifest parses");
        let keys: Vec<&str> = parsed.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for m in parsed.get("end_to_end").expect("end_to_end").items() {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
