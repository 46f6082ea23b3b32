//! The full report (`--out`): every workload, `R` untraced repeats plus one
//! traced run, each in a fresh child process of this binary, one at a
//! time — so `peak_rss_mb` is per workload and nothing leaks from one
//! repeat into the next (within a repeat the episodes share a process; see
//! `run.rs`) — with the machine record beside the numbers. And `compare`,
//! which judges two reports against the bounds.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::metrics::{end_to_end, Better, MetricDef};
use crate::trace::median;
use crate::workloads::Workload;

/// What `--out` runs.
#[derive(Debug, Clone)]
pub struct ReportSpec {
    /// Where the report goes.
    pub out: String,
    /// The tape seed of every run.
    pub seed: u64,
    /// Untraced repeats per workload.
    pub repeats: usize,
    /// Seconds each run measures.
    pub seconds: f64,
    /// One workload only.
    pub only: Option<Workload>,
    /// 1/50-size episodes.
    pub quick: bool,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The machine record: what the numbers were measured on.
fn machine() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj([
        ("nproc", Json::Int(nproc)),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_revision",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        // One thread, one process at a time: nothing here runs concurrently.
        ("jobs", Json::Int(1)),
    ])
}

/// Runs one child and returns its `(detail, result)` lines.
fn child(spec: &ReportSpec, workload: Workload, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if spec.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{}: the child run ended with {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(result), Some(detail)) = (lines.next(), lines.next()) else {
        return Err(format!("{}: the child printed no result", workload.name()));
    };
    Ok((Json::parse(detail)?, Json::parse(result)?))
}

/// Median and extremes of one metric's repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Median of the repeats.
    pub median: f64,
    /// Smallest repeat.
    pub min: f64,
    /// Largest repeat.
    pub max: f64,
}

impl Stat {
    /// Reduces a metric's repeats (at least one).
    fn of(runs: &[f64]) -> Stat {
        let mut sorted = runs.to_vec();
        let median = median(&mut sorted);
        Stat {
            median,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }

    /// The report's rendering, with the repeats in run order beside it.
    fn json(self, runs: &[f64]) -> Json {
        Json::obj([
            ("median", Json::Num(self.median)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            (
                "runs",
                Json::Arr(runs.iter().copied().map(Json::Num).collect()),
            ),
        ])
    }
}

/// Runs the report, prints every metric by name with its unit, writes
/// `spec.out`. `Ok(true)` when every check of every run passed.
pub fn report(spec: &ReportSpec) -> Result<bool, String> {
    let defs = end_to_end();
    let mut all_correct = true;
    let mut rows = Vec::new();
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| spec.only.is_none_or(|o| o == *w))
    {
        let mut failures: Vec<Json> = Vec::new();
        let mut digests: Vec<String> = Vec::new();
        let mut runs: Vec<Vec<f64>> = vec![Vec::new(); defs.len()];
        let mut counts = (0u64, 0u64);
        let mut note = |detail: &Json, result: &Json| {
            failures.extend(
                detail
                    .get("failures")
                    .map_or(&[][..], Json::items)
                    .iter()
                    .cloned(),
            );
            digests.extend(
                detail
                    .get("sim_digest")
                    .and_then(Json::as_str)
                    .map(String::from),
            );
            let count = |key| result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            counts = (count("attempted"), count("failed"));
        };
        for _ in 0..spec.repeats {
            let (detail, result) = child(spec, workload, false)?;
            note(&detail, &result);
            for (def, values) in defs.iter().zip(&mut runs) {
                let value = result
                    .get("metrics")
                    .and_then(|m| m.get(&def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{}: no {} in the result", workload.name(), def.name))?;
                values.push(value);
            }
        }
        let (detail, traced) = child(spec, workload, true)?;
        note(&detail, &traced);
        let digest = digests.first().cloned().unwrap_or_default();
        if digests.iter().any(|d| *d != digest) {
            failures.push(Json::str(format!(
                "{}: repeats disagree on sim_digest",
                workload.name()
            )));
        }
        all_correct &= failures.is_empty();

        println!(
            "== {} (auditor {}) ==",
            workload.name(),
            if workload.auditor() { "on" } else { "off" }
        );
        let end_to_end_json = Json::Obj(
            defs.iter()
                .zip(runs)
                .map(|(def, values)| {
                    let s = Stat::of(&values);
                    println!(
                        "{:<44} {:>16.6} {:<10} (min {:.6}, max {:.6})",
                        def.name, s.median, def.unit, s.min, s.max
                    );
                    (def.name.clone(), s.json(&values))
                })
                .collect(),
        );
        let per_layer = traced.get("metrics").cloned().unwrap_or(Json::Null);
        for (name, metric) in per_layer.members() {
            println!(
                "{:<44} {:>16.6} {}",
                name,
                metric.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                metric.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
        for failure in &failures {
            println!("FAIL {}", failure.as_str().unwrap_or("?"));
        }
        rows.push(Json::obj([
            ("name", Json::str(workload.name())),
            ("why", Json::str(workload.why())),
            ("auditor", Json::Bool(workload.auditor())),
            ("sim_digest", Json::str(digest)),
            (
                "pinned_digest",
                Json::str(format!("{:#018x}", workload.pinned_digest())),
            ),
            ("correct", Json::Bool(failures.is_empty())),
            ("failures", Json::Arr(failures)),
            ("attempted", Json::Int(counts.0)),
            ("failed", Json::Int(counts.1)),
            ("end_to_end", end_to_end_json),
            ("per_layer", per_layer),
        ]));
    }
    let document = Json::obj([
        ("schema", Json::str("perfbench-report-1")),
        ("machine", machine()),
        ("seed", Json::Int(spec.seed)),
        ("run_seconds", Json::Num(spec.seconds)),
        ("repeats", Json::Int(spec.repeats as u64)),
        ("quick", Json::Bool(spec.quick)),
        ("workloads", Json::Arr(rows)),
    ]);
    std::fs::write(&spec.out, document.pretty()).map_err(|e| format!("{}: {e}", spec.out))?;
    println!("wrote {}", spec.out);
    Ok(all_correct)
}

/// `compare`'s judgement of one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of B beats every run of A.
    Improved,
    /// B's median is within the bound of A's, and the repeats resolve it.
    Unchanged,
    /// Within the bound, but the repeats spread wider than the bound.
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Regressed,
}

impl Verdict {
    /// The table spelling.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judges B against A. A metric may worsen by `bound`, a share of A's
/// median, or by `floor` in its own unit, whichever is larger.
pub fn verdict(a: Stat, b: Stat, better: Better, bound: f64, floor: f64) -> Verdict {
    let (worse_by, b_always_better) = match better {
        Better::Lower => (b.median - a.median, b.max < a.min),
        Better::Higher => (a.median - b.median, b.min > a.max),
    };
    let allowed = |s: Stat| (bound * s.median).max(floor);
    let unresolved = |s: Stat| s.max - s.min > allowed(s);
    if worse_by > allowed(a) {
        Verdict::Regressed
    } else if b_always_better {
        Verdict::Improved
    } else if unresolved(a) || unresolved(b) {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn read_report(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let report = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if report.get("schema").and_then(Json::as_str) != Some("perfbench-report-1") {
        return Err(format!("{path}: not a perfbench report"));
    }
    Ok(report)
}

fn workload_of<'a>(report: &'a Json, name: &str) -> Option<&'a Json> {
    report
        .get("workloads")?
        .items()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn stat_of(workload: &Json, def: &MetricDef) -> Option<Stat> {
    let s = workload.get("end_to_end")?.get(&def.name)?;
    let field = |k| s.get(k).and_then(Json::as_f64);
    Some(Stat {
        median: field("median")?,
        min: field("min")?,
        max: field("max")?,
    })
}

/// Renders the comparison table of two parsed reports, base A. The flag is
/// `true` when nothing regressed and every digest agrees.
pub fn compare_reports(a: &Json, b: &Json) -> (String, bool) {
    let mut out = format!(
        "{:<17} {:<17} {:>14} {:>14} {:>8} {:>6}  {:<10} A[min..max] B[min..max]\n",
        "workload", "metric", "A median", "B median", "B/A", "bound", "verdict"
    );
    let mut ok = true;
    for workload in Workload::ALL {
        let (Some(wa), Some(wb)) = (
            workload_of(a, workload.name()),
            workload_of(b, workload.name()),
        ) else {
            continue;
        };
        for def in end_to_end() {
            let (Some(sa), Some(sb)) = (stat_of(wa, &def), stat_of(wb, &def)) else {
                continue;
            };
            let Some(bounds) = def.bounds else {
                continue;
            };
            let bound = bounds.same_seed;
            let v = verdict(sa, sb, def.better, bound, bounds.floor);
            ok &= v != Verdict::Regressed;
            out.push_str(&format!(
                "{:<17} {:<17} {:>14.6} {:>14.6} {:>8.4} {:>6.2}  {:<10} [{:.6}..{:.6}] [{:.6}..{:.6}]\n",
                workload.name(),
                def.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                bound,
                v.word(),
                sa.min,
                sa.max,
                sb.min,
                sb.max
            ));
        }
        let digest = |w: &Json| w.get("sim_digest").and_then(Json::as_str).map(String::from);
        let same = digest(wa) == digest(wb);
        ok &= same;
        out.push_str(&format!(
            "{:<17} {:<17} {:>14} {:>14} {:>8} {:>6}  {}\n",
            workload.name(),
            "sim_digest",
            digest(wa).unwrap_or_default(),
            digest(wb).unwrap_or_default(),
            "",
            "exact",
            if same { "identical" } else { "MISMATCH" }
        ));
        if !same {
            // Name the simulated statistics that moved.
            let sims = |w: &'_ Json| w.get("per_layer").map_or(&[][..], Json::members).to_vec();
            for ((name, va), (_, vb)) in sims(wa).into_iter().zip(sims(wb)) {
                if name.starts_with("sim.") && va != vb {
                    let value = |m: &Json| m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                    out.push_str(&format!(
                        "{:<17} {:<17} {:>14.6} {:>14.6}\n",
                        workload.name(),
                        name,
                        value(&va),
                        value(&vb)
                    ));
                }
            }
        }
    }
    (out, ok)
}

/// `perfbench compare A.json B.json`: prints the table; `Ok(false)` on a
/// regression or a digest mismatch.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let (table, ok) = compare_reports(&read_report(a)?, &read_report(b)?);
    print!("{table}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, min: f64, max: f64) -> Stat {
        Stat { median, min, max }
    }

    #[test]
    fn verdict_table() {
        use Better::{Higher, Lower};
        let base = s(100.0, 98.0, 102.0);
        // Throughput (higher is better), bound 10 %.
        assert_eq!(
            verdict(base, s(101.0, 99.0, 103.0), Higher, 0.10, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(base, s(89.0, 88.0, 90.0), Higher, 0.10, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(base, s(91.0, 90.5, 92.0), Higher, 0.10, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(base, s(120.0, 118.0, 121.0), Higher, 0.10, 0.0),
            Verdict::Improved
        );
        // Overlapping repeats never count as an improvement.
        assert_eq!(
            verdict(base, s(104.0, 101.0, 107.0), Higher, 0.10, 0.0),
            Verdict::Unchanged
        );
        // A spread wider than the bound cannot resolve "unchanged".
        assert_eq!(
            verdict(base, s(100.0, 90.0, 108.0), Higher, 0.10, 0.0),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(s(100.0, 80.0, 120.0), base, Higher, 0.10, 0.0),
            Verdict::Unresolved
        );
        // Times and memory (lower is better).
        assert_eq!(
            verdict(base, s(130.0, 128.0, 131.0), Lower, 0.25, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(base, s(80.0, 79.0, 81.0), Lower, 0.25, 0.0),
            Verdict::Improved
        );
        assert_eq!(
            verdict(base, s(104.0, 103.0, 105.0), Lower, 0.05, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(base, s(106.0, 105.5, 106.5), Lower, 0.05, 0.0),
            Verdict::Regressed
        );
        // Under the absolute floor, a large share of a small time is noise:
        // set-ups of 10 ms and 14 ms are 40 % apart and 4 ms apart.
        let quick = s(0.010, 0.0098, 0.0102);
        assert_eq!(
            verdict(quick, s(0.014, 0.0138, 0.0142), Lower, 0.25, 0.02),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(quick, s(0.031, 0.0308, 0.0312), Lower, 0.25, 0.02),
            Verdict::Regressed
        );
        // Above it the relative bound governs.
        let slow = s(0.200, 0.198, 0.202);
        assert_eq!(
            verdict(slow, s(0.240, 0.238, 0.242), Lower, 0.25, 0.02),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(slow, s(0.260, 0.258, 0.262), Lower, 0.25, 0.02),
            Verdict::Regressed
        );
    }

    fn report_with(cycles_per_s: f64, digest: &str) -> Json {
        let stat = |m: f64| {
            let runs = [m * 0.99, m, m * 1.01];
            Stat::of(&runs).json(&runs)
        };
        let workload = Json::obj([
            ("name", Json::str("mesh_hybrid")),
            ("sim_digest", Json::str(digest)),
            (
                "end_to_end",
                Json::obj([
                    ("setup_s", stat(0.05)),
                    ("net_cycles_per_s", stat(cycles_per_s)),
                    ("flits_per_s", stat(2.0 * cycles_per_s)),
                    ("peak_rss_mb", stat(40.0)),
                ]),
            ),
            (
                "per_layer",
                Json::obj([(
                    "sim.delay_p50_cycles",
                    Json::obj([("value", Json::Num(9.0))]),
                )]),
            ),
        ]);
        Json::obj([
            ("schema", Json::str("perfbench-report-1")),
            ("workloads", Json::Arr(vec![workload])),
        ])
    }

    #[test]
    fn compare_flags_regressions_and_digest_mismatches() {
        let base = report_with(50_000.0, "0x01");
        let (table, ok) = compare_reports(&base, &report_with(50_400.0, "0x01"));
        assert!(ok, "{table}");
        assert!(
            table.contains("unchanged") && table.contains("identical"),
            "{table}"
        );
        assert_eq!(
            table.matches("mesh_hybrid").count(),
            5,
            "four metrics and the digest:\n{table}"
        );

        let (table, ok) = compare_reports(&base, &report_with(35_000.0, "0x01"));
        assert!(!ok && table.contains("regressed"), "{table}");

        let (table, ok) = compare_reports(&base, &report_with(70_000.0, "0x01"));
        assert!(ok && table.contains("improved"), "{table}");

        let (table, ok) = compare_reports(&base, &report_with(50_000.0, "0x02"));
        assert!(!ok && table.contains("MISMATCH"), "{table}");
    }
}
