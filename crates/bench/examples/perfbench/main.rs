//! `perfbench`: the one benchmark of the MMR simulator — end-to-end numbers
//! a user sees (simulated network cycles and delivered flits per host
//! second, set-up time, peak memory) on six workloads that each stress a
//! different layer, plus a per-layer table from spans recorded around the
//! calls into each crate's public functions. See `README.md` beside this
//! file for the glossary and the A/B protocol.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--trace-out PATH]
//!     one run; the last stdout line is the result object
//! perfbench --out REPORT.json [--seed S] [--repeats R] [--workload NAME] [--seconds S] [--quick]
//!     every workload: R untraced repeats + 1 traced run, checks on
//! perfbench compare A.json B.json
//!     verdict per (workload, end-to-end metric); non-zero on a regression
//! perfbench manifest
//!     prints BENCHMARK.json
//! ```
//!
//! Single-threaded by design; lives in `crates/bench` (the D-TIME-exempt
//! crate) as a multi-file example, and builds as a package of its own from
//! the `Cargo.toml` beside it.

use std::path::PathBuf;
use std::process::ExitCode;

mod json;
mod kernels;
mod metrics;
mod report;
mod run;
mod trace;
mod workloads;

use metrics::RUN_SECONDS;
use report::ReportSpec;
use run::RunSpec;
use workloads::{Workload, DEFAULT_SEED};

/// This directory, relative to the repository root.
const HOME: &str = "crates/bench/examples/perfbench";

/// Removes `flag VALUE` from `args` and returns the value.
fn flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if at + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    args.remove(at);
    Ok(Some(args.remove(at)))
}

fn parsed<T: std::str::FromStr>(
    flag: &str,
    value: Option<String>,
    default: T,
) -> Result<T, String> {
    match value {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read `{v}`")),
    }
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}`; one of {}", known.join(", "))
    })
}

fn real_main() -> Result<bool, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest(HOME).pretty());
            return Ok(true);
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return Err("usage: perfbench compare A.json B.json".into());
            };
            return report::compare(a, b);
        }
        _ => {}
    }
    // `NetworkSim::new` reads MMR_AUDIT and would turn every workload into
    // an auditor benchmark; auditor state belongs to the workload alone.
    if std::env::var_os("MMR_AUDIT").is_some() {
        return Err("MMR_AUDIT is set; unset it (churn_audited arms the auditor itself)".into());
    }

    let quick = args
        .iter()
        .position(|a| a == "--quick")
        .map(|at| args.remove(at))
        .is_some();
    let seed = parsed("--seed", flag_value(&mut args, "--seed")?, DEFAULT_SEED)?;
    let seconds: f64 = parsed(
        "--seconds",
        flag_value(&mut args, "--seconds")?,
        RUN_SECONDS as f64,
    )?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let workload = flag_value(&mut args, "--workload")?
        .map(|n| workload_named(&n))
        .transpose()?;

    if let Some(out) = flag_value(&mut args, "--out")? {
        let repeats = parsed("--repeats", flag_value(&mut args, "--repeats")?, 3)?;
        if !args.is_empty() || repeats == 0 {
            return Err(format!(
                "unexpected arguments: {args:?} (repeats {repeats})"
            ));
        }
        return report::report(&ReportSpec {
            out,
            seed,
            repeats,
            seconds,
            only: workload,
            quick,
        });
    }

    let trace = match flag_value(&mut args, "--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace is 0 or 1, not `{other}`")),
    };
    let trace_out = flag_value(&mut args, "--trace-out")?.map(PathBuf::from);
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let workload = workload.ok_or("--workload NAME (or --out REPORT.json) is required")?;
    let trace_out = trace.then(|| {
        trace_out.unwrap_or_else(|| {
            let target =
                std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
            target
                .join("perfbench")
                .join(format!("{}.trace.jsonl", workload.name()))
        })
    });
    let spec = RunSpec {
        workload,
        seed,
        seconds,
        trace,
        quick,
        trace_out,
    };
    let outcome = run::run(&spec);

    let shown = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for (name, value, unit) in shown {
        println!("{name:<44} {value:>18.6} {unit}");
    }
    for failure in &outcome.failures {
        println!("FAIL {failure}");
    }
    println!("{}", run::detail_line(&spec, &outcome).line());
    println!("{}", run::result_line(&spec, &outcome).line());
    // A failed check is reported in the result (`correct: false`), not by
    // the exit code: the run itself completed.
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::trace::NoProbe;

    #[test]
    fn digests_repeat_in_process_and_differ_across_seeds() {
        for workload in Workload::ALL {
            let a = workload.episode(7, true, &mut NoProbe);
            let b = workload.episode(7, true, &mut NoProbe);
            let c = workload.episode(8, true, &mut NoProbe);
            assert_eq!(a.failures, Vec::<String>::new(), "{}", workload.name());
            assert_eq!(a.sim, b.sim, "{} repeats", workload.name());
            assert_eq!(a.sim.digest(), b.sim.digest());
            // `router_cbr80` holds its population fixed and draws nothing
            // else.
            assert_eq!(
                a.sim.digest() == c.sim.digest(),
                workload == Workload::RouterCbr80,
                "{} and its seed",
                workload.name()
            );
        }
    }

    #[test]
    fn churn_audited_plays_the_head_of_the_overload_tape() {
        // Same tape, same controller decisions: until the shorter run ends
        // the two workloads have admitted exactly the same sessions.
        let audited = Workload::ChurnAudited.episode(7, true, &mut NoProbe);
        assert!(audited.sim.audit_checks > 0 && audited.sim.audit_violations == 0);
        let twin = workloads::run_episode::<workloads::churn::State<false>, _>(
            7,
            Workload::ChurnAudited.sizes(true),
            &mut NoProbe,
        );
        let mut expected = audited.sim;
        expected.audit_checks = 0;
        assert_eq!(twin.sim, expected);
    }

    #[test]
    fn a_traced_run_emits_every_metric_and_parseable_lines() {
        let spec = RunSpec {
            workload: Workload::MeshHybrid,
            seed: 7,
            seconds: 0.01,
            trace: true,
            quick: true,
            trace_out: None,
        };
        let outcome = run::run(&spec);
        assert_eq!(outcome.failures, Vec::<String>::new());
        let names: Vec<String> = outcome
            .per_layer
            .iter()
            .map(|(n, _, _)| n.clone())
            .collect();
        let expected: Vec<String> = metrics::per_layer().into_iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        let shares: f64 = outcome
            .per_layer
            .iter()
            .filter(|(n, _, _)| n.ends_with(".share"))
            .map(|(_, v, _)| v)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");

        let result = Json::parse(&run::result_line(&spec, &outcome).line()).expect("result parses");
        let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            result.get("metrics").map(|m| m.members().len()),
            Some(expected.len())
        );
        assert!(Json::parse(&run::detail_line(&spec, &outcome).line()).is_ok());

        let untraced = RunSpec {
            trace: false,
            ..spec
        };
        let outcome = run::run(&untraced);
        let result = run::result_line(&untraced, &outcome);
        let names: Vec<&str> = result
            .get("metrics")
            .expect("metrics")
            .members()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            names,
            ["setup_s", "net_cycles_per_s", "flits_per_s", "peak_rss_mb"]
        );
    }
}
