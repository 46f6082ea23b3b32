//! The harness's guarantees, checked once for every campaign in the
//! registry: output bytes do not depend on the worker count, the committed
//! quick artefacts are what the code renders today, and the `mmr-bench`
//! command line answers a malformed invocation with usage and exit 2 —
//! never a panic, never a guess.

use std::path::Path;
use std::process::Command;

use mmr_bench::campaign::{assert_jobs_identity, jobs_identity, run_cells, Campaign, Output};
use mmr_bench::churn::Churn;
use mmr_bench::cli::REGISTRY;
use mmr_bench::faults::{Chaos, Faults};
use mmr_bench::scale::Scale;
use mmr_bench::{
    ablations, claims_table, extensions, fig3_jitter, fig4_delay, fig5, render_claims, Fig5Metric,
    Quality,
};
use mmr_sim::sweep::SweepOptions;

fn tiny() -> Quality {
    Quality { warmup: 200, measure: 1_000, loads: vec![0.4, 0.7] }
}

/// Every sweep point and campaign trial derives its seed from its position,
/// never from execution order, so each registry entry emits the same bytes
/// at `--jobs 1` and `--jobs 4`. The sweeps run on tiny windows and the
/// grid campaigns on the head of their quick grid; `mmr-bench check` is the
/// same gate over the whole quick grids (CI runs it in release).
#[test]
fn every_campaign_is_jobs_identical() {
    type Sweep = fn(&SweepOptions) -> String;
    let sweeps: [(&str, Sweep); 6] = [
        ("fig3", |o| fig3_jitter(&[1, 2], &tiny(), o).to_string()),
        ("fig4", |o| fig4_delay(&[4, 8], &tiny(), o).to_string()),
        ("fig5", |o| fig5(Fig5Metric::Delay, &tiny(), o).to_string()),
        ("claims", |o| render_claims(&claims_table(&tiny(), o))),
        ("ablations", |o| ablations::candidates(&tiny(), o).to_string()),
        ("extensions", |o| extensions::fault_recovery(2, o).to_string()),
    ];
    for (name, run) in sweeps {
        jobs_identity(|o| Output { text: run(o), json: None, verdict: Ok(()) })
            .unwrap_or_else(|why| panic!("{name}: {why}"));
    }
    let grids: [(&str, fn()); 4] = [
        (Faults::NAME, assert_jobs_identity::<Faults>),
        (Chaos::NAME, assert_jobs_identity::<Chaos>),
        (Churn::NAME, assert_jobs_identity::<Churn>),
        (Scale::NAME, assert_jobs_identity::<Scale>),
    ];
    for (_, gate) in grids {
        gate();
    }
    // `conform` is gated beside its runner (crates/conform/src/report.rs);
    // anything else added to the registry must be gated here.
    let gated = sweeps.iter().map(|(name, _)| *name).chain(grids.iter().map(|(name, _)| *name));
    let registered = REGISTRY.iter().map(|entry| entry.name);
    assert_eq!(gated.chain(["conform"]).collect::<Vec<_>>(), registered.collect::<Vec<_>>());
}

/// The committed quick artefacts are byte-for-byte what the code renders —
/// a change to a trial loop, a seed or a column fails here until the files
/// are regenerated (README lists the commands).
#[test]
fn committed_fault_and_chaos_artefacts_are_current() {
    fn assert_current<C: Campaign>() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |path: String| {
            std::fs::read_to_string(root.join(&path)).unwrap_or_else(|e| panic!("{path}: {e}"))
        };
        let output = run_cells::<C>(&C::grid(true), &SweepOptions::all_cores());
        assert_eq!(output.text, read(format!("results/{}.txt", C::NAME)));
        assert_eq!(output.json, Some(read(format!("BENCH_{}.json", C::NAME))));
    }
    assert_current::<Faults>();
    assert_current::<Chaos>();
}

/// ROADMAP 4c — no command line can panic or be guessed at: each malformed
/// invocation exits 2 with its complaint and the usage text on stderr and
/// nothing on stdout.
#[test]
fn malformed_command_lines_exit_2_with_usage() {
    let cases: [(&[&str], &str); 21] = [
        // Unknown flags are rejected, not ignored: `--quik` used to run the
        // minutes-long paper sweep; the retired spellings are unknown too.
        (&["fig3", "--quik"], "unknown flag '--quik' for fig3"),
        (&["faults", "--full"], "unknown flag '--full' for faults"),
        // So are another campaign's flags.
        (&["faults", "--panel", "a"], "unknown flag '--panel' for faults"),
        (&["fig3", "--out", "x.json"], "unknown flag '--out' for fig3"),
        // A flag missing its value: `fig3 --panel` used to index out of
        // bounds (exit 101), `faultsweep --out` to overwrite the committed
        // BENCH_faults.json.
        (&["fig3", "--panel"], "--panel expects a value"),
        (&["fig3", "--jobs"], "--jobs expects a value"),
        (&["faults", "--out"], "--out expects a value"),
        (&["faults", "--out", "--quick"], "--out expects a value"),
        // Malformed values.
        (&["fig3", "--jobs", "0"], "--jobs expects a positive integer"),
        (&["fig3", "--jobs", "four"], "--jobs expects a positive integer"),
        (&["fig3", "--panel", "c"], "--panel expects a or b, not 'c'"),
        (&["fig5", "--metric", "speed"], "--metric expects delay or jitter, not 'speed'"),
        (&["conform", "--cases"], "--cases expects a value"),
        (&["conform", "--cases", "many"], "--cases expects a non-negative integer"),
        (&["conform", "--bug", "nope"], "--bug expects phantom-credit, not 'nope'"),
        (&["conform", "--seed"], "--seed expects a value"),
        // Unknown campaign, ablation and extension names.
        (&[], "no campaign named"),
        (&["fig6"], "unknown campaign 'fig6'"),
        (&["check", "fig6"], "unknown campaign 'fig6'"),
        (&["ablations", "round-q"], "unknown ablations name 'round-q'"),
        (&["extensions", "round-k"], "unknown extensions name 'round-k'"),
    ];
    for (args, complaint) in cases {
        let run = Command::new(env!("CARGO_BIN_EXE_mmr-bench"))
            .args(args)
            .output()
            .expect("mmr-bench spawns");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(&format!("mmr-bench: {complaint}")), "{args:?}: {stderr}");
        assert!(stderr.contains("\nusage: mmr-bench <campaign>"), "{args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
