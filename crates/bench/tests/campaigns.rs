//! The harness's guarantees, checked once for every campaign in the
//! registry: output bytes do not depend on the worker count, the committed
//! quick artefacts and the single runs' reports are what the code renders
//! today, and the `mmr-bench` command line answers a malformed invocation
//! with usage and exit 2 — never a panic, never a guess.

use std::path::Path;
use std::process::{Command, Output as Run};

use mmr_bench::campaign::{assert_jobs_identity, jobs_identity, run_cells, Campaign, Output};
use mmr_bench::churn::Churn;
use mmr_bench::cli::{self, Request, REGISTRY};
use mmr_bench::faults::{Chaos, Faults};
use mmr_bench::scale::Scale;
use mmr_bench::{ablations, extensions, paper, Quality};
use mmr_sim::sweep::SweepOptions;

fn tiny() -> Quality {
    Quality { warmup: 200, measure: 1_000, loads: vec![0.4, 0.7] }
}

fn mmr_bench(args: &[&str]) -> Run {
    Command::new(env!("CARGO_BIN_EXE_mmr-bench")).args(args).output().expect("mmr-bench spawns")
}

/// A small input of each single run, with the report it prints and the
/// record `--out` writes (`cost` has none), pinned byte for byte.
const SINGLE_RUNS: [(&str, &str, &str); 4] = [
    (
        "router --ports 4 --vcs 16 --candidates 2 --load 0.5 --warmup 100 --measure 400",
        "single-router experiment @ 25% offered load\n  connections     64\n  \
         delay           0.15 cycles (0.015 us)\n  jitter          0.22 cycles\n  \
         utilization     24.7%\n  per rate class:\n       \
         64.0 Kbps: delay     0.00 cyc, jitter     0.00 cyc (1 flits)\n      \
         1.540 Mbps: delay     0.00 cyc, jitter     0.00 cyc (4 flits)\n      \
         2.000 Mbps: delay     0.25 cyc, jitter     0.00 cyc (4 flits)\n      \
         5.000 Mbps: delay     0.10 cyc, jitter     0.00 cyc (10 flits)\n     \
         10.000 Mbps: delay     0.17 cyc, jitter     0.43 cyc (23 flits)\n     \
         20.000 Mbps: delay     0.19 cyc, jitter     0.15 cyc (52 flits)\n     \
         55.000 Mbps: delay     0.15 cyc, jitter     0.20 cyc (106 flits)\n    \
         120.000 Mbps: delay     0.13 cyc, jitter     0.21 cyc (195 flits)\n",
        "{\"offered_load\": 0.2474, \"connections\": 64, \"mean_delay_cycles\": 0.1468, \
         \"mean_delay_us\": 0.0152, \"mean_jitter_cycles\": 0.2213, \"utilization\": 0.2469, \
         \"flits_measured\": 395}\n",
    ),
    (
        "network --topology ring6 --load 0.2 --warmup 100 --measure 400 --admission-attempts 50",
        "network experiment @ 21% offered load\n  streams            64\n  \
         end-to-end latency 2.12 cycles (0.219 us)\n  end-to-end jitter  0.25 cycles\n  \
         flits delivered    498\n  out of order       0\n  admission rejected 0\n",
        "{\"offered_load\": 0.2094, \"streams\": 64, \"mean_latency_cycles\": 2.1205, \
         \"mean_latency_us\": 0.2189, \"mean_jitter_cycles\": 0.2460, \"flits_delivered\": 498, \
         \"out_of_order\": 0, \"admission_rejected\": 0}\n",
    ),
    (
        "calls --arrival 0.01 --holding 500 --cycles 5000 --vcs 16",
        "call-level admission @ 5.0 offered erlangs\n  calls offered        50\n  \
         admitted             50\n  blocked (bandwidth)  0\n  blocked (VCs)        0\n  \
         blocking probability 0.00%\n  carried erlangs      4.3\n",
        "{\"offered_erlangs\": 5.00, \"offered_calls\": 50, \"admitted\": 50, \
         \"blocked_bandwidth\": 0, \"blocked_vcs\": 0, \"blocking_probability\": 0.0000, \
         \"carried_erlangs\": 4.28}\n",
    ),
    (
        "cost --ports 8 --vcs 64 --candidates 4 --ns-per-gate 0.5",
        "hardware model: 8 ports, 64 VCs/port, 4 candidates, 0.5 ns/gate\n  \
         candidate selection  8.0 gates\n  switch arbitration   48.0 gates\n  \
         schedule time        28.0 ns\n  max link rate        4.57 Gbps (128-bit flits)\n",
        "",
    ),
];

fn single_run_request(line: &str) -> (&'static cli::Entry, Request) {
    match cli::parse(&line.split(' ').map(String::from).collect::<Vec<_>>()) {
        Ok(cli::Command::Run(entry, request)) => (entry, request),
        _ => panic!("`{line}` should parse as a run"),
    }
}

/// Every sweep point and campaign trial derives its seed from its position,
/// never from execution order, so each registry entry emits the same bytes
/// at `--jobs 1` and `--jobs 4`. The sweeps run on tiny windows and the
/// grid campaigns on the head of their quick grid; `mmr-bench check` is the
/// same gate over the whole quick grids (CI runs it in release).
#[test]
fn every_campaign_is_jobs_identical() {
    type Sweep = fn(&SweepOptions) -> String;
    let sweeps: [(&str, Sweep); 3] = [
        ("paper", |o| paper(&tiny(), o).files(false).map(|(_, text)| text).concat()),
        ("ablations", |o| ablations::candidates(&tiny(), o).to_string()),
        ("extensions", |o| extensions::fault_recovery(2, o).to_string()),
    ];
    for (name, run) in sweeps {
        jobs_identity(|o| Output { text: run(o), json: None, files: Vec::new(), verdict: Ok(()) })
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
    // The single runs have no worker pool, but take the same gate.
    let singles = SINGLE_RUNS.map(|(line, ..)| {
        let (entry, request) = single_run_request(line);
        jobs_identity(|o| (entry.run)(&Request { opts: *o, ..request.clone() }))
            .flatten()
            .unwrap_or_else(|why| panic!("{}: {why}", entry.name));
        entry.name
    });
    // `conform` is gated beside its runner (crates/conform/src/report.rs);
    // anything else added to the registry must be gated here.
    let gated = sweeps.iter().map(|(name, _)| *name).chain(grids.iter().map(|(name, _)| *name));
    let registered = REGISTRY.iter().map(|entry| entry.name);
    assert_eq!(
        gated.chain(["conform"]).chain(singles).collect::<Vec<_>>(),
        registered.collect::<Vec<_>>()
    );
}

/// Each single run prints its pinned report; `--out` writes its pinned
/// record and leaves the report on stdout.
#[test]
fn single_runs_print_their_pinned_bytes() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (line, text, json) in SINGLE_RUNS {
        let mut args: Vec<&str> = line.split(' ').collect();
        let out = dir.join(format!("{}.json", args[0]));
        let path = out.to_str().expect("a UTF-8 temporary path");
        if !json.is_empty() {
            args.extend(["--out", path]);
        }
        let run = mmr_bench(&args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(0), "`{line}`: {stderr}");
        assert_eq!(String::from_utf8_lossy(&run.stdout), text, "`{line}`");
        if !json.is_empty() {
            assert_eq!(std::fs::read_to_string(&out).expect("--out wrote the record"), json);
        }
    }
}

/// `paper --dir` writes exactly its four files, and stdout is their
/// concatenation in the order `paper` prints them.
#[test]
fn paper_dir_writes_the_four_files_stdout_prints() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("a fresh temporary directory");
    let run = mmr_bench(&["paper", "--quick", "--dir", dir.to_str().expect("a UTF-8 path")]);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("the directory lists")
        .map(|entry| entry.expect("an entry").file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(written, ["claims.txt", "fig3.txt", "fig4.txt", "fig5.txt"]);
    let files = ["fig3.txt", "fig4.txt", "fig5.txt", "claims.txt"]
        .map(|name| std::fs::read(dir.join(name)).expect("a written file"));
    assert_eq!(run.stdout, files.concat());
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
    let cases: [(&[&str], &str); 56] = [
        // Unknown flags are rejected, not ignored: `--quik` used to run the
        // minutes-long paper sweep; the retired spellings are unknown too.
        (&["paper", "--quik"], "unknown flag '--quik' for paper"),
        (&["faults", "--full"], "unknown flag '--full' for faults"),
        // So are another campaign's flags.
        (&["faults", "--panel", "a"], "unknown flag '--panel' for faults"),
        (&["paper", "--out", "x.json"], "unknown flag '--out' for paper"),
        (&["paper", "--panel", "a"], "unknown flag '--panel' for paper"),
        (&["paper", "--metric", "speed"], "unknown flag '--metric' for paper"),
        (&["router", "--bogus", "1"], "unknown flag '--bogus' for router"),
        (&["cost", "--json"], "unknown flag '--json' for cost"),
        // No flag is accepted and then ignored: `conform` has no quick grid,
        // and the single runs have neither a quick form nor a worker pool.
        (&["conform", "--quick"], "unknown flag '--quick' for conform"),
        (&["router", "--quick"], "unknown flag '--quick' for router"),
        (&["cost", "--jobs", "2"], "unknown flag '--jobs' for cost"),
        // A flag missing its value: `fig3 --panel` used to index out of
        // bounds (exit 101), `faultsweep --out` to overwrite the committed
        // BENCH_faults.json.
        (&["paper", "--dir"], "--dir expects a value"),
        (&["paper", "--jobs"], "--jobs expects a value"),
        (&["faults", "--out"], "--out expects a value"),
        (&["faults", "--out", "--quick"], "--out expects a value"),
        // Malformed values.
        (&["paper", "--jobs", "0"], "--jobs expects a positive integer"),
        (&["paper", "--jobs", "four"], "--jobs expects a positive integer"),
        (&["conform", "--cases"], "--cases expects a value"),
        (&["conform", "--cases", "many"], "--cases expects a non-negative integer"),
        (&["conform", "--bug", "nope"], "unknown flag '--bug' for conform"),
        (&["conform", "--seed"], "--seed expects a value"),
        (&["router", "--ports"], "--ports expects a value"),
        (&["router", "--ports", "--vcs", "8"], "--ports expects a value"),
        (&["router", "--arbiter", "nope"], "unknown arbiter: nope"),
        (
            &["network", "--topology", "nope"],
            "unknown topology: nope (use mesh3x3|mesh4x4|torus3x3|ring6|irregular10)",
        ),
        // Dimensions no router can be built with (`RouterConfig::validate`),
        // for the cost model too.
        (&["router", "--ports", "0"], "ports must be between 1 and 64 (got 0)"),
        (&["router", "--ports", "100"], "ports must be between 1 and 64 (got 100)"),
        (
            &["router", "--candidates", "999"],
            "candidates must be between 1 and vcs_per_port (got 999)",
        ),
        (&["calls", "--vcs", "0"], "vcs_per_port must be at least 1 (got 0)"),
        (&["cost", "--ports", "0"], "ports must be between 1 and 64 (got 0)"),
        (&["cost", "--ports", "100"], "ports must be between 1 and 64 (got 100)"),
        (&["cost", "--vcs", "0"], "vcs_per_port must be at least 1 (got 0)"),
        (&["cost", "--candidates", "0"], "candidates must be between 1 and vcs_per_port (got 0)"),
        // Numbers wider than the field they feed (300 ports once ran 44).
        (&["router", "--ports", "300"], "--ports: number too large to fit in target type: 300"),
        (&["router", "--vcs", "65536"], "--vcs: number too large to fit in target type: 65536"),
        (
            &["network", "--admission-attempts", "5000000000"],
            "--admission-attempts: number too large to fit in target type: 5000000000",
        ),
        (&["cost", "--ports", "-1"], "--ports: invalid digit found in string: -1"),
        // Out-of-range workload parameters, and windows that measure nothing
        // (their means would be NaN, which is not JSON).
        (&["router", "--load", "nan"], "--load must be between 0 and 1, got NaN"),
        (&["router", "--load", "50"], "--load must be between 0 and 1, got 50"),
        (&["network", "--load", "-0.1"], "--load must be between 0 and 1, got -0.1"),
        (&["calls", "--arrival", "0"], "--arrival must be positive and finite, got 0"),
        (&["calls", "--holding", "0"], "--holding must be positive and finite, got 0"),
        (&["calls", "--arrival", "inf"], "--arrival must be positive and finite, got inf"),
        (&["router", "--measure", "0"], "--measure must be at least 1 cycle, got 0"),
        (&["network", "--measure", "0"], "--measure must be at least 1 cycle, got 0"),
        (&["calls", "--cycles", "0"], "--cycles must be at least 1 cycle, got 0"),
        // Unknown campaign, ablation and extension names.
        (&[], "no campaign named"),
        (&["fig6"], "unknown campaign 'fig6'"),
        (&["fig3"], "unknown campaign 'fig3'"),
        (&["check", "fig6"], "unknown campaign 'fig6'"),
        (&["ablations", "round-q"], "unknown ablations name 'round-q'"),
        (&["extensions", "round-k"], "unknown extensions name 'round-k'"),
        (&["router", "stray"], "unknown router name 'stray'"),
        // A destination in a missing directory, refused before the run:
        // `paper --dir` once ran its whole sweep and then failed to write.
        (&["paper", "--dir", "no/such/dir"], "no directory no/such/dir"),
        (&["faults", "--out", "no/such/dir/f.json"], "no directory ./no/such/dir"),
        (&["ablations", "--table", "no/such/dir/a.txt"], "no directory ./no/such/dir"),
    ];
    for (args, complaint) in cases {
        let run = mmr_bench(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr, format!("mmr-bench: {complaint}\n{}\n", cli::usage()), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
