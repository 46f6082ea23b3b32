//! `mmr-conform` — the conformance fuzzing CLI.
//!
//! Usage:
//!
//! ```text
//! mmr-conform [--seed S] [--cases K] [--jobs N] [--dense]
//!             [--shrink] [--json] [--out PATH] [--bug phantom-credit]
//! ```
//!
//! * `--seed` accepts decimal, `0x` hex, or any mnemonic string (hashed
//!   deterministically); default `0xMMR5`.
//! * `--cases` is the campaign size (default 100).
//! * `--jobs` sets the sweep harness's worker count (default: all cores);
//!   output is byte-identical at every parallelism level. `--dense`
//!   selects the dense reference stepping engine for every case.
//! * `--shrink` reduces each divergent case to a minimal reproducer.
//! * `--json` renders machine-readable output; `--out` writes it to a
//!   file as well as stdout.
//! * `--bug phantom-credit` arms the test-only fault hook that
//!   resurrects the historical `return_credit` phantom-capacity bug, to
//!   demonstrate the oracle catching it.
//!
//! Exit status is 1 when any case diverged.

use mmr_conform::{parse_seed, run, Hooks, RunConfig, SweepOptions};

fn main() {
    let mut opts = SweepOptions::all_cores();
    let mut seed = "0xMMR5".to_string();
    let mut cases = 100usize;
    let mut shrink = false;
    let mut json = false;
    let mut out_path: Option<String> = None;
    let mut hooks = Hooks::default();

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => seed = expect_value(&mut it, "--seed"),
            "--cases" => {
                cases = expect_value(&mut it, "--cases").parse().unwrap_or_else(|_| {
                    eprintln!("--cases expects a non-negative integer");
                    std::process::exit(2);
                })
            }
            "--jobs" => {
                opts.jobs = expect_value(&mut it, "--jobs")
                    .parse()
                    .ok()
                    .filter(|&j| j >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--jobs expects a positive integer");
                        std::process::exit(2);
                    })
            }
            "--dense" => (opts.dense, hooks.dense_stepping) = (true, true),
            "--shrink" => shrink = true,
            "--json" => json = true,
            "--out" => out_path = Some(expect_value(&mut it, "--out")),
            "--bug" => match expect_value(&mut it, "--bug").as_str() {
                "phantom-credit" => hooks.phantom_credit = true,
                other => {
                    eprintln!("unknown --bug hook '{other}' (known: phantom-credit)");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "mmr-conform [--seed S] [--cases K] [--jobs N] [--dense] \
                     [--shrink] [--json] [--out PATH] [--bug phantom-credit]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}' (try --help)");
                std::process::exit(2);
            }
        }
    }

    let cfg = RunConfig { base_seed: parse_seed(&seed), cases, shrink, hooks, opts };
    let report = run(&cfg);

    let rendered = if json { report.to_json() } else { report.to_text() };
    print!("{rendered}");
    if let Some(path) = out_path {
        // Files always get the JSON form: --out exists for CI diffing.
        std::fs::write(&path, report.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {path}");
    }

    if !report.is_clean() {
        std::process::exit(1);
    }
}

/// Pulls the value following a flag, exiting with a usage error if absent.
fn expect_value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next().unwrap_or_else(|| {
        eprintln!("{flag} expects a value");
        std::process::exit(2);
    })
}
