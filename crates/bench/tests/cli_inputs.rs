//! Single-run input handling: a `router` / `network` / `calls` / `cost`
//! command line that cannot be run is refused with a one-line complaint, the
//! usage text and exit status 2 — never a panic, a silent wrap or an ignored
//! flag. The exact complaint of each line is pinned by
//! `campaigns.rs::malformed_command_lines_exit_2_with_usage`.

use std::process::{Command, Output};

use mmr_bench::cli;

fn mmr_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mmr-bench")).args(args).output().expect("mmr-bench spawns")
}

#[test]
fn bad_input_is_an_error_not_a_panic() {
    let bad: &[&[&str]] = &[
        // Dimensions no router can be built with.
        &["router", "--ports", "0"],
        &["router", "--ports", "100"],
        &["router", "--candidates", "999"],
        &["calls", "--vcs", "0"],
        // Numbers wider than the field they feed (300 used to run 44 ports).
        &["router", "--ports", "300"],
        &["router", "--vcs", "65536"],
        &["network", "--admission-attempts", "5000000000"],
        &["cost", "--ports", "-1"],
        // Out-of-range workload parameters.
        &["router", "--load", "nan"],
        &["router", "--load", "50"],
        &["network", "--load", "-0.1"],
        &["calls", "--arrival", "0"],
        &["calls", "--holding", "0"],
        &["calls", "--arrival", "inf"],
        // Flags that are unknown, lack their value, or are not flags.
        &["router", "--bogus", "1"],
        &["router", "--ports"],
        &["router", "--ports", "--vcs", "8"],
        &["router", "stray"],
        &["cost", "--json"],
        &["router", "--arbiter", "nope"],
        &["network", "--topology", "nope"],
    ];
    let usage = format!("{}\n", cli::usage());
    for args in bad {
        let out = mmr_bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2; stderr: {stderr}");
        assert!(stderr.starts_with("mmr-bench: "), "{args:?}: stderr is `{stderr}`");
        let (complaint, rest) = stderr.split_once('\n').expect("the complaint ends its line");
        assert!(complaint.len() > "mmr-bench: ".len(), "{args:?}: an empty complaint");
        assert_eq!(rest, usage, "{args:?}: one complaint line, then usage, no backtrace");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report before failing");
    }
}
