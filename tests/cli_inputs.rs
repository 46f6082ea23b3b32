//! `mmr-cli` input handling: input that cannot be run is refused with
//! `error: …` and exit status 2 — never a panic, a silent wrap or an ignored
//! flag — and each subcommand still runs on a small good input.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mmr-cli")).args(args).output().expect("mmr-cli runs")
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
    for args in bad {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2; stderr: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: stderr is `{stderr}`");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: one line, no backtrace: `{stderr}`");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report before failing");
    }
}

#[test]
fn each_subcommand_runs_a_small_good_input() {
    let good: &[&[&str]] = &[
        &["router", "--ports", "4", "--vcs", "16", "--candidates", "2", "--load", "0.5",
          "--warmup", "100", "--measure", "400", "--json"],
        &["network", "--topology", "ring6", "--load", "0.2", "--warmup", "100", "--measure",
          "400", "--admission-attempts", "50"],
        &["calls", "--arrival", "0.01", "--holding", "500", "--cycles", "5000", "--vcs", "16"],
        &["cost", "--ports", "8", "--vcs", "64", "--candidates", "4", "--ns-per-gate", "0.5"],
    ];
    for args in good {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?} must succeed; stderr: {stderr}");
        assert!(!out.stdout.is_empty(), "{args:?} printed no report");
    }
}
