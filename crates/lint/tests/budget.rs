//! Two budgets that run by default. The linter is part of the
//! edit-compile-test loop: DESIGN.md §7 promises the whole workspace
//! analysis — per-file scans, call-graph construction and the
//! interprocedural rules — in under two seconds. And no source file under
//! `crates/*/src` may grow past 1,000 non-test lines.

use std::path::Path;
use std::time::Instant;

use mmr_lint::{check_workspace, load_manifest, workspace_sources};

/// Wall-clock budget for one full lint pass, in seconds.
const LINT_BUDGET_SECS: f64 = 2.0;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the workspace root")
}

#[test]
fn workspace_pass_fits_its_wall_clock_budget() {
    let root = workspace_root();
    let manifest = load_manifest(&root.join("lint.toml")).expect("lint.toml parses");
    // Best of three: a shared test machine's noise must not fail the gate,
    // a pass that is slow every time must.
    let best = (0..3)
        .map(|_| {
            let start = Instant::now();
            check_workspace(root, &manifest).expect("workspace walk succeeds");
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        best <= LINT_BUDGET_SECS,
        "the mmr-lint workspace pass took {best:.3}s, over the {LINT_BUDGET_SECS:.1}s budget"
    );
}

/// Non-test lines one source file may hold: a file past this has stopped
/// being one unit (ROADMAP item 4 — `router.rs` was 1,353 before its split).
const FILE_LINE_BUDGET: usize = 1_000;

#[test]
fn no_source_file_outgrows_its_line_budget() {
    let root = workspace_root();
    let manifest = load_manifest(&root.join("lint.toml")).expect("lint.toml parses");
    let sources = workspace_sources(root, &manifest).expect("workspace walk succeeds");
    // `crates/<name>/src/…`: the crates' own code, not perfbench or tests.
    let in_a_crate = |rel: &&String| {
        let mut parts = rel.split('/');
        parts.next() == Some("crates") && parts.nth(1) == Some("src")
    };
    let mut seen = 0;
    for rel in sources.iter().filter(in_a_crate) {
        let text = std::fs::read_to_string(root.join(rel)).expect("utf-8 source");
        // Lines before the first `#[cfg(test)]` / `#![cfg(test)]`.
        let lines = text
            .lines()
            .map(str::trim_start)
            .take_while(|l| !l.starts_with("#[cfg(test)]") && !l.starts_with("#![cfg(test)]"))
            .count();
        assert!(
            lines <= FILE_LINE_BUDGET,
            "{rel} has {lines} non-test lines, over the {FILE_LINE_BUDGET}-line budget"
        );
        seen += 1;
    }
    assert!(seen > 50, "found only {seen} sources under crates/*/src");
}
