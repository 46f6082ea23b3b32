//! Regression-seed corpus replay: every `tests/corpus/*.seed` file names a
//! scenario seed the conformance harness must agree on forever (the file
//! format is in `tests/common`).
//!
//! Add a new seed by dropping a file here — no code change needed. That
//! the oracle catches a minted credit is shown by the `phantom-credit` row
//! of the mutation ledger (`tools/mutants.tsv`), which this replay kills.

mod common;

use common::load_corpus;
use mmr_conform::{run_scenario, Hooks, Scenario};

#[test]
fn corpus_seeds_replay_as_recorded() {
    for case in load_corpus() {
        let scenario = Scenario::generate(case.seed);
        let run = run_scenario(&scenario, Hooks::default());
        assert_eq!(
            !run.is_clean(),
            case.expect_divergent,
            "{}: seed {:#x} expected {} but got divergences {:?}",
            case.name,
            case.seed,
            if case.expect_divergent { "divergent" } else { "clean" },
            run.divergences,
        );
        // Overload-path pins: the seed must keep driving the shed /
        // upgrade machinery, not just replay cleanly without it.
        if let Some(min) = case.min_preempted {
            assert!(
                run.preempted >= min,
                "{}: seed {:#x} preempted {} session(s), corpus requires >= {min}",
                case.name,
                case.seed,
                run.preempted,
            );
        }
        if let Some(min) = case.min_upgrades {
            assert!(
                run.upgraded >= min,
                "{}: seed {:#x} granted {} upgrade(s), corpus requires >= {min}",
                case.name,
                case.seed,
                run.upgraded,
            );
        }
    }
}
