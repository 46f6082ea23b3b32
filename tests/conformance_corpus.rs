//! Regression-seed corpus replay: every `tests/corpus/*.seed` file names a
//! scenario seed the conformance harness must agree on forever.
//!
//! A corpus file is a `key = value` text file:
//!
//! ```text
//! seed = 0x3eba97c76cdf7bd6   # decimal, hex, or mnemonic (hashed)
//! expect = clean              # or: divergent
//! min-preempted = 1           # optional: replay must shed >= N sessions
//! min-upgrades = 1            # optional: replay must upgrade >= N times
//! ```
//!
//! Add a new seed by dropping a file here — no code change needed. That
//! the oracle catches a minted credit is shown by the `phantom-credit` row
//! of the mutation ledger (`tools/mutants.tsv`), which this replay kills.

use std::path::PathBuf;

use mmr_conform::{parse_seed, run_scenario, Hooks, Scenario};

/// One parsed corpus entry.
struct CorpusCase {
    name: String,
    seed: u64,
    expect_divergent: bool,
    min_preempted: Option<u64>,
    min_upgrades: Option<u64>,
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("corpus")
}

fn parse_corpus_file(name: &str, text: &str) -> CorpusCase {
    let mut seed = None;
    let mut expect_divergent = false;
    let mut min_preempted = None;
    let mut min_upgrades = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .unwrap_or_else(|| panic!("{name}: malformed line (want `key = value`): {line}"));
        let (key, value) = (key.trim(), value.trim());
        match key {
            "seed" => seed = Some(parse_seed(value)),
            "expect" => match value {
                "clean" => expect_divergent = false,
                "divergent" => expect_divergent = true,
                other => panic!("{name}: expect must be clean|divergent, got {other}"),
            },
            "min-preempted" => {
                min_preempted =
                    Some(value.parse().unwrap_or_else(|_| panic!("{name}: bad min-preempted")));
            }
            "min-upgrades" => {
                min_upgrades =
                    Some(value.parse().unwrap_or_else(|_| panic!("{name}: bad min-upgrades")));
            }
            other => panic!("{name}: unknown key {other}"),
        }
    }
    CorpusCase {
        name: name.to_string(),
        seed: seed.unwrap_or_else(|| panic!("{name}: missing seed")),
        expect_divergent,
        min_preempted,
        min_upgrades,
    }
}

fn load_corpus() -> Vec<CorpusCase> {
    let dir = corpus_dir();
    let mut cases: Vec<CorpusCase> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("corpus dir entry readable").path();
            if path.extension().is_some_and(|e| e == "seed") {
                let name =
                    path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
                Some(parse_corpus_file(&name, &text))
            } else {
                None
            }
        })
        .collect();
    cases.sort_by(|a, b| a.name.cmp(&b.name));
    assert!(!cases.is_empty(), "corpus at {} is empty", dir.display());
    cases
}

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
