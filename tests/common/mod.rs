//! The regression-seed corpus under `tests/corpus`: one loader for every
//! suite that replays it.
//!
//! A corpus file is a `key = value` text file:
//!
//! ```text
//! seed = 0x3eba97c76cdf7bd6   # decimal, hex, or mnemonic (hashed)
//! expect = clean              # or: divergent
//! min-preempted = 1           # optional: replay must shed >= N sessions
//! min-upgrades = 1            # optional: replay must upgrade >= N times
//! ```
// Each test binary compiles its own copy of this module and reads only the
// fields it checks.
#![allow(dead_code)]

use std::path::PathBuf;

use mmr_conform::parse_seed;

/// One parsed corpus entry.
pub struct CorpusCase {
    /// The file's stem.
    pub name: String,
    /// The scenario seed.
    pub seed: u64,
    /// Whether the replay must diverge.
    pub expect_divergent: bool,
    /// Sessions the replay must shed, at least.
    pub min_preempted: Option<u64>,
    /// Upgrades the replay must grant, at least.
    pub min_upgrades: Option<u64>,
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

/// Every corpus file, parsed, in name order.
pub fn load_corpus() -> Vec<CorpusCase> {
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
