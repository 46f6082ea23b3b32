//! Differential engine gate: the event-driven wake-set engine must be
//! observationally identical to the dense per-cycle reference (DESIGN.md
//! §9). Every regression-corpus scenario and every quick figure sweep is
//! run under both engines and the outputs compared — the corpus down to
//! the exact divergence list, the figures byte-for-byte on the rendered
//! tables. CI repeats this suite with `MMR_AUDIT=1` so the enforcing
//! invariant auditor watches both engines take identical steps.

use std::path::PathBuf;

use mmr_bench::{fig3_jitter, fig4_delay, fig5, Fig5Metric, Quality};
use mmr_conform::{parse_seed, run_scenario, Hooks, Scenario};
use mmr_sim::sweep::SweepOptions;

/// Loads `(name, seed, hooks)` for every corpus file, mirroring the
/// parser in `conformance_corpus.rs` for the keys the differential gate
/// cares about (seed and fault hooks; expectations are the other test's
/// business — here both engines just have to agree, clean or not).
fn corpus_seeds() -> Vec<(String, u64, Hooks)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("corpus");
    let mut cases: Vec<(String, u64, Hooks)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("corpus dir entry readable").path();
            if path.extension().is_none_or(|e| e != "seed") {
                return None;
            }
            let name =
                path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let mut seed = None;
            let mut hooks = Hooks::default();
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let Some((key, value)) = line.split_once('=') else { continue };
                match (key.trim(), value.trim()) {
                    ("seed", v) => seed = Some(parse_seed(v)),
                    ("bug", "phantom-credit") => hooks.phantom_credit = true,
                    _ => {}
                }
            }
            let seed = seed.unwrap_or_else(|| panic!("{name}: missing seed"));
            Some((name, seed, hooks))
        })
        .collect();
    cases.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(!cases.is_empty(), "corpus at {} is empty", dir.display());
    cases
}

/// Every corpus scenario — including the bug-hooked ones, which diverge
/// from the oracle on purpose — must produce the same `CaseRun` on both
/// engines, down to the exact divergence list.
#[test]
fn corpus_scenarios_agree_across_engines() {
    for (name, seed, hooks) in corpus_seeds() {
        let scenario = Scenario::generate(seed);
        let event = run_scenario(&scenario, hooks);
        let dense = run_scenario(&scenario, Hooks { dense_stepping: true, ..hooks });
        assert_eq!(event.admitted, dense.admitted, "{name}: admitted connections differ");
        assert_eq!(event.rejected, dense.rejected, "{name}: rejected connections differ");
        assert_eq!(event.injected, dense.injected, "{name}: injected flit counts differ");
        assert_eq!(event.delivered, dense.delivered, "{name}: delivered flit counts differ");
        assert_eq!(event.cycles_run, dense.cycles_run, "{name}: quiescence cycles differ");
        assert_eq!(event.divergences, dense.divergences, "{name}: divergence lists differ");
    }
}

fn engines() -> (SweepOptions, SweepOptions) {
    let event = SweepOptions::all_cores();
    (event, SweepOptions { dense: true, ..event })
}

/// Figure 3 panel (a), quick preset: byte-identical tables.
#[test]
fn fig3_quick_is_byte_identical_across_engines() {
    let quality = Quality::quick();
    let (event, dense) = engines();
    let a = format!("{}", fig3_jitter(&[1, 2], &quality, &event));
    let b = format!("{}", fig3_jitter(&[1, 2], &quality, &dense));
    assert_eq!(a, b, "fig3 differs between the event-driven and dense engines");
}

/// Figure 4, quick preset: byte-identical tables.
#[test]
fn fig4_quick_is_byte_identical_across_engines() {
    let quality = Quality::quick();
    let (event, dense) = engines();
    let a = format!("{}", fig4_delay(&[1, 2], &quality, &event));
    let b = format!("{}", fig4_delay(&[1, 2], &quality, &dense));
    assert_eq!(a, b, "fig4 differs between the event-driven and dense engines");
}

/// Figure 5 (all four scheduling algorithms, including Autonet/DEC and
/// the perfect switch), quick preset: byte-identical tables.
#[test]
fn fig5_quick_is_byte_identical_across_engines() {
    let quality = Quality::quick();
    let (event, dense) = engines();
    let a = format!("{}", fig5(Fig5Metric::Jitter, &quality, &event));
    let b = format!("{}", fig5(Fig5Metric::Jitter, &quality, &dense));
    assert_eq!(a, b, "fig5 differs between the event-driven and dense engines");
}
