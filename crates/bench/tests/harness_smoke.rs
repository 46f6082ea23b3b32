//! Smoke tests: every experiment in the harness runs end to end and
//! produces structurally sound output (tiny windows; shape assertions live
//! in the workspace integration tests).

use std::sync::OnceLock;

use mmr_bench::{ablations, extensions, paper, Paper, Quality};
use mmr_sim::sweep::SweepOptions;

fn tiny() -> Quality {
    Quality { warmup: 200, measure: 1_000, loads: vec![0.5] }
}

fn serial() -> SweepOptions {
    SweepOptions::serial()
}

/// The paper's grids on tiny windows, simulated once for every test here.
fn tiny_paper() -> &'static Paper {
    static PAPER: OnceLock<Paper> = OnceLock::new();
    PAPER.get_or_init(|| paper(&tiny(), &serial()))
}

#[test]
fn fig3_produces_one_series_per_scheme_and_candidate() {
    let table = &tiny_paper().fig3;
    let names: Vec<&str> = table.series_names().collect();
    let expected: Vec<String> =
        [1, 2, 4, 8].iter().flat_map(|c| [format!("{c}C biased"), format!("{c}C fixed")]).collect();
    assert_eq!(names, expected);
    for name in names {
        let pts = table.series(name).expect("series exists");
        assert_eq!(pts.len(), 1);
        assert!(pts[0].y.is_finite() && pts[0].y >= 0.0);
    }
}

#[test]
fn fig4_reports_microseconds() {
    let table = &tiny_paper().fig4;
    let pts = table.series("2C biased").expect("series exists");
    // At 50% load, delays are well under 10 us.
    assert!(pts[0].y < 10.0, "{}", pts[0].y);
}

#[test]
fn fig5_covers_all_four_algorithms() {
    for table in &tiny_paper().fig5 {
        let names: Vec<&str> = table.series_names().collect();
        assert_eq!(names, vec!["biased", "fixed", "DEC", "perfect"]);
    }
}

#[test]
fn claims_table_has_six_rows_and_renders() {
    let paper = tiny_paper();
    assert_eq!(paper.claims.len(), 6);
    let [.., (name, text)] = paper.files(false);
    assert_eq!(name, "claims.txt");
    for row in &paper.claims {
        assert!(text.contains(row.id));
    }
}

#[test]
fn ablations_run_on_tiny_windows() {
    assert!(ablations::round_k(&tiny(), &serial()).series_names().count() >= 3);
    assert!(ablations::vcm_banks(&tiny(), &serial()).series_names().count() >= 2);
    assert!(ablations::hardware_cost(&tiny()).series_names().count() >= 4);
    assert!(ablations::candidate_policy(&tiny(), &serial()).series_names().count() == 4);
}

#[test]
fn extensions_run_on_tiny_inputs() {
    let epb = extensions::epb_vs_greedy(2, &serial());
    assert!(epb.series_names().count() >= 4);
    let faults = extensions::fault_recovery(2, &serial());
    assert!(faults.series("recovery rate").is_some());
    let latency = extensions::setup_latency(2, &serial());
    assert!(latency.series_names().count() >= 2);
}
