//! Smoke tests: every experiment in the harness runs end to end and
//! produces structurally sound output (tiny windows; shape assertions live
//! in the workspace integration tests).

use mmr_bench::{
    ablations, claims_table, extensions, fig3_jitter, fig4_delay, fig5, render_claims,
    Fig5Metric, Quality,
};
use mmr_sim::sweep::SweepOptions;

fn tiny() -> Quality {
    Quality { warmup: 200, measure: 1_000, loads: vec![0.5] }
}

fn serial() -> SweepOptions {
    SweepOptions::serial()
}

#[test]
fn fig3_produces_one_series_per_scheme_and_candidate() {
    let table = fig3_jitter(&[1, 4], &tiny(), &serial());
    let names: Vec<&str> = table.series_names().collect();
    assert_eq!(names, vec!["1C biased", "1C fixed", "4C biased", "4C fixed"]);
    for name in names {
        let pts = table.series(name).expect("series exists");
        assert_eq!(pts.len(), 1);
        assert!(pts[0].y.is_finite() && pts[0].y >= 0.0);
    }
}

#[test]
fn fig4_reports_microseconds() {
    let table = fig4_delay(&[2], &tiny(), &serial());
    let pts = table.series("2C biased").expect("series exists");
    // At 50% load, delays are well under 10 us.
    assert!(pts[0].y < 10.0, "{}", pts[0].y);
}

#[test]
fn fig5_covers_all_four_algorithms() {
    let table = fig5(Fig5Metric::Jitter, &tiny(), &serial());
    let names: Vec<&str> = table.series_names().collect();
    assert_eq!(names, vec!["biased", "fixed", "DEC", "perfect"]);
}

#[test]
fn claims_table_has_six_rows_and_renders() {
    let rows = claims_table(&tiny(), &serial());
    assert_eq!(rows.len(), 6);
    let text = render_claims(&rows);
    for row in &rows {
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

#[test]
fn replication_reports_mean_and_stderr() {
    use mmr_bench::replicate;
    use mmr_core::router::RouterConfig;
    let q = Quality { warmup: 200, measure: 1_000, loads: vec![] };
    let (mean, stderr) = replicate(
        RouterConfig::paper_default().vcs_per_port(32),
        0.6,
        &q,
        3,
        |r| r.mean_jitter_cycles,
    );
    assert!(mean > 0.0, "jitter exists at 60% load: {mean}");
    assert!(stderr >= 0.0 && stderr < mean * 2.0, "stderr sane: {stderr} vs {mean}");
}
