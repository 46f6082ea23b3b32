//! Ablation experiments over the design trade-offs the paper discusses
//! (A1–A6 in DESIGN.md).
//!
//! Every sweep fans its independent simulation points through
//! [`SweepOptions::run_indexed`]; the workload seeds are fixed per point, so
//! the emitted tables are identical at any `--jobs` setting.

use mmr_core::arbiter::ArbiterKind;
use mmr_core::router::RouterConfig;
use mmr_core::vcm::BankTimingModel;
use mmr_sim::sweep::SweepOptions;
use mmr_sim::{Bandwidth, FlitTiming, SweepTable};
use mmr_traffic::driver::Experiment;
use mmr_traffic::rates::scaled_rate_ladder;

use crate::{run_point, Quality, FIGURE_SEED};

/// A1 — link speed: 155 / 622 / 1240 Mbps behave "qualitatively the same"
/// (§5). The rate ladder is scaled with the link so offered load is
/// comparable.
pub fn link_speed(quality: &Quality, opts: &SweepOptions) -> SweepTable {
    let speeds = [("155 Mbps", 0.155, 0.125), ("622 Mbps", 0.622, 0.5), ("1.24 Gbps", 1.24, 1.0)];
    let mut points = Vec::new();
    for (name, gbps, scale) in speeds {
        for &load in &quality.loads {
            points.push((name, gbps, scale, load));
        }
    }
    let results = opts.run_indexed(points.len(), |i| {
        let (_, gbps, scale, load) = points[i];
        let timing = FlitTiming::new(128, Bandwidth::from_gbps(gbps));
        Experiment::new(RouterConfig::paper_default().timing(timing).candidates(4), load)
            .ladder(scaled_rate_ladder(scale).to_vec())
            .windows(quality.warmup, quality.measure)
            .seed(FIGURE_SEED)
            .run()
    });
    let mut table = SweepTable::new("A1 — jitter (cycles) vs load across link speeds, biased 4C");
    for ((name, _, _, load), r) in points.iter().zip(&results) {
        // Index rows by the target load so the three speeds align.
        table.push(name, *load, r.mean_jitter_cycles);
    }
    table
}

/// A2 — candidate count 1–8 vs switch utilization at 90% offered load.
pub fn candidates(quality: &Quality, opts: &SweepOptions) -> SweepTable {
    let mut points = Vec::new();
    for c in [1usize, 2, 3, 4, 6, 8] {
        for (name, kind) in
            [("biased", ArbiterKind::BiasedPriority), ("fixed", ArbiterKind::FixedPriority)]
        {
            points.push((c, name, kind));
        }
    }
    let results = opts.run_indexed(points.len(), |i| {
        let (c, _, kind) = points[i];
        run_point(RouterConfig::paper_default().candidates(c).arbiter(kind), 0.9, quality)
    });
    let mut table = SweepTable::new("A2 — utilization vs candidate count at 90% offered load");
    for ((c, name, _), r) in points.iter().zip(&results) {
        table.push(name, *c as f64, r.utilization);
    }
    table
}

/// A3 — the round multiplier K: allocation granularity vs jitter (§4.1:
/// "a greater value of K provides a higher flexibility for bandwidth
/// allocation. However, it may increase jitter").
pub fn round_k(quality: &Quality, opts: &SweepOptions) -> SweepTable {
    let ks = [2u32, 4, 8, 16];
    let results = opts.run_indexed(ks.len(), |i| {
        run_point(RouterConfig::paper_default().round_k(ks[i]).candidates(4), 0.8, quality)
    });
    let mut table = SweepTable::new("A3 — round factor K at 80% load (biased 4C)");
    for (&k, r) in ks.iter().zip(&results) {
        let granularity =
            mmr_core::RoundConfig::new(256, k).granularity(FlitTiming::paper_default()).mbps();
        table.push("jitter (cycles)", f64::from(k), r.mean_jitter_cycles);
        table.push("delay (cycles)", f64::from(k), r.mean_delay_cycles);
        table.push("granularity (Mbps)", f64::from(k), granularity);
    }
    table
}

/// A4 — virtual channels per port vs delay/jitter at 80% load. Fewer VCs
/// admit fewer connections, so the achieved load may fall short at the low
/// end — exactly the trade-off of supporting "a large number of
/// connections".
pub fn vc_count(quality: &Quality, opts: &SweepOptions) -> SweepTable {
    let vc_counts = [32u16, 64, 128, 256, 512];
    let results = opts.run_indexed(vc_counts.len(), |i| {
        run_point(
            RouterConfig::paper_default().vcs_per_port(vc_counts[i]).candidates(4),
            0.8,
            quality,
        )
    });
    let mut table = SweepTable::new("A4 — VCs per port at 80% target load (biased 4C)");
    for (&vcs, r) in vc_counts.iter().zip(&results) {
        table.push("achieved load", f64::from(vcs), r.offered_load);
        table.push("delay (cycles)", f64::from(vcs), r.mean_delay_cycles);
        table.push("jitter (cycles)", f64::from(vcs), r.mean_jitter_cycles);
    }
    table
}

/// A5 — VCM bank count: the analytic sustainable-bandwidth model of §3.2
/// plus measured bank-budget violations in simulation.
pub fn vcm_banks(quality: &Quality, opts: &SweepOptions) -> SweepTable {
    let bank_counts = [1usize, 2, 4, 8, 16];
    let results = opts.run_indexed(bank_counts.len(), |i| {
        run_point(RouterConfig::paper_default().vcm_banks(bank_counts[i]).candidates(4), 0.8, quality)
    });
    let mut table =
        SweepTable::new("A5 — VCM banks: analytic headroom and measured conflicts (80% load)");
    for (&banks, r) in bank_counts.iter().zip(&results) {
        let model = BankTimingModel { banks, word_bits: 128, access_ns: 50.0 };
        let headroom = model.peak_bandwidth().bits_per_sec()
            / (2.0 * FlitTiming::paper_default().link_rate().bits_per_sec());
        table.push("duplex headroom (x)", banks as f64, headroom);
        table.push(
            "conflicts / kflit",
            banks as f64,
            r.bank_conflicts as f64 / (r.flits_measured as f64 / 1e3).max(1e-9),
        );
    }
    table
}

/// A6 — candidate-selection policy: rotating scan vs priority-sorted
/// (see `CandidatePolicy` for the trade-off).
pub fn candidate_policy(quality: &Quality, opts: &SweepOptions) -> SweepTable {
    let mut points = Vec::new();
    for (name, config) in crate::candidate_policy_configs() {
        for &load in &quality.loads {
            points.push((name, config.clone(), load));
        }
    }
    let results = opts.run_indexed(points.len(), |i| {
        let (_, config, load) = &points[i];
        run_point(config.clone().candidates(8), *load, quality)
    });
    let mut table = SweepTable::new("A6 — candidate policy (biased 8C): delay and jitter");
    for ((name, _, _), r) in points.iter().zip(&results) {
        table.push(&format!("{name} delay (cyc)"), r.offered_load, r.mean_delay_cycles);
        table.push(&format!("{name} jitter (cyc)"), r.offered_load, r.mean_jitter_cycles);
    }
    table
}

/// A7 — hardware feasibility (§6): the Chien-style cost model's scheduling
/// critical path vs the flit-cycle budget across candidate counts and VC
/// counts, in the paper's late-90s technology.
pub fn hardware_cost(_quality: &Quality) -> SweepTable {
    use mmr_core::cost::CostModel;
    let mut table =
        SweepTable::new("A7 — scheduling critical path (ns) vs candidates; budget 64-128 ns");
    for candidates in [1usize, 2, 4, 8] {
        for vcs in [64usize, 256, 1024] {
            let model = CostModel { candidates, vcs_per_port: vcs, ..CostModel::paper_default() };
            table.push(&format!("{vcs} VCs"), candidates as f64, model.schedule_time_ns());
        }
        let model = CostModel { candidates, ..CostModel::paper_default() };
        table.push(
            "max link rate (Gbps)",
            candidates as f64,
            model.max_link_rate(128).bits_per_sec() / 1e9,
        );
    }
    table
}
