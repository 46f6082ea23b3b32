//! Measurement machinery for the evaluation.
//!
//! The paper's two headline metrics (§5) are:
//!
//! * **Delay** — "the difference between the times a flit is ready to be
//!   transmitted through the switch and the time it actually leaves the
//!   switch", reported in microseconds (Figure 4/5) or flit cycles.
//! * **Jitter** — "the difference in the delays of successive flits on a
//!   connection", reported in flit cycles (Figures 3/5) and "averaged over a
//!   large range of connection speeds", i.e. each connection contributes its
//!   own mean jitter and connections are weighted equally.
//!
//! [`DelayJitterRecorder`] implements exactly that, plus a flit-weighted
//! variant for sensitivity analysis. [`Warmup`] gates measurement until
//! steady state, [`SweepTable`] assembles the figure series.

use std::fmt;

use crate::units::Cycles;

/// Streaming count/mean/min/max over `f64` samples (Welford).
///
/// # Example
///
/// ```
/// use mmr_sim::Accumulator;
///
/// let mut acc = Accumulator::new();
/// for x in [1.0, 2.0, 3.0] {
///     acc.record(x);
/// }
/// assert_eq!(acc.mean(), 2.0);
/// assert_eq!(acc.count(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    /// Sum of squared deviations. Nothing reads it, but it is part of the
    /// `Debug` form that pinned transcripts hash.
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// For tests: smallest sample; `None` when empty.
    #[doc(hidden)]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// For tests: largest sample; `None` when empty.
    #[doc(hidden)]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A fixed-width-bin histogram over non-negative samples.
///
/// Values at or above the top edge land in no bin but still count toward
/// the total, so tails are never silently dropped.
#[derive(Debug, Clone)]
pub struct Histogram {
    bin_width: f64,
    bins: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of `bin_width` each.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not positive or `bins` is zero.
    pub fn new(bin_width: f64, bins: usize) -> Self {
        // mmr-lint: allow(P-TRANS, reason="construction-time config validation; unreachable from the per-cycle path")
        assert!(bin_width > 0.0, "bin width must be positive");
        assert!(bins > 0, "need at least one bin"); // mmr-lint: allow(P-TRANS, reason="construction-time config validation; unreachable from the per-cycle path")
        Histogram { bin_width, bins: vec![0; bins], total: 0 }
    }

    /// Records one sample. Negative samples count into bin 0.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        let idx = (x.max(0.0) / self.bin_width) as usize;
        if idx < self.bins.len() {
            // mmr-lint: allow(P-TRANS, reason="idx is range-checked against the bin count on the line above")
            self.bins[idx] += 1;
        }
    }

    /// For tests: the count in bin `i`.
    #[doc(hidden)]
    pub fn bin(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// For tests: the count of samples beyond the last bin.
    #[doc(hidden)]
    pub fn overflow(&self) -> u64 {
        self.total - self.bins.iter().sum::<u64>()
    }

    /// For tests: the samples recorded.
    #[doc(hidden)]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Approximate quantile (`q` in `[0,1]`) using bin upper edges.
    /// Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some((i as f64 + 1.0) * self.bin_width);
            }
        }
        Some(self.bins.len() as f64 * self.bin_width)
    }
}

/// Identifier used by the recorder to tell connections apart.
pub type FlowId = u32;

/// Tail percentiles of a metric: the p50/p95/p99 columns the overload
/// experiments report instead of means (tails are what admission control
/// protects).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailSummary {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl TailSummary {
    /// Reads p50/p95/p99 from a histogram; `None` when it is empty.
    pub fn from_histogram(h: &Histogram) -> Option<TailSummary> {
        Some(TailSummary {
            p50: h.quantile(0.50)?,
            p95: h.quantile(0.95)?,
            p99: h.quantile(0.99)?,
        })
    }
}

/// Geometry of the recorder's tail histograms: 1-cycle bins up to 4096
/// cycles, overflow beyond. The quantile of an overflowing tail saturates
/// at the top edge, so a pathological run reports "≥ 4096" rather than a
/// made-up number — and never allocates in the hot path.
const TAIL_BIN_WIDTH: f64 = 1.0;
const TAIL_BINS: usize = 4096;

/// Per-connection delay/jitter bookkeeping implementing the paper's metrics.
///
/// Feed it `(flow, delay_in_cycles)` for every flit that leaves the switch;
/// read back mean delay (flit-weighted, like Figure 4) and mean jitter
/// (connection-weighted mean of |Δdelay| between successive flits, like
/// Figure 3).
#[derive(Debug, Clone)]
pub struct DelayJitterRecorder {
    delay: Accumulator,
    /// Per-flow state, indexed directly by [`FlowId`] (flow ids are dense,
    /// router-assigned connection ids). Ascending-index iteration preserves
    /// the ascending-key order of the `BTreeMap` this replaced, so every
    /// float reduction visits flows in the same order.
    per_flow: Vec<Option<FlowJitter>>,
    /// Fixed-bin delay histogram (all flits pooled) for tail percentiles.
    delay_hist: Histogram,
    /// Fixed-bin |Δdelay| histogram (flit-weighted, all flows pooled).
    jitter_hist: Histogram,
}

impl Default for DelayJitterRecorder {
    fn default() -> Self {
        DelayJitterRecorder {
            delay: Accumulator::new(),
            per_flow: Vec::new(),
            delay_hist: Histogram::new(TAIL_BIN_WIDTH, TAIL_BINS),
            jitter_hist: Histogram::new(TAIL_BIN_WIDTH, TAIL_BINS),
        }
    }
}

#[derive(Debug, Clone)]
struct FlowJitter {
    last_delay: f64,
    jitter: Accumulator,
}

impl DelayJitterRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that a flit of `flow` experienced `delay` flit cycles of
    /// switch delay.
    // mmr-lint: hot
    pub fn record(&mut self, flow: FlowId, delay: Cycles) {
        let d = delay.as_f64();
        self.delay.record(d);
        self.delay_hist.record(d);
        let idx = flow as usize;
        if idx >= self.per_flow.len() {
            // mmr-lint: allow(A-PUSH, reason="amortized: grows once per newly seen flow, then stays flat for the run")
            self.per_flow.resize(idx + 1, None);
        }
        // mmr-lint: allow(P-TRANS, reason="the per-flow table was just resized past idx when the flow is new")
        match &mut self.per_flow[idx] {
            Some(f) => {
                let dj = (d - f.last_delay).abs();
                f.jitter.record(dj);
                self.jitter_hist.record(dj);
                f.last_delay = d;
            }
            slot => {
                *slot = Some(FlowJitter { last_delay: d, jitter: Accumulator::new() });
            }
        }
    }

    /// Flit-weighted mean delay in flit cycles (the Figure 4 y-axis before
    /// the cycles→µs conversion).
    pub fn mean_delay_cycles(&self) -> f64 {
        self.delay.mean()
    }

    /// Total flits recorded.
    pub fn flits(&self) -> u64 {
        self.delay.count()
    }

    /// Connection-weighted mean jitter in flit cycles (the Figure 3 y-axis):
    /// each connection contributes the mean |Δdelay| of its successive
    /// flits, and connections with at least two flits are averaged equally.
    pub fn mean_jitter_cycles(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u64;
        for f in self.per_flow.iter().flatten() {
            if f.jitter.count() > 0 {
                sum += f.jitter.mean();
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// For tests: the flit-weighted mean jitter (every |Δdelay| sample weighted equally).
    #[doc(hidden)]
    pub fn mean_jitter_cycles_flit_weighted(&self) -> f64 {
        let mut all = Accumulator::new();
        for f in self.per_flow.iter().flatten() {
            all.merge(&f.jitter);
        }
        all.mean()
    }

    /// p50/p95/p99 switch delay in cycles; `None` before the first flit.
    /// Values saturate at the histogram's 4096-cycle top edge.
    pub fn delay_tail(&self) -> Option<TailSummary> {
        TailSummary::from_histogram(&self.delay_hist)
    }

    /// p50/p95/p99 of the flit-weighted |Δdelay| jitter samples; `None`
    /// until some flow has produced two flits.
    pub fn jitter_tail(&self) -> Option<TailSummary> {
        TailSummary::from_histogram(&self.jitter_hist)
    }

    /// For tests: the mean jitter of one connection, if it produced two flits or more.
    #[doc(hidden)]
    pub fn flow_jitter(&self, flow: FlowId) -> Option<f64> {
        let f = self.per_flow.get(flow as usize)?.as_ref()?;
        (f.jitter.count() > 0).then(|| f.jitter.mean())
    }

    /// For tests: the connections that have produced a flit.
    #[doc(hidden)]
    pub fn flows(&self) -> usize {
        self.per_flow.iter().flatten().count()
    }
}

/// Warm-up gating: measurement starts only after the warm-up window.
///
/// The paper runs "until steady state was reached and statistics gathered
/// over approximately 100,000 router cycles".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Warmup {
    until: Cycles,
}

impl Warmup {
    /// Creates a warm-up window ending at `until`.
    pub fn until(until: Cycles) -> Self {
        Warmup { until }
    }

    /// Whether cycle `now` is inside the measured region.
    pub fn measuring(self, now: Cycles) -> bool {
        now >= self.until
    }
}

/// One measured point of a figure series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The x value (offered load for every figure in the paper).
    pub x: f64,
    /// The y value (delay or jitter).
    pub y: f64,
}

/// A named series of (x, y) points plus a table assembler, used by the
/// benchmark harness to print figures in the same layout as the paper.
///
/// # Example
///
/// ```
/// use mmr_sim::SweepTable;
///
/// let mut t = SweepTable::new("jitter (cycles)");
/// t.push("biased", 0.5, 0.1);
/// t.push("fixed", 0.5, 0.4);
/// let text = t.render();
/// assert!(text.contains("biased"));
/// assert!(text.contains("0.5"));
/// ```
#[derive(Debug, Clone)]
pub struct SweepTable {
    metric: String,
    series: Vec<(String, Vec<SweepPoint>)>,
}

impl SweepTable {
    /// Creates an empty table for a metric (the y-axis label).
    pub fn new(metric: impl Into<String>) -> Self {
        SweepTable { metric: metric.into(), series: Vec::new() }
    }

    /// Appends a point to the named series, creating the series on first use.
    pub fn push(&mut self, series: &str, x: f64, y: f64) {
        match self.series.iter_mut().find(|(name, _)| name == series) {
            Some((_, pts)) => pts.push(SweepPoint { x, y }),
            None => self.series.push((series.to_owned(), vec![SweepPoint { x, y }])),
        }
    }

    /// The metric label.
    pub fn metric(&self) -> &str {
        &self.metric
    }

    /// Series names in insertion order.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.series.iter().map(|(n, _)| n.as_str())
    }

    /// Points of one series.
    pub fn series(&self, name: &str) -> Option<&[SweepPoint]> {
        self.series.iter().find(|(n, _)| n == name).map(|(_, p)| p.as_slice())
    }

    /// Renders an aligned text table: one row per x, one column per series.
    pub fn render(&self) -> String {
        let mut xs: Vec<f64> = Vec::new();
        for (_, pts) in &self.series {
            for p in pts {
                if !xs.iter().any(|x| (x - p.x).abs() < 1e-9) {
                    xs.push(p.x);
                }
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("loads are finite"));

        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.metric));
        out.push_str(&format!("{:>10}", "load"));
        for (name, _) in &self.series {
            out.push_str(&format!(" {name:>14}"));
        }
        out.push('\n');
        for x in xs {
            out.push_str(&format!("{x:>10.3}"));
            for (_, pts) in &self.series {
                match pts.iter().find(|p| (p.x - x).abs() < 1e-9) {
                    Some(p) => out.push_str(&format!(" {:>14.4}", p.y)),
                    None => out.push_str(&format!(" {:>14}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for SweepTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_moments() {
        let mut acc = Accumulator::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            acc.record(x);
        }
        assert_eq!(acc.count(), 8);
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        assert_eq!(acc.min(), Some(2.0));
        assert_eq!(acc.max(), Some(9.0));
    }

    #[test]
    fn accumulator_empty_is_benign() {
        let acc = Accumulator::new();
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.min(), None);
        assert_eq!(acc.max(), None);
    }

    #[test]
    fn accumulator_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37).collect();
        let mut whole = Accumulator::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &x in &xs[..37] {
            left.record(x);
        }
        for &x in &xs[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(1.0, 4);
        for x in [0.5, 1.5, 1.7, 3.9, 4.0, 100.0] {
            h.record(x);
        }
        assert_eq!(h.bin(0), 1);
        assert_eq!(h.bin(1), 2);
        assert_eq!(h.bin(3), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_quantile() {
        let mut h = Histogram::new(1.0, 10);
        for i in 0..100 {
            h.record(i as f64 / 10.0); // 0.0..9.9 uniformly
        }
        let q50 = h.quantile(0.5).expect("non-empty");
        assert!((q50 - 5.0).abs() <= 1.0, "median approx {q50}");
        assert!(Histogram::new(1.0, 2).quantile(0.5).is_none());
    }

    #[test]
    fn delay_and_jitter_basic() {
        let mut r = DelayJitterRecorder::new();
        // Flow 0: delays 1, 3, 2 -> jitter samples |2|, |1| -> mean 1.5.
        r.record(0, Cycles(1));
        r.record(0, Cycles(3));
        r.record(0, Cycles(2));
        // Flow 1: constant delay -> zero jitter.
        r.record(1, Cycles(5));
        r.record(1, Cycles(5));
        assert_eq!(r.flits(), 5);
        assert_eq!(r.flows(), 2);
        assert!((r.mean_delay_cycles() - 16.0 / 5.0).abs() < 1e-12);
        assert!((r.flow_jitter(0).expect("two+ flits") - 1.5).abs() < 1e-12);
        assert_eq!(r.flow_jitter(1), Some(0.0));
        // Connection-weighted: (1.5 + 0.0) / 2.
        assert!((r.mean_jitter_cycles() - 0.75).abs() < 1e-12);
        // Flit-weighted: (2 + 1 + 0) / 3.
        assert!((r.mean_jitter_cycles_flit_weighted() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentiles_track_the_distribution() {
        let mut r = DelayJitterRecorder::new();
        assert_eq!(r.delay_tail(), None);
        assert_eq!(r.jitter_tail(), None);
        // 100 flits on one flow with delays 0..99: p50 ≈ 50, p99 ≈ 99,
        // and |Δdelay| is constantly 1 so the jitter tail collapses.
        for d in 0..100 {
            r.record(0, Cycles(d));
        }
        let delay = r.delay_tail().expect("non-empty");
        assert!((delay.p50 - 50.0).abs() <= 1.0, "p50 {}", delay.p50);
        assert!((delay.p95 - 95.0).abs() <= 1.0, "p95 {}", delay.p95);
        assert!((delay.p99 - 99.0).abs() <= 1.0, "p99 {}", delay.p99);
        let jitter = r.jitter_tail().expect("two+ flits");
        assert_eq!(jitter.p50, jitter.p99, "constant jitter has a flat tail");
    }

    #[test]
    fn tail_overflow_saturates_at_top_edge() {
        let mut r = DelayJitterRecorder::new();
        r.record(0, Cycles(1_000_000));
        let delay = r.delay_tail().expect("non-empty");
        assert_eq!(delay.p99, 4096.0, "overflow reports the top edge, not garbage");
    }

    #[test]
    fn single_flit_flow_has_no_jitter_sample() {
        let mut r = DelayJitterRecorder::new();
        r.record(7, Cycles(4));
        assert_eq!(r.flow_jitter(7), None);
        assert_eq!(r.mean_jitter_cycles(), 0.0);
    }

    #[test]
    fn warmup_gates_measurement() {
        let w = Warmup::until(Cycles(100));
        assert!(!w.measuring(Cycles(99)));
        assert!(w.measuring(Cycles(100)));
        assert!(w.measuring(Cycles(101)));
    }

    #[test]
    fn sweep_table_renders_aligned_rows() {
        let mut t = SweepTable::new("delay (us)");
        for load in [0.2, 0.4] {
            t.push("biased", load, load * 0.1);
            t.push("fixed", load, load * 0.5);
        }
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header comment + column header + 2 rows
        assert!(lines[1].contains("biased") && lines[1].contains("fixed"));
        assert!(lines[2].trim_start().starts_with("0.200"));
        assert_eq!(t.series("biased").map(<[SweepPoint]>::len), Some(2));
        assert_eq!(t.series("missing"), None);
        assert_eq!(t.series_names().count(), 2);
    }

    #[test]
    fn sweep_table_handles_missing_points() {
        let mut t = SweepTable::new("m");
        t.push("a", 0.1, 1.0);
        t.push("b", 0.2, 2.0);
        let text = t.render();
        assert!(text.contains('-'), "missing cells render as dashes:\n{text}");
    }
}
