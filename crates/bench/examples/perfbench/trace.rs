//! Span recording at the layer boundaries, from the benchmark's side.
//!
//! Workload loops wrap every call into a public function of a layer in
//! [`Probe::time`]. Untraced runs use [`NoProbe`], whose `time` is the bare
//! call (monomorphized away), so the end-to-end numbers carry no
//! instrumentation. Traced runs use [`Tracer`], which reads the clock
//! around the call, aggregates per span (calls, total time, time inside
//! the measured window, per-call samples for the † spans), and keeps the
//! raw spans of the first [`RAW_CYCLES`] cycles in memory until the run
//! ends.
//!
//! Every layer span is a child of the per-cycle `cycle` span; the part of
//! the measured window no layer span covers is reported as
//! `bench.harness`, so the shares add up to one by construction.

use std::io::Write;
use std::time::Instant;

/// Raw spans are kept for this many simulated cycles of the first traced
/// window.
pub const RAW_CYCLES: u64 = 50_000;

/// A timed layer boundary: one public function (or one tight loop over
/// one) of the crate the name starts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Router::step_into`.
    CoreRouterStep,
    /// `CbrWorkload::pump` + `note_transmitted`.
    TrafficCbrPump,
    /// `NetworkSim::step`.
    NetStep,
    /// The pacer loop over `NetworkSim::inject` / `can_inject`.
    NetInject,
    /// `NetworkSim::send_packet`.
    NetSendPacket,
    /// `NetworkSim::establish` (EPB).
    NetEstablish,
    /// `NetworkSim::teardown`.
    NetTeardown,
    /// `AdmissionController::request`.
    AdmissionRequest,
    /// `AdmissionController::service`.
    AdmissionService,
    /// `AdmissionController::close`.
    AdmissionClose,
    /// `NetworkSim::link_load`.
    NetLinkLoad,
    /// `FaultInjector::poll` (fail/repair + routing reconvergence).
    FaultPoll,
    /// `RecoveryManager::on_faults`.
    RecoveryOnFaults,
    /// `RecoveryManager::service`.
    RecoveryService,
    /// The `DelayJitterRecorder::record` loop (harness-side statistics).
    SimRecorder,
}

impl Span {
    /// Every span, in reporting order.
    pub const ALL: [Span; 15] = [
        Span::CoreRouterStep,
        Span::TrafficCbrPump,
        Span::NetStep,
        Span::NetInject,
        Span::NetSendPacket,
        Span::NetEstablish,
        Span::NetTeardown,
        Span::AdmissionRequest,
        Span::AdmissionService,
        Span::AdmissionClose,
        Span::NetLinkLoad,
        Span::FaultPoll,
        Span::RecoveryOnFaults,
        Span::RecoveryService,
        Span::SimRecorder,
    ];

    /// The metric prefix: `<layer>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Span::CoreRouterStep => "core.router.step",
            Span::TrafficCbrPump => "traffic.cbr.pump",
            Span::NetStep => "net.step",
            Span::NetInject => "net.inject",
            Span::NetSendPacket => "net.send_packet",
            Span::NetEstablish => "net.establish",
            Span::NetTeardown => "net.teardown",
            Span::AdmissionRequest => "admission.request",
            Span::AdmissionService => "admission.service",
            Span::AdmissionClose => "admission.close",
            Span::NetLinkLoad => "net.link_load",
            Span::FaultPoll => "fault.poll",
            Span::RecoveryOnFaults => "recovery.on_faults",
            Span::RecoveryService => "recovery.service",
            Span::SimRecorder => "sim.recorder",
        }
    }

    /// Whether per-call durations are kept for `p50_ns` / `p99_ns` (the †
    /// spans: rare, expensive control-plane calls whose tail matters).
    pub fn sampled(self) -> bool {
        matches!(
            self,
            Span::NetEstablish
                | Span::NetTeardown
                | Span::AdmissionRequest
                | Span::AdmissionClose
                | Span::FaultPoll
        )
    }
}

/// What a workload loop reports to. Static dispatch: a loop instantiated
/// with [`NoProbe`] contains no timing code at all.
pub trait Probe {
    /// Runs `f` as one instance of `span`.
    fn time<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        self.time_keep(span, f, |_| true)
    }
    /// [`Probe::time`], keeping the per-call sample only when `keep` says
    /// so (`fault.poll` samples only the ticks on which something failed
    /// or was repaired; a quiet poll is a cursor comparison).
    fn time_keep<R>(
        &mut self,
        span: Span,
        f: impl FnOnce() -> R,
        keep: impl FnOnce(&R) -> bool,
    ) -> R;
    /// Opens the per-cycle parent span of simulated cycle `cycle`.
    fn cycle_begin(&mut self, cycle: u64);
    /// Closes the per-cycle parent span.
    fn cycle_end(&mut self);
    /// The measured window opens: spans count toward shares from here.
    fn window_begin(&mut self);
    /// The measured window closed after `elapsed_ns` of host time.
    fn window_end(&mut self, elapsed_ns: u64);
}

/// The untraced probe: every method is the identity.
#[derive(Debug, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn time_keep<R>(
        &mut self,
        _span: Span,
        f: impl FnOnce() -> R,
        _keep: impl FnOnce(&R) -> bool,
    ) -> R {
        f()
    }
    #[inline(always)]
    fn cycle_begin(&mut self, _cycle: u64) {}
    #[inline(always)]
    fn cycle_end(&mut self) {}
    #[inline(always)]
    fn window_begin(&mut self) {}
    #[inline(always)]
    fn window_end(&mut self, _elapsed_ns: u64) {}
}

/// A nanosecond clock; the tests substitute a scripted one.
pub trait Clock {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&mut self) -> u64;
}

/// The host's monotonic clock.
#[derive(Debug)]
pub struct HostClock(Instant);

impl Default for HostClock {
    fn default() -> Self {
        HostClock(Instant::now())
    }
}

impl Clock for HostClock {
    #[inline]
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// What an empty span records, in nanoseconds: the median distance between
/// two back-to-back clock reads. Every recorded span is inflated by this
/// much, and [`Tracer::table`] subtracts it again; the rest of the clock's
/// cost falls between spans and is counted as harness time.
pub fn calibrate_timer_ns() -> f64 {
    let mut clock = HostClock::default();
    let mut batches: Vec<f64> = (0..31)
        .map(|_| {
            let mut inside = 0;
            for _ in 0..1_000 {
                let start = clock.now_ns();
                inside += std::hint::black_box(clock.now_ns()) - start;
            }
            inside as f64 / 1_000.0
        })
        .collect();
    median(&mut batches)
}

#[derive(Debug, Clone, Default)]
struct SpanAgg {
    calls: u64,
    total_ns: u64,
    window_calls: u64,
    window_ns: u64,
    samples: Vec<u64>,
}

/// One recorded span instance (kept only for the first [`RAW_CYCLES`]
/// cycles of the first traced window).
#[derive(Debug, Clone, Copy)]
struct RawSpan {
    /// `None` for a `cycle` span.
    span: Option<Span>,
    /// The simulated cycle (for `cycle` spans) or the index of the parent
    /// `cycle` span in the raw list (for layer spans).
    link: u64,
    start_ns: u64,
    end_ns: u64,
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// Metric prefix ([`Span::name`], or `bench.harness`).
    pub name: &'static str,
    /// Calls per episode, set-up included: total calls over the measured
    /// windows recorded. Every episode of a seed makes the same calls, so
    /// this repeats exactly however many episodes a run had time for.
    pub calls: f64,
    /// Mean host nanoseconds per call, timer cost removed.
    pub ns_per_call: f64,
    /// Share of the measured window spent inside this span.
    pub share: f64,
    /// `(p50, p99)` of the per-call samples, for the † spans (zeros when no
    /// call was sampled).
    pub tail_ns: Option<(f64, f64)>,
}

/// The recording probe.
#[derive(Debug)]
pub struct Tracer<C: Clock = HostClock> {
    clock: C,
    timer_ns: f64,
    aggs: Vec<SpanAgg>,
    in_window: bool,
    windows: u64,
    windows_ns: u64,
    raw: Vec<RawSpan>,
    raw_first_cycle: Option<u64>,
    /// Set once the first traced window has closed or run past its first
    /// [`RAW_CYCLES`] cycles: later cycles are aggregated only.
    raw_done: bool,
    /// Index into `raw` of the open `cycle` span, while raw recording is
    /// on.
    open_cycle: Option<usize>,
}

impl<C: Clock> Tracer<C> {
    /// A tracer reading `clock`, compensating `timer_ns` per recorded span.
    pub fn new(clock: C, timer_ns: f64) -> Self {
        Tracer {
            clock,
            timer_ns,
            aggs: vec![SpanAgg::default(); Span::ALL.len()],
            in_window: false,
            windows: 0,
            windows_ns: 0,
            raw: Vec::new(),
            raw_first_cycle: None,
            raw_done: false,
            open_cycle: None,
        }
    }

    /// The per-span clock cost this tracer compensates.
    pub fn timer_ns(&self) -> f64 {
        self.timer_ns
    }

    /// Calls of `span` and their timer-compensated total nanoseconds.
    pub fn totals(&self, span: Span) -> (u64, f64) {
        let agg = &self.aggs[span as usize];
        (
            agg.calls,
            (agg.total_ns as f64 - agg.calls as f64 * self.timer_ns).max(0.0),
        )
    }

    /// The aggregate table: one row per span plus `bench.harness`, the
    /// window time no span covers. Shares sum to one.
    pub fn table(&self) -> Vec<SpanRow> {
        let window = self.windows_ns.max(1) as f64;
        let mut covered = 0.0;
        let mut rows: Vec<SpanRow> = Span::ALL
            .iter()
            .map(|&span| {
                let agg = &self.aggs[span as usize];
                let (calls, total) = self.totals(span);
                let in_window =
                    (agg.window_ns as f64 - agg.window_calls as f64 * self.timer_ns).max(0.0);
                covered += in_window;
                let tail_ns = span.sampled().then(|| {
                    let mut sorted = agg.samples.clone();
                    sorted.sort_unstable();
                    let at = |q| match sorted.as_slice() {
                        [] => 0.0,
                        sorted => (percentile(sorted, q) as f64 - self.timer_ns).max(0.0),
                    };
                    (at(0.50), at(0.99))
                });
                SpanRow {
                    name: span.name(),
                    calls: calls as f64 / self.windows.max(1) as f64,
                    ns_per_call: if calls == 0 {
                        0.0
                    } else {
                        total / calls as f64
                    },
                    share: in_window / window,
                    tail_ns,
                }
            })
            .collect();
        rows.push(SpanRow {
            name: "bench.harness",
            calls: 0.0,
            ns_per_call: 0.0,
            share: (window - covered) / window,
            tail_ns: None,
        });
        rows
    }

    /// Writes the raw spans as JSON lines: `id`, `name`, `start_ns`,
    /// `end_ns`, `parent` (the id of the enclosing `cycle` span; `cycle`
    /// spans hang off the `window` root, id 0, which the first line
    /// describes).
    pub fn write_raw(&self, out: &mut impl Write) -> std::io::Result<()> {
        let (start, end) = match (self.raw.first(), self.raw.last()) {
            (Some(first), Some(last)) => (first.start_ns, last.end_ns),
            _ => (0, 0),
        };
        writeln!(
            out,
            "{{\"id\":0,\"name\":\"window\",\"start_ns\":{start},\"end_ns\":{end},\"parent\":null}}"
        )?;
        for (i, raw) in self.raw.iter().enumerate() {
            let (name, parent, cycle) = match raw.span {
                Some(span) => (span.name(), raw.link + 1, String::new()),
                None => ("cycle", 0, format!(",\"cycle\":{}", raw.link)),
            };
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}{cycle}}}",
                i + 1,
                raw.start_ns,
                raw.end_ns,
            )?;
        }
        Ok(())
    }
}

impl<C: Clock> Probe for Tracer<C> {
    #[inline]
    fn time_keep<R>(
        &mut self,
        span: Span,
        f: impl FnOnce() -> R,
        keep: impl FnOnce(&R) -> bool,
    ) -> R {
        let start = self.clock.now_ns();
        let result = f();
        let end = self.clock.now_ns();
        let ns = end - start;
        let agg = &mut self.aggs[span as usize];
        agg.calls += 1;
        agg.total_ns += ns;
        if self.in_window {
            agg.window_calls += 1;
            agg.window_ns += ns;
        }
        if span.sampled() && keep(&result) {
            agg.samples.push(ns);
        }
        if let Some(parent) = self.open_cycle {
            self.raw.push(RawSpan {
                span: Some(span),
                link: parent as u64,
                start_ns: start,
                end_ns: end,
            });
        }
        result
    }

    #[inline]
    fn cycle_begin(&mut self, cycle: u64) {
        if !self.in_window || self.raw_done {
            return;
        }
        let first = *self.raw_first_cycle.get_or_insert(cycle);
        if cycle - first >= RAW_CYCLES {
            self.raw_done = true;
            return;
        }
        let start = self.clock.now_ns();
        self.open_cycle = Some(self.raw.len());
        self.raw.push(RawSpan {
            span: None,
            link: cycle,
            start_ns: start,
            end_ns: start,
        });
    }

    #[inline]
    fn cycle_end(&mut self) {
        if let Some(index) = self.open_cycle.take() {
            let end = self.clock.now_ns();
            self.raw[index].end_ns = end;
        }
    }

    fn window_begin(&mut self) {
        self.in_window = true;
    }

    fn window_end(&mut self, elapsed_ns: u64) {
        self.in_window = false;
        self.windows += 1;
        self.windows_ns += elapsed_ns;
        self.raw_done = true;
        self.open_cycle = None;
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle pair for even counts). Sorts in
/// place.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A clock the test advances by hand.
    struct FakeClock(Rc<Cell<u64>>);

    impl Clock for FakeClock {
        fn now_ns(&mut self) -> u64 {
            self.0.get()
        }
    }

    #[test]
    fn shares_and_harness_sum_to_one() {
        let now = Rc::new(Cell::new(0u64));
        let tick = |ns: u64| now.set(now.get() + ns);
        let mut tracer = Tracer::new(FakeClock(Rc::clone(&now)), 0.0);
        // Set-up work is counted in calls but not in shares.
        tracer.time(Span::NetEstablish, || tick(700));
        tracer.window_begin();
        for cycle in 0..10 {
            tracer.cycle_begin(cycle);
            tracer.time(Span::NetInject, || tick(30));
            tick(7); // harness work between spans
            tracer.time(Span::NetStep, || tick(150));
            tracer.time(Span::SimRecorder, || tick(13));
            tracer.cycle_end();
        }
        tracer.window_end(10 * 200);
        let rows = tracer.table();
        let total: f64 = rows.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        let row = |name: &str| rows.iter().find(|r| r.name == name).expect("row");
        assert!((row("net.step").share - 0.75).abs() < 1e-9);
        assert!((row("net.inject").share - 0.15).abs() < 1e-9);
        assert!((row("bench.harness").share - 0.035).abs() < 1e-9);
        assert_eq!(row("net.step").calls, 10.0);
        assert_eq!(row("net.step").ns_per_call, 150.0);
        assert_eq!(row("net.establish").calls, 1.0);
        assert_eq!(row("net.establish").share, 0.0);
        assert_eq!(row("net.establish").tail_ns, Some((700.0, 700.0)));
        assert_eq!(
            row("net.step").tail_ns,
            None,
            "only the dagger spans keep samples"
        );
    }

    #[test]
    fn timer_cost_is_removed_from_spans_and_lands_in_the_harness() {
        let now = Rc::new(Cell::new(0u64));
        let mut tracer = Tracer::new(FakeClock(Rc::clone(&now)), 20.0);
        tracer.window_begin();
        for _ in 0..4 {
            tracer.time(Span::NetStep, || now.set(now.get() + 120));
        }
        tracer.window_end(4 * 120);
        let rows = tracer.table();
        assert_eq!(rows[Span::NetStep as usize].ns_per_call, 100.0);
        let harness = rows.last().expect("harness row");
        assert!((harness.share - 80.0 / 480.0).abs() < 1e-9);
        let total: f64 = rows.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn raw_spans_name_their_parent_cycle_and_stop_at_the_limit() {
        let now = Rc::new(Cell::new(0u64));
        let mut tracer = Tracer::new(FakeClock(Rc::clone(&now)), 0.0);
        tracer.window_begin();
        for cycle in 100..100 + RAW_CYCLES + 5 {
            tracer.cycle_begin(cycle);
            tracer.time(Span::NetStep, || now.set(now.get() + 1));
            tracer.cycle_end();
        }
        tracer.window_end(1);
        // A later window records aggregates only.
        tracer.window_begin();
        tracer.cycle_begin(0);
        tracer.time(Span::NetStep, || ());
        tracer.cycle_end();
        tracer.window_end(1);
        let mut out = Vec::new();
        tracer.write_raw(&mut out).expect("write to memory");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.lines().count() as u64, 1 + 2 * RAW_CYCLES);
        let third = text.lines().nth(2).expect("first layer span");
        assert!(
            third.contains("\"name\":\"net.step\"") && third.contains("\"parent\":1"),
            "{third}"
        );
    }

    #[test]
    fn percentile_and_median_helpers() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u64], 0.99), 7);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
