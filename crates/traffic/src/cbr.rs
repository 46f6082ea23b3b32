//! Constant-bit-rate sources and workload construction.
//!
//! A [`SlotClock`] is the paper's CBR rule (§5) and the only place it is
//! written: a connection owes a flit every inter-arrival period (a real
//! number of flit cycles, so slow connections are modelled exactly). Every
//! CBR pacer in the workspace holds one and decides only what a refused
//! slot means at its inject site — owed ([`SlotClock::defer`]), dropped, or
//! skipped. A [`CbrSource`] is the clock of one router connection, with a
//! random initial phase so connections do not arrive in lockstep.
//! [`CbrWorkload`] builds the paper's experiment population: connections
//! with rates drawn uniformly from a ladder, assigned to random input/output
//! ports under admission control, until a target offered load is reached.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mmr_core::conn::{ConnectionRequest, QosClass};
use mmr_core::ids::{ConnRef, PortId};
use mmr_core::router::{EstablishError, Router, Transmitted};
use mmr_sim::{Bandwidth, Cycles, SeededRng};

/// The slot schedule of one CBR stream: a slot falls due every
/// `interarrival` cycles from the first one, and slots a caller could not
/// use may be kept as a backlog that is due again at the next call.
#[derive(Debug, Clone)]
pub struct SlotClock {
    interarrival: f64,
    /// Cycle (fractional) at which the next slot falls due.
    next: f64,
    /// Slots that were due but refused and are still owed; they are due
    /// again before new slots — the paper's source-interface backpressure.
    backlog: u32,
}

impl SlotClock {
    /// A clock whose first slot falls due at cycle `first`.
    pub fn new(first: f64, interarrival: f64) -> Self {
        SlotClock { interarrival, next: first, backlog: 0 }
    }

    /// Number of slots due at or before `now`, owed ones first; advances
    /// the clock past them and clears the backlog.
    pub fn due(&mut self, now: Cycles) -> u32 {
        let mut due = self.backlog;
        self.backlog = 0;
        while self.next <= now.as_f64() {
            due += 1;
            self.next += self.interarrival;
        }
        due
    }

    /// Records that `n` due slots were refused and are still owed.
    pub fn defer(&mut self, n: u32) {
        self.backlog += n;
    }

    /// The earliest cycle at which the next slot falls due: a slot is due at
    /// integer cycle `t` iff `next <= t`, i.e. at `ceil(next)`. Only
    /// meaningful while the backlog is empty (owed slots are due every
    /// cycle).
    fn next_due(&self) -> u64 {
        self.next.max(0.0).ceil() as u64
    }

    /// Holds the clock at `now` while its stream has nowhere to send: the
    /// slots it misses are not due later, so it resumes without a burst.
    pub fn pause(&mut self, now: Cycles) {
        self.next = self.next.max(now.as_f64());
    }

    /// Starts over one period after `now` with nothing owed — for a stream
    /// that came back on a new connection.
    pub fn restart(&mut self, now: Cycles) {
        self.next = now.as_f64() + self.interarrival;
        self.backlog = 0;
    }

    /// Re-spaces the slots after a rate change; the next slot keeps its
    /// time.
    pub fn set_interarrival(&mut self, interarrival: f64) {
        self.interarrival = interarrival;
    }
}

/// Paces flit arrivals for one established connection.
#[derive(Debug, Clone)]
pub struct CbrSource {
    conn: ConnRef,
    clock: SlotClock,
}

impl CbrSource {
    /// Creates a source for `conn` with the given inter-arrival period in
    /// flit cycles, starting at a random phase.
    ///
    /// # Panics
    ///
    /// Panics if `interarrival_cycles` is not positive and finite.
    pub fn new(conn: ConnRef, interarrival_cycles: f64, rng: &mut SeededRng) -> Self {
        assert!(
            interarrival_cycles.is_finite() && interarrival_cycles > 0.0,
            "CBR inter-arrival must be positive"
        );
        let first = rng.uniform(0.0, interarrival_cycles);
        CbrSource { conn, clock: SlotClock::new(first, interarrival_cycles) }
    }

    /// Number of flits due at or before `now` (advances the arrival clock).
    pub fn due(&mut self, now: Cycles) -> u32 {
        self.clock.due(now)
    }

    /// Records that `n` due flits could not be injected and must be retried.
    pub fn defer(&mut self, n: u32) {
        self.clock.defer(n);
    }

    /// Injects all due flits into `router`, deferring on backpressure.
    /// Returns the number injected.
    pub fn pump(&mut self, router: &mut Router, now: Cycles) -> u32 {
        let due = self.due(now);
        for injected in 0..due {
            if router.inject(self.conn, now).is_err() {
                self.defer(due - injected);
                return injected;
            }
        }
        due
    }
}

/// Calendar-wheel horizon in cycles (a power of two). Wake cycles within
/// `horizon` of the wheel cursor live in O(1) buckets; farther ones (the
/// slowest rate rungs — a 64 Kbps source fires every ~19 375 cycles) wait in
/// a small overflow heap and are lifted into a bucket as the cursor nears.
const WHEEL_SLOTS: usize = 4096;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;

/// A CBR connection population admitted to a router, plus its sources.
///
/// Pacing is event-driven: a calendar wheel of wake cycles tracks when each
/// idle source next has a flit due, so [`CbrWorkload::pump`] touches only
/// the sources with work this cycle instead of scanning the whole
/// population — and pays O(1) per wake, not a heap's O(log n) sift.
/// A backpressured source (non-empty backlog) is parked instead of being
/// retried every cycle: its input VC is full, and since the only way that
/// VC drains is a transmission of its connection, a retry before then is a
/// provable no-op. [`CbrWorkload::note_transmitted`] wakes parked sources —
/// callers that interleave `pump` with [`Router::step`] must feed every
/// step's transmissions back, or backpressured sources stall. Each
/// connection's owner tag ([`Router::set_tag`]) names its source, and must
/// be left as the workload set it.
#[derive(Debug, Clone)]
pub struct CbrWorkload {
    /// Each admitted connection's rate, in source order.
    rates: Vec<Bandwidth>,
    sources: Vec<CbrSource>,
    offered: Bandwidth,
    /// Calendar buckets: source indices due at cycle `c` live in bucket
    /// `c & WHEEL_MASK`. Every source that is neither backlogged nor
    /// awaiting retry has exactly one entry (here or in `overflow`). The
    /// invariant `cursor <= due < cursor + WHEEL_SLOTS` for every bucketed
    /// wake makes the slot → cycle mapping unambiguous.
    buckets: Vec<Vec<u32>>,
    /// Occupancy bitmap over `buckets` (one bit per slot), so finding the
    /// next non-empty bucket is a word-parallel scan, not a slot walk.
    occupied: [u64; WHEEL_SLOTS / 64],
    /// All bucketed wakes are due at or after this cycle (= the last pumped
    /// cycle), and before `cursor + WHEEL_SLOTS`.
    cursor: u64,
    /// Number of wakes currently bucketed.
    in_wheel: usize,
    /// Wakes beyond the wheel horizon, `(due cycle, source index)`.
    overflow: BinaryHeap<Reverse<(u64, usize)>>,
    /// Per-source parked flag: backlogged and waiting for its connection to
    /// transmit before retrying.
    parked: Vec<bool>,
    /// Sources woken by [`CbrWorkload::note_transmitted`], retried at the
    /// next pump.
    retry: Vec<usize>,
    /// Reusable per-cycle list of source indices with work.
    due_scratch: Vec<usize>,
}

impl CbrWorkload {
    /// Builds a workload on `router` targeting `target_load` (fraction of
    /// total switch bandwidth, the paper's offered-load axis).
    ///
    /// Rates are drawn uniformly from `ladder`; ports are drawn uniformly at
    /// random, retrying a bounded number of times when a random pick fails
    /// admission. Building stops when the target is reached or no further
    /// connection can be admitted.
    pub fn build(
        router: &mut Router,
        ladder: &[Bandwidth],
        target_load: f64,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(!ladder.is_empty(), "rate ladder must be non-empty");
        assert!((0.0..=1.0).contains(&target_load), "load is a fraction of switch bandwidth");
        let dims = router.config();
        let ports = dims.ports();
        let capacity = dims.timing().link_rate() * ports as f64;
        let mut offered = Bandwidth::ZERO;
        let mut rates = Vec::new();
        let mut sources = Vec::new();
        let mut attempts_failed = 0u32;
        // Each failed attempt leaves the router unchanged, so a bounded
        // number of retries cannot leak resources.
        let max_failures = 200 + ports as u32 * 64;

        while offered.fraction_of(capacity) < target_load && attempts_failed < max_failures {
            let rate = *rng.pick(ladder);
            // Never overshoot the target by more than one rung: skip rates
            // that would exceed it when smaller rungs exist.
            if (offered + rate).fraction_of(capacity) > target_load + ladder[0].fraction_of(capacity)
                && rate > ladder[0]
            {
                attempts_failed += 1;
                continue;
            }
            let input = PortId(rng.index(ports) as u8);
            let output = PortId(rng.index(ports) as u8);
            match router.establish(ConnectionRequest {
                input,
                output,
                class: QosClass::Cbr { rate },
            }) {
                Ok(conn) => {
                    router.set_tag(conn, sources.len() as u64 + 1);
                    offered += rate;
                    let interarrival = dims.timing().interarrival_cycles(rate);
                    sources.push(CbrSource::new(conn, interarrival, rng));
                    rates.push(rate);
                }
                Err(
                    EstablishError::Admission(_)
                    | EstablishError::NoFreeInputVc
                    | EstablishError::NoFreeOutputVc,
                ) => {
                    attempts_failed += 1;
                }
                Err(
                    e @ (EstablishError::InvalidPort { .. } | EstablishError::Quarantined),
                ) => {
                    unreachable!("ports drawn in range on a standalone router: {e}")
                }
            }
        }

        let mut workload = CbrWorkload {
            parked: vec![false; sources.len()],
            retry: Vec::new(),
            rates,
            sources,
            offered,
            buckets: vec![Vec::new(); WHEEL_SLOTS],
            occupied: [0; WHEEL_SLOTS / 64],
            cursor: 0,
            in_wheel: 0,
            overflow: BinaryHeap::new(),
            due_scratch: Vec::new(),
        };
        for i in 0..workload.sources.len() {
            let due = workload.sources[i].clock.next_due();
            workload.schedule_wake(due, i);
        }
        workload
    }

    /// Files a wake for source `idx` at cycle `due` (which must be at or
    /// after the wheel cursor): an O(1) bucket push within the horizon, the
    /// overflow heap beyond it.
    // mmr-lint: hot
    fn schedule_wake(&mut self, due: u64, idx: usize) {
        debug_assert!(due >= self.cursor, "wake scheduled in the past");
        if due - self.cursor < WHEEL_SLOTS as u64 {
            let slot = (due & WHEEL_MASK) as usize;
            // mmr-lint: allow(A-PUSH, reason="amortized: bucket capacity is retained across laps of the wheel (PR 1 zero-alloc design)")
            self.buckets[slot].push(idx as u32);
            self.occupied[slot >> 6] |= 1 << (slot & 63);
            self.in_wheel += 1;
        } else {
            // mmr-lint: allow(A-PUSH, reason="amortized: heap capacity is retained; only the slowest rate rungs ever overflow the horizon")
            self.overflow.push(Reverse((due, idx)));
        }
    }

    /// Drains every bucketed wake due at or before `t` into `due_scratch`
    /// and advances the cursor to `t`.
    // mmr-lint: hot
    fn drain_wheel(&mut self, t: u64) {
        let span = (t - self.cursor + 1).min(WHEEL_SLOTS as u64);
        let mut offset = 0;
        while offset < span && self.in_wheel > 0 {
            // Word-parallel skip over empty slots from the cursor position.
            let slot = ((self.cursor + offset) & WHEEL_MASK) as usize;
            let word = self.occupied[slot >> 6] >> (slot & 63);
            if word == 0 {
                // The rest of this word is empty; jump to the next word
                // boundary.
                offset += 64 - (slot as u64 & 63);
                continue;
            }
            let hop = word.trailing_zeros() as u64;
            offset += hop;
            if offset >= span {
                break;
            }
            let slot = ((self.cursor + offset) & WHEEL_MASK) as usize;
            let bucket = &mut self.buckets[slot];
            self.in_wheel -= bucket.len();
            for &idx in bucket.iter() {
                // mmr-lint: allow(A-PUSH, reason="amortized: reusable buffer retains its capacity across cycles (PR 1 zero-alloc design)")
                self.due_scratch.push(idx as usize);
            }
            bucket.clear();
            self.occupied[slot >> 6] &= !(1 << (slot & 63));
            offset += 1;
        }
        self.cursor = t;
    }

    /// The rate of each admitted connection, in source order.
    pub fn connections(&self) -> &[Bandwidth] {
        &self.rates
    }

    /// Achieved offered load as a fraction of `ports × link_rate`.
    pub fn offered_load(&self, router: &Router) -> f64 {
        let dims = router.config();
        self.offered.fraction_of(dims.timing().link_rate() * dims.ports() as f64)
    }

    /// Injects all due flits of every source for cycle `now`.
    /// Returns the number of flits injected.
    ///
    /// Equivalent to pumping every source each cycle: an idle source with
    /// `next_arrival > now` contributes nothing, a parked source's retry is
    /// guaranteed to fail until its connection transmits (injection is
    /// side-effect-free on failure), and skipping either visit cannot change
    /// any other source's outcome because sources feed disjoint virtual
    /// channels.
    // mmr-lint: hot
    pub fn pump(&mut self, router: &mut Router, now: Cycles) -> u32 {
        let t = now.count();
        self.due_scratch.clear();
        // Buckets first (against the old cursor), then the overflow heap:
        // an event skip can jump the cursor past an overflow wake, and a
        // lift into a bucket must target the *new* cursor's lap of the
        // wheel to keep the slot → cycle mapping unambiguous.
        self.drain_wheel(t);
        while let Some(&Reverse((due, idx))) = self.overflow.peek() {
            if due <= t {
                self.overflow.pop();
                // mmr-lint: allow(A-PUSH, reason="amortized: reusable buffer retains its capacity across cycles (PR 1 zero-alloc design)")
                self.due_scratch.push(idx);
            } else if due - t < WHEEL_SLOTS as u64 {
                self.overflow.pop();
                self.schedule_wake(due, idx);
            } else {
                break;
            }
        }
        // Woken sources retry alongside newly due ones; visit in ascending
        // source index, the dense scan's order.
        self.due_scratch.extend_from_slice(&self.retry);
        self.retry.clear();
        self.due_scratch.sort_unstable();
        let mut injected = 0;
        for i in 0..self.due_scratch.len() {
            let idx = self.due_scratch[i];
            let src = &mut self.sources[idx];
            injected += src.pump(router, now);
            if src.clock.backlog > 0 {
                self.parked[idx] = true;
            } else {
                let due = src.clock.next_due();
                self.schedule_wake(due, idx);
            }
        }
        injected
    }

    /// Wakes parked sources whose connection just transmitted (the pop made
    /// room in their input VC, so the retry at the next cycle's pump can
    /// succeed — exactly the first cycle at which a dense per-cycle retry
    /// would have succeeded). Call after every [`Router::step`] whose report
    /// may contain this workload's connections.
    // mmr-lint: hot
    pub fn note_transmitted(&mut self, transmitted: &[Transmitted]) {
        for tx in transmitted {
            if let Some(idx) = self.source_of(tx).filter(|&idx| self.parked[idx]) {
                self.parked[idx] = false;
                // mmr-lint: allow(A-PUSH, reason="amortized: reusable buffer retains its capacity across cycles (PR 1 zero-alloc design)")
                self.retry.push(idx);
            }
        }
    }

    /// The index in [`CbrWorkload::connections`] of the source whose
    /// connection transmitted `tx`, read off the connection's tag.
    // mmr-lint: hot
    pub fn source_of(&self, tx: &Transmitted) -> Option<usize> {
        (tx.tag as usize).checked_sub(1).filter(|&idx| idx < self.sources.len())
    }

    /// The earliest cycle at which any source next has self-driven work, or
    /// `None` when no source ever will. Sources awaiting retry are due
    /// immediately; parked sources are excluded (they wake only via
    /// [`CbrWorkload::note_transmitted`], and the flits they wait behind
    /// keep the router non-quiescent anyway).
    pub fn next_due_cycle(&self) -> Option<u64> {
        if !self.retry.is_empty() {
            return Some(0);
        }
        let wheel_next = self.next_bucketed_wake();
        let overflow_next = self.overflow.peek().map(|&Reverse((due, _))| due);
        match (wheel_next, overflow_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The earliest bucketed wake cycle: a word-parallel scan of the
    /// occupancy bitmap starting at the cursor slot (wakes live within one
    /// horizon of the cursor, so the first set bit reached is the earliest).
    fn next_bucketed_wake(&self) -> Option<u64> {
        if self.in_wheel == 0 {
            return None;
        }
        let mut offset = 0u64;
        while offset < WHEEL_SLOTS as u64 {
            let slot = ((self.cursor + offset) & WHEEL_MASK) as usize;
            let word = self.occupied[slot >> 6] >> (slot & 63);
            if word == 0 {
                offset += 64 - (slot as u64 & 63);
                continue;
            }
            return Some(self.cursor + offset + u64::from(word.trailing_zeros()));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::paper_rate_ladder;
    use mmr_core::ids::{ConnectionId, VcRef};
    use mmr_core::router::RouterConfig;

    /// A handle for sources that are only asked what is due.
    fn unused() -> ConnRef {
        ConnRef { vc: VcRef::new(0, 0), id: ConnectionId(0) }
    }

    fn rng() -> SeededRng {
        SeededRng::new(99)
    }

    #[test]
    fn source_paces_at_interarrival() {
        let mut r = rng();
        let mut src = CbrSource::new(unused(), 10.0, &mut r);
        let mut total = 0;
        for t in 0..100 {
            total += src.due(Cycles(t));
        }
        assert_eq!(total, 10, "one flit per 10 cycles over 100 cycles");
    }

    #[test]
    fn source_phase_is_randomised() {
        let mut r = rng();
        let firsts: Vec<u32> = (0..8)
            .map(|_| {
                let mut s = CbrSource::new(unused(), 100.0, &mut r);
                (0..100u64).find(|&t| s.due(Cycles(t)) > 0).expect("arrives within a period")
                    as u32
            })
            .collect();
        let distinct: std::collections::BTreeSet<_> = firsts.iter().collect();
        assert!(distinct.len() > 4, "phases differ: {firsts:?}");
    }

    #[test]
    fn deferred_flits_are_retried() {
        let mut r = rng();
        let mut src = CbrSource::new(unused(), 5.0, &mut r);
        let due = src.due(Cycles(20));
        assert!(due >= 3);
        src.defer(due);
        assert_eq!(src.due(Cycles(20)), due, "backlog carried forward");
    }

    #[test]
    fn paused_clock_resumes_at_the_pause_cycle_without_a_burst() {
        let mut clock = SlotClock::new(0.0, 10.0);
        assert_eq!(clock.due(Cycles(0)), 1);
        // The stream has nowhere to send over cycles 1..=50: the slots at
        // 10, 20, .., 50 are not owed afterwards.
        for t in 1..=50 {
            clock.pause(Cycles(t));
        }
        assert_eq!(clock.due(Cycles(51)), 1, "one slot, held at cycle 50");
        assert_eq!(clock.next_due(), 60);
        let rest: u32 = (52..100).map(|t| clock.due(Cycles(t))).sum();
        assert_eq!(rest, 4, "slots at 60, 70, 80 and 90");
    }

    #[test]
    fn dropping_refused_slots_gives_one_slot_per_period() {
        // A caller that never defers a refused slot sees each period's slot
        // once, however many it refused before.
        let mut clock = SlotClock::new(0.5, 4.0);
        let mut total = 0;
        for t in 0..400 {
            let due = clock.due(Cycles(t));
            assert!(due <= 1, "cycle {t}: {due} slots at once");
            total += due;
        }
        assert_eq!(total, 100);
        assert_eq!(clock.backlog, 0);
    }

    #[test]
    fn fractional_interarrival_is_exact() {
        let mut r = rng();
        // 2.5-cycle period -> exactly 40 flits in 100 cycles.
        let mut src = CbrSource::new(unused(), 2.5, &mut r);
        let total: u32 = (0..100).map(|t| src.due(Cycles(t))).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn workload_reaches_target_load() {
        let mut router = RouterConfig::paper_default().seed(5).build();
        let mut r = rng();
        let w = CbrWorkload::build(&mut router, &paper_rate_ladder(), 0.5, &mut r);
        let load = w.offered_load(&router);
        assert!((load - 0.5).abs() < 0.05, "achieved {load}");
        assert_eq!(w.connections().len(), router.connections());
        assert!(w.connections().len() > 50, "many small connections expected");
    }

    #[test]
    fn workload_high_load_is_achievable() {
        let mut router = RouterConfig::paper_default().seed(6).build();
        let mut r = rng();
        let w = CbrWorkload::build(&mut router, &paper_rate_ladder(), 0.95, &mut r);
        let load = w.offered_load(&router);
        assert!(load > 0.90, "achieved {load} of 0.95 target");
    }

    #[test]
    fn workload_pump_injects_flits() {
        let mut router = RouterConfig::paper_default().seed(7).build();
        let mut r = rng();
        let mut w = CbrWorkload::build(&mut router, &paper_rate_ladder(), 0.3, &mut r);
        let injected: u32 = (0..2000).map(|t| w.pump(&mut router, Cycles(t))).sum();
        assert!(injected > 100, "flits flow: {injected}");
    }

    #[test]
    fn event_pump_matches_dense_scan() {
        // The wake-wheel pump, skipping the cycles a quiescent router has
        // no due source for as `Experiment::run` does, must be
        // indistinguishable from pumping every source every cycle. Two
        // populations: the paper's ladder at high load, under backpressure;
        // and four 64 Kbps sources (one flit per ~19,375 cycles each) over
        // ten wheel horizons, whose wakes wait in the overflow heap and
        // whose skips jump the cursor past the horizon.
        let populations = [(paper_rate_ladder().to_vec(), 0.9, 4_000u64), (
            vec![Bandwidth::from_kbps(64.0)],
            2e-5,
            10 * WHEEL_SLOTS as u64,
        )];
        for (ladder, load, cycles) in populations {
            let build = || {
                let mut router =
                    RouterConfig::paper_default().vcs_per_port(64).candidates(2).seed(11).build();
                let mut r = SeededRng::new(42);
                let w = CbrWorkload::build(&mut router, &ladder, load, &mut r);
                (router, w)
            };
            let (mut ra, mut wa) = build();
            let (mut rb, mut wb) = build();
            // The event side's next cycle, and its longest skip.
            let (mut next, mut longest_skip) = (0, 0);
            for t in 0..cycles {
                let now = Cycles(t);
                let eb: u32 = wb.sources.iter_mut().map(|s| s.pump(&mut rb, now)).sum();
                let sb = rb.step(now);
                if t < next {
                    assert_eq!(eb, 0, "load {load}: a skipped cycle {t} injects");
                    assert!(sb.transmitted.is_empty(), "load {load}: a skipped cycle {t} transmits");
                    continue;
                }
                let ea = wa.pump(&mut ra, now);
                assert_eq!(ea, eb, "load {load}: injections diverge at cycle {t}");
                let sa = ra.step(now);
                assert_eq!(sa.transmitted, sb.transmitted, "load {load}: cycle {t} diverges");
                wa.note_transmitted(&sa.transmitted);
                next = t + 1;
                if sa.transmitted.is_empty() && ra.is_quiescent() {
                    let until = wa.next_due_cycle().map_or(cycles, |due| due.clamp(next, cycles));
                    ra.note_idle_cycles(until - next);
                    longest_skip = longest_skip.max(until - next);
                    next = until;
                }
            }
            assert_eq!(ra.stats(), rb.stats(), "load {load}");
            if load < 0.01 {
                assert!(rb.stats().flits_transmitted > 0, "the slow sources send");
                assert!(longest_skip > WHEEL_SLOTS as u64, "longest skip {longest_skip}");
            }
        }
    }

    #[test]
    fn zero_load_builds_empty_workload() {
        let mut router = RouterConfig::paper_default().seed(8).build();
        let mut r = rng();
        let w = CbrWorkload::build(&mut router, &paper_rate_ladder(), 0.0, &mut r);
        assert!(w.connections().is_empty());
        assert_eq!(w.offered_load(&router), 0.0);
    }
}
