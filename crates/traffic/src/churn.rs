//! Dynamic session churn: the workload the admission controller survives.
//!
//! [`calls`](crate::calls) evaluates admission at the call level against a
//! single router with exponential holding times and a flat arrival rate.
//! This module generates the *network-level* churn the overload experiments
//! need: a Poisson arrival process shaped by a configurable diurnal load
//! curve (thinning), **heavy-tailed** lognormal holding times (a few
//! marathon sessions dominate the carried load, as in real video-server
//! traces), and a session mix drawn from the paper's §5 rate ladder plus a
//! best-effort fraction. The whole schedule — arrival cycles, holding
//! times, endpoints, and rates — is a pure function of one `u64` seed via
//! [`SeededRng`], so every consumer (bench sweeps, the conformance fuzzer,
//! property tests) replays the identical session history.
//!
//! The generator emits a [`ChurnSchedule`]: the per-session plans plus a
//! merged, time-sorted arrival/departure event tape that drivers replay
//! against an admission controller.

use mmr_sim::{Bandwidth, Cycles, SeededRng};

use crate::rates::paper_rate_ladder;

/// A periodic load curve modulating the Poisson arrival intensity.
///
/// The instantaneous arrival rate at cycle `t` is
/// `peak_rate * intensity(t)` where `intensity` traces a raised cosine
/// between `trough` (relative night-time load) and `1.0` (peak) with the
/// given period. `DiurnalCurve::flat()` disables the modulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalCurve {
    /// Relative intensity at the bottom of the curve, in `[0, 1]`.
    pub trough: f64,
    /// Cycles per full day/night period.
    pub period: f64,
}

impl DiurnalCurve {
    /// No modulation: intensity is `1.0` everywhere.
    pub fn flat() -> Self {
        DiurnalCurve { trough: 1.0, period: 1.0 }
    }

    /// A raised-cosine day/night cycle with the given relative trough.
    pub fn day_night(trough: f64, period: f64) -> Self {
        assert!((0.0..=1.0).contains(&trough), "trough must be in [0,1]");
        assert!(period > 0.0, "period must be positive");
        DiurnalCurve { trough, period }
    }

    /// Relative intensity in `[trough, 1]` at cycle `t` (peak at `t = 0`).
    pub fn intensity(&self, t: f64) -> f64 {
        if self.trough >= 1.0 {
            return 1.0;
        }
        let phase = (t / self.period) * std::f64::consts::TAU;
        let wave = 0.5 * (1.0 + phase.cos()); // 1 at peak, 0 at trough
        self.trough + (1.0 - self.trough) * wave
    }
}

/// What a churned session asks the network for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionClass {
    /// A CBR connection at rung `rung` of the paper's nine-rate ladder.
    Cbr {
        /// Index into [`paper_rate_ladder`], `0` = 64 Kbps … `8` = 120 Mbps.
        rung: usize,
    },
    /// A best-effort session: no bandwidth reservation, first to shed.
    BestEffort,
}

impl SessionClass {
    /// The guaranteed rate this class reserves (zero for best-effort).
    pub fn rate(&self) -> Bandwidth {
        match *self {
            SessionClass::Cbr { rung } => paper_rate_ladder()[rung.min(8)],
            SessionClass::BestEffort => Bandwidth::ZERO,
        }
    }
}

/// Parameters of a churn workload. All rates are per flit cycle.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Poisson arrival rate at the diurnal peak (sessions per cycle).
    pub peak_arrival_rate: f64,
    /// The diurnal modulation applied by thinning.
    pub diurnal: DiurnalCurve,
    /// Median session holding time in cycles (lognormal median = e^mu).
    pub median_holding: f64,
    /// Lognormal shape; larger is heavier-tailed. `0.0` degenerates to a
    /// fixed holding time.
    pub holding_sigma: f64,
    /// Inclusive rung range of the rate ladder sessions draw from.
    pub rungs: (usize, usize),
    /// Fraction of arrivals that are best-effort instead of CBR.
    pub best_effort_fraction: f64,
    /// Number of terminals endpoints are drawn from (src ≠ dst).
    pub endpoints: usize,
    /// Arrivals stop at this cycle (departures may land later).
    pub horizon: u64,
}

impl ChurnConfig {
    /// A modest default: flat curve, median 2 000-cycle holds, low rungs.
    pub fn new(peak_arrival_rate: f64, endpoints: usize, horizon: u64) -> Self {
        ChurnConfig {
            peak_arrival_rate,
            diurnal: DiurnalCurve::flat(),
            median_holding: 2_000.0,
            holding_sigma: 1.0,
            rungs: (0, 4),
            best_effort_fraction: 0.2,
            endpoints,
            horizon,
        }
    }
}

/// One session's full lifecycle, decided at generation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionPlan {
    /// Dense id, assigned in arrival order starting at 0.
    pub id: u32,
    /// Arrival cycle.
    pub arrives: Cycles,
    /// Departure cycle (`arrives` + holding, always strictly later).
    pub departs: Cycles,
    /// Source terminal index in `[0, endpoints)`.
    pub src: usize,
    /// Destination terminal index, never equal to `src`.
    pub dst: usize,
    /// Service class and rate rung.
    pub class: SessionClass,
}

/// What happens at a [`ChurnEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEventKind {
    /// The session requests admission.
    Arrival,
    /// The session hangs up voluntarily.
    Departure,
}

/// One entry of the merged, time-sorted event tape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// When the event fires.
    pub at: Cycles,
    /// The session it concerns (index into [`ChurnSchedule::sessions`]).
    pub session: u32,
    /// Arrival or departure.
    pub kind: ChurnEventKind,
}

/// A fully materialized churn workload: deterministic in the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSchedule {
    /// Per-session plans, in arrival order (`sessions[i].id == i`).
    pub sessions: Vec<SessionPlan>,
    /// Arrivals and departures merged and sorted by `(at, session, kind)`.
    /// Ties at the same cycle process departures first so a replacement
    /// arrival sees the freed bandwidth.
    pub events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// Generates the schedule for `cfg` from `seed`.
    ///
    /// Arrivals are a homogeneous Poisson process at `peak_arrival_rate`
    /// thinned by the diurnal curve (each candidate arrival survives with
    /// probability `intensity(t)`), which keeps the draw sequence — and
    /// therefore the schedule — a pure function of the seed regardless of
    /// how the curve is shaped.
    pub fn generate(cfg: &ChurnConfig, seed: u64) -> ChurnSchedule {
        assert!(cfg.peak_arrival_rate > 0.0, "arrival rate must be positive");
        assert!(cfg.median_holding >= 1.0, "median holding must be >= 1 cycle");
        assert!(cfg.endpoints >= 2, "need at least two endpoints");
        assert!(cfg.rungs.0 <= cfg.rungs.1 && cfg.rungs.1 < 9, "rung range out of ladder");
        assert!(
            (0.0..=1.0).contains(&cfg.best_effort_fraction),
            "best-effort fraction must be in [0,1]"
        );

        let mut rng = SeededRng::new(seed ^ 0xC48A_4E5F_5EED_0001); // churn stream salt
        let mu = cfg.median_holding.ln();
        let mut sessions = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += rng.exponential(1.0 / cfg.peak_arrival_rate).max(1.0);
            if t >= cfg.horizon as f64 {
                break;
            }
            // Thinning: one chance draw per candidate, survivors become
            // sessions. The draw happens unconditionally so a different
            // curve shape never perturbs later sessions' randomness.
            let keep = rng.chance(cfg.diurnal.intensity(t));
            let holding = rng.lognormal(mu, cfg.holding_sigma).max(1.0);
            let src = rng.index(cfg.endpoints);
            let mut dst = rng.index(cfg.endpoints);
            if dst == src {
                dst = (dst + 1) % cfg.endpoints;
            }
            let best_effort = rng.chance(cfg.best_effort_fraction);
            let span = cfg.rungs.1 - cfg.rungs.0 + 1;
            let rung = cfg.rungs.0 + rng.index(span);
            if !keep {
                continue;
            }
            let arrives = Cycles(t as u64);
            let departs = Cycles(t as u64 + holding.ceil() as u64);
            let class = if best_effort {
                SessionClass::BestEffort
            } else {
                SessionClass::Cbr { rung }
            };
            let id = sessions.len() as u32;
            sessions.push(SessionPlan { id, arrives, departs, src, dst, class });
        }

        let mut events = Vec::with_capacity(sessions.len() * 2);
        for s in &sessions {
            events.push(ChurnEvent { at: s.arrives, session: s.id, kind: ChurnEventKind::Arrival });
            events.push(ChurnEvent {
                at: s.departs,
                session: s.id,
                kind: ChurnEventKind::Departure,
            });
        }
        // Departures sort before arrivals at the same cycle (freed capacity
        // is visible to the newcomer); session id breaks remaining ties.
        events.sort_by_key(|e| {
            (e.at, matches!(e.kind, ChurnEventKind::Arrival) as u8, e.session)
        });
        ChurnSchedule { sessions, events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ChurnConfig {
        ChurnConfig::new(0.01, 9, 20_000)
    }

    #[test]
    fn same_seed_reproduces_the_schedule_exactly() {
        let a = ChurnSchedule::generate(&cfg(), 0x0D1E);
        let b = ChurnSchedule::generate(&cfg(), 0x0D1E);
        assert_eq!(a, b);
        assert!(!a.sessions.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChurnSchedule::generate(&cfg(), 1);
        let b = ChurnSchedule::generate(&cfg(), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn events_are_sorted_and_paired() {
        let s = ChurnSchedule::generate(&cfg(), 7);
        assert_eq!(s.events.len(), s.sessions.len() * 2);
        for w in s.events.windows(2) {
            assert!(w[0].at <= w[1].at, "events out of order");
        }
        for p in &s.sessions {
            assert!(p.arrives < p.departs, "session must hold for at least one cycle");
            assert_ne!(p.src, p.dst);
            assert_eq!(s.sessions[p.id as usize].id, p.id);
        }
    }

    #[test]
    fn diurnal_trough_thins_arrivals() {
        // Compare a flat curve against a hard day/night curve whose trough
        // removes 90% of off-peak arrivals: the shaped schedule must be
        // substantially smaller, and its per-window arrival counts must
        // follow the curve (peak window >= trough window).
        let flat = ChurnSchedule::generate(&cfg(), 42);
        let mut shaped_cfg = cfg();
        shaped_cfg.diurnal = DiurnalCurve::day_night(0.1, 20_000.0);
        let shaped = ChurnSchedule::generate(&shaped_cfg, 42);
        assert!(
            shaped.sessions.len() < flat.sessions.len(),
            "thinning removed nothing: {} vs {}",
            shaped.sessions.len(),
            flat.sessions.len()
        );
        let count_in = |s: &ChurnSchedule, lo: u64, hi: u64| {
            s.sessions.iter().filter(|p| lo <= p.arrives.0 && p.arrives.0 < hi).count()
        };
        // Peak is centered at t=0 and t=period; trough at period/2.
        let peak = count_in(&shaped, 0, 5_000) + count_in(&shaped, 15_000, 20_000);
        let trough = count_in(&shaped, 5_000, 15_000);
        assert!(peak > trough, "diurnal shape not visible: peak {peak} trough {trough}");
    }

    #[test]
    fn holding_times_are_heavy_tailed() {
        let mut c = cfg();
        c.holding_sigma = 1.5;
        c.horizon = 200_000;
        let s = ChurnSchedule::generate(&c, 3);
        let mut holds: Vec<u64> =
            s.sessions.iter().map(|p| p.departs.0 - p.arrives.0).collect();
        holds.sort_unstable();
        let median = holds[holds.len() / 2] as f64;
        let p99 = holds[holds.len() * 99 / 100] as f64;
        // Lognormal(sigma=1.5): p99/median = e^(2.33*1.5) ≈ 33. Even with
        // sampling noise the ratio must dwarf an exponential's (~6.6).
        assert!(p99 / median > 10.0, "tail too light: median {median}, p99 {p99}");
    }

    #[test]
    fn class_mix_spans_ladder_and_best_effort() {
        let mut c = cfg();
        c.horizon = 100_000;
        let s = ChurnSchedule::generate(&c, 9);
        let be = s
            .sessions
            .iter()
            .filter(|p| p.class == SessionClass::BestEffort)
            .count();
        assert!(be > 0, "no best-effort sessions drawn");
        assert!(be < s.sessions.len(), "everything was best-effort");
        for p in &s.sessions {
            if let SessionClass::Cbr { rung } = p.class {
                assert!((c.rungs.0..=c.rungs.1).contains(&rung));
                assert!(p.class.rate() > Bandwidth::ZERO);
            }
        }
    }

    #[test]
    fn concurrency_query_matches_event_tape() {
        let s = ChurnSchedule::generate(&cfg(), 11);
        let t = Cycles(10_000);
        let by_events = s
            .events
            .iter()
            .filter(|e| e.at <= t)
            .map(|e| match e.kind {
                ChurnEventKind::Arrival => 1i64,
                ChurnEventKind::Departure => -1,
            })
            .sum::<i64>();
        // events at exactly t: departures (at <= t, t < departs fails) and
        // arrivals (arrives <= t holds) are counted consistently by both.
        let covering = s.sessions.iter().filter(|p| p.arrives <= t && t < p.departs).count();
        assert_eq!(covering as i64, by_events);
    }
}
