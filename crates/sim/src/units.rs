//! Strongly typed physical quantities used throughout the simulator.
//!
//! The MMR paper mixes three time bases — bits on a serial link, flit cycles
//! inside the router, and wall-clock microseconds in the figures. Newtypes
//! keep them apart (C-NEWTYPE) and centralise the conversions.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A link or connection bandwidth in bits per second.
///
/// Stored as `f64` bits/s: the paper's rate ladder spans 64 Kbps to
/// 1.24 Gbps, far inside `f64` exact-integer range.
///
/// # Example
///
/// ```
/// use mmr_sim::Bandwidth;
///
/// let link = Bandwidth::from_gbps(1.24);
/// let conn = Bandwidth::from_kbps(64.0);
/// assert!(conn < link);
/// assert_eq!(link.bits_per_sec(), 1.24e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Creates a bandwidth from raw bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is negative or not finite.
    pub fn from_bps(bps: f64) -> Self {
        // mmr-lint: allow(P-TRANS, reason="construction-time config validation; unreachable from the per-cycle path")
        assert!(bps.is_finite() && bps >= 0.0, "bandwidth must be finite and non-negative");
        Bandwidth(bps)
    }

    /// Creates a bandwidth from kilobits per second (decimal kilo).
    pub fn from_kbps(kbps: f64) -> Self {
        Self::from_bps(kbps * 1e3)
    }

    /// Creates a bandwidth from megabits per second (decimal mega).
    pub fn from_mbps(mbps: f64) -> Self {
        Self::from_bps(mbps * 1e6)
    }

    /// Creates a bandwidth from gigabits per second (decimal giga).
    pub fn from_gbps(gbps: f64) -> Self {
        Self::from_bps(gbps * 1e9)
    }

    /// Raw bits per second.
    pub fn bits_per_sec(self) -> f64 {
        self.0
    }

    /// This bandwidth expressed in megabits per second.
    pub fn mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Fraction of `capacity` this bandwidth represents (load factor).
    ///
    /// Returns 0 when `capacity` is zero.
    pub fn fraction_of(self, capacity: Bandwidth) -> f64 {
        if capacity.0 == 0.0 {
            0.0
        } else {
            self.0 / capacity.0
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for Bandwidth {
    fn sub_assign(&mut self, rhs: Bandwidth) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 * rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 / rhs)
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, Add::add)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3} Gbps", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.3} Mbps", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.1} Kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.0} bps", self.0)
        }
    }
}

/// A count of router flit cycles.
///
/// Inside the router everything is synchronous to the flit cycle, so a plain
/// integer counter is the natural clock. Delay figures in the paper are
/// reported in these units ("router cycles").
///
/// # Example
///
/// ```
/// use mmr_sim::Cycles;
///
/// let a = Cycles(10);
/// let b = a + Cycles(5);
/// assert_eq!(b.0, 15);
/// assert_eq!(b - a, Cycles(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// The zero cycle.
    pub const ZERO: Cycles = Cycles(0);

    /// Raw cycle count.
    pub fn count(self) -> u64 {
        self.0
    }

    /// Cycle count as `f64`, for statistics.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating difference, for "how long since" computations.
    pub fn since(self, earlier: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(earlier.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// Simulated wall-clock time in nanoseconds.
///
/// Used at the boundary between the cycle-synchronous router and the
/// figures, which report delay in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from nanoseconds.
    pub fn from_ns(ns: f64) -> Self {
        SimTime(ns)
    }

    /// This time in microseconds.
    pub fn us(self) -> f64 {
        self.0 / 1e3
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} us", self.us())
    }
}

/// The timing relation between flits, links and router cycles.
///
/// A *flit cycle* is the time taken to transmit one flit through the router
/// and across the physical link (§4.1 of the paper). It is fully determined
/// by the flit size and the link rate; everything else in the simulation is
/// counted in these cycles and converted to wall-clock time only for
/// reporting.
///
/// # Example
///
/// ```
/// use mmr_sim::{Bandwidth, FlitTiming};
///
/// let t = FlitTiming::new(128, Bandwidth::from_gbps(1.24));
/// assert!((t.cycle_time_ns() - 103.2).abs() < 0.1);
/// // Converting a 10-cycle delay to microseconds for Figure 4:
/// assert!((t.cycles_f64_to_time(10.0).us() - 1.032).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlitTiming {
    flit_bits: u32,
    link_rate: Bandwidth,
}

impl FlitTiming {
    /// Creates a timing model for `flit_bits`-bit flits on a `link_rate` link.
    ///
    /// # Panics
    ///
    /// Panics if `flit_bits` is zero or the link rate is zero.
    pub fn new(flit_bits: u32, link_rate: Bandwidth) -> Self {
        // mmr-lint: allow(P-TRANS, reason="construction-time config validation; unreachable from the per-cycle path")
        assert!(flit_bits > 0, "flit size must be positive");
        assert!(link_rate.bits_per_sec() > 0.0, "link rate must be positive"); // mmr-lint: allow(P-TRANS, reason="construction-time config validation; unreachable from the per-cycle path")
        FlitTiming { flit_bits, link_rate }
    }

    /// The paper's headline configuration: 128-bit flits, 1.24 Gbps links.
    pub fn paper_default() -> Self {
        FlitTiming::new(128, Bandwidth::from_gbps(1.24))
    }

    /// Flit size in bits.
    pub fn flit_bits(self) -> u32 {
        self.flit_bits
    }

    /// Physical link rate.
    pub fn link_rate(self) -> Bandwidth {
        self.link_rate
    }

    /// Duration of one flit cycle in nanoseconds.
    pub fn cycle_time_ns(self) -> f64 {
        f64::from(self.flit_bits) / self.link_rate.bits_per_sec() * 1e9
    }

    /// Converts a (possibly fractional) cycle count to simulated time.
    pub fn cycles_f64_to_time(self, cycles: f64) -> SimTime {
        SimTime::from_ns(cycles * self.cycle_time_ns())
    }

    /// Flit inter-arrival period, in flit cycles, of a connection running at
    /// `rate`.
    ///
    /// A connection at the full link rate produces one flit per cycle
    /// (period 1.0); a 64 Kbps connection on a 1.24 Gbps link produces a flit
    /// every ~19 375 cycles.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn interarrival_cycles(self, rate: Bandwidth) -> f64 {
        // mmr-lint: allow(P-TRANS, reason="construction-time config validation; unreachable from the per-cycle path")
        assert!(rate.bits_per_sec() > 0.0, "connection rate must be positive");
        self.link_rate.bits_per_sec() / rate.bits_per_sec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_constructors_agree() {
        assert_eq!(Bandwidth::from_kbps(1.0), Bandwidth::from_bps(1000.0));
        assert_eq!(Bandwidth::from_mbps(1.0), Bandwidth::from_kbps(1000.0));
        assert_eq!(Bandwidth::from_gbps(1.0), Bandwidth::from_mbps(1000.0));
    }

    #[test]
    fn bandwidth_arithmetic() {
        let a = Bandwidth::from_mbps(10.0);
        let b = Bandwidth::from_mbps(4.0);
        assert_eq!((a + b).mbps(), 14.0);
        assert_eq!((a - b).mbps(), 6.0);
        // Subtraction saturates at zero rather than going negative.
        assert_eq!((b - a), Bandwidth::ZERO);
        assert_eq!((a * 2.0).mbps(), 20.0);
        assert_eq!((a / 2.0).mbps(), 5.0);
    }

    #[test]
    fn bandwidth_sum_and_fraction() {
        let total: Bandwidth = [1.0, 2.0, 3.0].iter().map(|m| Bandwidth::from_mbps(*m)).sum();
        assert_eq!(total.mbps(), 6.0);
        assert!((total.fraction_of(Bandwidth::from_mbps(12.0)) - 0.5).abs() < 1e-12);
        assert_eq!(total.fraction_of(Bandwidth::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn bandwidth_rejects_negative() {
        let _ = Bandwidth::from_bps(-1.0);
    }

    #[test]
    fn bandwidth_display_picks_unit() {
        assert_eq!(Bandwidth::from_gbps(1.24).to_string(), "1.240 Gbps");
        assert_eq!(Bandwidth::from_mbps(55.0).to_string(), "55.000 Mbps");
        assert_eq!(Bandwidth::from_kbps(64.0).to_string(), "64.0 Kbps");
        assert_eq!(Bandwidth::from_bps(10.0).to_string(), "10 bps");
    }

    #[test]
    fn cycles_arithmetic_saturates() {
        assert_eq!(Cycles(3) - Cycles(5), Cycles::ZERO);
        assert_eq!(Cycles(5).since(Cycles(3)), Cycles(2));
        assert_eq!(Cycles(3).since(Cycles(5)), Cycles::ZERO);
        let mut c = Cycles(1);
        c += Cycles(2);
        assert_eq!(c, Cycles(3));
    }

    #[test]
    fn simtime_round_trip() {
        let t = SimTime::from_ns(1500.0);
        assert!((t.us() - 1.5).abs() < 1e-9);
        assert!(((t + SimTime::from_ns(500.0)).us() - 2.0).abs() < 1e-9);
        assert!(((t - SimTime::from_ns(500.0)).us() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn paper_flit_cycle_is_103ns() {
        let t = FlitTiming::paper_default();
        assert!((t.cycle_time_ns() - 103.2258).abs() < 1e-3);
        assert_eq!(t.flit_bits(), 128);
    }

    #[test]
    fn flit_cycle_bounds_from_conclusion() {
        // The paper: "Targeting 1-2 Gbps links and 128-bit flit sizes, the
        // crossbar must be capable of computing switch settings at a rate of
        // 64 ns-128 ns."
        let one = FlitTiming::new(128, Bandwidth::from_gbps(1.0));
        let two = FlitTiming::new(128, Bandwidth::from_gbps(2.0));
        assert!((one.cycle_time_ns() - 128.0).abs() < 1e-9);
        assert!((two.cycle_time_ns() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn interarrival_for_slow_connection() {
        let t = FlitTiming::paper_default();
        let period = t.interarrival_cycles(Bandwidth::from_kbps(64.0));
        assert!((period - 19375.0).abs() < 1.0);
        // A full-rate connection sends one flit per cycle.
        assert!((t.interarrival_cycles(Bandwidth::from_gbps(1.24)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cycles_to_time_matches_figure_axis() {
        let t = FlitTiming::paper_default();
        // 10 cycles is just over a microsecond at 103.2 ns/cycle.
        let d = t.cycles_f64_to_time(10.0);
        assert!((d.us() - 1.0322).abs() < 1e-3);
    }
}
