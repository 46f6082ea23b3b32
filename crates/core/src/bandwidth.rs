//! Rounds, bandwidth allocation registers and admission control.
//!
//! §4.1–§4.2 of the paper: link bandwidth is split into flit cycles, grouped
//! into *rounds* of `K × V` cycles (`V` = virtual channels per link,
//! `K > 1`). A CBR connection is admitted iff the link's allocation register
//! plus the request does not exceed the cycles in a round; a VBR connection
//! additionally checks its peak against `round × concurrency_factor`. Some
//! bandwidth per round can be reserved for best-effort traffic "in order to
//! prevent starvation of best-effort packets".

use mmr_sim::{Bandwidth, FlitTiming};

use crate::conn::QosClass;

/// The round (frame) structure of a link (§4.1).
///
/// # Example
///
/// ```
/// use mmr_core::bandwidth::RoundConfig;
///
/// let round = RoundConfig::new(256, 2); // 256 VCs, K = 2
/// assert_eq!(round.cycles_per_round(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundConfig {
    vcs_per_link: usize,
    k: u32,
}

impl RoundConfig {
    /// Creates a round of `k × vcs_per_link` flit cycles.
    ///
    /// # Panics
    ///
    /// Panics if `vcs_per_link` is zero or `k < 2` — the paper requires
    /// `K > 1` so every VC can be offered at least one cycle with room to
    /// spare for allocation flexibility.
    pub fn new(vcs_per_link: usize, k: u32) -> Self {
        // mmr-lint: allow(P-TRANS, reason="construction-time config validation; unreachable from the per-cycle path")
        assert!(vcs_per_link > 0, "need at least one virtual channel");
        assert!(k >= 2, "the paper requires K > 1"); // mmr-lint: allow(P-TRANS, reason="construction-time config validation; unreachable from the per-cycle path")
        RoundConfig { vcs_per_link, k }
    }

    /// The round length in flit cycles.
    pub fn cycles_per_round(self) -> u64 {
        self.vcs_per_link as u64 * u64::from(self.k)
    }

    /// Bandwidth represented by one flit cycle per round — the allocation
    /// granularity. A larger `K` makes this finer (§4.1's flexibility/jitter
    /// trade-off).
    pub fn granularity(self, timing: FlitTiming) -> Bandwidth {
        timing.link_rate() / self.cycles_per_round() as f64
    }

    /// Converts a data rate into (fractional) flit cycles per round on a
    /// link with the given timing.
    pub fn cycles_for_rate(self, rate: Bandwidth, timing: FlitTiming) -> f64 {
        rate.fraction_of(timing.link_rate()) * self.cycles_per_round() as f64
    }
}

/// Why admission control rejected a connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionError {
    /// The guaranteed-bandwidth register would exceed the cycles available
    /// to reserved traffic in a round.
    GuaranteedBandwidthExhausted {
        /// Cycles/round already allocated.
        allocated: f64,
        /// Cycles/round the request needs.
        requested: f64,
        /// Cycles/round available to reserved traffic.
        limit: f64,
    },
    /// The VBR peak register would exceed `round × concurrency_factor`.
    PeakBandwidthExhausted {
        /// Peak cycles/round already booked.
        booked: f64,
        /// Peak cycles/round requested.
        requested: f64,
        /// The concurrency-factor-scaled limit.
        limit: f64,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::GuaranteedBandwidthExhausted { allocated, requested, limit } => write!(
                f,
                "guaranteed bandwidth exhausted: {allocated:.2} + {requested:.2} > {limit:.2} cycles/round"
            ),
            AdmissionError::PeakBandwidthExhausted { booked, requested, limit } => write!(
                f,
                "peak bandwidth exhausted: {booked:.2} + {requested:.2} > {limit:.2} cycles/round"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// The bandwidth booked for one admitted connection; returned by
/// [`LinkBandwidthBook::try_admit`] and surrendered on teardown.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Allocation {
    /// Guaranteed cycles/round (CBR rate, or VBR permanent bandwidth).
    pub guaranteed_cycles: f64,
    /// Peak cycles/round (VBR only; zero otherwise).
    pub peak_cycles: f64,
}

/// The per-output-link allocation registers (§4.2): one register counting
/// guaranteed cycles/round, a second counting VBR peak cycles/round, and the
/// concurrency factor "set during power on".
#[derive(Debug, Clone)]
pub struct LinkBandwidthBook {
    round: RoundConfig,
    timing: FlitTiming,
    /// Fraction of the round reserved for best-effort traffic.
    best_effort_reserve: f64,
    /// The VBR concurrency factor.
    concurrency_factor: f64,
    guaranteed_register: f64,
    peak_register: f64,
}

impl LinkBandwidthBook {
    /// Creates an empty book for a link.
    ///
    /// # Panics
    ///
    /// Panics if `best_effort_reserve` is not in `[0, 1)` or
    /// `concurrency_factor < 1`.
    pub fn new(
        round: RoundConfig,
        timing: FlitTiming,
        best_effort_reserve: f64,
        concurrency_factor: f64,
    ) -> Self {
        // mmr-lint: allow(P-TRANS, reason="construction-time config validation; unreachable from the per-cycle path")
        assert!(
            (0.0..1.0).contains(&best_effort_reserve),
            "best-effort reserve must be a fraction below 1"
        );
        assert!(concurrency_factor >= 1.0, "concurrency factor below 1 would reject admissible peaks"); // mmr-lint: allow(P-TRANS, reason="construction-time config validation; unreachable from the per-cycle path")
        LinkBandwidthBook {
            round,
            timing,
            best_effort_reserve,
            concurrency_factor,
            guaranteed_register: 0.0,
            peak_register: 0.0,
        }
    }

    /// Cycles per round available to reserved (CBR + VBR-permanent) traffic.
    pub fn reservable_cycles(&self) -> f64 {
        self.round.cycles_per_round() as f64 * (1.0 - self.best_effort_reserve)
    }

    /// For tests: the allocated guaranteed cycles/round.
    #[doc(hidden)]
    pub fn guaranteed_allocated(&self) -> f64 {
        self.guaranteed_register
    }

    /// For tests: the booked VBR peak cycles/round.
    #[doc(hidden)]
    pub fn peak_booked(&self) -> f64 {
        self.peak_register
    }

    /// Fraction of the link's reservable bandwidth already committed.
    pub fn load_factor(&self) -> f64 {
        self.guaranteed_register / self.reservable_cycles()
    }

    /// Attempts to admit a connection of the given class (§4.2 rules).
    ///
    /// Classes without reservations (best-effort, control) always succeed
    /// with an empty allocation.
    ///
    /// # Errors
    ///
    /// [`AdmissionError`] when either register would exceed its limit; the
    /// registers are left unchanged in that case.
    pub fn try_admit(&mut self, class: QosClass) -> Result<Allocation, AdmissionError> {
        match class {
            QosClass::Cbr { rate } => {
                let cycles = self.round.cycles_for_rate(rate, self.timing);
                self.admit_guaranteed(cycles)?;
                Ok(Allocation { guaranteed_cycles: cycles, peak_cycles: 0.0 })
            }
            QosClass::Vbr { permanent, peak, .. } => {
                let perm_cycles = self.round.cycles_for_rate(permanent, self.timing);
                let peak_cycles = self.round.cycles_for_rate(peak, self.timing);
                let peak_limit =
                    self.round.cycles_per_round() as f64 * self.concurrency_factor;
                if self.peak_register + peak_cycles > peak_limit {
                    return Err(AdmissionError::PeakBandwidthExhausted {
                        booked: self.peak_register,
                        requested: peak_cycles,
                        limit: peak_limit,
                    });
                }
                self.admit_guaranteed(perm_cycles)?;
                self.peak_register += peak_cycles;
                Ok(Allocation { guaranteed_cycles: perm_cycles, peak_cycles })
            }
            QosClass::BestEffort | QosClass::Control => Ok(Allocation::default()),
        }
    }

    fn admit_guaranteed(&mut self, cycles: f64) -> Result<(), AdmissionError> {
        let limit = self.reservable_cycles();
        if self.guaranteed_register + cycles > limit + 1e-9 {
            return Err(AdmissionError::GuaranteedBandwidthExhausted {
                allocated: self.guaranteed_register,
                requested: cycles,
                limit,
            });
        }
        self.guaranteed_register += cycles;
        Ok(())
    }

    /// Releases an allocation on teardown ("decremented when a connection is
    /// removed").
    pub fn release(&mut self, alloc: Allocation) {
        self.guaranteed_register = (self.guaranteed_register - alloc.guaranteed_cycles).max(0.0);
        self.peak_register = (self.peak_register - alloc.peak_cycles).max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> FlitTiming {
        FlitTiming::paper_default()
    }

    fn book() -> LinkBandwidthBook {
        LinkBandwidthBook::new(RoundConfig::new(256, 2), timing(), 0.0, 4.0)
    }

    #[test]
    fn round_length_and_granularity() {
        let r = RoundConfig::new(256, 2);
        assert_eq!(r.cycles_per_round(), 512);
        // Granularity = 1.24 Gbps / 512 ≈ 2.42 Mbps.
        assert!((r.granularity(timing()).mbps() - 2.421875).abs() < 1e-6);
        // A 55 Mbps connection needs ~22.7 cycles/round.
        let c = r.cycles_for_rate(Bandwidth::from_mbps(55.0), timing());
        assert!((c - 22.7097).abs() < 1e-3, "{c}");
    }

    #[test]
    #[should_panic(expected = "K > 1")]
    fn k_of_one_is_rejected() {
        let _ = RoundConfig::new(256, 1);
    }

    #[test]
    fn cbr_admission_fills_to_capacity() {
        let mut b = book();
        // Each 124 Mbps connection is 10% of the link: 51.2 cycles/round.
        let class = QosClass::Cbr { rate: Bandwidth::from_mbps(124.0) };
        for _ in 0..10 {
            b.try_admit(class).expect("fits");
        }
        assert!((b.load_factor() - 1.0).abs() < 1e-9);
        let err = b.try_admit(class).expect_err("over capacity");
        assert!(matches!(err, AdmissionError::GuaranteedBandwidthExhausted { .. }));
    }

    #[test]
    fn release_returns_capacity() {
        let mut b = book();
        let class = QosClass::Cbr { rate: Bandwidth::from_mbps(620.0) };
        let a1 = b.try_admit(class).expect("fits");
        let _a2 = b.try_admit(class).expect("fits");
        assert!(b.try_admit(class).is_err());
        b.release(a1);
        assert!(b.try_admit(class).is_ok(), "released capacity is reusable");
    }

    #[test]
    fn best_effort_reserve_caps_reservable() {
        let mut b = LinkBandwidthBook::new(RoundConfig::new(256, 2), timing(), 0.25, 4.0);
        assert_eq!(b.reservable_cycles(), 384.0);
        // 75% of the link fits, more does not.
        let class = QosClass::Cbr { rate: Bandwidth::from_mbps(930.0) };
        b.try_admit(class).expect("exactly the reservable fraction");
        assert!(b.try_admit(QosClass::Cbr { rate: Bandwidth::from_kbps(64.0) }).is_err());
    }

    #[test]
    fn vbr_checks_both_registers() {
        let mut b = book();
        let vbr = QosClass::Vbr {
            permanent: Bandwidth::from_mbps(124.0), // 10% permanent
            peak: Bandwidth::from_mbps(1240.0),     // 100% peak
            priority: 0,
        };
        // Concurrency factor 4 allows four full-link peaks.
        for _ in 0..4 {
            b.try_admit(vbr).expect("peak fits under concurrency factor");
        }
        let err = b.try_admit(vbr).expect_err("fifth peak exceeds concurrency");
        assert!(matches!(err, AdmissionError::PeakBandwidthExhausted { .. }));
        // Peak rejection must not leak guaranteed bandwidth.
        assert!((b.guaranteed_allocated() - 4.0 * 51.2).abs() < 1e-6);
    }

    #[test]
    fn vbr_permanent_counts_against_guaranteed() {
        let mut b = book();
        let vbr = QosClass::Vbr {
            permanent: Bandwidth::from_mbps(620.0),
            peak: Bandwidth::from_mbps(620.0),
            priority: 0,
        };
        b.try_admit(vbr).expect("half the link");
        let cbr = QosClass::Cbr { rate: Bandwidth::from_mbps(930.0) };
        assert!(b.try_admit(cbr).is_err(), "VBR permanent already holds 50%");
    }

    #[test]
    fn unreserved_classes_always_admit() {
        let mut b = book();
        b.try_admit(QosClass::Cbr { rate: Bandwidth::from_gbps(1.24) }).expect("full link");
        assert_eq!(b.try_admit(QosClass::BestEffort).expect("no reservation"), Allocation::default());
        assert_eq!(b.try_admit(QosClass::Control).expect("no reservation"), Allocation::default());
    }

    #[test]
    fn admission_errors_display() {
        let mut b = book();
        b.try_admit(QosClass::Cbr { rate: Bandwidth::from_gbps(1.24) }).expect("full link");
        let err = b.try_admit(QosClass::Cbr { rate: Bandwidth::from_mbps(1.0) }).unwrap_err();
        assert!(err.to_string().contains("guaranteed bandwidth exhausted"));
    }
}
