//! Arbitration schemes and scheduling candidates.
//!
//! §4.4: "Arbitration can be performed by using static priorities, dynamic
//! priorities or random selection. The MMR utilizes a dynamic priority
//! biasing scheme … the rate at which these priorities grow is a function of
//! the QoS metric used for the corresponding connection."
//!
//! §5.1 defines the evaluated comparators: the biased-priority scheme, a
//! fixed-priority scheme, "an algorithm that represents the scheduling in
//! the Autonet switch" (Anderson et al.'s parallel iterative matching), and
//! a *perfect switch* whose outputs accept every requesting input in the
//! same flit cycle.

use crate::ids::{ConnectionId, PortId, VcIndex};

/// Which switch/link arbitration scheme the router runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterKind {
    /// Static per-connection priorities assigned at establishment.
    FixedPriority,
    /// The MMR's dynamic priority biasing: the priority of a head flit grows
    /// with the ratio of its waiting time to the connection's inter-arrival
    /// period, so fast connections age faster (§5.1).
    BiasedPriority,
    /// Rotating-pointer selection at both inputs and outputs (a classic
    /// round-robin crossbar arbiter; extension baseline).
    RoundRobin,
    /// Plain aging: the priority is the flit's absolute waiting time,
    /// independent of the connection's rate (extension baseline that
    /// isolates the *QoS-metric-dependent* part of the paper's bias — §4.4:
    /// priorities grow "dependent upon the type of service guarantees
    /// rather than simply the time spent by the packet in the network").
    OldestFirst,
    /// Parallel iterative matching with random selection, representing the
    /// Autonet/DEC switch scheduler of Anderson et al. (refs [2, 24]).
    Autonet {
        /// Number of request/grant/accept iterations per flit cycle.
        iterations: u32,
    },
    /// iSLIP-style iterative matching with rotating grant/accept pointers
    /// (extension baseline).
    Islip {
        /// Number of iterations per flit cycle.
        iterations: u32,
    },
    /// The paper's ideal lower bound: "the switch internal bandwidth is N
    /// times the link bandwidth … there are no port conflicts".
    Perfect,
}

impl ArbiterKind {
    /// The Autonet comparator with the iteration count used in the figures
    /// (⌈log₂ 8⌉ + 1 = 4 for an 8×8 switch, PIM's usual setting).
    pub fn autonet_default() -> Self {
        ArbiterKind::Autonet { iterations: 4 }
    }
}

/// The service phase of a candidate, ordered by scheduling precedence
/// (§3.4 and §4.3): control packets outrank data streams; the link scheduler
/// "first assigns all the flit cycles in a round for CBR connections. Then,
/// it assigns the permanent bandwidth to every VBR connection … \[then\] the
/// excess bandwidth … in priority order"; best-effort packets come last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServicePhase {
    /// Buffered control packets (probes, acks) — highest precedence.
    Control,
    /// CBR connections within their per-round allocation.
    CbrGuaranteed,
    /// VBR connections within their permanent allocation.
    VbrPermanent,
    /// VBR connections between permanent and peak allocation.
    VbrExcess,
    /// Best-effort packets — lowest precedence.
    BestEffort,
}

/// One virtual channel offered by a link scheduler to the switch scheduler
/// for the next flit cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Input port the candidate flit waits at.
    pub input: PortId,
    /// Virtual channel (within the input port) holding the flit.
    pub vc: VcIndex,
    /// Output port the flit must leave on (from the direct channel mapping).
    pub output: PortId,
    /// The owning connection.
    pub conn: ConnectionId,
    /// Service phase (primary sort key, ascending).
    pub phase: ServicePhase,
    /// Priority within the phase (secondary sort key, descending): the
    /// biased ratio, the fixed priority, or a scheme-specific value.
    pub priority: f64,
}

impl Candidate {
    /// Total order used everywhere a deterministic ranking is needed:
    /// earlier phase first, then higher priority, then lower VC index.
    pub fn rank_before(&self, other: &Candidate) -> bool {
        if self.phase != other.phase {
            return self.phase < other.phase;
        }
        if self.priority != other.priority {
            return self.priority > other.priority;
        }
        self.vc < other.vc
    }
}

/// Sorts candidates into scheduling order (see [`Candidate::rank_before`]).
pub fn sort_candidates(cands: &mut [Candidate]) {
    cands.sort_by(|a, b| {
        // total_cmp gives a total order even for non-finite priorities, so
        // the sort can never panic; NaN sorts above +inf and keeps the
        // (phase, vc) tie-breaks deterministic either way.
        a.phase
            .cmp(&b.phase)
            .then(b.priority.total_cmp(&a.priority))
            .then(a.vc.cmp(&b.vc))
    });
}

/// Computes the biased priority of a head flit (§5.1): "a biased priority
/// based on the ratio of the delay experienced by a flit at the switch and
/// the inter-arrival time on the connection", recomputed every flit cycle.
///
/// Unpaced connections (infinite inter-arrival) age with a tiny slope so
/// they still make progress rather than starving.
pub fn biased_priority(head_delay_cycles: f64, interarrival_cycles: f64) -> f64 {
    if interarrival_cycles.is_finite() && interarrival_cycles > 0.0 {
        head_delay_cycles / interarrival_cycles
    } else {
        head_delay_cycles * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(phase: ServicePhase, priority: f64, vc: u16) -> Candidate {
        Candidate {
            input: PortId(0),
            vc: VcIndex(vc),
            output: PortId(1),
            conn: ConnectionId(0),
            phase,
            priority,
        }
    }

    #[test]
    fn phase_order_matches_paper() {
        assert!(ServicePhase::Control < ServicePhase::CbrGuaranteed);
        assert!(ServicePhase::CbrGuaranteed < ServicePhase::VbrPermanent);
        assert!(ServicePhase::VbrPermanent < ServicePhase::VbrExcess);
        assert!(ServicePhase::VbrExcess < ServicePhase::BestEffort);
    }

    #[test]
    fn sort_orders_phase_then_priority_then_vc() {
        let mut cs = vec![
            cand(ServicePhase::BestEffort, 9.0, 0),
            cand(ServicePhase::CbrGuaranteed, 0.5, 2),
            cand(ServicePhase::CbrGuaranteed, 0.5, 1),
            cand(ServicePhase::CbrGuaranteed, 2.0, 3),
            cand(ServicePhase::Control, 0.0, 4),
        ];
        sort_candidates(&mut cs);
        let vcs: Vec<u16> = cs.iter().map(|c| c.vc.0).collect();
        assert_eq!(vcs, vec![4, 3, 1, 2, 0]);
        assert!(cs[0].rank_before(&cs[1]));
        assert!(!cs[1].rank_before(&cs[0]));
    }

    #[test]
    fn biased_priority_grows_faster_for_fast_connections() {
        // Same waiting time, 10x faster connection -> 10x the priority.
        let slow = biased_priority(50.0, 1000.0);
        let fast = biased_priority(50.0, 100.0);
        assert!((fast / slow - 10.0).abs() < 1e-12);
        // Priority is recomputed from delay: it grows linearly with waiting.
        assert!(biased_priority(100.0, 100.0) > biased_priority(50.0, 100.0));
    }

    #[test]
    fn biased_priority_handles_unpaced() {
        let p = biased_priority(100.0, f64::INFINITY);
        assert!(p > 0.0 && p < 1e-3, "tiny aging slope: {p}");
    }

    #[test]
    fn kind_classification() {
        assert_eq!(ArbiterKind::autonet_default(), ArbiterKind::Autonet { iterations: 4 });
    }
}
