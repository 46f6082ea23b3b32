//! The reference model: a deliberately simple, obviously-correct ledger of
//! what the MMR network *must* do, fed with the same event stream the real
//! simulator produces and diffed against its end state.
//!
//! The oracle does not model pipelining, arbitration, or buffering — it
//! cannot predict *which* flit wins a crossbar slot. It states only the
//! properties every correct execution shares:
//!
//! | Invariant | Checked |
//! |---|---|
//! | Admission stays within link capacity | at `admitted` |
//! | Per-connection exactly-once, in-order delivery | at `delivered` |
//! | Latency never beats the path's hop floor | at `delivered` |
//! | No delivery for closed/unknown connections | at `delivered` |
//! | Live connections drain completely | at `finish` |
//! | Flit conservation: injected = delivered + lost | at `finish` |
//! | Network delivery counter matches the ledger | at `finish` |
//! | Zero out-of-order deliveries network-wide | at `finish` |
//! | Credits return to the VC depth at quiescence | via [`Oracle::note`] |
//! | Cycle-accurate auditor stayed clean | via [`Oracle::note`] |
//!
//! Any failed check becomes a [`Divergence`]; the differential runner
//! treats a non-empty divergence list as a conformance failure and hands
//! the scenario to the shrinker.

use std::collections::BTreeMap;

use mmr_net::NetStats;

/// Tolerance for the fractional flits-per-cycle admission sum (the
/// bandwidth book itself admits with a 1e-9 slack; anything past 1e-6 is a
/// real over-admission, not float noise).
const CAPACITY_EPS: f64 = 1e-6;

/// One observed difference between the real simulator and the reference
/// model.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// The setup path reserved more than a link can physically carry.
    OverAdmission {
        /// Link endpoint node.
        node: u16,
        /// Link endpoint (output) port.
        port: u8,
        /// Aggregate reserved flits per cycle on the link.
        load: f64,
    },
    /// A delivered sequence number was not the next expected one
    /// (duplicate, skip, or reorder).
    SequenceViolation {
        /// Connection id.
        conn: u32,
        /// Expected sequence number.
        expected: u64,
        /// Delivered sequence number.
        got: u64,
    },
    /// An end-to-end latency below the path's hop count — physically
    /// impossible (a flit crosses at most one router per cycle).
    ImpossibleLatency {
        /// Connection id.
        conn: u32,
        /// Sequence number.
        seq: u64,
        /// Reported latency in cycles.
        latency: u64,
        /// Minimum legal latency for the path.
        floor: u64,
    },
    /// A delivery for a connection the ledger considers closed or never
    /// admitted.
    UnexpectedDelivery {
        /// Connection id.
        conn: u32,
        /// Sequence number.
        seq: u64,
    },
    /// A live connection did not drain: flits were injected and never
    /// delivered, with no fault to account for them.
    MissingFlits {
        /// Connection id.
        conn: u32,
        /// Flits injected at the source.
        injected: u64,
        /// Flits delivered at the destination.
        delivered: u64,
    },
    /// Global conservation broke: injected != delivered + lost.
    ConservationViolation {
        /// Total flits injected (ledger).
        injected: u64,
        /// Total flits delivered (network counter).
        delivered: u64,
        /// Total flits lost to faults (network counter).
        lost: u64,
    },
    /// The network's delivered-flit counter disagrees with the ledger's.
    DeliveredMismatch {
        /// Ledger count.
        oracle: u64,
        /// Network count.
        network: u64,
    },
    /// The network's own out-of-order counter is nonzero.
    ReorderCounter {
        /// The counter value.
        count: u64,
    },
    /// An output VC's credit count did not return to the buffer depth
    /// after the network drained (credits leaked or were minted).
    CreditLeak {
        /// Router holding the credit counter.
        node: u16,
        /// Output port.
        port: u8,
        /// VC index.
        vc: u16,
        /// Credits observed at quiescence.
        credit: u32,
        /// The VC buffer depth they must equal.
        depth: u32,
    },
    /// The cycle-accurate invariant auditor recorded violations.
    AuditorViolation {
        /// Violation count.
        count: u64,
        /// Debug rendering of the first violation.
        first: String,
    },
    /// Generating or running the case panicked.
    Panicked {
        /// The panic's message (empty for a non-string payload).
        message: String,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::OverAdmission { node, port, load } => {
                write!(f, "over-admission: link n{node}p{port} reserved {load:.4} flits/cycle")
            }
            Divergence::SequenceViolation { conn, expected, got } => {
                write!(f, "sequence violation: net{conn} expected seq {expected}, got {got}")
            }
            Divergence::ImpossibleLatency { conn, seq, latency, floor } => write!(
                f,
                "impossible latency: net{conn} seq {seq} took {latency} cycles (floor {floor})"
            ),
            Divergence::UnexpectedDelivery { conn, seq } => {
                write!(f, "unexpected delivery: net{conn} seq {seq} after close")
            }
            Divergence::MissingFlits { conn, injected, delivered } => write!(
                f,
                "missing flits: net{conn} injected {injected} but delivered {delivered}"
            ),
            Divergence::ConservationViolation { injected, delivered, lost } => write!(
                f,
                "conservation violation: injected {injected} != delivered {delivered} + lost {lost}"
            ),
            Divergence::DeliveredMismatch { oracle, network } => write!(
                f,
                "delivery counter mismatch: oracle saw {oracle}, network counted {network}"
            ),
            Divergence::ReorderCounter { count } => {
                write!(f, "network out_of_order counter is {count}")
            }
            Divergence::CreditLeak { node, port, vc, credit, depth } => write!(
                f,
                "credit leak: n{node}p{port}vc{vc} holds {credit} credits at quiescence \
                 (depth {depth})"
            ),
            Divergence::AuditorViolation { count, first } => {
                write!(f, "auditor recorded {count} violation(s); first: {first}")
            }
            Divergence::Panicked { message } => write!(f, "panicked: {message}"),
        }
    }
}

/// Per-connection ledger entry.
#[derive(Debug, Clone)]
struct Ledger {
    /// Directed links reserved by the path, as (node, output port).
    links: Vec<(u16, u8)>,
    /// Routers on the path (the latency floor is `hops - 1`).
    hops: u64,
    /// Reserved flits per cycle (1 / interarrival).
    flits_per_cycle: f64,
    injected: u64,
    delivered: u64,
    next_seq: u64,
    /// False once a fault tore the connection down.
    live: bool,
}

/// The reference model. Feed it the scenario's events in simulation order,
/// then call [`Oracle::finish`]; collected divergences come back from
/// [`Oracle::into_divergences`].
#[derive(Debug, Default)]
pub struct Oracle {
    conns: BTreeMap<u32, Ledger>,
    /// Aggregate reserved load per directed link.
    link_load: BTreeMap<(u16, u8), f64>,
    injected_total: u64,
    delivered_total: u64,
    divergences: Vec<Divergence>,
}

impl Oracle {
    /// A fresh, empty ledger.
    pub fn new() -> Oracle {
        Oracle::default()
    }

    /// Records an admitted connection: its directed links (node, output
    /// port per hop), router count, and reserved rate in flits per cycle.
    /// Immediately checks that no link exceeds unit capacity.
    pub fn admitted(&mut self, conn: u32, links: Vec<(u16, u8)>, hops: u64, flits_per_cycle: f64) {
        for &link in &links {
            let load = self.link_load.entry(link).or_insert(0.0);
            *load += flits_per_cycle;
            if *load > 1.0 + CAPACITY_EPS {
                self.divergences.push(Divergence::OverAdmission {
                    node: link.0,
                    port: link.1,
                    load: *load,
                });
            }
        }
        self.conns.insert(
            conn,
            Ledger {
                links,
                hops,
                flits_per_cycle,
                injected: 0,
                delivered: 0,
                next_seq: 0,
                live: true,
            },
        );
    }

    /// Records a connection torn down by a fault or closed voluntarily:
    /// its reserved bandwidth returns to the links and its drain
    /// obligation is waived (in-flight flits become teardown losses).
    /// Idempotent — a churn session can be observed closing through both
    /// the fault path and the session-reconcile path in one cycle.
    pub fn closed(&mut self, conn: u32) {
        if let Some(ledger) = self.conns.get_mut(&conn) {
            if !ledger.live {
                return;
            }
            ledger.live = false;
            for &link in &ledger.links {
                if let Some(load) = self.link_load.get_mut(&link) {
                    *load -= ledger.flits_per_cycle;
                }
            }
        }
    }

    /// Records a flit accepted at the source NI.
    pub fn injected(&mut self, conn: u32) {
        self.injected_total += 1;
        if let Some(ledger) = self.conns.get_mut(&conn) {
            ledger.injected += 1;
        }
    }

    /// Records a flit leaving the destination NI; checks order, uniqueness
    /// and the latency floor on the spot.
    pub fn delivered(&mut self, conn: u32, seq: u64, latency: u64) {
        self.delivered_total += 1;
        let Some(ledger) = self.conns.get_mut(&conn) else {
            self.divergences.push(Divergence::UnexpectedDelivery { conn, seq });
            return;
        };
        if !ledger.live {
            self.divergences.push(Divergence::UnexpectedDelivery { conn, seq });
            return;
        }
        if seq != ledger.next_seq {
            self.divergences.push(Divergence::SequenceViolation {
                conn,
                expected: ledger.next_seq,
                got: seq,
            });
        }
        ledger.next_seq = seq + 1;
        ledger.delivered += 1;
        let floor = ledger.hops.saturating_sub(1);
        if latency < floor {
            self.divergences.push(Divergence::ImpossibleLatency { conn, seq, latency, floor });
        }
    }

    /// Records an externally-checked divergence (credit scans and auditor
    /// results live in the runner, which sees the real router state).
    pub fn note(&mut self, d: Divergence) {
        self.divergences.push(d);
    }

    /// End-of-run reconciliation against the network's own counters.
    pub fn finish(&mut self, stats: &NetStats) {
        for (&conn, ledger) in &self.conns {
            if ledger.live && ledger.delivered != ledger.injected {
                self.divergences.push(Divergence::MissingFlits {
                    conn,
                    injected: ledger.injected,
                    delivered: ledger.delivered,
                });
            }
        }
        if self.delivered_total != stats.flits_delivered {
            self.divergences.push(Divergence::DeliveredMismatch {
                oracle: self.delivered_total,
                network: stats.flits_delivered,
            });
        }
        if self.injected_total != stats.flits_delivered + stats.flits_lost {
            self.divergences.push(Divergence::ConservationViolation {
                injected: self.injected_total,
                delivered: stats.flits_delivered,
                lost: stats.flits_lost,
            });
        }
        if stats.out_of_order != 0 {
            self.divergences.push(Divergence::ReorderCounter { count: stats.out_of_order });
        }
    }

    /// Total flits the ledger saw injected.
    pub fn injected_total(&self) -> u64 {
        self.injected_total
    }

    /// Total flits the ledger saw delivered.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// Consumes the oracle, yielding every divergence found.
    pub fn into_divergences(self) -> Vec<Divergence> {
        self.divergences
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_stats(delivered: u64) -> NetStats {
        NetStats { flits_delivered: delivered, ..NetStats::default() }
    }

    #[test]
    fn a_clean_run_produces_no_divergences() {
        let mut o = Oracle::new();
        o.admitted(0, vec![(0, 1), (1, 0)], 2, 0.1);
        for seq in 0..5 {
            o.injected(0);
            o.delivered(0, seq, 3);
        }
        o.finish(&clean_stats(5));
        assert!(o.into_divergences().is_empty());
    }

    #[test]
    fn over_admission_is_flagged() {
        let mut o = Oracle::new();
        o.admitted(0, vec![(0, 1)], 2, 0.7);
        o.admitted(1, vec![(0, 1)], 2, 0.7);
        let d = o.into_divergences();
        assert!(matches!(d.first(), Some(Divergence::OverAdmission { node: 0, port: 1, .. })), "{d:?}");
    }

    #[test]
    fn closing_a_connection_releases_its_bandwidth() {
        let mut o = Oracle::new();
        o.admitted(0, vec![(0, 1)], 2, 0.7);
        o.closed(0);
        o.admitted(1, vec![(0, 1)], 2, 0.7);
        assert!(o.into_divergences().is_empty());
    }

    #[test]
    fn sequence_skip_and_duplicate_are_flagged() {
        let mut o = Oracle::new();
        o.admitted(0, vec![(0, 1)], 2, 0.1);
        o.injected(0);
        o.injected(0);
        o.delivered(0, 1, 3); // skipped seq 0
        let d = o.into_divergences();
        assert!(matches!(
            d.first(),
            Some(Divergence::SequenceViolation { conn: 0, expected: 0, got: 1 })
        ));
    }

    #[test]
    fn latency_below_the_hop_floor_is_flagged() {
        let mut o = Oracle::new();
        o.admitted(0, vec![(0, 1), (1, 2), (2, 0)], 3, 0.1);
        o.injected(0);
        o.delivered(0, 0, 1); // 3 routers -> floor 2
        let d = o.into_divergences();
        assert!(matches!(d.first(), Some(Divergence::ImpossibleLatency { floor: 2, .. })));
    }

    #[test]
    fn undrained_live_connection_is_flagged() {
        let mut o = Oracle::new();
        o.admitted(0, vec![(0, 1)], 2, 0.1);
        o.injected(0);
        o.finish(&clean_stats(0));
        let d = o.into_divergences();
        assert!(d
            .iter()
            .any(|x| matches!(x, Divergence::MissingFlits { conn: 0, injected: 1, delivered: 0 })));
    }

    #[test]
    fn fault_losses_balance_conservation() {
        let mut o = Oracle::new();
        o.admitted(0, vec![(0, 1)], 2, 0.1);
        o.injected(0);
        o.injected(0);
        o.delivered(0, 0, 3);
        o.closed(0); // the second flit died with the link
        let stats = NetStats { flits_delivered: 1, flits_lost: 1, ..NetStats::default() };
        o.finish(&stats);
        assert!(o.into_divergences().is_empty());
    }
}
