//! Cycle-accurate invariant auditor.
//!
//! The MMR's correctness rests on a handful of conservation laws that the
//! paper asserts implicitly: virtual channels are neither leaked nor double
//! mapped (§3.5's free-VC stacks), credits never exceed the buffer they
//! meter, link schedulers respect per-round bandwidth quotas (§4.1–§4.2),
//! and an established connection's flit stream arrives exactly once, in
//! order. A bug — or an unhandled transient fault — breaks one of these laws
//! long before it shows up in a throughput figure.
//!
//! [`Auditor`] checks the router laws explicitly. It is deliberately
//! read-only: [`Auditor::visit_router`] inspects a [`Router`] between flit
//! cycles via its public introspection surface. What only the multi-router
//! simulator can see — credit conservation across a hop, and a stream's
//! sequence, which its destination NI keeps — it checks itself and hands to
//! [`Auditor::report`]. Violations are reported as structured
//! [`AuditViolation`] values rather than panics, so fault-injection
//! campaigns can *count* broken invariants (the whole point of injecting
//! faults) while CI can escalate any violation to a test failure.
//!
//! The auditor is off the hot path unless enabled; the baseline simulation
//! is byte-identical with or without it.

use std::fmt;

use mmr_sim::Cycles;

use crate::conn::ConnState;
use crate::ids::{ConnRef, ConnectionId, PortId};
use crate::router::Router;
use crate::table::LazyVcMap;

/// Which side of a port an invariant refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcSide {
    /// The receiving (input VC / arriving link) side.
    Input,
    /// The transmitting (output VC / departing link) side.
    Output,
}

impl fmt::Display for VcSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VcSide::Input => write!(f, "input"),
            VcSide::Output => write!(f, "output"),
        }
    }
}

/// One broken invariant, with enough context to reproduce and debug it.
///
/// `router` is the auditing caller's identifier for the router instance
/// (the node index in a multi-router simulation; 0 for a standalone router).
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// Mapped VCs plus free VCs no longer add up to the port's VC count —
    /// a virtual channel was leaked or double-allocated.
    VcSlotLeak {
        /// Router being audited.
        router: u16,
        /// Port whose VC accounting is broken.
        port: PortId,
        /// Input or output side.
        side: VcSide,
        /// VCs currently mapped by connections.
        mapped: usize,
        /// VCs on the free stack.
        free: usize,
        /// The port's total VC count.
        expected: usize,
    },
    /// An output VC holds more credits than the downstream buffer has slots.
    CreditOverflow {
        /// Router being audited.
        router: u16,
        /// Connection owning the output VC.
        conn: ConnectionId,
        /// Credits currently held.
        credits: u32,
        /// Downstream buffer depth (the legal maximum).
        depth: u32,
    },
    /// Credits + buffered flits + flits in flight on the wire no longer
    /// conserve the downstream buffer depth for a connection's hop
    /// (reported by the network-level audit, which can see both routers).
    CreditConservation {
        /// Upstream router of the hop.
        router: u16,
        /// Connection whose hop leaks.
        conn: ConnectionId,
        /// Credits held upstream.
        credits: u32,
        /// Flits buffered downstream.
        buffered: usize,
        /// Flits in the link-level retry layer (backlog + unacknowledged).
        in_flight: usize,
        /// Downstream buffer depth the sum must equal.
        depth: usize,
    },
    /// A connection was serviced more flits this round than its reserved
    /// quota allows.
    QuotaExceeded {
        /// Router being audited.
        router: u16,
        /// Over-serviced connection.
        conn: ConnectionId,
        /// Flits serviced this round.
        serviced: u32,
        /// The connection's per-round quota.
        quota: u32,
    },
    /// Reserved bandwidth on a link exceeds its reservable capacity, or a
    /// round serviced more guaranteed flits than it has cycles.
    BandwidthOversubscribed {
        /// Router being audited.
        router: u16,
        /// Oversubscribed port.
        port: PortId,
        /// Input or output side.
        side: VcSide,
        /// Committed fraction of reservable bandwidth (admission) or of the
        /// round (runtime), `> 1` here by definition.
        load: f64,
    },
    /// A stream delivery skipped ahead: flits `expected..got` never arrived.
    StreamLoss {
        /// Flow key of the stream (network connection id).
        stream: u64,
        /// Sequence number that should have arrived next.
        expected: u64,
        /// Sequence number that actually arrived.
        got: u64,
    },
    /// A stream delivered a sequence number at or before one already seen —
    /// a duplicated or reordered flit.
    StreamDuplicate {
        /// Flow key of the stream (network connection id).
        stream: u64,
        /// Sequence number that should have arrived next.
        expected: u64,
        /// Sequence number that actually arrived (`< expected`).
        got: u64,
    },
    /// A connection has had flits buffered continuously for longer than the
    /// watchdog threshold without forwarding any.
    Starvation {
        /// Router being audited.
        router: u16,
        /// Starved connection.
        conn: ConnectionId,
        /// How long it has been stalled with flits queued.
        stalled_for: Cycles,
        /// Flits currently queued on its input VC.
        occupancy: usize,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::VcSlotLeak { router, port, side, mapped, free, expected } => write!(
                f,
                "r{router} {port} {side}: VC slot leak ({mapped} mapped + {free} free != {expected})"
            ),
            AuditViolation::CreditOverflow { router, conn, credits, depth } => {
                write!(f, "r{router} {conn}: {credits} credits exceed depth {depth}")
            }
            AuditViolation::CreditConservation {
                router,
                conn,
                credits,
                buffered,
                in_flight,
                depth,
            } => write!(
                f,
                "r{router} {conn}: credit leak ({credits} credits + {buffered} buffered \
                 + {in_flight} in flight != depth {depth})"
            ),
            AuditViolation::QuotaExceeded { router, conn, serviced, quota } => {
                write!(f, "r{router} {conn}: serviced {serviced} flits over quota {quota}")
            }
            AuditViolation::BandwidthOversubscribed { router, port, side, load } => {
                write!(f, "r{router} {port} {side}: bandwidth oversubscribed (load {load:.3})")
            }
            AuditViolation::StreamLoss { stream, expected, got } => {
                write!(f, "stream {stream}: lost flits {expected}..{got}")
            }
            AuditViolation::StreamDuplicate { stream, expected, got } => {
                write!(f, "stream {stream}: duplicate/reordered flit {got} (expected {expected})")
            }
            AuditViolation::Starvation { router, conn, stalled_for, occupancy } => write!(
                f,
                "r{router} {conn}: starved for {stalled_for} with {occupancy} flits queued"
            ),
        }
    }
}

/// Auditor tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Cycles a connection may sit with flits queued and none forwarded
    /// before the watchdog calls it starved. Must comfortably exceed a
    /// round so low-rate CBR connections waiting on their quota don't trip
    /// it.
    pub starvation_threshold: Cycles,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig { starvation_threshold: Cycles(4096) }
    }
}

/// Violations kept verbatim; beyond this they are counted but dropped (a
/// broken invariant usually repeats every cycle).
const MAX_VIOLATIONS: usize = 64;

impl AuditConfig {
    /// For tests: overrides the starvation watchdog threshold.
    #[doc(hidden)]
    pub fn starvation_threshold(mut self, threshold: Cycles) -> Self {
        self.starvation_threshold = threshold;
        self
    }
}

/// Starvation-watchdog state of one connection on one router.
#[derive(Debug, Clone, Copy)]
struct WatchdogState {
    forwarded: u64,
    stalled_since: Option<Cycles>,
    flagged: bool,
}

/// One input VC's watchdog slot: the connection its state belongs to, and
/// the state.
type WatchdogSlot = Option<(ConnectionId, WatchdogState)>;

/// The invariant auditor. See the module docs for what it checks.
#[derive(Debug, Clone, Default)]
pub struct Auditor {
    cfg: AuditConfig,
    violations: Vec<AuditViolation>,
    /// Violations dropped after `MAX_VIOLATIONS` was reached.
    overflow: u64,
    /// Router-cycles covered (see [`Auditor::checks`]).
    checks: u64,
    /// Per router and input port, one watchdog slot per VC: the connection
    /// the state belongs to and the state. A connection owns its input VC,
    /// so a slot naming another id is a fresh entry. Only a connection that
    /// holds a flit or has been flagged keeps its slot filled: any other
    /// entry would be `{stalled_since: None, flagged: false}`, which is what
    /// a first visit starts from anyway. A router's port headers and a
    /// port's slots are allocated when the first slot is filled, so a
    /// thousand-router fabric holds them only where a flit ever stalled.
    watchdog: Vec<Vec<LazyVcMap<WatchdogSlot>>>,
    /// Scratch for the per-port `(input, output)` mapped-VC counts of
    /// `check_ports` (capacity persists across calls).
    mapped: Vec<(usize, usize)>,
}

impl Auditor {
    /// An auditor with the given configuration.
    pub fn new(cfg: AuditConfig) -> Self {
        Auditor { cfg, ..Auditor::default() }
    }

    /// Records a violation found by an external check (e.g. the network's
    /// cross-router credit conservation, or a stream's sequence at its
    /// destination NI).
    pub fn report(&mut self, violation: AuditViolation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(violation);
        } else {
            self.overflow += 1;
        }
    }

    /// For tests: audits every invariant of one router, the exhaustive oracle.
    #[doc(hidden)]
    pub fn check_router(&mut self, router: u16, r: &Router, now: Cycles) {
        self.visit_router(router, r, now, true, r.connections_iter(), |_| {});
    }

    /// Audits one router between flit cycles (after [`Router::step`]),
    /// asking for what changed since its last check: the per-port laws
    /// (VC slots, bandwidth books, round budget) if `ports`, then the three
    /// per-connection laws for `conns` — connections of `r` in ascending
    /// handle order, [`Router::connections_iter`]'s; all of them, with
    /// `ports`, is the exhaustive oracle. For a caller
    /// that re-visits what is broken, `broken` receives every connection
    /// found in violation and the return value says whether a per-port law
    /// is. Counts as one check.
    ///
    /// Each connection's watchdog state is the slot of its input VC; the
    /// slot of a connection that is not visited is left as it is, and a
    /// later connection on the same VC, which has another id, starts afresh.
    pub fn visit_router<'r>(
        &mut self,
        router: u16,
        r: &'r Router,
        now: Cycles,
        ports: bool,
        conns: impl Iterator<Item = &'r ConnState>,
        mut broken: impl FnMut(ConnRef),
    ) -> bool {
        self.checks += 1;
        let ports_broken = ports && self.check_ports(router, r);
        let router_at = usize::from(router);
        if self.watchdog.len() <= router_at {
            self.watchdog.resize_with(router_at + 1, Vec::new);
        }
        let mut ports = self.watchdog.get_mut(router_at).map(std::mem::take).unwrap_or_default();
        for conn in conns {
            let (port, vc) = (conn.input_vc.port.index(), conn.input_vc.vc);
            let mut state = match ports.get(port).map(|slots| slots.get(vc)) {
                Some(Some((id, state))) if id == conn.id => state,
                _ => WatchdogState {
                    forwarded: conn.flits_forwarded,
                    stalled_since: None,
                    flagged: false,
                },
            };
            if self.connection_laws(router, r, conn, now, &mut state) {
                broken(conn.handle());
            }
            let kept = (state.stalled_since.is_some() || state.flagged).then_some((conn.id, state));
            if kept.is_some() && ports.is_empty() {
                let dims = r.config();
                ports.resize(dims.ports(), LazyVcMap::new(dims.vcs_per_port() as u16));
            }
            if let Some(slots) =
                ports.get_mut(port).filter(|slots| kept.is_some() || slots.is_materialized())
            {
                *slots.slot_mut(vc) = kept;
            }
        }
        if let Some(entry) = self.watchdog.get_mut(router_at) {
            *entry = ports;
        }
        ports_broken
    }

    /// Counts `routers` routers as covered this cycle without looking at
    /// them: nothing on them changed since the pass that last checked them.
    pub fn cover(&mut self, routers: u64) {
        self.checks += routers;
    }

    /// The per-port laws; returns whether any is broken.
    fn check_ports(&mut self, router: u16, r: &Router) -> bool {
        let dims = r.config();
        let vcs = dims.vcs_per_port();
        let round_cycles = dims.round_cycles();
        let before = self.violation_count();

        // VC slot conservation: every VC is either on a free stack or mapped
        // by exactly one connection.
        let mut mapped = std::mem::take(&mut self.mapped);
        mapped.clear();
        mapped.resize(dims.ports(), (0, 0));
        for conn in r.connections_iter() {
            if let Some(at_input) = mapped.get_mut(conn.input_vc.port.index()) {
                at_input.0 += 1;
            }
            if let Some(at_output) = mapped.get_mut(conn.output_vc.port.index()) {
                at_output.1 += 1;
            }
        }
        for (p, &(mapped_in, mapped_out)) in mapped.iter().enumerate() {
            let port = PortId(p as u8);
            let (free_in, free_out) = r.free_vc_counts(port);
            for (side, mapped, free) in
                [(VcSide::Input, mapped_in, free_in), (VcSide::Output, mapped_out, free_out)]
            {
                if mapped + free != vcs {
                    self.report(AuditViolation::VcSlotLeak {
                        router,
                        port,
                        side,
                        mapped,
                        free,
                        expected: vcs,
                    });
                }
            }
            // Admission-time bandwidth accounting stays within the link.
            for (side, book) in [
                (VcSide::Input, r.input_bandwidth_book(port)),
                (VcSide::Output, r.bandwidth_book(port)),
            ] {
                let load = book.load_factor();
                if load > 1.0 + 1e-9 {
                    self.report(AuditViolation::BandwidthOversubscribed {
                        router,
                        port,
                        side,
                        load,
                    });
                }
            }
            // Runtime accounting: a round cannot service more guaranteed
            // flits than it has cycles.
            let serviced = u64::from(r.guaranteed_serviced_on(port));
            if serviced > round_cycles {
                self.report(AuditViolation::BandwidthOversubscribed {
                    router,
                    port,
                    side: VcSide::Output,
                    load: serviced as f64 / round_cycles as f64,
                });
            }
        }
        self.mapped = mapped;
        self.violation_count() != before
    }

    /// The three laws of one connection — credit overflow, round quota,
    /// starvation, reported in that order — shared by the exhaustive oracle
    /// and the incremental pass. Returns whether any was reported.
    fn connection_laws(
        &mut self,
        router: u16,
        r: &Router,
        conn: &ConnState,
        now: Cycles,
        state: &mut WatchdogState,
    ) -> bool {
        let before = self.violation_count();
        if r.credits_tracked() {
            let credits = r.output_credit(conn.output_vc);
            let depth = r.vc_depth();
            if credits as usize > depth {
                self.report(AuditViolation::CreditOverflow {
                    router,
                    conn: conn.id,
                    credits,
                    depth: depth as u32,
                });
            }
        }
        if let Some(quota) = conn.round_quota() {
            if conn.serviced_this_round > quota {
                self.report(AuditViolation::QuotaExceeded {
                    router,
                    conn: conn.id,
                    serviced: conn.serviced_this_round,
                    quota,
                });
            }
        }
        // Starvation watchdog: flits queued, none forwarded, for longer
        // than the threshold. `flagged` outlives an empty spell: only a
        // forwarded flit re-arms the report.
        if state.forwarded != conn.flits_forwarded {
            state.forwarded = conn.flits_forwarded;
            state.stalled_since = None;
            state.flagged = false;
        }
        let occupancy = r.vcm(conn.input_vc.port).occupancy(conn.input_vc.vc);
        if occupancy == 0 {
            state.stalled_since = None;
        } else {
            let since = *state.stalled_since.get_or_insert(now);
            if now.since(since) > self.cfg.starvation_threshold && !state.flagged {
                state.flagged = true;
                self.report(AuditViolation::Starvation {
                    router,
                    conn: conn.id,
                    stalled_for: now.since(since),
                    occupancy,
                });
            }
        }
        self.violation_count() != before
    }

    /// The stored violations, in discovery order.
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Total violations found, including any dropped past the storage cap.
    pub fn violation_count(&self) -> u64 {
        self.violations.len() as u64 + self.overflow
    }

    /// Whether every invariant has held so far.
    pub fn is_clean(&self) -> bool {
        self.violation_count() == 0
    }

    /// Router-cycles the audit has covered: one per router check
    /// ([`Auditor::check_router`], [`Auditor::visit_router`]) plus what
    /// [`Auditor::cover`] added — a router nobody touched is covered by the
    /// pass that last checked it. A network audit advances it by one per
    /// router per audited cycle.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// One-line summary for logs: `"clean"` or a violation count with the
    /// first offender.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            "clean".to_string()
        } else {
            format!(
                "{} violation(s); first: {}",
                self.violation_count(),
                self.violations.first().map(|v| v.to_string()).unwrap_or_default()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterKind;
    use crate::conn::{ConnectionRequest, QosClass};
    use crate::router::RouterConfig;
    use mmr_sim::Bandwidth;

    fn audited_router() -> Router {
        RouterConfig::paper_default()
            .ports(4)
            .vcs_per_port(8)
            .candidates(4)
            .arbiter(ArbiterKind::BiasedPriority)
            .seed(11)
            .build()
    }

    #[test]
    fn healthy_router_audits_clean() {
        let mut r = audited_router();
        let conn = r
            .establish(ConnectionRequest {
                input: PortId(0),
                output: PortId(1),
                class: QosClass::Cbr { rate: Bandwidth::from_mbps(100.0) },
            })
            .expect("admitted");
        let mut audit = Auditor::default();
        for t in 0..200u64 {
            let now = Cycles(t);
            if r.can_inject(conn) {
                let _ = r.inject(conn, now);
            }
            r.step(now);
            audit.check_router(0, &r, now);
        }
        assert!(audit.is_clean(), "unexpected violations: {}", audit.summary());
        assert_eq!(audit.checks(), 200);
    }

    #[test]
    fn starvation_watchdog_fires_once_per_stall() {
        let mut r = audited_router();
        let conn = r
            .establish(ConnectionRequest {
                input: PortId(0),
                output: PortId(1),
                class: QosClass::Cbr { rate: Bandwidth::from_mbps(100.0) },
            })
            .expect("admitted");
        // Queue a flit but never run `step`, so it can never be forwarded.
        let drained = r.clone();
        r.inject(conn, Cycles(0)).expect("room");
        let cfg = AuditConfig::default().starvation_threshold(Cycles(10));
        let mut audit = Auditor::new(cfg);
        for t in 0..100u64 {
            audit.check_router(0, &r, Cycles(t));
        }
        // An empty spell does not re-arm the report; only a forwarded flit
        // does (the router as it was before the flit stands in for a flush).
        audit.check_router(0, &drained, Cycles(100));
        for t in 101..200u64 {
            audit.check_router(0, &r, Cycles(t));
        }
        let stalls = audit
            .violations()
            .iter()
            .filter(|v| matches!(v, AuditViolation::Starvation { .. }))
            .count();
        assert_eq!(stalls, 1, "one report per stall, not one per cycle");
    }

    /// A connection's watchdog state is the slot of its input VC and is its
    /// own: a connection that takes over the VC a flagged one left starts
    /// afresh, and is reported when it stalls in its turn.
    #[test]
    fn a_re_leased_vc_starts_a_fresh_watchdog() {
        let mut r = audited_router();
        let req = ConnectionRequest {
            input: PortId(0),
            output: PortId(1),
            class: QosClass::Cbr { rate: Bandwidth::from_mbps(100.0) },
        };
        let mut audit = Auditor::new(AuditConfig::default().starvation_threshold(Cycles(10)));
        let first = r.establish(req).expect("admitted");
        r.inject(first, Cycles(0)).expect("room");
        for t in 0..20u64 {
            audit.check_router(0, &r, Cycles(t));
        }
        assert_eq!(audit.violation_count(), 1, "the first connection's stall");
        r.teardown(first).expect("live");
        let second = r.establish(req).expect("admitted");
        assert_eq!(second.vc, first.vc, "the input VC is re-leased");
        r.inject(second, Cycles(20)).expect("room");
        for t in 20..40u64 {
            audit.check_router(0, &r, Cycles(t));
        }
        assert_eq!(audit.violation_count(), 2, "the second connection's own stall");
        assert!(matches!(
            audit.violations()[1],
            AuditViolation::Starvation { stalled_for: Cycles(11), .. }
        ));
    }

    #[test]
    fn violation_storage_is_bounded() {
        let mut audit = Auditor::default();
        for got in 0..100u64 {
            audit.report(AuditViolation::StreamDuplicate { stream: 1, expected: 100, got });
        }
        assert_eq!(audit.violations().len(), MAX_VIOLATIONS);
        assert_eq!(audit.violation_count(), 100, "drops are still counted");
        assert!(matches!(
            audit.violations().last(),
            Some(AuditViolation::StreamDuplicate { got: 63, .. })
        ));
    }

    #[test]
    fn violations_render_for_humans() {
        let v = AuditViolation::CreditOverflow {
            router: 2,
            conn: ConnectionId(5),
            credits: 9,
            depth: 4,
        };
        assert_eq!(v.to_string(), "r2 conn5: 9 credits exceed depth 4");
    }
}
