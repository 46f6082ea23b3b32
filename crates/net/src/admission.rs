//! Dynamic admission control and priority-aware load shedding.
//!
//! The paper's admission check (§4.2) is a per-link bandwidth book: a
//! connection is admitted iff every hop can reserve its guaranteed rate.
//! That alone survives a static population but not *overload*: with ceil'd
//! round quotas and crossbar contention, a fabric packed to its book limit
//! misses CBR slots. [`AdmissionController`] adds the operating-point
//! policy on top of the book — [`NetworkSim::link_load`] is the congestion
//! signal — and returns a typed [`AdmitVerdict`] (never a panic):
//!
//! * **Accept** while the peak link load sits under
//!   [`AdmitPolicy::headroom`].
//! * **Degrade on admit**: past the headroom, a CBR request is granted the
//!   *lowest* rung of the paper's §5 rate ladder instead of its asked rate
//!   (minimal footprint keeps the fabric serving everyone); the session
//!   table records the asked rate as owed and it is won back — one rung per
//!   [`AdmissionController::service`] call through
//!   [`RecoveryManager::upgrade`] — when the load recedes below
//!   [`AdmitPolicy::low_watermark`].
//! * **Typed reject** when even that fails, with the cause preserved
//!   ([`RejectReason`]).
//! * **Priority-aware shedding**: sustained overload (the peak stays above
//!   the headroom for [`AdmitPolicy::shed_patience`] consecutive service
//!   calls) preempts victims lowest-priority-first — best-effort sessions,
//!   then CBR rungs ascending — through [`RecoveryManager::close`], which
//!   releases every VC slot, credit, and bandwidth reservation exactly
//!   (the PR-3 auditor stays clean) and counts in-flight flits as lost so
//!   conservation holds.
//!
//! **Anti-starvation**: two guards ensure no session class is preempted
//! forever. A class bucket is never drained below `PROTECTED_FLOOR` (one)
//! live session, and a bucket hit in `STARVATION_GUARD` (three)
//! *consecutive* shed rounds becomes immune for the next round, pushing the
//! pressure one priority level up. Since immunity refreshes every round
//! and shedding stops the moment the peak drops below the headroom, every
//! class keeps a protected core and periodically gets shed-free rounds
//! (DESIGN.md §10 gives the argument).

use std::collections::BTreeMap;

use mmr_core::conn::QosClass;
use mmr_sim::{Bandwidth, Cycles};

use crate::network::{NetConnectionId, NetStepReport, NetworkSim};
use crate::recovery::{
    RecoveryEvent, RecoveryManager, RecoveryPolicy, SessionId, UpgradeOutcome,
};
use crate::setup::SetupError;
use crate::topology::NodeId;

/// Operating-point knobs of the admission controller.
#[derive(Debug, Clone)]
pub struct AdmitPolicy {
    /// Peak link load factor above which new CBR requests are degraded (or
    /// rejected) instead of admitted at their asked rate. `f64::INFINITY`
    /// disables the utilization guard — the book limit is then the only
    /// gate (the "naive" baseline that collapses under churn).
    pub headroom: f64,
    /// Peak link load factor below which degraded sessions win rungs back.
    pub low_watermark: f64,
    /// Per-source NI egress ceiling, as a fraction of the link rate. The
    /// crossbar serves each input port at most one flit per cycle, so a
    /// node whose own sessions reserve more aggregate egress than the
    /// link rate is unschedulable *even when every per-output bandwidth
    /// book is satisfied* — the oversubscription the books cannot see.
    /// Requests that would push the source past this fraction are degraded
    /// or rejected. `f64::INFINITY` disables the guard (naive baseline).
    pub ni_headroom: f64,
    /// Degrade-on-admit: grant the lowest rung of the session layer's
    /// ladder ([`RecoveryPolicy::ladder`]) past the headroom instead of
    /// rejecting outright.
    pub degrade_on_admit: bool,
    /// Enables the load shedder.
    pub shed: bool,
    /// Consecutive over-headroom [`AdmissionController::service`] calls
    /// before a shed round fires.
    pub shed_patience: u32,
    /// At most this many sessions are preempted per shed round.
    pub shed_batch: usize,
}

/// A class bucket is never drained below this many live sessions.
const PROTECTED_FLOOR: usize = 1;

/// A bucket hit in this many consecutive shed rounds sits the next round
/// out (anti-starvation rotation).
const STARVATION_GUARD: u32 = 3;

impl Default for AdmitPolicy {
    fn default() -> Self {
        AdmitPolicy {
            headroom: 0.8,
            low_watermark: 0.5,
            ni_headroom: 0.9,
            degrade_on_admit: true,
            shed: true,
            shed_patience: 64,
            shed_batch: 2,
        }
    }
}

impl AdmitPolicy {
    /// Overrides the utilization headroom.
    pub fn headroom(mut self, headroom: f64) -> Self {
        self.headroom = headroom;
        self
    }

    /// Overrides the upgrade watermark.
    pub fn low_watermark(mut self, mark: f64) -> Self {
        self.low_watermark = mark;
        self
    }

    /// Overrides the per-source NI egress ceiling.
    pub fn ni_headroom(mut self, headroom: f64) -> Self {
        self.ni_headroom = headroom;
        self
    }

    /// Enables or disables degrade-on-admit.
    pub fn degrade_on_admit(mut self, degrade: bool) -> Self {
        self.degrade_on_admit = degrade;
        self
    }

    /// Enables or disables the shedder.
    pub fn shed(mut self, shed: bool) -> Self {
        self.shed = shed;
        self
    }

    /// Overrides the shed patience (service calls over headroom).
    pub fn shed_patience(mut self, patience: u32) -> Self {
        self.shed_patience = patience;
        self
    }

    /// Overrides the per-round preemption batch size.
    pub fn shed_batch(mut self, batch: usize) -> Self {
        self.shed_batch = batch;
        self
    }

    /// The "naive" baseline: no utilization guard, no degradation, no
    /// shedding — admission is the raw bandwidth book, and overload lands
    /// on every admitted session. The `mmr-bench churn` control series.
    pub fn naive() -> Self {
        AdmitPolicy::default()
            .headroom(f64::INFINITY)
            .ni_headroom(f64::INFINITY)
            .degrade_on_admit(false)
            .shed(false)
    }
}

/// Why a request was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The fabric is past its utilization headroom and degrade-on-admit is
    /// off (or the ladder is empty).
    Saturated,
    /// Setup failed on resources: no rung fits the bandwidth books or VC
    /// pools along any minimal path.
    Resources,
    /// The destination is unreachable in the surviving topology.
    Unreachable,
    /// The setup probe was torn down by a concurrent fault; retrying may
    /// succeed.
    Aborted,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Saturated => write!(f, "fabric past utilization headroom"),
            RejectReason::Resources => write!(f, "no admissible path at any permitted rate"),
            RejectReason::Unreachable => write!(f, "destination unreachable"),
            RejectReason::Aborted => write!(f, "setup aborted by a concurrent fault"),
        }
    }
}

/// The controller's typed answer to a session request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmitVerdict {
    /// Admitted at the asked rate.
    Accepted {
        /// The tracked session now carrying the request.
        session: SessionId,
    },
    /// Admitted below the asked rate (degrade-on-admit); the controller
    /// upgrades the session toward `requested` when load recedes.
    Degraded {
        /// The tracked session.
        session: SessionId,
        /// The rate the caller asked for.
        requested: Bandwidth,
        /// The rate actually granted.
        granted: Bandwidth,
    },
    /// Turned away, with the cause.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
}

impl AdmitVerdict {
    /// The session id, when one was created.
    pub fn session(&self) -> Option<SessionId> {
        match *self {
            AdmitVerdict::Accepted { session }
            | AdmitVerdict::Degraded { session, .. } => Some(session),
            AdmitVerdict::Rejected { .. } => None,
        }
    }
}

/// One session preempted by a shed round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Preemption {
    /// The preempted session.
    pub session: SessionId,
    /// Its class at preemption time.
    pub class: QosClass,
}

/// Aggregate admission/shedding statistics.
#[derive(Debug, Clone, Default)]
pub struct AdmitStats {
    /// Requests admitted at their asked rate.
    pub accepted: u64,
    /// Requests admitted below their asked rate.
    pub degraded: u64,
    /// Requests rejected, by cause.
    pub rejected_saturated: u64,
    /// Requests rejected on resources.
    pub rejected_resources: u64,
    /// Requests rejected as unreachable or aborted.
    pub rejected_other: u64,
    /// Shed rounds fired.
    pub shed_rounds: u64,
    /// Best-effort sessions preempted.
    pub preempted_best_effort: u64,
    /// CBR sessions preempted.
    pub preempted_cbr: u64,
    /// Shed victims spared by the anti-starvation rotation.
    pub starvation_skips: u64,
    /// Rungs won back by load-recede upgrades.
    pub upgrades: u64,
}

/// Priority bucket for shedding: best-effort below every CBR rate, CBR
/// rates ascending. `Ord` *is* the preemption order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ShedBucket {
    BestEffort,
    Cbr {
        /// Rate in bits/s, for ordering.
        bps: u64,
    },
}

fn bucket_of(class: QosClass) -> ShedBucket {
    match class {
        QosClass::Cbr { rate } => ShedBucket::Cbr { bps: rate.bits_per_sec() as u64 },
        _ => ShedBucket::BestEffort,
    }
}

/// The dynamic admission controller (see the module docs): pure policy
/// over the session table it owns — what a session *is* lives in the
/// [`RecoveryManager`], never here.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    policy: AdmitPolicy,
    mgr: RecoveryManager,
    /// Consecutive over-headroom service calls.
    pressure: u32,
    /// Consecutive shed rounds that hit each bucket.
    consecutive_hits: BTreeMap<ShedBucket, u32>,
    /// Round-robin cursor of the upgrade pass: the owed session served last.
    upgrade_cursor: Option<SessionId>,
    stats: AdmitStats,
}

impl AdmissionController {
    /// A controller with the given admission policy and the default
    /// recovery policy underneath.
    pub fn new(policy: AdmitPolicy) -> Self {
        AdmissionController::with_recovery(policy, RecoveryPolicy::default())
    }

    /// A controller with explicit admission and recovery policies.
    pub fn with_recovery(policy: AdmitPolicy, recovery: RecoveryPolicy) -> Self {
        AdmissionController {
            policy,
            mgr: RecoveryManager::new(recovery),
            pressure: 0,
            consecutive_hits: BTreeMap::new(),
            upgrade_cursor: None,
            stats: AdmitStats::default(),
        }
    }

    /// The admission policy in force.
    pub fn policy(&self) -> &AdmitPolicy {
        &self.policy
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &AdmitStats {
        &self.stats
    }

    /// The session layer underneath, read-only (status queries, per-session
    /// classes and connections, recovery statistics all live there).
    pub fn sessions(&self) -> &RecoveryManager {
        &self.mgr
    }

    /// Forwards a fault's broken-connection list to the session layer
    /// ([`RecoveryManager::on_faults`]).
    pub fn on_faults(&mut self, broken: &[NetConnectionId], now: Cycles) {
        self.mgr.on_faults(broken, now);
    }

    /// Decides one session request. CBR requests are granted their asked
    /// rate while the fabric has headroom, the lowest ladder rung when it
    /// does not (degrade-on-admit), and a typed rejection otherwise.
    /// Best-effort requests reserve nothing and are admitted whenever a
    /// path with free VCs exists.
    pub fn request(
        &mut self,
        net: &mut NetworkSim,
        src: NodeId,
        dst: NodeId,
        class: QosClass,
    ) -> AdmitVerdict {
        let QosClass::Cbr { rate: asked } = class else {
            // Zero-reservation classes can't oversubscribe the books; VC
            // availability is the only gate.
            return match self.mgr.open(net, src, dst, class) {
                Ok(session) => {
                    self.stats.accepted += 1;
                    AdmitVerdict::Accepted { session }
                }
                Err(e) => self.reject(e),
            };
        };

        let (peak, _) = net.link_load();
        let saturated =
            peak >= self.policy.headroom || !self.ni_fits(net, src, asked.bits_per_sec());
        if !saturated {
            match self.mgr.open(net, src, dst, class) {
                Ok(session) => {
                    self.stats.accepted += 1;
                    return AdmitVerdict::Accepted { session };
                }
                // Resource misses under headroom fall through to the
                // degraded attempt below; hard verdicts return now.
                Err(e @ (SetupError::Unreachable | SetupError::Aborted)) => {
                    return self.reject(e);
                }
                Err(_) => {}
            }
        }
        let fallback = self.policy.degrade_on_admit.then(|| self.mgr.policy().floor()).flatten();
        let fallback =
            fallback.filter(|&f| self.ni_fits(net, src, f.bits_per_sec()));
        let Some(floor) = fallback.filter(|&f| f < asked) else {
            self.pressure = self.pressure.saturating_add(1);
            return self.turn_away(if saturated {
                RejectReason::Saturated
            } else {
                RejectReason::Resources
            });
        };
        match self.mgr.open(net, src, dst, QosClass::Cbr { rate: floor }) {
            Ok(session) => {
                self.mgr.owe(session, asked);
                self.stats.degraded += 1;
                AdmitVerdict::Degraded { session, requested: asked, granted: floor }
            }
            Err(e) => {
                self.pressure = self.pressure.saturating_add(1);
                if saturated && !matches!(e, SetupError::Unreachable | SetupError::Aborted) {
                    self.turn_away(RejectReason::Saturated)
                } else {
                    self.reject(e)
                }
            }
        }
    }

    /// Whether `extra_bps` more guaranteed egress at `src` stays under the
    /// NI injection ceiling.
    fn ni_fits(&self, net: &NetworkSim, src: NodeId, extra_bps: f64) -> bool {
        if !self.policy.ni_headroom.is_finite() {
            return true;
        }
        let cap = net.link_rate().bits_per_sec();
        if cap <= 0.0 {
            return true;
        }
        (self.mgr.egress_reserved(src).bits_per_sec() + extra_bps) / cap <= self.policy.ni_headroom
    }

    /// The rejection a failed setup maps to.
    fn reject(&mut self, e: SetupError) -> AdmitVerdict {
        self.turn_away(match e {
            SetupError::Unreachable => RejectReason::Unreachable,
            SetupError::Aborted | SetupError::Incomplete => RejectReason::Aborted,
            SetupError::Exhausted { .. } => RejectReason::Resources,
        })
    }

    /// Counts and returns a rejection.
    fn turn_away(&mut self, reason: RejectReason) -> AdmitVerdict {
        *match reason {
            RejectReason::Saturated => &mut self.stats.rejected_saturated,
            RejectReason::Resources => &mut self.stats.rejected_resources,
            RejectReason::Unreachable | RejectReason::Aborted => &mut self.stats.rejected_other,
        } += 1;
        AdmitVerdict::Rejected { reason }
    }

    /// Closes a session voluntarily (churn departure). Returns `false`
    /// when the id is unknown or already closed.
    pub fn close(&mut self, net: &mut NetworkSim, id: SessionId) -> bool {
        self.mgr.close(net, id)
    }

    /// Runs one cycle of the controller: services the recovery layer,
    /// tracks overload pressure, fires a shed round when the pressure has
    /// outlasted the patience, and walks one degraded session a rung back
    /// up when the load has receded. Returns the recovery events and this
    /// cycle's preemptions.
    pub fn service(
        &mut self,
        net: &mut NetworkSim,
        report: &NetStepReport,
        now: Cycles,
    ) -> (Vec<RecoveryEvent>, Vec<Preemption>) {
        let events = self.mgr.service(net, report, now);
        let (peak, _) = net.link_load();
        let mut preempted = Vec::new();

        if peak >= self.policy.headroom {
            self.pressure = self.pressure.saturating_add(1);
            if self.policy.shed && self.pressure >= self.policy.shed_patience {
                preempted = self.shed_round(net);
                self.pressure = 0;
            }
        } else {
            self.pressure = 0;
            if peak < self.policy.low_watermark {
                self.upgrade_pass(net, now);
            }
        }
        (events, preempted)
    }

    /// One shed round: preempt up to `shed_batch` victims,
    /// lowest-priority-first, honouring the protected floor and the
    /// starvation rotation.
    fn shed_round(&mut self, net: &mut NetworkSim) -> Vec<Preemption> {
        // Bucket the live sessions (ascending priority by ShedBucket Ord;
        // sessions within a bucket ascend by id, so victims are the oldest
        // first — deterministic, no RNG).
        let mut buckets: BTreeMap<ShedBucket, Vec<Preemption>> = BTreeMap::new();
        for (session, _) in self.mgr.active() {
            if let Some(class) = self.mgr.class(session) {
                buckets.entry(bucket_of(class)).or_default().push(Preemption { session, class });
            }
        }
        let mut victims: Vec<Preemption> = Vec::new();
        let mut hit_buckets: Vec<ShedBucket> = Vec::new();
        for (&bucket, members) in &buckets {
            let room = self.policy.shed_batch.saturating_sub(victims.len());
            if room == 0 {
                break;
            }
            if self.consecutive_hits.get(&bucket).copied().unwrap_or(0) >= STARVATION_GUARD {
                // This class carried the last rounds; it sits this one out.
                self.stats.starvation_skips += 1;
                continue;
            }
            let spare = members.len().saturating_sub(PROTECTED_FLOOR);
            let before = victims.len();
            victims.extend(members.iter().take(spare.min(room)));
            if victims.len() > before {
                hit_buckets.push(bucket);
            }
        }
        for v in &victims {
            self.mgr.close(net, v.session);
            match v.class {
                QosClass::Cbr { .. } => self.stats.preempted_cbr += 1,
                _ => self.stats.preempted_best_effort += 1,
            }
        }
        if !victims.is_empty() {
            self.stats.shed_rounds += 1;
        }
        // Rotation bookkeeping: buckets hit this round age; every other
        // bucket's streak resets, re-arming its eligibility.
        for bucket in buckets.keys() {
            if hit_buckets.contains(bucket) {
                *self.consecutive_hits.entry(*bucket).or_insert(0) += 1;
            } else {
                self.consecutive_hits.remove(bucket);
            }
        }
        if victims.is_empty() {
            // Nothing was sheddable (all floored or immune): clear the
            // rotation so the next round can act.
            self.consecutive_hits.clear();
        }
        victims
    }

    /// One upgrade attempt per call: the table hands over the next owed
    /// session past the round-robin cursor and the recovery layer is asked
    /// for one rung (it settles the debt when the asked rate is reached or
    /// no rung can pay it).
    fn upgrade_pass(&mut self, net: &mut NetworkSim, now: Cycles) {
        let Some((id, src, current)) = self.mgr.next_owed(self.upgrade_cursor) else { return };
        self.upgrade_cursor = Some(id);
        // The next rung must also fit under the source's NI egress
        // ceiling; if not, keep the debt for a later pass (departures may
        // free the node).
        if let Some(next) = self.mgr.policy().step_up(current) {
            if !self.ni_fits(net, src, next.bits_per_sec() - current.bits_per_sec()) {
                return;
            }
        }
        // NoHeadroom keeps the debt for the next low-load window.
        if let UpgradeOutcome::Upgraded { .. } = self.mgr.upgrade(net, id, now) {
            self.stats.upgrades += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::cbr_mbps;
    use crate::testkit::mesh_net;
    use crate::topology::Topology;
    use mmr_core::router::RouterConfig;

    fn ring_net() -> NetworkSim {
        NetworkSim::new(
            Topology::ring(4, 4).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(8).candidates(2),
        )
    }

    /// Drives requests until the peak load crosses the headroom.
    fn load_up(net: &mut NetworkSim, ctl: &mut AdmissionController, rate_mbps: f64) -> usize {
        let mut admitted = 0;
        for i in 0..64 {
            let (src, dst) = (NodeId(i % 4), NodeId((i + 2) % 4));
            match ctl.request(net, src, dst, cbr_mbps(rate_mbps)) {
                AdmitVerdict::Accepted { .. } | AdmitVerdict::Degraded { .. } => admitted += 1,
                AdmitVerdict::Rejected { .. } => break,
            }
        }
        admitted
    }

    #[test]
    fn accepts_under_headroom_at_the_asked_rate() {
        let mut net = mesh_net();
        let mut ctl = AdmissionController::new(AdmitPolicy::default());
        let v = ctl.request(&mut net, NodeId(0), NodeId(8), cbr_mbps(55.0));
        let AdmitVerdict::Accepted { session } = v else {
            panic!("idle fabric must accept: {v:?}");
        };
        assert_eq!(ctl.sessions().class(session), Some(cbr_mbps(55.0)));
        assert_eq!(ctl.stats().accepted, 1);
    }

    #[test]
    fn degrades_past_the_headroom_and_remembers_the_debt() {
        let mut net = ring_net();
        let mut ctl = AdmissionController::new(AdmitPolicy::default().headroom(0.3));
        // Fill past 30% of a ring link, then ask for a big rate.
        let mut first_degraded = None;
        for i in 0..32 {
            let v = ctl.request(&mut net, NodeId(i % 4), NodeId((i + 1) % 4), cbr_mbps(120.0));
            match v {
                AdmitVerdict::Degraded { session, requested, granted } => {
                    assert_eq!(requested, Bandwidth::from_mbps(120.0));
                    assert_eq!(granted, Bandwidth::from_kbps(64.0), "floor rung granted");
                    first_degraded = Some(session);
                    break;
                }
                AdmitVerdict::Accepted { .. } => {}
                AdmitVerdict::Rejected { .. } => panic!("should degrade before rejecting"),
            }
        }
        let sid = first_degraded.expect("headroom 0.3 must trip within 32 requests");
        assert_eq!(ctl.sessions().class(sid), Some(cbr_mbps(0.064)));
        assert!(ctl.stats().degraded >= 1);
    }

    #[test]
    fn naive_policy_packs_to_the_book_limit() {
        let mut net = ring_net();
        let mut ctl = AdmissionController::new(AdmitPolicy::naive());
        let _ = load_up(&mut net, &mut ctl, 620.0);
        let (peak, _) = net.link_load();
        assert!(peak > 0.9, "naive packs the book: peak {peak}");
        assert_eq!(ctl.stats().degraded, 0, "naive never degrades");
        assert_eq!(ctl.stats().rejected_saturated, 0, "naive rejects only on resources");
    }

    #[test]
    fn guarded_policy_keeps_the_peak_near_the_headroom() {
        let mut net = ring_net();
        let mut ctl =
            AdmissionController::new(AdmitPolicy::default().headroom(0.6).degrade_on_admit(false));
        let _ = load_up(&mut net, &mut ctl, 124.0);
        let (peak, _) = net.link_load();
        // One 124 Mbps grant can overshoot 0.6 by at most 0.1.
        assert!(peak < 0.75, "guard holds the operating point: peak {peak}");
        assert!(ctl.stats().rejected_saturated >= 1);
    }

    #[test]
    fn sustained_overload_sheds_best_effort_before_cbr() {
        let mut net = mesh_net();
        let mut ctl = AdmissionController::new(
            AdmitPolicy::default().headroom(0.05).shed_patience(4).shed_batch(1),
        );
        // Two best-effort and two CBR sessions; then drive the load over
        // the (tiny) headroom so the shedder has to act.
        let be1 = ctl
            .request(&mut net, NodeId(0), NodeId(8), QosClass::BestEffort)
            .session()
            .expect("admitted");
        let _be2 = ctl
            .request(&mut net, NodeId(2), NodeId(6), QosClass::BestEffort)
            .session()
            .expect("admitted");
        let cbr1 = ctl
            .request(&mut net, NodeId(1), NodeId(7), cbr_mbps(120.0))
            .session()
            .expect("admitted");
        let cbr2 = ctl
            .request(&mut net, NodeId(3), NodeId(5), cbr_mbps(120.0))
            .session()
            .expect("admitted");
        let mut all_preempted = Vec::new();
        for t in 0..32u64 {
            let report = net.step(Cycles(t));
            let (_, pre) = ctl.service(&mut net, &report, Cycles(t));
            all_preempted.extend(pre);
        }
        let first = all_preempted.first().expect("patience 4 must fire within 32 cycles");
        assert_eq!(first.session, be1, "oldest best-effort session goes first");
        assert!(matches!(first.class, QosClass::BestEffort));
        assert!(
            ctl.sessions().status(cbr1).is_some() || ctl.sessions().status(cbr2).is_some(),
            "CBR outlives best-effort under a floor of 1"
        );
        assert!(ctl.stats().preempted_best_effort >= 1);
        assert!(ctl.stats().shed_rounds >= 1);
    }

    #[test]
    fn protected_floor_and_rotation_prevent_starvation() {
        let mut net = mesh_net();
        let mut ctl = AdmissionController::new(
            AdmitPolicy::default()
                .headroom(0.05)
                .shed_patience(1)
                .shed_batch(1),
        );
        // One best-effort and three CBR sessions, load pinned over the
        // headroom forever: the last best-effort session must survive (the
        // `PROTECTED_FLOOR` of one), so pressure rotates onto CBR.
        let be = ctl
            .request(&mut net, NodeId(0), NodeId(8), QosClass::BestEffort)
            .session()
            .expect("admitted");
        for (s, d) in [(1u16, 7u16), (3, 5), (2, 6)] {
            let _ = ctl.request(&mut net, NodeId(s), NodeId(d), cbr_mbps(120.0));
        }
        for t in 0..64u64 {
            let report = net.step(Cycles(t));
            let _ = ctl.service(&mut net, &report, Cycles(t));
        }
        assert!(
            ctl.sessions().status(be).is_some(),
            "the floor protects the last best-effort session"
        );
        assert!(
            ctl.stats().preempted_cbr >= 1,
            "rotation moved the pressure to CBR: {:?}",
            ctl.stats()
        );
    }

    proptest::proptest! {
        /// A shed round ages a bucket's streak only when that bucket gave
        /// a victim: a floored or immune bucket that gave nobody up is
        /// re-armed even when an earlier bucket of the same round gave, and
        /// a round that shed nobody clears every streak.
        #[test]
        fn a_bucket_ages_only_when_it_gives_a_victim(
            counts in proptest::collection::vec(0usize..4, 4),
            batch in 1usize..5,
            rounds in 1usize..7,
        ) {
            let mut net = mesh_net();
            let mut ctl = AdmissionController::new(AdmitPolicy::naive().shed_batch(batch));
            let classes = [QosClass::BestEffort, cbr_mbps(1.0), cbr_mbps(2.0), cbr_mbps(4.0)];
            for (&class, &n) in classes.iter().zip(&counts) {
                for k in 0..n as u16 {
                    let verdict = ctl.request(&mut net, NodeId(k), NodeId(8 - k), class);
                    proptest::prop_assert!(verdict.session().is_some(), "{:?}", verdict);
                }
            }
            for round in 0..rounds {
                let live: Vec<ShedBucket> = ctl
                    .mgr
                    .active()
                    .filter_map(|(session, _)| ctl.mgr.class(session).map(bucket_of))
                    .collect();
                let before = ctl.consecutive_hits.clone();
                let victims = ctl.shed_round(&mut net);
                let gave: Vec<ShedBucket> = victims.iter().map(|v| bucket_of(v.class)).collect();
                for bucket in live {
                    let streak = |hits: &BTreeMap<ShedBucket, u32>| hits.get(&bucket).copied().unwrap_or(0);
                    let want = if gave.contains(&bucket) { streak(&before) + 1 } else { 0 };
                    proptest::prop_assert_eq!(
                        streak(&ctl.consecutive_hits),
                        want,
                        "round {} bucket {:?}, victims {:?}",
                        round,
                        bucket,
                        &gave
                    );
                }
            }
        }
    }

    #[test]
    fn load_recede_pays_back_degradation_debt() {
        let mut net = ring_net();
        let mut ctl = AdmissionController::new(
            AdmitPolicy::default().headroom(0.3).low_watermark(0.9).shed(false),
        );
        // Saturate, catch a degraded admit, then free everything else and
        // let service() walk the survivor back up.
        let mut blockers = Vec::new();
        let mut degraded = None;
        for i in 0..32 {
            match ctl.request(&mut net, NodeId(i % 4), NodeId((i + 1) % 4), cbr_mbps(55.0)) {
                AdmitVerdict::Accepted { session } => blockers.push(session),
                AdmitVerdict::Degraded { session, .. } => {
                    degraded = Some(session);
                    break;
                }
                AdmitVerdict::Rejected { .. } => break,
            }
        }
        let sid = degraded.expect("headroom 0.3 must force a degraded admit");
        for b in blockers {
            assert!(ctl.close(&mut net, b));
        }
        let mut t = 0u64;
        loop {
            let report = net.step(Cycles(t));
            let _ = ctl.service(&mut net, &report, Cycles(t));
            t += 1;
            if ctl.sessions().class(sid) == Some(cbr_mbps(55.0)) {
                break;
            }
            assert!(t < 5_000, "upgrades stalled at {:?}", ctl.sessions().class(sid));
        }
        assert!(ctl.stats().upgrades >= 1);
        assert_eq!(
            ctl.sessions().status(sid),
            Some(crate::recovery::SessionStatus::Active)
        );
    }

    #[test]
    fn ni_guard_caps_per_source_egress() {
        // Node 4 (mesh centre) has four wires — its *output* books admit
        // ~5 Gbps of its own reservations, but its NI input port can only
        // inject one flit per cycle (1.24 Gbps). The guard caps the
        // full-rate admits at floor(0.9 * 1.24G / 120M) = 9; the naive
        // baseline happily oversubscribes the NI.
        let run = |policy: AdmitPolicy| {
            let mut net = mesh_net();
            let mut ctl = AdmissionController::new(policy);
            let mut full = 0;
            for i in 0..14u16 {
                let dst = NodeId((i * 2 + 1) % 9);
                if dst == NodeId(4) {
                    continue;
                }
                if let AdmitVerdict::Accepted { .. } =
                    ctl.request(&mut net, NodeId(4), dst, cbr_mbps(120.0))
                {
                    full += 1;
                }
            }
            (full, ctl)
        };
        let (guarded, ctl) = run(AdmitPolicy::default());
        assert!(guarded <= 9, "NI ceiling holds: {guarded} full-rate admits");
        assert!(
            ctl.stats().degraded + ctl.stats().rejected_saturated >= 1,
            "the excess was degraded or turned away: {:?}",
            ctl.stats()
        );
        let (naive, _) = run(AdmitPolicy::naive());
        assert!(naive > 9, "the naive baseline oversubscribes the NI: {naive}");
    }

    #[test]
    fn verdicts_are_typed_not_panics() {
        let mut net = ring_net();
        // Unreachable: node 0 cut off from node 2 entirely.
        let cut = |net: &NetworkSim, a: NodeId, b: NodeId| {
            net.topology()
                .neighbors(a)
                .into_iter()
                .find(|&(_, peer, _)| peer == b)
                .map(|(port, _, _)| port)
                .expect("adjacent")
        };
        let p01 = cut(&net, NodeId(0), NodeId(1));
        let p03 = cut(&net, NodeId(0), NodeId(3));
        let _ = net.fail_link(NodeId(0), p01).expect("wire");
        let _ = net.fail_link(NodeId(0), p03).expect("wire");
        let mut ctl = AdmissionController::new(AdmitPolicy::default());
        assert_eq!(
            ctl.request(&mut net, NodeId(0), NodeId(2), cbr_mbps(10.0)),
            AdmitVerdict::Rejected { reason: RejectReason::Unreachable }
        );
        assert_eq!(ctl.stats().rejected_other, 1);
    }
}
