//! Automatic connection recovery: the session layer over [`NetworkSim`].
//!
//! The MMR paper's EPB setup protocol exists so multimedia connections can
//! route *around* trouble (§3.5, §4.2). This module closes the loop: a
//! [`RecoveryManager`] owns long-lived *sessions* — its session table is the
//! only place that knows a session's endpoints, granted class, owed rate,
//! state and carrying connection; [`crate::admission::AdmissionController`]
//! is a second client of the same table — and keeps each one carried by a
//! live network connection.
//! When a link failure tears the connection down, the manager re-establishes
//! it through the cycle-accurate EPB probe
//! ([`NetworkSim::request_connection`]) under a [`RecoveryPolicy`]:
//!
//! * a bounded **retry budget** per incident,
//! * **exponential backoff** between attempts, measured in flit cycles,
//! * a per-attempt **setup timeout** (an acknowledgment that never returns
//!   abandons the attempt; a late success is torn down, not leaked),
//! * a **concurrent-probe cap** with seeded jitter: a mass failure (a whole
//!   router dying, say) re-establishes at most
//!   [`RecoveryPolicy::max_concurrent_probes`] sessions at a time instead of
//!   storming the setup plane with EPB probes,
//! * **partition parking**: a session whose destination is unreachable in
//!   the surviving topology ([`crate::setup::SetupError::Unreachable`]) is
//!   parked against the network's topology epoch and re-probed only after
//!   the next fail/repair event, not retried into the same wall,
//! * optional **graceful rate degradation**: when the budget at the current
//!   rate is exhausted, a CBR session steps one rung down the paper's rate
//!   ladder and tries again instead of dying.
//!
//! Everything the recovery machinery does is observable through
//! [`RecoveryStats`] (time-to-recover, retries, backoff waits, degradations,
//! permanent failures) and the per-cycle [`RecoveryEvent`] stream.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Bound;

use mmr_core::conn::QosClass;
use mmr_sim::{Accumulator, Bandwidth, Cycles, SeededRng};

use crate::network::{NetConnectionId, NetStepReport, NetworkSim, ProbeToken};
use crate::setup::{SetupError, SetupStrategy};
use crate::topology::NodeId;

/// A long-lived session tracked by a [`RecoveryManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u32);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Recovery behaviour knobs (all horizons in flit cycles).
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Setup attempts per incident before giving up (or degrading).
    pub max_retries: u32,
    /// Backoff before retry `k` is `base_backoff << (k - 1)`, capped at
    /// [`RecoveryPolicy::max_backoff`]. The first attempt after a fault
    /// launches immediately.
    pub base_backoff: Cycles,
    /// Upper bound on a single backoff wait.
    pub max_backoff: Cycles,
    /// An attempt whose setup has not completed after this many cycles is
    /// abandoned (counts against the retry budget).
    pub setup_timeout: Cycles,
    /// When the retry budget at the current rate is exhausted, step CBR
    /// sessions one rung down the rate ladder and start a fresh budget
    /// instead of failing permanently.
    pub degrade: bool,
    /// The one rate ladder (ascending): recovery degrades down it, upgrades
    /// step up it, and the admission controller's degrade-on-admit grants
    /// its lowest rung. Defaults to the paper's nine-rate ladder.
    pub ladder: Vec<Bandwidth>,
    /// At most this many sessions may hold an in-flight setup probe at
    /// once; further due sessions are deferred with seeded jitter
    /// ([`RecoveryStats::probe_throttled`] counts the deferrals). Guards
    /// the setup plane against the EPB probe storm a mass failure — a
    /// whole router dying under many sessions — would otherwise trigger.
    pub max_concurrent_probes: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 5,
            base_backoff: Cycles(8),
            max_backoff: Cycles(1_024),
            setup_timeout: Cycles(256),
            degrade: true,
            ladder: mmr_traffic::rates::paper_rate_ladder().to_vec(),
            max_concurrent_probes: 4,
        }
    }
}

impl RecoveryPolicy {
    /// Overrides the per-incident retry budget.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Overrides the backoff schedule.
    pub fn backoff(mut self, base: Cycles, max: Cycles) -> Self {
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }

    /// Overrides the per-attempt setup timeout.
    pub fn setup_timeout(mut self, timeout: Cycles) -> Self {
        self.setup_timeout = timeout;
        self
    }

    /// For tests: turns degrade-on-admit on or off.
    #[doc(hidden)]
    pub fn degrade(mut self, degrade: bool) -> Self {
        self.degrade = degrade;
        self
    }

    /// Overrides the degradation ladder (must be ascending).
    pub fn ladder(mut self, ladder: Vec<Bandwidth>) -> Self {
        self.ladder = ladder;
        self
    }

    /// For tests: overrides the cap on concurrent recovery probes.
    #[doc(hidden)]
    pub fn max_concurrent_probes(mut self, cap: usize) -> Self {
        self.max_concurrent_probes = cap;
        self
    }

    /// The backoff wait before attempt `attempt` (1-based; attempt 1 is
    /// immediate). Exponential from [`RecoveryPolicy::base_backoff`], capped
    /// at [`RecoveryPolicy::max_backoff`]; public so tests can state the
    /// monotonicity and bound properties directly.
    pub fn backoff_for(&self, attempt: u32) -> Cycles {
        if attempt <= 1 {
            return Cycles::ZERO;
        }
        let shifted =
            self.base_backoff.0.checked_shl(attempt - 2).unwrap_or(u64::MAX);
        Cycles(shifted.min(self.max_backoff.0))
    }

    /// The lowest rung of the ladder (what degrade-on-admit grants), if
    /// the ladder is non-empty.
    pub(crate) fn floor(&self) -> Option<Bandwidth> {
        self.ladder.first().copied()
    }

    /// One rung below `rate` on the ladder, if any.
    fn step_down(&self, rate: Bandwidth) -> Option<Bandwidth> {
        self.ladder.iter().copied().rfind(|&r| r < rate)
    }

    /// One rung above `rate` on the ladder, if any.
    pub(crate) fn step_up(&self, rate: Bandwidth) -> Option<Bandwidth> {
        self.ladder.iter().copied().find(|&r| r > rate)
    }
}

/// Where a session currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Carried by a live connection.
    Active,
    /// Between attempts or waiting on an in-flight setup probe.
    Recovering,
    /// The destination is unreachable in the surviving topology; the
    /// session is parked until the next fail/repair event changes the
    /// graph ([`NetworkSim::topology_epoch`]) instead of burning its
    /// retry budget against a partition.
    Partitioned,
    /// The retry budget (and the rate ladder, if degradation was on) is
    /// exhausted; the session is dead.
    Failed,
}

#[derive(Debug, Clone, Copy)]
enum SessionState {
    Active { conn: NetConnectionId },
    /// Backing off; the next attempt launches at `resume_at`.
    Waiting { resume_at: Cycles },
    /// A setup probe is in flight; abandoned after `deadline`.
    Probing { token: ProbeToken, deadline: Cycles },
    /// Parked on an unreachable destination; re-probes when the network's
    /// topology epoch moves past `epoch`.
    Partitioned { epoch: u64 },
    Failed,
}

impl SessionState {
    /// The connection carrying an active session.
    fn conn(self) -> Option<NetConnectionId> {
        let SessionState::Active { conn } = self else { return None };
        Some(conn)
    }

    /// Whether `service` still has work on the session: waiting, probing
    /// or parked.
    fn unsettled(self) -> bool {
        use SessionState::{Partitioned, Probing, Waiting};
        matches!(self, Waiting { .. } | Probing { .. } | Partitioned { .. })
    }
}

/// One row of the session table — everything either client (recovery,
/// admission) knows about a session lives here and nowhere else.
#[derive(Debug, Clone)]
struct Session {
    src: NodeId,
    dst: NodeId,
    /// The class currently granted (reflects degradations and upgrades).
    class: QosClass,
    /// The asked rate a degrade-on-admit grant still owes. A session owed a
    /// rate is CBR and runs strictly below it; cleared when the rate is won
    /// back or no rung can pay it.
    owed: Option<Bandwidth>,
    state: SessionState,
    /// When the current incident's fault struck (time-to-recover origin).
    fault_at: Cycles,
    /// Attempts launched for the current incident at the current rate.
    attempts: u32,
}

impl Session {
    /// The session lost its connection at `now`: a fresh incident starts,
    /// and the state it moves to has the first attempt due immediately.
    fn enter_recovery(&mut self, now: Cycles, stats: &mut RecoveryStats) -> SessionState {
        self.fault_at = now;
        self.attempts = 0;
        stats.faults += 1;
        SessionState::Waiting { resume_at: now }
    }

    /// Books the outcome of a failed (or timed-out) attempt and returns the
    /// state it leads to: the next retry after exponential backoff, one rate
    /// rung down when the budget is spent, or death.
    fn attempt_failed(
        &mut self,
        id: SessionId,
        policy: &RecoveryPolicy,
        stats: &mut RecoveryStats,
        now: Cycles,
        events: &mut Vec<RecoveryEvent>,
    ) -> SessionState {
        if self.attempts < policy.max_retries {
            let wait = policy.backoff_for(self.attempts + 1);
            stats.backoff_cycles += wait.0;
            return SessionState::Waiting { resume_at: now + wait };
        }
        // Budget exhausted at this rate: degrade or die.
        let lower = match self.class {
            QosClass::Cbr { rate } if policy.degrade => {
                policy.step_down(rate).map(|to| (rate, to))
            }
            _ => None,
        };
        match lower {
            Some((from, to)) => {
                self.class = QosClass::Cbr { rate: to };
                self.attempts = 0;
                stats.degraded += 1;
                events.push(RecoveryEvent::Degraded { session: id, from, to });
                SessionState::Waiting { resume_at: now + Cycles(1) }
            }
            None => {
                stats.permanently_failed += 1;
                events.push(RecoveryEvent::Abandoned {
                    session: id,
                    after: now.since(self.fault_at),
                });
                SessionState::Failed
            }
        }
    }
}

/// Aggregate recovery statistics.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Connection-breaking incidents observed.
    pub faults: u64,
    /// Incidents recovered (a replacement connection was established).
    pub recovered: u64,
    /// Sessions that exhausted retries (and the ladder) and died.
    pub permanently_failed: u64,
    /// Re-establish attempts launched.
    pub retries: u64,
    /// Attempts abandoned because the setup exceeded the timeout.
    pub timeouts: u64,
    /// Rate-ladder rungs surrendered by graceful degradation.
    pub degraded: u64,
    /// Total flit cycles spent waiting in exponential backoff.
    pub backoff_cycles: u64,
    /// Due attempts deferred because the concurrent-probe cap was reached.
    pub probe_throttled: u64,
    /// Sessions parked on an unreachable destination (one count per park;
    /// a session can park again after an unsuccessful unpark).
    pub partitioned: u64,
    /// Sessions closed voluntarily ([`RecoveryManager::close`]): departures
    /// and load-shed preemptions.
    pub closed: u64,
    /// Successful one-rung rate upgrades ([`RecoveryManager::upgrade`]).
    pub upgraded: u64,
    /// Fault-to-recovery latency (flit cycles) per recovered incident.
    pub time_to_recover: Accumulator,
}

/// One observable recovery state transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryEvent {
    /// A session's connection was re-established.
    Recovered {
        /// The recovered session.
        session: SessionId,
        /// Its replacement connection.
        conn: NetConnectionId,
        /// Cycles from the fault to this recovery.
        after: Cycles,
        /// Setup attempts the incident consumed.
        attempts: u32,
    },
    /// A CBR session surrendered one rate-ladder rung.
    Degraded {
        /// The degraded session.
        session: SessionId,
        /// Rate before the step.
        from: Bandwidth,
        /// Rate after the step.
        to: Bandwidth,
    },
    /// A session exhausted its options and died.
    Abandoned {
        /// The dead session.
        session: SessionId,
        /// Cycles from the fault to the abandonment.
        after: Cycles,
    },
}

/// Outcome of a [`RecoveryManager::upgrade`] attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpgradeOutcome {
    /// The session now runs one rung higher.
    Upgraded {
        /// Rate before the upgrade.
        from: Bandwidth,
        /// Rate after the upgrade.
        to: Bandwidth,
    },
    /// The higher rung was refused admission; the session was restored at
    /// its previous rate and keeps running untouched.
    NoHeadroom,
    /// Nothing to win back: the session is not CBR or already sits on the
    /// top rung of the ladder.
    AtCeiling,
    /// The session is not currently carried by a live connection (it is
    /// recovering, parked, failed, or unknown) — upgrades only touch
    /// active sessions.
    NotActive,
    /// Break-before-make lost the original placement too (capacity moved
    /// underneath it); the session entered the normal recovery path at its
    /// previous rate.
    Recovering,
}

/// The automatic-recovery session layer (see the module docs).
#[derive(Debug, Clone)]
pub struct RecoveryManager {
    policy: RecoveryPolicy,
    /// The rows, in id order. `by_conn`, `window` and `unsettled` are
    /// derived from them and written only by [`RecoveryManager::transition`].
    sessions: BTreeMap<SessionId, Session>,
    by_conn: BTreeMap<NetConnectionId, SessionId>,
    /// The connection carrying each session `base..next`, `None` unless
    /// it is active: a driver's per-cycle `conn` poll is one read. The
    /// front advances past closed rows, so `base` is the oldest live id.
    window: VecDeque<Option<NetConnectionId>>,
    base: u32,
    /// The `Waiting`, `Probing` and `Partitioned` sessions, in id order:
    /// the only rows `service` walks.
    unsettled: BTreeSet<SessionId>,
    /// Timed-out probes still in flight: a late success is torn down.
    orphaned: BTreeSet<ProbeToken>,
    next: u32,
    stats: RecoveryStats,
    /// Seeded jitter stream for throttled-retry spreading (fixed seed:
    /// recovery is deterministic given the same fault/report sequence).
    rng: SeededRng,
}

impl Default for RecoveryManager {
    fn default() -> Self {
        RecoveryManager::new(RecoveryPolicy::default())
    }
}

impl RecoveryManager {
    /// A manager with the given policy.
    pub fn new(policy: RecoveryPolicy) -> Self {
        RecoveryManager {
            policy,
            sessions: BTreeMap::new(),
            by_conn: BTreeMap::new(),
            window: VecDeque::new(),
            base: 0,
            unsettled: BTreeSet::new(),
            orphaned: BTreeSet::new(),
            next: 0,
            stats: RecoveryStats::default(),
            rng: SeededRng::new(0x5EC0_4E41),
        }
    }

    /// Opens a session: establishes the connection atomically (the initial
    /// placement is not an incident) and tracks it for recovery.
    ///
    /// # Errors
    ///
    /// The [`SetupError`] of the initial establishment; no session is
    /// created then.
    pub fn open(
        &mut self,
        net: &mut NetworkSim,
        src: NodeId,
        dst: NodeId,
        class: QosClass,
    ) -> Result<SessionId, SetupError> {
        let conn = net.establish(src, dst, class, SetupStrategy::Epb)?;
        let id = SessionId(self.next);
        self.next += 1;
        // A row is born `Failed`, the one state no index holds, so the
        // transition books its activation like any other move.
        let row = Session {
            src,
            dst,
            class,
            owed: None,
            state: SessionState::Failed,
            fault_at: Cycles::ZERO,
            attempts: 0,
        };
        self.sessions.insert(id, row);
        self.transition(id, Some(SessionState::Active { conn }));
        Ok(id)
    }

    /// The one transition: moves session `id` to `to`, or forgets its row
    /// when `to` is `None`, and keeps `by_conn`, the window and `unsettled`
    /// in step with the row. Returns the state it left, `None` for an
    /// unknown id.
    fn transition(&mut self, id: SessionId, to: Option<SessionState>) -> Option<SessionState> {
        let from = match to {
            Some(to) => std::mem::replace(&mut self.sessions.get_mut(&id)?.state, to),
            None => self.sessions.remove(&id)?.state,
        };
        if let Some(conn) = from.conn() {
            self.by_conn.remove(&conn);
        }
        let carried = to.and_then(SessionState::conn);
        if let Some(conn) = carried {
            self.by_conn.insert(conn, id);
        }
        // Ids are issued in order, so a row just born is one past the end.
        let slot = id.0.wrapping_sub(self.base) as usize;
        if slot == self.window.len() {
            self.window.push_back(None);
        }
        if let Some(at) = self.window.get_mut(slot) {
            *at = carried;
        }
        while self.window.front() == Some(&None)
            && !self.sessions.contains_key(&SessionId(self.base))
        {
            self.window.pop_front();
            self.base += 1;
        }
        if to.is_some_and(SessionState::unsettled) {
            self.unsettled.insert(id);
        } else {
            self.unsettled.remove(&id);
        }
        Some(from)
    }

    /// Records that `id` was granted less than the `asked` rate
    /// (degrade-on-admit); [`RecoveryManager::upgrade`] settles the debt.
    pub(crate) fn owe(&mut self, id: SessionId, asked: Bandwidth) {
        if let Some(session) = self.sessions.get_mut(&id) {
            session.owed = Some(asked);
        }
    }

    /// Closes a session: tears down its live connection (flits still
    /// queued on the path are counted into `flits_lost` by the network),
    /// cancels any in-flight setup probe (a late success is torn down, not
    /// leaked), and forgets the session. Serves both voluntary departures
    /// (churn) and load-shed preemptions. Returns `false` when the id was
    /// never tracked or is already closed.
    pub fn close(&mut self, net: &mut NetworkSim, id: SessionId) -> bool {
        let Some(from) = self.transition(id, None) else { return false };
        match from {
            SessionState::Active { conn } => {
                // A fault may have torn the connection down in the same
                // cycle; the ghost release is already accounted there.
                let _ = net.teardown(conn);
            }
            SessionState::Probing { token, .. } => {
                self.orphaned.insert(token);
            }
            SessionState::Waiting { .. }
            | SessionState::Partitioned { .. }
            | SessionState::Failed => {}
        }
        self.stats.closed += 1;
        true
    }

    /// Tries to move an active CBR session one rung *up* the rate ladder —
    /// the load-recede counterpart of graceful degradation.
    ///
    /// Break-before-make: the current connection's reservation holds
    /// exactly the bandwidth the upgrade needs on shared hops, so the old
    /// placement is released first. If the higher rung is refused, the
    /// session is re-established at its previous rate
    /// ([`UpgradeOutcome::NoHeadroom`]); if even that restore fails —
    /// capacity moved underneath it — the session enters the ordinary
    /// recovery path instead of dying ([`UpgradeOutcome::Recovering`]).
    pub fn upgrade(
        &mut self,
        net: &mut NetworkSim,
        id: SessionId,
        now: Cycles,
    ) -> UpgradeOutcome {
        let Some(session) = self.sessions.get_mut(&id) else { return UpgradeOutcome::NotActive };
        let SessionState::Active { conn } = session.state else {
            return UpgradeOutcome::NotActive;
        };
        let QosClass::Cbr { rate } = session.class else { return UpgradeOutcome::AtCeiling };
        let Some(higher) = self.policy.step_up(rate) else {
            // Nothing above: whatever is still owed is unpayable.
            session.owed = None;
            return UpgradeOutcome::AtCeiling;
        };

        let _ = net.teardown(conn);
        let (src, dst) = (session.src, session.dst);
        let mut place = |rate| net.establish(src, dst, QosClass::Cbr { rate }, SetupStrategy::Epb);
        let (to, outcome) = if let Ok(conn) = place(higher) {
            session.class = QosClass::Cbr { rate: higher };
            session.owed = session.owed.filter(|&asked| higher < asked);
            self.stats.upgraded += 1;
            (SessionState::Active { conn }, UpgradeOutcome::Upgraded { from: rate, to: higher })
        } else if let Ok(conn) = place(rate) {
            (SessionState::Active { conn }, UpgradeOutcome::NoHeadroom)
        } else {
            // Losing the restore race is an incident like any other: the
            // retry/backoff/degradation machinery owns it from here.
            (session.enter_recovery(now, &mut self.stats), UpgradeOutcome::Recovering)
        };
        self.transition(id, Some(to));
        outcome
    }

    /// The recovery policy in force.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &RecoveryStats {
        &self.stats
    }

    /// Number of tracked sessions.
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// For tests: a session's current status.
    #[doc(hidden)]
    pub fn status(&self, id: SessionId) -> Option<SessionStatus> {
        self.sessions.get(&id).map(|s| match s.state {
            SessionState::Active { .. } => SessionStatus::Active,
            SessionState::Waiting { .. } | SessionState::Probing { .. } => {
                SessionStatus::Recovering
            }
            SessionState::Partitioned { .. } => SessionStatus::Partitioned,
            SessionState::Failed => SessionStatus::Failed,
        })
    }

    /// The connection currently carrying a session, if it is active.
    pub fn conn(&self, id: SessionId) -> Option<NetConnectionId> {
        *self.window.get(id.0.checked_sub(self.base)? as usize)?
    }

    /// The session's current QoS class (reflects degradation steps).
    pub fn class(&self, id: SessionId) -> Option<QosClass> {
        self.sessions.get(&id).map(|s| s.class)
    }

    /// For tests: the asked rate a degraded session is still owed.
    #[doc(hidden)]
    pub fn owed(&self, id: SessionId) -> Option<Bandwidth> {
        self.sessions.get(&id)?.owed
    }

    /// For tests: a session's (source, destination).
    #[doc(hidden)]
    pub fn endpoints(&self, id: SessionId) -> Option<(NodeId, NodeId)> {
        self.sessions.get(&id).map(|s| (s.src, s.dst))
    }

    /// Active `(session, connection)` pairs in session order — the
    /// deterministic iteration a traffic driver injects from.
    pub fn active(&self) -> impl Iterator<Item = (SessionId, NetConnectionId)> + '_ {
        self.sessions.iter().filter_map(|(&id, s)| Some((id, s.state.conn()?)))
    }

    /// Aggregate guaranteed egress reserved by active sessions sourced at
    /// `node`: one pass, summed in session-id order (the admission
    /// controller compares the `f64` total against the NI ceiling).
    pub(crate) fn egress_reserved(&self, node: NodeId) -> Bandwidth {
        let mut total = Bandwidth::ZERO;
        for s in self.sessions.values() {
            if s.src == node && matches!(s.state, SessionState::Active { .. }) {
                total += s.class.guaranteed_rate();
            }
        }
        total
    }

    /// The next session still owed a rate, round-robin in id order from
    /// just past `cursor` (a cursor whose session is gone restarts the
    /// walk): its id, source node and current rate.
    pub(crate) fn next_owed(
        &self,
        cursor: Option<SessionId>,
    ) -> Option<(SessionId, NodeId, Bandwidth)> {
        let cursor = cursor.filter(|c| self.sessions.contains_key(c));
        let ahead = cursor.map_or(Bound::Unbounded, Bound::Excluded);
        let behind = cursor.into_iter().flat_map(|c| self.sessions.range(..=c));
        self.sessions
            .range((ahead, Bound::Unbounded))
            .chain(behind)
            .find_map(|(&id, s)| match (s.owed, s.class) {
                (Some(_), QosClass::Cbr { rate }) => Some((id, s.src, rate)),
                _ => None,
            })
    }

    /// Notifies the manager that a fault tore down connections (the
    /// [`crate::fault::FaultTick::broken`] list, or the result of a manual
    /// [`NetworkSim::fail_link`]). Affected sessions enter recovery; their
    /// first attempt launches on the next [`RecoveryManager::service`] call.
    pub fn on_faults(&mut self, broken: &[NetConnectionId], now: Cycles) {
        for conn in broken {
            let Some(&id) = self.by_conn.get(conn) else { continue };
            let Some(session) = self.sessions.get_mut(&id) else { continue };
            let to = session.enter_recovery(now, &mut self.stats);
            self.transition(id, Some(to));
        }
    }

    /// Whether `by_conn`, the window and `unsettled` are exactly what the
    /// rows say, recomputed from scratch. Read-only; for tests.
    #[doc(hidden)]
    pub fn indexes_agree(&self) -> bool {
        let by_conn: BTreeMap<_, _> =
            self.sessions.iter().filter_map(|(&id, s)| Some((s.state.conn()?, id))).collect();
        let unsettled: BTreeSet<_> =
            self.sessions.iter().filter(|(_, s)| s.state.unsettled()).map(|(&id, _)| id).collect();
        let oldest = self.sessions.keys().next().map_or(self.next, |id| id.0);
        let window = (self.base..self.next)
            .map(|id| self.sessions.get(&SessionId(id)).and_then(|s| s.state.conn()))
            .eq(self.window.iter().copied());
        by_conn == self.by_conn && unsettled == self.unsettled && oldest == self.base && window
    }

    /// Runs one cycle of the recovery state machine: consumes this cycle's
    /// setup completions, abandons timed-out attempts, and launches due
    /// retries. Call after [`NetworkSim::step`] with that step's report.
    pub fn service(
        &mut self,
        net: &mut NetworkSim,
        report: &NetStepReport,
        now: Cycles,
    ) -> Vec<RecoveryEvent> {
        let mut events = Vec::new();

        // 1. Setup completions.
        for setup in &report.setups {
            if self.orphaned.remove(&setup.token) {
                // Timed out before the ack returned; a late success must
                // release its path — unless a fault applied between the
                // step and this call already tore it down, which is a
                // double release like any other: counted, not fatal.
                if let Ok(conn) = setup.result {
                    if net.teardown(conn).is_err() {
                        net.note_ghost_release();
                    }
                }
                continue;
            }
            let Some(id) = self.unsettled.iter().copied().find(|id| {
                let state = self.sessions.get(id).map(|s| s.state);
                matches!(state, Some(SessionState::Probing { token, .. }) if token == setup.token)
            }) else {
                continue; // Not one of ours.
            };
            let Some(session) = self.sessions.get_mut(&id) else { continue };
            let to = match setup.result {
                Ok(conn) => {
                    let after = now.since(session.fault_at);
                    self.stats.recovered += 1;
                    self.stats.time_to_recover.record(after.as_f64());
                    events.push(RecoveryEvent::Recovered {
                        session: id,
                        conn,
                        after,
                        attempts: session.attempts,
                    });
                    SessionState::Active { conn }
                }
                // Unreachable is a typed partition verdict about the
                // surviving topology, not a transient setup loss: park the
                // session until the graph changes rather than burn its
                // budget against the same wall.
                Err(SetupError::Unreachable) => {
                    self.stats.partitioned += 1;
                    SessionState::Partitioned { epoch: net.topology_epoch() }
                }
                Err(_) => {
                    session.attempt_failed(id, &self.policy, &mut self.stats, now, &mut events)
                }
            };
            self.transition(id, Some(to));
        }

        // 2. Attempt timeouts, and 3. unparking partitioned sessions once
        //    the graph has changed. The topology epoch moves on every
        //    fail/repair (link or node), so a parked session re-probes
        //    exactly when reachability could have changed — never sooner,
        //    never via blind polling. The two phases touch disjoint states
        //    and each only its own row, so one walk in id order serves both
        //    and counts the probes still in flight for phase 4. Every row
        //    phases 2-4 act on is unsettled and none of them adds to
        //    `unsettled`, so its snapshot, in id order, is the rows a walk
        //    of the whole ledger would act on, in the same order.
        let current_epoch = net.topology_epoch();
        let mut probing = 0;
        let walk: Vec<SessionId> = self.unsettled.iter().copied().collect();
        for &id in &walk {
            #[cfg(test)]
            VISITS.with(|n| n.set(n.get() + 1));
            let Some(session) = self.sessions.get_mut(&id) else { continue };
            let to = match session.state {
                SessionState::Probing { token, deadline } if deadline < now => {
                    self.orphaned.insert(token);
                    self.stats.timeouts += 1;
                    session.attempt_failed(id, &self.policy, &mut self.stats, now, &mut events)
                }
                SessionState::Probing { .. } => {
                    probing += 1;
                    continue;
                }
                SessionState::Partitioned { epoch } if epoch != current_epoch => {
                    SessionState::Waiting { resume_at: now }
                }
                _ => continue,
            };
            self.transition(id, Some(to));
        }

        // 4. Launch due attempts in id order, capped at
        //    `max_concurrent_probes` probes in flight. Deferred sessions
        //    pick up a small seeded jitter so a mass-evacuation wavefront
        //    does not re-collide on the same cycle.
        for &id in &walk {
            #[cfg(test)]
            VISITS.with(|n| n.set(n.get() + 1));
            let Some(session) = self.sessions.get_mut(&id) else { continue };
            let SessionState::Waiting { resume_at } = session.state else { continue };
            if resume_at > now {
                continue;
            }
            let to = if probing >= self.policy.max_concurrent_probes {
                let jitter =
                    1 + self.rng.index(self.policy.base_backoff.0.max(1) as usize) as u64;
                self.stats.probe_throttled += 1;
                SessionState::Waiting { resume_at: now + Cycles(jitter) }
            } else {
                let token = net.request_connection(
                    session.src,
                    session.dst,
                    session.class,
                    SetupStrategy::Epb,
                    now,
                );
                session.attempts += 1;
                self.stats.retries += 1;
                probing += 1;
                SessionState::Probing { token, deadline: now + self.policy.setup_timeout }
            };
            self.transition(id, Some(to));
        }

        events
    }
}

#[cfg(test)]
thread_local! {
    /// Rows read by `service`'s per-cycle walks on this thread, one per row
    /// per walk — the counter behind the gate that a quiet cycle visits none.
    static VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::cbr_mbps;
    use crate::testkit::{mesh_net, output_wire};
    use crate::topology::Topology;
    use mmr_core::router::RouterConfig;

    fn run_recovery(
        net: &mut NetworkSim,
        mgr: &mut RecoveryManager,
        from: u64,
        to: u64,
    ) -> Vec<RecoveryEvent> {
        let mut events = Vec::new();
        for t in from..to {
            let report = net.step(Cycles(t));
            events.extend(mgr.service(net, &report, Cycles(t)));
        }
        events
    }

    #[test]
    fn a_broken_session_recovers_without_manual_intervention() {
        let mut net = mesh_net();
        let mut mgr = RecoveryManager::new(RecoveryPolicy::default());
        let sid = mgr.open(&mut net, NodeId(0), NodeId(8), cbr_mbps(124.0)).expect("placed");
        let conn = mgr.conn(sid).expect("active");
        // Fail the first wire the stream crosses.
        let (node, port) = output_wire(&net, conn, 0);
        let broken = net.fail_link(node, port).expect("inter-router wire");
        assert_eq!(broken, vec![conn]);
        mgr.on_faults(&broken, Cycles(10));
        assert_eq!(mgr.status(sid), Some(SessionStatus::Recovering));
        let events = run_recovery(&mut net, &mut mgr, 10, 80);
        assert!(
            matches!(events.first(), Some(RecoveryEvent::Recovered { session, .. }) if *session == sid),
            "{events:?}"
        );
        assert_eq!(mgr.status(sid), Some(SessionStatus::Active));
        let stats = mgr.stats();
        assert_eq!(stats.faults, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.permanently_failed, 0);
        assert!(stats.time_to_recover.mean() > 0.0, "ttr is finite and positive");
        // The replacement carries traffic.
        let conn2 = mgr.conn(sid).expect("active again");
        net.inject(conn2, Cycles(100)).expect("live");
        let mut delivered = 0;
        for t in 100..140u64 {
            delivered += net.step(Cycles(t)).delivered.len();
        }
        assert_eq!(delivered, 1);
    }

    #[test]
    fn a_fault_between_step_and_service_cannot_double_release_a_late_setup() {
        let mut net = mesh_net();
        // A 1-cycle deadline orphans the re-establishment probe long before
        // its acknowledgment returns; the long backoff keeps retries away.
        let mut mgr = RecoveryManager::new(
            RecoveryPolicy::default().setup_timeout(Cycles(1)).backoff(Cycles(64), Cycles(64)),
        );
        let sid = mgr.open(&mut net, NodeId(0), NodeId(8), cbr_mbps(10.0)).expect("placed");
        let (node, port) = output_wire(&net, mgr.conn(sid).expect("active"), 0);
        let broken = net.fail_link(node, port).expect("inter-router wire");
        mgr.on_faults(&broken, Cycles(0));
        for t in 0..60u64 {
            let report = net.step(Cycles(t));
            let late = report
                .setups
                .iter()
                .find_map(|s| s.result.ok().filter(|_| mgr.orphaned.contains(&s.token)));
            if let Some(conn) = late {
                // The orphan's late success is in this step's report; a
                // second fault tears its path down before the manager
                // gets to read it.
                let (node, port) = output_wire(&net, conn, 0);
                let broken = net.fail_link(node, port).expect("inter-router wire");
                assert!(broken.contains(&conn));
                let ghosts = net.stats().ghost_releases;
                let _ = mgr.service(&mut net, &report, Cycles(t));
                assert_eq!(net.stats().ghost_releases, ghosts + 1, "counted, not fatal");
                return;
            }
            let _ = mgr.service(&mut net, &report, Cycles(t));
        }
        panic!("the orphaned probe never completed");
    }

    /// Rows `service`'s walks read in one cycle.
    fn visits_in(net: &mut NetworkSim, mgr: &mut RecoveryManager, t: u64) -> u64 {
        let report = net.step(Cycles(t));
        VISITS.with(|n| n.set(0));
        let _ = mgr.service(net, &report, Cycles(t));
        VISITS.with(std::cell::Cell::get)
    }

    #[test]
    fn a_quiet_cycle_visits_no_session() {
        let mut net = NetworkSim::new(
            Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(64).candidates(4),
        );
        let mut mgr = RecoveryManager::default();
        let sids: Vec<SessionId> = (0..120u16)
            .map(|k| {
                let (src, dst) = (k % 9, (k + 1 + k / 9) % 9);
                let dst = if dst == src { (dst + 1) % 9 } else { dst };
                mgr.open(&mut net, NodeId(src), NodeId(dst), cbr_mbps(0.064)).expect("placed")
            })
            .collect();
        for t in 0..50 {
            assert_eq!(visits_in(&mut net, &mut mgr, t), 0, "cycle {t}: a quiet cycle");
        }
        // One link fault: each walk visits exactly the sessions it broke,
        // and only until each one is carried again.
        let (node, port) = output_wire(&net, mgr.conn(sids[0]).expect("active"), 0);
        let broken = net.fail_link(node, port).expect("inter-router wire");
        assert!(broken.len() > 1 && broken.len() < sids.len(), "{} broken", broken.len());
        let hit: Vec<SessionId> = sids
            .iter()
            .copied()
            .filter(|&id| broken.contains(&mgr.conn(id).expect("active")))
            .collect();
        mgr.on_faults(&broken, Cycles(50));
        let mut walked = 0;
        for t in 50..600 {
            let visits = visits_in(&mut net, &mut mgr, t);
            let unsettled =
                hit.iter().filter(|&&id| mgr.status(id) != Some(SessionStatus::Active)).count();
            assert_eq!(visits, 2 * unsettled as u64, "cycle {t}: a visit per walk per broken row");
            walked += visits;
        }
        assert!(walked > 0);
        assert_eq!(mgr.stats().recovered as usize, hit.len());
        assert!(sids.iter().all(|&id| mgr.status(id) == Some(SessionStatus::Active)));
    }

    #[test]
    fn the_window_follows_live_sessions() {
        let mut net = mesh_net();
        let mut mgr = RecoveryManager::default();
        let mut sids = Vec::new();
        for k in 0..1_000u16 {
            let (src, dst) = (NodeId(k % 9), NodeId((k + 4) % 9));
            sids.push(mgr.open(&mut net, src, dst, cbr_mbps(0.064)).expect("placed"));
            if let Some(&oldest) = sids.len().checked_sub(11).and_then(|k| sids.get(k)) {
                assert!(mgr.close(&mut net, oldest));
            }
            assert!(mgr.window.len() <= 10, "{} slots", mgr.window.len());
        }
        assert_eq!(mgr.sessions(), 10);
        let (closed, live) = sids.split_at(990);
        assert!(closed.iter().all(|&id| mgr.conn(id).is_none()));
        assert!(live.iter().all(|&id| mgr.conn(id).is_some()));
        assert!(mgr.indexes_agree());
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let policy = RecoveryPolicy::default().backoff(Cycles(8), Cycles(64));
        assert_eq!(policy.backoff_for(1), Cycles(0), "first attempt is immediate");
        assert_eq!(policy.backoff_for(2), Cycles(8));
        assert_eq!(policy.backoff_for(3), Cycles(16));
        assert_eq!(policy.backoff_for(4), Cycles(32));
        assert_eq!(policy.backoff_for(5), Cycles(64));
        assert_eq!(policy.backoff_for(6), Cycles(64), "capped");
        assert_eq!(policy.backoff_for(40), Cycles(64), "capped far out");
    }

    #[test]
    fn unreachable_destination_parks_as_partitioned() {
        // Ring of 4 split in two: node 0 can never reach node 2 again.
        // The session must park as Partitioned after one probe instead of
        // burning its retry budget against the dead partition.
        let mut net = NetworkSim::new(
            Topology::ring(4, 4).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(8).candidates(2),
        );
        let mut mgr = RecoveryManager::new(
            RecoveryPolicy::default().max_retries(2).backoff(Cycles(2), Cycles(4)),
        );
        let sid = mgr.open(&mut net, NodeId(0), NodeId(2), cbr_mbps(10.0)).expect("placed");
        let p01 = net
            .topology()
            .neighbors(NodeId(0))
            .into_iter()
            .find(|&(_, peer, _)| peer == NodeId(1))
            .map(|(port, _, _)| port)
            .expect("adjacent");
        let p23 = net
            .topology()
            .neighbors(NodeId(2))
            .into_iter()
            .find(|&(_, peer, _)| peer == NodeId(3))
            .map(|(port, _, _)| port)
            .expect("adjacent");
        let mut broken = net.fail_link(NodeId(0), p01).expect("wire");
        broken.extend(net.fail_link(NodeId(2), p23).expect("wire"));
        mgr.on_faults(&broken, Cycles(0));
        let events = run_recovery(&mut net, &mut mgr, 0, 200);
        assert!(events.is_empty(), "no recover/degrade/abandon against a partition: {events:?}");
        assert_eq!(mgr.status(sid), Some(SessionStatus::Partitioned));
        let stats = mgr.stats().clone();
        assert_eq!(stats.partitioned, 1);
        assert_eq!(stats.permanently_failed, 0, "parked, not abandoned");
        assert_eq!(stats.degraded, 0);
        assert_eq!(stats.retries, 1, "exactly one probe before parking");
        // Parked means parked: more cycles launch no further probes while
        // the topology epoch stands still.
        let _ = run_recovery(&mut net, &mut mgr, 200, 400);
        assert_eq!(mgr.stats().retries, 1);
        // Nothing leaked while probing the dead partition.
        let total: usize = (0..4).map(|n| net.router(NodeId(n)).connections()).sum();
        assert_eq!(total, 0);
    }

    /// Ring of 4 with two VCs per port: both of node 2's delivery VCs end up
    /// held by bystander connections, so every re-probe of the broken 0 -> 2
    /// session fails with `Exhausted` (reachable, no resources) — the error
    /// class that still walks the backoff/degradation ladder.
    fn starved_ring_incident(
        mgr: &mut RecoveryManager,
    ) -> (NetworkSim, SessionId) {
        let mut net = NetworkSim::new(
            Topology::ring(4, 4).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(2).candidates(2),
        );
        let sid = mgr.open(&mut net, NodeId(0), NodeId(2), cbr_mbps(10.0)).expect("placed");
        let conn = mgr.conn(sid).expect("active");
        // First bystander shares node 2's delivery port with the session.
        net.establish(NodeId(1), NodeId(2), cbr_mbps(10.0), SetupStrategy::Epb)
            .expect("one delivery VC is still free");
        // Kill the wire the session is on; its teardown frees the second
        // delivery VC, which the second bystander immediately claims.
        let (node, port) = output_wire(&net, conn, 0);
        let broken = net.fail_link(node, port).expect("inter-router wire");
        assert_eq!(broken, vec![conn]);
        net.establish(NodeId(3), NodeId(2), cbr_mbps(10.0), SetupStrategy::Epb)
            .expect("the torn session freed a delivery VC");
        mgr.on_faults(&broken, Cycles(0));
        (net, sid)
    }

    #[test]
    fn exhausted_paths_degrade_then_fail_permanently() {
        let mut mgr = RecoveryManager::new(
            RecoveryPolicy::default()
                .max_retries(2)
                .backoff(Cycles(2), Cycles(4))
                .ladder(vec![Bandwidth::from_mbps(5.0), Bandwidth::from_mbps(10.0)]),
        );
        let (mut net, sid) = starved_ring_incident(&mut mgr);
        let baseline: usize = (0..4).map(|n| net.router(NodeId(n)).connections()).sum();
        let events = run_recovery(&mut net, &mut mgr, 0, 400);
        assert!(
            events.iter().any(|e| matches!(e, RecoveryEvent::Degraded { session, .. } if *session == sid)),
            "degrades 10 -> 5 Mbps before dying: {events:?}"
        );
        assert!(
            matches!(events.last(), Some(RecoveryEvent::Abandoned { session, .. }) if *session == sid),
            "{events:?}"
        );
        assert_eq!(mgr.status(sid), Some(SessionStatus::Failed));
        let stats = mgr.stats();
        assert_eq!(stats.permanently_failed, 1);
        assert_eq!(stats.degraded, 1);
        assert_eq!(stats.partitioned, 0, "exhaustion is not a partition verdict");
        assert!(stats.backoff_cycles > 0, "waited between attempts");
        // Nothing leaked while retrying into the starved path: only the two
        // bystander connections' reservations remain.
        let total: usize = (0..4).map(|n| net.router(NodeId(n)).connections()).sum();
        assert_eq!(total, baseline);
    }

    #[test]
    fn degradation_disabled_fails_at_the_original_rate() {
        let mut mgr = RecoveryManager::new(
            RecoveryPolicy::default().max_retries(2).degrade(false).backoff(Cycles(2), Cycles(4)),
        );
        let (mut net, sid) = starved_ring_incident(&mut mgr);
        let events = run_recovery(&mut net, &mut mgr, 0, 200);
        assert!(events.iter().all(|e| !matches!(e, RecoveryEvent::Degraded { .. })));
        assert_eq!(mgr.stats().degraded, 0);
        assert_eq!(mgr.stats().permanently_failed, 1);
        assert_eq!(mgr.class(sid), Some(cbr_mbps(10.0)), "rate untouched");
    }

    #[test]
    fn probe_cap_throttles_mass_reestablishment() {
        let mut net = mesh_net();
        let mut mgr = RecoveryManager::new(
            RecoveryPolicy::default().max_concurrent_probes(2).backoff(Cycles(2), Cycles(16)),
        );
        // Eight sessions all cornered through the centre of the mesh.
        let pairs =
            [(0, 8), (2, 6), (1, 7), (3, 5), (6, 2), (8, 0), (5, 3), (7, 1)];
        let sids: Vec<SessionId> = pairs
            .iter()
            .map(|&(s, d)| {
                mgr.open(&mut net, NodeId(s), NodeId(d), cbr_mbps(10.0)).expect("placed")
            })
            .collect();
        // A whole router dies: every session crossing it breaks at once.
        let broken = net.fail_node(NodeId(4)).expect("operational");
        assert!(!broken.is_empty(), "centre node carried sessions");
        mgr.on_faults(&broken, Cycles(0));
        for t in 0..600u64 {
            let report = net.step(Cycles(t));
            let _ = mgr.service(&mut net, &report, Cycles(t));
            let probing = mgr
                .sessions
                .values()
                .filter(|s| matches!(s.state, SessionState::Probing { .. }))
                .count();
            assert!(probing <= 2, "cycle {t}: {probing} probes in flight, cap is 2");
        }
        let stats = mgr.stats();
        assert!(stats.probe_throttled > 0, "the cap actually bit: {stats:?}");
        assert_eq!(stats.recovered as usize, broken.len(), "everyone re-established");
        for sid in sids {
            assert!(
                matches!(mgr.status(sid), Some(SessionStatus::Active)),
                "{sid} ended {:?}",
                mgr.status(sid)
            );
        }
    }

    #[test]
    fn node_failure_evacuates_sessions_and_repair_unparks_the_stranded() {
        let mut net = mesh_net();
        let mut mgr = RecoveryManager::new(RecoveryPolicy::default());
        // Two transit sessions that route around the dead router, and one
        // terminating at it that can only park until the repair.
        let transit_a =
            mgr.open(&mut net, NodeId(0), NodeId(8), cbr_mbps(10.0)).expect("placed");
        let transit_b =
            mgr.open(&mut net, NodeId(2), NodeId(6), cbr_mbps(10.0)).expect("placed");
        let stranded =
            mgr.open(&mut net, NodeId(0), NodeId(4), cbr_mbps(10.0)).expect("placed");
        let broken = net.fail_node(NodeId(4)).expect("operational");
        mgr.on_faults(&broken, Cycles(0));
        let events = run_recovery(&mut net, &mut mgr, 0, 300);
        for sid in [transit_a, transit_b] {
            assert_eq!(
                mgr.status(sid),
                Some(SessionStatus::Active),
                "{sid} should have evacuated ({events:?})"
            );
        }
        assert_eq!(mgr.status(stranded), Some(SessionStatus::Partitioned));
        assert!(mgr.stats().partitioned >= 1);
        assert_eq!(mgr.stats().permanently_failed, 0);
        // Repair moves the topology epoch; the parked session must wake and
        // re-establish without any manual poke.
        net.repair_node(NodeId(4)).expect("was failed");
        let events = run_recovery(&mut net, &mut mgr, 300, 600);
        assert!(
            events.iter().any(|e| matches!(e, RecoveryEvent::Recovered { session, .. } if *session == stranded)),
            "{events:?}"
        );
        assert_eq!(mgr.status(stranded), Some(SessionStatus::Active));
    }

    #[test]
    fn close_releases_everything_and_is_idempotent() {
        let mut net = mesh_net();
        let mut mgr = RecoveryManager::new(RecoveryPolicy::default());
        let keep = mgr.open(&mut net, NodeId(0), NodeId(8), cbr_mbps(55.0)).expect("placed");
        let gone = mgr.open(&mut net, NodeId(2), NodeId(6), cbr_mbps(55.0)).expect("placed");
        let (peak_before, _) = net.link_load();
        assert!(mgr.close(&mut net, gone));
        assert_eq!(mgr.sessions(), 1);
        assert_eq!(mgr.status(gone), None, "closed sessions are forgotten");
        assert_eq!(mgr.status(keep), Some(SessionStatus::Active));
        let (peak_after, _) = net.link_load();
        assert!(peak_after <= peak_before, "closing cannot add load");
        assert!(!mgr.close(&mut net, gone), "double close is a no-op");
        assert_eq!(mgr.stats().closed, 1);
        // Closing the survivor leaves a fully idle fabric.
        assert!(mgr.close(&mut net, keep));
        assert_eq!(net.link_load(), (0.0, 0.0));
        let total: usize = (0..9).map(|n| net.router(NodeId(n)).connections()).sum();
        assert_eq!(total, 0, "no reservations survive the closes");
    }

    #[test]
    fn close_cancels_an_inflight_probe_without_leaking() {
        let mut mgr = RecoveryManager::new(
            RecoveryPolicy::default().max_retries(8).backoff(Cycles(2), Cycles(4)),
        );
        let (mut net, sid) = starved_ring_incident(&mut mgr);
        // Step until the session has a probe in flight, then close it.
        let mut t = 0u64;
        while mgr.status(sid) == Some(SessionStatus::Recovering) && t < 50 {
            let report = net.step(Cycles(t));
            let _ = mgr.service(&mut net, &report, Cycles(t));
            t += 1;
        }
        assert!(mgr.close(&mut net, sid));
        // Keep stepping: any late setup success must be torn down, leaving
        // only the two bystanders' reservations.
        for t2 in t..t + 300 {
            let report = net.step(Cycles(t2));
            let _ = mgr.service(&mut net, &report, Cycles(t2));
        }
        let total: usize = (0..4).map(|n| net.router(NodeId(n)).connections()).sum();
        let bystanders: usize = 2 * 2; // two 1-hop connections, 2 router-local entries each
        assert!(total <= bystanders, "closed probe leaked reservations: {total}");
    }

    #[test]
    fn upgrade_steps_one_rung_up_when_capacity_allows() {
        let mut net = mesh_net();
        let mut mgr = RecoveryManager::new(RecoveryPolicy::default());
        let sid = mgr.open(&mut net, NodeId(0), NodeId(8), cbr_mbps(5.0)).expect("placed");
        let (peak_before, _) = net.link_load();
        let outcome = mgr.upgrade(&mut net, sid, Cycles(10));
        assert_eq!(
            outcome,
            UpgradeOutcome::Upgraded {
                from: Bandwidth::from_mbps(5.0),
                to: Bandwidth::from_mbps(10.0)
            },
            "5 Mbps steps to the next paper-ladder rung"
        );
        assert_eq!(mgr.class(sid), Some(cbr_mbps(10.0)));
        assert_eq!(mgr.status(sid), Some(SessionStatus::Active));
        assert_eq!(mgr.stats().upgraded, 1);
        let (peak_after, _) = net.link_load();
        assert!(peak_after > peak_before, "the upgrade books more bandwidth");
        // The upgraded connection still carries traffic.
        let conn = mgr.conn(sid).expect("active");
        net.inject(conn, Cycles(20)).expect("live");
        let mut delivered = 0;
        for t in 20..80u64 {
            delivered += net.step(Cycles(t)).delivered.len();
        }
        assert_eq!(delivered, 1);
    }

    #[test]
    fn upgrade_without_headroom_restores_the_original_rate() {
        let mut net = mesh_net();
        // A ladder whose next rung exceeds the 1.24 Gbps link rate: the
        // upgrade must be refused and the session restored unharmed.
        let mut mgr = RecoveryManager::new(RecoveryPolicy::default().ladder(vec![
            Bandwidth::from_mbps(10.0),
            Bandwidth::from_mbps(2_000.0),
        ]));
        let sid = mgr.open(&mut net, NodeId(0), NodeId(8), cbr_mbps(10.0)).expect("placed");
        assert_eq!(mgr.upgrade(&mut net, sid, Cycles(5)), UpgradeOutcome::NoHeadroom);
        assert_eq!(mgr.class(sid), Some(cbr_mbps(10.0)), "rate untouched");
        assert_eq!(mgr.status(sid), Some(SessionStatus::Active));
        assert_eq!(mgr.stats().upgraded, 0);
    }

    #[test]
    fn upgrade_at_the_ladder_top_reports_ceiling() {
        let mut net = mesh_net();
        let mut mgr = RecoveryManager::new(RecoveryPolicy::default());
        let sid = mgr.open(&mut net, NodeId(0), NodeId(8), cbr_mbps(120.0)).expect("placed");
        assert_eq!(mgr.upgrade(&mut net, sid, Cycles(0)), UpgradeOutcome::AtCeiling);
        assert_eq!(mgr.upgrade(&mut net, SessionId(99), Cycles(0)), UpgradeOutcome::NotActive);
    }

    #[test]
    fn repair_lets_a_partitioned_session_recover() {
        // Fail both ring cuts, then repair one before the budget runs out:
        // the session must come back instead of failing.
        let mut net = NetworkSim::new(
            Topology::ring(4, 4).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(8).candidates(2),
        );
        let mut mgr = RecoveryManager::new(
            RecoveryPolicy::default().max_retries(8).backoff(Cycles(4), Cycles(64)),
        );
        let sid = mgr.open(&mut net, NodeId(0), NodeId(2), cbr_mbps(10.0)).expect("placed");
        let cut = |net: &NetworkSim, a: NodeId, b: NodeId| {
            net.topology()
                .neighbors(a)
                .into_iter()
                .find(|&(_, peer, _)| peer == b)
                .map(|(port, _, _)| port)
                .expect("adjacent")
        };
        let p01 = cut(&net, NodeId(0), NodeId(1));
        let p23 = cut(&net, NodeId(2), NodeId(3));
        let mut broken = net.fail_link(NodeId(0), p01).expect("wire");
        broken.extend(net.fail_link(NodeId(2), p23).expect("wire"));
        mgr.on_faults(&broken, Cycles(0));
        // The first probe reports the partition and the session parks.
        let _ = run_recovery(&mut net, &mut mgr, 0, 60);
        assert_eq!(mgr.status(sid), Some(SessionStatus::Partitioned));
        net.repair_link(NodeId(0), p01).expect("was failed");
        let events = run_recovery(&mut net, &mut mgr, 60, 400);
        assert!(
            events.iter().any(|e| matches!(e, RecoveryEvent::Recovered { session, .. } if *session == sid)),
            "{events:?}"
        );
        assert_eq!(mgr.status(sid), Some(SessionStatus::Active));
        assert_eq!(mgr.stats().permanently_failed, 0);
    }
}
