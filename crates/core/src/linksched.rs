//! Link scheduling: per-input-port candidate selection.
//!
//! §4.4: "instead of selecting a single virtual channel from each input
//! link, the router can select a set of candidates. This set is simply
//! obtained as the result of some operations with bit vectors (for instance,
//! the set of input virtual channels at that link with flits_available,
//! credits_available for flit transmission, CBR_service_requested and not
//! CBR_Completely_Serviced)."
//!
//! Selection starts from the bit-vector *eligible* set and walks it phase by
//! phase, per the §4.3 service order: each phase's domain is its class mask
//! ∩ eligible, less the serviced bank where the phase has one, and a VC is
//! classified only when the walk visits it. No head flit's kind is read: a
//! single-flit packet's connection has the class of its kind. Up to `C`
//! virtual channels with distinct output ports are picked — one flit per
//! output is all an input can use in a cycle. Two selection rules are
//! provided (see [`CandidatePolicy`]): a rotating scan that stops at `C`
//! distinct outputs (default) and a priority-sorted variant that sorts the
//! whole walk; the iterative schemes take the whole walk too. The per-flit
//! priorities (the biased ratio of §5.1, or static bandwidth-class
//! priorities) ride along on the candidates and are used by the *switch
//! scheduler* to arbitrate output conflicts.
//!
//! A select reads bit vectors, one [`VcSched`] record per visited VC and
//! the VCM's head ready time; only a VBR connection's quota position sends
//! it to the [`ConnectionTable`].

use mmr_bitvec::StatusBits;
use mmr_sim::Cycles;

use crate::arbiter::{biased_priority, sort_candidates, ArbiterKind, Candidate, ServicePhase};
use crate::conn::{ConnState, ConnectionTable, QosClass};
use crate::ids::{ConnectionId, PortId, VcIndex, VcRef};
use crate::table::{OutputSet, VcMap};
use crate::vcm::VirtualChannelMemory;

/// What the link scheduler needs of the connection mapped onto one input
/// VC, so a select reads no [`ConnState`]: 16 bytes per input VC, kept by
/// the input link beside the VC's status bits. It copies facts that change
/// in two places only — establishment and a `ScaleRate` command word — so
/// it has exactly those two writers. The head flit's ready time changes
/// every pop and is read from the VCM instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VcSched {
    /// The arbiter's per-connection key: the inter-arrival period under
    /// [`ArbiterKind::BiasedPriority`], the static priority under
    /// [`ArbiterKind::FixedPriority`], zero otherwise.
    pub key: f64,
    /// The connection.
    pub conn: ConnectionId,
    /// The output port of its direct channel mapping.
    pub output: PortId,
}

impl VcSched {
    /// The record of a VC no connection has been mapped onto yet (never
    /// read: a select visits only VCs with a flit and a credit, and those
    /// are mapped); the fill of a port's lazily allocated record table.
    pub const IDLE: VcSched = VcSched { key: 0.0, conn: ConnectionId(0), output: PortId(0) };

    /// The record of `conn` under the router-wide arbiter `kind`.
    pub fn of(kind: ArbiterKind, conn: &ConnState) -> Self {
        let key = match kind {
            ArbiterKind::BiasedPriority => conn.interarrival_cycles,
            ArbiterKind::FixedPriority => conn.fixed_priority,
            _ => 0.0,
        };
        VcSched { key, conn: conn.id, output: conn.output_vc.port }
    }
}

impl Default for VcSched {
    fn default() -> Self {
        VcSched::IDLE
    }
}

/// Per-input-port class membership masks: which *active* VCs carry
/// connections of each QoS class. Maintained by the router at establishment
/// and teardown, so the per-cycle scheduler can derive each service phase's
/// candidate domain with a few word-parallel operations instead of
/// classifying every eligible VC.
#[derive(Debug, Clone)]
pub struct ClassMasks {
    /// Active VCs carrying CBR connections.
    pub cbr: StatusBits,
    /// Active VCs carrying VBR connections.
    pub vbr: StatusBits,
    /// Active VCs carrying control connections.
    pub control: StatusBits,
    /// Active VCs carrying best-effort connections.
    pub best_effort: StatusBits,
    /// Population counts of the masks — maintained by [`ClassMasks::set`] /
    /// [`ClassMasks::clear`] so the per-cycle phase walk can rule a class
    /// out with one zero test instead of a vector intersection. Workloads
    /// are typically single-class, so most phases exit through this test.
    cbr_count: usize,
    /// Active VBR connection count (see `cbr_count`).
    vbr_count: usize,
    /// Active control connection count (see `cbr_count`).
    control_count: usize,
    /// Active best-effort connection count (see `cbr_count`).
    best_effort_count: usize,
}

impl ClassMasks {
    /// All-empty masks for a port with `vcs` virtual channels.
    pub fn new(vcs: usize) -> Self {
        ClassMasks {
            cbr: StatusBits::zeros(vcs),
            vbr: StatusBits::zeros(vcs),
            control: StatusBits::zeros(vcs),
            best_effort: StatusBits::zeros(vcs),
            cbr_count: 0,
            vbr_count: 0,
            control_count: 0,
            best_effort_count: 0,
        }
    }

    /// Records that `vc` now carries a connection of `class`.
    pub fn set(&mut self, vc: usize, class: QosClass) {
        self.clear(vc);
        match class {
            QosClass::Cbr { .. } => {
                self.cbr.set(vc, true);
                self.cbr_count += 1;
            }
            QosClass::Vbr { .. } => {
                self.vbr.set(vc, true);
                self.vbr_count += 1;
            }
            QosClass::Control => {
                self.control.set(vc, true);
                self.control_count += 1;
            }
            QosClass::BestEffort => {
                self.best_effort.set(vc, true);
                self.best_effort_count += 1;
            }
        }
    }

    /// Records that `vc` no longer carries a connection.
    pub fn clear(&mut self, vc: usize) {
        for (mask, count) in [
            (&mut self.cbr, &mut self.cbr_count),
            (&mut self.vbr, &mut self.vbr_count),
            (&mut self.control, &mut self.control_count),
            (&mut self.best_effort, &mut self.best_effort_count),
        ] {
            if mask.get(vc) {
                mask.set(vc, false);
                *count -= 1;
            }
        }
    }

    /// Whether any active VC carries a CBR connection (O(1)).
    pub fn has_cbr(&self) -> bool {
        self.cbr_count > 0
    }

    /// Whether any active VC carries a VBR connection (O(1)).
    pub fn has_vbr(&self) -> bool {
        self.vbr_count > 0
    }

    /// Whether any active VC carries a control connection (O(1)).
    pub fn has_control(&self) -> bool {
        self.control_count > 0
    }

    /// Whether any active VC carries a best-effort connection (O(1)).
    pub fn has_best_effort(&self) -> bool {
        self.best_effort_count > 0
    }
}

/// How the link scheduler picks its `C` candidates from the eligible set.
///
/// The paper specifies the *mechanism* (bit-vector status queries) but not
/// the exact selection rule; both plausible readings are implemented and the
/// ablation benches compare them:
///
/// * [`CandidatePolicy::RotatingScan`] (default) — a rotating priority
///   encoder scans the eligible set and takes the next `C` VCs with
///   distinct outputs; the per-flit priorities arbitrate proposal order and
///   switch conflicts. This is the faithful reading of the paper's
///   bit-vector mechanism, is cheap in hardware, and reproduces the
///   evaluation's orderings: biased beats fixed on delay and jitter with
///   the gap widening toward saturation, and every connection keeps making
///   progress (no starvation-induced survivor bias in the statistics).
/// * [`CandidatePolicy::PrioritySorted`] — the `C` highest-priority
///   eligible VCs (one per distinct output), i.e. the link scheduler itself
///   is urgency-driven. With the biased scheme this equalises the
///   delay/inter-arrival ratio across connections (delays become
///   proportional to the inter-arrival period); with static priorities it
///   starves low classes outright. Kept as an ablation
///   (`ablations -- candidate-policy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidatePolicy {
    /// Rotating fair scan of the eligible set (default).
    #[default]
    RotatingScan,
    /// Highest-priority candidates first.
    PrioritySorted,
}

/// Everything the link scheduler of one input port reads in one flit cycle.
#[derive(Debug)]
pub struct LinkSchedView<'a> {
    /// The input port being scheduled.
    pub port: PortId,
    /// The port's virtual channel memory (`flits_available` and head ready
    /// times).
    pub vcm: &'a VirtualChannelMemory,
    /// §4.1's `credits_available`: the VCs whose mapped output VC holds a
    /// credit (set on mapped VCs only).
    pub credits: &'a StatusBits,
    /// §4.4's `CBR_Completely_Serviced`: the CBR VCs that have used up
    /// their round.
    pub cbr_serviced: &'a StatusBits,
    /// The VBR VCs that have reached their peak quota this round.
    pub vbr_serviced: &'a StatusBits,
    /// The router's connection table (direct channel mappings); read for
    /// VBR connections only.
    pub conns: &'a ConnectionTable,
    /// The port's per-VC scheduling records.
    pub records: &'a VcMap<VcSched>,
    /// Active arbitration scheme (decides how priorities are computed).
    pub kind: ArbiterKind,
    /// Maximum number of candidates to offer the switch scheduler.
    pub max_candidates: usize,
    /// Candidate selection policy.
    pub policy: CandidatePolicy,
    /// Per-VC class membership masks for this port (see [`ClassMasks`]).
    pub classes: &'a ClassMasks,
    /// Per-output flag: whether guaranteed (CBR/VBR) traffic may still be
    /// serviced toward that output this round. Cleared when the output's
    /// best-effort reserve would be violated (§4.2: "reserve some
    /// bandwidth/round for best-effort traffic").
    pub guaranteed_open: &'a [bool],
    /// Rotating-scan pointer: where the candidate scan starts this cycle
    /// (always below the VC count).
    pub rr_pointer: usize,
    /// Current flit cycle.
    pub now: Cycles,
}

/// For tests: the result of one `select_candidates` pass, the oracle
/// output the unit tests compare.
#[derive(Debug, Clone)]
pub struct LinkSchedOutcome {
    /// For tests: candidates in proposal order (most urgent first).
    #[doc(hidden)]
    pub candidates: Vec<Candidate>,
    /// For tests: where next cycle's rotating scan should start.
    #[doc(hidden)]
    pub next_pointer: usize,
}

const PHASES: [ServicePhase; 5] = [
    ServicePhase::Control,
    ServicePhase::CbrGuaranteed,
    ServicePhase::VbrPermanent,
    ServicePhase::VbrExcess,
    ServicePhase::BestEffort,
];

/// The link scheduler with its reusable scratch state.
///
/// The selection pass runs every flit cycle for every port, so all working
/// storage (the eligible and domain bit vectors, the sorted list) lives
/// here and is reused across cycles — [`LinkScheduler::select`] performs no
/// heap allocation. Nothing in it outlives a select (the rotating pointer
/// is the port's, passed in the view), so a router keeps one and lends it
/// to each input port in turn.
#[derive(Debug, Clone)]
pub struct LinkScheduler {
    /// Scratch: the word-parallel AND of the eligibility conditions.
    eligible: StatusBits,
    /// Scratch: the current phase's candidate domain.
    domain: StatusBits,
    /// Scratch: the whole walk, sorted (PrioritySorted policy only).
    sorted: Vec<Candidate>,
}

impl LinkScheduler {
    /// Creates a scheduler for ports with `vcs` virtual channels.
    pub fn new(vcs: usize) -> Self {
        LinkScheduler {
            eligible: StatusBits::zeros(vcs),
            domain: StatusBits::zeros(vcs),
            sorted: Vec::new(),
        }
    }

    /// Selects this cycle's candidates for one input port, writing them in
    /// proposal order into `out` (cleared first) and returning where next
    /// cycle's rotating scan should start.
    ///
    /// The eligible set is the bit-vector intersection of the VCM's
    /// `flits_available` and the `credits_available` bank (§4.4's example
    /// query); a credit bit is only ever set on a mapped VC, so every
    /// eligible VC carries a connection. One walk visits its
    /// phase domains in precedence order and classifies each VC it visits
    /// into its [`ServicePhase`]. The rotating scan stops at
    /// `max_candidates` VCs with distinct outputs; the priority sort keeps
    /// the `max_candidates` best distinct outputs of the whole walk; the
    /// iterative schemes take the whole walk. The returned candidates carry
    /// the scheme's priority:
    ///
    /// * [`ArbiterKind::BiasedPriority`] — waiting time ÷ inter-arrival
    ///   period, recomputed every cycle;
    /// * [`ArbiterKind::Perfect`] — absolute waiting time
    ///   (oldest-ready-first, the conflict-free lower bound);
    /// * [`ArbiterKind::FixedPriority`] — the static bandwidth-class
    ///   priority drawn at establishment;
    /// * [`ArbiterKind::RoundRobin`] — proximity to the rotating pointer;
    /// * iterative schemes ([`ArbiterKind::Autonet`], [`ArbiterKind::Islip`])
    ///   — zero; they select randomly / by pointer in the switch scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the view's VC count disagrees with the scheduler's.
    // mmr-lint: hot
    pub fn select(&mut self, view: &LinkSchedView<'_>, out: &mut Vec<Candidate>) -> usize {
        let vcs = view.vcm.vcs();
        // mmr-lint: allow(P-PANIC, reason="sizing contract vs construction-time invariant; one comparison per cycle, not data-dependent")
        assert_eq!(self.eligible.len(), vcs, "scheduler sized for a different VC count");
        out.clear();
        // A port with nothing eligible offers nothing; skip the phase walk
        // outright. The fused query computes the intersection and its
        // population in one pass.
        let eligible_count = self.eligible.copy_intersection(
            view.vcm.flits_available(),
            view.credits,
        );
        if eligible_count == 0 {
            return view.rr_pointer;
        }

        let mut next_pointer = view.rr_pointer;
        // Only the rotating scan stops early; the iterative schemes (whose
        // selection rule lives in the switch scheduler) and the priority
        // sort take the whole walk, the sort into its own scratch.
        let iterative =
            matches!(view.kind, ArbiterKind::Autonet { .. } | ArbiterKind::Islip { .. });
        let sorted = !iterative && view.policy == CandidatePolicy::PrioritySorted;
        let scan = !iterative && !sorted;
        self.sorted.clear();
        let walked = if sorted { &mut self.sorted } else { &mut *out };

        // The one place a VC is classified: each phase's *domain* is its
        // class mask ∩ `eligible` (less the serviced bank), and
        // `classify_in` runs on visit, trusting the domain for the class. A
        // packet's class is its flit's kind (only `Router::inject_packet`
        // queues a control or best-effort flit, on a connection of that
        // class), so the class masks hold every packet VC. The control, CBR
        // and best-effort domains hold exactly the eligible VCs of their
        // phase; the VBR domain, shared by both VBR phases, is a superset of
        // each, so the walk re-checks the phase the quota position gives.
        // `reference_select`, which classifies by head kind first, holds the
        // builds to this.
        let mut outputs_seen = OutputSet::new();
        'phases: for phase in PHASES {
            // Build the phase's domain and skip it when empty. A class no
            // active VC carries is ruled out by an O(1) population test
            // (workloads are typically single-class, so most phases exit
            // there); each build is a fused single pass that also counts.
            let population = match phase {
                ServicePhase::Control if view.classes.has_control() => {
                    self.domain.copy_intersection(&view.classes.control, &self.eligible)
                }
                // VCs whose round quota is already exhausted (the latched
                // §4.4 "completely serviced" banks) are subtracted up front
                // so the walk never visits them.
                ServicePhase::CbrGuaranteed if view.classes.has_cbr() => {
                    self.domain.copy_intersection_minus(
                        &view.classes.cbr,
                        &self.eligible,
                        view.cbr_serviced,
                    )
                }
                // Both VBR phases share one domain; the quota position
                // decides per VC which phase it is in. The VBR serviced bank
                // latches *peak* exhaustion, which rules a VC out of both.
                ServicePhase::VbrPermanent | ServicePhase::VbrExcess
                    if view.classes.has_vbr() =>
                {
                    self.domain.copy_intersection_minus(
                        &view.classes.vbr,
                        &self.eligible,
                        view.vbr_serviced,
                    )
                }
                ServicePhase::BestEffort if view.classes.has_best_effort() => {
                    self.domain.copy_intersection(&view.classes.best_effort, &self.eligible)
                }
                _ => 0,
            };
            if population == 0 {
                continue;
            }
            for vc_idx in self.domain.iter_set_from(view.rr_pointer) {
                // The scan stops at C distinct outputs, and a VC bound for
                // an output already offered is not even classified.
                if scan && walked.len() >= view.max_candidates {
                    break 'phases;
                }
                if scan && outputs_seen.contains(view.records.at(vc_idx).output) {
                    continue;
                }
                let Some(c) = classify_in(view, vc_idx, vcs, phase) else { continue };
                if c.phase != phase {
                    continue;
                }
                // mmr-lint: allow(A-PUSH, reason="amortized: reusable buffer retains its capacity across cycles (PR 1 zero-alloc design)")
                walked.push(c);
                if scan {
                    outputs_seen.mark(c.output);
                    // The VC after it on the ring, by comparison.
                    next_pointer = if vc_idx + 1 < vcs { vc_idx + 1 } else { 0 };
                }
            }
        }

        // Proposal order: most urgent first. The switch scheduler resolves
        // output conflicts with the same ordering, and the priority sort's
        // `out`, a subsequence of the sorted walk, needs no sort of its own.
        sort_candidates(walked);
        if sorted {
            let fresh = self.sorted.iter().filter(|c| outputs_seen.mark(c.output));
            // mmr-lint: allow(A-PUSH, reason="amortized: reusable buffer retains its capacity across cycles (PR 1 zero-alloc design)")
            out.extend(fresh.take(view.max_candidates));
        }
        next_pointer
    }
}

/// For tests: a one-shot [`LinkScheduler::select`] on a fresh scheduler.
#[doc(hidden)]
pub fn select_candidates(view: &LinkSchedView<'_>) -> LinkSchedOutcome {
    let mut scheduler = LinkScheduler::new(view.vcm.vcs());
    let mut candidates = Vec::new();
    let next_pointer = scheduler.select(view, &mut candidates);
    LinkSchedOutcome { candidates, next_pointer }
}

/// The candidate a VC of `domain`'s phase domain is offered as — the
/// select walk visits the domains, so it knows the domain and reads no
/// class bit. Output, connection and key come from the VC's
/// [`VcSched`], the reserve from `guaranteed_open`, waiting time from the
/// VCM's head ready time; a VBR connection's quota position (and excess
/// priority) is the one thing read from its [`ConnState`]. Returns `None`
/// when the VC cannot be serviced this cycle (the output's best-effort
/// reserve is closed, or a VBR connection is past its peak).
// mmr-lint: hot
fn classify_in(
    view: &LinkSchedView<'_>,
    vc_idx: usize,
    vcs: usize,
    domain: ServicePhase,
) -> Option<Candidate> {
    let record = view.records.at(vc_idx);
    // The phase, and the excess phase's own priority.
    let (phase, excess) = match domain {
        ServicePhase::Control | ServicePhase::BestEffort => (domain, None),
        // The output's best-effort reserve is exhausted for this round;
        // guaranteed traffic waits for the next round.
        _ if !view.guaranteed_open.get(record.output.index()).copied().unwrap_or(true) => {
            return None;
        }
        ServicePhase::CbrGuaranteed => (domain, None),
        ServicePhase::VbrPermanent | ServicePhase::VbrExcess => {
            let conn = connection(view, vc_idx)?;
            let perm_quota = conn.vbr_permanent_cycles.ceil().max(1.0) as u32;
            let peak_quota = conn.vbr_peak_cycles.ceil().max(1.0) as u32;
            if conn.serviced_this_round < perm_quota {
                (ServicePhase::VbrPermanent, None)
            } else if conn.serviced_this_round < peak_quota {
                // §4.3: excess bandwidth is serviced one connection at a
                // time in priority order — a per-connection constant makes
                // the ordering stable across cycles, so the leader drains
                // before the next.
                let priority = f64::from(conn.dynamic_priority) * 1e6
                    - f64::from(conn.id.raw() % 1_000_000u32);
                (ServicePhase::VbrExcess, Some(priority))
            } else {
                return None;
            }
        }
    };
    let waited =
        || view.vcm.head_ready_at(VcIndex(vc_idx as u16)).map(|at| view.now.since(at).as_f64());
    let priority = match (excess, view.kind) {
        (Some(priority), _) => priority,
        (None, ArbiterKind::BiasedPriority) => biased_priority(waited()?, record.key),
        // The perfect switch is the paper's lower bound: with no port
        // conflicts the ideal input policy is oldest-ready-first, which
        // minimises both waiting and delay variation. OldestFirst is the
        // same rule under real switch conflicts.
        (None, ArbiterKind::Perfect | ArbiterKind::OldestFirst) => waited()?,
        (None, ArbiterKind::FixedPriority) => record.key,
        // Distance past the pointer on the ring (`rr_pointer < vcs`).
        (None, ArbiterKind::RoundRobin) => {
            let dist = if vc_idx >= view.rr_pointer {
                vc_idx - view.rr_pointer
            } else {
                vc_idx + vcs - view.rr_pointer
            };
            -(dist as f64)
        }
        (None, ArbiterKind::Autonet { .. } | ArbiterKind::Islip { .. }) => 0.0,
    };
    let (input, vc, output, conn) = (view.port, VcIndex(vc_idx as u16), record.output, record.conn);
    Some(Candidate { input, vc, output, conn, phase, priority })
}

/// The connection mapped onto `vc_idx`: the one [`ConnectionTable`] read a
/// select makes, for a VBR connection's quota position.
fn connection<'v>(view: &LinkSchedView<'v>, vc_idx: usize) -> Option<&'v ConnState> {
    #[cfg(test)]
    CONNECTION_READS.with(|n| n.set(n.get() + 1));
    view.conns.by_input_vc(VcRef { port: view.port, vc: VcIndex(vc_idx as u16) })
}

#[cfg(test)]
thread_local! {
    /// [`ConnectionTable`] reads made by link scheduling on this thread —
    /// the counter behind the work gate that a stream select reads none.
    pub(crate) static CONNECTION_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The oracle for [`LinkScheduler::select`]: the eager selection it
/// replaced. Eligibility comes from the facts — a flit queued in the VCM, a
/// connection mapped in the table, and the credits bit — and every
/// eligible VC is classified up front from its [`ConnState`] and its VCM
/// head flit's kind: no record, class mask, serviced bit or
/// `flits_available` bit is read. Then the rotating scan (or the priority
/// order) runs over that classification, and one sort gives the proposal
/// order.
#[cfg(test)]
pub(crate) fn reference_select(view: &LinkSchedView<'_>, out: &mut Vec<Candidate>) -> usize {
    let vcs = view.vcm.vcs();
    let mut classified = vec![None; vcs];
    for (vc_idx, slot) in classified.iter_mut().enumerate() {
        let vc = VcIndex(vc_idx as u16);
        let mapped = view.conns.by_input_vc(VcRef { port: view.port, vc }).is_some();
        let credited = view.credits.get(vc_idx);
        if view.vcm.occupancy(vc) > 0 && mapped && credited {
            *slot = reference_classify(view, vc_idx, vcs);
        }
    }
    out.clear();
    let mut next_pointer = view.rr_pointer;
    let mut outputs_seen = OutputSet::new();
    match (view.kind, view.policy) {
        (ArbiterKind::Autonet { .. } | ArbiterKind::Islip { .. }, _) => {
            out.extend(classified.iter().flatten());
        }
        (_, CandidatePolicy::PrioritySorted) => {
            let mut all: Vec<Candidate> = classified.iter().flatten().copied().collect();
            sort_candidates(&mut all);
            for c in all {
                if out.len() < view.max_candidates && outputs_seen.mark(c.output) {
                    out.push(c);
                }
            }
        }
        (_, CandidatePolicy::RotatingScan) => {
            for phase in PHASES {
                for vc_idx in (0..vcs).map(|k| (view.rr_pointer + k) % vcs) {
                    let Some(c) = classified[vc_idx].filter(|c| c.phase == phase) else { continue };
                    if out.len() < view.max_candidates && outputs_seen.mark(c.output) {
                        out.push(c);
                        next_pointer = (vc_idx + 1) % vcs;
                    }
                }
            }
        }
    }
    sort_candidates(out);
    next_pointer
}

/// The classification [`reference_select`] runs: from the connection's
/// state and the head flit, as the scheduler did before the records.
#[cfg(test)]
fn reference_classify(view: &LinkSchedView<'_>, vc_idx: usize, vcs: usize) -> Option<Candidate> {
    use crate::flit::FlitKind;
    let vc = VcIndex(vc_idx as u16);
    let conn = view.conns.by_input_vc(VcRef { port: view.port, vc })?;
    let (head, ready_at) = view.vcm.head_with_ready(vc)?;
    let delay = view.now.since(ready_at).as_f64();
    let open = view.guaranteed_open.get(conn.output_vc.port.index()).copied().unwrap_or(true);
    let phase = match head.kind {
        FlitKind::Control => ServicePhase::Control,
        FlitKind::BestEffort => ServicePhase::BestEffort,
        FlitKind::Data | FlitKind::Command(_) => match conn.class {
            QosClass::Cbr { .. } | QosClass::Vbr { .. } if !open => return None,
            QosClass::Cbr { .. } if conn.quota_exhausted() => return None,
            QosClass::Cbr { .. } => ServicePhase::CbrGuaranteed,
            QosClass::Vbr { .. } => {
                let perm_quota = conn.vbr_permanent_cycles.ceil().max(1.0) as u32;
                let peak_quota = conn.vbr_peak_cycles.ceil().max(1.0) as u32;
                if conn.serviced_this_round < perm_quota {
                    ServicePhase::VbrPermanent
                } else if conn.serviced_this_round < peak_quota {
                    ServicePhase::VbrExcess
                } else {
                    return None;
                }
            }
            QosClass::Control => ServicePhase::Control,
            QosClass::BestEffort => ServicePhase::BestEffort,
        },
    };
    let priority = match (phase, view.kind) {
        (ServicePhase::VbrExcess, _) => {
            f64::from(conn.dynamic_priority) * 1e6 - f64::from(conn.id.raw() % 1_000_000u32)
        }
        (_, ArbiterKind::BiasedPriority) => biased_priority(delay, conn.interarrival_cycles),
        (_, ArbiterKind::Perfect | ArbiterKind::OldestFirst) => delay,
        (_, ArbiterKind::FixedPriority) => conn.fixed_priority,
        (_, ArbiterKind::RoundRobin) => -(((vc_idx + vcs - view.rr_pointer % vcs) % vcs) as f64),
        (_, ArbiterKind::Autonet { .. } | ArbiterKind::Islip { .. }) => 0.0,
    };
    let output = conn.output_vc.port;
    Some(Candidate { input: view.port, vc, output, conn: conn.id, phase, priority })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::ConnectionRequest;
    use crate::ids::ConnRef;
    use crate::flit::{Flit, FlitKind};
    use mmr_sim::Bandwidth;

    static ALL_OPEN: [bool; 64] = [true; 64];

    struct Fixture {
        vcm: VirtualChannelMemory,
        credits: StatusBits,
        cbr_serviced: StatusBits,
        vbr_serviced: StatusBits,
        conns: ConnectionTable,
        classes: ClassMasks,
        records: VcMap<VcSched>,
    }

    impl Fixture {
        fn new(vcs: usize) -> Self {
            Fixture {
                vcm: VirtualChannelMemory::new(vcs, 4, 8),
                credits: StatusBits::zeros(vcs),
                cbr_serviced: StatusBits::zeros(vcs),
                vbr_serviced: StatusBits::zeros(vcs),
                conns: ConnectionTable::default(),
                classes: ClassMasks::new(vcs),
                records: VcMap::from_fn(vcs, |_| VcSched::IDLE),
            }
        }

        /// Adds a CBR connection on `vc` with a head flit queued since
        /// `ready` and the given inter-arrival period.
        fn add_cbr(&mut self, vc: u16, interarrival: f64, fixed: f64, ready: u64, out: u8) -> ConnRef {
            let id = self.conns.next_id();
            let conn = self.conns.insert(ConnState {
                id,
                input_vc: VcRef::new(0, vc),
                output_vc: VcRef::new(out, vc),
                class: QosClass::Cbr { rate: Bandwidth::from_mbps(10.0) },
                interarrival_cycles: interarrival,
                fixed_priority: fixed,
                allocated_cycles_per_round: 10.0,
                serviced_this_round: 0,
                vbr_permanent_cycles: 0.0,
                vbr_peak_cycles: 0.0,
                dynamic_priority: 0,
                flits_forwarded: 0,
                flits_injected: 0,
                tag: 0,
            });
            self.vcm
                .push(VcIndex(vc), Flit::data(id, 0, Cycles(ready)), Cycles(ready))
                .expect("room");
            self.classes.set(vc.into(), QosClass::Cbr { rate: Bandwidth::from_mbps(10.0) });
            self.credits.set(vc.into(), true);
            conn
        }

        /// The view under `kind`, with every mapped VC's record written for
        /// that arbiter first, as the router's `open` would have.
        fn view(&mut self, kind: ArbiterKind, max: usize, now: u64) -> LinkSchedView<'_> {
            for c in self.conns.iter() {
                *self.records.get_mut(c.input_vc.vc) = VcSched::of(kind, c);
            }
            LinkSchedView {
                port: PortId(0),
                vcm: &self.vcm,
                credits: &self.credits,
                cbr_serviced: &self.cbr_serviced,
                vbr_serviced: &self.vbr_serviced,
                conns: &self.conns,
                records: &self.records,
                kind,
                max_candidates: max,
                policy: CandidatePolicy::PrioritySorted,
                classes: &self.classes,
                guaranteed_open: &ALL_OPEN,
                rr_pointer: 0,
                now: Cycles(now),
            }
        }
    }

    #[test]
    fn a_vc_record_is_sixteen_bytes() {
        // A select reads one per visited VC, so it stays one quarter of a
        // cache line (the accounted footprint counts 16 bytes a VC either
        // way, `footprint.rs`).
        assert_eq!(std::mem::size_of::<VcSched>(), 16);
    }

    #[test]
    fn empty_port_offers_nothing() {
        let mut f = Fixture::new(8);
        let out = select_candidates(&f.view(ArbiterKind::BiasedPriority, 4, 10));
        assert!(out.candidates.is_empty());
        assert_eq!(out.next_pointer, 0);
    }

    #[test]
    fn biased_proposal_order_favours_fast_connections() {
        let mut f = Fixture::new(8);
        // Both waiting since cycle 0; vc 1 is 10x faster.
        f.add_cbr(0, 1000.0, 0.9, 0, 1);
        f.add_cbr(1, 100.0, 0.1, 0, 2);
        let out = select_candidates(&f.view(ArbiterKind::BiasedPriority, 4, 50));
        assert_eq!(out.candidates.len(), 2);
        assert_eq!(out.candidates[0].vc, VcIndex(1), "faster connection ages faster");
        assert!(out.candidates[0].priority > out.candidates[1].priority);
    }

    #[test]
    fn fixed_proposal_order_follows_static_priority() {
        let mut f = Fixture::new(8);
        f.add_cbr(0, 1000.0, 0.9, 0, 1);
        f.add_cbr(1, 100.0, 0.1, 0, 2);
        let out = select_candidates(&f.view(ArbiterKind::FixedPriority, 4, 50));
        assert_eq!(out.candidates[0].vc, VcIndex(0), "static priority ignores waiting time");
    }

    #[test]
    fn slow_connections_are_not_crowded_out_of_candidacy() {
        // Under the rotating-scan policy even a near-zero-priority VC
        // becomes a candidate when C covers the eligible set — the bias only
        // matters for conflicts.
        let mut f = Fixture::new(8);
        f.add_cbr(0, 1e6, 0.0, 0, 1); // extremely slow connection
        for vc in 1..4 {
            f.add_cbr(vc, 10.0, 0.5, 40, vc as u8 + 1); // fast, aged
        }
        let mut view = f.view(ArbiterKind::BiasedPriority, 4, 50);
        view.policy = CandidatePolicy::RotatingScan;
        let out = select_candidates(&view);
        assert_eq!(out.candidates.len(), 4);
        assert!(
            out.candidates.iter().any(|c| c.vc == VcIndex(0)),
            "slow VC is among the candidates"
        );
        assert_eq!(out.candidates.last().map(|c| c.vc), Some(VcIndex(0)), "but proposed last");
    }

    #[test]
    fn candidate_cap_is_respected() {
        let mut f = Fixture::new(16);
        // Distinct outputs: candidates are de-duplicated per output.
        for vc in 0..10 {
            f.add_cbr(vc, 100.0, f64::from(vc) / 10.0, 0, vc as u8);
        }
        for c in [1usize, 2, 4, 8] {
            assert_eq!(
                select_candidates(&f.view(ArbiterKind::BiasedPriority, c, 5)).candidates.len(),
                c
            );
        }
    }

    #[test]
    fn duplicate_outputs_are_deduplicated() {
        let mut f = Fixture::new(8);
        // Three eligible VCs all bound for output 1: one candidate suffices.
        for vc in 0..3 {
            f.add_cbr(vc, 100.0, 0.5, 0, 1);
        }
        let out = select_candidates(&f.view(ArbiterKind::BiasedPriority, 4, 5));
        assert_eq!(out.candidates.len(), 1);
    }

    #[test]
    fn rotation_pointer_advances_fairly() {
        let mut f = Fixture::new(8);
        for vc in 0..4 {
            f.add_cbr(vc, 100.0, 0.5, 0, vc as u8);
        }
        // C = 2 from pointer 0 selects VCs 0,1 and moves the pointer to 2.
        let mut view = f.view(ArbiterKind::BiasedPriority, 2, 5);
        view.policy = CandidatePolicy::RotatingScan;
        let out = select_candidates(&view);
        let picked: Vec<u16> = out.candidates.iter().map(|c| c.vc.0).collect();
        assert!(picked.contains(&0) && picked.contains(&1), "{picked:?}");
        assert_eq!(out.next_pointer, 2);
        // Next cycle from pointer 2 selects VCs 2,3.
        view.rr_pointer = out.next_pointer;
        let out = select_candidates(&view);
        let picked: Vec<u16> = out.candidates.iter().map(|c| c.vc.0).collect();
        assert!(picked.contains(&2) && picked.contains(&3), "{picked:?}");
        assert_eq!(out.next_pointer, 4);
    }

    #[test]
    fn missing_credits_exclude_vc() {
        let mut f = Fixture::new(8);
        f.add_cbr(0, 100.0, 0.5, 0, 1);
        f.credits.set(0, false);
        assert!(select_candidates(&f.view(ArbiterKind::BiasedPriority, 4, 5)).candidates.is_empty());
    }

    #[test]
    fn exhausted_cbr_quota_excludes_vc() {
        let mut f = Fixture::new(8);
        let conn = f.add_cbr(0, 100.0, 0.5, 0, 1);
        // What the router does when the quota runs out: count the round
        // and latch the serviced bit, which is what the scheduler reads.
        f.conns.get_mut(conn).expect("present").serviced_this_round = 10;
        f.cbr_serviced.set(0, true);
        assert!(select_candidates(&f.view(ArbiterKind::BiasedPriority, 4, 5)).candidates.is_empty());
    }

    #[test]
    fn round_robin_orders_from_pointer() {
        let mut f = Fixture::new(8);
        f.add_cbr(1, 100.0, 0.5, 0, 1);
        f.add_cbr(5, 100.0, 0.5, 0, 2);
        let mut view = f.view(ArbiterKind::RoundRobin, 4, 5);
        view.rr_pointer = 4;
        let out = select_candidates(&view);
        assert_eq!(out.candidates[0].vc, VcIndex(5), "vc 5 is nearest at/after pointer 4");
        assert_eq!(out.candidates[1].vc, VcIndex(1));
    }

    #[test]
    fn control_phase_outranks_streams() {
        let mut f = Fixture::new(8);
        f.add_cbr(0, 10.0, 0.9, 0, 1); // aged fast stream
        // A buffered control packet on vc 3 bound for a different output.
        let id = f.conns.next_id();
        f.conns.insert(ConnState {
            id,
            input_vc: VcRef::new(0, 3),
            output_vc: VcRef::new(2, 3),
            class: QosClass::Control,
            interarrival_cycles: f64::INFINITY,
            fixed_priority: 0.0,
            allocated_cycles_per_round: 0.0,
            serviced_this_round: 0,
            vbr_permanent_cycles: 0.0,
            vbr_peak_cycles: 0.0,
            dynamic_priority: 0,
            flits_forwarded: 0,
            flits_injected: 0,
            tag: 0,
        });
        f.classes.set(3, QosClass::Control);
        f.vcm
            .push(
                VcIndex(3),
                Flit::new(id, FlitKind::Control, 0, Cycles(50)),
                Cycles(50),
            )
            .expect("room");
        f.credits.set(3, true);
        let out = select_candidates(&f.view(ArbiterKind::BiasedPriority, 4, 60));
        assert_eq!(out.candidates[0].phase, ServicePhase::Control);
        assert_eq!(out.candidates[0].vc, VcIndex(3), "control proposed before data");
    }

    #[test]
    fn vbr_phases_split_on_quota() {
        let mut f = Fixture::new(8);
        let id = f.conns.next_id();
        let conn = f.conns.insert(ConnState {
            id,
            input_vc: VcRef::new(0, 3),
            output_vc: VcRef::new(1, 3),
            class: QosClass::Vbr {
                permanent: Bandwidth::from_mbps(2.0),
                peak: Bandwidth::from_mbps(8.0),
                priority: 5,
            },
            interarrival_cycles: 200.0,
            fixed_priority: 0.5,
            allocated_cycles_per_round: 2.0,
            serviced_this_round: 0,
            vbr_permanent_cycles: 2.0,
            vbr_peak_cycles: 8.0,
            dynamic_priority: 5,
            flits_forwarded: 0,
            flits_injected: 0,
            tag: 0,
        });
        f.classes.set(
            3,
            QosClass::Vbr {
                permanent: Bandwidth::from_mbps(2.0),
                peak: Bandwidth::from_mbps(8.0),
                priority: 5,
            },
        );
        f.vcm.push(VcIndex(3), Flit::data(id, 0, Cycles(0)), Cycles(0)).expect("room");
        f.credits.set(3, true);
        let out = select_candidates(&f.view(ArbiterKind::BiasedPriority, 4, 5));
        assert_eq!(out.candidates[0].phase, ServicePhase::VbrPermanent);
        // Past the permanent quota the same VC drops to the excess phase.
        f.conns.get_mut(conn).expect("present").serviced_this_round = 2;
        let out = select_candidates(&f.view(ArbiterKind::BiasedPriority, 4, 5));
        assert_eq!(out.candidates[0].phase, ServicePhase::VbrExcess);
        // Past the peak quota it disappears.
        f.conns.get_mut(conn).expect("present").serviced_this_round = 8;
        assert!(select_candidates(&f.view(ArbiterKind::BiasedPriority, 4, 5)).candidates.is_empty());
    }

    #[test]
    fn request_type_is_plain_data() {
        // ConnectionRequest is constructible by examples without builders.
        let r = ConnectionRequest {
            input: PortId(0),
            output: PortId(1),
            class: QosClass::BestEffort,
        };
        assert_eq!(r.output, PortId(1));
    }
}
