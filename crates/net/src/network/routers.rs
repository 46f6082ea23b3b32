//! The router array and the event-driven engine's wake set.
//!
//! Owns every [`Router`] and the proof obligation that lets most of them be
//! skipped each cycle: a clear wake bit means the router was examined,
//! found quiescent, and has not been touched since. The obligation is kept
//! by construction — the only `&mut Router` this module hands out is
//! [`RouterArray::get_mut`] and its narrower forms, which wake
//! (DESIGN.md §9). The same choke point is the invariant auditor's dirty
//! set: while an auditor is armed, every hand-out also sets the
//! [`AuditMarks`] bits saying what the next audit pass must look at
//! (DESIGN.md §6c).

use mmr_bitvec::StatusBits;
use mmr_core::conn::ConnectionRequest;
use mmr_core::ids::{ConnRef, VcIndex, VcRef};
use mmr_core::router::{EstablishError, Router, RouterConfig, StepReport, Transmitted};
use mmr_sim::{Cycles, SeededRng};

use super::audit_pass::AuditMarks;
use crate::topology::{NodeId, Topology};

#[derive(Debug)]
pub(super) struct RouterArray {
    routers: Vec<Router>,
    /// Bit *n* set means router *n* must be examined on the next step.
    awake: StatusBits,
    /// Scratch for draining the wake mask (capacity persists across cycles).
    awake_scratch: Vec<usize>,
    /// First cycle not yet settled into router *n*'s cycle counter; the
    /// cycles a sleeping router is skipped over are accounted lazily when
    /// it next wakes ([`Router::note_idle_cycles`]).
    idle_from: Vec<u64>,
    /// Step every router every cycle, ignoring the wake mask — the dense
    /// reference engine for differential testing.
    dense: bool,
    /// Reusable router step report (capacity persists across cycles).
    step_scratch: StepReport,
    /// The auditor's dirty set; `None` while no auditor is armed, which
    /// costs the unaudited engine one predictable branch per hand-out.
    marks: Option<AuditMarks>,
}

impl RouterArray {
    /// One router per topology node: `cfg` with the port count and credit
    /// tracking forced (links are real here) and per-node seeds derived
    /// from a fixed stream.
    pub(super) fn new(topology: &Topology, cfg: &RouterConfig) -> Self {
        let mut seed_rng = SeededRng::new(0x4E45_5457 ^ 0x1999);
        let routers: Vec<Router> = (0..topology.nodes())
            .map(|n| {
                cfg.clone()
                    .ports(topology.ports_per_node())
                    .track_output_credits(true)
                    .seed(seed_rng.next_u64() ^ n as u64)
                    .build()
            })
            .collect();
        let nodes = routers.len();
        RouterArray {
            routers,
            // Every router starts awake; each goes to sleep the first time
            // it is examined and found quiescent.
            awake: StatusBits::ones(nodes),
            awake_scratch: Vec::with_capacity(nodes),
            idle_from: vec![0; nodes],
            dense: false,
            step_scratch: StepReport::default(),
            marks: None,
        }
    }

    /// Starts recording [`AuditMarks`] (an auditor was armed). The first
    /// audit pass sweeps, so nothing before this call needs a mark.
    pub(super) fn arm_audit(&mut self) {
        let dims = self.routers.first().map(Router::config);
        let (ports, vcs) = dims.map_or((0, 0), |d| (d.ports(), d.vcs_per_port()));
        self.marks = Some(AuditMarks::new(self.routers.len(), ports, vcs));
    }

    /// Hands the marks to an audit pass, which returns them emptied through
    /// [`RouterArray::restore_marks`] so their buffers keep their capacity.
    pub(super) fn take_marks(&mut self) -> Option<AuditMarks> {
        self.marks.take()
    }

    pub(super) fn restore_marks(&mut self, marks: AuditMarks) {
        self.marks = Some(marks);
    }

    #[cfg(test)]
    pub(super) fn marks(&self) -> &AuditMarks {
        self.marks.as_ref().expect("an auditor is armed")
    }

    /// The wake mask: between steps, every router that holds a flit is in it.
    pub(super) fn awake(&self) -> &StatusBits {
        &self.awake
    }

    pub(super) fn len(&self) -> usize {
        self.routers.len()
    }

    pub(super) fn iter(&self) -> impl Iterator<Item = &Router> {
        self.routers.iter()
    }

    pub(super) fn get(&self, node: NodeId) -> &Router {
        &self.routers[node.index()]
    }

    /// Mutable access may change anything, so the router must be
    /// re-examined — stepped again, and audited whole: this is the wake
    /// choke point for every router mutation outside
    /// [`RouterArray::drain_awake`] itself, and conservative by default.
    /// The forms below are for the sites that can name the one connection
    /// they touch.
    pub(super) fn get_mut(&mut self, node: NodeId) -> &mut Router {
        self.wake(node);
        if let Some(marks) = &mut self.marks {
            marks.whole(node);
        }
        &mut self.routers[node.index()]
    }

    /// [`RouterArray::get_mut`] for a caller that will touch `conn` and
    /// nothing else (a flit injected at its NI or arriving off its wire).
    #[inline]
    pub(super) fn get_mut_for(&mut self, node: NodeId, conn: ConnRef) -> &mut Router {
        self.wake(node);
        self.mark(node, conn);
        &mut self.routers[node.index()]
    }

    /// Has the next audit pass visit `conn` on `node` without touching the
    /// router.
    #[inline]
    fn mark(&mut self, node: NodeId, conn: ConnRef) {
        if let Some(marks) = &mut self.marks {
            marks.conn(node, conn.vc);
        }
    }

    /// Has the next audit pass check the credit equation of the hop pair
    /// whose downstream end is input VC `vc` of `node`: a flit crossed it,
    /// or it just came into being.
    #[inline]
    pub(super) fn mark_pair(&mut self, node: NodeId, vc: VcRef) {
        if let Some(marks) = &mut self.marks {
            marks.pair(node, vc);
        }
    }

    /// [`RouterArray::mark_pair`] for the pairs a flit leaving a hop on
    /// `node` is an end of: the one `behind` it (a slot freed, its
    /// downstream end on `node`) and the one `ahead` (a credit spent, its
    /// downstream end on the peer), each when there is one.
    #[inline]
    pub(super) fn mark_pairs(
        &mut self,
        node: NodeId,
        behind: Option<VcRef>,
        ahead: Option<(NodeId, VcRef)>,
    ) {
        if let Some(marks) = &mut self.marks {
            behind.into_iter().for_each(|vc| marks.pair(node, vc));
            ahead.into_iter().for_each(|(peer, vc)| marks.pair(peer, vc));
        }
    }

    /// Writes `conn`'s owner tag on `node` ([`Router::set_tag`]). Neither
    /// wakes nor marks: no stage and no router law reads a tag.
    pub(super) fn tag(&mut self, node: NodeId, conn: ConnRef, tag: u64) {
        self.routers[node.index()].set_tag(conn, tag);
    }

    /// [`Router::establish_pinned`] on `node`: what it changes is the two
    /// ports' free-VC stacks and books, and the connection it creates.
    pub(super) fn establish(
        &mut self,
        node: NodeId,
        req: ConnectionRequest,
        pinned_input: Option<VcIndex>,
    ) -> Result<ConnRef, EstablishError> {
        self.wake(node);
        let granted = self.routers[node.index()].establish_pinned(req, pinned_input);
        if let Some(marks) = &mut self.marks {
            marks.ports(node);
        }
        if let Ok(conn) = granted {
            self.mark(node, conn);
        }
        granted
    }

    /// [`Router::teardown`] on `node`: the mirror of
    /// [`RouterArray::establish`].
    pub(super) fn teardown(
        &mut self,
        node: NodeId,
        conn: ConnRef,
    ) -> Result<usize, ConnRef> {
        self.wake(node);
        if let Some(marks) = &mut self.marks {
            marks.ports(node);
        }
        self.mark(node, conn);
        self.routers[node.index()].teardown(conn)
    }

    /// Returns one credit onto `output_vc` of `node`; what it can change is
    /// the connection owning that VC, if one does.
    #[inline]
    pub(super) fn return_credit(&mut self, node: NodeId, output_vc: VcRef) {
        self.wake(node);
        let router = &mut self.routers[node.index()];
        if let Some(marks) = &mut self.marks {
            if let Some(owner) = router.connection_by_output_vc(output_vc) {
                marks.conn(node, owner.vc);
            }
        }
        router.return_credit(output_vc);
    }

    /// Marks a router for examination on the next step without touching it
    /// (a fault or repair next door changed its world). Waking a router
    /// that stays quiescent is harmless — it costs one examination that
    /// puts it straight back to sleep.
    #[inline]
    pub(super) fn wake(&mut self, node: NodeId) {
        self.awake.set(node.index(), true);
    }

    /// Selects the stepping engine; switching wakes every router so no
    /// pending idle bookkeeping is stranded.
    pub(super) fn set_dense(&mut self, dense: bool) {
        self.dense = dense;
        self.awake.set_all();
    }

    /// Steps the routers that need it and hands each one's transmitted
    /// flits to `visit` (with the array, so the visitor can return credits
    /// upstream). Dense mode examines all of them, the event-driven engine
    /// only the awake set — drained in ascending node order, matching the
    /// dense loop's visit order. The drain clears the mask; each router
    /// that is actually stepped re-arms its own bit (it may hold work for
    /// the next cycle), while one found quiescent stays dark until an
    /// external event wakes it. A settled router (DESIGN.md §9 "Settled")
    /// stays awake but is not stepped: the event-driven engine counts its
    /// cycle here, as the dense one's `step_into` does, and it transmits
    /// nothing to mark or visit.
    pub(super) fn drain_awake(
        &mut self,
        now: Cycles,
        mut visit: impl FnMut(&mut Self, NodeId, &[Transmitted]),
    ) {
        if self.dense {
            self.awake.set_all();
        }
        let mut awake = std::mem::take(&mut self.awake_scratch);
        self.awake.drain_set_into(&mut awake);
        let mut rep = std::mem::take(&mut self.step_scratch);
        for &n in &awake {
            if !self.dense && self.routers[n].is_quiescent() {
                // Provably a no-op cycle: leave the router asleep, its
                // skipped cycles unsettled until something wakes it.
                continue;
            }
            // Settle the cycles this router slept through since it was
            // last stepped; the settled count or `step_into` accounts for
            // the current one.
            let owed = now.count().saturating_sub(self.idle_from[n]);
            if owed > 0 {
                self.routers[n].note_idle_cycles(owed);
            }
            self.idle_from[n] = now.count() + 1;
            self.awake.set(n, true);
            if !self.dense && self.routers[n].count_settled_cycle(now) {
                continue;
            }
            #[cfg(test)]
            DRAIN_STEPS.with(|s| s.set(s.get() + 1));
            self.routers[n].step_into(now, &mut rep);
            if let Some(marks) = &mut self.marks {
                for t in &rep.transmitted {
                    marks.conn(NodeId(n as u16), t.input_vc);
                }
            }
            visit(self, NodeId(n as u16), &rep.transmitted);
        }
        awake.clear();
        self.awake_scratch = awake;
        self.step_scratch = rep;
    }
}

#[cfg(test)]
thread_local! {
    /// [`Router::step_into`] calls made by [`RouterArray::drain_awake`] on
    /// this thread — the counter behind the work gate that a settled router
    /// is counted, not stepped.
    pub(super) static DRAIN_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}
