//! The router array and the event-driven engine's wake set.
//!
//! Owns every [`Router`] and the proof obligation that lets most of them be
//! skipped each cycle: a clear wake bit means the router was examined,
//! found quiescent, and has not been touched since. The obligation is kept
//! by construction — the only `&mut Router` this module hands out is
//! [`RouterArray::get_mut`], which wakes (DESIGN.md §9).

use mmr_bitvec::StatusBits;
use mmr_core::router::{Router, RouterConfig, StepReport, Transmitted};
use mmr_sim::{Cycles, SeededRng};

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
        }
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
    /// re-examined: this is the single wake choke point for every router
    /// mutation outside [`RouterArray::drain_awake`] itself.
    pub(super) fn get_mut(&mut self, node: NodeId) -> &mut Router {
        self.wake(node);
        &mut self.routers[node.index()]
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
    /// external event wakes it.
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
            // last stepped; `step_into` accounts for the current one.
            let owed = now.count().saturating_sub(self.idle_from[n]);
            if owed > 0 {
                self.routers[n].note_idle_cycles(owed);
            }
            self.idle_from[n] = now.count() + 1;
            self.routers[n].step_into(now, &mut rep);
            self.awake.set(n, true);
            visit(self, NodeId(n as u16), &rep.transmitted);
        }
        awake.clear();
        self.awake_scratch = awake;
        self.step_scratch = rep;
    }
}
