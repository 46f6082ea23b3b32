//! The per-port units of Figure 1: an [`InputLink`] (virtual channel memory,
//! status bit vectors, link scheduler) and an [`OutputLink`] (bandwidth
//! allocation registers, credits), each with the [`Lease`] admission
//! reserves from.
//!
//! [`InputLink`]'s bit vectors are private to this file, so every status
//! bit and class mask has exactly one writer and "bit ⇔ the fact it names"
//! is decided here ([`OutputLink`] keeps no condition among its fields and
//! is plain data): the class mask ⇔ a connection is mapped
//! ([`InputLink::open`] / [`InputLink::close`]), `CreditsAvailable` follows
//! the mapped output VC's credit count (so it is set on mapped VCs only),
//! and the serviced banks latch quota exhaustion until
//! [`InputLink::new_round`]. "The VC holds a flit" has one copy, the VCM's
//! own `flits_available`, which the router writes through the VCM; the
//! `FlitsAvailable` and `ConnectionActive` banks, like `InputBufferFull`
//! and `CbrServiceRequested`, have no writer. The per-VC [`VcSched`]
//! records copy their connection's state at [`InputLink::open`] and
//! [`InputLink::rekey`].
//!
//! A port costs what it carries: its three per-VC tables — the records,
//! the output credits and each [`Lease`]'s free-VC stack — are allocated
//! whole at the first connection that needs them ([`InputLink::open`], the
//! credit write in `establish_pinned`, the first [`Lease::take_vc`]) and
//! read as their fill value until then. The port's last teardown gives the
//! records and credits back, and a free-VC stack goes back once it is
//! pristine again. The data path (select, transmit, a returned credit, a
//! rekey) only reaches ports a connection is mapped onto and never
//! allocates one. The footprint accounts them eagerly (DESIGN.md §9).

use std::mem::size_of;

use mmr_bitvec::{Condition, StatusBits, StatusMatrix};
use mmr_sim::Cycles;

use super::config::RouterConfig;
use crate::bandwidth::{Allocation, LinkBandwidthBook};
use crate::conn::{ConnectionTable, QosClass};
use crate::ids::{PortId, VcIndex};
use crate::linksched::{ClassMasks, LinkSchedView, LinkScheduler, VcSched};
use crate::table::{LazyVcMap, VcMap};
use crate::vcm::VirtualChannelMemory;

/// What admission reserves from on one direction of a physical link: the
/// free virtual channels and the §4.2 allocation registers.
#[derive(Debug, Clone)]
pub(super) struct Lease {
    /// Free VC stack, its top at `free - 1`, descending when allocated so
    /// allocation hands out low indices first; `None` while pristine (every
    /// VC free, in that order), until the first [`Lease::take_vc`].
    stack: Option<VcMap<VcIndex>>,
    /// Number of free VCs: the stack's height.
    free: u16,
    /// The link's VC count.
    vcs: u16,
    /// The allocation registers.
    pub(super) book: LinkBandwidthBook,
}

impl Lease {
    fn new(vcs: u16, book: LinkBandwidthBook) -> Self {
        Lease { stack: None, free: vcs, vcs, book }
    }

    /// Takes a free VC: the `pinned` one (`None` when it is taken), or else
    /// the top of the stack — the lowest free index until VCs come back.
    /// The first take allocates the stack.
    pub(super) fn take_vc(&mut self, pinned: Option<VcIndex>) -> Option<VcIndex> {
        let vcs = usize::from(self.vcs);
        let descending = |k| VcIndex((vcs - 1 - k) as u16);
        let stack = self.stack.get_or_insert_with(|| VcMap::from_fn(vcs, descending));
        let top = usize::from(self.free);
        let pos = match pinned {
            // Free VCs are distinct, so a search from the top finds the slot
            // a search from the bottom would, sooner for the low indices
            // an upstream router hands out first.
            Some(vc) => stack.iter().take(top).rposition(|&v| v == vc)?,
            None => top.checked_sub(1)?,
        };
        // Swap-remove: the top fills the hole.
        let vc = *stack.at(pos);
        *stack.at_mut(pos) = *stack.at(top - 1);
        self.free -= 1;
        Some(vc)
    }

    /// Puts a taken VC back on top without touching the registers (setup
    /// rollback). When that leaves the stack pristine again — every VC
    /// back, in the order of a stack never taken from — the stack is given
    /// back, so it reads as the pristine stack it equals.
    pub(super) fn return_vc(&mut self, vc: VcIndex) {
        debug_assert!(self.stack.is_some() && self.free < self.vcs, "{vc} was not taken");
        if let Some(stack) = &mut self.stack {
            *stack.at_mut(usize::from(self.free)) = vc;
            self.free += 1;
            let vcs = usize::from(self.vcs);
            let in_place = |(k, v): (usize, &VcIndex)| v.index() == vcs - 1 - k;
            if self.free == self.vcs && stack.iter().enumerate().all(in_place) {
                self.stack = None;
            }
        }
    }

    /// Surrenders a torn-down connection's VC and bandwidth.
    pub(super) fn release(&mut self, vc: VcIndex, alloc: Allocation) {
        self.book.release(alloc);
        self.return_vc(vc);
    }

    /// Number of unmapped VCs.
    pub(super) fn free_vcs(&self) -> usize {
        usize::from(self.free)
    }

    /// Whether every VC is free: the link carries no connection.
    fn is_idle(&self) -> bool {
        self.free == self.vcs
    }

    /// Whether the free stack has been allocated.
    fn holds_table(&self) -> bool {
        self.stack.is_some()
    }

    /// The share of the eager `Vec` stack this replaced, allocated or not.
    fn accounted_bytes(&self) -> usize {
        usize::from(self.vcs) * size_of::<VcIndex>()
            + size_of::<LinkBandwidthBook>()
            + size_of::<Vec<VcIndex>>()
    }
}

/// One input link: its VCM, the status bit vectors and class masks over
/// the VCM's channels, and the link scheduler that reads them (§3.2, §4.4).
#[derive(Debug, Clone)]
pub(super) struct InputLink {
    vcm: VirtualChannelMemory,
    status: StatusMatrix,
    classes: ClassMasks,
    /// What the link scheduler reads of each mapped VC's connection.
    records: LazyVcMap<VcSched>,
    /// Where the link scheduler's rotating scan starts next cycle.
    pub(super) rr_pointer: usize,
    /// The arriving side is policed too: a connection consumes bandwidth on
    /// the link it arrives on (§4.2 reserves on every link of the path).
    pub(super) lease: Lease,
}

impl InputLink {
    pub(super) fn new(cfg: &RouterConfig, book: LinkBandwidthBook) -> Self {
        let vcs = usize::from(cfg.vcs_per_port);
        InputLink {
            vcm: VirtualChannelMemory::new(vcs, cfg.vc_depth, cfg.vcm_banks),
            status: StatusMatrix::new(vcs),
            classes: ClassMasks::new(vcs),
            records: LazyVcMap::new(cfg.vcs_per_port),
            rr_pointer: 0,
            lease: Lease::new(cfg.vcs_per_port, book),
        }
    }

    pub(super) fn vcm(&self) -> &VirtualChannelMemory {
        &self.vcm
    }

    /// The VCM, for the router's pushes, pops and flushes: it keeps the
    /// only copy of which VCs hold a flit, so nothing here mirrors them.
    pub(super) fn vcm_mut(&mut self) -> &mut VirtualChannelMemory {
        &mut self.vcm
    }

    /// Maps a connection of `class` onto `vc`, with credits to send on and
    /// `record` for the link scheduler. The port's first connection
    /// allocates its record table.
    pub(super) fn open(&mut self, vc: VcIndex, class: QosClass, record: VcSched) {
        self.classes.set(vc.index(), class);
        *self.records.slot_mut(vc) = record;
        self.status.set(Condition::CreditsAvailable, vc.index(), true);
    }

    /// Rewrites mapped `vc`'s record after a command word rescaled the
    /// connection's rate (the one later change it copies).
    pub(super) fn rekey(&mut self, vc: VcIndex, record: VcSched) {
        if let Some(slot) = self.records.get_mut(vc) {
            *slot = record;
        }
    }

    /// Unmaps `vc`: drops its queued flits (returning how many) and clears
    /// every bit that described the connection.
    pub(super) fn close(&mut self, vc: VcIndex) -> usize {
        self.classes.clear(vc.index());
        for cond in [
            Condition::CreditsAvailable,
            Condition::CbrBandwidthServiced,
            Condition::VbrBandwidthServiced,
        ] {
            self.status.set(cond, vc.index(), false);
        }
        self.vcm.flush(vc)
    }

    /// Surrenders a torn-down connection's input VC and bandwidth; the
    /// port's last connection gives its record table back too.
    pub(super) fn release(&mut self, vc: VcIndex, alloc: Allocation) {
        self.lease.release(vc, alloc);
        if self.lease.is_idle() {
            self.records.release();
        }
    }

    /// Records whether `vc`'s mapped output VC holds any credit.
    pub(super) fn set_credits_available(&mut self, vc: VcIndex, available: bool) {
        self.status.set(Condition::CreditsAvailable, vc.index(), available);
    }

    /// Latches "`vc` has used up its round" (§4.4's `CBR_Completely_Serviced`
    /// bit, and its VBR peak-quota twin): the link scheduler subtracts these
    /// banks from its scan domains instead of visiting and rejecting the
    /// same exhausted VCs every remaining cycle of the round.
    pub(super) fn latch_serviced(&mut self, vc: VcIndex, class: QosClass) {
        let bank = match class {
            QosClass::Cbr { .. } => Condition::CbrBandwidthServiced,
            QosClass::Vbr { .. } => Condition::VbrBandwidthServiced,
            QosClass::BestEffort | QosClass::Control => return,
        };
        self.status.set(bank, vc.index(), true);
    }

    /// Round boundary: every connection's quota is whole again.
    pub(super) fn new_round(&mut self) {
        self.status.clear_condition(Condition::CbrBandwidthServiced);
        self.status.clear_condition(Condition::VbrBandwidthServiced);
    }

    /// Resets the VCM's per-cycle bank budget.
    pub(super) fn begin_cycle(&mut self) {
        self.vcm.begin_cycle();
    }

    /// Whether any VC holds a flit — one word-parallel test per 64 VCs of
    /// the VCM's `flits_available`. The router asks wherever a VC of this
    /// port may have been the last to empty and keeps the answer in its
    /// `occupied` word, so nothing scans the ports with this per cycle.
    pub(super) fn has_flits(&self) -> bool {
        self.vcm.flits_available().any()
    }

    /// What link scheduling reads of this port this cycle. The router
    /// builds it only for a port that holds a flit, so the records it lends
    /// exist, and stores what the select returns in `rr_pointer`.
    // mmr-lint: hot
    #[inline]
    pub(super) fn view<'a>(
        &'a self,
        port: PortId,
        cfg: &RouterConfig,
        conns: &'a ConnectionTable,
        guaranteed_open: &'a [bool],
        now: Cycles,
    ) -> LinkSchedView<'a> {
        LinkSchedView {
            port,
            vcm: &self.vcm,
            status: &self.status,
            conns,
            records: self.records.slots(),
            kind: cfg.arbiter,
            max_candidates: cfg.offered_candidates(),
            policy: cfg.candidate_policy,
            classes: &self.classes,
            guaranteed_open,
            rr_pointer: self.rr_pointer,
            now,
        }
    }

    /// Whether any of the port's lazily allocated tables is held.
    pub(super) fn holds_tables(&self) -> bool {
        self.records.is_materialized() || self.lease.holds_table()
    }

    /// This link's share of [`super::Router::heap_bytes`]. The inline part
    /// is the sum of the parts' sizes, not `size_of::<InputLink>()`: the
    /// figure is pinned by the benchmark digests and padding would move it.
    /// The records are accounted where the scheduler's classification memo
    /// was (same 16 bytes per VC, same table header) and as if allocated,
    /// and the router's one `sched` scratch as if every port held a copy.
    pub(super) fn accounted_bytes(&self, sched: &LinkScheduler) -> usize {
        self.vcm.heap_bytes()
            + self.status.heap_bytes()
            + sched.heap_bytes()
            + self.records.heap_bytes()
            + self.classes.heap_bytes()
            + self.lease.accounted_bytes()
            + size_of::<VirtualChannelMemory>()
            + size_of::<StatusMatrix>()
            + size_of::<LinkScheduler>()
            + size_of::<VcMap<VcSched>>()
            + size_of::<ClassMasks>()
            + size_of::<usize>()
            + self.retired_classified_bytes()
    }

    /// The pinned share of the link scheduler's `classified` scratch vector,
    /// which the records made redundant: a VC-count bit vector's inline size
    /// and its heap spill, the same as `flits_available`'s.
    fn retired_classified_bytes(&self) -> usize {
        size_of::<StatusBits>() + self.vcm.flits_available().heap_bytes()
    }
}

/// One output link: the allocation registers and the credits of the VCs on
/// the downstream router's input buffer (§3.5, §4.2).
#[derive(Debug, Clone)]
pub(super) struct OutputLink {
    pub(super) lease: Lease,
    /// Credits per output VC; meaningful only when credits are tracked,
    /// and allocated at the first connection that writes one.
    pub(super) credits: LazyVcMap<u32>,
    /// Guaranteed-class (CBR/VBR) flits serviced this round.
    pub(super) guaranteed_serviced: u32,
}

impl OutputLink {
    pub(super) fn new(cfg: &RouterConfig, book: LinkBandwidthBook) -> Self {
        OutputLink {
            lease: Lease::new(cfg.vcs_per_port, book),
            credits: LazyVcMap::new(cfg.vcs_per_port),
            guaranteed_serviced: 0,
        }
    }

    /// Surrenders a torn-down connection's output VC and bandwidth; the
    /// port's last connection gives its credit table back too.
    pub(super) fn release(&mut self, vc: VcIndex, alloc: Allocation) {
        self.lease.release(vc, alloc);
        if self.lease.is_idle() {
            self.credits.release();
        }
    }

    /// Whether any of the port's lazily allocated tables is held.
    pub(super) fn holds_tables(&self) -> bool {
        self.credits.is_materialized() || self.lease.holds_table()
    }

    /// This link's share of [`super::Router::heap_bytes`]; see
    /// [`InputLink::accounted_bytes`] for why it is a sum of parts, with
    /// the credits accounted as the eager `Vec` they were.
    pub(super) fn accounted_bytes(&self) -> usize {
        self.lease.accounted_bytes()
            + self.credits.heap_bytes()
            + size_of::<Vec<u32>>()
            + size_of::<u32>()
    }
}

#[cfg(test)]
impl InputLink {
    /// The bit vectors and records, for the tests that hold them to the
    /// facts they name.
    pub(super) fn bits(&self) -> (&StatusMatrix, &ClassMasks, &LazyVcMap<VcSched>) {
        (&self.status, &self.classes, &self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::RoundConfig;

    /// The free stack as it was before it became lazy: every VC pushed,
    /// descending, at construction.
    struct EagerStack(Vec<VcIndex>);

    impl EagerStack {
        fn new(vcs: u16) -> Self {
            EagerStack((0..vcs).rev().map(VcIndex).collect())
        }

        fn take_vc(&mut self, pinned: Option<VcIndex>) -> Option<VcIndex> {
            match pinned {
                Some(vc) => {
                    let pos = self.0.iter().position(|&v| v == vc)?;
                    Some(self.0.swap_remove(pos))
                }
                None => self.0.pop(),
            }
        }
    }

    proptest::proptest! {
        /// From the pristine state, any tape of takes, pinned takes and
        /// returns hands out the same VCs in the same order, and leaves the
        /// same free count after every step, as the eager stack did; the
        /// lazy stack is held exactly while the eager one is not pristine.
        #[test]
        fn a_lazy_lease_hands_out_what_the_eager_stack_did(
            vcs in 1u16..300,
            ops in proptest::collection::vec((0u8..3, proptest::any::<u16>()), 0..200),
        ) {
            let cfg = RouterConfig::paper_default();
            let round = RoundConfig::new(usize::from(vcs), cfg.round_k);
            let book = LinkBandwidthBook::new(
                round,
                cfg.timing,
                cfg.best_effort_reserve,
                cfg.concurrency_factor,
            );
            let mut lazy = Lease::new(vcs, book);
            let mut eager = EagerStack::new(vcs);
            let pristine = EagerStack::new(vcs).0;
            proptest::prop_assert_eq!(lazy.free_vcs(), usize::from(vcs));
            proptest::prop_assert!(!lazy.holds_table());
            let mut taken: Vec<VcIndex> = Vec::new();
            for (i, &(op, x)) in ops.iter().enumerate() {
                match op {
                    0 | 1 => {
                        let pinned = (op == 1).then_some(VcIndex(x % vcs));
                        let got = lazy.take_vc(pinned);
                        proptest::prop_assert_eq!(got, eager.take_vc(pinned), "op {}", i);
                        taken.extend(got);
                    }
                    _ if !taken.is_empty() => {
                        let vc = taken.swap_remove(usize::from(x) % taken.len());
                        lazy.return_vc(vc);
                        eager.0.push(vc);
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(lazy.free_vcs(), eager.0.len(), "op {}", i);
                // Held exactly while the stack differs from a pristine one.
                proptest::prop_assert_eq!(lazy.holds_table(), eager.0 != pristine, "op {}", i);
            }
        }
    }
}
