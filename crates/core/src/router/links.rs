//! The per-port units of Figure 1: an [`InputLink`] (virtual channel memory,
//! status bit vectors, link scheduler) and an [`OutputLink`] (bandwidth
//! allocation registers, credits), each with the [`Lease`] admission
//! reserves from.
//!
//! [`InputLink`]'s bit vectors are private to this file, so every status
//! bit and class mask has exactly one writer and "bit ⇔ the fact it names"
//! is decided here ([`OutputLink`] keeps no condition among its fields and
//! is plain data):
//! `FlitsAvailable` ⇔ the VC's queue is non-empty ([`InputLink::store`] /
//! [`InputLink::fetch`] / [`InputLink::flush`]), `ConnectionActive` and the
//! class mask ⇔ a connection is mapped ([`InputLink::open`] /
//! [`InputLink::close`]), `CreditsAvailable` follows the mapped output VC's
//! credit count, and the serviced banks latch quota exhaustion until
//! [`InputLink::new_round`]. The per-VC [`VcSched`] records copy their
//! connection's state at [`InputLink::open`] and [`InputLink::rekey`].

use std::mem::size_of;

use mmr_bitvec::{Condition, StatusBits, StatusMatrix};
use mmr_sim::Cycles;

use super::config::RouterConfig;
use crate::arbiter::Candidate;
use crate::bandwidth::{Allocation, LinkBandwidthBook};
use crate::conn::{ConnectionTable, QosClass};
use crate::flit::Flit;
use crate::ids::{PortId, VcIndex};
use crate::linksched::{ClassMasks, LinkSchedView, LinkScheduler, VcSched};
use crate::table::VcMap;
use crate::vcm::{VcmError, VirtualChannelMemory};

/// What admission reserves from on one direction of a physical link: the
/// free virtual channels and the §4.2 allocation registers.
#[derive(Debug, Clone)]
pub(super) struct Lease {
    /// Free VC stack, descending, so allocation hands out low indices first.
    free_vcs: Vec<VcIndex>,
    /// The allocation registers.
    pub(super) book: LinkBandwidthBook,
}

impl Lease {
    fn new(vcs: u16, book: LinkBandwidthBook) -> Self {
        Lease { free_vcs: (0..vcs).rev().map(VcIndex).collect(), book }
    }

    /// Takes a free VC: the `pinned` one (`None` when it is taken), or else
    /// the lowest free index.
    pub(super) fn take_vc(&mut self, pinned: Option<VcIndex>) -> Option<VcIndex> {
        match pinned {
            Some(vc) => {
                let pos = self.free_vcs.iter().position(|&v| v == vc)?;
                Some(self.free_vcs.swap_remove(pos))
            }
            None => self.free_vcs.pop(),
        }
    }

    /// Puts a VC back without touching the registers (setup rollback).
    pub(super) fn return_vc(&mut self, vc: VcIndex) {
        // mmr-lint: allow(A-TRANS, reason="returns a VC to a free list whose capacity was reserved for every VC at construction")
        self.free_vcs.push(vc);
    }

    /// Surrenders a torn-down connection's VC and bandwidth.
    pub(super) fn release(&mut self, vc: VcIndex, alloc: Allocation) {
        self.book.release(alloc);
        self.return_vc(vc);
    }

    /// Number of unmapped VCs.
    pub(super) fn free_vcs(&self) -> usize {
        self.free_vcs.len()
    }

    fn accounted_bytes(&self) -> usize {
        self.free_vcs.capacity() * size_of::<VcIndex>()
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
    records: VcMap<VcSched>,
    sched: LinkScheduler,
    /// Where the link scheduler's rotating scan starts next cycle.
    rr_pointer: usize,
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
            records: VcMap::filled(vcs, VcSched::IDLE),
            sched: LinkScheduler::new(vcs),
            rr_pointer: 0,
            lease: Lease::new(cfg.vcs_per_port, book),
        }
    }

    pub(super) fn vcm(&self) -> &VirtualChannelMemory {
        &self.vcm
    }

    /// Maps a connection of `class` onto `vc`, with credits to send on and
    /// `record` for the link scheduler.
    pub(super) fn open(&mut self, vc: VcIndex, class: QosClass, record: VcSched) {
        self.classes.set(vc.index(), class);
        self.rekey(vc, record);
        self.status.set(Condition::ConnectionActive, vc.index(), true);
        self.status.set(Condition::CreditsAvailable, vc.index(), true);
    }

    /// Writes `vc`'s record: at [`InputLink::open`], and after a command
    /// word rescaled the connection's rate (the one later change it copies).
    pub(super) fn rekey(&mut self, vc: VcIndex, record: VcSched) {
        *self.records.get_mut(vc) = record;
    }

    /// Unmaps `vc`: drops its queued flits (returning how many) and clears
    /// every bit that described the connection. (`InputBufferFull` and
    /// `CbrServiceRequested` have no writer at all.)
    pub(super) fn close(&mut self, vc: VcIndex) -> usize {
        self.classes.clear(vc.index());
        for cond in [
            Condition::ConnectionActive,
            Condition::CreditsAvailable,
            Condition::FlitsAvailable,
            Condition::CbrBandwidthServiced,
            Condition::VbrBandwidthServiced,
        ] {
            self.status.set(cond, vc.index(), false);
        }
        self.vcm.flush(vc)
    }

    /// Queues a flit on `vc`.
    #[inline]
    pub(super) fn store(&mut self, vc: VcIndex, flit: Flit, now: Cycles) -> Result<(), VcmError> {
        // mmr-lint: allow(A-TRANS, reason="VirtualChannelMemory::push is depth-gated VCM admission, not container growth; its buffer ops are audited in vcm.rs")
        self.vcm.push(vc, flit, now)?;
        self.status.set(Condition::FlitsAvailable, vc.index(), true);
        Ok(())
    }

    /// Dequeues `vc`'s head flit with the cycles it waited at the switch
    /// and whether that emptied the VC.
    // mmr-lint: hot
    pub(super) fn fetch(&mut self, vc: VcIndex, now: Cycles) -> Option<(Flit, Cycles, bool)> {
        let (flit, delay, emptied) = self.vcm.pop_timed(vc, now)?;
        if emptied {
            self.status.set(Condition::FlitsAvailable, vc.index(), false);
        }
        Some((flit, delay, emptied))
    }

    /// Drops everything queued on `vc` (an in-band `AbortFrame`).
    pub(super) fn flush(&mut self, vc: VcIndex) {
        self.vcm.flush(vc);
        self.status.set(Condition::FlitsAvailable, vc.index(), false);
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

    /// Whether any VC holds a flit — one word-parallel test per 64 VCs.
    /// Asks the VCM's own bit vector, not the equal `FlitsAvailable` bank:
    /// the VCM's is inline in this struct, the bank a heap line away. The
    /// router asks wherever a VC of this port may have been the last to
    /// empty and keeps the answer in its `occupied` word, so nothing scans
    /// the ports with this per cycle.
    pub(super) fn has_flits(&self) -> bool {
        self.vcm.flits_available().any()
    }

    /// Link scheduling for this port: writes this cycle's candidates into
    /// `out` and advances the rotating pointer. The router calls it only for
    /// a port that holds a flit; an empty one would offer nothing and leave
    /// the pointer where it was.
    // mmr-lint: hot
    pub(super) fn select(
        &mut self,
        port: PortId,
        cfg: &RouterConfig,
        conns: &ConnectionTable,
        guaranteed_open: &[bool],
        now: Cycles,
        out: &mut Vec<Candidate>,
    ) {
        let view = LinkSchedView {
            port,
            vcm: &self.vcm,
            status: &self.status,
            conns,
            records: &self.records,
            kind: cfg.arbiter,
            max_candidates: cfg.offered_candidates(),
            policy: cfg.candidate_policy,
            classes: &self.classes,
            guaranteed_open,
            rr_pointer: self.rr_pointer,
            now,
        };
        self.rr_pointer = self.sched.select(&view, out);
    }

    /// This link's share of [`super::Router::heap_bytes`]. The inline part
    /// is the sum of the parts' sizes, not `size_of::<InputLink>()`: the
    /// figure is pinned by the benchmark digests and padding would move it.
    /// The records are accounted where the scheduler's classification memo
    /// was (same 16 bytes per VC, same table header).
    pub(super) fn accounted_bytes(&self) -> usize {
        self.vcm.heap_bytes()
            + self.status.heap_bytes()
            + self.sched.heap_bytes()
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
    /// Credits per output VC; meaningful only when credits are tracked.
    pub(super) credits: Vec<u32>,
    /// Guaranteed-class (CBR/VBR) flits serviced this round.
    pub(super) guaranteed_serviced: u32,
}

impl OutputLink {
    pub(super) fn new(cfg: &RouterConfig, book: LinkBandwidthBook) -> Self {
        OutputLink {
            lease: Lease::new(cfg.vcs_per_port, book),
            credits: vec![0; usize::from(cfg.vcs_per_port)],
            guaranteed_serviced: 0,
        }
    }

    /// This link's share of [`super::Router::heap_bytes`]; see
    /// [`InputLink::accounted_bytes`] for why it is a sum of parts.
    pub(super) fn accounted_bytes(&self) -> usize {
        self.lease.accounted_bytes()
            + self.credits.capacity() * size_of::<u32>()
            + size_of::<Vec<u32>>()
            + size_of::<u32>()
    }
}

#[cfg(test)]
impl InputLink {
    /// The bit vectors and records, for the tests that hold them to the
    /// facts they name.
    pub(super) fn bits(&self) -> (&StatusMatrix, &ClassMasks, &VcMap<VcSched>) {
        (&self.status, &self.classes, &self.records)
    }

    /// This port's selection and the eager reference's on the same view,
    /// each as (candidates, next pointer); the pointer does not move.
    pub(super) fn select_and_reference(
        &self,
        port: PortId,
        cfg: &RouterConfig,
        conns: &ConnectionTable,
        guaranteed_open: &[bool],
        now: Cycles,
    ) -> [(Vec<Candidate>, usize); 2] {
        let view = LinkSchedView {
            port,
            vcm: &self.vcm,
            status: &self.status,
            conns,
            records: &self.records,
            kind: cfg.arbiter,
            max_candidates: cfg.offered_candidates(),
            policy: cfg.candidate_policy,
            classes: &self.classes,
            guaranteed_open,
            rr_pointer: self.rr_pointer,
            now,
        };
        let (mut fast, mut eager) = (Vec::new(), Vec::new());
        let fast_next = self.sched.clone().select(&view, &mut fast);
        let eager_next = crate::linksched::reference_select(&view, &mut eager);
        [(fast, fast_next), (eager, eager_next)]
    }
}
