//! Virtual channel memory (VCM).
//!
//! §3.2 of the paper: instead of discrete FIFO queues per virtual channel,
//! the MMR stores flits in "a set of interleaved RAM modules", each flit
//! low-order interleaved across banks, with flits of the same VC in adjacent
//! locations. The number of banks is chosen to balance memory access time
//! against link speed.
//!
//! Functionally the VCM behaves as a set of bounded per-VC FIFOs; the bank
//! structure determines how many flit accesses can be sustained per flit
//! cycle. [`VirtualChannelMemory`] implements the FIFO semantics, maintains
//! the `flits_available` status vector for the link scheduler, tracks the
//! head-of-queue *ready time* used by the paper's delay metric, and counts
//! bank accesses so over-committed configurations are visible
//! ([`VirtualChannelMemory::bank_conflicts`]). [`BankTimingModel`] gives the
//! analytic sustainable-bandwidth side used by the A5 ablation.
//!
//! `flits_available` is the only per-VC status vector here: the VCM keeps
//! no record of what kind its head flits are. A VC holds a single-flit
//! packet exactly when its connection's class is control or best effort,
//! which the link scheduler's class masks already say, because only
//! `Router::inject_packet` queues a packet flit.

use std::collections::VecDeque;

use mmr_bitvec::StatusBits;
use mmr_sim::{Bandwidth, Cycles};

use crate::flit::Flit;
use crate::ids::VcIndex;

/// Errors returned by VCM operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcmError {
    /// The target virtual channel's buffer is full; link-level flow control
    /// should have withheld the flit.
    BufferFull {
        /// The VC whose buffer overflowed.
        vc: VcIndex,
    },
    /// The VC index is out of range for this port.
    NoSuchVc {
        /// The offending index.
        vc: VcIndex,
    },
}

impl std::fmt::Display for VcmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VcmError::BufferFull { vc } => write!(f, "virtual channel {vc} buffer is full"),
            VcmError::NoSuchVc { vc } => write!(f, "virtual channel {vc} does not exist"),
        }
    }
}

impl std::error::Error for VcmError {}

#[derive(Debug, Clone, Default)]
struct VcQueue {
    flits: VecDeque<Flit>,
    /// Cycle at which the current head flit became ready to be transmitted
    /// through the switch (the paper's delay reference point).
    head_ready_at: Cycles,
}

/// Virtual channels per lazily-materialized queue bank: storage for a
/// bank is allocated the first time one of its VCs buffers a flit. A
/// paper-default port exposes 256 VCs but a typical connection load
/// touches a handful, so thousand-router fabrics only pay for the banks
/// they actually lease (the bytes-per-router number `mmr-bench scale` reports).
pub(crate) const QUEUE_BANK_VCS: usize = 32;

/// The virtual channel memory of one input port: `vcs` bounded FIFOs over an
/// interleaved bank array. Queue storage is materialized lazily in
/// `QUEUE_BANK_VCS`-sized chunks on first push, so an idle port costs a
/// few hundred bytes regardless of its VC count.
///
/// # Example
///
/// ```
/// use mmr_core::vcm::VirtualChannelMemory;
/// use mmr_core::flit::Flit;
/// use mmr_core::ids::{ConnectionId, VcIndex};
/// use mmr_sim::Cycles;
///
/// let mut vcm = VirtualChannelMemory::new(256, 4, 8);
/// let vc = VcIndex(17);
/// vcm.push(vc, Flit::data(ConnectionId(1), 0, Cycles(5)), Cycles(5))?;
/// assert_eq!(vcm.occupancy(vc), 1);
/// assert_eq!(vcm.flits_available().first_set(), Some(17));
/// let flit = vcm.pop(vc, Cycles(6)).expect("head present");
/// assert_eq!(flit.seq, 0);
/// # Ok::<(), mmr_core::vcm::VcmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct VirtualChannelMemory {
    /// Number of virtual channels (the logical size; storage below is
    /// lazy).
    vcs: usize,
    /// Queue storage in `QUEUE_BANK_VCS`-sized chunks; `None` until a VC
    /// of the chunk first buffers a flit. Distinct from the *timing*
    /// bank count `banks`, which models RAM-module interleaving.
    queue_banks: Vec<Option<Box<[VcQueue]>>>,
    depth: usize,
    flits_available: StatusBits,
    banks: usize,
    accesses_this_cycle: usize,
    bank_conflicts: u64,
    /// Lifetime push and pop counts, kept for the tests' conservation
    /// checks only: the flit path pays nothing for them.
    #[cfg(test)]
    totals: (u64, u64),
}

impl VirtualChannelMemory {
    /// Creates a VCM with `vcs` virtual channels of `depth` flits each,
    /// backed by `banks` interleaved RAM modules.
    ///
    /// # Panics
    ///
    /// Panics if `vcs`, `depth` or `banks` is zero.
    pub fn new(vcs: usize, depth: usize, banks: usize) -> Self {
        // mmr-lint: allow(P-PANIC, reason="construction-time config validation (documented # Panics contract), not on the flit-cycle path")
        assert!(vcs > 0, "need at least one virtual channel");
        // mmr-lint: allow(P-PANIC, reason="construction-time config validation (documented # Panics contract), not on the flit-cycle path")
        assert!(depth > 0, "virtual channel depth must be positive");
        // mmr-lint: allow(P-PANIC, reason="construction-time config validation (documented # Panics contract), not on the flit-cycle path")
        assert!(banks > 0, "need at least one memory bank");
        VirtualChannelMemory {
            vcs,
            queue_banks: vec![None; vcs.div_ceil(QUEUE_BANK_VCS)],
            depth,
            flits_available: StatusBits::zeros(vcs),
            banks,
            accesses_this_cycle: 0,
            bank_conflicts: 0,
            #[cfg(test)]
            totals: (0, 0),
        }
    }

    /// Number of virtual channels.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// The queue of `vc`, or `None` if the index is out of range *or* its
    /// bank has never been materialized (an absent bank is an empty queue).
    fn queue_ref(&self, vc: usize) -> Option<&VcQueue> {
        self.queue_banks.get(vc / QUEUE_BANK_VCS)?.as_deref()?.get(vc % QUEUE_BANK_VCS)
    }

    /// Mutable access without materializing: absent banks stay absent, so
    /// the pop/flush paths remain allocation-free.
    fn queue_mut_if_present(&mut self, vc: usize) -> Option<&mut VcQueue> {
        self.queue_banks.get_mut(vc / QUEUE_BANK_VCS)?.as_deref_mut()?.get_mut(vc % QUEUE_BANK_VCS)
    }

    /// Mutable access for the push path: materializes the bank holding `vc`
    /// on first use. Callers must have bounds-checked `vc < self.vcs`.
    fn queue_mut_materialize(&mut self, vc: usize) -> Option<&mut VcQueue> {
        let vcs = self.vcs;
        let bank = self.queue_banks.get_mut(vc / QUEUE_BANK_VCS)?;
        let slot = bank.get_or_insert_with(|| {
            let width = QUEUE_BANK_VCS.min(vcs - (vc / QUEUE_BANK_VCS) * QUEUE_BANK_VCS);
            // mmr-lint: allow(A-TRANS, reason="one-time bank materialization on first lease of any VC in the bank; never repeated for the bank's lifetime")
            vec![VcQueue::default(); width].into_boxed_slice()
        });
        slot.get_mut(vc % QUEUE_BANK_VCS)
    }

    /// Marks the start of a new flit cycle (resets the bank access budget).
    pub fn begin_cycle(&mut self) {
        self.accesses_this_cycle = 0;
    }

    fn count_access(&mut self) {
        self.accesses_this_cycle += 1;
        if self.accesses_this_cycle > self.banks {
            self.bank_conflicts += 1;
        }
    }

    /// Stores a flit arriving for `vc` at cycle `now`.
    ///
    /// If the queue was empty the flit becomes the head and is ready in the
    /// same cycle (the paper's phit buffers hide the decoding delay).
    ///
    /// # Errors
    ///
    /// [`VcmError::BufferFull`] if the VC already holds `depth` flits;
    /// [`VcmError::NoSuchVc`] if the index is out of range.
    pub fn push(&mut self, vc: VcIndex, flit: Flit, now: Cycles) -> Result<(), VcmError> {
        let depth = self.depth;
        if vc.index() >= self.vcs {
            return Err(VcmError::NoSuchVc { vc });
        }
        let q = self.queue_mut_materialize(vc.index()).ok_or(VcmError::NoSuchVc { vc })?;
        if q.flits.len() >= depth {
            return Err(VcmError::BufferFull { vc });
        }
        let becomes_head = q.flits.is_empty();
        if becomes_head {
            q.head_ready_at = now;
        }
        // mmr-lint: allow(A-TRANS, reason="bounded by the depth check above; a VC queue never grows past its construction depth")
        q.flits.push_back(flit);
        if becomes_head {
            self.flits_available.set(vc.index(), true);
        }
        #[cfg(test)]
        {
            self.totals.0 += 1;
        }
        self.count_access();
        Ok(())
    }

    /// Removes and returns the head flit of `vc`; the next flit (if any)
    /// becomes ready at `now + 1` — it can only use the next flit cycle.
    pub fn pop(&mut self, vc: VcIndex, now: Cycles) -> Option<Flit> {
        self.pop_timed(vc, now).map(|(flit, _, _)| flit)
    }

    /// [`VirtualChannelMemory::pop`] fused with the head-delay read: returns
    /// the flit, the cycles its head waited since becoming ready (the
    /// paper's per-flit switch delay), and whether the queue is now empty —
    /// one queue lookup where the transmit path would otherwise do three.
    // mmr-lint: hot
    pub fn pop_timed(&mut self, vc: VcIndex, now: Cycles) -> Option<(Flit, Cycles, bool)> {
        let q = self.queue_mut_if_present(vc.index())?;
        let flit = q.flits.pop_front()?;
        let delay = now.since(q.head_ready_at);
        let emptied = q.flits.is_empty();
        if emptied {
            self.flits_available.set(vc.index(), false);
        } else {
            q.head_ready_at = now + Cycles(1);
        }
        #[cfg(test)]
        {
            self.totals.1 += 1;
        }
        self.count_access();
        Some((flit, delay, emptied))
    }

    /// Cycle at which the head flit of `vc` became ready, if there is one.
    pub fn head_ready_at(&self, vc: VcIndex) -> Option<Cycles> {
        self.queue_ref(vc.index()).and_then(|q| (!q.flits.is_empty()).then_some(q.head_ready_at))
    }

    /// For tests: the head flit of `vc` and the cycle it became ready.
    #[doc(hidden)]
    pub fn head_with_ready(&self, vc: VcIndex) -> Option<(&Flit, Cycles)> {
        self.queue_ref(vc.index()).and_then(|q| q.flits.front().map(|f| (f, q.head_ready_at)))
    }

    /// Number of flits queued on `vc` (0 for out-of-range indices).
    pub fn occupancy(&self, vc: VcIndex) -> usize {
        self.queue_ref(vc.index()).map_or(0, |q| q.flits.len())
    }

    /// Whether `vc` has no room for another flit.
    pub fn is_full(&self, vc: VcIndex) -> bool {
        self.occupancy(vc) >= self.depth
    }

    /// Drops every queued flit of `vc` (connection teardown or an
    /// `AbortFrame` command word) and returns how many were dropped.
    pub fn flush(&mut self, vc: VcIndex) -> usize {
        let Some(q) = self.queue_mut_if_present(vc.index()) else { return 0 };
        let n = q.flits.len();
        q.flits.clear();
        if n > 0 {
            self.flits_available.set(vc.index(), false);
        }
        n
    }

    /// The `flits_available` status vector (one bit per VC with a ready
    /// head flit) — the link scheduler's primary input.
    pub fn flits_available(&self) -> &StatusBits {
        &self.flits_available
    }

    /// Total flits currently stored across all VCs.
    pub fn total_occupancy(&self) -> usize {
        self.queue_banks
            .iter()
            .flatten()
            .flat_map(|bank| bank.iter())
            .map(|q| q.flits.len())
            .sum()
    }

    /// Number of queue banks materialized so far (≤ `vcs / QUEUE_BANK_VCS`
    /// rounded up). An idle port reports zero.
    pub fn materialized_banks(&self) -> usize {
        self.queue_banks.iter().flatten().count()
    }

    /// Resident queue storage: every materialized bank's queues, each with
    /// its `VecDeque`'s capacity (which follows the deepest occupancy the
    /// queue reached). The measured input of the accounted footprint
    /// (`crate::footprint`).
    pub(crate) fn queue_bytes(&self) -> usize {
        use std::mem::size_of;
        let queues = self.queue_banks.iter().flatten().flat_map(|bank| bank.iter());
        queues.map(|q| size_of::<VcQueue>() + q.flits.capacity() * size_of::<Flit>()).sum()
    }

    /// Accesses that exceeded the per-cycle bank budget since construction.
    /// A correctly sized VCM keeps this at zero.
    pub fn bank_conflicts(&self) -> u64 {
        self.bank_conflicts
    }

    /// Lifetime (pushed, popped) flit counts — conservation checking.
    #[cfg(test)]
    pub(crate) fn totals(&self) -> (u64, u64) {
        self.totals
    }
}

/// Analytic timing model for the interleaved bank array (§3.2: "The number
/// of memory modules and flit size must be selected to balance memory access
/// time, link speed, and crossbar switching delay").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankTimingModel {
    /// Number of interleaved RAM modules.
    pub banks: usize,
    /// Width of one memory word in bits (the interleaving granularity).
    pub word_bits: u32,
    /// Access time of one module in nanoseconds.
    pub access_ns: f64,
}

impl BankTimingModel {
    /// Peak memory bandwidth of the array in bits/s: every bank streams one
    /// word per access time.
    pub fn peak_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bps(self.banks as f64 * f64::from(self.word_bits) / (self.access_ns * 1e-9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ConnectionId;

    fn flit(seq: u64, at: u64) -> Flit {
        Flit::data(ConnectionId(1), seq, Cycles(at))
    }

    #[test]
    fn fifo_order_per_vc() {
        let mut vcm = VirtualChannelMemory::new(4, 8, 2);
        let vc = VcIndex(2);
        for i in 0..3 {
            vcm.push(vc, flit(i, 0), Cycles(0)).expect("room");
        }
        assert_eq!(vcm.occupancy(vc), 3);
        assert_eq!(vcm.pop(vc, Cycles(1)).map(|f| f.seq), Some(0));
        assert_eq!(vcm.pop(vc, Cycles(2)).map(|f| f.seq), Some(1));
        assert_eq!(vcm.pop(vc, Cycles(3)).map(|f| f.seq), Some(2));
        assert_eq!(vcm.pop(vc, Cycles(4)), None);
    }

    #[test]
    fn depth_is_enforced() {
        let mut vcm = VirtualChannelMemory::new(2, 2, 1);
        let vc = VcIndex(0);
        vcm.push(vc, flit(0, 0), Cycles(0)).expect("room");
        vcm.push(vc, flit(1, 0), Cycles(0)).expect("room");
        assert!(vcm.is_full(vc));
        assert_eq!(vcm.push(vc, flit(2, 0), Cycles(0)), Err(VcmError::BufferFull { vc }));
    }

    #[test]
    fn bad_vc_is_reported() {
        let mut vcm = VirtualChannelMemory::new(2, 2, 1);
        let vc = VcIndex(9);
        assert_eq!(vcm.push(vc, flit(0, 0), Cycles(0)), Err(VcmError::NoSuchVc { vc }));
        assert_eq!(vcm.pop(vc, Cycles(0)), None);
        assert_eq!(vcm.occupancy(vc), 0);
    }

    #[test]
    fn flits_available_tracks_heads() {
        let mut vcm = VirtualChannelMemory::new(8, 4, 2);
        assert!(!vcm.flits_available().any());
        vcm.push(VcIndex(5), flit(0, 0), Cycles(0)).expect("room");
        assert_eq!(vcm.flits_available().iter_set().collect::<Vec<_>>(), vec![5]);
        vcm.push(VcIndex(5), flit(1, 0), Cycles(0)).expect("room");
        vcm.pop(VcIndex(5), Cycles(1));
        assert!(vcm.flits_available().get(5), "still one flit queued");
        vcm.pop(VcIndex(5), Cycles(2));
        assert!(!vcm.flits_available().any());
    }

    #[test]
    fn head_ready_time_and_delay() {
        let mut vcm = VirtualChannelMemory::new(2, 4, 1);
        let vc = VcIndex(0);
        vcm.push(vc, flit(0, 10), Cycles(10)).expect("room");
        vcm.push(vc, flit(1, 10), Cycles(10)).expect("room");
        // Head became ready when it arrived into an empty queue.
        assert_eq!(vcm.head_ready_at(vc), Some(Cycles(10)));
        // After popping at cycle 14, the next head is ready at 15.
        vcm.pop(vc, Cycles(14));
        assert_eq!(vcm.head_ready_at(vc), Some(Cycles(15)));
    }

    #[test]
    fn flush_empties_and_clears_status() {
        let mut vcm = VirtualChannelMemory::new(2, 4, 1);
        let vc = VcIndex(1);
        for i in 0..3 {
            vcm.push(vc, flit(i, 0), Cycles(0)).expect("room");
        }
        assert_eq!(vcm.flush(vc), 3);
        assert_eq!(vcm.occupancy(vc), 0);
        assert!(!vcm.flits_available().get(1));
        assert_eq!(vcm.flush(vc), 0);
    }

    #[test]
    fn bank_conflicts_counted_beyond_budget() {
        let mut vcm = VirtualChannelMemory::new(8, 4, 2);
        vcm.begin_cycle();
        for i in 0..4 {
            vcm.push(VcIndex(i), flit(0, 0), Cycles(0)).expect("room");
        }
        // 4 accesses against a 2-bank budget -> 2 conflicts.
        assert_eq!(vcm.bank_conflicts(), 2);
        vcm.begin_cycle();
        vcm.pop(VcIndex(0), Cycles(1));
        vcm.pop(VcIndex(1), Cycles(1));
        assert_eq!(vcm.bank_conflicts(), 2, "within budget after reset");
    }

    #[test]
    fn totals_conserve_flits() {
        let mut vcm = VirtualChannelMemory::new(4, 4, 4);
        for i in 0..3 {
            vcm.push(VcIndex(i), flit(0, 0), Cycles(0)).expect("room");
        }
        vcm.pop(VcIndex(0), Cycles(1));
        let (pushed, popped) = vcm.totals();
        assert_eq!(pushed, 3);
        assert_eq!(popped, 1);
        assert_eq!(vcm.total_occupancy(), 2);
    }

    #[test]
    fn queue_banks_materialize_on_first_push_only() {
        let mut vcm = VirtualChannelMemory::new(256, 4, 8);
        assert_eq!(vcm.materialized_banks(), 0, "idle VCM holds no queue storage");
        assert_eq!(vcm.queue_bytes(), 0);
        // Reads on an unmaterialized bank see empty-queue semantics and
        // allocate nothing.
        assert_eq!(vcm.occupancy(VcIndex(200)), 0);
        assert_eq!(vcm.pop(VcIndex(200), Cycles(0)), None);
        assert_eq!(vcm.flush(VcIndex(200)), 0);
        assert_eq!(vcm.materialized_banks(), 0);
        // One push materializes exactly the bank holding that VC.
        vcm.push(VcIndex(200), flit(0, 0), Cycles(0)).expect("room");
        assert_eq!(vcm.materialized_banks(), 1);
        assert!(vcm.queue_bytes() > 32 * std::mem::size_of::<VcQueue>(), "a bank of queues, one holding a flit");
        assert_eq!(vcm.occupancy(VcIndex(200)), 1);
        // A neighbor in the same bank reuses it; a distant VC adds one.
        vcm.push(VcIndex(201), flit(1, 0), Cycles(0)).expect("room");
        assert_eq!(vcm.materialized_banks(), 1);
        vcm.push(VcIndex(3), flit(2, 0), Cycles(0)).expect("room");
        assert_eq!(vcm.materialized_banks(), 2);
        // Draining does not un-materialize: behavior stays identical.
        vcm.pop(VcIndex(200), Cycles(1));
        vcm.pop(VcIndex(201), Cycles(1));
        vcm.flush(VcIndex(3));
        assert_eq!(vcm.total_occupancy(), 0);
        assert_eq!(vcm.materialized_banks(), 2);
        assert!(!vcm.flits_available().any());
    }

    #[test]
    fn partial_final_bank_covers_the_tail_vcs() {
        // 40 VCs = one full bank of 32 plus a final bank of 8.
        let mut vcm = VirtualChannelMemory::new(40, 2, 1);
        vcm.push(VcIndex(39), flit(0, 0), Cycles(0)).expect("room");
        assert_eq!(vcm.materialized_banks(), 1);
        assert_eq!(vcm.occupancy(VcIndex(39)), 1);
        assert_eq!(vcm.push(VcIndex(40), flit(1, 0), Cycles(0)), Err(VcmError::NoSuchVc { vc: VcIndex(40) }));
        assert_eq!(vcm.pop(VcIndex(39), Cycles(1)).map(|f| f.seq), Some(0));
    }

    #[test]
    fn bank_timing_model_matches_paper_scaling() {
        // 8 banks of 32-bit words at 10 ns sustain 25.6 Gbps peak.
        let m = BankTimingModel { banks: 8, word_bits: 32, access_ns: 10.0 };
        assert!((m.peak_bandwidth().bits_per_sec() - 25.6e9).abs() < 1e3);
    }
}
