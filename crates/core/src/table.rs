//! Typed dense tables for the schedulers' per-port / per-VC scratch state.
//!
//! The link and switch schedulers keep dense arrays indexed by port and
//! virtual-channel ids (grant pointers, winner slots, request words,
//! per-phase bit vectors). Historically those were bare `Vec<T>`s indexed
//! with `table[i]`, which kept the `P-INDEX` lint rule from covering the
//! scheduler modules. This module centralises the indexing in three small
//! wrappers with *infallible* typed accessors — the only bare `[]` left
//! lives here, behind construction-time sizing invariants, so
//! `switchsched.rs` and `linksched.rs` can join the `[index_free]`
//! designation in `lint.toml`.
//!
//! Design notes:
//!
//! * Accessors are infallible (`&T`, not `Option<&T>`): the tables are sized
//!   once at construction from the router's port/VC counts, the same counts
//!   that bound every id handed to them. An out-of-range id is a sizing bug,
//!   and the wrappers surface it as a panic at the access site instead of
//!   silently clamping.
//! * Everything is allocation-free after construction; the wrappers are
//!   `#[repr(transparent)]`-equivalent thin views over a `Vec<T>` so the
//!   hot scheduling loops keep their zero-alloc guarantee. The one
//!   exception is [`LazyVcMap`], a port's per-VC table, which allocates at
//!   its first control-plane write, is given back at the port's last
//!   teardown, and never allocates on the data path.

use crate::ids::{PortId, VcIndex};

/// A dense table with one slot per router port, indexed by the raw port
/// index the scheduler loops iterate.
///
/// Backed by a `Box<[T]>` rather than a `Vec<T>`: the tables never grow
/// after construction, and the boxed slice drops the capacity word — three
/// machine words down to two per table, which adds up across the dozens of
/// per-port tables of a thousand-router fabric.
#[derive(Debug, Clone, Default)]
pub struct PortMap<T> {
    slots: Box<[T]>,
}

impl<T> PortMap<T> {

    /// Creates a table of `ports` clones of `value`.
    pub fn filled(ports: usize, value: T) -> Self
    where
        T: Clone,
    {
        PortMap { slots: vec![value; ports].into_boxed_slice() }
    }

    /// The slot at raw index `i` (scheduler loops iterate `0..ports`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn at(&self, i: usize) -> &T {
        // mmr-lint: allow(P-TRANS, reason="typed wrapper over a construction-sized table; port ids are validated at creation")
        &self.slots[i]
    }

    /// Mutable slot at raw index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn at_mut(&mut self, i: usize) -> &mut T {
        // mmr-lint: allow(P-TRANS, reason="typed wrapper over a construction-sized table; port ids are validated at creation")
        &mut self.slots[i]
    }

    /// Mutably iterates the slots in port order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.slots.iter_mut()
    }
}

/// A dense table with one slot per virtual channel of a port, indexed by
/// [`VcIndex`] (or by the raw VC index produced by bit-vector scans).
///
/// Boxed-slice backed for the same reason as [`PortMap`]: fixed size after
/// construction, one less word of header per table.
#[derive(Debug, Clone, Default)]
pub struct VcMap<T> {
    slots: Box<[T]>,
}

impl<T> VcMap<T> {
    /// Creates a table whose slot `k` is `slot(k)`: how a port's per-VC
    /// tables are allocated, each once, at the port's first connection
    /// ([`LazyVcMap`], a lease's free-VC stack).
    pub fn from_fn(vcs: usize, slot: impl FnMut(usize) -> T) -> Self {
        // mmr-lint: allow(A-TRANS, reason="a port's per-VC table is allocated once, at the port's first connection (control plane), never per cycle")
        VcMap { slots: (0..vcs).map(slot).collect() }
    }

    /// Whether the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot for `vc`.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is outside the table — a construction-time sizing bug,
    /// never data-dependent.
    pub fn get(&self, vc: VcIndex) -> &T {
        self.at(vc.index())
    }

    /// Mutable slot for `vc`.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is outside the table.
    pub fn get_mut(&mut self, vc: VcIndex) -> &mut T {
        self.at_mut(vc.index())
    }

    /// Iterates the slots in VC order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.slots.iter()
    }

    /// The slot at raw index `i` (bit-vector scans yield raw indices).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn at(&self, i: usize) -> &T {
        // mmr-lint: allow(P-TRANS, reason="typed wrapper over a construction-sized table; vc ids are validated at creation")
        &self.slots[i]
    }

    /// Mutable slot at raw index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn at_mut(&mut self, i: usize) -> &mut T {
        // mmr-lint: allow(P-TRANS, reason="typed wrapper over a construction-sized table; vc ids are validated at creation")
        &mut self.slots[i]
    }
}

/// A [`VcMap`] that holds no storage until its first write: until then
/// every slot reads as `T::default()`. A port's per-VC tables are these, so
/// a port that never carries a connection costs a header, not a table (the
/// paper keeps per-VC scheduling state in status bits, §4.1).
///
/// Only [`LazyVcMap::slot_mut`] allocates, once until
/// [`LazyVcMap::release`] gives the storage back; the control plane is
/// their only caller. Every other accessor leaves an unmaterialised table as it
/// is.
#[derive(Debug, Clone)]
pub struct LazyVcMap<T> {
    /// Empty until materialised, then `vcs` slots.
    slots: VcMap<T>,
    /// The slot count to materialise.
    vcs: u16,
}

impl<T: Copy + Default> LazyVcMap<T> {
    /// A table of `vcs` slots that holds no storage yet.
    pub fn new(vcs: u16) -> Self {
        LazyVcMap { slots: VcMap::default(), vcs }
    }

    /// Whether the slots have been allocated.
    pub fn is_materialized(&self) -> bool {
        !self.slots.is_empty()
    }

    /// The slot for `vc`; `T::default()` until the table is materialised.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is outside a materialised table.
    pub fn get(&self, vc: VcIndex) -> T {
        if self.is_materialized() {
            *self.slots.get(vc)
        } else {
            T::default()
        }
    }

    /// The materialised slots, for a reader that only visits VCs a
    /// connection was mapped onto; empty (so every access panics) before.
    pub fn slots(&self) -> &VcMap<T> {
        &self.slots
    }

    /// Mutable slot for `vc` of a materialised table, `None` before: the
    /// data path's write, which never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is outside a materialised table.
    pub fn get_mut(&mut self, vc: VcIndex) -> Option<&mut T> {
        if self.is_materialized() {
            Some(self.slots.get_mut(vc))
        } else {
            None
        }
    }

    /// Mutable slot for `vc`, materialising the table first if needed: the
    /// control plane's write.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is outside the table.
    pub fn slot_mut(&mut self, vc: VcIndex) -> &mut T {
        if !self.is_materialized() {
            self.slots = VcMap::from_fn(usize::from(self.vcs), |_| T::default());
        }
        self.slots.get_mut(vc)
    }

    /// Gives the storage back: every slot reads `T::default()` again, and
    /// the next [`LazyVcMap::slot_mut`] allocates afresh.
    pub fn release(&mut self) {
        self.slots = VcMap::default();
    }
}

/// The set bits of a port word, ascending — how a per-cycle stage visits
/// the ports that hold work instead of `0..ports`.
pub fn set_ports(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let port = word.trailing_zeros() as usize;
            word &= word - 1;
            port
        })
    })
}

/// A set of output ports, used by the candidate-selection scans to pick at
/// most one candidate per distinct output.
///
/// Backed by a 64-bit mask — the switch scheduler already limits routers to
/// 64 ports (its request bitmaps), and construction asserts nothing because
/// [`OutputSet::mark`] bounds the shift itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutputSet {
    mask: u64,
}

impl OutputSet {
    /// An empty set.
    pub fn new() -> Self {
        OutputSet { mask: 0 }
    }

    /// Marks `port` seen; returns `true` when the port was not yet present
    /// (i.e. this candidate is the first for that output).
    pub fn mark(&mut self, port: PortId) -> bool {
        let bit = 1u64 << (port.index() % 64);
        let fresh = self.mask & bit == 0;
        self.mask |= bit;
        fresh
    }

    /// Whether `port` is in the set.
    pub fn contains(self, port: PortId) -> bool {
        self.mask & (1u64 << (port.index() % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_map_round_trips_by_id_and_raw_index() {
        let mut m = PortMap::filled(4, 0u32);
        *m.at_mut(PortId(2).index()) = 7;
        assert_eq!(*m.at(2), 7);
        *m.at_mut(3) = 9;
        assert_eq!(*m.at(PortId(3).index()), 9);
        m.iter_mut().for_each(|v| *v += 1);
        assert_eq!((0..4).map(|p| *m.at(p)).collect::<Vec<_>>(), [1, 1, 8, 10]);
    }

    #[test]
    fn vc_map_round_trips() {
        let mut m = VcMap::from_fn(8, |_| None::<u8>);
        *m.get_mut(VcIndex(5)) = Some(1);
        assert_eq!(*m.get(VcIndex(5)), Some(1));
        assert_eq!(*m.at(5), Some(1));
    }

    #[test]
    fn a_lazy_table_reads_its_fill_until_the_first_write_and_after_a_release() {
        let mut m = LazyVcMap::<u32>::new(256);
        assert!(!m.is_materialized());
        assert_eq!(m.get(VcIndex(7)), 0);
        assert!(m.get_mut(VcIndex(7)).is_none(), "the data path does not allocate");
        assert!(m.slots().is_empty());
        assert!(!m.is_materialized());
        *m.slot_mut(VcIndex(7)) = 3;
        assert!(m.is_materialized());
        assert_eq!(m.slots().slots.len(), 256);
        let slots = m.slots().at(0) as *const u32;
        *m.slot_mut(VcIndex(9)) = 4;
        *m.get_mut(VcIndex(7)).expect("materialised") += 1;
        assert_eq!(m.slots().at(0) as *const u32, slots, "materialised once");
        assert_eq!((m.get(VcIndex(7)), m.get(VcIndex(9)), m.get(VcIndex(8))), (4, 4, 0));
        m.release();
        assert!(!m.is_materialized());
        assert_eq!(m.get(VcIndex(7)), 0, "a released table reads its fill");
        assert!(m.get_mut(VcIndex(7)).is_none());
        *m.slot_mut(VcIndex(9)) += 1;
        assert_eq!((m.get(VcIndex(7)), m.get(VcIndex(9))), (0, 1), "materialised afresh");
    }

    #[test]
    fn output_set_inserts_once_per_port() {
        let mut s = OutputSet::new();
        assert!(s.mark(PortId(3)));
        assert!(!s.mark(PortId(3)));
        assert!(s.contains(PortId(3)));
        assert!(!s.contains(PortId(4)));
        assert!(s.mark(PortId(63)));
    }
}
