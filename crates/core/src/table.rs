//! Typed dense tables for the schedulers' per-port / per-VC scratch state.
//!
//! The link and switch schedulers keep dense arrays indexed by port and
//! virtual-channel ids (grant pointers, winner slots, request lists,
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
//!   hot scheduling loops keep their zero-alloc guarantee.

use crate::ids::{PortId, VcIndex};

/// A dense table with one slot per router port, indexed by [`PortId`] (or by
/// the raw port index inside scheduler loops).
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

    /// Shallow heap footprint of the table itself (slot storage only — heap
    /// owned *by* the slots, if any, is not traversed).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val::<[T]>(&self.slots)
    }

    /// Number of ports the table was sized for.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot for `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is outside the table — a construction-time sizing
    /// bug, never data-dependent.
    pub fn get(&self, port: PortId) -> &T {
        self.at(port.index())
    }

    /// Mutable slot for `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is outside the table.
    pub fn get_mut(&mut self, port: PortId) -> &mut T {
        self.at_mut(port.index())
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

    /// Iterates the slots in port order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.slots.iter()
    }

    /// Mutably iterates the slots in port order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.slots.iter_mut()
    }

    /// Iterates `(raw port index, &slot)` pairs in port order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots.iter().enumerate()
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
    /// Creates a table of `vcs` clones of `value`.
    pub fn filled(vcs: usize, value: T) -> Self
    where
        T: Clone,
    {
        VcMap { slots: vec![value; vcs].into_boxed_slice() }
    }

    /// Shallow heap footprint of the table itself (slot storage only).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val::<[T]>(&self.slots)
    }

    /// Number of virtual channels the table was sized for.
    pub fn len(&self) -> usize {
        self.slots.len()
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
        *m.get_mut(PortId(2)) = 7;
        assert_eq!(*m.get(PortId(2)), 7);
        assert_eq!(*m.at(2), 7);
        *m.at_mut(3) = 9;
        assert_eq!(*m.get(PortId(3)), 9);
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
        assert_eq!(m.iter().copied().sum::<u32>(), 16);
        assert_eq!(m.entries().filter(|(_, &v)| v != 0).count(), 2);
    }

    #[test]
    fn vc_map_round_trips() {
        let mut m = VcMap::filled(8, None::<u8>);
        *m.get_mut(VcIndex(5)) = Some(1);
        assert_eq!(*m.get(VcIndex(5)), Some(1));
        assert_eq!(*m.at(5), Some(1));
        assert_eq!(m.len(), 8);
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
