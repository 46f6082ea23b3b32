//! Connections, QoS classes and the channel mapping tables.
//!
//! §3.5: "The routing and arbitration unit keeps the channel mappings
//! between input and output virtual channels for established connections …
//! Direct and reverse channel mappings are stored. Direct mappings are
//! required to forward data flits. Reverse mappings are used by backtracking
//! headers and returned acknowledgments."

use mmr_sim::{Bandwidth, FlitTiming};

use crate::bandwidth::Allocation;
use crate::ids::{ConnRef, ConnectionId, PortId, VcRef};

/// The service class of a connection (§2, §4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QosClass {
    /// Constant bit rate: a fixed bandwidth reserved at establishment.
    Cbr {
        /// The constant data rate of the stream.
        rate: Bandwidth,
    },
    /// Variable bit rate: a guaranteed *permanent* bandwidth plus a *peak*
    /// that is only statistically available (gated by the concurrency
    /// factor), with a dynamic priority for excess service.
    Vbr {
        /// Bandwidth guaranteed in every round.
        permanent: Bandwidth,
        /// Worst-case bandwidth the connection may request.
        peak: Bandwidth,
        /// Priority for excess-bandwidth service (higher is served first).
        priority: u8,
    },
    /// Best-effort packets: no reservation, lowest scheduling phase.
    BestEffort,
    /// Control packets (probes, acks): no reservation, highest scheduling
    /// phase, cut-through when possible.
    Control,
}

impl QosClass {
    /// Whether this class reserves bandwidth at establishment.
    pub fn reserves_bandwidth(&self) -> bool {
        matches!(self, QosClass::Cbr { .. } | QosClass::Vbr { .. })
    }

    /// The bandwidth admission control must account as *guaranteed*.
    pub fn guaranteed_rate(&self) -> Bandwidth {
        match *self {
            QosClass::Cbr { rate } => rate,
            QosClass::Vbr { permanent, .. } => permanent,
            QosClass::BestEffort | QosClass::Control => Bandwidth::ZERO,
        }
    }
}

/// A request to establish a connection through one router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectionRequest {
    /// Input port the connection arrives on.
    pub input: PortId,
    /// Output port the connection leaves on.
    pub output: PortId,
    /// Service class (and therefore bandwidth demand).
    pub class: QosClass,
}

/// Mutable per-connection state held by the router.
#[derive(Debug, Clone)]
pub struct ConnState {
    /// The connection's identity.
    pub id: ConnectionId,
    /// Input virtual channel reserved for the connection.
    pub input_vc: VcRef,
    /// Output virtual channel (the VC on the downstream link).
    pub output_vc: VcRef,
    /// Service class.
    pub class: QosClass,
    /// Mean flit inter-arrival period in flit cycles; drives the biased
    /// priority ("the ratio of the delay experienced by a flit at the switch
    /// and the inter-arrival time on the connection"). `f64::INFINITY` for
    /// unpaced classes (best-effort, control).
    pub interarrival_cycles: f64,
    /// Static priority used by the fixed-priority arbiter; drawn once at
    /// establishment.
    pub fixed_priority: f64,
    /// Allocated flit cycles per round (fractional; admission bookkeeping).
    pub allocated_cycles_per_round: f64,
    /// Flit cycles consumed in the current round (link scheduler quota).
    pub serviced_this_round: u32,
    /// For VBR: permanent cycles/round actually guaranteed.
    pub vbr_permanent_cycles: f64,
    /// For VBR: peak cycles/round requested.
    pub vbr_peak_cycles: f64,
    /// Current dynamic priority (VBR excess phase; adjustable by command
    /// words).
    pub dynamic_priority: u8,
    /// Flits forwarded over the connection's lifetime.
    pub flits_forwarded: u64,
    /// Flits injected into the input VC over the connection's lifetime
    /// (also the sequence number of the next flit).
    pub flits_injected: u64,
    /// An opaque word naming the connection's owner, for whoever drives
    /// the router ([`crate::router::Router::set_tag`]); 0 until set. The
    /// router never reads it, only echoes it in each
    /// [`crate::router::Transmitted`].
    pub tag: u64,
}

impl ConnState {
    /// Derives a freshly admitted connection's state from its request:
    /// `granted` is what the bandwidth books booked for `class`, `tiebreak`
    /// a unit-interval draw that orders same-rate connections.
    pub fn new(
        id: ConnectionId,
        input_vc: VcRef,
        output_vc: VcRef,
        class: QosClass,
        granted: Allocation,
        timing: FlitTiming,
        tiebreak: f64,
    ) -> Self {
        let paced = class.guaranteed_rate();
        let (vbr_permanent_cycles, dynamic_priority) = match class {
            QosClass::Vbr { priority, .. } => (granted.guaranteed_cycles, priority),
            _ => (0.0, 0),
        };
        ConnState {
            id,
            input_vc,
            output_vc,
            class,
            interarrival_cycles: if class.reserves_bandwidth() {
                timing.interarrival_cycles(paced)
            } else {
                f64::INFINITY
            },
            // Fixed (static) priorities follow the connection's bandwidth
            // class, as in the priority scheme of Chien & Kim the paper
            // compares against: a high-speed connection permanently outranks
            // a slow one. The tiny random component only breaks ties.
            fixed_priority: paced.fraction_of(timing.link_rate()) + tiebreak * 1e-6,
            allocated_cycles_per_round: granted.guaranteed_cycles,
            serviced_this_round: 0,
            vbr_permanent_cycles,
            vbr_peak_cycles: granted.peak_cycles,
            dynamic_priority,
            flits_forwarded: 0,
            flits_injected: 0,
            tag: 0,
        }
    }

    /// The handle naming this connection.
    pub fn handle(&self) -> ConnRef {
        ConnRef { vc: self.input_vc, id: self.id }
    }

    /// The bandwidth this connection holds on each of its two links, to be
    /// surrendered at teardown. An allocation is a function of the class,
    /// the round and the link timing alone, all router-wide, so the input
    /// and the output book granted the same one and this record covers both.
    pub fn allocation(&self) -> Allocation {
        Allocation {
            guaranteed_cycles: self.allocated_cycles_per_round,
            peak_cycles: self.vbr_peak_cycles,
        }
    }

    /// The per-round flit quota the link scheduler enforces: the smallest
    /// integer number of flit cycles covering the allocation. Connections
    /// without a reservation have no quota.
    pub fn round_quota(&self) -> Option<u32> {
        if self.class.reserves_bandwidth() {
            Some(self.allocated_cycles_per_round.ceil().max(1.0) as u32)
        } else {
            None
        }
    }

    /// Whether the quota for the current round is exhausted.
    pub fn quota_exhausted(&self) -> bool {
        self.round_quota().is_some_and(|q| self.serviced_this_round >= q)
    }

    /// Whether the link scheduler will not offer this connection again this
    /// round: a CBR connection at its quota, a VBR one at its *peak* —
    /// past-permanent VBR still competes in the excess phase.
    pub fn round_spent(&self) -> bool {
        match self.class {
            QosClass::Cbr { .. } => self.quota_exhausted(),
            QosClass::Vbr { .. } => {
                self.serviced_this_round >= self.vbr_peak_cycles.ceil().max(1.0) as u32
            }
            QosClass::BestEffort | QosClass::Control => false,
        }
    }
}

/// The connection table plus direct/reverse channel mappings.
///
/// Connection state is stored *in the direct mapping*: one dense
/// `[input port][input VC]` slot array, because a connection owns exactly
/// one input VC for its lifetime (double-booking panics). A lookup by VC or
/// by handle is two array indexes: the per-cycle hot paths — link-scheduler
/// classification, flit transmission and credit return — read a slot by
/// VC, and a caller that names a connection holds a [`ConnRef`], whose VC
/// picks the slot and whose id must match the one there. Nothing is keyed
/// by [`ConnectionId`], so the table's storage is bounded by the router's
/// VCs however many connections come and go.
#[derive(Debug, Clone, Default)]
pub struct ConnectionTable {
    /// Direct mapping and state storage, indexed `[input port][input VC]`;
    /// grown on demand.
    slots: Vec<Vec<Option<ConnState>>>,
    /// Reverse mapping: `[output port][output VC]` -> the owning
    /// connection's *input* VC (its slot key); grown on demand.
    reverse: Vec<Vec<Option<VcRef>>>,
    next_id: u32,
    live: usize,
}

/// Grows a dense `[port][vc]` table so `vc` is a valid index, and returns
/// that slot.
fn grow_to<T: Clone>(table: &mut Vec<Vec<Option<T>>>, vc: VcRef) -> &mut Option<T> {
    let p = vc.port.index();
    if table.len() <= p {
        // mmr-lint: allow(A-TRANS, reason="amortized: the port-indexed free-list table grows once per newly seen port, then stays flat")
        table.resize(p + 1, Vec::new());
    }
    // mmr-lint: allow(P-TRANS, reason="grow_to just resized the table past p; the row exists")
    let row = &mut table[p];
    if row.len() <= vc.vc.index() {
        row.resize(vc.vc.index() + 1, None); // mmr-lint: allow(A-TRANS, reason="amortized: a row grows once per newly seen vc, then stays flat")
    }
    &mut row[vc.vc.index()] // mmr-lint: allow(P-TRANS, reason="the row was just resized past vc")
}

/// Reads a dense `[port][vc]` table, treating unallocated rows as empty.
fn slot_of<T>(table: &[Vec<Option<T>>], vc: VcRef) -> Option<&T> {
    table.get(vc.port.index())?.get(vc.vc.index())?.as_ref()
}

/// [`slot_of`] for writing: the slot itself, `None` where no row reaches.
fn slot_mut<T>(table: &mut [Vec<Option<T>>], vc: VcRef) -> Option<&mut Option<T>> {
    table.get_mut(vc.port.index())?.get_mut(vc.vc.index())
}

impl ConnectionTable {
    /// Allocates the next connection id.
    pub fn next_id(&mut self) -> ConnectionId {
        let id = ConnectionId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Inserts a connection, registering both channel mappings.
    ///
    /// # Panics
    ///
    /// Panics if either VC is already mapped — the router must never
    /// double-book a virtual channel.
    pub fn insert(&mut self, state: ConnState) -> ConnRef {
        let slot = grow_to(&mut self.slots, state.input_vc);
        assert!(slot.is_none(), "input VC {} double-booked", state.input_vc); // mmr-lint: allow(P-TRANS, reason="double-booking is a router bug; the assert is the documented API contract")
        let rev = grow_to(&mut self.reverse, state.output_vc);
        assert!(rev.is_none(), "output VC {} double-booked", state.output_vc); // mmr-lint: allow(P-TRANS, reason="double-booking is a router bug; the assert is the documented API contract")
        *rev = Some(state.input_vc);
        self.live += 1;
        let conn = state.handle();
        *slot = Some(state);
        conn
    }

    /// Removes a connection and both its mappings, returning its state;
    /// `None` when `conn`'s slot no longer holds it.
    pub fn remove(&mut self, conn: ConnRef) -> Option<ConnState> {
        let slot = slot_mut(&mut self.slots, conn.vc)?;
        let state = slot.take_if(|state| state.id == conn.id)?;
        if let Some(rev) = slot_mut(&mut self.reverse, state.output_vc) {
            *rev = None;
        }
        self.live -= 1;
        Some(state)
    }

    /// Looks up a connection by handle.
    // mmr-lint: hot
    pub fn get(&self, conn: ConnRef) -> Option<&ConnState> {
        self.by_input_vc(conn.vc).filter(|state| state.id == conn.id)
    }

    /// Mutable lookup by handle.
    // mmr-lint: hot
    pub fn get_mut(&mut self, conn: ConnRef) -> Option<&mut ConnState> {
        slot_mut(&mut self.slots, conn.vc)?.as_mut().filter(|state| state.id == conn.id)
    }

    /// Direct mapping: which connection owns this *input* VC?
    pub fn by_input_vc(&self, vc: VcRef) -> Option<&ConnState> {
        slot_of(&self.slots, vc)
    }

    /// Reverse mapping: which connection owns this *output* VC?
    pub fn by_output_vc(&self, vc: VcRef) -> Option<&ConnState> {
        slot_of(&self.slots, *slot_of(&self.reverse, vc)?)
    }

    /// Iterates over all connections in handle (input-VC) order.
    pub fn iter(&self) -> impl Iterator<Item = &ConnState> {
        self.slots.iter().flatten().filter_map(Option::as_ref)
    }

    /// Mutable iteration over all connections, in handle order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut ConnState> {
        self.slots.iter_mut().flatten().filter_map(Option::as_mut)
    }

    /// Number of live connections.
    pub fn len(&self) -> usize {
        self.live
    }

    /// For tests: whether the table is empty.
    #[doc(hidden)]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(id: u32, in_vc: VcRef, out_vc: VcRef) -> ConnState {
        ConnState {
            id: ConnectionId(id),
            input_vc: in_vc,
            output_vc: out_vc,
            class: QosClass::Cbr { rate: Bandwidth::from_mbps(10.0) },
            interarrival_cycles: 124.0,
            fixed_priority: 0.5,
            allocated_cycles_per_round: 4.13,
            serviced_this_round: 0,
            vbr_permanent_cycles: 0.0,
            vbr_peak_cycles: 0.0,
            dynamic_priority: 0,
            flits_forwarded: 0,
            flits_injected: 0,
            tag: 0,
        }
    }

    #[test]
    fn qos_class_guarantees() {
        assert!(QosClass::Cbr { rate: Bandwidth::from_mbps(1.0) }.reserves_bandwidth());
        assert!(!QosClass::BestEffort.reserves_bandwidth());
        assert!(!QosClass::Control.reserves_bandwidth());
        let vbr = QosClass::Vbr {
            permanent: Bandwidth::from_mbps(2.0),
            peak: Bandwidth::from_mbps(8.0),
            priority: 3,
        };
        assert_eq!(vbr.guaranteed_rate(), Bandwidth::from_mbps(2.0));
        assert_eq!(QosClass::BestEffort.guaranteed_rate(), Bandwidth::ZERO);
    }

    #[test]
    fn round_quota_ceils_allocation() {
        let s = state(0, VcRef::new(0, 0), VcRef::new(1, 0));
        assert_eq!(s.round_quota(), Some(5)); // ceil(4.13)
        let mut tiny = s.clone();
        tiny.allocated_cycles_per_round = 0.02; // 64 Kbps-style fraction
        assert_eq!(tiny.round_quota(), Some(1), "minimum one cycle per round");
        let mut be = s;
        be.class = QosClass::BestEffort;
        assert_eq!(be.round_quota(), None);
    }

    #[test]
    fn quota_exhaustion() {
        let mut s = state(0, VcRef::new(0, 0), VcRef::new(1, 0));
        assert!(!s.quota_exhausted());
        s.serviced_this_round = 5;
        assert!(s.quota_exhausted());
    }

    #[test]
    fn table_mappings_round_trip() {
        let mut t = ConnectionTable::default();
        let id = t.next_id();
        assert_eq!(id, ConnectionId(0));
        let in_vc = VcRef::new(2, 17);
        let out_vc = VcRef::new(5, 3);
        let conn = t.insert(state(id.raw(), in_vc, out_vc));
        assert_eq!(conn, ConnRef { vc: in_vc, id });
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(conn).map(|c| c.id), Some(id));
        assert_eq!(t.by_input_vc(in_vc).map(|c| c.id), Some(id));
        assert_eq!(t.by_output_vc(out_vc).map(|c| c.id), Some(id));
        assert!(t.by_input_vc(VcRef::new(2, 18)).is_none());
        assert!(t.remove(ConnRef { id: ConnectionId(7), ..conn }).is_none(), "another id");
        let removed = t.remove(conn).expect("present");
        assert_eq!(removed.id, id);
        assert!(t.get(conn).is_none());
        assert!(t.remove(conn).is_none(), "removed once");
        assert!(t.by_input_vc(in_vc).is_none());
        assert!(t.by_output_vc(out_vc).is_none());
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "double-booked")]
    fn double_booking_input_vc_panics() {
        let mut t = ConnectionTable::default();
        t.insert(state(0, VcRef::new(0, 0), VcRef::new(1, 0)));
        t.insert(state(1, VcRef::new(0, 0), VcRef::new(1, 1)));
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut t = ConnectionTable::default();
        let a = t.next_id();
        let b = t.next_id();
        assert!(b > a);
    }

    #[test]
    fn iteration_is_in_handle_order() {
        let mut t = ConnectionTable::default();
        let b = t.insert(state(2, VcRef::new(1, 0), VcRef::new(1, 1)));
        let a = t.insert(state(5, VcRef::new(0, 3), VcRef::new(1, 0)));
        let handles: Vec<ConnRef> = t.iter().map(ConnState::handle).collect();
        assert_eq!(handles, vec![a, b], "input-VC order, not id order");
    }

    /// The table holds nothing per connection ever established: churning
    /// 100,000 connections through one VC pair leaves every row as large as
    /// the first connection made it.
    #[test]
    fn storage_is_bounded_by_the_vcs_not_the_ids() {
        fn rows<T>(table: &[Vec<Option<T>>]) -> Vec<usize> {
            table.iter().map(Vec::capacity).collect()
        }
        let (in_vc, out_vc) = (VcRef::new(1, 2), VcRef::new(3, 4));
        let mut t = ConnectionTable::default();
        let capacities = |t: &ConnectionTable| {
            (t.slots.capacity(), rows(&t.slots), t.reverse.capacity(), rows(&t.reverse))
        };
        let mut after_one = None;
        for _ in 0..100_000 {
            let id = t.next_id();
            let conn = t.insert(state(id.raw(), in_vc, out_vc));
            after_one.get_or_insert_with(|| capacities(&t));
            assert!(t.remove(conn).is_some());
        }
        assert_eq!(t.next_id(), ConnectionId(100_000));
        assert_eq!(Some(capacities(&t)), after_one);
        assert!(t.is_empty());
    }
}
