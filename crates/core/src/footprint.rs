//! The accounted footprint: the storage a router's configuration states,
//! counted in closed form.
//!
//! `router_bytes` gives the bytes of one router: the §3.2 VCM banks and the
//! §4.1 status vectors at ports × VCs, the per-VC scheduling records,
//! credits and free-VC stacks, the per-port scheduler and bandwidth
//! registers, one allocation record per live connection, and the resident
//! queue storage the VCM reports (`VirtualChannelMemory::queue_bytes`) —
//! the one input that is measured, because a queue's capacity follows the
//! deepest occupancy it reached. [`updown`] gives the up*/down* tables at
//! the size they reach once every destination has been asked for.
//!
//! The figure is *accounted, not resident*. Every per-port table counts as
//! allocated on every port, though a port allocates its records, credits
//! and free-VC stacks only at its first connection, and the router's one
//! link-scheduler scratch counts once per input port. What is resident is
//! counted elsewhere: `Router::ports_holding_tables` (the ports holding
//! their per-VC tables), `Router::materialized_vc_banks` (the queue banks)
//! and perfbench's `peak_rss_mb`.
//!
//! The figure is folded into every perfbench `sim_digest` and into
//! `BENCH_scale.json`, so each term below is a named byte constant with the
//! value it had on a 64-bit target when the figure was last pinned, not a
//! `size_of` of today's layout: a struct may change shape without moving a
//! digest. Changing a constant is a benchmark change that re-pins them.
//! Each term sits on a line of its own, which `tools/mutants.tsv` names to
//! drop it; the pins below kill every such mutant.

use crate::router::RouterDims;
use crate::vcm::QUEUE_BANK_VCS;

/// One VC-count status vector held inline in its owner: up to
/// [`INLINE_VCS`] bits live in it, past that they spill to the heap.
const STATUS_VECTOR: usize = 48;
/// VCs a status vector holds without spilling.
const INLINE_VCS: usize = 256;
/// Status vectors an input port accounts, each spilling past
/// [`INLINE_VCS`]: the VCM's three (`flits_available` and its two retired
/// head-kind vectors), the seven-condition status matrix, the link
/// scheduler's five scratch vectors (three of them retired head-partition
/// vectors), the four class masks and the retired classification vector.
/// A retired vector has no code left: a packet's class is its flit's kind,
/// so the class masks say what the head-kind vectors said. It stays
/// accounted, like [`RETIRED_CLASSIFIED`], until the digests are re-pinned.
const INPUT_VECTORS: usize = 3 + 7 + 5 + 4 + 1;

/// The VCM of one input port, its three status vectors included (two of
/// them the retired head-kind vectors and their counts).
const VCM: usize = 240;
/// The seven-condition status matrix of §4.1: a 32-byte header and seven
/// inline vectors.
const STATUS_MATRIX: usize = 32 + 7 * STATUS_VECTOR;
/// The link scheduler's scratch (five vectors — `eligible`, `domain` and
/// three retired head-partition vectors — and a candidate list), counted
/// once per input port.
const LINK_SCHEDULER: usize = 264;
/// The per-VC scheduling records' table header.
const RECORDS_HEADER: usize = 16;
/// The four class masks and their population counts.
const CLASS_MASKS: usize = 224;
/// The rotating scan pointer.
const RR_POINTER: usize = 8;
/// The link scheduler's retired classification vector, inline part.
const RETIRED_CLASSIFIED: usize = STATUS_VECTOR;
/// One lease: the §4.2 bandwidth book (64) and the free-VC stack's header
/// (24), one per link direction.
const LEASE: usize = 64 + 24;
/// The output credits' table header.
const CREDITS_HEADER: usize = 24;
/// The output's guaranteed-flits-this-round counter.
const GUARANTEED_COUNTER: usize = 4;
/// One VC's scheduling record.
const RECORD: usize = 16;
/// One VC's entry in a free-VC stack (one stack per link direction).
const FREE_STACK_ENTRY: usize = 2;
/// One output VC's credit count.
const CREDIT: usize = 4;
/// One slot of the VCM's queue-bank spine, one per [`QUEUE_BANK_VCS`] VCs.
const SPINE_SLOT: usize = 16;
/// The two output latches, a flag each per port.
const LATCHES: usize = 2;
/// A live connection's id and its two bandwidth allocation records.
pub(crate) const CONNECTION: usize = 4 + 2 * 16;

/// Accounted bytes of one router of `dims` holding `connections` live
/// connections, with `queue_bytes` of resident VC queue storage summed
/// over its input ports.
#[rustfmt::skip]
pub(crate) fn router_bytes(dims: &RouterDims, connections: usize, queue_bytes: usize) -> usize {
    let vcs = dims.vcs_per_port();
    let spill = if vcs > INLINE_VCS { vcs.div_ceil(64) * 8 } else { 0 };
    let input = VCM
        + STATUS_MATRIX
        + LINK_SCHEDULER
        + RECORDS_HEADER
        + CLASS_MASKS
        + RR_POINTER
        + RETIRED_CLASSIFIED
        + LEASE
        + vcs * (RECORD + FREE_STACK_ENTRY)
        + vcs.div_ceil(QUEUE_BANK_VCS) * SPINE_SLOT
        + INPUT_VECTORS * spill;
    let output = LEASE
        + CREDITS_HEADER
        + GUARANTEED_COUNTER
        + vcs * (FREE_STACK_ENTRY + CREDIT);
    dims.ports() * (input + output + LATCHES)
        + connections * CONNECTION
        + queue_bytes
}

/// Accounted bytes of the up*/down* tables of an `n`-node fabric — the size
/// the lazily filled rows reach when every destination has been asked for,
/// so the figure does not depend on which rows a run filled.
#[rustfmt::skip]
pub fn updown(n: usize) -> usize {
    // The BFS levels, a word a node.
    n * 8
        // A distance word and a two-phase legality pair per (node, destination).
        + n * n * 24
        // A distance row and a legality row header per destination.
        + 2 * n * 24
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{ConnectionRequest, QosClass};
    use crate::ids::PortId;
    use crate::router::RouterConfig;
    use mmr_sim::{Bandwidth, Cycles};

    /// The figures the per-part walk this model replaced reported, pinned:
    /// each is folded into a perfbench digest or `BENCH_scale.json`.
    #[test]
    fn a_fresh_paper_default_router_is_pinned() {
        let r = RouterConfig::paper_default().build();
        assert_eq!((r.config().ports(), r.config().vcs_per_port()), (8, 256));
        assert_eq!(r.heap_bytes(), 61_168);
    }

    /// A 33 × 256 router (a `dragonfly-1056` node) before and after one
    /// connection and its first flit, which materialises one 32-queue bank
    /// and one four-flit deque.
    #[test]
    fn a_wide_router_moves_by_its_connection_and_its_queues() {
        let mut r = RouterConfig::paper_default()
            .ports(33)
            .vcs_per_port(256)
            .candidates(4)
            .track_output_credits(true)
            .seed(5)
            .build();
        assert_eq!(r.heap_bytes(), 252_318);
        let cbr = QosClass::Cbr { rate: Bandwidth::from_mbps(124.0) };
        let id = r
            .establish(ConnectionRequest { input: PortId(3), output: PortId(17), class: cbr })
            .expect("admits");
        assert_eq!(r.heap_bytes(), 252_354);
        r.inject(id, Cycles(0)).expect("room");
        assert_eq!(r.heap_bytes(), 253_794);
    }

    /// Past 256 VCs every status vector spills its words to the heap.
    #[test]
    fn a_512_vc_router_counts_the_spill() {
        let mut r = RouterConfig::paper_default().vcs_per_port(512).build();
        assert_eq!(r.heap_bytes(), 121_584);
        let cbr = QosClass::Cbr { rate: Bandwidth::from_mbps(124.0) };
        let id = r
            .establish(ConnectionRequest { input: PortId(3), output: PortId(5), class: cbr })
            .expect("admits");
        r.inject(id, Cycles(0)).expect("room");
        assert_eq!(r.heap_bytes(), 123_060);
    }

    #[test]
    fn the_updown_tables_are_pinned() {
        assert_eq!(updown(12), 4_128);
        assert_eq!(updown(64), 101_888);
    }
}
