//! The network's public vocabulary: ids, errors, per-step reports and
//! aggregate statistics.

use mmr_core::flit::{Flit, FlitKind};
use mmr_core::ids::{ConnRef, PortId};
use mmr_sim::{Accumulator, Cycles};

#[cfg(doc)]
use super::NetworkSim;
use crate::setup::SetupError;
use crate::topology::NodeId;

/// Errors from the fallible [`NetworkSim`] entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The node index is out of range for this topology.
    UnknownNode {
        /// The offending node.
        node: NodeId,
    },
    /// The port index is out of range for this topology.
    InvalidPort {
        /// The node the port was addressed on.
        node: NodeId,
        /// The offending port.
        port: PortId,
    },
    /// The port is a terminal (network-interface) port — NIs cannot fail or
    /// be repaired; only inter-router wires can.
    TerminalPort {
        /// The node owning the port.
        node: NodeId,
        /// The terminal port.
        port: PortId,
    },
    /// The wire is already failed (double [`NetworkSim::fail_link`]).
    LinkAlreadyFailed {
        /// The node owning the port.
        node: NodeId,
        /// The port whose wire is already down.
        port: PortId,
    },
    /// The wire is operational ([`NetworkSim::repair_link`] of a live link).
    LinkNotFailed {
        /// The node owning the port.
        node: NodeId,
        /// The port whose wire is up.
        port: PortId,
    },
    /// The node is already failed (double [`NetworkSim::fail_node`]).
    NodeAlreadyFailed {
        /// The node that is already down.
        node: NodeId,
    },
    /// The node is operational ([`NetworkSim::repair_node`] of a live node).
    NodeNotFailed {
        /// The node that is up.
        node: NodeId,
    },
    /// The connection id is not live in this network.
    UnknownConnection(NetConnectionId),
    /// [`NetworkSim::send_packet`] with a stream flit kind — VCT packets are
    /// control or best-effort only.
    NotAPacketKind(FlitKind),
    /// The node has no terminal (network-interface) port, so it cannot
    /// source or sink end-to-end traffic.
    NoTerminalPort {
        /// The node lacking an NI.
        node: NodeId,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownNode { node } => write!(f, "node {node} does not exist"),
            NetError::InvalidPort { node, port } => {
                write!(f, "port {port} does not exist on node {node}")
            }
            NetError::TerminalPort { node, port } => {
                write!(f, "{node}.{port} is a terminal port; only inter-router wires can fail")
            }
            NetError::LinkAlreadyFailed { node, port } => {
                write!(f, "the wire at {node}.{port} is already failed")
            }
            NetError::LinkNotFailed { node, port } => {
                write!(f, "the wire at {node}.{port} is operational; nothing to repair")
            }
            NetError::NodeAlreadyFailed { node } => {
                write!(f, "node {node} is already failed")
            }
            NetError::NodeNotFailed { node } => {
                write!(f, "node {node} is operational; nothing to repair")
            }
            NetError::UnknownConnection(id) => write!(f, "connection {id} is not live"),
            NetError::NotAPacketKind(kind) => {
                write!(f, "{kind:?} flits are not VCT packets (control/best-effort only)")
            }
            NetError::NoTerminalPort { node } => {
                write!(f, "node {node} has no terminal port; it cannot source or sink traffic")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// A network-wide connection identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetConnectionId(pub u32);

impl std::fmt::Display for NetConnectionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// A network-wide packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

/// Handle for an in-flight asynchronous connection setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProbeToken(pub u64);

/// Completion of an asynchronous setup (see
/// [`NetworkSim::request_connection`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetupEvent {
    /// The probe that finished.
    pub token: ProbeToken,
    /// The established connection, or why setup failed.
    pub result: Result<NetConnectionId, SetupError>,
    /// Cycles from the request to this event (probe travel + ack return).
    pub latency: Cycles,
}

/// One hop of an established connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// The router this hop crosses.
    pub node: NodeId,
    /// The router-local connection.
    pub local: ConnRef,
}

/// An established end-to-end connection.
#[derive(Debug, Clone)]
pub struct NetConnection {
    /// Network-wide id.
    pub id: NetConnectionId,
    /// Per-router hops, source first.
    pub hops: Vec<Hop>,
    /// Next expected sequence number: the stream's one sequence ledger,
    /// kept by the destination NI.
    pub next_seq: u64,
}

/// A flit that exited at its destination network interface this cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveredFlit {
    /// The owning end-to-end connection.
    pub conn: NetConnectionId,
    /// The flit, with its original sequence number and injection time.
    pub flit: Flit,
    /// End-to-end latency in flit cycles.
    pub latency: Cycles,
}

/// The result of one network flit cycle.
#[derive(Debug, Clone, Default)]
pub struct NetStepReport {
    /// Stream flits delivered at their destination NIs.
    pub delivered: Vec<DeliveredFlit>,
    /// Asynchronous setups that completed this cycle.
    pub setups: Vec<SetupEvent>,
    /// Flits transmitted by any router this cycle.
    pub flits_switched: usize,
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStats {
    /// End-to-end stream-flit latency (flit cycles).
    pub latency: Accumulator,
    /// End-to-end packet latency (flit cycles).
    pub packet_latency: Accumulator,
    /// Stream flits delivered.
    pub flits_delivered: u64,
    /// Packets delivered.
    pub packets_delivered: u64,
    /// Out-of-order stream deliveries (must stay zero).
    pub out_of_order: u64,
    /// Stream flits and packets destroyed by link failures (flits on the
    /// failed wire plus flits still buffered inside routers on paths torn
    /// down by the fault), plus flits still queued on a path closed by a
    /// voluntary [`NetworkSim::teardown`] (session departure, preemption).
    pub flits_lost: u64,
    /// Inter-router wires failed so far ([`NetworkSim::fail_link`]).
    pub links_failed: u64,
    /// Failed wires spliced back so far ([`NetworkSim::repair_link`]).
    pub links_repaired: u64,
    /// Whole routers failed so far ([`NetworkSim::fail_node`]).
    pub nodes_failed: u64,
    /// Failed routers brought back so far ([`NetworkSim::repair_node`]).
    pub nodes_repaired: u64,
    /// Setup attempts that resolved [`SetupError::Unreachable`]: the
    /// destination is in a different partition of the surviving topology.
    /// The typed partition signal — callers park the session until the
    /// topology changes instead of retrying into the same wall.
    pub partitioned_sessions: u64,
    /// Stream flits damaged on a wire by a transient fault (payload bit
    /// flip; the CRC no longer matches).
    pub flits_corrupted: u64,
    /// Stream flits dropped on a wire by a transient fault.
    pub flits_dropped: u64,
    /// Flits retransmitted by the link-level retry layer (go-back-N rewinds
    /// and timeout replays). Zero when LLR is off.
    pub flits_retransmitted: u64,
    /// Corrupted flits that reached their destination NI with a bad CRC —
    /// the silent-corruption count. Zero when LLR is on (every damaged flit
    /// is caught and replayed at the link); nonzero under corruption
    /// campaigns when LLR is off.
    pub undetected_corruptions: u64,
    /// Release or routing operations that named state no longer present (a
    /// hop torn down twice, a probe reservation that vanished, a packet
    /// offered to an invalid port). Previously hot-path panics; now counted
    /// and skipped, leaving the invariant auditor to flag real damage.
    pub ghost_releases: u64,
}

impl NetStats {
    /// Adds `other`'s counters and latency samples into these (a campaign
    /// cell's fold of its trials).
    pub fn absorb(&mut self, other: &NetStats) {
        self.latency.merge(&other.latency);
        self.packet_latency.merge(&other.packet_latency);
        self.flits_delivered += other.flits_delivered;
        self.packets_delivered += other.packets_delivered;
        self.out_of_order += other.out_of_order;
        self.flits_lost += other.flits_lost;
        self.links_failed += other.links_failed;
        self.links_repaired += other.links_repaired;
        self.nodes_failed += other.nodes_failed;
        self.nodes_repaired += other.nodes_repaired;
        self.partitioned_sessions += other.partitioned_sessions;
        self.flits_corrupted += other.flits_corrupted;
        self.flits_dropped += other.flits_dropped;
        self.flits_retransmitted += other.flits_retransmitted;
        self.undetected_corruptions += other.undetected_corruptions;
        self.ghost_releases += other.ghost_releases;
    }
}

/// What a transient wire fault does to the one flit it strikes (see
/// [`NetworkSim::arm_transient`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientKind {
    /// Flip a payload bit; the flit keeps moving with a stale CRC.
    Corrupt,
    /// The flit vanishes on the wire.
    Drop,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_is_the_field_wise_sum() {
        // `k` times a distinct, non-zero value in every counter, and one
        // sample in each latency accumulator.
        let stats = |k: u64| {
            let mut latency = Accumulator::new();
            latency.record(k as f64);
            let mut packet_latency = Accumulator::new();
            packet_latency.record(2.0 * k as f64);
            NetStats {
                latency,
                packet_latency,
                flits_delivered: k,
                packets_delivered: 2 * k,
                out_of_order: 3 * k,
                flits_lost: 4 * k,
                links_failed: 5 * k,
                links_repaired: 6 * k,
                nodes_failed: 7 * k,
                nodes_repaired: 8 * k,
                partitioned_sessions: 9 * k,
                flits_corrupted: 10 * k,
                flits_dropped: 11 * k,
                flits_retransmitted: 12 * k,
                undetected_corruptions: 13 * k,
                ghost_releases: 14 * k,
            }
        };
        let (mut cell, trial) = (stats(1), stats(100));
        let mut expected = stats(101);
        expected.latency = cell.latency.clone();
        expected.latency.merge(&trial.latency);
        expected.packet_latency = cell.packet_latency.clone();
        expected.packet_latency.merge(&trial.packet_latency);
        cell.absorb(&trial);
        assert_eq!(cell, expected);
    }
}
