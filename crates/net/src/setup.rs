//! Connection establishment: exhaustive profitable backtracking (EPB).
//!
//! §4.2: "the source node generates a routing probe that tries to establish
//! a connection by setting up a path from source to destination, reserving
//! link bandwidth and buffer space along that path. If resource reservation
//! is successful the connection is established … If resources cannot be
//! reserved along the whole path, the connection fails and all the
//! resources reserved during the construction of the path are released.
//! Using a backtracking search, alternative paths through the network can be
//! pursued."
//!
//! §3.5: "Exhaustive profitable backtracking (EPB) will be used when
//! establishing connections. This algorithm performs an exhaustive search of
//! the minimal paths in the network until a valid path is found or the probe
//! backtracks to the source node. In order to avoid searching the same links
//! twice, a history store associated with each input virtual channel records
//! all the output links that have already been searched."
//!
//! The search is implemented as a [`ProbeMachine`] that moves one hop per
//! invocation — forward, or backward when a node's profitable outputs are
//! exhausted. [`NetworkSim::establish`] runs the machine to completion
//! instantly (the connection-level view); the asynchronous API
//! ([`NetworkSim::request_connection`]) advances it one hop per flit cycle
//! and returns the acknowledgment along the reverse channel mappings, so
//! setup latency is measured in cycles like everything else.

use std::collections::BTreeMap;

use mmr_core::conn::{ConnectionRequest, QosClass};
use mmr_core::ids::{ConnRef, PortId, VcIndex};
use mmr_sim::{Bandwidth, Cycles};

use crate::network::{Hop, NetConnection, NetConnectionId, NetworkSim, ProbeToken, SetupEvent};
use crate::routing::RoutingAlgorithm;
use crate::topology::NodeId;

/// The path-search strategy a probe uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupStrategy {
    /// Exhaustive profitable backtracking over minimal paths (§3.5).
    Epb,
    /// Greedy profitable search without backtracking: the probe fails at
    /// the first node where every minimal output is exhausted (comparison
    /// baseline for experiment E3).
    Greedy,
}

/// Why connection establishment failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupError {
    /// The destination is unreachable in the topology.
    Unreachable,
    /// The probe exhausted every minimal path (EPB backtracked to the
    /// source) or hit a dead end (greedy).
    Exhausted {
        /// Probe hops consumed, counting forward moves and backtracks —
        /// the setup-cost proxy reported by experiment E3.
        probe_hops: u32,
    },
    /// [`ProbeMachine::commit`] was called before the probe reserved a
    /// complete path; every partial reservation has been released.
    Incomplete,
    /// The probe was torn down mid-flight because a router on its path
    /// failed; every reservation has been released. Unlike
    /// [`SetupError::Unreachable`] this says nothing about the surviving
    /// topology — retrying may well succeed.
    Aborted,
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetupError::Unreachable => write!(f, "destination unreachable"),
            SetupError::Exhausted { probe_hops } => {
                write!(f, "all minimal paths exhausted after {probe_hops} probe hops")
            }
            SetupError::Incomplete => {
                write!(f, "commit before the probe reserved a complete path")
            }
            SetupError::Aborted => {
                write!(f, "probe aborted: a router on its path failed")
            }
        }
    }
}

impl std::error::Error for SetupError {}

/// The outcome of a successful setup, with search-cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetupReceipt {
    /// The established connection.
    pub conn: NetConnectionId,
    /// Probe hops consumed (forward moves + backtracks).
    pub probe_hops: u32,
}

#[derive(Debug, Clone)]
struct Frame {
    node: NodeId,
    /// Port (and pinned VC) the probe entered this node on; `None` at the
    /// source NI.
    entry: (PortId, Option<VcIndex>),
    /// Reservation made when the probe advanced *from* this node.
    reserved: Option<(ConnRef, PortId, VcIndex)>,
}

/// What one [`ProbeMachine::advance`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeStep {
    /// The probe moved forward one router.
    Advanced,
    /// The probe released a reservation and moved back one router.
    Backtracked,
    /// Every hop is reserved; the path is complete (acknowledgment pending).
    Reserved,
    /// The search failed; all reservations have been released.
    Failed(SetupError),
}

/// The incremental EPB/greedy probe state machine (§3.5, §4.2).
#[derive(Debug, Clone)]
pub struct ProbeMachine {
    src: NodeId,
    dst: NodeId,
    class: QosClass,
    strategy: SetupStrategy,
    stack: Vec<Frame>,
    /// History store: outputs already searched, per node. The probe visits
    /// each node at one minimal-path distance, so per-node histories are
    /// equivalent to the paper's per-input-VC stores here.
    history: BTreeMap<NodeId, Vec<PortId>>,
    probe_hops: u32,
}

impl ProbeMachine {
    /// Creates a probe at the source NI, ready to advance. A source without
    /// a terminal port yields a probe whose first [`ProbeMachine::advance`]
    /// fails with [`SetupError::Unreachable`].
    pub fn new(net: &NetworkSim, src: NodeId, dst: NodeId, class: QosClass, strategy: SetupStrategy) -> Self {
        let stack = match net.topology().terminal_port(src) {
            Some(src_ni) => vec![Frame { node: src, entry: (src_ni, None), reserved: None }],
            // No NI to probe from: the empty stack makes advance() fail.
            None => Vec::new(),
        };
        ProbeMachine {
            src,
            dst,
            class,
            strategy,
            stack,
            history: BTreeMap::new(),
            probe_hops: 0,
        }
    }

    /// Routers currently holding a reservation for this probe.
    pub fn path_len(&self) -> usize {
        self.stack.len()
    }

    /// Whether the probe's current stack (source frame included) touches
    /// `node`. Node failure uses this to find probes that must be aborted.
    pub fn visits(&self, node: NodeId) -> bool {
        self.stack.iter().any(|f| f.node == node)
    }

    /// Aborts the probe, releasing every reservation on its stack. Called
    /// when a router on the probe's path fails — before the router is
    /// quarantined, so the releases go through live ledgers.
    pub fn abort(&mut self, net: &mut NetworkSim) {
        self.unwind(net);
    }

    /// Performs one probe move: advance one hop, backtrack one hop, finish,
    /// or fail. Local reservation attempts at the current router happen
    /// within the move (they are register operations, not link crossings).
    pub fn advance(&mut self, net: &mut NetworkSim) -> ProbeStep {
        if net.routing().distance(self.src, self.dst) == usize::MAX {
            return ProbeStep::Failed(SetupError::Unreachable);
        }
        // An empty stack means the source had no NI (or the probe already
        // failed); there is nowhere to probe from.
        let Some(top) = self.stack.len().checked_sub(1) else {
            return ProbeStep::Failed(SetupError::Unreachable);
        };
        let node = self.stack[top].node;

        if node == self.dst {
            // Reserve the final hop to the destination NI.
            let (entry_port, pinned) = self.stack[top].entry;
            let Some(ni) = net.topology().terminal_port(self.dst) else {
                // The destination cannot sink traffic: release everything.
                self.unwind(net);
                return ProbeStep::Failed(SetupError::Unreachable);
            };
            match net.reserve_hop(
                self.dst,
                ConnectionRequest { input: entry_port, output: ni, class: self.class },
                pinned,
            ) {
                Ok(local) => {
                    self.stack[top].reserved = Some((local, ni, VcIndex(0)));
                    return ProbeStep::Reserved;
                }
                Err(_) => {
                    if matches!(self.strategy, SetupStrategy::Greedy) {
                        let hops = self.probe_hops;
                        self.unwind(net);
                        return ProbeStep::Failed(SetupError::Exhausted { probe_hops: hops });
                    }
                    return self.backtrack(net);
                }
            }
        }

        // Profitable (minimal) outputs not yet in the history store,
        // skipping failed wires.
        let here = net.routing().distance(node, self.dst);
        let mut options: Vec<(PortId, NodeId, PortId)> = net
            .live_topology()
            .neighbors(node)
            .into_iter()
            .filter(|&(port, peer, _)| {
                net.routing().distance(peer, self.dst) + 1 == here
                    && !self.history.get(&node).is_some_and(|h| h.contains(&port))
            })
            // mmr-lint: allow(A-TRANS, reason="probe advancement is a connection-setup (control-plane) event, not the per-flit data path")
            .collect();
        // Randomise the search order so concurrent connections spread over
        // equivalent minimal paths.
        if options.len() > 1 {
            net.rng.shuffle(&mut options);
        }

        for (port, peer, peer_port) in options {
            self.history.entry(node).or_default().push(port); // mmr-lint: allow(A-TRANS, reason="probe history is per-setup-event control-plane bookkeeping")
            let (entry_port, pinned) = self.stack[top].entry;
            match net.reserve_hop(
                node,
                ConnectionRequest { input: entry_port, output: port, class: self.class },
                pinned,
            ) {
                Ok(local) => {
                    let Some(out_vc) =
                        net.router(node).connection(local).map(|c| c.output_vc.vc)
                    else {
                        // The reservation vanished between establish and
                        // query; release it and try the next output.
                        if net.release_hop(node, local).is_err() {
                            net.note_ghost_release();
                        }
                        continue;
                    };
                    self.stack[top].reserved = Some((local, port, out_vc));
                    self.stack.push(Frame { // mmr-lint: allow(A-TRANS, reason="the probe stack is per-setup-event control-plane state, bounded by the path length")
                        node: peer,
                        entry: (peer_port, Some(out_vc)),
                        reserved: None,
                    });
                    self.probe_hops += 1;
                    return ProbeStep::Advanced;
                }
                Err(_) => continue,
            }
        }

        // Dead end.
        match self.strategy {
            SetupStrategy::Greedy => {
                let hops = self.probe_hops;
                self.unwind(net);
                ProbeStep::Failed(SetupError::Exhausted { probe_hops: hops })
            }
            SetupStrategy::Epb => self.backtrack(net),
        }
    }

    /// Commits the fully reserved path as a network connection.
    ///
    /// # Errors
    ///
    /// [`SetupError::Incomplete`] unless the preceding
    /// [`ProbeMachine::advance`] returned [`ProbeStep::Reserved`]; every
    /// partial reservation is released before returning.
    pub fn commit(mut self, net: &mut NetworkSim) -> Result<SetupReceipt, SetupError> {
        self.commit_in_place(net)
    }

    /// [`ProbeMachine::commit`] for a machine that is about to be dropped
    /// in place (the probe queue retires its entries without moving them).
    fn commit_in_place(&mut self, net: &mut NetworkSim) -> Result<SetupReceipt, SetupError> {
        if self.stack.is_empty() || self.stack.iter().any(|f| f.reserved.is_none()) {
            self.unwind(net);
            return Err(SetupError::Incomplete);
        }
        let hops: Vec<Hop> = self
            .stack
            .iter()
            .filter_map(|f| f.reserved.map(|(local, _, _)| Hop { node: f.node, local }))
            // mmr-lint: allow(A-TRANS, reason="probe commit is a connection-setup (control-plane) event, not the per-flit data path")
            .collect();
        let conn = net.register_connection(NetConnection {
            id: NetConnectionId(0), // overwritten on registration
            hops,
            next_seq: 0,
        });
        Ok(SetupReceipt { conn, probe_hops: self.probe_hops })
    }

    /// Pops the top frame and releases the reservation that led to it.
    fn backtrack(&mut self, net: &mut NetworkSim) -> ProbeStep {
        self.stack.pop();
        let Some(prev) = self.stack.last_mut() else {
            let hops = self.probe_hops;
            return ProbeStep::Failed(SetupError::Exhausted { probe_hops: hops });
        };
        if let Some((local, _, _)) = prev.reserved.take() {
            let node = prev.node;
            if net.release_hop(node, local).is_err() {
                // The reservation already vanished router-side: count it
                // (the invariant auditor flags real damage) and move on.
                net.note_ghost_release();
            }
        }
        self.probe_hops += 1;
        ProbeStep::Backtracked
    }

    /// Releases every reservation on the stack (greedy failure).
    fn unwind(&mut self, net: &mut NetworkSim) {
        while let Some(frame) = self.stack.pop() {
            if let Some((local, _, _)) = frame.reserved {
                if net.release_hop(frame.node, local).is_err() {
                    net.note_ghost_release();
                }
            }
        }
    }
}

/// One asynchronous setup in flight.
#[derive(Debug)]
struct ActiveProbe {
    token: ProbeToken,
    machine: ProbeMachine,
    started_at: Cycles,
    /// `None` while the probe is still searching/reserving, one move per
    /// cycle. Once the path is fully reserved: the links the acknowledgment
    /// has yet to cross on its way back to the source along the reverse
    /// channel mappings, one per cycle.
    ack_left: Option<usize>,
}

/// The asynchronous setups a network has in flight
/// ([`NetworkSim::request_connection`]), advanced one move per flit cycle.
#[derive(Debug, Default)]
pub(crate) struct ProbeQueue {
    active: Vec<ActiveProbe>,
    /// Probes aborted by a node failure, reported as
    /// [`SetupError::Aborted`] completions by the next
    /// [`NetworkSim::step`]: `(token, started_at)`.
    aborted: Vec<(ProbeToken, Cycles)>,
    next_token: u64,
}

impl NetworkSim {
    /// Starts an *asynchronous* connection setup: the routing probe departs
    /// from `src`'s NI and moves one router per flit cycle (reserving,
    /// backtracking, or failing), and on success the acknowledgment returns
    /// to the source along the reverse channel mappings, one link per cycle
    /// (§4.2). The completion — with its measured setup latency — appears in
    /// a later [`NetStepReport::setups`](crate::network::NetStepReport::setups).
    pub fn request_connection(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: QosClass,
        strategy: SetupStrategy,
        now: Cycles,
    ) -> ProbeToken {
        let token = ProbeToken(self.probes.next_token);
        self.probes.next_token += 1;
        let machine = ProbeMachine::new(self, src, dst, class, strategy);
        self.probes.active.push(ActiveProbe { token, machine, started_at: now, ack_left: None });
        token
    }

    /// For tests: the probes still in flight.
    #[doc(hidden)]
    pub fn probes_in_flight(&self) -> usize {
        self.probes.active.len()
    }

    /// The probe phase of [`NetworkSim::step`]: every in-flight probe (or
    /// returning acknowledgment) makes one move, and setups that finished
    /// this cycle are appended to `done` in launch order.
    pub(crate) fn advance_probes(&mut self, now: Cycles, done: &mut Vec<SetupEvent>) {
        // The queue steps aside while its machines mutate the network.
        let mut queue = std::mem::take(&mut self.probes);
        // Probes torn down by a node failure complete as `Aborted` here,
        // with latency measured like any other completion.
        for (token, started_at) in queue.aborted.drain(..) {
            // mmr-lint: allow(A-TRANS, reason="per-step report handed to the caller by value; setup completions are control-plane rare")
            done.push(SetupEvent {
                token,
                result: Err(SetupError::Aborted),
                latency: now.since(started_at),
            });
        }
        queue.active.retain_mut(|probe| {
            let result = match probe.ack_left {
                None => match probe.machine.advance(self) {
                    ProbeStep::Advanced | ProbeStep::Backtracked => return true,
                    ProbeStep::Reserved => {
                        // The ack crosses every inter-router link on the
                        // reserved path, one per cycle.
                        probe.ack_left = Some(probe.machine.path_len().saturating_sub(1));
                        return true;
                    }
                    ProbeStep::Failed(e) => {
                        if e == SetupError::Unreachable {
                            self.note_partition();
                        }
                        Err(e)
                    }
                },
                Some(0) => probe.machine.commit_in_place(self).map(|receipt| receipt.conn),
                Some(left) => {
                    probe.ack_left = Some(left - 1);
                    return true;
                }
            };
            // mmr-lint: allow(A-TRANS, reason="per-step report handed to the caller by value; setup completions are control-plane rare")
            done.push(SetupEvent { token: probe.token, result, latency: now.since(probe.started_at) });
            false
        });
        self.probes = queue;
    }

    /// Aborts every in-flight probe whose stack touches `node` (it is
    /// dying), releasing their partial reservations. The completions
    /// surface as [`SetupError::Aborted`] on the next step.
    pub(crate) fn abort_probes_visiting(&mut self, node: NodeId) {
        let mut queue = std::mem::take(&mut self.probes);
        queue.active.retain_mut(|probe| {
            let doomed = probe.machine.visits(node);
            if doomed {
                probe.machine.abort(self);
                queue.aborted.push((probe.token, probe.started_at));
            }
            !doomed
        });
        self.probes = queue;
    }

    /// Establishes a connection from `src`'s NI to `dst`'s NI with the given
    /// class, searching minimal paths per the chosen strategy and reserving
    /// VCs and bandwidth hop by hop. The search runs to completion
    /// immediately; use [`NetworkSim::request_connection`] for the
    /// cycle-accurate probe.
    ///
    /// # Errors
    ///
    /// [`SetupError`] when no minimal path with sufficient resources exists;
    /// all partial reservations are released.
    pub fn establish(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: QosClass,
        strategy: SetupStrategy,
    ) -> Result<NetConnectionId, SetupError> {
        self.establish_with_receipt(src, dst, class, strategy).map(|r| r.conn)
    }

    /// [`NetworkSim::establish`] with probe-cost accounting.
    ///
    /// # Errors
    ///
    /// As [`NetworkSim::establish`].
    pub fn establish_with_receipt(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: QosClass,
        strategy: SetupStrategy,
    ) -> Result<SetupReceipt, SetupError> {
        let mut probe = ProbeMachine::new(self, src, dst, class, strategy);
        loop {
            match probe.advance(self) {
                ProbeStep::Advanced | ProbeStep::Backtracked => continue,
                ProbeStep::Reserved => return probe.commit(self),
                ProbeStep::Failed(e) => {
                    if e == SetupError::Unreachable {
                        self.note_partition();
                    }
                    return Err(e);
                }
            }
        }
    }
}

/// Convenience: a CBR class from Mbps (used heavily by examples and tests).
pub fn cbr_mbps(mbps: f64) -> QosClass {
    QosClass::Cbr { rate: Bandwidth::from_mbps(mbps) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use mmr_core::router::RouterConfig;

    fn net(vcs: u16) -> NetworkSim {
        let topology = Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget");
        NetworkSim::new(topology, RouterConfig::paper_default().vcs_per_port(vcs).candidates(4))
    }

    #[test]
    fn setup_reserves_a_minimal_path() {
        let mut n = net(16);
        let receipt = n
            .establish_with_receipt(NodeId(0), NodeId(8), cbr_mbps(10.0), SetupStrategy::Epb)
            .expect("resources abundant");
        // Minimal 0->8 distance is 4: the probe advanced 4 times plus the
        // source frame; no backtracking needed.
        assert_eq!(receipt.probe_hops, 4);
        let conn = n.connection(receipt.conn).expect("registered");
        assert_eq!(conn.hops.len(), 5, "five routers on a minimal 0->8 path");
        assert_eq!(conn.hops.first().map(|h| h.node), Some(NodeId(0)));
        assert_eq!(conn.hops.last().map(|h| h.node), Some(NodeId(8)));
    }

    #[test]
    fn adjacent_vcs_are_pinned_consistently() {
        let mut n = net(16);
        let id = n
            .establish(NodeId(0), NodeId(2), cbr_mbps(10.0), SetupStrategy::Epb)
            .expect("path exists");
        let conn = n.connection(id).expect("registered").clone();
        for pair in conn.hops.windows(2) {
            let up = n.router(pair[0].node).connection(pair[0].local).expect("live");
            let down = n.router(pair[1].node).connection(pair[1].local).expect("live");
            // The VC chosen on the upstream output is the VC reserved on the
            // downstream input (they are two views of the same wire).
            assert_eq!(up.output_vc.vc, down.input_vc.vc);
            let (peer, peer_port) = n
                .topology()
                .peer_of(pair[0].node, up.output_vc.port)
                .expect("wired");
            assert_eq!(peer, pair[1].node);
            assert_eq!(peer_port, down.input_vc.port);
        }
    }

    #[test]
    fn bandwidth_exhaustion_fails_cleanly() {
        let mut n = net(64);
        // Saturate node 0's network interface (two half-link-rate streams
        // fill its single terminal input link), then ask for one more.
        n.establish(NodeId(0), NodeId(1), cbr_mbps(620.0), SetupStrategy::Epb).expect("first");
        n.establish(NodeId(0), NodeId(3), cbr_mbps(620.0), SetupStrategy::Epb).expect("second");
        let before: usize = (0..9).map(|i| n.router(NodeId(i)).connections()).sum();
        let err = n
            .establish(NodeId(0), NodeId(8), cbr_mbps(124.0), SetupStrategy::Epb)
            .expect_err("no bandwidth off node 0");
        assert!(matches!(err, SetupError::Exhausted { .. }));
        let after: usize = (0..9).map(|i| n.router(NodeId(i)).connections()).sum();
        assert_eq!(before, after, "failed setup releases everything");
    }

    #[test]
    fn epb_backtracks_around_a_saturated_region() {
        let mut n = net(64);
        // Saturate the central column links 1->4 and 4->7 so minimal paths
        // through the centre fail, but side paths survive. 0 -> 8 has many
        // minimal paths; block a few and EPB must still succeed.
        n.establish(NodeId(1), NodeId(4), cbr_mbps(1240.0), SetupStrategy::Epb).expect("block");
        n.establish(NodeId(4), NodeId(7), cbr_mbps(1240.0), SetupStrategy::Epb).expect("block");
        let receipt = n
            .establish_with_receipt(NodeId(0), NodeId(8), cbr_mbps(620.0), SetupStrategy::Epb)
            .expect("EPB finds a clear minimal path");
        assert_eq!(
            n.connection(receipt.conn).expect("registered").hops.len(),
            5,
            "still a minimal path"
        );
    }

    #[test]
    fn epb_succeeds_where_greedy_may_fail() {
        // Statistical comparison: with scarce VCs, EPB's success rate
        // dominates greedy's.
        let mut epb_ok = 0;
        let mut greedy_ok = 0;
        let trials = 30;
        for seed in 0..trials {
            for (strategy, counter) in
                [(SetupStrategy::Epb, &mut epb_ok), (SetupStrategy::Greedy, &mut greedy_ok)]
            {
                let topology = Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget");
                let mut n = NetworkSim::new(
                    topology,
                    RouterConfig::paper_default().vcs_per_port(4).candidates(2).seed(seed),
                );
                // Pre-load with random connections to create scarcity.
                let mut rng = mmr_sim::SeededRng::new(seed);
                for _ in 0..12 {
                    let a = NodeId(rng.index(9) as u16);
                    let b = NodeId(rng.index(9) as u16);
                    if a != b {
                        let _ = n.establish(a, b, cbr_mbps(124.0), SetupStrategy::Epb);
                    }
                }
                if n.establish(NodeId(0), NodeId(8), cbr_mbps(124.0), strategy).is_ok() {
                    *counter += 1;
                }
            }
        }
        assert!(
            epb_ok >= greedy_ok,
            "EPB ({epb_ok}/{trials}) at least matches greedy ({greedy_ok}/{trials})"
        );
    }

    #[test]
    fn unreachable_destination_is_reported() {
        // Two disconnected nodes.
        let topology = Topology::new(2, 4);
        let mut n = NetworkSim::new(topology, RouterConfig::paper_default().vcs_per_port(4).candidates(2));
        let err = n
            .establish(NodeId(0), NodeId(1), cbr_mbps(1.0), SetupStrategy::Epb)
            .expect_err("no wire between the nodes");
        assert_eq!(err, SetupError::Unreachable);
    }

    #[test]
    fn probe_machine_steps_are_observable() {
        let mut n = net(16);
        let mut probe =
            ProbeMachine::new(&n, NodeId(0), NodeId(8), cbr_mbps(10.0), SetupStrategy::Epb);
        let mut advances = 0;
        loop {
            match probe.advance(&mut n) {
                ProbeStep::Advanced => advances += 1,
                ProbeStep::Reserved => break,
                other => panic!("unexpected step {other:?}"),
            }
        }
        assert_eq!(advances, 4, "one advance per minimal hop");
        assert_eq!(probe.path_len(), 5);
        let receipt = probe.commit(&mut n).expect("path fully reserved");
        assert_eq!(receipt.probe_hops, 4);
    }
}
