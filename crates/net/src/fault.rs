//! Deterministic fault-injection campaigns.
//!
//! A [`FaultPlan`] is a schedule of *permanent* faults (link failures and
//! repairs, whole-router failures and repairs) and *transient* wire faults
//! (a corrupted or dropped flit) at flit-cycle granularity. Plans are plain
//! data — built by hand for targeted tests or generated from a seed by
//! [`FaultPlan::seeded_campaign`] / [`FaultPlan::seeded_node_campaign`] /
//! [`FaultPlan::seeded_chaos_campaign`], composable via
//! [`FaultPlan::merged`] — so a campaign is reproducible from
//! `(topology, seed, parameters)` alone,
//! independent of execution order. Construction is validated:
//! [`FaultPlan::normalized`] sorts events into firing order and rejects
//! contradictory schedules (a fail *and* a repair of the same wire in the
//! same cycle) instead of silently relying on insertion order.
//!
//! A [`FaultInjector`] walks the plan against a live [`NetworkSim`],
//! applying every event that has come due and reporting which established
//! connections each permanent fault tore down (feed those to a
//! [`crate::recovery::RecoveryManager`] to close the loop). Transient
//! events arm the addressed wire endpoint: the next flit delivered into it
//! is corrupted or dropped (see [`NetworkSim::arm_transient`]).

use mmr_core::ids::PortId;
use mmr_sim::{Cycles, SeededRng};

use crate::network::{NetConnectionId, NetworkSim, TransientKind};
use crate::topology::{NodeId, Topology};

/// What a scheduled fault event does to its wire or node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Take the wire down ([`NetworkSim::fail_link`]).
    Fail,
    /// Splice the wire back ([`NetworkSim::repair_link`]).
    Repair,
    /// Take the whole router down ([`NetworkSim::fail_node`]); the event's
    /// `port` is ignored.
    FailNode,
    /// Bring the router back ([`NetworkSim::repair_node`]); the event's
    /// `port` is ignored.
    RepairNode,
    /// Transient: flip a payload bit of the next flit delivered into the
    /// addressed endpoint (CRC-detectable wire corruption).
    CorruptFlit,
    /// Transient: drop the next flit delivered into the addressed endpoint.
    DropFlit,
}

impl FaultAction {
    /// Whether the action changes topology (link or node fail/repair)
    /// rather than damaging a single flit.
    pub fn is_permanent(self) -> bool {
        !matches!(self, FaultAction::CorruptFlit | FaultAction::DropFlit)
    }

    /// Whether the action addresses a whole node rather than a wire
    /// endpoint.
    pub fn is_node(self) -> bool {
        matches!(self, FaultAction::FailNode | FaultAction::RepairNode)
    }
}

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Flit cycle the event fires at.
    pub at: Cycles,
    /// What happens.
    pub action: FaultAction,
    /// Node owning the addressed endpoint.
    pub node: NodeId,
    /// Port of the addressed endpoint. For permanent faults either end of
    /// the wire works; transients strike flits arriving *into* this
    /// endpoint.
    pub port: PortId,
}

/// Why a [`FaultPlan`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlanError {
    /// The plan schedules both a failure and a repair of the same endpoint
    /// in the same cycle — the outcome would depend on insertion order.
    Conflict {
        /// Cycle of the contradiction.
        at: Cycles,
        /// Node of the twice-addressed endpoint.
        node: NodeId,
        /// Port of the twice-addressed endpoint.
        port: PortId,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::Conflict { at, node, port } => write!(
                f,
                "fault plan schedules both fail and repair of {node}.{port} at cycle {}",
                at.count()
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A deterministic schedule of permanent and transient wire faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// A plan of the given events, in the given order (the injector sorts
/// them into firing order).
impl FromIterator<FaultEvent> for FaultPlan {
    fn from_iter<I: IntoIterator<Item = FaultEvent>>(events: I) -> Self {
        FaultPlan { events: events.into_iter().collect() }
    }
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a link failure at `at`.
    pub fn fail_at(mut self, at: Cycles, node: NodeId, port: PortId) -> Self {
        self.events.push(FaultEvent { at, action: FaultAction::Fail, node, port });
        self
    }

    /// Schedules a link repair at `at`.
    pub fn repair_at(mut self, at: Cycles, node: NodeId, port: PortId) -> Self {
        self.events.push(FaultEvent { at, action: FaultAction::Repair, node, port });
        self
    }

    /// Schedules a whole-router failure at `at` (the port field is a
    /// placeholder; node events address the node alone).
    pub fn fail_node_at(mut self, at: Cycles, node: NodeId) -> Self {
        self.events.push(FaultEvent { at, action: FaultAction::FailNode, node, port: PortId(0) });
        self
    }

    /// Schedules a router repair at `at`.
    pub fn repair_node_at(mut self, at: Cycles, node: NodeId) -> Self {
        self.events
            .push(FaultEvent { at, action: FaultAction::RepairNode, node, port: PortId(0) });
        self
    }

    /// For tests: the plan's events in firing order.
    #[doc(hidden)]
    pub fn events(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter()
    }

    /// Sorts events into firing order (stable, so same-cycle events keep
    /// insertion order), drops *identical* duplicate permanent events, and
    /// rejects contradictory schedules. Node events conflict only with node
    /// events on the same node; wire events only with wire events on the
    /// same endpoint — a node failure and a link failure in the same cycle
    /// are two different faults, not a contradiction.
    ///
    /// Duplicate transients at the same endpoint are kept — each one arms
    /// the wire for one more flit.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::Conflict`] when the same endpoint (or node) is
    /// both failed and repaired in the same cycle.
    pub fn normalized(mut self) -> Result<Self, FaultPlanError> {
        self.events.sort_by_key(|e| e.at);
        let mut out: Vec<FaultEvent> = Vec::with_capacity(self.events.len());
        for ev in self.events {
            if ev.action.is_permanent() {
                let same_slot = out.iter().rev().take_while(|p| p.at == ev.at).find(|p| {
                    p.action.is_permanent()
                        && p.action.is_node() == ev.action.is_node()
                        && p.node == ev.node
                        && (ev.action.is_node() || p.port == ev.port)
                });
                if let Some(prev) = same_slot {
                    if prev.action == ev.action {
                        continue; // identical duplicate: keep one
                    }
                    return Err(FaultPlanError::Conflict {
                        at: ev.at,
                        node: ev.node,
                        port: ev.port,
                    });
                }
            }
            out.push(ev);
        }
        Ok(FaultPlan { events: out })
    }

    /// Merges another plan into this one, re-sorting into firing order
    /// (stable: same-cycle events keep `self`-before-`other` order). Lets a
    /// campaign combine a seeded link schedule with a seeded node schedule.
    pub fn merged(mut self, other: FaultPlan) -> Self {
        self.events.extend(other.events);
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Generates a seeded random campaign of *permanent* faults over
    /// `topology`: `faults` wire failures at cycles drawn uniformly from
    /// `window`, each repaired `outage` cycles after it strikes. A wire that
    /// is scheduled down is never double-failed — the generator tracks
    /// planned outages and draws another wire — so every generated event
    /// applies cleanly. The result is a pure function of the arguments (one
    /// private RNG stream).
    pub fn seeded_campaign(
        topology: &Topology,
        seed: u64,
        faults: usize,
        window: std::ops::Range<u64>,
        outage: Cycles,
    ) -> Self {
        let wires = topology.wires();
        let mut plan = FaultPlan::new();
        for (w, at, down) in seeded_outages(seed ^ 0xFA17_CA4F, wires.len(), faults, window, outage) {
            let (node, port) = wires[w].a;
            plan = plan.fail_at(Cycles(at), node, port).repair_at(Cycles(down), node, port);
        }
        plan.events.sort_by_key(|e| e.at);
        plan
    }

    /// Generates a seeded random campaign of *whole-router* faults over
    /// `topology`: `node_faults` router failures at cycles drawn uniformly
    /// from `window`, each repaired `outage` cycles after it strikes. A
    /// router scheduled down is never double-failed — planned outages are
    /// tracked and another node drawn — so every generated event applies
    /// cleanly. The RNG stream is salted differently from the link
    /// campaign, so the two schedules compose via [`FaultPlan::merged`]
    /// without correlation. The result is a pure function of the arguments.
    pub fn seeded_node_campaign(
        topology: &Topology,
        seed: u64,
        node_faults: usize,
        window: std::ops::Range<u64>,
        outage: Cycles,
    ) -> Self {
        let mut plan = FaultPlan::new();
        let outages =
            seeded_outages(seed ^ 0x0DE0_FA17, topology.nodes(), node_faults, window, outage);
        for (c, at, down) in outages {
            let node = NodeId(c as u16);
            plan = plan.fail_node_at(Cycles(at), node).repair_node_at(Cycles(down), node);
        }
        plan.events.sort_by_key(|e| e.at);
        plan
    }

    /// Generates a seeded *mixed* campaign: the permanent schedule of
    /// [`FaultPlan::seeded_campaign`] plus `transients` corrupt/drop events
    /// (50/50, on a uniformly drawn wire endpoint, at a cycle drawn from
    /// `window`). Transient cycles avoid none of the outages — a transient
    /// armed on a downed wire simply waits for traffic to resume. The
    /// result is a pure function of the arguments.
    pub fn seeded_chaos_campaign(
        topology: &Topology,
        seed: u64,
        faults: usize,
        transients: usize,
        window: std::ops::Range<u64>,
        outage: Cycles,
    ) -> Self {
        let mut plan =
            FaultPlan::seeded_campaign(topology, seed, faults, window.clone(), outage);
        let wires = topology.wires();
        if wires.is_empty() || window.is_empty() {
            return plan;
        }
        let mut rng = SeededRng::new(seed ^ 0x7A4E_51E7);
        for _ in 0..transients {
            let at = window.start + rng.index((window.end - window.start) as usize) as u64;
            let wire = wires[rng.index(wires.len())];
            // Either direction of the wire: transients strike arriving flits.
            let (node, port) = if rng.index(2) == 0 { wire.a } else { wire.b };
            let action =
                if rng.index(2) == 0 { FaultAction::CorruptFlit } else { FaultAction::DropFlit };
            plan.events.push(FaultEvent { at: Cycles(at), action, node, port });
        }
        plan.events.sort_by_key(|e| e.at);
        plan
    }
}

/// The outage scheduler behind both permanent-fault campaigns: `count`
/// strike cycles drawn uniformly from `window`, each hitting one of
/// `targets` failable things (wires or routers, by index) for `outage`
/// cycles. A target already planned down at the strike is never
/// double-failed — another is drawn, up to |targets| times, else the strike
/// is dropped. An empty window (or nothing to fail) plans nothing. Returns
/// `(target, fail cycle, repair cycle)` in strike order; the draw order (all
/// strikes, then targets per sorted strike) is what the committed seeds pin.
fn seeded_outages(
    salted_seed: u64,
    targets: usize,
    count: usize,
    window: std::ops::Range<u64>,
    outage: Cycles,
) -> Vec<(usize, u64, u64)> {
    let mut planned: Vec<(usize, u64, u64)> = Vec::with_capacity(count);
    if targets == 0 || window.is_empty() {
        return planned;
    }
    let mut rng = SeededRng::new(salted_seed);
    let mut strikes: Vec<u64> = (0..count)
        .map(|_| window.start + rng.index((window.end - window.start) as usize) as u64)
        .collect();
    strikes.sort_unstable();
    for at in strikes {
        let down = at + outage.0;
        for _ in 0..targets.max(4) {
            let target = rng.index(targets);
            if !planned.iter().any(|&(p, f, r)| p == target && at < r && down > f) {
                planned.push((target, at, down));
                break;
            }
        }
    }
    planned
}

/// What one [`FaultInjector::poll`] call did to the network.
#[derive(Debug, Clone, Default)]
pub struct FaultTick {
    /// Wires taken down this cycle.
    pub failed: Vec<(NodeId, PortId)>,
    /// Wires spliced back this cycle.
    pub repaired: Vec<(NodeId, PortId)>,
    /// Routers quarantined this cycle.
    pub nodes_failed: Vec<NodeId>,
    /// Routers brought back this cycle.
    pub nodes_repaired: Vec<NodeId>,
    /// Connections torn down by this cycle's failures (link and node).
    pub broken: Vec<NetConnectionId>,
    /// Transient events armed this cycle (corrupts + drops).
    pub transients_armed: usize,
}

impl FaultTick {
    /// Whether anything happened.
    pub fn is_quiet(&self) -> bool {
        self.failed.is_empty()
            && self.repaired.is_empty()
            && self.nodes_failed.is_empty()
            && self.nodes_repaired.is_empty()
            && self.broken.is_empty()
            && self.transients_armed == 0
    }
}

/// Walks a [`FaultPlan`] against a live network, one poll per flit cycle.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    cursor: usize,
    skipped: u64,
}

impl FaultInjector {
    /// An injector at the start of `plan`, normalizing it first (see
    /// [`FaultPlan::normalized`]).
    ///
    /// # Errors
    ///
    /// [`FaultPlanError`] when the plan is contradictory.
    pub fn new(plan: FaultPlan) -> Result<Self, FaultPlanError> {
        let plan = plan.normalized()?;
        Ok(FaultInjector { plan, cursor: 0, skipped: 0 })
    }

    /// For tests: the events not yet fired.
    #[doc(hidden)]
    pub fn pending(&self) -> usize {
        self.plan.events.len() - self.cursor
    }

    /// For tests: the events that named no wire or node and were skipped.
    #[doc(hidden)]
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Applies every event due at or before `now`. Inapplicable events
    /// (double failure, repairing a live wire, an address that is no wire
    /// or no node of this fabric) are counted in
    /// [`FaultInjector::skipped`] rather than aborting the campaign.
    pub fn poll(&mut self, net: &mut NetworkSim, now: Cycles) -> FaultTick {
        let mut tick = FaultTick::default();
        while let Some(ev) = self.plan.events.get(self.cursor) {
            if ev.at > now {
                break;
            }
            let ev = *ev;
            self.cursor += 1;
            match ev.action {
                FaultAction::Fail => match net.fail_link(ev.node, ev.port) {
                    Ok(broken) => {
                        tick.failed.push((ev.node, ev.port));
                        tick.broken.extend(broken);
                    }
                    Err(_) => self.skipped += 1,
                },
                FaultAction::Repair => match net.repair_link(ev.node, ev.port) {
                    Ok(()) => tick.repaired.push((ev.node, ev.port)),
                    Err(_) => self.skipped += 1,
                },
                FaultAction::FailNode => match net.fail_node(ev.node) {
                    Ok(broken) => {
                        tick.nodes_failed.push(ev.node);
                        tick.broken.extend(broken);
                    }
                    Err(_) => self.skipped += 1,
                },
                FaultAction::RepairNode => match net.repair_node(ev.node) {
                    Ok(()) => tick.nodes_repaired.push(ev.node),
                    Err(_) => self.skipped += 1,
                },
                FaultAction::CorruptFlit | FaultAction::DropFlit => {
                    let kind = if ev.action == FaultAction::CorruptFlit {
                        TransientKind::Corrupt
                    } else {
                        TransientKind::Drop
                    };
                    match net.arm_transient(ev.node, ev.port, kind) {
                        Ok(()) => tick.transients_armed += 1,
                        Err(_) => self.skipped += 1,
                    }
                }
            }
        }
        tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::mesh_net;
    use mmr_core::router::RouterConfig;

    fn event(at: u64, action: FaultAction, node: NodeId, port: PortId) -> FaultEvent {
        FaultEvent { at: Cycles(at), action, node, port }
    }

    #[test]
    fn injector_applies_fail_then_repair_on_schedule() {
        let mut net = mesh_net();
        let wire = net.topology().wires()[0];
        let plan = FaultPlan::new()
            .fail_at(Cycles(5), wire.a.0, wire.a.1)
            .repair_at(Cycles(12), wire.a.0, wire.a.1);
        let mut inj = FaultInjector::new(plan).expect("consistent plan");
        assert_eq!(inj.pending(), 2);
        for t in 0..20u64 {
            let tick = inj.poll(&mut net, Cycles(t));
            match t {
                5 => assert_eq!(tick.failed, vec![wire.a]),
                12 => assert_eq!(tick.repaired, vec![wire.a]),
                _ => assert!(tick.is_quiet(), "t={t}: {tick:?}"),
            }
            let expect_ok = !(5..12).contains(&t);
            assert_eq!(net.link_ok(wire.a.0, wire.a.1), expect_ok, "t={t}");
            net.step(Cycles(t));
        }
        assert_eq!(inj.pending(), 0);
        assert_eq!(inj.skipped(), 0);
        assert_eq!(net.stats().links_failed, 1);
        assert_eq!(net.stats().links_repaired, 1);
    }

    #[test]
    fn inapplicable_events_are_skipped_not_fatal() {
        let mut net = mesh_net();
        let wire = net.topology().wires()[0];
        // Double failure (in different cycles) and a repair of a live wire.
        let plan = FaultPlan::new()
            .fail_at(Cycles(1), wire.a.0, wire.a.1)
            .fail_at(Cycles(2), wire.a.0, wire.a.1)
            .repair_at(Cycles(3), wire.a.0, wire.a.1)
            .repair_at(Cycles(4), wire.a.0, wire.a.1);
        let mut inj = FaultInjector::new(plan).expect("consistent plan");
        for t in 0..6u64 {
            inj.poll(&mut net, Cycles(t));
        }
        assert_eq!(inj.skipped(), 2);
        assert!(net.link_ok(wire.a.0, wire.a.1));
    }

    #[test]
    fn events_naming_no_wire_or_node_are_skipped_not_fatal() {
        let mut net = mesh_net();
        let ni = net.topology().terminal_port(NodeId(0)).expect("every mesh node has an NI");
        let plan: FaultPlan = [
            event(1, FaultAction::Fail, NodeId(0), ni),
            event(2, FaultAction::FailNode, NodeId(99), PortId(0)),
            event(3, FaultAction::DropFlit, NodeId(4), PortId(200)),
        ]
        .into_iter()
        .collect();
        let mut inj = FaultInjector::new(plan).expect("consistent plan");
        for t in 0..5u64 {
            assert!(inj.poll(&mut net, Cycles(t)).is_quiet(), "t={t}");
        }
        assert_eq!((inj.pending(), inj.skipped()), (0, 3));
        assert_eq!(net.topology_epoch(), 0, "nothing was applied");
    }

    #[test]
    fn an_empty_window_plans_nothing() {
        let topo = Topology::torus2d(3, 3, 8).expect("topology wires within the port budget");
        for plan in [
            FaultPlan::seeded_campaign(&topo, 1, 4, 50..50, Cycles(10)),
            FaultPlan::seeded_node_campaign(&topo, 1, 4, 50..50, Cycles(10)),
            FaultPlan::seeded_chaos_campaign(&topo, 1, 4, 4, 50..50, Cycles(10)),
        ] {
            assert!(plan.events.is_empty());
        }
    }

    #[test]
    fn normalization_sorts_out_of_order_events() {
        let wire_node = NodeId(0);
        let plan = FaultPlan::new()
            .repair_at(Cycles(9), wire_node, PortId(0))
            .fail_at(Cycles(2), wire_node, PortId(0))
            .normalized()
            .expect("consistent plan");
        let cycles: Vec<u64> = plan.events().map(|e| e.at.count()).collect();
        assert_eq!(cycles, vec![2, 9], "events sorted into firing order");
    }

    #[test]
    fn normalization_drops_identical_duplicates() {
        let plan = FaultPlan::new()
            .fail_at(Cycles(5), NodeId(1), PortId(2))
            .fail_at(Cycles(5), NodeId(1), PortId(2))
            .normalized()
            .expect("duplicates are not a contradiction");
        assert_eq!(plan.events.len(), 1);
    }

    #[test]
    fn normalization_rejects_same_cycle_fail_and_repair() {
        let err = FaultPlan::new()
            .fail_at(Cycles(7), NodeId(3), PortId(1))
            .repair_at(Cycles(7), NodeId(3), PortId(1))
            .normalized()
            .expect_err("contradiction");
        assert_eq!(
            err,
            FaultPlanError::Conflict { at: Cycles(7), node: NodeId(3), port: PortId(1) }
        );
        assert!(err.to_string().contains("cycle 7"), "{err}");
    }

    #[test]
    fn duplicate_transients_are_kept_one_per_flit() {
        let corrupt = event(4, FaultAction::CorruptFlit, NodeId(0), PortId(0));
        let drop = event(4, FaultAction::DropFlit, NodeId(0), PortId(0));
        let plan = [corrupt, corrupt, drop].into_iter().collect::<FaultPlan>();
        let plan = plan.normalized().expect("transient duplicates are legal");
        assert_eq!(plan.events.len(), 3, "each transient arms one more flit");
    }

    #[test]
    fn transient_events_arm_the_wire() {
        let mut net = mesh_net();
        let wire = net.topology().wires()[0];
        let plan = [event(2, FaultAction::CorruptFlit, wire.a.0, wire.a.1)].into_iter().collect();
        let mut inj = FaultInjector::new(plan).expect("consistent plan");
        let tick = inj.poll(&mut net, Cycles(2));
        assert_eq!(tick.transients_armed, 1);
        assert!(!tick.is_quiet());
    }

    #[test]
    fn seeded_campaigns_are_reproducible_and_self_consistent() {
        let topo = Topology::torus2d(3, 3, 8).expect("topology wires within the port budget");
        let a = FaultPlan::seeded_campaign(&topo, 77, 6, 100..2_000, Cycles(300));
        let b = FaultPlan::seeded_campaign(&topo, 77, 6, 100..2_000, Cycles(300));
        assert_eq!(a.events().count(), b.events().count());
        for (x, y) in a.events().zip(b.events()) {
            assert_eq!(x, y, "same seed, same plan");
        }
        let c = FaultPlan::seeded_campaign(&topo, 78, 6, 100..2_000, Cycles(300));
        assert!(
            a.events().zip(c.events()).any(|(x, y)| x != y) || a.events.len() != c.events.len(),
            "different seeds diverge"
        );
        // Every generated event applies cleanly.
        let mut net = NetworkSim::new(
            topo,
            RouterConfig::paper_default().vcs_per_port(8).candidates(2),
        );
        let mut inj = FaultInjector::new(a).expect("generated plans are consistent");
        for t in 0..2_500u64 {
            inj.poll(&mut net, Cycles(t));
        }
        assert_eq!(inj.pending(), 0);
        assert_eq!(inj.skipped(), 0, "campaign generator never plans a double failure");
        assert_eq!(net.stats().links_failed, net.stats().links_repaired);
    }

    #[test]
    fn node_events_conflict_only_with_node_events() {
        // Same-cycle fail+repair of one node is contradictory.
        let err = FaultPlan::new()
            .fail_node_at(Cycles(7), NodeId(3))
            .repair_node_at(Cycles(7), NodeId(3))
            .normalized()
            .expect_err("contradiction");
        assert!(matches!(err, FaultPlanError::Conflict { node: NodeId(3), .. }));
        // A node event and a wire event on port 0 of the same node in the
        // same cycle are two different faults, not a contradiction.
        let plan = FaultPlan::new()
            .fail_node_at(Cycles(7), NodeId(3))
            .repair_at(Cycles(7), NodeId(3), PortId(0))
            .normalized()
            .expect("node and wire domains are disjoint");
        assert_eq!(plan.events.len(), 2);
        // Identical duplicate node events collapse to one.
        let plan = FaultPlan::new()
            .fail_node_at(Cycles(5), NodeId(1))
            .fail_node_at(Cycles(5), NodeId(1))
            .normalized()
            .expect("duplicates are not a contradiction");
        assert_eq!(plan.events.len(), 1);
    }

    #[test]
    fn seeded_node_campaigns_are_reproducible_and_self_consistent() {
        let topo = Topology::torus2d(3, 3, 8).expect("topology wires within the port budget");
        let a = FaultPlan::seeded_node_campaign(&topo, 77, 3, 100..2_000, Cycles(300));
        let b = FaultPlan::seeded_node_campaign(&topo, 77, 3, 100..2_000, Cycles(300));
        assert_eq!(a.events, b.events);
        assert!(a.events().all(|e| e.action.is_node()));
        // Every generated event applies cleanly to a live network.
        let mut net = NetworkSim::new(
            topo,
            RouterConfig::paper_default().vcs_per_port(8).candidates(2),
        );
        let mut inj = FaultInjector::new(a).expect("generated plans are consistent");
        for t in 0..2_500u64 {
            inj.poll(&mut net, Cycles(t));
        }
        assert_eq!(inj.pending(), 0);
        assert_eq!(inj.skipped(), 0, "generator never plans a double node failure");
        assert_eq!(net.stats().nodes_failed, net.stats().nodes_repaired);
        assert!(net.stats().nodes_failed > 0);
    }

    #[test]
    fn merged_plans_interleave_by_cycle_and_stay_consistent() {
        let topo = Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget");
        let links = FaultPlan::seeded_campaign(&topo, 9, 4, 100..2_000, Cycles(300));
        let nodes = FaultPlan::seeded_node_campaign(&topo, 9, 2, 100..2_000, Cycles(300));
        let merged = links.clone().merged(nodes.clone());
        assert_eq!(merged.events.len(), links.events.len() + nodes.events.len());
        let mut last = 0u64;
        for ev in merged.events() {
            assert!(ev.at.count() >= last, "merged events sorted into firing order");
            last = ev.at.count();
        }
        merged.normalized().expect("independent seeded schedules merge cleanly");
    }

    #[test]
    fn chaos_campaigns_extend_the_permanent_schedule() {
        let topo = Topology::torus2d(3, 3, 8).expect("topology wires within the port budget");
        let base = FaultPlan::seeded_campaign(&topo, 77, 4, 100..2_000, Cycles(300));
        let chaos = FaultPlan::seeded_chaos_campaign(&topo, 77, 4, 10, 100..2_000, Cycles(300));
        assert_eq!(chaos.events.len(), base.events.len() + 10);
        let transients =
            chaos.events().filter(|e| !e.action.is_permanent()).count();
        assert_eq!(transients, 10);
        // Same permanent sub-schedule, in order.
        let perm: Vec<&FaultEvent> =
            chaos.events().filter(|e| e.action.is_permanent()).collect();
        for (x, y) in base.events().zip(perm) {
            assert_eq!(x, y, "permanent schedule unchanged by the transient overlay");
        }
        // Reproducible.
        let again = FaultPlan::seeded_chaos_campaign(&topo, 77, 4, 10, 100..2_000, Cycles(300));
        assert!(chaos.events().zip(again.events()).all(|(x, y)| x == y));
    }
}
