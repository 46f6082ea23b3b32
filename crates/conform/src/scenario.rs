//! Seeded scenario generation: one `u64` seed deterministically expands
//! into a complete conformance case — topology, router configuration,
//! connection mix over the paper's nine-rate ladder, and a fault plan.
//!
//! The generator only draws from its own [`mmr_sim::SeededRng`] stream, so
//! the same seed always produces the same [`Scenario`] on every machine and
//! at every parallelism level. Scenario fields are plain data; shrinking
//! (see [`crate::shrink`]) mutates them structurally and re-runs.

use mmr_core::{ArbiterKind, PortId, QosClass};
use mmr_net::{
    Butterfly, Dragonfly, FaultAction, FaultEvent, FaultPlan, Hypercube, MinimalSpec, NodeId,
    RoutingSpec, Topology,
};
use mmr_sim::{Bandwidth, Cycles, SeededRng};
use mmr_traffic::rates::paper_rate_ladder;

use crate::CONFORM_SALT;

/// Physical ports per router in every generated topology: enough for a
/// 2-D torus (four mesh directions) plus the node's network interface,
/// with one spare for irregular extra links.
pub const PORTS_PER_NODE: u8 = 6;

/// The shape of a generated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// `width x height` mesh.
    Mesh {
        /// Columns.
        width: usize,
        /// Rows.
        height: usize,
    },
    /// `width x height` torus (wrap links in both dimensions).
    Torus {
        /// Columns.
        width: usize,
        /// Rows.
        height: usize,
    },
    /// A cycle of `nodes` routers.
    Ring {
        /// Node count.
        nodes: usize,
    },
    /// Random spanning tree plus `extra` shortcut links (the Autonet-style
    /// irregular case the EPB setup algorithm targets).
    Irregular {
        /// Node count.
        nodes: usize,
        /// Shortcut links beyond the spanning tree.
        extra: usize,
        /// Private wiring seed (independent of the scenario seed so a
        /// topology can be held fixed while the rest shrinks).
        seed: u64,
    },
    /// Balanced dragonfly with one terminal per router (`p = 1`).
    Dragonfly {
        /// Routers per group.
        a: u16,
        /// Global links per router.
        h: u16,
    },
    /// k-ary n-fly butterfly.
    Butterfly {
        /// Switch radix per direction.
        k: u16,
        /// Switch stages.
        stages: u16,
    },
    /// `dim`-dimensional binary hypercube.
    Hypercube {
        /// Dimension (`2^dim` routers).
        dim: u32,
    },
}

impl TopologySpec {
    /// Materialises the physical topology.
    pub fn build(&self) -> Topology {
        match *self {
            TopologySpec::Mesh { width, height } => Topology::mesh2d(width, height, PORTS_PER_NODE),
            TopologySpec::Torus { width, height } => {
                Topology::torus2d(width, height, PORTS_PER_NODE)
            }
            TopologySpec::Ring { nodes } => Topology::ring(nodes, PORTS_PER_NODE),
            TopologySpec::Irregular { nodes, extra, seed } => {
                let mut rng = SeededRng::new(seed);
                Topology::irregular(nodes, PORTS_PER_NODE, extra, &mut rng)
            }
            // The structured builders size their own port budgets (degree
            // plus one terminal per router).
            TopologySpec::Dragonfly { a, h } => Dragonfly::balanced(a, 1, h).build(),
            TopologySpec::Butterfly { k, stages } => Butterfly::new(k, stages).build(),
            TopologySpec::Hypercube { dim } => Hypercube::new(dim).build(),
        }
        .expect("generator dimensions fit the port budget")
    }

    /// Router count.
    pub fn nodes(&self) -> usize {
        match *self {
            TopologySpec::Mesh { width, height } | TopologySpec::Torus { width, height } => {
                width * height
            }
            TopologySpec::Ring { nodes } | TopologySpec::Irregular { nodes, .. } => nodes,
            TopologySpec::Dragonfly { a, h } => Dragonfly::balanced(a, 1, h).nodes(),
            TopologySpec::Butterfly { k, stages } => Butterfly::new(k, stages).nodes(),
            TopologySpec::Hypercube { dim } => Hypercube::new(dim).nodes(),
        }
    }

    /// The structured minimal routing algorithm native to this shape, or
    /// `None` for the classic fabrics that only know up*/down*.
    pub fn minimal_spec(&self) -> Option<MinimalSpec> {
        match *self {
            TopologySpec::Dragonfly { a, h } => {
                Some(MinimalSpec::Dragonfly(Dragonfly::balanced(a, 1, h)))
            }
            TopologySpec::Butterfly { k, stages } => {
                Some(MinimalSpec::Butterfly(Butterfly::new(k, stages)))
            }
            TopologySpec::Hypercube { dim } => Some(MinimalSpec::Hypercube(Hypercube::new(dim))),
            TopologySpec::Mesh { .. }
            | TopologySpec::Torus { .. }
            | TopologySpec::Ring { .. }
            | TopologySpec::Irregular { .. } => None,
        }
    }

    /// Compact label for reports (`mesh3x3`, `ring5`, ...).
    pub fn label(&self) -> String {
        match *self {
            TopologySpec::Mesh { width, height } => format!("mesh{width}x{height}"),
            TopologySpec::Torus { width, height } => format!("torus{width}x{height}"),
            TopologySpec::Ring { nodes } => format!("ring{nodes}"),
            TopologySpec::Irregular { nodes, extra, .. } => format!("irr{nodes}+{extra}"),
            TopologySpec::Dragonfly { a, h } => format!("dfly{a}h{h}"),
            TopologySpec::Butterfly { k, stages } => format!("bfly{k}x{stages}"),
            TopologySpec::Hypercube { dim } => format!("cube{dim}"),
        }
    }
}

/// Which routing algorithm the scenario's network is built with. Classic
/// fabrics (mesh/torus/ring/irregular) have no structured minimal
/// algorithm, so every choice resolves to up*/down* there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingChoice {
    /// The seed default: up*/down* over whatever graph the topology is.
    UpDown,
    /// The topology's native minimal algorithm (dimension-order,
    /// group-minimal, destination-tag).
    Minimal,
    /// Minimal wrapped in seeded Valiant two-leg misrouting.
    Valiant {
        /// Intermediate-draw salt.
        salt: u64,
    },
}

impl RoutingChoice {
    /// Resolves the drawn choice against the topology the scenario runs
    /// on: structured fabrics honor Minimal/Valiant, everything else
    /// falls back to up*/down*.
    pub fn spec(&self, topology: &TopologySpec) -> RoutingSpec {
        let Some(minimal) = topology.minimal_spec() else {
            return RoutingSpec::up_down();
        };
        match *self {
            RoutingChoice::UpDown => RoutingSpec::up_down(),
            RoutingChoice::Minimal => RoutingSpec { minimal, valiant_salt: None },
            RoutingChoice::Valiant { salt } => RoutingSpec { minimal, valiant_salt: Some(salt) },
        }
    }

    /// Short report label (`updown`, `minimal`, `valiant`).
    pub fn label(&self) -> &'static str {
        match self {
            RoutingChoice::UpDown => "updown",
            RoutingChoice::Minimal => "minimal",
            RoutingChoice::Valiant { .. } => "valiant",
        }
    }
}

/// One CBR connection of the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnSpec {
    /// Source node.
    pub src: u16,
    /// Destination node (never equal to `src`).
    pub dst: u16,
    /// Index into [`paper_rate_ladder`] (0 = 64 Kbps voice ... 8 = 120
    /// Mbps HDTV).
    pub rate_idx: usize,
}

impl ConnSpec {
    /// The connection's constant bit rate.
    pub fn rate(&self) -> Bandwidth {
        let ladder = paper_rate_ladder();
        *ladder.get(self.rate_idx % ladder.len()).expect("index reduced modulo ladder length")
    }

    /// The CBR service class carried by this connection.
    pub fn class(&self) -> QosClass {
        QosClass::Cbr { rate: self.rate() }
    }
}

/// What a scheduled churn event does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// A new session arrives and asks the admission controller for a
    /// placement (accept, degrade, or typed-reject — never a panic).
    Open {
        /// Source node.
        src: u16,
        /// Destination node (never equal to `src`).
        dst: u16,
        /// Index into [`paper_rate_ladder`] (ignored for best-effort).
        rate_idx: usize,
        /// Zero-reservation best-effort session instead of CBR.
        best_effort: bool,
    },
    /// An existing churn session departs voluntarily: the `nth` live
    /// churn session (modulo the live count) closes.
    Close {
        /// Selector into the live churn-session list.
        nth: usize,
    },
}

/// One scheduled mid-run session arrival or departure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEventSpec {
    /// Fire cycle (inside the injection window).
    pub at: u64,
    /// What happens.
    pub action: ChurnAction,
}

/// A complete generated conformance case.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Network shape.
    pub topology: TopologySpec,
    /// Routing algorithm the network is built with (resolved against the
    /// topology by [`RoutingChoice::spec`]).
    pub routing: RoutingChoice,
    /// Virtual channels per physical port.
    pub vcs_per_port: u16,
    /// Flit slots per VC buffer.
    pub vc_depth: usize,
    /// Candidate-set size per input port.
    pub candidates: usize,
    /// Switch arbitration scheme.
    pub arbiter: ArbiterKind,
    /// Whether link-level retransmission is on.
    pub llr: bool,
    /// Injection-phase length in flit cycles (the drain phase extends
    /// past this until the network is quiet).
    pub cycles: u64,
    /// Connection mix.
    pub conns: Vec<ConnSpec>,
    /// Fault schedule: wire events address either endpoint of the wire,
    /// node events carry port 0.
    pub faults: Vec<FaultEvent>,
    /// Mid-run session churn (arrivals through the admission controller,
    /// voluntary departures), sorted by fire cycle.
    pub churn: Vec<ChurnEventSpec>,
}

impl Scenario {
    /// Expands `seed` into a scenario. Fully deterministic: the expansion
    /// draws only from a [`SeededRng`] seeded with `seed ^ CONFORM_SALT`.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = SeededRng::new(seed ^ CONFORM_SALT);

        let topology = match rng.index(6) {
            0 => TopologySpec::Mesh { width: 2, height: 2 },
            1 => TopologySpec::Mesh { width: 3, height: 2 },
            2 => TopologySpec::Mesh { width: 3, height: 3 },
            3 => TopologySpec::Torus { width: 3, height: 3 },
            4 => TopologySpec::Ring { nodes: 4 + rng.index(5) },
            _ => TopologySpec::Irregular {
                nodes: 5 + rng.index(5),
                extra: 1 + rng.index(3),
                seed: rng.next_u64(),
            },
        };

        let vcs_per_port = if rng.chance(0.5) { 4 } else { 8 };
        let vc_depth = if rng.chance(0.5) { 2 } else { 4 };
        let candidates = if rng.chance(0.5) { 2 } else { 4 };
        // Perfect is excluded: it models an ideal switch with N-times
        // internal bandwidth, which legitimately violates the oracle's
        // one-flit-per-output-per-cycle physics.
        let arbiter = match rng.index(6) {
            0 => ArbiterKind::FixedPriority,
            1 => ArbiterKind::BiasedPriority,
            2 => ArbiterKind::RoundRobin,
            3 => ArbiterKind::OldestFirst,
            4 => ArbiterKind::Autonet { iterations: 2 },
            _ => ArbiterKind::Islip { iterations: 2 },
        };

        let cycles = 400 + rng.index(1200) as u64;

        // Endpoints must own a network interface; every generator topology
        // reserves at least one terminal port per node, but irregular
        // wiring is validated rather than assumed.
        let topo = topology.build();
        let terminals: Vec<u16> = (0..topo.nodes() as u16)
            .filter(|&n| topo.terminal_port(NodeId(n)).is_some())
            .collect();

        let mut conns = Vec::new();
        if terminals.len() >= 2 {
            let n_conns = 2 + rng.index(7);
            for _ in 0..n_conns {
                let src = *rng.pick(&terminals);
                let mut dst = *rng.pick(&terminals);
                if dst == src {
                    let at = terminals.iter().position(|&t| t == src).unwrap_or(0);
                    dst = *terminals
                        .get((at + 1) % terminals.len())
                        .expect("two or more terminals checked above");
                }
                conns.push(ConnSpec { src, dst, rate_idx: rng.index(9) });
            }
        }

        let mut faults = Vec::new();
        let wires = topo.wires();
        if !wires.is_empty() {
            // Permanent failures on distinct wires, inside the middle half
            // of the injection window so traffic exists on both sides.
            let n_fail = rng.index(3);
            let mut used = Vec::new();
            for _ in 0..n_fail {
                let w = rng.index(wires.len());
                if used.contains(&w) {
                    continue;
                }
                used.push(w);
                let wire = wires.get(w).expect("index drawn in range");
                faults.push(FaultEvent {
                    at: Cycles(cycles / 4 + rng.index((cycles / 2) as usize) as u64),
                    action: FaultAction::Fail,
                    node: wire.a.0,
                    port: wire.a.1,
                });
            }
            // Transient wire noise: strikes one flit each.
            let n_trans = rng.index(4);
            for _ in 0..n_trans {
                let wire = wires.get(rng.index(wires.len())).expect("index drawn in range");
                let action =
                    if rng.chance(0.5) { FaultAction::CorruptFlit } else { FaultAction::DropFlit };
                faults.push(FaultEvent {
                    at: Cycles(cycles / 8 + rng.index((cycles / 2) as usize) as u64),
                    action,
                    node: wire.a.0,
                    port: wire.a.1,
                });
            }
        }

        // Exactly-once delivery under transient faults requires the
        // link-level retry layer (a dropped flit is otherwise simply
        // gone); permanent faults are handled either way.
        let has_transients = faults.iter().any(|f| !f.action.is_permanent());
        let llr = has_transients || rng.chance(0.5);

        // One whole-router fail/repair cycle inside the injection window.
        // Appended after the llr draw so that every pre-existing corpus
        // seed still expands to the exact same scenario prefix.
        if topo.nodes() >= 3 && rng.chance(0.4) {
            let node = NodeId(rng.index(topo.nodes()) as u16);
            let at = cycles / 4 + rng.index((cycles / 2).max(1) as usize) as u64;
            let repair_at = at + 40 + rng.index((cycles / 4).max(1) as usize) as u64;
            let outage = [(at, FaultAction::FailNode), (repair_at, FaultAction::RepairNode)];
            for (at, action) in outage {
                faults.push(FaultEvent { at: Cycles(at), action, node, port: PortId(0) });
            }
        }

        // Mid-run session churn through the admission controller.
        // Appended after every earlier draw (including the node
        // fail/repair block) so that pre-existing corpus seeds keep their
        // exact scenario prefix.
        let mut churn = Vec::new();
        if terminals.len() >= 2 && rng.chance(0.6) {
            let n_events = 1 + rng.index(6);
            for _ in 0..n_events {
                let at = cycles / 8 + rng.index((cycles * 3 / 4).max(1) as usize) as u64;
                let action = if rng.chance(0.3) {
                    ChurnAction::Close { nth: rng.index(8) }
                } else {
                    let src = *rng.pick(&terminals);
                    let mut dst = *rng.pick(&terminals);
                    if dst == src {
                        let pos = terminals.iter().position(|&t| t == src).unwrap_or(0);
                        dst = *terminals
                            .get((pos + 1) % terminals.len())
                            .expect("two or more terminals checked above");
                    }
                    ChurnAction::Open {
                        src,
                        dst,
                        rate_idx: rng.index(9),
                        best_effort: rng.chance(0.25),
                    }
                };
                churn.push(ChurnEventSpec { at, action });
            }
            // Stable sort: events at the same cycle keep their draw order.
            churn.sort_by_key(|e| e.at);
        }

        // Structured HPC fabrics (dragonfly / butterfly / hypercube) and
        // the generalized routing layer. Appended after every earlier draw
        // so pre-existing corpus seeds keep their exact scenario prefix;
        // when a structured fabric is drawn, the endpoints already chosen
        // against the classic topology are remapped by plain arithmetic —
        // no further draws — and a routing algorithm is picked. Classic
        // fabrics always route up*/down*.
        let mut topology = topology;
        let mut routing = RoutingChoice::UpDown;
        if rng.chance(0.35) {
            let structured = if rng.chance(0.08) {
                // The scale-wall shape: a 1024-node 2-ary 8-fly. Rare,
                // because one case costs two orders of magnitude more
                // router-cycles than the small shapes.
                TopologySpec::Butterfly { k: 2, stages: 8 }
            } else {
                match rng.index(6) {
                    0 => TopologySpec::Dragonfly { a: 3, h: 1 },
                    1 => TopologySpec::Dragonfly { a: 4, h: 1 },
                    2 => TopologySpec::Butterfly { k: 2, stages: 3 },
                    3 => TopologySpec::Butterfly { k: 3, stages: 3 },
                    4 => TopologySpec::Hypercube { dim: 3 },
                    _ => TopologySpec::Hypercube { dim: 4 },
                }
            };
            let n = structured.nodes() as u16;
            for c in &mut conns {
                c.src %= n;
                c.dst %= n;
                if c.src == c.dst {
                    c.dst = (c.src + 1) % n;
                }
            }
            for e in &mut churn {
                if let ChurnAction::Open { src, dst, .. } = &mut e.action {
                    *src %= n;
                    *dst %= n;
                    if src == dst {
                        *dst = (*src + 1) % n;
                    }
                }
            }
            // Fault endpoints remap the same way (a fail/repair pair stays
            // a pair); wire faults whose remapped port is not a wire of the
            // structured fabric are discarded by `fault_plan` at run time.
            for f in &mut faults {
                f.node.0 %= n;
            }
            topology = structured;
            routing = match rng.index(3) {
                0 => RoutingChoice::UpDown,
                1 => RoutingChoice::Minimal,
                _ => RoutingChoice::Valiant { salt: rng.next_u64() },
            };
        }

        Scenario {
            topology,
            routing,
            vcs_per_port,
            vc_depth,
            candidates,
            arbiter,
            llr,
            cycles,
            conns,
            faults,
            churn,
        }
    }

    /// Builds the fault plan valid for `topo`, silently discarding events
    /// that no longer address a node or an inter-router wire of it (this is
    /// how shrinking to a smaller topology retires faults, and how a
    /// structured remap retires a port the new fabric does not have) and
    /// duplicate permanent failures of the same wire (two endpoint addresses
    /// can alias one wire after remapping).
    pub fn fault_plan(&self, topo: &Topology) -> FaultPlan {
        let mut failed_wires: Vec<((NodeId, PortId), (NodeId, PortId))> = Vec::new();
        let applies = |f: &&FaultEvent| {
            let on_fabric = f.node.index() < topo.nodes();
            if f.action.is_node() {
                return on_fabric;
            }
            if !on_fabric || f.port.0 >= topo.ports_per_node() {
                return false;
            }
            let Some(peer) = topo.peer_of(f.node, f.port) else { return false };
            if f.action == FaultAction::Fail {
                let (a, b) = ((f.node, f.port), peer);
                let wire = if a <= b { (a, b) } else { (b, a) };
                if failed_wires.contains(&wire) {
                    return false;
                }
                failed_wires.push(wire);
            }
            true
        };
        self.faults.iter().filter(applies).copied().collect()
    }

    /// One-line human-readable summary, stable across runs (reports and
    /// shrinking traces embed it).
    pub fn spec_string(&self) -> String {
        let conns: Vec<String> =
            self.conns.iter().map(|c| format!("{}->{}r{}", c.src, c.dst, c.rate_idx)).collect();
        let faults: Vec<String> = self
            .faults
            .iter()
            .map(|f| {
                let (at, node) = (f.at.0, f.node.0);
                let k = match f.action {
                    FaultAction::Fail => "fail",
                    FaultAction::Repair => "repair",
                    FaultAction::CorruptFlit => "corrupt",
                    FaultAction::DropFlit => "drop",
                    FaultAction::FailNode => return format!("failnode@{at}:n{node}"),
                    FaultAction::RepairNode => return format!("repairnode@{at}:n{node}"),
                };
                format!("{k}@{at}:n{node}p{}", f.port.0)
            })
            .collect();
        let churn: Vec<String> = self
            .churn
            .iter()
            .map(|e| match e.action {
                ChurnAction::Open { src, dst, rate_idx, best_effort } => {
                    let kind = if best_effort { "openbe" } else { "open" };
                    format!("{kind}@{}:{src}->{dst}r{rate_idx}", e.at)
                }
                ChurnAction::Close { nth } => format!("close@{}:#{nth}", e.at),
            })
            .collect();
        format!(
            "{} route={} vcs={} depth={} cand={} arb={:?} llr={} cycles={} conns=[{}] \
             faults=[{}] churn=[{}]",
            self.topology.label(),
            self.routing.label(),
            self.vcs_per_port,
            self.vc_depth,
            self.candidates,
            self.arbiter,
            self.llr,
            self.cycles,
            conns.join(","),
            faults.join(","),
            churn.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..32u64 {
            assert_eq!(Scenario::generate(seed), Scenario::generate(seed));
        }
    }

    #[test]
    fn scenarios_vary_with_the_seed() {
        let specs: Vec<String> = (0..16).map(|s| Scenario::generate(s).spec_string()).collect();
        let mut unique = specs.clone();
        unique.sort();
        unique.dedup();
        assert!(unique.len() > 8, "seeds should explore the space: {specs:?}");
    }

    #[test]
    fn endpoints_are_distinct_and_have_terminals() {
        for seed in 0..64u64 {
            let sc = Scenario::generate(seed);
            let topo = sc.topology.build();
            for c in &sc.conns {
                assert_ne!(c.src, c.dst, "seed {seed}");
                assert!(topo.terminal_port(NodeId(c.src)).is_some(), "seed {seed}");
                assert!(topo.terminal_port(NodeId(c.dst)).is_some(), "seed {seed}");
            }
        }
    }

    #[test]
    fn fault_plans_normalize() {
        for seed in 0..64u64 {
            let sc = Scenario::generate(seed);
            let topo = sc.topology.build();
            sc.fault_plan(&topo).normalized().expect("generated plans are well-formed");
        }
    }

    #[test]
    fn fault_plans_keep_only_what_addresses_the_topology() {
        let mut sc = Scenario::generate(0);
        sc.topology = TopologySpec::Ring { nodes: 4 };
        let topo = sc.topology.build();
        let wire = *topo.wires().first().expect("a ring has wires");
        let terminal = topo.terminal_port(NodeId(0)).expect("every ring node has an NI");
        let event = |action, (node, port)| FaultEvent { at: Cycles(10), action, node, port };
        sc.faults = vec![
            event(FaultAction::Fail, wire.a),
            // The same wire from its other end: an alias, failed once.
            event(FaultAction::Fail, wire.b),
            event(FaultAction::CorruptFlit, wire.b),
            event(FaultAction::FailNode, (NodeId(4), PortId(0))),
            event(FaultAction::DropFlit, (NodeId(0), terminal)),
            event(FaultAction::RepairNode, (NodeId(3), PortId(0))),
            // A port or a node the fabric does not have (a structured remap
            // keeps the classic fabric's port numbers).
            event(FaultAction::CorruptFlit, (NodeId(1), PortId(PORTS_PER_NODE))),
            event(FaultAction::Fail, (NodeId(4), wire.a.1)),
        ];
        let plan: Vec<FaultEvent> = sc.fault_plan(&topo).events().copied().collect();
        assert_eq!(plan, [sc.faults[0], sc.faults[2], sc.faults[5]]);
    }

    #[test]
    fn transients_imply_llr() {
        for seed in 0..128u64 {
            let sc = Scenario::generate(seed);
            if sc.faults.iter().any(|f| !f.action.is_permanent()) {
                assert!(sc.llr, "seed {seed}: transient faults need the retry layer");
            }
        }
    }

    #[test]
    fn churn_events_are_drawn_sorted_and_inside_the_window() {
        let mut saw_open = false;
        let mut saw_close = false;
        let mut saw_best_effort = false;
        for seed in 0..128u64 {
            let sc = Scenario::generate(seed);
            let topo = sc.topology.build();
            for pair in sc.churn.windows(2) {
                assert!(pair[0].at <= pair[1].at, "seed {seed}: churn tape is sorted");
            }
            for e in &sc.churn {
                assert!(e.at < sc.cycles, "seed {seed}: churn fires inside the window");
                match e.action {
                    ChurnAction::Open { src, dst, best_effort, .. } => {
                        saw_open = true;
                        saw_best_effort |= best_effort;
                        assert_ne!(src, dst, "seed {seed}");
                        assert!(topo.terminal_port(NodeId(src)).is_some(), "seed {seed}");
                        assert!(topo.terminal_port(NodeId(dst)).is_some(), "seed {seed}");
                    }
                    ChurnAction::Close { .. } => saw_close = true,
                }
            }
        }
        assert!(saw_open, "the generator explores session arrivals");
        assert!(saw_close, "the generator explores departures");
        assert!(saw_best_effort, "the generator explores best-effort arrivals");
    }

    #[test]
    fn node_faults_are_drawn_and_always_pair_fail_with_later_repair() {
        let mut saw_node_fault = false;
        for seed in 0..128u64 {
            let sc = Scenario::generate(seed);
            let fails: Vec<&FaultEvent> =
                sc.faults.iter().filter(|f| f.action == FaultAction::FailNode).collect();
            let repairs: Vec<&FaultEvent> =
                sc.faults.iter().filter(|f| f.action == FaultAction::RepairNode).collect();
            assert_eq!(fails.len(), repairs.len(), "seed {seed}");
            for (f, r) in fails.iter().zip(&repairs) {
                saw_node_fault = true;
                assert_eq!(f.node, r.node, "seed {seed}");
                assert!(f.at < r.at, "seed {seed}: the outage has positive length");
                assert!(f.node.index() < sc.topology.nodes(), "seed {seed}");
            }
        }
        assert!(saw_node_fault, "the generator actually explores node faults");
    }
}

