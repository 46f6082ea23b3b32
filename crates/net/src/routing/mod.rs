//! Generalized routing: one trait, per-topology minimal algorithms, and
//! seeded Valiant misrouting.
//!
//! The MMR seed routed exclusively with up*/down* ([`crate::updown`]),
//! which works on any connected graph but pays an O(n²) table cost and
//! concentrates load near the root. The HPC-scale fabrics in
//! [`crate::topology`] each carry a structured minimal algorithm instead:
//! dimension-order for hypercubes, group-minimal (local–global–local) for
//! dragonflies, and destination-tag covering walks for butterflies. All of
//! them are *stateless* — O(1) memory per fabric — which is what lets
//! 1k–4k router networks fit where up*/down* tables would not.
//!
//! # The trait
//!
//! [`RoutingAlgorithm`] routes one packet one hop at a time. Per-packet
//! state lives in a compact [`RouteCtx`] carried by the network layer; the
//! algorithm never mutates itself while routing, so one instance serves
//! every packet deterministically.
//!
//! # Deadlock freedom
//!
//! Each algorithm partitions its channel usage into a small number of
//! ordered *VC classes* ([`RoutingAlgorithm::vc_class`]), and every route
//! it emits is class-monotone: the class never decreases along a packet's
//! path. Within each class the channel dependence relation is acyclic by
//! construction (documented per algorithm), so the class layering is an
//! escape ordering in the Duato sense and the full dependence graph has no
//! cycle. The routing property tests re-verify monotonicity and the hop
//! bound over 10k seeded pairs per topology.
//!
//! # Fault fallback
//!
//! Structured algorithms assume the intact regular fabric. When links or
//! routers fail, the network swaps to up*/down* over the survivor graph
//! (root migration as before) and swaps back to the configured algorithm
//! once everything is repaired — see `Fabric::topology_changed` in
//! `network/fabric.rs`. The [`RoutingSpec`] stored on the network is what
//! makes the round trip possible.

use mmr_core::ids::PortId;

use crate::topology::{Butterfly, Dragonfly, Hypercube, NodeId, Topology};
use crate::updown::UpDownRouting;

mod butterfly;
mod dimension;
mod dragonfly;
mod valiant;

pub use butterfly::ButterflyRouting;
pub use dimension::DimensionOrderRouting;
pub use dragonfly::DragonflyRouting;
pub use valiant::ValiantRouting;

/// Compact per-packet routing state, carried by the network with each
/// in-flight packet. Algorithms interpret `phase` privately; `via` holds
/// the Valiant intermediate (or [`RouteCtx::NO_VIA`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouteCtx {
    /// Algorithm-private phase bits (up/down leg, butterfly walk segment,
    /// Valiant leg in the high bits).
    pub phase: u8,
    /// Valiant intermediate node index, or [`RouteCtx::NO_VIA`].
    pub via: u16,
}

impl RouteCtx {
    /// Sentinel: no Valiant intermediate.
    pub const NO_VIA: u16 = u16::MAX;

    /// The state of a freshly injected packet before any algorithm touched
    /// it.
    pub const fn fresh() -> Self {
        RouteCtx { phase: 0, via: RouteCtx::NO_VIA }
    }
}

impl Default for RouteCtx {
    fn default() -> Self {
        RouteCtx::fresh()
    }
}

/// One forwarding decision: leave `current` through `port` toward `next`,
/// and carry `ctx` forward with the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteHop {
    /// Output port at the current router.
    pub port: PortId,
    /// The router the wire leads to.
    pub next: NodeId,
    /// Updated per-packet state.
    pub ctx: RouteCtx,
}

/// A deterministic, stateless-per-packet routing algorithm.
pub trait RoutingAlgorithm {
    /// Short stable name for labels and reports.
    fn name(&self) -> &'static str;

    /// Per-packet state at injection. `salt` is a caller-chosen stable
    /// discriminator (the packet id) so randomized algorithms stay
    /// deterministic per packet.
    fn initial_ctx(&self, src: NodeId, dst: NodeId, salt: u64) -> RouteCtx {
        let _ = (src, dst, salt);
        RouteCtx::fresh()
    }

    /// The next hop for a packet at `current` bound for `dst`, or `None`
    /// when no legal hop exists (`current == dst`, or the live topology
    /// lost the needed wire). Total for any `ctx`: a stale or foreign
    /// context must degrade to a legal route, never loop or panic.
    fn next_hop(
        &self,
        topology: &Topology,
        current: NodeId,
        dst: NodeId,
        ctx: RouteCtx,
    ) -> Option<RouteHop>;

    /// Hops along this algorithm's paths from `from` to `to`
    /// (`usize::MAX` if unreachable). At least the graph distance; equal
    /// to it for the structured minimal algorithms on their own fabrics
    /// except where the algorithm's path discipline adds hops (documented
    /// per algorithm).
    fn distance(&self, from: NodeId, to: NodeId) -> usize;

    /// The VC class a packet at `current` uses for its next hop. Classes
    /// are non-decreasing along every route the algorithm emits, and the
    /// dependence relation within one class is acyclic — together the
    /// deadlock-freedom argument.
    fn vc_class(&self, current: NodeId, dst: NodeId, ctx: RouteCtx) -> u8;

    /// Number of VC classes the algorithm needs (`vc_class` values are
    /// `0..vc_classes`).
    fn vc_classes(&self) -> u8;

    /// Upper bound on the hop count of any emitted route.
    fn hop_bound(&self) -> usize;

    /// Walks a full route, for tests and probes: the hop sequence from
    /// `src` to `dst`, or `None` if the walk fails to terminate within
    /// [`RoutingAlgorithm::hop_bound`] hops.
    fn route(&self, topology: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<RouteHop>> {
        let mut hops = Vec::new();
        let mut at = src;
        let mut ctx = self.initial_ctx(src, dst, 0);
        while at != dst {
            if hops.len() >= self.hop_bound() {
                return None;
            }
            let hop = self.next_hop(topology, at, dst, ctx)?;
            at = hop.next;
            ctx = hop.ctx;
            hops.push(hop);
        }
        Some(hops)
    }
}

/// Finds the wire from `from` to neighbour `to`, packaging it as a hop
/// carrying `ctx`. The structured algorithms compute the target router
/// arithmetically and resolve the port with this one alloc-free scan.
pub(crate) fn hop_to(
    topology: &Topology,
    from: NodeId,
    to: NodeId,
    ctx: RouteCtx,
) -> Option<RouteHop> {
    topology
        .neighbors_iter(from)
        .find(|&(_, peer, _)| peer == to)
        .map(|(port, _, _)| RouteHop { port, next: to, ctx })
}

/// Which minimal algorithm a network runs (the buildable description, as
/// opposed to the built tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinimalSpec {
    /// up*/down* over whatever graph the topology is — the fallback that
    /// works on irregular fabrics (and under faults).
    UpDown,
    /// Dimension-order routing on a hypercube.
    Hypercube(Hypercube),
    /// Group-minimal (local–global–local) routing on a dragonfly.
    Dragonfly(Dragonfly),
    /// Destination-tag covering walks on a butterfly.
    Butterfly(Butterfly),
}

/// The full routing description a network is built with: a minimal base,
/// optionally wrapped in seeded Valiant misrouting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingSpec {
    /// The minimal base algorithm.
    pub minimal: MinimalSpec,
    /// `Some(salt)` wraps the base in Valiant two-leg misrouting seeded by
    /// `salt`.
    pub valiant_salt: Option<u64>,
}

impl RoutingSpec {
    /// The seed default: plain up*/down*.
    pub const fn up_down() -> Self {
        RoutingSpec { minimal: MinimalSpec::UpDown, valiant_salt: None }
    }

    /// A stable label for reports: the algorithm name, `valiant+`-prefixed
    /// when misrouting is on.
    pub fn label(&self) -> String {
        let base = match self.minimal {
            MinimalSpec::UpDown => "updown",
            MinimalSpec::Hypercube(_) => "dimension",
            MinimalSpec::Dragonfly(_) => "dragonfly-minimal",
            MinimalSpec::Butterfly(_) => "destination-tag",
        };
        match self.valiant_salt {
            Some(_) => format!("valiant+{base}"),
            None => base.to_string(),
        }
    }
}

impl Default for RoutingSpec {
    fn default() -> Self {
        RoutingSpec::up_down()
    }
}

/// A built minimal algorithm (enum dispatch: no `dyn` on the per-packet
/// path).
#[derive(Debug, Clone)]
pub enum MinimalRouting {
    /// up*/down* with its BFS level / distance tables.
    UpDown(UpDownRouting),
    /// Dimension-order on a hypercube (stateless).
    Dimension(DimensionOrderRouting),
    /// Group-minimal on a dragonfly (stateless).
    Dragonfly(DragonflyRouting),
    /// Destination-tag on a butterfly (stateless).
    Butterfly(ButterflyRouting),
}

impl MinimalRouting {
    /// Node count of the fabric the algorithm was built for.
    pub fn nodes(&self) -> usize {
        match self {
            MinimalRouting::UpDown(r) => r.nodes(),
            MinimalRouting::Dimension(r) => r.shape().nodes(),
            MinimalRouting::Dragonfly(r) => r.shape().nodes(),
            MinimalRouting::Butterfly(r) => r.shape().nodes(),
        }
    }
}

/// Hands a [`RoutingAlgorithm`] call to whichever variant of a routing enum
/// is live — the one idiom both enum-level impls below are written in.
macro_rules! delegate {
    (MinimalRouting, $self:ident, $r:ident => $body:expr) => {
        match $self {
            MinimalRouting::UpDown($r) => $body,
            MinimalRouting::Dimension($r) => $body,
            MinimalRouting::Dragonfly($r) => $body,
            MinimalRouting::Butterfly($r) => $body,
        }
    };
    (Routing, $self:ident, $r:ident => $body:expr) => {
        match $self {
            Routing::Minimal($r) => $body,
            Routing::Valiant($r) => $body,
        }
    };
}

impl RoutingAlgorithm for MinimalRouting {
    fn name(&self) -> &'static str {
        delegate!(MinimalRouting, self, r => r.name())
    }

    fn initial_ctx(&self, src: NodeId, dst: NodeId, salt: u64) -> RouteCtx {
        delegate!(MinimalRouting, self, r => r.initial_ctx(src, dst, salt))
    }

    fn next_hop(
        &self,
        topology: &Topology,
        current: NodeId,
        dst: NodeId,
        ctx: RouteCtx,
    ) -> Option<RouteHop> {
        delegate!(MinimalRouting, self, r => r.next_hop(topology, current, dst, ctx))
    }

    fn distance(&self, from: NodeId, to: NodeId) -> usize {
        delegate!(MinimalRouting, self, r => r.distance(from, to))
    }

    fn vc_class(&self, current: NodeId, dst: NodeId, ctx: RouteCtx) -> u8 {
        delegate!(MinimalRouting, self, r => r.vc_class(current, dst, ctx))
    }

    fn vc_classes(&self) -> u8 {
        delegate!(MinimalRouting, self, r => r.vc_classes())
    }

    fn hop_bound(&self) -> usize {
        delegate!(MinimalRouting, self, r => r.hop_bound())
    }
}

/// The routing engine a network runs: a minimal base, possibly wrapped in
/// Valiant misrouting.
#[derive(Debug, Clone)]
pub enum Routing {
    /// The minimal base alone.
    Minimal(MinimalRouting),
    /// Valiant two-leg misrouting over a minimal base.
    Valiant(ValiantRouting),
}

impl Routing {
    /// Builds the engine described by `spec` over `topology`. Structured
    /// specs validate the fabric shape; only `UpDown` pays table costs.
    pub fn build(spec: RoutingSpec, topology: &Topology) -> Self {
        let base = match spec.minimal {
            MinimalSpec::UpDown => MinimalRouting::UpDown(UpDownRouting::new(topology)),
            MinimalSpec::Hypercube(shape) => {
                MinimalRouting::Dimension(DimensionOrderRouting::new(shape, topology))
            }
            MinimalSpec::Dragonfly(shape) => {
                MinimalRouting::Dragonfly(DragonflyRouting::new(shape, topology))
            }
            MinimalSpec::Butterfly(shape) => {
                MinimalRouting::Butterfly(ButterflyRouting::new(shape, topology))
            }
        };
        match spec.valiant_salt {
            None => Routing::Minimal(base),
            Some(salt) => Routing::Valiant(ValiantRouting::new(base, salt)),
        }
    }

    /// The minimal base (through the Valiant wrapper if present).
    pub fn minimal(&self) -> &MinimalRouting {
        match self {
            Routing::Minimal(m) => m,
            Routing::Valiant(v) => v.base(),
        }
    }

    /// The up*/down* tables, when the algorithm has them.
    pub fn up_down(&self) -> Option<&UpDownRouting> {
        match self.minimal() {
            MinimalRouting::UpDown(r) => Some(r),
            _ => None,
        }
    }

    /// For tests: the up*/down* root, `n0` for the structured algorithms.
    #[doc(hidden)]
    pub fn root(&self) -> NodeId {
        self.up_down().map_or(NodeId(0), |r| r.root())
    }
}

impl RoutingAlgorithm for Routing {
    fn name(&self) -> &'static str {
        delegate!(Routing, self, r => r.name())
    }

    fn initial_ctx(&self, src: NodeId, dst: NodeId, salt: u64) -> RouteCtx {
        delegate!(Routing, self, r => r.initial_ctx(src, dst, salt))
    }

    fn next_hop(
        &self,
        topology: &Topology,
        current: NodeId,
        dst: NodeId,
        ctx: RouteCtx,
    ) -> Option<RouteHop> {
        delegate!(Routing, self, r => r.next_hop(topology, current, dst, ctx))
    }

    fn distance(&self, from: NodeId, to: NodeId) -> usize {
        delegate!(Routing, self, r => r.distance(from, to))
    }

    fn vc_class(&self, current: NodeId, dst: NodeId, ctx: RouteCtx) -> u8 {
        delegate!(Routing, self, r => r.vc_class(current, dst, ctx))
    }

    fn vc_classes(&self) -> u8 {
        delegate!(Routing, self, r => r.vc_classes())
    }

    fn hop_bound(&self) -> usize {
        delegate!(Routing, self, r => r.hop_bound())
    }
}
