//! Multi-router network substrate for the MMR reproduction.
//!
//! The paper evaluates a single router but describes full network operation:
//! pipelined-circuit-switched connections established by backtracking probes
//! (§3.5, §4.2), link-level virtual-channel flow control (§3.2), and VCT
//! transport with adaptive routing for control/best-effort packets (§3.4).
//! This crate builds all of it:
//!
//! * [`topology`] — meshes, tori, rings and connected random irregular
//!   graphs, plus the HPC-scale shapes (dragonfly, k-ary n-fly butterfly,
//!   hypercube), with router-port wiring and terminal (NI) ports.
//! * [`updown`] — deadlock-free up*/down* adaptive routing for arbitrary
//!   connected topologies (the substrate of the Silla–Duato algorithms the
//!   paper cites).
//! * [`routing`] — the [`RoutingAlgorithm`] trait over all of it:
//!   structured O(1)-memory minimal routing per regular topology
//!   (dimension-order, dragonfly group-minimal, butterfly
//!   destination-tag), seeded Valiant misrouting for adversarial loads,
//!   and up*/down* as the irregular/fault fallback, each with a VC-class
//!   escape layering proving deadlock freedom.
//! * [`setup`] — exhaustive profitable backtracking (EPB) connection
//!   establishment with history stores, plus a greedy baseline.
//! * [`network`] — the cycle-driven multi-router simulator: one
//!   [`mmr_core::Router`] per node, credit flow control across wires,
//!   end-to-end stream delivery, packet hopping, and link *and whole-node*
//!   failure/repair with up*/down* recomputation (root migration included)
//!   and exact in-flight accounting across router quarantines.
//! * [`fault`] — deterministic seeded fault campaigns: [`FaultPlan`]
//!   schedules link and node failures and repairs at flit-cycle
//!   granularity, [`FaultInjector`] applies them.
//! * [`recovery`] — the automatic-recovery session layer:
//!   [`RecoveryManager`] re-establishes faulted connections via EPB with
//!   retry budgets, exponential backoff, setup timeouts, graceful CBR
//!   rate degradation, a jittered cap on concurrent re-establishment
//!   probes, and epoch-parked partitioned sessions that re-probe only
//!   after the topology changes again.
//! * [`admission`] — dynamic admission control under churn:
//!   utilization-aware accept / degrade-on-admit / typed reject
//!   ([`AdmitVerdict`]), plus a priority-aware load shedder with
//!   protected floors and an anti-starvation rotation, and automatic
//!   rate upgrades when load recedes.
//! * [`driver`] — network-level experiments (end-to-end latency/jitter vs
//!   load).
//!
//! # Example
//!
//! ```
//! use mmr_core::router::RouterConfig;
//! use mmr_net::{NetworkSim, NodeId, SetupStrategy, Topology};
//! use mmr_net::setup::cbr_mbps;
//! use mmr_sim::Cycles;
//!
//! let mut net = NetworkSim::new(
//!     Topology::mesh2d(3, 3, 8)?,
//!     RouterConfig::paper_default().vcs_per_port(16),
//! );
//! let conn = net.establish(NodeId(0), NodeId(8), cbr_mbps(55.0), SetupStrategy::Epb)?;
//! net.inject(conn, Cycles(0))?;
//! for t in 0..20 {
//!     net.step(Cycles(t));
//! }
//! assert_eq!(net.stats().flits_delivered, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod admission;
pub mod driver;
pub mod fault;
pub mod network;
pub mod recovery;
pub mod routing;
pub mod setup;
pub mod topology;
pub mod updown;

pub use admission::{
    AdmissionController, AdmitPolicy, AdmitStats, AdmitVerdict, Preemption, RejectReason,
};
pub use driver::{NetExperiment, NetExperimentResult};
pub use fault::{FaultAction, FaultEvent, FaultInjector, FaultPlan, FaultPlanError, FaultTick};
pub use network::{
    DeliveredFlit, NetConnection, NetConnectionId, NetError, NetStats, NetStepReport, NetworkSim,
    PacketId, ProbeToken, SetupEvent, TransientKind,
};
pub use recovery::{
    RecoveryEvent, RecoveryManager, RecoveryPolicy, RecoveryStats, SessionId, SessionStatus,
    UpgradeOutcome,
};
pub use routing::{
    MinimalRouting, MinimalSpec, RouteCtx, RouteHop, Routing, RoutingAlgorithm, RoutingSpec,
};
pub use setup::{ProbeMachine, ProbeStep, SetupError, SetupReceipt, SetupStrategy};
pub use topology::{Butterfly, Dragonfly, Hypercube, NodeId, Topology, TopologyError, Wire};
pub use updown::{LinkDir, UpDownRouting};

/// Shared fixtures for this crate's unit tests.
#[cfg(test)]
pub(crate) mod testkit {
    use mmr_core::ids::PortId;
    use mmr_core::router::RouterConfig;

    use crate::{NetConnectionId, NetworkSim, NodeId, Topology};

    /// The 3×3 mesh most unit tests run on: 8 ports, 16 VCs per port, depth-4
    /// buffers, 4 scheduling candidates.
    pub(crate) fn mesh_net() -> NetworkSim {
        NetworkSim::new(
            Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(16).candidates(4),
        )
    }

    /// The wire a live connection leaves its `hop`-th router on, as the
    /// `(node, port)` to hand to [`NetworkSim::fail_link`].
    pub(crate) fn output_wire(net: &NetworkSim, conn: NetConnectionId, hop: usize) -> (NodeId, PortId) {
        let hop = net.connection(conn).expect("live connection").hops[hop];
        (hop.node, net.router(hop.node).connection(hop.local).expect("hop is mapped").output_vc.port)
    }
}
