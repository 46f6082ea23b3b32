//! Thousand-node scale campaigns: dragonfly and butterfly fabrics under
//! CBR churn, with measured memory footprints.
//!
//! Each point builds an HPC-scale fabric with its structured routing
//! algorithm (group-minimal on the dragonfly, destination-tag on the
//! butterfly), opens a population of CBR sessions, drives churn (periodic
//! teardown + re-establishment) through a bounded run, then tears
//! everything down. At steady state it reads the fabric's accounted
//! footprint ([`NetworkSim::memory_footprint`]) and its materialized VC
//! queue banks. The footprint is accounted, not resident: a closed-form
//! model of the storage the configuration states (`mmr_core::footprint`),
//! whose one measured term is the queue storage the traffic materialized,
//! so the bytes-per-router budget guards against re-eagered VC banks. The
//! resident counts are `Router::materialized_vc_banks` (reported here) and
//! `Router::ports_holding_tables`; resident memory itself is perfbench's
//! `peak_rss_mb`.
//!
//! Every field of [`ScaleResult`] is a pure function of the point and its
//! seed, so `BENCH_scale.json` and `results/scale.txt` are byte-identical
//! at any `--jobs` value (see [`crate::campaign`]). How fast the fabric
//! steps is `perfbench`'s `dragonfly_sparse` workload, not this file's
//! business.

use mmr_core::router::RouterConfig;
use mmr_net::setup::cbr_mbps;
use mmr_net::{
    Butterfly, Dragonfly, MinimalSpec, NetConnectionId, NetworkSim, NodeId, RoutingSpec,
    SetupStrategy, Topology,
};
use mmr_sim::{Cycles, SeededRng};

use crate::campaign::{Campaign, Column, Value};
use crate::FIGURE_SEED;

/// Fabrics the scale wall exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleFabric {
    /// Balanced dragonfly `(a=32, p=1, h=1)`: 33 groups × 32 routers =
    /// 1056 nodes, group-minimal routing.
    Dragonfly1056,
    /// 2-ary 8-fly butterfly: 8 stages × 128 rows = 1024 nodes,
    /// destination-tag routing.
    Butterfly1024,
    /// Reduced dragonfly `(a=16, h=1, 16 groups)`: 256 nodes — the CI
    /// smoke configuration (`--quick`).
    DragonflyQuick256,
}

impl ScaleFabric {
    /// Stable series name.
    pub fn name(&self) -> &'static str {
        match self {
            ScaleFabric::Dragonfly1056 => "dragonfly-1056",
            ScaleFabric::Butterfly1024 => "butterfly-1024",
            ScaleFabric::DragonflyQuick256 => "dragonfly-quick-256",
        }
    }

    /// Node count of the fabric.
    pub fn nodes(&self) -> usize {
        match self {
            ScaleFabric::Dragonfly1056 => 1056,
            ScaleFabric::Butterfly1024 => 1024,
            ScaleFabric::DragonflyQuick256 => 256,
        }
    }

    /// Builds the wired topology.
    pub fn build(&self) -> Topology {
        match self {
            ScaleFabric::Dragonfly1056 => Topology::dragonfly(32, 1, 1),
            ScaleFabric::Butterfly1024 => Topology::butterfly(2, 8),
            ScaleFabric::DragonflyQuick256 => {
                Dragonfly::with_groups(16, 1, 1, 16).build()
            }
        }
        .expect("scale fabrics wire within the port budget")
    }

    /// The structured routing algorithm matching the fabric.
    pub fn routing(&self) -> RoutingSpec {
        let minimal = match self {
            ScaleFabric::Dragonfly1056 => {
                MinimalSpec::Dragonfly(Dragonfly::balanced(32, 1, 1))
            }
            ScaleFabric::Butterfly1024 => MinimalSpec::Butterfly(Butterfly::new(2, 8)),
            ScaleFabric::DragonflyQuick256 => {
                MinimalSpec::Dragonfly(Dragonfly::with_groups(16, 1, 1, 16))
            }
        };
        RoutingSpec { minimal, valiant_salt: None }
    }

    /// Accounted budget per router (bytes): the steady-state figures plus
    /// ~40% headroom, enforced by [`Scale`]'s verdict. A regression that
    /// re-eagers the VC banks trips this.
    pub fn bytes_per_router_budget(&self) -> usize {
        match self {
            // 33 ports/router at 256 VCs each dominates; lazy banks keep
            // the VCM term to the handful of ports that carried traffic.
            // Measured ≈ 247 KiB/router.
            ScaleFabric::Dragonfly1056 => 352 * 1024,
            // 5 ports/router: the butterfly is an order of magnitude
            // leaner. Measured ≈ 39 KiB/router.
            ScaleFabric::Butterfly1024 => 56 * 1024,
            // 17 ports/router. Measured ≈ 128 KiB/router.
            ScaleFabric::DragonflyQuick256 => 184 * 1024,
        }
    }

    /// CBR sessions held open at steady state.
    pub fn sessions(&self) -> usize {
        match self {
            ScaleFabric::Dragonfly1056 | ScaleFabric::Butterfly1024 => 64,
            ScaleFabric::DragonflyQuick256 => 24,
        }
    }

    /// Simulated cycles of the churn window (teardown + drain excluded).
    pub fn cycles(&self) -> u64 {
        match self {
            ScaleFabric::Dragonfly1056 | ScaleFabric::Butterfly1024 => 6_000,
            ScaleFabric::DragonflyQuick256 => 3_000,
        }
    }
}

/// Deterministic outcome of one scale point (everything the byte-compared
/// table renders).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaleResult {
    /// Fabric node count.
    pub nodes: usize,
    /// Fabric wire count.
    pub links: usize,
    /// Sessions successfully established over the whole run (incl. churn
    /// replacements).
    pub established: u64,
    /// Establishment attempts the fabric denied (admission or probe
    /// failure); the campaign over-draws pairs, so nonzero is not an error.
    pub denied: u64,
    /// Flits injected at the sources.
    pub injected: u64,
    /// Flits delivered end to end.
    pub delivered: u64,
    /// Flits lost (must stay zero — nothing faults in this campaign).
    pub lost: u64,
    /// Router flit cycles actually stepped (awake routers only).
    pub router_cycles: u64,
    /// Steady-state accounted fabric footprint in bytes, read after the
    /// churn window while the session population is still open.
    pub footprint_bytes: usize,
    /// `footprint_bytes / nodes`.
    pub bytes_per_router: usize,
    /// Lazily materialized VC queue banks across the fabric (the eager
    /// alternative would be `ports × vcs/32` per router).
    pub materialized_vc_banks: usize,
    /// Whether the conservation auditor (enabled under `MMR_AUDIT=1`)
    /// finished clean; `true` when the auditor was off.
    pub auditor_clean: bool,
}

/// Runs one seeded scale point: establish → CBR churn → teardown.
pub fn run_point(fabric: ScaleFabric, seed: u64) -> ScaleResult {
    let topology = fabric.build();
    let links = topology.wires().len();
    let router = RouterConfig::paper_default().candidates(4).seed(seed ^ 0x5CA1E);
    let mut net = NetworkSim::with_routing(topology, router, fabric.routing());

    let mut rng = SeededRng::new(seed);
    let nodes = fabric.nodes();
    let mut live: Vec<NetConnectionId> = Vec::new();
    let mut established = 0u64;
    let mut denied = 0u64;
    let mut injected = 0u64;

    let mut open_sessions = |net: &mut NetworkSim,
                             rng: &mut SeededRng,
                             live: &mut Vec<NetConnectionId>,
                             want: usize| {
        let mut attempts = 0;
        while live.len() < want && attempts < want * 4 {
            attempts += 1;
            let src = NodeId(rng.index(nodes) as u16);
            let dst = NodeId(rng.index(nodes) as u16);
            if src == dst {
                continue;
            }
            match net.establish(src, dst, cbr_mbps(8.0), SetupStrategy::Epb) {
                Ok(c) => {
                    live.push(c);
                    established += 1;
                }
                Err(_) => denied += 1,
            }
        }
    };

    open_sessions(&mut net, &mut rng, &mut live, fabric.sessions());

    // Churn window: inject on every live session each 16 cycles; at the
    // one-third marks, drain in-flight traffic, close a third of the
    // population, and refill it. The drain keeps teardown from discarding
    // flits still crossing the fabric — nothing faults here, so `lost`
    // must close at zero.
    let total = fabric.cycles();
    let churn_at = [total / 3, 2 * total / 3];
    let mut t = 0u64;
    let drain = |net: &mut NetworkSim, t: &mut u64| {
        for _ in 0..400 {
            net.step(Cycles(*t));
            *t += 1;
        }
    };
    while t < total {
        if churn_at.contains(&t) {
            drain(&mut net, &mut t);
            let closing = live.len() / 3;
            for c in live.drain(..closing) {
                net.teardown(c).expect("tracked as live");
            }
            open_sessions(&mut net, &mut rng, &mut live, fabric.sessions());
        }
        if t.is_multiple_of(16) {
            for &c in &live {
                if net.can_inject(c) {
                    net.inject(c, Cycles(t)).expect("checked");
                    injected += 1;
                }
            }
        }
        net.step(Cycles(t));
        t += 1;
    }

    // Steady-state footprint: the churn population is still open, queues
    // hold whatever the traffic materialized.
    let footprint_bytes = net.memory_footprint();
    let materialized_vc_banks =
        (0..nodes).map(|n| net.router(NodeId(n as u16)).materialized_vc_banks()).sum();

    // Drain the tail, then teardown: conservation must close exactly.
    drain(&mut net, &mut t);
    for c in live.drain(..) {
        net.teardown(c).expect("tracked as live");
    }
    for _ in 0..64 {
        net.step(Cycles(t));
        t += 1;
    }

    let stats = net.stats().clone();
    let router_cycles = (0..nodes).map(|n| net.router(NodeId(n as u16)).stats().cycles).sum();
    let auditor_clean = net.auditor().is_none_or(|a| a.is_clean());
    ScaleResult {
        nodes,
        links,
        established,
        denied,
        injected,
        delivered: stats.flits_delivered,
        lost: stats.flits_lost,
        router_cycles,
        footprint_bytes,
        bytes_per_router: footprint_bytes / nodes,
        materialized_vc_banks,
        auditor_clean,
    }
}

/// The scale wall (`BENCH_scale.json`, `results/scale.txt`).
pub struct Scale;

impl Campaign for Scale {
    const NAME: &'static str = "scale";
    const SEED: u64 = FIGURE_SEED ^ 0x5CA1_EAB1;
    const TITLE: &'static str = "MMR scale wall: thousand-node fabrics under CBR churn";
    const WIDE_JSON: bool = true;
    type Spec = ScaleFabric;
    type Cell = ScaleResult;

    /// The CI smoke point under `--quick`, the two thousand-node fabrics
    /// otherwise.
    fn grid(quick: bool) -> Vec<ScaleFabric> {
        if quick {
            vec![ScaleFabric::DragonflyQuick256]
        } else {
            vec![ScaleFabric::Dragonfly1056, ScaleFabric::Butterfly1024]
        }
    }

    fn run_trial(fabric: &ScaleFabric, seed: u64) -> ScaleResult {
        run_point(*fabric, seed)
    }

    fn absorb(cell: &mut ScaleResult, trial: ScaleResult) {
        *cell = trial;
    }

    fn columns() -> Vec<Column<Self>> {
        use Value::{Bool, Int, Text};
        let (show, json) = (Column::<Self>::show, Column::<Self>::json);
        vec![
            show("fabric", "fabric", 20, |f, _| Text(f.name().into())),
            show("nodes", "nodes", 6, |_, r| Int(r.nodes as u64)),
            show("links", "links", 6, |_, r| Int(r.links as u64)),
            json("routing", |f, _| Text(f.routing().label())),
            show("established", "sess", 5, |_, r| Int(r.established)),
            show("denied", "denied", 6, |_, r| Int(r.denied)),
            show("injected", "injected", 9, |_, r| Int(r.injected)),
            show("delivered", "delivered", 9, |_, r| Int(r.delivered)),
            show("lost", "lost", 5, |_, r| Int(r.lost)),
            json("router_cycles", |_, r| Int(r.router_cycles)),
            json("footprint_bytes", |_, r| Int(r.footprint_bytes as u64)),
            show("bytes_per_router", "bytes/router", 12, |_, r| Int(r.bytes_per_router as u64)),
            json("bytes_per_router_budget", |f, _| Int(f.bytes_per_router_budget() as u64)),
            json("within_budget", |f, r| Bool(r.bytes_per_router <= f.bytes_per_router_budget())),
            show("materialized_vc_banks", "vcbanks", 8, |_, r| Int(r.materialized_vc_banks as u64)),
            show("auditor_clean", "clean", 6, |_, r| Bool(r.auditor_clean)),
        ]
    }

    /// Every point within its bytes-per-router budget, auditor clean, and —
    /// nothing faults here — not one flit lost.
    fn verdict(cells: &[(ScaleFabric, ScaleResult)]) -> Result<(), String> {
        let mut failures = Vec::new();
        for (fabric, r) in cells {
            let (name, budget, bytes) =
                (fabric.name(), fabric.bytes_per_router_budget(), r.bytes_per_router);
            if bytes > budget {
                failures.push(format!("{name} bytes/router {bytes} over budget {budget}"));
            }
            if !r.auditor_clean {
                failures.push(format!("{name} finished with a dirty auditor"));
            }
            if r.lost != 0 {
                failures.push(format!("{name} lost {} flits in a fault-free run", r.lost));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmr_sim::sweep::point_seed;

    #[test]
    fn quick_point_is_clean_and_within_budget() {
        let fabric = ScaleFabric::DragonflyQuick256;
        let r = run_point(fabric, point_seed(Scale::SEED, 0));
        assert_eq!(r.nodes, 256);
        assert!(r.established >= fabric.sessions() as u64);
        assert!(r.delivered > 0, "CBR traffic flowed");
        assert_eq!(Scale::verdict(&[(fabric, r)]), Ok(()), "lossless, clean, within budget");
        // Lazy banks: the fabric materialized only a sliver of the eager
        // worst case (ports × vcs/32 banks per router).
        let eager = 256 * 17 * (256 / 32);
        assert!(
            r.materialized_vc_banks * 10 < eager,
            "{} banks materialized vs {} eager",
            r.materialized_vc_banks,
            eager
        );
    }
}
