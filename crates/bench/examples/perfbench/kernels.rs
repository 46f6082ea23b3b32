//! Isolated kernels: layers the in-workload spans cannot separate from
//! outside (`SwitchScheduler` and the VC memory live inside
//! `Router::step_into`; up*/down* construction lives inside
//! `FaultInjector::poll` and `NetworkSim::new`). Each is the median over
//! up to [`BATCHES`] timed batches, run once per traced pass.

use std::hint::black_box;
use std::time::Instant;

use mmr_bitvec::{Condition, StatusBits, StatusMatrix};
use mmr_core::arbiter::{ArbiterKind, Candidate, ServicePhase};
use mmr_core::conn::{ConnectionRequest, QosClass};
use mmr_core::flit::Flit;
use mmr_core::ids::{ConnectionId, PortId, VcIndex};
use mmr_core::router::RouterConfig;
use mmr_core::{SwitchScheduler, VirtualChannelMemory};
use mmr_net::{Topology, UpDownRouting};
use mmr_sim::{Bandwidth, Cycles, SeededRng};

use crate::metrics::KERNELS;
use crate::trace::median;
use crate::workloads::churn;

/// Timed batches per kernel, for kernels that allow it.
const BATCHES: usize = 31;
/// Host seconds one kernel may take. A single up*/down* construction over
/// the 1056-router dragonfly takes ~0.4 s, and every traced run pays for
/// every kernel, so the slowest kernels get fewer batches (never under
/// [`MIN_BATCHES`]) instead of 31.
const KERNEL_BUDGET_S: f64 = 0.5;
/// Fewest batches a kernel's median is taken over.
const MIN_BATCHES: usize = 3;

/// Median nanoseconds per call of `f`, over batches of `calls` calls each.
fn kernel_ns<R>(calls: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut batch = || {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        start.elapsed().as_nanos() as f64 / f64::from(calls)
    };
    let first = batch();
    let affordable = KERNEL_BUDGET_S * 1e9 / (first * f64::from(calls)).max(1.0);
    let batches = (affordable as usize).clamp(MIN_BATCHES, BATCHES);
    let mut samples: Vec<f64> = std::iter::once(first)
        .chain((1..batches).map(|_| batch()))
        .collect();
    median(&mut samples)
}

/// Runs every kernel; nanoseconds per call, in [`KERNELS`] order.
pub fn run_all() -> [f64; KERNELS.len()] {
    let mut rng = SeededRng::new(1);
    let a = StatusBits::from_set_bits(256, (0..64).map(|_| rng.index(256)));
    let b = StatusBits::from_set_bits(256, (0..64).map(|_| rng.index(256)));
    let and_256 = kernel_ns(20_000, || black_box(&a) & black_box(&b));

    let mut matrix = StatusMatrix::new(256);
    for vc in (0..256).step_by(3) {
        matrix.set(Condition::FlitsAvailable, vc, true);
        matrix.set(Condition::CreditsAvailable, vc, true);
        matrix.set(Condition::ConnectionActive, vc, true);
    }
    let eligible_query = kernel_ns(20_000, || {
        black_box(&matrix).all_of(&[
            Condition::FlitsAvailable,
            Condition::CreditsAvailable,
            Condition::ConnectionActive,
        ])
    });

    // 8 ports × 8 candidates, biased priorities, outputs drawn at random:
    // the matching problem `router_cbr80` solves every cycle.
    let candidates: Vec<Vec<Candidate>> = (0..8u8)
        .map(|input| {
            (0..8u16)
                .map(|k| Candidate {
                    input: PortId(input),
                    vc: VcIndex(k * 8 + u16::from(input)),
                    output: PortId(rng.index(8) as u8),
                    conn: ConnectionId(u32::from(input) * 8 + u32::from(k)),
                    phase: ServicePhase::CbrGuaranteed,
                    priority: rng.uniform(0.0, 4.0),
                })
                .collect()
        })
        .collect();
    let mut scheduler = SwitchScheduler::new(ArbiterKind::BiasedPriority, 8);
    let blocked = [false; 8];
    let mut pairs = Vec::new();
    let switchsched = kernel_ns(5_000, || {
        scheduler.schedule_into(&candidates, &blocked, &mut rng, &mut pairs);
        pairs.len()
    });

    let mut vcm = VirtualChannelMemory::new(256, 4, 8);
    let mut seq = 0u64;
    let vcm_push_pop = kernel_ns(20_000, || {
        seq += 1;
        let vc = VcIndex((seq % 256) as u16);
        let now = Cycles(seq);
        vcm.begin_cycle();
        vcm.push(vc, Flit::data(ConnectionId(7), seq, now), now)
            .expect("the VC was just emptied");
        vcm.pop(vc, now)
    });

    let mut router = RouterConfig::paper_default().seed(3).build();
    let establish_teardown = kernel_ns(5_000, || {
        let id = router
            .establish(ConnectionRequest {
                input: PortId(0),
                output: PortId(1),
                class: QosClass::Cbr {
                    rate: Bandwidth::from_mbps(10.0),
                },
            })
            .expect("an empty router has capacity");
        router.teardown(id)
    });

    let torus = Topology::torus2d(8, 8, 8).expect("an 8x8 torus fits 8 ports");
    let updown_torus64 = kernel_ns(8, || UpDownRouting::new(&torus));
    let dragonfly = Topology::dragonfly(32, 1, 1).expect("the dragonfly fits its port budget");
    let updown_dragonfly = kernel_ns(1, || UpDownRouting::new(&dragonfly));
    let topology_dragonfly = kernel_ns(1, || Topology::dragonfly(32, 1, 1));
    let churn_generate = kernel_ns(1, || churn::tape(false));

    [
        and_256,
        eligible_query,
        switchsched,
        vcm_push_pop,
        establish_teardown,
        updown_torus64,
        updown_dragonfly,
        topology_dragonfly,
        churn_generate,
    ]
}
