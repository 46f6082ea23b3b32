//! Control-plane transcript pin: one fixed churn tape, two link faults and a
//! repair on the 3×3 mesh, driven through [`AdmissionController`]. Every
//! `AdmitVerdict`, `RecoveryEvent`, `Preemption` and the per-cycle
//! `(sessions, active)` pair is folded into one FNV-1a hash, so an
//! order-of-operations slip in the session layer shows up here in a second
//! instead of after the campaign suite. The constant was produced by running
//! this test at the commit before the one-ledger refactor.

use std::fmt::Debug;

use mmr_core::router::RouterConfig;
use mmr_core::QosClass;
use mmr_net::{
    AdmissionController, AdmitPolicy, NetworkSim, NodeId, RecoveryPolicy, SessionId, Topology,
};
use mmr_sim::{Bandwidth, Cycles, SeededRng};

const PINNED: u64 = 0xD23F_448C_BA0C_AB83;

const CYCLES: u64 = 2_400;
/// Arrivals dominate the first half (overload: degraded admits, rejections,
/// shed rounds), departures the second (load recedes: upgrades).
const TURN: u64 = 1_200;
const RATES_MBPS: [f64; 5] = [16.0, 55.0, 120.0, 120.0, 120.0];

fn fold(hash: &mut u64, item: &impl Debug) {
    for byte in format!("{item:?};").bytes() {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

#[test]
fn churn_with_faults_replays_the_pinned_transcript() {
    let mut net = NetworkSim::new(
        Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget"),
        RouterConfig::paper_default().vcs_per_port(12).candidates(2),
    );
    // Hair-trigger policies so a short tape reaches every branch: shed
    // rounds and upgrades on the admission side; timeouts, backoff, rate
    // degradation and abandonment on the recovery side.
    let mut ctl = AdmissionController::with_recovery(
        AdmitPolicy::default().headroom(0.4).low_watermark(0.3).shed_patience(16).shed_batch(2),
        RecoveryPolicy::default()
            .max_retries(3)
            .backoff(Cycles(4), Cycles(32))
            .setup_timeout(Cycles(8)),
    );
    // Corner node 0 has two wires: the first cut reroutes its sessions, the
    // second partitions it (parked sessions, `Unreachable` rejections), and
    // the repair unparks them.
    let corner: Vec<_> = net.topology().neighbors(NodeId(0)).into_iter().map(|(port, ..)| port).collect();
    let (first_cut, second_cut) = ((NodeId(0), corner[0]), (NodeId(0), corner[1]));

    let mut rng = SeededRng::new(0x7A9E);
    let mut live: Vec<SessionId> = Vec::new();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for t in 0..CYCLES {
        let now = Cycles(t);
        let broken = match t {
            500 => net.fail_link(first_cut.0, first_cut.1).expect("inter-router wire"),
            800 => net.fail_link(second_cut.0, second_cut.1).expect("inter-router wire"),
            1_500 => {
                net.repair_link(first_cut.0, first_cut.1).expect("was failed");
                Vec::new()
            }
            _ => Vec::new(),
        };
        fold(&mut hash, &broken);
        ctl.on_faults(&broken, now);

        if t % 4 == 0 {
            if rng.chance(if t < TURN { 0.85 } else { 0.15 }) {
                let (src, dst) = (rng.index(9) as u16, rng.index(9) as u16);
                let class = if rng.chance(0.2) {
                    QosClass::BestEffort
                } else {
                    QosClass::Cbr { rate: Bandwidth::from_mbps(*rng.pick(&RATES_MBPS)) }
                };
                if src != dst {
                    let verdict = ctl.request(&mut net, NodeId(src), NodeId(dst), class);
                    fold(&mut hash, &verdict);
                    live.extend(verdict.session());
                }
            } else if !live.is_empty() {
                let id = live.remove(rng.index(live.len()));
                fold(&mut hash, &(id, ctl.close(&mut net, id)));
            }
        }

        let report = net.step(now);
        let (events, preempted) = ctl.service(&mut net, &report, now);
        for event in &events {
            fold(&mut hash, event);
        }
        for p in &preempted {
            fold(&mut hash, p);
            live.retain(|&id| id != p.session);
        }
        fold(&mut hash, &(ctl.sessions().sessions(), ctl.sessions().active().count()));
    }
    fold(&mut hash, ctl.stats());
    fold(&mut hash, ctl.sessions().stats());

    // The tape must actually exercise what it pins.
    let (admit, recovery) = (ctl.stats(), ctl.sessions().stats());
    assert!(
        admit.degraded > 0
            && admit.rejected_saturated > 0
            && admit.rejected_resources > 0
            && admit.rejected_other > 0
            && admit.preempted_best_effort > 0
            && admit.preempted_cbr > 0
            && admit.starvation_skips > 0
            && admit.upgrades > 0,
        "{admit:?}"
    );
    assert!(
        recovery.recovered > 0
            && recovery.timeouts > 0
            && recovery.degraded > 0
            && recovery.partitioned > 0
            && recovery.probe_throttled > 0
            && recovery.permanently_failed > 0,
        "{recovery:?}"
    );
    assert_eq!(hash, PINNED, "control-plane transcript moved: {hash:#018x}");
}
