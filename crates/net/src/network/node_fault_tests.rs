//! Whole-router failure and repair: quarantine, root migration, exact
//! accounting, and engine-independence next to sleeping neighbors.
#![cfg(test)]

use super::*;
use crate::setup::{cbr_mbps, SetupError, SetupStrategy};
use crate::testkit::mesh_net;

#[test]
fn failing_a_node_tears_down_crossing_connections_and_quarantines() {
    let mut net = mesh_net();
    // 3 -> 5 on the middle row is forced through the centre router.
    let through = net
        .establish(NodeId(3), NodeId(5), cbr_mbps(10.0), SetupStrategy::Epb)
        .expect("path exists");
    let elsewhere = net
        .establish(NodeId(0), NodeId(2), cbr_mbps(10.0), SetupStrategy::Epb)
        .expect("path exists");
    let broken = net.fail_node(NodeId(4)).expect("operational");
    assert_eq!(broken, vec![through], "only the crossing connection breaks");
    assert!(!net.node_ok(NodeId(4)));
    assert!(net.router(NodeId(4)).is_quarantined());
    assert!(net.connection(elsewhere).is_some(), "top-row connection survives");
    assert_eq!(net.stats().nodes_failed, 1);
    assert_eq!(
        net.fail_node(NodeId(4)),
        Err(NetError::NodeAlreadyFailed { node: NodeId(4) }),
        "double fail is a typed error"
    );
    // Re-establishment detours around the dead router.
    let detour = net
        .establish(NodeId(3), NodeId(5), cbr_mbps(10.0), SetupStrategy::Epb)
        .expect("the mesh minus its centre is still connected");
    let hops = net.connection(detour).expect("live").hops.clone();
    assert!(hops.len() >= 5, "3->5 without node 4 takes the long way: {hops:?}");
    assert!(hops.iter().all(|h| h.node != NodeId(4)), "never through the corpse");
    net.inject(detour, Cycles(0)).expect("live");
    let mut delivered = 0;
    for t in 0..60u64 {
        delivered += net.step(Cycles(t)).delivered.len();
    }
    assert_eq!(delivered, 1);
    // The dead router itself is a typed partition, not a retry loop.
    let err = net
        .establish(NodeId(0), NodeId(4), cbr_mbps(10.0), SetupStrategy::Epb)
        .expect_err("a failed node terminates no sessions");
    assert_eq!(err, SetupError::Unreachable);
    assert_eq!(net.stats().partitioned_sessions, 1);
    // No reservations leaked anywhere, the dead router included.
    let expected = net.connection(elsewhere).expect("live").hops.len()
        + net.connection(detour).expect("live").hops.len();
    let total: usize = (0..9).map(|n| net.router(NodeId(n)).connections()).sum();
    assert_eq!(total, expected);
    assert_eq!(net.router(NodeId(4)).connections(), 0);
}

#[test]
fn repair_restores_the_node_and_its_reachability() {
    let mut net = mesh_net();
    assert_eq!(
        net.repair_node(NodeId(4)),
        Err(NetError::NodeNotFailed { node: NodeId(4) }),
        "repairing a healthy node is a typed error"
    );
    net.fail_node(NodeId(4)).expect("operational");
    let epoch_failed = net.topology_epoch();
    net.repair_node(NodeId(4)).expect("was failed");
    assert!(net.node_ok(NodeId(4)));
    assert!(!net.router(NodeId(4)).is_quarantined());
    assert!(net.topology_epoch() > epoch_failed, "repair moves the epoch");
    assert_eq!(net.stats().nodes_repaired, 1);
    // Direct middle-row routing is back.
    let conn = net
        .establish(NodeId(3), NodeId(5), cbr_mbps(10.0), SetupStrategy::Epb)
        .expect("path exists again");
    assert_eq!(net.connection(conn).expect("live").hops.len(), 3, "3-4-5 direct");
    net.inject(conn, Cycles(0)).expect("live");
    let mut delivered = 0;
    for t in 0..40u64 {
        delivered += net.step(Cycles(t)).delivered.len();
    }
    assert_eq!(delivered, 1);
}

#[test]
fn routing_root_migrates_off_a_dead_root_and_returns_on_repair() {
    let mut net = mesh_net();
    assert_eq!(net.routing().root(), NodeId(0), "root starts at the lowest id");
    net.fail_node(NodeId(0)).expect("operational");
    assert_eq!(net.routing().root(), NodeId(1), "lowest surviving id takes over");
    // The re-rooted up*/down* graph still routes between survivors.
    let conn = net
        .establish(NodeId(6), NodeId(2), cbr_mbps(10.0), SetupStrategy::Epb)
        .expect("survivors stay connected");
    net.inject(conn, Cycles(0)).expect("live");
    let mut delivered = 0;
    for t in 0..60u64 {
        delivered += net.step(Cycles(t)).delivered.len();
    }
    assert_eq!(delivered, 1);
    net.repair_node(NodeId(0)).expect("was failed");
    assert_eq!(net.routing().root(), NodeId(0), "repair restores the canonical root");
}

#[test]
fn node_fail_repair_cycle_conserves_flits_and_stays_audit_clean() {
    let mut net = mesh_net();
    net.enable_audit(AuditConfig::default());
    let mid = net
        .establish(NodeId(3), NodeId(5), cbr_mbps(310.0), SetupStrategy::Epb)
        .expect("path exists");
    let cross = net
        .establish(NodeId(0), NodeId(8), cbr_mbps(310.0), SetupStrategy::Epb)
        .expect("path exists");
    let mut injected = 0u64;
    for t in 0..120u64 {
        for id in [mid, cross] {
            if t % 4 == 0 && net.connection(id).is_some() && net.can_inject(id) {
                net.inject(id, Cycles(t)).expect("checked");
                injected += 1;
            }
        }
        if t == 60 {
            // The centre dies mid-stream: buffered and in-flight flits
            // around it are destroyed, with exact accounting.
            let broken = net.fail_node(NodeId(4)).expect("operational");
            assert!(broken.contains(&mid), "3->5 crossed the centre");
        }
        if t == 90 {
            net.repair_node(NodeId(4)).expect("was failed");
        }
        net.step(Cycles(t));
    }
    // Re-establish over the healed topology and drain everything.
    let again = net
        .establish(NodeId(3), NodeId(5), cbr_mbps(310.0), SetupStrategy::Epb)
        .expect("healed");
    for t in 120..240u64 {
        if t % 4 == 0 && net.can_inject(again) {
            net.inject(again, Cycles(t)).expect("checked");
            injected += 1;
        }
        net.step(Cycles(t));
    }
    for t in 240..400u64 {
        net.step(Cycles(t));
    }
    let stats = net.stats().clone();
    assert_eq!(
        stats.flits_delivered + stats.flits_lost,
        injected,
        "every flit is delivered or accounted lost across the fail/repair cycle"
    );
    assert_eq!(stats.ghost_releases, 0, "no release named missing state");
    let aud = net.auditor().expect("enabled");
    assert!(aud.checks() > 0, "the auditor actually ran");
    assert!(aud.is_clean(), "zero conservation violations: {}", aud.summary());
}

#[test]
fn sleeping_neighbors_observe_node_faults_identically_across_engines() {
    // Same scenario on both stepping engines: traffic pinned to the
    // bottom row lets the top rows go quiescent; the node fault then
    // strikes next to sleeping routers, which must wake and detour the
    // follow-up packets identically.
    let run = |dense: bool| -> (Vec<String>, String) {
        let mut net = mesh_net();
        net.set_dense_stepping(dense);
        let stream = net
            .establish(NodeId(6), NodeId(8), cbr_mbps(310.0), SetupStrategy::Epb)
            .expect("path exists");
        let mut frames = Vec::new();
        for t in 0..240u64 {
            if t < 60 && t % 4 == 0 && net.can_inject(stream) {
                net.inject(stream, Cycles(t)).expect("checked");
            }
            if t == 100 {
                // Routers 0, 1, 2 have been idle for 40+ cycles.
                net.fail_node(NodeId(1)).expect("operational");
                net.send_packet(NodeId(0), NodeId(2), FlitKind::BestEffort, Cycles(t))
                    .expect("valid");
            }
            if t == 170 {
                net.repair_node(NodeId(1)).expect("was failed");
                net.send_packet(NodeId(0), NodeId(2), FlitKind::BestEffort, Cycles(t))
                    .expect("valid");
            }
            frames.push(format!("{:?}", net.step(Cycles(t))));
        }
        assert_eq!(net.stats().packets_delivered, 2, "both probes detoured/arrived");
        (frames, format!("{:?}", net.stats()))
    };
    let (event_frames, event_stats) = run(false);
    let (dense_frames, dense_stats) = run(true);
    for (t, (e, d)) in event_frames.iter().zip(&dense_frames).enumerate() {
        assert_eq!(e, d, "engines diverge at cycle {t}");
    }
    assert_eq!(event_stats, dense_stats, "identical aggregate statistics");
}
