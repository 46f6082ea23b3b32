//! The wires under fault: transients, the link-level retry layer, the
//! invariant auditor, and the one sever path link and node faults share.
#![cfg(test)]

use mmr_core::audit::AuditViolation;

use super::*;
use crate::setup::{cbr_mbps, SetupStrategy};
use crate::testkit::mesh_net;

/// The receiving wire endpoint of the connection's `hop`-th router
/// (hop 0 is the source, so pass 1+ to land on an inter-router wire).
fn wire_endpoint(net: &NetworkSim, id: NetConnectionId, hop: usize) -> (NodeId, PortId) {
    let conn = net.connection(id).expect("live connection");
    let h = &conn.hops[hop];
    let state = net.router(h.node).connection(h.local).expect("hop is mapped");
    (h.node, state.input_vc.port)
}

/// Drives `net` for `cycles`, injecting one flit every 4 cycles on `id`,
/// holding the retry layer's live set to its senders and every router
/// connection's tag to its owner after every step; returns (injected,
/// delivered).
fn drive(net: &mut NetworkSim, id: NetConnectionId, cycles: u64) -> (u64, u64) {
    let mut injected = 0;
    let mut delivered = 0;
    for t in 0..cycles {
        if t % 4 == 0 && net.can_inject(id) {
            net.inject(id, Cycles(t)).expect("room");
            injected += 1;
        }
        delivered += net.step(Cycles(t)).delivered.len() as u64;
        assert!(net.llr_live_covers_senders(), "t={t}: an undrained link left the live set");
        assert!(net.tags_agree(), "t={t}: a router connection's tag names the wrong owner");
    }
    (injected, delivered)
}

#[test]
fn llr_leaves_fault_free_timing_untouched() {
    let run = |llr: bool| {
        let mut net = mesh_net();
        if llr {
            net.enable_llr(LlrConfig::default());
        }
        let id = net
            .establish(NodeId(0), NodeId(8), cbr_mbps(620.0), SetupStrategy::Epb)
            .expect("path exists");
        let mut log = Vec::new();
        for t in 0..300u64 {
            if t % 4 == 0 && net.can_inject(id) {
                net.inject(id, Cycles(t)).expect("room");
            }
            for d in net.step(Cycles(t)).delivered {
                log.push((d.flit.seq, d.latency));
            }
            assert!(net.tags_agree(), "t={t}");
        }
        log
    };
    assert_eq!(run(false), run(true), "LLR is timing-transparent without faults");
}

#[test]
fn unprotected_corruption_reaches_the_destination() {
    let mut net = mesh_net();
    let id = net
        .establish(NodeId(0), NodeId(2), cbr_mbps(620.0), SetupStrategy::Epb)
        .expect("path exists");
    let (node, port) = wire_endpoint(&net, id, 1);
    for _ in 0..3 {
        net.arm_transient(node, port, TransientKind::Corrupt).expect("wire endpoint");
    }
    let (injected, delivered) = drive(&mut net, id, 200);
    assert_eq!(injected, delivered, "corrupt flits still arrive, just damaged");
    assert_eq!(net.stats().flits_corrupted, 3);
    assert_eq!(net.stats().undetected_corruptions, 3, "no LLR: silent corruption");
}

#[test]
fn llr_catches_and_replays_corrupted_flits() {
    let mut net = mesh_net();
    net.enable_llr(LlrConfig::default());
    let id = net
        .establish(NodeId(0), NodeId(2), cbr_mbps(620.0), SetupStrategy::Epb)
        .expect("path exists");
    let (node, port) = wire_endpoint(&net, id, 1);
    for _ in 0..3 {
        net.arm_transient(node, port, TransientKind::Corrupt).expect("wire endpoint");
    }
    let (injected, delivered) = drive(&mut net, id, 240);
    assert_eq!(injected, delivered, "every flit eventually delivered");
    assert_eq!(net.stats().undetected_corruptions, 0, "link CRC caught every hit");
    assert_eq!(net.stats().out_of_order, 0, "go-back-N preserves order");
    assert!(net.stats().flits_retransmitted >= 3, "each hit forced a replay");
}

#[test]
fn llr_recovers_dropped_flits() {
    let mut net = mesh_net();
    net.enable_llr(LlrConfig::default());
    let id = net
        .establish(NodeId(0), NodeId(2), cbr_mbps(620.0), SetupStrategy::Epb)
        .expect("path exists");
    let (node, port) = wire_endpoint(&net, id, 1);
    for _ in 0..4 {
        net.arm_transient(node, port, TransientKind::Drop).expect("wire endpoint");
    }
    let (injected, delivered) = drive(&mut net, id, 300);
    assert_eq!(injected, delivered, "drops are replayed, nothing lost");
    assert_eq!(net.stats().flits_dropped, 4);
    assert_eq!(net.stats().flits_lost, 0);
    assert_eq!(net.stats().out_of_order, 0);
}

#[test]
fn enabling_llr_again_starts_every_link_from_scratch() {
    let mut net = mesh_net();
    net.enable_llr(LlrConfig::default());
    let id = net
        .establish(NodeId(0), NodeId(8), cbr_mbps(620.0), SetupStrategy::Epb)
        .expect("path exists");
    let (mut injected, mut delivered) = (0u64, 0u64);
    for t in 0..400u64 {
        if t == 200 {
            // Mid-run, with frames sent last cycle still unacknowledged.
            assert!(net.llr_live_links() > 0);
            net.enable_llr(LlrConfig::default());
            assert_eq!(net.llr_live_links(), 0, "no link survives the switch");
        }
        if t % 4 == 0 && t < 360 && net.can_inject(id) {
            net.inject(id, Cycles(t)).expect("room");
            injected += 1;
        }
        delivered += net.step(Cycles(t)).delivered.len() as u64;
        assert!(net.llr_live_covers_senders(), "t={t}");
        assert!(net.tags_agree(), "t={t}");
    }
    // Both ends of every wire restarted at sequence 0 together, so nothing
    // is taken for a duplicate or a gap.
    assert_eq!(injected, delivered);
    assert_eq!((net.stats().out_of_order, net.stats().flits_retransmitted), (0, 0));
    assert_eq!(net.llr_live_links(), 0, "the drained fabric pumps nothing");
}

#[test]
fn auditor_stays_clean_on_a_healthy_run() {
    let mut net = mesh_net();
    net.enable_audit(AuditConfig::default());
    let id = net
        .establish(NodeId(0), NodeId(8), cbr_mbps(620.0), SetupStrategy::Epb)
        .expect("path exists");
    drive(&mut net, id, 300);
    let aud = net.auditor().expect("enabled");
    assert!(aud.checks() > 0, "the auditor actually ran");
    assert!(aud.is_clean(), "healthy run: {}", aud.summary());
}

/// Without the retry layer a dropped flit is gone for good: its credit
/// leaks, and its destination NI reports exactly one stream loss, naming
/// the connection, the flit it expected and the one that came instead.
#[test]
fn auditor_flags_the_credit_leak_of_an_unprotected_drop() {
    let mut net = mesh_net();
    net.enable_audit(AuditConfig::default());
    let id = net
        .establish(NodeId(0), NodeId(2), cbr_mbps(620.0), SetupStrategy::Epb)
        .expect("path exists");
    let (node, port) = wire_endpoint(&net, id, 1);
    net.arm_transient(node, port, TransientKind::Drop).expect("wire endpoint");
    drive(&mut net, id, 200);
    let aud = net.auditor().expect("enabled");
    assert!(!aud.is_clean(), "a dropped flit without LLR leaks a credit forever");
    assert!(
        aud.violations()
            .iter()
            .any(|v| matches!(v, AuditViolation::CreditConservation { .. })),
        "the leak shows up as a conservation break: {}",
        aud.summary()
    );
    let stream_laws: Vec<_> = (aud.violations().iter())
        .filter(|v| {
            matches!(v, AuditViolation::StreamLoss { .. } | AuditViolation::StreamDuplicate { .. })
        })
        .collect();
    let stream = u64::from(id.0);
    assert_eq!(stream_laws, [&AuditViolation::StreamLoss { stream, expected: 0, got: 1 }]);
    assert_eq!(net.stats().out_of_order, 1);
}

#[test]
fn llr_keeps_the_conservation_audit_clean_under_faults() {
    let mut net = mesh_net();
    net.enable_llr(LlrConfig::default());
    net.enable_audit(AuditConfig::default());
    let id = net
        .establish(NodeId(0), NodeId(2), cbr_mbps(620.0), SetupStrategy::Epb)
        .expect("path exists");
    let (node, port) = wire_endpoint(&net, id, 1);
    net.arm_transient(node, port, TransientKind::Drop).expect("wire endpoint");
    net.arm_transient(node, port, TransientKind::Corrupt).expect("wire endpoint");
    drive(&mut net, id, 300);
    let aud = net.auditor().expect("enabled");
    assert!(aud.is_clean(), "the retry layer conserves credits: {}", aud.summary());
    assert_eq!(net.stats().undetected_corruptions, 0);
}

#[test]
fn transients_on_a_terminal_port_are_rejected() {
    let mut net = mesh_net();
    let terminal = net.topology().terminal_port(NodeId(0)).expect("terminal exists");
    assert!(net.arm_transient(NodeId(0), terminal, TransientKind::Drop).is_err());
}

/// One wire, cut three ways while the retry layer still holds frames the
/// receiver never acknowledged: as a link fault, and as a node fault of
/// either endpoint. All three go through `Wires::sever`, so all three keep
/// the books exact.
#[test]
fn link_and_node_faults_sever_wires_through_one_path() {
    type Cut = fn(&mut NetworkSim, (NodeId, PortId)) -> Vec<NetConnectionId>;
    let cuts: [(&str, Cut); 3] = [
        ("fail_link", |net, (node, port)| net.fail_link(node, port).expect("wire is up")),
        ("fail_node(receiver)", |net, (node, _)| net.fail_node(node).expect("node is up")),
        ("fail_node(sender)", |net, (node, port)| {
            let (peer, _) = net.topology().peer_of(node, port).expect("wired");
            net.fail_node(peer).expect("node is up")
        }),
    ];
    for (name, cut) in cuts {
        let mut net = mesh_net();
        net.enable_llr(LlrConfig::default());
        net.enable_audit(AuditConfig::default());
        let id = net
            .establish(NodeId(0), NodeId(2), cbr_mbps(620.0), SetupStrategy::Epb)
            .expect("path exists");
        let wire = wire_endpoint(&net, id, 1);
        let (mut injected, mut delivered) = (0u64, 0u64);
        for t in 0..200u64 {
            if t == 40 {
                // Frames struck from here on sit unacknowledged in the
                // sender's replay buffer when the wire is cut.
                for _ in 0..3 {
                    net.arm_transient(wire.0, wire.1, TransientKind::Drop).expect("wire endpoint");
                }
            }
            if t == 46 {
                assert_eq!(cut(&mut net, wire), vec![id], "{name}: the stream crossed the wire");
            }
            if t % 4 == 0 && net.connection(id).is_some() && net.can_inject(id) {
                net.inject(id, Cycles(t)).expect("room");
                injected += 1;
            }
            delivered += net.step(Cycles(t)).delivered.len() as u64;
            assert!(net.tags_agree(), "{name}: t={t}");
        }
        let stats = net.stats();
        assert!(stats.flits_dropped > 0, "{name}: the cut found frames unacknowledged");
        assert_eq!(injected, delivered + stats.flits_lost, "{name}: injected = delivered + lost");
        let aud = net.auditor().expect("enabled");
        assert!(aud.is_clean(), "{name}: {}", aud.summary());
    }
}

/// The stale-delivery guard. A frame dropped on the wire waits in the
/// sender's replay buffer; its session is torn down and a new one re-leases
/// the very VC the frame is bound for before the replay lands. The replay
/// is lost — the new session never sees it, in or out of order — and the
/// books still balance.
#[test]
fn a_replay_that_outlived_its_session_is_lost_not_delivered() {
    let mut net = mesh_net();
    net.enable_llr(LlrConfig::default());
    let establish = |net: &mut NetworkSim| {
        net.establish(NodeId(0), NodeId(2), cbr_mbps(620.0), SetupStrategy::Epb)
            .expect("path exists")
    };
    let input_vc = |net: &NetworkSim, id| {
        let hop = net.connection(id).expect("live connection").hops[1];
        net.router(hop.node).connection(hop.local).expect("hop is mapped").input_vc
    };
    let old = establish(&mut net);
    let (node, port) = wire_endpoint(&net, old, 1);
    let leased = input_vc(&net, old);
    net.arm_transient(node, port, TransientKind::Drop).expect("wire endpoint");
    net.inject(old, Cycles(0)).expect("room");
    for t in 0..4 {
        net.step(Cycles(t));
    }
    assert_eq!(net.stats().flits_dropped, 1, "the frame was struck on the wire");
    assert_eq!(net.stats().flits_retransmitted, 0, "its replay is still pending");

    net.teardown(old).expect("live");
    let new = establish(&mut net);
    assert_eq!(input_vc(&net, new), leased, "the new session re-leased the VC");
    let (mut injected, mut delivered) = (1u64, 0u64);
    for t in 4..300u64 {
        if t % 4 == 0 && t < 240 && net.can_inject(new) {
            net.inject(new, Cycles(t)).expect("room");
            injected += 1;
        }
        for d in net.step(Cycles(t)).delivered {
            assert_eq!(d.conn, new, "t={t}");
            delivered += 1;
        }
        assert!(net.tags_agree(), "t={t}");
    }
    let stats = net.stats();
    assert!(stats.flits_retransmitted > 0, "the replay landed after the re-lease");
    assert_eq!(stats.flits_lost, 1, "the replay counts as lost");
    assert_eq!(delivered, injected - 1, "and never reaches the new session");
    assert_eq!(stats.out_of_order, 0, "the new session's stream is in order");
    assert_eq!(injected, delivered + stats.flits_lost, "injected = delivered + lost");
}
