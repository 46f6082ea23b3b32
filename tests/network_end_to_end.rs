//! Integration tests for multi-router operation: streams, packets, flow
//! control and connection churn across topologies.

use mmr::core::flit::FlitKind;
use mmr::core::router::RouterConfig;
use mmr::net::setup::cbr_mbps;
use mmr::net::{NetworkSim, NodeId, SetupStrategy, Topology};
use mmr::sim::{Cycles, SeededRng};

fn router_cfg(seed: u64) -> RouterConfig {
    RouterConfig::paper_default().vcs_per_port(8).candidates(4).seed(seed)
}

fn drive_stream(net: &mut NetworkSim, topology_name: &str, src: u16, dst: u16) {
    let conn = net
        .establish(NodeId(src), NodeId(dst), cbr_mbps(310.0), SetupStrategy::Epb)
        .unwrap_or_else(|e| panic!("{topology_name}: setup {src}->{dst} failed: {e}"));
    let (mut injected, mut delivered) = (0u64, 0u64);
    for t in 0..2_200u64 {
        if t < 2_000 && t % 4 == 0 && net.can_inject(conn) {
            net.inject(conn, Cycles(t)).expect("checked");
            injected += 1;
        }
        delivered += net.step(Cycles(t)).delivered.iter().filter(|d| d.conn == conn).count() as u64;
    }
    assert_eq!(injected, delivered, "{topology_name}: conservation {src}->{dst}");
    assert_eq!(net.stats().out_of_order, 0, "{topology_name}: in-order delivery");
}

#[test]
fn streams_flow_on_every_topology() {
    for (name, topology) in [
        ("mesh", Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget")),
        ("torus", Topology::torus2d(3, 3, 8).expect("topology wires within the port budget")),
        ("ring", Topology::ring(6, 4).expect("topology wires within the port budget")),
        ("irregular", Topology::irregular(9, 5, 4, &mut SeededRng::new(5)).expect("topology wires within the port budget")),
    ] {
        let far = (topology.nodes() - 1) as u16;
        let mut net = NetworkSim::new(topology, router_cfg(1));
        drive_stream(&mut net, name, 0, far);
    }
}

#[test]
fn concurrent_streams_share_the_network() {
    let mut net = NetworkSim::new(Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget"), router_cfg(2));
    let pairs = [(0u16, 8u16), (2, 6), (6, 2), (8, 0), (1, 7), (3, 5)];
    let conns: Vec<_> = pairs
        .iter()
        .map(|&(a, b)| {
            net.establish(NodeId(a), NodeId(b), cbr_mbps(124.0), SetupStrategy::Epb)
                .expect("mesh has capacity for six 10% streams")
        })
        .collect();
    let (mut injected, mut delivered) = (vec![0u64; conns.len()], vec![0u64; conns.len()]);
    for t in 0..5_300u64 {
        for (i, &c) in conns.iter().enumerate() {
            if t < 5_000 && t % 10 == i as u64 % 10 && net.can_inject(c) {
                net.inject(c, Cycles(t)).expect("checked");
                injected[i] += 1;
            }
        }
        for d in net.step(Cycles(t)).delivered {
            let i = conns.iter().position(|&c| c == d.conn).expect("one of the streams");
            delivered[i] += 1;
        }
    }
    for (i, &delivered) in delivered.iter().enumerate() {
        assert_eq!(delivered, injected[i], "stream {i} conserved");
        assert!(delivered > 400, "stream {i} made progress: {delivered}");
    }
    assert_eq!(net.stats().out_of_order, 0);
}

#[test]
fn connection_churn_never_leaks_resources() {
    let mut net = NetworkSim::new(Topology::mesh2d(2, 3, 8).expect("topology wires within the port budget"), router_cfg(3));
    let mut rng = SeededRng::new(9);
    let baseline: usize = (0..6).map(|n| net.router(NodeId(n)).connections()).sum();
    assert_eq!(baseline, 0);
    let mut live: Vec<_> = Vec::new();
    for round in 0..120 {
        // Establish a random connection, tear down a random old one.
        let a = NodeId(rng.index(6) as u16);
        let b = NodeId(rng.index(6) as u16);
        if a != b {
            if let Ok(c) = net.establish(a, b, cbr_mbps(248.0), SetupStrategy::Epb) {
                live.push(c);
            }
        }
        if live.len() > 6 || (round > 100 && !live.is_empty()) {
            let victim = live.swap_remove(rng.index(live.len()));
            net.teardown(victim).expect("was live");
        }
    }
    for c in live.drain(..) {
        net.teardown(c).expect("was live");
    }
    let after: usize = (0..6).map(|n| net.router(NodeId(n)).connections()).sum();
    assert_eq!(after, 0, "all local reservations released after churn");
    // Bandwidth registers are back to zero too.
    for n in 0..6u16 {
        let router = net.router(NodeId(n));
        for p in 0..8 {
            let load = router.bandwidth_book(mmr::core::PortId(p)).load_factor();
            assert!(load.abs() < 1e-9, "node {n} port {p} leaked {load}");
        }
    }
}

#[test]
fn epb_succeeds_at_least_as_often_as_greedy_under_scarcity() {
    let mut epb_ok = 0u32;
    let mut greedy_ok = 0u32;
    for seed in 0..12u64 {
        for (strategy, counter) in
            [(SetupStrategy::Epb, &mut epb_ok), (SetupStrategy::Greedy, &mut greedy_ok)]
        {
            let topology = Topology::irregular(10, 5, 4, &mut SeededRng::new(seed)).expect("topology wires within the port budget");
            let mut net = NetworkSim::new(
                topology,
                RouterConfig::paper_default().vcs_per_port(4).candidates(2).seed(seed),
            );
            let mut rng = SeededRng::new(seed ^ 0xBEEF);
            let mut ok = 0;
            for _ in 0..40 {
                let a = NodeId(rng.index(10) as u16);
                let b = NodeId(rng.index(10) as u16);
                if a != b && net.establish(a, b, cbr_mbps(124.0), strategy).is_ok() {
                    ok += 1;
                }
            }
            *counter += ok;
        }
    }
    assert!(
        epb_ok >= greedy_ok,
        "EPB ({epb_ok}) should establish at least as many connections as greedy ({greedy_ok})"
    );
}

#[test]
fn packets_and_streams_coexist() {
    let mut net = NetworkSim::new(Topology::torus2d(3, 3, 8).expect("topology wires within the port budget"), router_cfg(4));
    let conn = net
        .establish(NodeId(0), NodeId(4), cbr_mbps(620.0), SetupStrategy::Epb)
        .expect("capacity available");
    let mut rng = SeededRng::new(17);
    let mut sent_packets = 0u64;
    for t in 0..4_000u64 {
        if t % 4 == 0 && net.can_inject(conn) {
            net.inject(conn, Cycles(t)).expect("checked");
        }
        if t % 16 == 0 {
            let a = NodeId(rng.index(9) as u16);
            let b = NodeId(rng.index(9) as u16);
            if a != b {
                net.send_packet(
                    a,
                    b,
                    if rng.chance(0.2) { FlitKind::Control } else { FlitKind::BestEffort },
                    Cycles(t),
                )
                .expect("valid endpoints and packet kind");
                sent_packets += 1;
            }
        }
        net.step(Cycles(t));
    }
    for t in 4_000..5_000u64 {
        net.step(Cycles(t));
    }
    let stats = net.stats();
    assert!(stats.flits_delivered > 800, "stream progressed: {}", stats.flits_delivered);
    assert_eq!(stats.out_of_order, 0);
    assert_eq!(
        stats.packets_delivered, sent_packets,
        "every packet eventually delivered"
    );
}

#[test]
fn failed_setup_under_saturation_releases_everything() {
    let mut net = NetworkSim::new(Topology::ring(4, 4).expect("topology wires within the port budget"), router_cfg(5));
    // Saturate both directions around the ring.
    let mut held = Vec::new();
    while let Ok(c) = net.establish(NodeId(0), NodeId(2), cbr_mbps(1240.0), SetupStrategy::Epb) {
        held.push(c);
    }
    assert!(!held.is_empty(), "some full-rate connections fit initially");
    let snapshot: Vec<usize> = (0..4).map(|n| net.router(NodeId(n)).connections()).collect();
    // This must fail (both ring directions are full) and change nothing.
    let err = net.establish(NodeId(0), NodeId(2), cbr_mbps(620.0), SetupStrategy::Epb);
    assert!(err.is_err());
    let after: Vec<usize> = (0..4).map(|n| net.router(NodeId(n)).connections()).collect();
    assert_eq!(snapshot, after);
}
