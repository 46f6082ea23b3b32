//! Property tests over the admission controller: arbitrary churn
//! interleavings never oversubscribe a link's bandwidth book or a source
//! NI's injection ceiling, every request gets a typed verdict (no
//! panics), aggressive shedding preempts sessions without leaking a
//! VC slot, credit, or bandwidth reservation, and the one session table
//! keeps its ledger invariants through churn, link faults and repairs —
//! with the cycle-accurate auditor armed throughout.

use mmr_core::ids::PortId;
use mmr_core::router::RouterConfig;
use mmr_core::{AuditConfig, QosClass};
use mmr_net::admission::NI_HEADROOM;
use mmr_net::{
    AdmissionController, AdmitPolicy, AdmitVerdict, NetworkSim, NodeId, RecoveryEvent,
    RecoveryPolicy, SessionId, Topology,
};
use mmr_sim::{Bandwidth, Cycles};
use proptest::prelude::*;

const NODES: u16 = 9;
const PORTS: u8 = 8;

/// Request rates spanning the paper's ladder from voice to HDTV.
const RATES_MBPS: [f64; 5] = [0.064, 2.0, 16.0, 55.0, 120.0];

fn mesh_net(seed: u64) -> NetworkSim {
    audited_net(Topology::mesh2d(3, 3, PORTS), seed)
}

fn audited_net(topology: Result<Topology, mmr_net::TopologyError>, seed: u64) -> NetworkSim {
    let mut net = NetworkSim::new(
        topology.expect("topology wires within the port budget"),
        RouterConfig::paper_default().vcs_per_port(8).candidates(2).seed(seed),
    );
    net.enable_audit(AuditConfig::default());
    net
}

/// The rate a session currently runs at, when it is CBR.
fn cbr_rate(ctl: &AdmissionController, id: SessionId) -> Option<Bandwidth> {
    match ctl.sessions().class(id) {
        Some(QosClass::Cbr { rate }) => Some(rate),
        _ => None,
    }
}

fn max_book_load(net: &NetworkSim) -> f64 {
    let mut max = 0.0f64;
    for n in 0..NODES {
        let router = net.router(NodeId(n));
        for p in 0..PORTS {
            let port = PortId(p);
            max = max.max(router.bandwidth_book(port).load_factor());
            max = max.max(router.input_bandwidth_book(port).load_factor());
        }
    }
    max
}

fn total_reservations(net: &NetworkSim) -> usize {
    (0..NODES).map(|n| net.router(NodeId(n)).connections()).sum()
}

/// Aggregate guaranteed egress reserved at `node` by the controller's
/// active sessions, recomputed from the public session API.
fn source_egress_bps(ctl: &AdmissionController, node: NodeId) -> f64 {
    let mgr = ctl.sessions();
    let mut total = 0.0;
    for (id, _) in mgr.active() {
        if mgr.endpoints(id).is_some_and(|(src, _)| src == node) {
            if let Some(class) = mgr.class(id) {
                total += class.guaranteed_rate().bits_per_sec();
            }
        }
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary interleavings of requests, closes, and stepping: after
    /// every operation no bandwidth book exceeds unit load and no source
    /// node's guaranteed egress exceeds the policy's NI ceiling — the two
    /// oversubscription modes the controller exists to prevent.
    #[test]
    fn arbitrary_churn_never_oversubscribes(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u16..9, 0u16..9, 0usize..5, 0u8..4), 1..60),
    ) {
        let mut net = mesh_net(seed);
        let ni_ceiling = NI_HEADROOM * net.link_rate().bits_per_sec();
        let mut ctl = AdmissionController::new(AdmitPolicy::default());
        let mut live: Vec<SessionId> = Vec::new();
        let mut t = 0u64;
        for (a, b, rate, op) in ops {
            match op {
                0 | 1 if a != b => {
                    let class = if op == 0 {
                        QosClass::Cbr {
                            rate: Bandwidth::from_mbps(
                                *RATES_MBPS.get(rate).expect("index drawn in range"),
                            ),
                        }
                    } else {
                        QosClass::BestEffort
                    };
                    // Any verdict is legal; a panic is not.
                    let verdict = ctl.request(&mut net, NodeId(a), NodeId(b), class);
                    if let Some(id) = verdict.session() {
                        live.push(id);
                    }
                }
                2 => {
                    if !live.is_empty() {
                        let id = live.remove(rate % live.len());
                        ctl.close(&mut net, id);
                    }
                }
                _ => {
                    for _ in 0..4 {
                        let report = net.step(Cycles(t));
                        prop_assert!(net.tags_agree(), "cycle {t}: a tag names the wrong owner");
                        let (_, preempted) = ctl.service(&mut net, &report, Cycles(t));
                        for p in &preempted {
                            live.retain(|&id| id != p.session);
                        }
                        t += 1;
                    }
                }
            }
            prop_assert!(
                max_book_load(&net) <= 1.0 + 1e-9,
                "a bandwidth book went past unit capacity"
            );
            for n in 0..NODES {
                let egress = source_egress_bps(&ctl, NodeId(n));
                prop_assert!(
                    egress <= ni_ceiling * (1.0 + 1e-9),
                    "node {n} reserved {egress} bps of egress against an NI ceiling of \
                     {ni_ceiling} bps"
                );
            }
        }
        // Close everything; nothing may stay reserved.
        for id in live.drain(..) {
            ctl.close(&mut net, id);
        }
        // Keep servicing through the drain: an in-flight upgrade probe whose
        // session was closed mid-handshake is only reaped by `service`.
        for _ in 0..64 {
            let report = net.step(Cycles(t));
            ctl.service(&mut net, &report, Cycles(t));
            t += 1;
        }
        prop_assert_eq!(total_reservations(&net), 0, "no orphaned VC slots");
        // Mixed-rate reserve/release orderings leave f64 dust in the running
        // registers (clamped at zero), so tolerate epsilon rather than 0.0.
        prop_assert!(max_book_load(&net) <= 1e-9, "no orphaned bandwidth reservations");
        let aud = net.auditor().expect("enabled");
        prop_assert!(aud.checks() > 0);
        prop_assert!(aud.is_clean(), "{}", aud.summary());
    }

    /// An aggressively shedding controller (hair-trigger headroom and
    /// patience) preempts sessions mid-traffic without leaking anything:
    /// flit conservation holds, every VC slot and reservation frees, and
    /// the auditor stays clean.
    #[test]
    fn preemption_under_load_is_leak_free(
        seed in any::<u64>(),
        pairs in prop::collection::vec((0u16..9, 0u16..9, 0usize..5), 4..24),
    ) {
        let mut net = mesh_net(seed ^ 0x5ED);
        let policy = AdmitPolicy::default()
            .headroom(0.05)
            .low_watermark(0.01)
            .shed_patience(2)
            .shed_batch(2);
        let mut ctl = AdmissionController::new(policy);
        let mut live: Vec<SessionId> = Vec::new();
        for &(a, b, rate) in &pairs {
            if a == b {
                continue;
            }
            let class = QosClass::Cbr {
                rate: Bandwidth::from_mbps(*RATES_MBPS.get(rate).expect("index drawn in range")),
            };
            if let Some(id) = ctl.request(&mut net, NodeId(a), NodeId(b), class).session() {
                live.push(id);
            }
        }
        let mut injected = 0u64;
        for t in 0..600u64 {
            let now = Cycles(t);
            if t % 4 == 0 {
                for &id in &live {
                    if let Some(conn) = ctl.sessions().conn(id) {
                        if net.can_inject(conn) {
                            net.inject(conn, now).expect("checked");
                            injected += 1;
                        }
                    }
                }
            }
            let report = net.step(now);
            let (_, preempted) = ctl.service(&mut net, &report, now);
            for p in &preempted {
                live.retain(|&id| id != p.session);
            }
        }
        // Close the survivors and drain the in-flight tail.
        for id in live.drain(..) {
            ctl.close(&mut net, id);
        }
        for t in 600..900u64 {
            let report = net.step(Cycles(t));
            ctl.service(&mut net, &report, Cycles(t));
        }
        let stats = net.stats().clone();
        prop_assert_eq!(
            stats.flits_delivered + stats.flits_lost,
            injected,
            "every flit delivered or accounted lost across preemptions"
        );
        prop_assert_eq!(stats.ghost_releases, 0);
        prop_assert_eq!(total_reservations(&net), 0, "no orphaned VC slots");
        prop_assert!(max_book_load(&net) <= 1e-9, "no orphaned bandwidth reservations");
        let aud = net.auditor().expect("enabled");
        prop_assert!(aud.checks() > 0);
        prop_assert!(aud.is_clean(), "{}", aud.summary());
    }

    /// Ledger invariants of the one session table, on the ring and the 3×3
    /// mesh, through random request / close / link fault / service / repair
    /// sequences: every `active()` connection is live in the network and
    /// maps back to its session; a session owed a rate is CBR and runs
    /// strictly below it (and nothing else is ever upgraded); a closed or
    /// preempted session is never upgraded, recovered or reported again;
    /// per-source reserved egress stays under the default NI ceiling.
    #[test]
    fn the_session_ledger_keeps_its_invariants(
        seed in any::<u64>(),
        mesh in any::<bool>(),
        tight in any::<bool>(),
        ops in prop::collection::vec((0u16..9, 0u16..9, 0usize..5, 0u8..10), 20..120),
    ) {
        let (mut net, nodes) = if mesh {
            (mesh_net(seed), NODES)
        } else {
            (audited_net(Topology::ring(4, 4), seed), 4)
        };
        // Both policies keep the default NI ceiling; the tight one reaches
        // degraded admits, shed rounds, upgrades, timeouts and abandonment
        // within a short sequence.
        let mut ctl = if tight {
            AdmissionController::with_recovery(
                AdmitPolicy::default().headroom(0.15).low_watermark(0.14).shed_patience(4),
                RecoveryPolicy::default()
                    .max_retries(2)
                    .backoff(Cycles(2), Cycles(8))
                    .setup_timeout(Cycles(6)),
            )
        } else {
            AdmissionController::new(AdmitPolicy::default())
        };
        let ni_ceiling = NI_HEADROOM * net.link_rate().bits_per_sec();
        let wires: Vec<(NodeId, PortId)> = net.topology().wires().iter().map(|w| w.a).collect();
        let mut down: Vec<(NodeId, PortId)> = Vec::new();
        let mut live: Vec<SessionId> = Vec::new();
        let mut gone: Vec<SessionId> = Vec::new();
        let mut t = 0u64;
        for (a, b, pick, op) in ops {
            let (a, b) = (a % nodes, b % nodes);
            match op {
                0..=4 if a != b => {
                    // Heavier than `RATES_MBPS` so short sequences saturate.
                    let class = match [16.0, 55.0, 120.0, 120.0].get(pick) {
                        Some(&mbps) => QosClass::Cbr { rate: Bandwidth::from_mbps(mbps) },
                        None => QosClass::BestEffort,
                    };
                    let verdict = ctl.request(&mut net, NodeId(a), NodeId(b), class);
                    if let AdmitVerdict::Degraded { session, requested, granted } = verdict {
                        prop_assert_eq!(ctl.sessions().owed(session), Some(requested));
                        prop_assert_eq!(cbr_rate(&ctl, session), Some(granted));
                    }
                    live.extend(verdict.session());
                }
                5 if !live.is_empty() => {
                    let id = live.remove(pick % live.len());
                    prop_assert!(ctl.close(&mut net, id));
                    gone.push(id);
                }
                6 => {
                    let wire = *wires.get(usize::from(a) % wires.len()).expect("in range");
                    if let Ok(broken) = net.fail_link(wire.0, wire.1) {
                        down.push(wire);
                        ctl.on_faults(&broken, Cycles(t));
                    }
                }
                7 if !down.is_empty() => {
                    let wire = down.remove(pick % down.len());
                    net.repair_link(wire.0, wire.1).expect("was failed");
                }
                _ => {
                    for _ in 0..8 {
                        let before: Vec<_> = live.iter().map(|&id| cbr_rate(&ctl, id)).collect();
                        let owed: Vec<_> = live.iter().map(|&id| ctl.sessions().owed(id)).collect();
                        let report = net.step(Cycles(t));
                        let (events, preempted) = ctl.service(&mut net, &report, Cycles(t));
                        for event in &events {
                            let (RecoveryEvent::Recovered { session, .. }
                            | RecoveryEvent::Degraded { session, .. }
                            | RecoveryEvent::Abandoned { session, .. }) = event;
                            prop_assert!(!gone.contains(session), "{event:?} names a closed session");
                        }
                        // Only a session still owed a rate is ever upgraded
                        // (the last rung may overshoot an off-ladder ask).
                        for ((&id, was), owed) in live.iter().zip(before).zip(owed) {
                            if let (Some(was), Some(now)) = (was, cbr_rate(&ctl, id)) {
                                prop_assert!(
                                    now <= was || owed.is_some_and(|asked| was < asked),
                                    "{id} went {was:?} -> {now:?} owed {owed:?}"
                                );
                            }
                        }
                        for p in &preempted {
                            prop_assert!(!gone.contains(&p.session), "{p:?} preempted twice");
                            live.retain(|&id| id != p.session);
                            gone.push(p.session);
                        }
                        t += 1;
                    }
                }
            }
            let mgr = ctl.sessions();
            prop_assert!(mgr.indexes_agree(), "an index disagrees with the rows");
            prop_assert_eq!(mgr.sessions(), live.len(), "the table holds exactly the live sessions");
            for (id, conn) in mgr.active() {
                // Endpoints from the path, the class from the routers.
                let carried = net.connection(conn).and_then(|c| {
                    let (first, last) = (c.hops.first()?, c.hops.last()?);
                    let class = net.router(first.node).connection(first.local)?.class;
                    Some(((first.node, last.node), class))
                });
                prop_assert_eq!(
                    carried,
                    mgr.endpoints(id).zip(mgr.class(id)),
                    "{} is not carried by a live connection that maps back to it", id
                );
                prop_assert_eq!(mgr.conn(id), Some(conn));
            }
            for &id in &live {
                if let Some(asked) = mgr.owed(id) {
                    let rate = cbr_rate(&ctl, id);
                    prop_assert!(rate.is_some_and(|r| r < asked), "{id} owed {asked:?} at {rate:?}");
                }
            }
            for &id in &gone {
                prop_assert_eq!(mgr.status(id), None);
                prop_assert_eq!(mgr.conn(id), None);
                prop_assert_eq!(mgr.owed(id), None);
                prop_assert!(mgr.active().all(|(live_id, _)| live_id != id));
            }
            for n in 0..nodes {
                let egress = source_egress_bps(&ctl, NodeId(n));
                prop_assert!(egress <= ni_ceiling * (1.0 + 1e-9), "node {n}: {egress} bps of egress");
            }
        }
        let aud = net.auditor().expect("enabled");
        prop_assert!(aud.is_clean(), "{}", aud.summary());
    }
}
