//! Differential engine gate: the event-driven wake-set engine must be
//! observationally identical to the dense per-cycle reference (DESIGN.md
//! §9). Every regression-corpus scenario and every quick figure sweep is
//! run under both engines and the outputs compared — the corpus down to
//! the exact divergence list, the figures byte-for-byte on the rendered
//! tables — and the policed-source shape of perfbench's `dragonfly_sparse`
//! is replayed in miniature down to every router's counters. CI repeats
//! this suite with `MMR_AUDIT=1` so the enforcing invariant auditor watches
//! both engines take identical steps.
//!
//! The same wall stands behind the invariant auditor (DESIGN.md §6c): its
//! incremental pass must report what the exhaustive sweep reports — the
//! same violations in the same order on the same cycle, the same count,
//! the same `checks` — on every corpus scenario, on the `chaos` quick grid
//! with the retry layer off and on, on a 10k-cycle churn run, and on the
//! structured fabrics under teardown / refill rounds and a link outage.

mod common;

use std::sync::OnceLock;

use mmr_bench::campaign::Campaign;
use mmr_bench::churn::ChurnSpec;
use mmr_bench::faults::{CampaignTopology, Chaos};
use mmr_bench::{churn, faults, paper, Quality};
use mmr_conform::{run_scenario_on, CaseRun, Hooks, Scenario};
use mmr_core::router::{RouterConfig, RouterStats};
use mmr_core::{AuditConfig, AuditViolation};
use mmr_net::setup::cbr_mbps;
use mmr_net::{
    Butterfly, Dragonfly, Hypercube, MinimalSpec, NetConnectionId, NetworkSim, NodeId, RoutingSpec,
    SetupStrategy, Topology, TransientKind,
};
use mmr_sim::sweep::{point_seed, SweepOptions};
use mmr_sim::{Cycles, SeededRng};

/// Two runs of one scenario that must not be told apart: every field of
/// the `CaseRun`, down to the divergence list, and (`assert_audits_agree`)
/// the networks they ran on, down to the auditor's stored violations.
fn assert_same_case(name: &str, a: &(CaseRun, NetworkSim), b: &(CaseRun, NetworkSim)) {
    let ((a, a_net), (b, b_net)) = (a, b);
    assert_eq!(a.admitted, b.admitted, "{name}: admitted connections differ");
    assert_eq!(a.rejected, b.rejected, "{name}: rejected connections differ");
    assert_eq!(a.churn_admitted, b.churn_admitted, "{name}: admitted churn arrivals differ");
    assert_eq!(a.churn_rejected, b.churn_rejected, "{name}: rejected churn arrivals differ");
    assert_eq!(a.preempted, b.preempted, "{name}: preemptions differ");
    assert_eq!(a.upgraded, b.upgraded, "{name}: upgrades differ");
    assert_eq!(a.injected, b.injected, "{name}: injected flit counts differ");
    assert_eq!(a.delivered, b.delivered, "{name}: delivered flit counts differ");
    assert_eq!(a.cycles_run, b.cycles_run, "{name}: quiescence cycles differ");
    assert_eq!(a.divergences, b.divergences, "{name}: divergence lists differ");
    assert_audits_agree(name, a_net, b_net);
}

/// Every corpus scenario must produce the same `CaseRun` on both engines,
/// down to the exact divergence list.
#[test]
fn corpus_scenarios_agree_across_engines() {
    for common::CorpusCase { name, seed, .. } in common::load_corpus() {
        let scenario = Scenario::generate(seed);
        let event = run_scenario_on(&scenario, Hooks::default());
        let dense = run_scenario_on(&scenario, Hooks { dense_stepping: true, ..Hooks::default() });
        assert_same_case(&name, &event, &dense);
    }
}

/// Every corpus scenario must produce the same `CaseRun` whether the
/// auditor runs its incremental pass or sweeps everything every cycle; the
/// sweeps (every one of the exhaustive run, the 1,024-cycle backstops of
/// the other) must find nothing the incremental pass would not have
/// visited; and every scenario must end with the ghost counters at zero
/// (all three in `assert_audits_agree`).
/// The corpus replays clean, so the reported violations both passes must
/// repeat alike come from `chaos_quick_grid_agrees_across_audits` and
/// `starvation_is_reported_on_the_sweeps_cycle`.
#[test]
fn corpus_scenarios_agree_across_audits() {
    for common::CorpusCase { name, seed, .. } in common::load_corpus() {
        let scenario = Scenario::generate(seed);
        let pass = run_scenario_on(&scenario, Hooks::default());
        let exhaustive = Hooks { exhaustive_audit: true, ..Hooks::default() };
        let sweep = run_scenario_on(&scenario, exhaustive);
        assert_same_case(&name, &pass, &sweep);
        assert_eq!(pass.1.stats().ghost_releases, 0, "{name}: a ghost release");
    }
}

fn engines() -> (SweepOptions, SweepOptions) {
    let event = SweepOptions::all_cores();
    (event, SweepOptions { dense: true, ..event })
}

/// `paper`'s quick renderings under the event-driven and the dense engine,
/// computed once and shared by the four tests below.
fn paper_files() -> &'static [[(&'static str, String); 4]; 2] {
    static FILES: OnceLock<[[(&'static str, String); 4]; 2]> = OnceLock::new();
    FILES.get_or_init(|| {
        let quality = Quality::quick();
        let (event, dense) = engines();
        [paper(&quality, &event).files(false), paper(&quality, &dense).files(false)]
    })
}

/// Asserts that `paper`'s rendering `name` is byte-identical across engines.
fn assert_paper_file_agrees(name: &str) {
    let [event, dense] = paper_files();
    let find = |files: &[(&str, String); 4]| {
        files.iter().find(|(file, _)| *file == name).map(|(_, text)| text.clone())
    };
    let (a, b) = (find(event).expect(name), find(dense).expect(name));
    assert_eq!(a, b, "{name} differs between the event-driven and dense engines");
}

/// Figure 3, quick preset: byte-identical tables.
#[test]
fn fig3_quick_is_byte_identical_across_engines() {
    assert_paper_file_agrees("fig3.txt");
}

/// Figure 4, quick preset: byte-identical tables.
#[test]
fn fig4_quick_is_byte_identical_across_engines() {
    assert_paper_file_agrees("fig4.txt");
}

/// Figure 5 (all four scheduling algorithms, including Autonet/DEC and
/// the perfect switch, in both metrics), quick preset: byte-identical
/// tables.
#[test]
fn fig5_quick_is_byte_identical_across_engines() {
    assert_paper_file_agrees("fig5.txt");
}

/// The T1 claims points, quick preset: byte-identical tables.
#[test]
fn claims_quick_is_byte_identical_across_engines() {
    assert_paper_file_agrees("claims.txt");
}

/// perfbench's `dragonfly_sparse` recipe in miniature: a 20-router dragonfly
/// under group-minimal routing, a dozen 8 Mbps sessions offered a flit every
/// 16 cycles (one per ~155 is reserved, so every source router holds a flit
/// behind a spent quota for most of each 512-cycle round — awake, settled,
/// never quiescent), and three silent-drain / teardown / refill rounds. Both
/// engines must report the same cycle by cycle, and once the event-driven
/// engine's lazily credited idle cycles are settled, every router must read
/// the same counters.
#[test]
fn policed_sources_on_a_dragonfly_agree_across_engines() {
    const SESSIONS: usize = 12;
    const PERIOD: u64 = 2_000;
    const DRAIN: u64 = 600;
    let run = |dense: bool| -> (Vec<String>, String, Vec<RouterStats>) {
        let topology = Topology::dragonfly(4, 1, 1).expect("fits the port budget");
        let routing = RoutingSpec {
            minimal: MinimalSpec::Dragonfly(Dragonfly::balanced(4, 1, 1)),
            valiant_salt: None,
        };
        let router = RouterConfig::paper_default().candidates(4).seed(0x5CA1E);
        let mut net = NetworkSim::with_routing(topology, router, routing);
        net.set_dense_stepping(dense);
        let nodes = net.topology().nodes();
        let mut rng = SeededRng::new(20);
        let mut live: Vec<NetConnectionId> = Vec::new();
        let mut frames = Vec::new();
        let end = 3 * PERIOD + 700;
        for t in 0..end {
            if t % PERIOD == 0 {
                // The fabric has been silent for DRAIN cycles (or is new):
                // close a third of the population and refill it.
                for conn in live.drain(..live.len() / 3) {
                    net.teardown(conn).expect("tracked as live");
                }
                for _ in 0..SESSIONS * 4 {
                    let (src, dst) = (rng.index(nodes) as u16, rng.index(nodes) as u16);
                    if live.len() < SESSIONS && src != dst {
                        live.extend(net.establish(
                            NodeId(src),
                            NodeId(dst),
                            cbr_mbps(8.0),
                            SetupStrategy::Epb,
                        ));
                    }
                }
            }
            if t % PERIOD < PERIOD - DRAIN && t % 16 == 0 {
                for &conn in &live {
                    if net.can_inject(conn) {
                        net.inject(conn, Cycles(t)).expect("checked");
                    }
                }
            }
            frames.push(format!("{:?}", net.step(Cycles(t))));
        }
        assert_eq!(live.len(), SESSIONS, "the population refilled");
        assert!(net.stats().flits_delivered > 100, "the sessions carried traffic");
        // One dense step makes the event-driven engine credit every
        // sleeping router the cycles it skipped.
        net.set_dense_stepping(true);
        frames.push(format!("{:?}", net.step(Cycles(end))));
        let routers = (0..nodes).map(|n| net.router(NodeId(n as u16)).stats()).collect();
        (frames, format!("{:?}", net.stats()), routers)
    };
    let (event_frames, event_stats, event_routers) = run(false);
    let (dense_frames, dense_stats, dense_routers) = run(true);
    for (t, (e, d)) in event_frames.iter().zip(&dense_frames).enumerate() {
        assert_eq!(e, d, "engines diverge at cycle {t}");
    }
    assert_eq!(event_stats, dense_stats, "identical aggregate statistics");
    for (n, (e, d)) in event_routers.iter().zip(&dense_routers).enumerate() {
        assert_eq!(e, d, "router {n} counters differ");
        assert_eq!(e.cycles, 3 * PERIOD + 701, "router {n} is credited every cycle");
    }
}

/// What an audited run leaves for the incremental-vs-exhaustive (or the
/// event-vs-dense) comparison: the same auditor record and statistics, and
/// no sweep miss or ghost match on either side.
fn assert_audits_agree(what: &str, pass: &NetworkSim, sweep: &NetworkSim) {
    let (p, s) = (pass.auditor().expect("audited"), sweep.auditor().expect("audited"));
    assert_eq!(p.violations(), s.violations(), "{what}: stored violations differ");
    assert_eq!(p.violation_count(), s.violation_count(), "{what}: violation counts differ");
    assert_eq!(p.checks(), s.checks(), "{what}: checks differ");
    assert_eq!(
        format!("{:?}", pass.stats()),
        format!("{:?}", sweep.stats()),
        "{what}: stats differ"
    );
    for (mode, net) in [("first", pass), ("second", sweep)] {
        assert_eq!(
            net.audit_sweep_misses(),
            0,
            "{what}, {mode}: a sweep found an unmarked violator"
        );
        let matches: u64 = (0..net.topology().nodes())
            .map(|n| net.router(NodeId(n as u16)).stats().ghost_matches)
            .sum();
        assert_eq!(matches, 0, "{what}, {mode}: ghost matches");
    }
}

/// The starvation watchdog has no event to ride on: a flit waiting behind a
/// spent quota is reported once it has waited out the threshold, with
/// nothing having touched its router in between. The incremental pass must
/// report it on the cycle the sweep does, and once per stall.
#[test]
fn starvation_is_reported_on_the_sweeps_cycle() {
    let run = |exhaustive: bool| {
        let topology = Topology::mesh2d(3, 3, 8).expect("fits the port budget");
        let router = RouterConfig::paper_default().vcs_per_port(16).candidates(4);
        let mut net = NetworkSim::new(topology, router);
        net.enable_audit(AuditConfig::default().starvation_threshold(Cycles(10)));
        net.set_exhaustive_audit(exhaustive);
        let id = net
            .establish(NodeId(0), NodeId(2), cbr_mbps(8.0), SetupStrategy::Epb)
            .expect("path exists");
        for t in 0..1_500 {
            // Three flits at once against a quota of one a round.
            if t % 500 == 0 {
                (0..3).for_each(|_| net.inject(id, Cycles(t)).expect("room"));
            }
            net.step(Cycles(t));
        }
        net
    };
    let (pass, sweep) = (run(false), run(true));
    assert_audits_agree("policed source", &pass, &sweep);
    let stalls: Vec<_> = pass.auditor().expect("audited").violations().to_vec();
    assert!(stalls.len() >= 3, "each burst stalls behind the quota: {stalls:?}");
    for v in &stalls {
        assert!(
            matches!(v, AuditViolation::Starvation { stalled_for: Cycles(11), .. }),
            "reported the cycle the threshold is crossed: {v}"
        );
    }
}

/// The `chaos` quick grid, trial for trial with the campaign's own seeds:
/// with the retry layer off a dropped flit leaks a credit that is reported
/// again every cycle — thousands of repeats, far past the storage cap — and
/// the incremental pass must repeat them exactly as the sweep does; with it
/// on, both stay clean — and after every step of those trials
/// `run_trial_on` asserts `llr_live_covers_senders`, so the pump skipped no
/// link that still held a frame.
#[test]
fn chaos_quick_grid_agrees_across_audits() {
    let mut flat = 0;
    let mut leaking = 0;
    for spec in Chaos::grid(true) {
        for _ in 0..spec.trials {
            let seed = point_seed(Chaos::SEED, flat);
            flat += 1;
            let (pass_result, pass) = faults::run_trial_on(&spec, seed, false);
            let (sweep_result, sweep) = faults::run_trial_on(&spec, seed, true);
            let what = format!("{} llr={} seed {seed:#x}", spec.topology.name(), spec.llr);
            assert_eq!(pass_result, sweep_result, "{what}: trial results differ");
            assert_audits_agree(&what, &pass, &sweep);
            if spec.llr {
                assert_eq!(pass_result.violations, 0, "{what}: the retry layer keeps the laws");
            } else {
                leaking += u64::from(pass_result.violations > 64);
            }
        }
    }
    assert!(leaking >= 3, "unprotected drops leak credits past the storage cap: {leaking} trials");
}

/// A 10k-cycle churn run at the overload intensity (`mmr-bench churn`'s
/// irregular12 / 800-per-kcycle / controls-on cell, stretched): constant
/// setup, teardown, shedding and upgrades under the auditor.
#[test]
fn churn_head_agrees_across_audits() {
    let spec = ChurnSpec {
        topology: CampaignTopology::Irregular12,
        arrivals_per_kcycle: 800.0,
        controls: true,
        trials: 1,
        warmup: 400,
        measure: 9_600,
    };
    let (pass_result, pass) = churn::run_trial_on(&spec, 1999, false);
    let (sweep_result, sweep) = churn::run_trial_on(&spec, 1999, true);
    assert_eq!(pass_result, sweep_result, "trial results differ");
    let admit = &pass_result.admit;
    let (admitted, left) = (
        admit.accepted + admit.degraded,
        pass_result.departures + admit.preempted_best_effort + admit.preempted_cbr,
    );
    assert!(admitted > 500 && left > 300, "the tape churned: {pass_result:?}");
    assert_audits_agree("churn", &pass, &sweep);
    assert_eq!(pass.stats().ghost_releases, 0, "ghost releases");
    assert_eq!(pass_result.audit_checks, 12 * spec.horizon(), "one check per router per cycle");
}

/// Two sessions leak a credit each on the same cycle — the retry layer off,
/// one armed drop on each session's first wire — and are reported again
/// every cycle after. Session 0 runs 8 → 7 → 6 and session 1 runs
/// 0 → 1 → 2 on the 3×3 mesh, so `(session, hop)` order reports router 8's
/// leak first while the downstream routers' order (1 before 7) would put
/// router 0's first: the pass, which finds a pair from its downstream end,
/// must still report in session order, as the sweep does.
#[test]
fn leaking_pairs_agree_across_audits_in_session_order() {
    let run = |exhaustive: bool| {
        let topology = Topology::mesh2d(3, 3, 8).expect("fits the port budget");
        let router = RouterConfig::paper_default().vcs_per_port(16).candidates(4);
        let mut net = NetworkSim::new(topology, router);
        net.enable_audit(AuditConfig::default());
        net.set_exhaustive_audit(exhaustive);
        let mut sessions = Vec::new();
        for (src, dst, path) in [(8, 6, [8, 7, 6]), (0, 2, [0, 1, 2])] {
            let id = net
                .establish(NodeId(src), NodeId(dst), cbr_mbps(155.0), SetupStrategy::Epb)
                .expect("path exists");
            let hops = &net.connection(id).expect("live").hops;
            assert_eq!(hops.iter().map(|hop| hop.node.0).collect::<Vec<_>>(), path);
            let first = hops[0];
            let port = net.router(first.node).connection(first.local).expect("mapped").output_vc.port;
            let (peer, peer_port) = net.topology().peer_of(first.node, port).expect("a wire");
            net.arm_transient(peer, peer_port, TransientKind::Drop).expect("a wire endpoint");
            sessions.push(id);
        }
        for &id in &sessions {
            net.inject(id, Cycles(0)).expect("room");
        }
        for t in 0..40 {
            net.step(Cycles(t));
        }
        net
    };
    let (pass, sweep) = (run(false), run(true));
    assert_audits_agree("two leaks", &pass, &sweep);
    let aud = pass.auditor().expect("audited");
    let flagged = aud.violation_count();
    assert!(flagged > 0, "the drops leak credits");
    let leaking: Vec<u16> = (aud.violations().iter())
        .map(|v| match v {
            AuditViolation::CreditConservation { router, .. } => *router,
            other => panic!("only credit leaks: {other}"),
        })
        .collect();
    assert_eq!(leaking.len() % 2, 0, "both leak from the same cycle on: {leaking:?}");
    assert!(
        leaking.chunks(2).all(|cycle| cycle == [8, 0]),
        "session 0's leak (upstream router 8) before session 1's (router 0): {leaking:?}"
    );
}

/// The policed-dragonfly recipe above, audited, on each structured fabric
/// the repo ships: a dozen CBR sessions, three drain / teardown / refill
/// rounds, and one link of a live path failed mid-run and repaired 400
/// cycles later. Returns the network and how many sessions the outage broke.
fn audited_fabric_run(
    topology: Topology,
    routing: RoutingSpec,
    exhaustive: bool,
) -> (NetworkSim, usize) {
    const SESSIONS: usize = 12;
    const PERIOD: u64 = 2_000;
    const DRAIN: u64 = 600;
    let router = RouterConfig::paper_default().candidates(4).seed(0x5CA1E);
    let mut net = NetworkSim::with_routing(topology, router, routing);
    net.enable_audit(AuditConfig::default());
    net.set_exhaustive_audit(exhaustive);
    let nodes = net.topology().nodes();
    let mut rng = SeededRng::new(21);
    let mut live: Vec<NetConnectionId> = Vec::new();
    let mut cut = None;
    let mut broken = 0;
    for t in 0..3 * PERIOD + 700 {
        if t % PERIOD == 0 {
            for conn in live.drain(..live.len() / 3) {
                net.teardown(conn).expect("tracked as live");
            }
            for _ in 0..SESSIONS * 16 {
                let (src, dst) = (rng.index(nodes) as u16, rng.index(nodes) as u16);
                if live.len() < SESSIONS && src != dst {
                    live.extend(net.establish(
                        NodeId(src),
                        NodeId(dst),
                        cbr_mbps([8.0, 55.0][rng.index(2)]),
                        SetupStrategy::Epb,
                    ));
                }
            }
        }
        if t == PERIOD + 300 {
            // Cut the first inter-router wire of the first multi-hop session.
            let (node, port) = live
                .iter()
                .filter_map(|&id| net.connection(id))
                .filter(|conn| conn.hops.len() > 1)
                .map(|conn| &conn.hops[0])
                .find_map(|hop| {
                    Some((hop.node, net.router(hop.node).connection(hop.local)?.output_vc.port))
                })
                .expect("some session crosses a wire");
            let lost = net.fail_link(node, port).expect("an operational inter-router wire");
            broken = lost.len();
            live.retain(|id| !lost.contains(id));
            cut = Some((node, port));
        }
        if t == PERIOD + 700 {
            let (node, port) = cut.expect("cut above");
            net.repair_link(node, port).expect("failed above");
        }
        if t % PERIOD < PERIOD - DRAIN && t % 16 == 0 {
            for &conn in &live {
                if net.can_inject(conn) {
                    net.inject(conn, Cycles(t)).expect("checked");
                }
            }
        }
        net.step(Cycles(t));
    }
    assert!(live.len() >= SESSIONS / 2, "the population refilled: {}", live.len());
    assert!(net.stats().flits_delivered > 100, "the sessions carried traffic");
    (net, broken)
}

/// Audited coverage of the shipped fabrics: dragonfly (group-minimal and
/// Valiant), 4-cube and 2-ary 4-fly, incremental pass against the sweep.
#[test]
fn structured_fabrics_agree_across_audits() {
    let compare = |name: &str, topology: fn() -> Topology, routing: RoutingSpec| {
        let (pass, broken) = audited_fabric_run(topology(), routing, false);
        let (sweep, _) = audited_fabric_run(topology(), routing, true);
        assert!(broken > 0, "{name}: the outage broke a session");
        assert_audits_agree(name, &pass, &sweep);
        let aud = pass.auditor().expect("audited");
        assert!(aud.is_clean(), "{name}: {}", aud.summary());
        assert_eq!(pass.stats().ghost_releases, 0, "{name}: ghost releases");
    };
    let dragonfly = || Topology::dragonfly(4, 1, 1).expect("fits the port budget");
    let minimal = MinimalSpec::Dragonfly(Dragonfly::balanced(4, 1, 1));
    compare(
        "dragonfly(4,1,1) group-minimal",
        dragonfly,
        RoutingSpec { minimal, valiant_salt: None },
    );
    compare("dragonfly(4,1,1) valiant", dragonfly, RoutingSpec { minimal, valiant_salt: Some(7) });
    compare(
        "hypercube(4)",
        || Topology::hypercube(4).expect("fits the port budget"),
        RoutingSpec { minimal: MinimalSpec::Hypercube(Hypercube::new(4)), valiant_salt: None },
    );
    compare(
        "butterfly(2,4)",
        || Topology::butterfly(2, 4).expect("fits the port budget"),
        RoutingSpec { minimal: MinimalSpec::Butterfly(Butterfly::new(2, 4)), valiant_salt: None },
    );
}
