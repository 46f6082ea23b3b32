//! Differential execution: runs a [`Scenario`] on the real `mmr-net` stack
//! (invariant auditor armed) while feeding the same event stream to the
//! reference [`Oracle`], then diffs the end states.
//!
//! The runner is a plain synchronous cycle loop — establish every
//! connection up front, pace CBR injections at each connection's reserved
//! interarrival, poll the fault injector, step the network, forward
//! deliveries to the oracle — followed by a drain phase that steps until
//! the network goes quiet, and a final reconciliation (credits, auditor,
//! counters).

use std::collections::BTreeMap;

use mmr_core::{AuditConfig, InjectError, LlrConfig, QosClass, RouterConfig};
use mmr_net::{
    AdmissionController, AdmitPolicy, FaultInjector, NetConnectionId, NetworkSim, NodeId,
    SessionId, SetupStrategy,
};
use mmr_sim::{Cycles, FlitTiming};
use mmr_traffic::SlotClock;

use crate::oracle::{Divergence, Oracle};
use crate::scenario::{ChurnAction, Scenario};

/// Cycles of silence (no deliveries, no switched flits, no fault events)
/// required before the drain phase declares quiescence. Covers the LLR
/// retransmission timeout (default 64) and a bandwidth round with margin.
const QUIET_CYCLES: u64 = 512;

/// Hard ceiling on drain length beyond the injection window, so a
/// divergent livelock still terminates and gets reported.
const DRAIN_CAP: u64 = 50_000;

/// The reference engines a case can run on instead of the defaults. Both
/// must produce identical [`CaseRun`]s, and networks whose auditors and
/// statistics agree, on every scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hooks {
    /// Run the case on the dense per-cycle stepping engine instead of the
    /// default event-driven wake set. Exists for differential testing —
    /// both engines must produce identical [`CaseRun`]s on every scenario
    /// (see `tests/engine_differential.rs`).
    pub dense_stepping: bool,
    /// Make every pass of the invariant auditor the full sweep instead of
    /// the incremental pass (`NetworkSim::set_exhaustive_audit`). Exists for
    /// differential testing — both must produce identical [`CaseRun`]s on
    /// every scenario (see `tests/engine_differential.rs`).
    pub exhaustive_audit: bool,
}

/// The outcome of one differential case.
#[derive(Debug, Clone, Default)]
pub struct CaseRun {
    /// Connections the setup path admitted.
    pub admitted: usize,
    /// Connections the setup path rejected (insufficient resources —
    /// legitimate, not a divergence).
    pub rejected: usize,
    /// Churn arrivals the admission controller granted (full rate or
    /// degraded).
    pub churn_admitted: usize,
    /// Churn arrivals the admission controller turned away with a typed
    /// verdict (legitimate overload protection, not a divergence).
    pub churn_rejected: usize,
    /// For tests: churn sessions the load shedder preempted (best-effort +
    /// CBR), the count a corpus seed's overload pin holds.
    #[doc(hidden)]
    pub preempted: u64,
    /// For tests: rate-ladder upgrades granted when load receded, the count
    /// a corpus seed's upgrade pin holds.
    #[doc(hidden)]
    pub upgraded: u64,
    /// Flits injected at source NIs.
    pub injected: u64,
    /// Flits delivered at destination NIs.
    pub delivered: u64,
    /// Total cycles simulated (injection window + drain).
    pub cycles_run: u64,
    /// Everything the oracle disagreed with.
    pub divergences: Vec<Divergence>,
}

impl CaseRun {
    /// Whether the real stack matched the reference model.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// An up-front connection's injection slots.
struct Stream {
    id: NetConnectionId,
    clock: SlotClock,
    live: bool,
}

/// Injection pace of zero-reservation best-effort churn sessions. A slot
/// that finds the source buffer full is simply skipped — best effort owes
/// the network nothing.
const BEST_EFFORT_INTERARRIVAL: f64 = 24.0;

/// Injection slots and oracle bookkeeping for one mid-run churn session.
/// Unlike the up-front [`Stream`]s, a churn session's connection id changes
/// over its lifetime (recovery reroutes, ladder upgrades are
/// break-before-make), so the runner reconciles `conn` against the
/// controller every cycle.
struct ChurnStream {
    session: SessionId,
    /// The connection the oracle's ledger currently tracks (`None` while
    /// the session is recovering, preempted, or departed).
    conn: Option<NetConnectionId>,
    clock: SlotClock,
    best_effort: bool,
    /// Closed for good (voluntary departure or shed preemption).
    departed: bool,
}

/// The oracle's view of a connection: per-hop directed links (node,
/// output port) and the router count, read from the real routers' state.
fn path_links(net: &NetworkSim, conn: NetConnectionId) -> Option<(Vec<(u16, u8)>, u64)> {
    let c = net.connection(conn)?;
    let hops = c.hops.len() as u64;
    let mut links = Vec::with_capacity(c.hops.len());
    for hop in &c.hops {
        let state = net.router(hop.node).connection(hop.local)?;
        links.push((hop.node.0, state.output_vc.port.0));
    }
    Some((links, hops))
}

/// One controller tick: recovery service, shedding, and upgrades — then a
/// reconcile of every churn session's current connection against the
/// oracle's ledger. Recovery and ladder upgrades swap connection ids under
/// the session; preemptions and abandonments drop them. Comparing the
/// controller's view to the last-known id catches every transition without
/// enumerating the event kinds.
fn churn_service(
    ctl: &mut AdmissionController,
    net: &mut NetworkSim,
    report: &mmr_net::NetStepReport,
    oracle: &mut Oracle,
    churn: &mut [ChurnStream],
    timing: FlitTiming,
    now: Cycles,
) {
    let (_events, preempted) = ctl.service(net, report, now);
    for p in &preempted {
        if let Some(cs) = churn.iter_mut().find(|c| c.session == p.session) {
            cs.departed = true;
        }
    }
    for cs in churn.iter_mut() {
        let current = ctl.sessions().conn(cs.session);
        if current == cs.conn {
            continue;
        }
        if let Some(old) = cs.conn {
            oracle.closed(old.0);
        }
        cs.conn = None;
        if let Some(new_conn) = current {
            let Some((links, hops)) = path_links(net, new_conn) else { continue };
            let fpc = match ctl.sessions().class(cs.session) {
                Some(QosClass::Cbr { rate }) => {
                    let interarrival = timing.interarrival_cycles(rate);
                    cs.clock.set_interarrival(interarrival);
                    1.0 / interarrival
                }
                _ => 0.0,
            };
            oracle.admitted(new_conn.0, links, hops, fpc);
            cs.clock.restart(now);
            cs.conn = Some(new_conn);
        }
    }
}

/// Runs `scenario` on the real stack and diffs it against the oracle.
pub fn run_scenario(scenario: &Scenario, hooks: Hooks) -> CaseRun {
    run_scenario_on(scenario, hooks).0
}

/// [`run_scenario`] that also hands back the network it ran on, so the
/// differential tests can compare two runs' auditors and counters
/// (`tests/engine_differential.rs`).
#[doc(hidden)]
pub fn run_scenario_on(scenario: &Scenario, hooks: Hooks) -> (CaseRun, NetworkSim) {
    let topo = scenario.topology.build();
    let cfg = RouterConfig::paper_default()
        .vcs_per_port(scenario.vcs_per_port)
        .vc_depth(scenario.vc_depth)
        .candidates(scenario.candidates)
        .arbiter(scenario.arbiter);
    let mut net = NetworkSim::with_routing(topo, cfg, scenario.routing.spec(&scenario.topology));
    if scenario.llr {
        net.enable_llr(LlrConfig::default());
    }
    // Record mode: violations accumulate for the diff instead of panicking,
    // even when CI exports MMR_AUDIT=1.
    net.enable_audit(AuditConfig::default());
    net.set_dense_stepping(hooks.dense_stepping);
    net.set_exhaustive_audit(hooks.exhaustive_audit);

    let timing = net.router(NodeId(0)).config().timing();
    let mut oracle = Oracle::new();
    let mut streams: Vec<Stream> = Vec::new();
    let mut by_id: BTreeMap<NetConnectionId, usize> = BTreeMap::new();
    let mut rejected = 0usize;

    for spec in &scenario.conns {
        let class = spec.class();
        match net.establish(NodeId(spec.src), NodeId(spec.dst), class, SetupStrategy::Epb) {
            Ok(id) => {
                let (links, hops) =
                    path_links(&net, id).expect("establish registered the connection");
                let interarrival = timing.interarrival_cycles(spec.rate());
                oracle.admitted(id.0, links, hops, 1.0 / interarrival);
                by_id.insert(id, streams.len());
                let clock = SlotClock::new(interarrival, interarrival);
                streams.push(Stream { id, clock, live: true });
            }
            // Resource exhaustion is legitimate admission control, not a
            // divergence; the connection simply never enters the ledger.
            Err(_) => rejected += 1,
        }
    }

    // Mid-run churn arrives through the admission controller: typed
    // accept/degrade/reject verdicts, recovery-managed sessions, shedding
    // under sustained overload, and ladder upgrades when load recedes.
    // The up-front connection mix keeps the plain establish path above so
    // pre-churn corpus seeds execute exactly as recorded.
    //
    // The policy is deliberately much tighter than the production default
    // (headroom 0.2 vs 0.8, patience 16 vs 64): generated scenarios carry
    // at most a handful of streams, so their peak reserved link load sits
    // in the 0.1-0.4 range and at the production thresholds the
    // degrade/shed/upgrade machinery would almost never engage — the
    // fuzzer's job is to drive those paths against the oracle, not to
    // avoid them.
    let policy = AdmitPolicy::default()
        .headroom(0.2)
        .low_watermark(0.12)
        .shed_patience(16)
        .shed_batch(1);
    let mut ctl = AdmissionController::new(policy);
    let mut churn: Vec<ChurnStream> = Vec::new();
    let mut next_churn = 0usize;
    let mut churn_admitted = 0usize;
    let mut churn_rejected = 0usize;

    let plan = scenario.fault_plan(net.topology());
    let mut injector =
        FaultInjector::new(plan).expect("scenario fault plans are normalized by construction");

    let handle_broken = |broken: &[NetConnectionId],
                             streams: &mut Vec<Stream>,
                             oracle: &mut Oracle| {
        for id in broken {
            oracle.closed(id.0);
            if let Some(&at) = by_id.get(id) {
                if let Some(s) = streams.get_mut(at) {
                    s.live = false;
                }
            }
        }
    };

    // Injection window.
    for t in 0..scenario.cycles {
        let now = Cycles(t);
        let tick = injector.poll(&mut net, now);
        handle_broken(&tick.broken, &mut streams, &mut oracle);
        // The controller learns of broken churn connections here; the
        // post-step reconcile in `churn_service` settles the ledger.
        ctl.on_faults(&tick.broken, now);

        // Fire this cycle's churn tape entries.
        while next_churn < scenario.churn.len() && scenario.churn[next_churn].at <= t {
            match scenario.churn[next_churn].action {
                ChurnAction::Open { src, dst, rate_idx, best_effort } => {
                    let class = if best_effort {
                        QosClass::BestEffort
                    } else {
                        crate::scenario::ConnSpec { src, dst, rate_idx }.class()
                    };
                    let verdict = ctl.request(&mut net, NodeId(src), NodeId(dst), class);
                    match verdict.session() {
                        Some(session) => {
                            churn_admitted += 1;
                            let conn =
                                ctl.sessions().conn(session).expect("a fresh session is active");
                            let (links, hops) =
                                path_links(&net, conn).expect("fresh session path registered");
                            let (interarrival, fpc) = match ctl.sessions().class(session) {
                                Some(QosClass::Cbr { rate }) => {
                                    let ia = timing.interarrival_cycles(rate);
                                    (ia, 1.0 / ia)
                                }
                                _ => (BEST_EFFORT_INTERARRIVAL, 0.0),
                            };
                            oracle.admitted(conn.0, links, hops, fpc);
                            churn.push(ChurnStream {
                                session,
                                conn: Some(conn),
                                clock: SlotClock::new(t as f64 + interarrival, interarrival),
                                best_effort,
                                departed: false,
                            });
                        }
                        // A typed rejection under overload is the
                        // controller doing its job, not a divergence.
                        None => churn_rejected += 1,
                    }
                }
                ChurnAction::Close { nth } => {
                    let live: Vec<usize> = churn
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| !c.departed)
                        .map(|(i, _)| i)
                        .collect();
                    if !live.is_empty() {
                        let at = *live.get(nth % live.len()).expect("index reduced modulo len");
                        let cs = churn.get_mut(at).expect("index from enumerate");
                        cs.departed = true;
                        if let Some(conn) = cs.conn.take() {
                            oracle.closed(conn.0);
                        }
                        ctl.close(&mut net, cs.session);
                    }
                }
            }
            next_churn += 1;
        }

        for s in streams.iter_mut().filter(|s| s.live) {
            let due = s.clock.due(now);
            for k in 0..due {
                match net.inject(s.id, now) {
                    Ok(()) => oracle.injected(s.id.0),
                    // Backpressure: the reserved rate still owes the slot.
                    Err(InjectError::BufferFull(_)) => {
                        s.clock.defer(due - k);
                        break;
                    }
                    // The connection vanished between the fault poll and
                    // the injection attempt; treat as torn down.
                    Err(_) => {
                        s.live = false;
                        break;
                    }
                }
            }
        }

        // Churn sessions: best effort skips a refused slot; CBR still owes
        // it, and so does a connection torn down since the fault poll (the
        // reconcile below restarts or drops the stream).
        for cs in &mut churn {
            let Some(conn) = cs.conn else { continue };
            let due = cs.clock.due(now);
            for k in 0..due {
                match net.inject(conn, now) {
                    Ok(()) => oracle.injected(conn.0),
                    Err(InjectError::BufferFull(_)) if cs.best_effort => {}
                    Err(_) => {
                        cs.clock.defer(due - k);
                        break;
                    }
                }
            }
        }

        let report = net.step(now);
        for d in &report.delivered {
            oracle.delivered(d.conn.0, d.flit.seq, d.latency.0);
        }
        churn_service(&mut ctl, &mut net, &report, &mut oracle, &mut churn, timing, now);
    }

    // Drain until quiet: pending fault events still fire (deterministic),
    // retransmissions finish, buffered flits reach their NIs.
    let mut t = scenario.cycles;
    let mut quiet = 0u64;
    let drain_end = scenario.cycles + DRAIN_CAP;
    while quiet < QUIET_CYCLES && t < drain_end {
        let now = Cycles(t);
        let tick = injector.poll(&mut net, now);
        handle_broken(&tick.broken, &mut streams, &mut oracle);
        ctl.on_faults(&tick.broken, now);
        let report = net.step(now);
        for d in &report.delivered {
            oracle.delivered(d.conn.0, d.flit.seq, d.latency.0);
        }
        churn_service(&mut ctl, &mut net, &report, &mut oracle, &mut churn, timing, now);
        if report.delivered.is_empty() && report.flits_switched == 0 && tick.is_quiet() {
            quiet += 1;
        } else {
            quiet = 0;
        }
        t += 1;
    }

    // Credit reconciliation: at quiescence every output VC still owned by a
    // live connection must hold exactly `vc_depth` credits — anything else
    // is a leak (flow control will starve) or minted capacity (the
    // downstream buffer will be overrun).
    let live_conns = streams
        .iter()
        .filter(|s| s.live)
        .map(|s| s.id)
        .chain(churn.iter().filter_map(|cs| cs.conn));
    for conn_id in live_conns {
        let Some(conn) = net.connection(conn_id) else { continue };
        for hop in &conn.hops {
            let router = net.router(hop.node);
            let Some(state) = router.connection(hop.local) else { continue };
            let credit = router.output_credit(state.output_vc);
            let depth = router.vc_depth() as u32;
            if credit != depth {
                oracle.note(Divergence::CreditLeak {
                    node: hop.node.0,
                    port: state.output_vc.port.0,
                    vc: state.output_vc.vc.0,
                    credit,
                    depth,
                });
            }
        }
    }

    let auditor = net.auditor().expect("armed above");
    if auditor.violation_count() > 0 {
        let first = auditor
            .violations()
            .first()
            .map(|v| format!("{v:?}"))
            .unwrap_or_else(|| "(violation list truncated)".to_string());
        oracle.note(Divergence::AuditorViolation { count: auditor.violation_count(), first });
    }

    oracle.finish(net.stats());

    let admitted = streams.len();
    let injected = oracle.injected_total();
    let delivered = oracle.delivered_total();
    let ctl_stats = ctl.stats();
    let run = CaseRun {
        admitted,
        rejected,
        churn_admitted,
        churn_rejected,
        preempted: ctl_stats.preempted_best_effort + ctl_stats.preempted_cbr,
        upgraded: ctl_stats.upgrades,
        injected,
        delivered,
        cycles_run: t,
        divergences: oracle.into_divergences(),
    };
    (run, net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_simple_scenario_runs_clean() {
        let sc = Scenario::generate(3);
        let run = run_scenario(&sc, Hooks::default());
        assert!(run.is_clean(), "seed 3 diverged: {:?}", run.divergences);
    }

    #[test]
    fn runs_are_deterministic() {
        let sc = Scenario::generate(7);
        let a = run_scenario(&sc, Hooks::default());
        let b = run_scenario(&sc, Hooks::default());
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.cycles_run, b.cycles_run);
        assert_eq!(a.divergences, b.divergences);
    }
}
