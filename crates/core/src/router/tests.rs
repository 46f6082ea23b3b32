//! [`Router`] on its own: establishment, the flit cycle, VCT packets, credits.
#![cfg(test)]

use super::*;
use crate::arbiter::ArbiterKind;
use crate::ids::ConnectionId;
use mmr_sim::Bandwidth;

fn small_router(arbiter: ArbiterKind) -> Router {
    RouterConfig::paper_default()
        .ports(4)
        .vcs_per_port(8)
        .candidates(4)
        .arbiter(arbiter)
        .seed(42)
        .build()
}

fn cbr(rate_mbps: f64, input: u8, output: u8) -> ConnectionRequest {
    ConnectionRequest {
        input: PortId(input),
        output: PortId(output),
        class: QosClass::Cbr { rate: Bandwidth::from_mbps(rate_mbps) },
    }
}

#[test]
fn establish_reserves_and_teardown_releases() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let id = r.establish(cbr(124.0, 0, 1)).expect("admits");
    assert_eq!(r.connections(), 1);
    let book_load = r.bandwidth_book(PortId(1)).load_factor();
    assert!(book_load > 0.09 && book_load < 0.11, "10% of the link: {book_load}");
    r.teardown(id).expect("present");
    assert_eq!(r.connections(), 0);
    assert_eq!(r.bandwidth_book(PortId(1)).load_factor(), 0.0);
    assert_eq!(r.teardown(id), Err(id), "double teardown reports the id");
}

#[test]
fn quarantine_drains_connections_and_blocks_admission_until_lifted() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let a = r.establish(cbr(10.0, 0, 1)).expect("admits");
    let b = r.establish(cbr(10.0, 2, 3)).expect("admits");
    r.inject(a, Cycles(0)).expect("buffer empty");
    r.inject(b, Cycles(0)).expect("buffer empty");
    let drained = r.quarantine();
    assert!(r.is_quarantined());
    assert_eq!(drained, 2, "both buffered flits drained");
    assert_eq!(r.connections(), 0, "ledger emptied");
    assert_eq!(r.bandwidth_book(PortId(1)).load_factor(), 0.0, "bandwidth released");
    let err = r.establish(cbr(10.0, 0, 1)).expect_err("quarantined");
    assert_eq!(err, EstablishError::Quarantined);
    r.lift_quarantine();
    assert!(!r.is_quarantined());
    // Full VC pools again: repeat the exhaustion pattern cleanly.
    for _ in 0..8 {
        r.establish(cbr(1.0, 0, 1)).expect("VC pools intact after quarantine");
    }
}

#[test]
fn establish_rejects_invalid_port() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let err = r.establish(cbr(1.0, 9, 1)).expect_err("port 9 of 4");
    assert!(matches!(err, EstablishError::InvalidPort { .. }));
}

#[test]
fn vc_exhaustion_is_reported_and_recoverable() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    // 8 VCs per port; the 9th connection on the same ports must fail.
    let ids: Vec<_> = (0..8).map(|_| r.establish(cbr(1.0, 0, 1)).expect("fits")).collect();
    let err = r.establish(cbr(1.0, 0, 1)).expect_err("VCs exhausted");
    assert!(matches!(err, EstablishError::NoFreeInputVc));
    // Different input port, same output: output VCs are also exhausted.
    let err = r.establish(cbr(1.0, 2, 1)).expect_err("output VCs exhausted");
    assert!(matches!(err, EstablishError::NoFreeOutputVc));
    r.teardown(ids[0]).expect("present");
    r.establish(cbr(1.0, 0, 1)).expect("VC recycled");
}

#[test]
fn admission_failure_releases_vcs() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    r.establish(cbr(1240.0, 0, 1)).expect("full link admits");
    let err = r.establish(cbr(124.0, 0, 1)).expect_err("link is full");
    assert!(matches!(err, EstablishError::Admission(_)));
    // The failed attempt must not leak VCs: more connections on other
    // ports still fit (input 0 is bandwidth-saturated, so use input 2).
    for _ in 0..7 {
        r.establish(cbr(1.0, 2, 2)).expect("VC pools intact");
    }
    // Input 0's own bandwidth is genuinely exhausted on both sides.
    let err = r.establish(cbr(124.0, 0, 2)).expect_err("input link full");
    assert!(matches!(err, EstablishError::Admission(_)));
}

#[test]
fn single_flit_flows_through_in_one_cycle() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let id = r.establish(cbr(124.0, 0, 1)).expect("admits");
    r.inject(id, Cycles(5)).expect("buffer empty");
    let report = r.step(Cycles(5));
    assert_eq!(report.transmitted.len(), 1);
    let t = &report.transmitted[0];
    assert_eq!(t.conn, id.id);
    assert_eq!(t.delay, Cycles(0), "uncontended flit leaves immediately");
    assert_eq!(t.output_vc.port, PortId(1));
    assert_eq!(report.outputs_used, 1);
    // The queue is now empty.
    assert!(r.step(Cycles(6)).transmitted.is_empty());
}

#[test]
fn conflicting_inputs_share_an_output() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let a = r.establish(cbr(124.0, 0, 3)).expect("admits");
    let b = r.establish(cbr(124.0, 1, 3)).expect("admits");
    r.inject(a, Cycles(0)).expect("room");
    r.inject(b, Cycles(0)).expect("room");
    let first = r.step(Cycles(0));
    assert_eq!(first.transmitted.len(), 1, "one output carries one flit per cycle");
    let second = r.step(Cycles(1));
    assert_eq!(second.transmitted.len(), 1);
    let served: std::collections::BTreeSet<_> = first
        .transmitted
        .iter()
        .chain(&second.transmitted)
        .map(|t| t.conn)
        .collect();
    assert_eq!(served.len(), 2, "both connections served across two cycles");
    // The loser waited exactly one cycle.
    assert_eq!(second.transmitted[0].delay, Cycles(1));
}

#[test]
fn buffer_full_backpressure() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let id = r.establish(cbr(1.0, 0, 1)).expect("admits");
    for _ in 0..4 {
        r.inject(id, Cycles(0)).expect("vc_depth = 4");
    }
    assert!(!r.can_inject(id));
    assert_eq!(r.inject(id, Cycles(0)), Err(InjectError::BufferFull(id.id)));
    r.step(Cycles(0));
    assert!(r.can_inject(id), "transmission freed a slot");
}

#[test]
fn unknown_connection_errors() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let ghost = ConnRef { vc: VcRef::new(0, 0), id: ConnectionId(99) };
    assert_eq!(r.inject(ghost, Cycles(0)), Err(InjectError::UnknownConnection(ghost.id)));
    assert!(!r.can_inject(ghost));
}

#[test]
fn control_packet_cuts_through_idle_output() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let out = r
        .inject_packet(PortId(0), PortId(2), FlitKind::Control, Cycles(0))
        .expect("output idle");
    assert_eq!(out, PacketOutcome::CutThrough);
    assert_eq!(r.stats().cut_throughs, 1);
    // A second control packet to the same output in the same cycle must
    // buffer instead.
    let out2 = r
        .inject_packet(PortId(1), PortId(2), FlitKind::Control, Cycles(0))
        .expect("buffers");
    assert!(matches!(out2, PacketOutcome::Buffered(_)));
    // The claimed output is busy for this cycle's matching.
    let report = r.step(Cycles(0));
    assert!(report.transmitted.is_empty(), "output 2 was claimed by the cut-through");
    // Next cycle the buffered control packet goes through and its
    // ephemeral VC is released.
    let report = r.step(Cycles(1));
    assert_eq!(report.transmitted.len(), 1);
    assert_eq!(report.transmitted[0].flit.kind, FlitKind::Control);
    assert_eq!(r.connections(), 0, "packet connection torn down after transmit");
}

#[test]
fn best_effort_packets_always_buffer() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let out = r
        .inject_packet(PortId(0), PortId(1), FlitKind::BestEffort, Cycles(0))
        .expect("free VCs");
    assert!(matches!(out, PacketOutcome::Buffered(_)));
    let report = r.step(Cycles(0));
    assert_eq!(report.transmitted.len(), 1);
    assert_eq!(report.transmitted[0].flit.kind, FlitKind::BestEffort);
}

#[test]
fn best_effort_yields_to_streams() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let stream = r.establish(cbr(124.0, 0, 1)).expect("admits");
    // Best-effort from another input to the same output.
    r.inject_packet(PortId(2), PortId(1), FlitKind::BestEffort, Cycles(0)).expect("buffers");
    r.inject(stream, Cycles(0)).expect("room");
    let report = r.step(Cycles(0));
    assert_eq!(report.transmitted.len(), 1);
    assert_eq!(report.transmitted[0].conn, stream.id, "CBR outranks best-effort");
    let report = r.step(Cycles(1));
    assert_eq!(report.transmitted[0].flit.kind, FlitKind::BestEffort);
}

#[test]
fn command_word_set_priority_applies() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let id = r.establish(cbr(124.0, 0, 1)).expect("admits");
    r.inject_kind(id, FlitKind::Command(CommandWord::SetPriority(9)), Cycles(0))
        .expect("room");
    r.step(Cycles(0));
    assert_eq!(r.connection(id).expect("live").dynamic_priority, 9);
}

#[test]
fn command_word_scale_rate_changes_interarrival() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let id = r.establish(cbr(124.0, 0, 1)).expect("admits");
    let before = r.connection(id).expect("live").interarrival_cycles;
    // Halve the rate => double the inter-arrival.
    r.inject_kind(id, FlitKind::Command(CommandWord::ScaleRate { num: 1, den: 2 }), Cycles(0))
        .expect("room");
    r.step(Cycles(0));
    let after = r.connection(id).expect("live").interarrival_cycles;
    assert!((after / before - 2.0).abs() < 1e-12);
}

#[test]
fn command_word_abort_frame_flushes_queue() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let id = r.establish(cbr(124.0, 0, 1)).expect("admits");
    r.inject_kind(id, FlitKind::Command(CommandWord::AbortFrame), Cycles(0)).expect("room");
    r.inject(id, Cycles(0)).expect("room");
    r.inject(id, Cycles(0)).expect("room");
    let report = r.step(Cycles(0));
    assert_eq!(report.transmitted.len(), 1, "the command word itself is forwarded");
    // The two queued data flits were dropped.
    assert!(r.step(Cycles(1)).transmitted.is_empty());
}

#[test]
fn credits_gate_scheduling_when_tracked() {
    let mut r = RouterConfig::paper_default()
        .ports(2)
        .vcs_per_port(4)
        .vc_depth(2)
        .candidates(2)
        .track_output_credits(true)
        .seed(1)
        .build();
    // Half the link: a quota of 4 flits in the 8-cycle round covers the 3 sent.
    let id = r.establish(cbr(620.0, 0, 1)).expect("admits");
    let out_vc = r.connection(id).expect("live").output_vc;
    // Drain both credits.
    for cycle in 0..2 {
        r.inject(id, Cycles(cycle)).expect("room");
        let rep = r.step(Cycles(cycle));
        assert_eq!(rep.transmitted.len(), 1);
    }
    // No credits left: the flit stays queued.
    r.inject(id, Cycles(2)).expect("room");
    assert!(r.step(Cycles(2)).transmitted.is_empty());
    // A returned credit unblocks it.
    r.return_credit(out_vc);
    assert_eq!(r.step(Cycles(3)).transmitted.len(), 1);
}

#[test]
fn round_quota_throttles_over_rate_connection() {
    // 1-VC-per-candidate router with quota enforcement: a connection
    // allocated ~10% of the link cannot burst past its round quota.
    let mut r = RouterConfig::paper_default()
        .ports(2)
        .vcs_per_port(4)
        .vc_depth(4)
        .candidates(1)
        .round_k(2) // round = 8 cycles
        .seed(3)
        .build();
    let id = r.establish(cbr(155.0, 0, 1)).expect("admits"); // 12.5% => 1 cycle/round
    let mut sent = 0;
    for cycle in 0..8u64 {
        if r.can_inject(id) {
            r.inject(id, Cycles(cycle)).expect("room");
        }
        sent += r.step(Cycles(cycle)).transmitted.len();
    }
    assert_eq!(sent, 1, "quota of ceil(1.0) = 1 flit in the 8-cycle round");
}

#[test]
fn utilization_counts_flits_per_port_cycle() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    // Full-link-rate connections so one flit per cycle is within quota.
    let a = r.establish(cbr(1240.0, 0, 1)).expect("admits");
    let b = r.establish(cbr(1240.0, 1, 2)).expect("admits");
    for cycle in 0..10u64 {
        r.inject(a, Cycles(cycle)).expect("room");
        r.inject(b, Cycles(cycle)).expect("room");
        r.step(Cycles(cycle));
    }
    // 2 flits per cycle on a 4-port router = 50% utilization.
    assert!((r.utilization() - 0.5).abs() < 1e-9);
    assert_eq!(r.stats().flits_transmitted, 20);
    assert_eq!(r.stats().cycles, 10);
}

#[test]
fn perfect_switch_has_no_conflicts() {
    let mut r = small_router(ArbiterKind::Perfect);
    let a = r.establish(cbr(124.0, 0, 3)).expect("admits");
    let b = r.establish(cbr(124.0, 1, 3)).expect("admits");
    r.inject(a, Cycles(0)).expect("room");
    r.inject(b, Cycles(0)).expect("room");
    let report = r.step(Cycles(0));
    assert_eq!(report.transmitted.len(), 2, "perfect switch absorbs the conflict");
    assert!(report.transmitted.iter().all(|t| t.delay == Cycles(0)));
}

#[test]
fn autonet_router_transmits_under_contention() {
    let mut r = small_router(ArbiterKind::autonet_default());
    let a = r.establish(cbr(124.0, 0, 3)).expect("admits");
    let b = r.establish(cbr(124.0, 1, 3)).expect("admits");
    let mut total = 0;
    for cycle in 0..4u64 {
        let _ = r.inject(a, Cycles(cycle));
        let _ = r.inject(b, Cycles(cycle));
        total += r.step(Cycles(cycle)).transmitted.len();
    }
    assert!(total >= 4, "PIM serves the contended output every cycle: {total}");
}

#[test]
fn clone_produces_independent_router() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let id = r.establish(cbr(124.0, 0, 1)).expect("admits");
    let mut copy = r.clone();
    r.inject(id, Cycles(0)).expect("room");
    r.step(Cycles(0));
    assert_eq!(copy.stats().flits_transmitted, 0);
    copy.inject(id, Cycles(0)).expect("room");
    assert_eq!(copy.step(Cycles(0)).transmitted.len(), 1);
}

#[test]
fn policed_source_settles_until_the_round_turns() {
    // 12.5% of the link in an 8-cycle round: one flit per round.
    let mut r = RouterConfig::paper_default()
        .ports(2)
        .vcs_per_port(4)
        .candidates(1)
        .round_k(2)
        .seed(3)
        .build();
    let id = r.establish(cbr(155.0, 0, 1)).expect("admits");
    r.inject(id, Cycles(0)).expect("room");
    r.inject(id, Cycles(0)).expect("room");
    assert_eq!(r.step(Cycles(0)).transmitted.len(), 1);
    assert!(!r.settled, "a step that transmitted is not a fixed point");
    // Cycle 1 offers nothing (the quota is spent) and releases the crossbar
    // and the busy latch: the first step that leaves nothing behind.
    r.step(Cycles(1));
    assert!(r.settled && !r.is_quiescent(), "a flit is held behind a spent quota");
    let before = r.stats();
    for cycle in 2..8 {
        assert!(r.step(Cycles(cycle)).transmitted.is_empty());
    }
    assert_eq!(r.stats(), RouterStats { cycles: before.cycles + 6, ..before });
    // The round boundary gives the quota back however settled the router is.
    assert_eq!(r.step(Cycles(8)).transmitted.len(), 1);
    // A returned credit clears the memo, even onto a VC no connection owns.
    r.step(Cycles(9));
    r.step(Cycles(10));
    assert!(r.settled);
    r.return_credit(VcRef::new(1, 0));
    assert!(!r.settled);
}

/// The status bits, class masks and scheduling records of every port, held
/// to the facts they name; `Err` describes the first disagreement.
fn bits_match_facts(r: &Router) -> Result<(), String> {
    for (p, input) in r.inputs.iter().enumerate() {
        let ([credits, cbr_serviced, vbr_serviced], classes, records) = input.bits();
        for v in 0..usize::from(r.cfg.vcs_per_port) {
            let vc = VcRef::new(p as u8, v as u16);
            let conn = r.conns.by_input_vc(vc);
            let class = conn.map(|c| c.class);
            let spent = conn.is_some_and(ConnState::round_spent);
            let facts = [
                ("credits", credits, conn.is_some_and(|c| r.output_credit(c.output_vc) > 0)),
                ("cbr-serviced", cbr_serviced, spent && matches!(class, Some(QosClass::Cbr { .. }))),
                ("vbr-serviced", vbr_serviced, spent && matches!(class, Some(QosClass::Vbr { .. }))),
            ];
            for (name, bank, fact) in facts {
                if bank.get(v) != fact {
                    return Err(format!("{vc}: the {name} bit is {} but the fact is {fact}", !fact));
                }
            }
            // Link scheduling and `InputLink::has_flits` read the VCM's word.
            if input.vcm().flits_available().get(v) != (input.vcm().occupancy(vc.vc) > 0) {
                return Err(format!("{vc}: the VCM's flits_available disagrees with its queue"));
            }
            let masks = [
                ("cbr", classes.cbr.get(v), matches!(class, Some(QosClass::Cbr { .. }))),
                ("vbr", classes.vbr.get(v), matches!(class, Some(QosClass::Vbr { .. }))),
                ("control", classes.control.get(v), class == Some(QosClass::Control)),
                ("best-effort", classes.best_effort.get(v), class == Some(QosClass::BestEffort)),
            ];
            for (name, bit, fact) in masks {
                if bit != fact {
                    return Err(format!("{vc}: {name} mask is {bit} but the class is {class:?}"));
                }
            }
            // A mapped VC's record is its connection's, key bits included.
            if let Some(c) = conn {
                let (record, fact) = (records.get(vc.vc), VcSched::of(r.cfg.arbiter, c));
                if (record.conn, record.output, record.key.to_bits())
                    != (fact.conn, fact.output, fact.key.to_bits())
                {
                    return Err(format!("{vc}: record {record:?} but the connection says {fact:?}"));
                }
            }
        }
    }
    // The one derived latch kept outside the links.
    for (o, output) in r.outputs.iter().enumerate() {
        if r.guaranteed_open[o] != (output.guaranteed_serviced < r.guaranteed_cap) {
            return Err(format!("p{o}: guaranteed_open is {}", r.guaranteed_open[o]));
        }
    }
    // The port summary words.
    for (p, input) in r.inputs.iter().enumerate() {
        let words = [
            ("occupied", r.occupied, input.has_flits()),
            ("offered", r.offered, !r.candidate_bufs[p].is_empty()),
        ];
        for (name, word, fact) in words {
            if (word >> p & 1 == 1) != fact {
                return Err(format!("p{p}: {name} bit is {} but the fact is {fact}", !fact));
            }
        }
    }
    let connected = (0..r.cfg.ports).any(|p| r.crossbar.route_of(PortId(p)).is_some());
    if r.crossbar.is_idle() == connected {
        return Err(format!("crossbar says idle = {} but a route is {connected}", !connected));
    }
    Ok(())
}

/// A router under one of the random operation tapes the properties below
/// share: establish / inject / accept / packet / the three command words /
/// step / credit / teardown / quarantine over all four classes.
struct Driven {
    r: Router,
    streams: Vec<ConnRef>,
    now: Cycles,
}

type Op = (u8, u8, u8);

fn op_tape() -> impl proptest::Strategy<Value = (u64, Vec<Op>)> {
    (
        proptest::any::<u64>(),
        proptest::collection::vec((0u8..18, proptest::any::<u8>(), proptest::any::<u8>()), 40..240),
    )
}

impl Driven {
    /// Rounds are 16 cycles, a quarter of them open to guaranteed traffic, so
    /// quota latches, closed outputs and round boundaries are dense. `cfg`
    /// keeps its arbiter, candidate count and policy.
    fn new(cfg: RouterConfig, seed: u64) -> Self {
        let r = cfg
            .ports(4)
            .vcs_per_port(8)
            .track_output_credits(true)
            .best_effort_reserve(0.75)
            .seed(seed)
            .build();
        Driven { r, streams: Vec::new(), now: Cycles(0) }
    }

    /// Applies one operation; a step returns its report.
    fn apply(&mut self, (op, a, b): Op) -> Option<StepReport> {
        let Driven { r, streams, now } = self;
        let now = *now;
        let (input, output) = (PortId(a % 4), PortId(b % 4));
        let stream = streams.get(usize::from(a) % streams.len().max(1)).copied();
        match (op, stream) {
            (0, _) => streams.extend(r.establish(cbr([10.0, 155.0, 310.0][usize::from(b) % 3], a % 4, b / 4 % 4))),
            (1, _) => streams.extend(r.establish(ConnectionRequest {
                input,
                output,
                class: QosClass::Vbr {
                    permanent: Bandwidth::from_mbps(80.0),
                    peak: Bandwidth::from_mbps(160.0),
                    priority: b,
                },
            })),
            (2, _) => drop(r.inject_packet(input, output, FlitKind::Control, now)),
            (3, _) => drop(r.inject_packet(input, output, FlitKind::BestEffort, now)),
            (4 | 5, Some(id)) => drop(r.inject(id, now)),
            (6, Some(id)) => drop(r.accept(id, Flit::data(ConnectionId(999), u64::from(b), now), now)),
            (7, Some(id)) => drop(r.inject_kind(id, FlitKind::Command(CommandWord::AbortFrame), now)),
            (8, Some(id)) => {
                let out_vc = r.connection(id).expect("tracked streams are live").output_vc;
                r.return_credit(out_vc);
            }
            (9, _) => r.return_credit(VcRef::new(a % 4, u16::from(b % 8))),
            (10, Some(id)) => {
                r.teardown(id).expect("tracked streams are live");
                streams.retain(|&s| s != id);
            }
            (11, _) if b < 16 => {
                r.quarantine();
                r.lift_quarantine();
                streams.clear();
            }
            (12, _) => r.set_credit_clamp(b % 4 != 0),
            (13, Some(id)) => {
                let scale =
                    CommandWord::ScaleRate { num: u16::from(b % 4), den: u16::from(1 + a % 3) };
                let _ = r.inject_kind(id, FlitKind::Command(scale), now);
            }
            (14, Some(id)) => {
                let _ = r.inject_kind(id, FlitKind::Command(CommandWord::SetPriority(b)), now);
            }
            _ => {
                self.now = Cycles(now.count() + 1);
                return Some(r.step(now));
            }
        }
        None
    }
}

/// What `bank_conflicts` must read with one bank per VCM: a step first gives
/// every port its budget of one access back, and each push or pop beyond the
/// budget is a conflict. Accesses are read off the VCMs' lifetime totals, so
/// the model shares nothing with the router's `touched` word.
#[derive(Default)]
struct BankModel {
    seen: [u64; 4],
    since_reset: [u64; 4],
    conflicts: u64,
}

impl BankModel {
    fn observe(&mut self, r: &Router, stepped: bool) {
        for p in 0..4 {
            let (pushed, popped) = r.vcm(PortId(p as u8)).totals();
            let new = pushed + popped - self.seen[p];
            self.seen[p] += new;
            let before = if stepped { 0 } else { self.since_reset[p] };
            self.since_reset[p] = before + new;
            self.conflicts += self.since_reset[p].max(1) - before.max(1);
        }
    }
}

/// A CBR-only paper-default router schedules from bits and records alone: a
/// few thousand over-driven cycles make no connection-table read in link
/// scheduling. A VBR connection then shows the counter counts. A work gate,
/// not a timing: exact per run, whatever the host.
#[test]
fn a_stream_select_reads_no_connection_state() {
    let reads = || crate::linksched::CONNECTION_READS.with(|n| n.get());
    let mut r = RouterConfig::paper_default().seed(7).build();
    let ids: Vec<ConnRef> = (0..8u8)
        .flat_map(|p| (0..24u8).map(move |k| cbr(40.0, p, (p + k) % 8)))
        .filter_map(|req| r.establish(req).ok())
        .collect();
    assert!(ids.len() > 100, "{} connections admitted", ids.len());
    let before = reads();
    for cycle in 0..3000u64 {
        for &id in ids.iter().skip(cycle as usize % 3).step_by(3) {
            if r.can_inject(id) {
                r.inject(id, Cycles(cycle)).expect("room was checked");
            }
        }
        r.step(Cycles(cycle));
    }
    assert!(r.stats().flits_transmitted > 10_000, "{:?}", r.stats());
    assert_eq!(reads() - before, 0, "link scheduling read the connection table");
    let vbr = ConnectionRequest {
        input: PortId(0),
        output: PortId(1),
        class: QosClass::Vbr {
            permanent: Bandwidth::from_mbps(10.0),
            peak: Bandwidth::from_mbps(20.0),
            priority: 1,
        },
    };
    let id = r.establish(vbr).expect("admits");
    r.inject(id, Cycles(3000)).expect("room");
    r.step(Cycles(3000));
    assert!(reads() > before, "a VBR select reads its quota position");
}

proptest::proptest! {
    /// After every operation of a random tape, each port's `select` offers
    /// what the eager reference offers — the same candidates in the same
    /// order, priorities to the bit — and moves the pointer to the same
    /// place, under every arbiter, both policies and C ∈ {1, 2, 4, 8}.
    #[test]
    fn a_select_matches_the_eager_reference(
        (seed, ops) in op_tape(),
        arbiter in 0usize..7,
        sorted in proptest::any::<bool>(),
        c in 0usize..4,
    ) {
        use crate::linksched::CandidatePolicy;
        let arbiter = [
            ArbiterKind::FixedPriority,
            ArbiterKind::BiasedPriority,
            ArbiterKind::RoundRobin,
            ArbiterKind::OldestFirst,
            ArbiterKind::autonet_default(),
            ArbiterKind::Islip { iterations: 2 },
            ArbiterKind::Perfect,
        ][arbiter];
        let policy =
            if sorted { CandidatePolicy::PrioritySorted } else { CandidatePolicy::RotatingScan };
        let cfg = RouterConfig::paper_default()
            .arbiter(arbiter)
            .candidate_policy(policy)
            .candidates([1, 2, 4, 8][c]);
        let mut d = Driven::new(cfg, seed);
        let keyed = |cands: &[Candidate]| -> Vec<_> {
            cands
                .iter()
                .map(|c| (c.input, c.vc, c.output, c.conn, c.phase, c.priority.to_bits()))
                .collect()
        };
        for (i, &op) in ops.iter().enumerate() {
            d.apply(op);
            let r = &d.r;
            // The router's own scratch, as its selects left it, lent to every
            // port in turn as `link_schedule` lends it: nothing one select
            // leaves behind may reach the next port's. A clone, so the
            // router's pointers do not move.
            let mut sched = r.link_sched.clone();
            for (p, input) in r.inputs.iter().enumerate() {
                let view = input.view(PortId(p as u8), &r.cfg, &r.conns, &r.guaranteed_open, d.now);
                let (mut fast, mut eager) = (Vec::new(), Vec::new());
                let fast_next = sched.select(&view, &mut fast);
                let eager_next = crate::linksched::reference_select(&view, &mut eager);
                let at = format!("after op {i} {op:?} at {}, port {p}", d.now);
                proptest::prop_assert_eq!(keyed(&fast), keyed(&eager), "{}", &at);
                proptest::prop_assert_eq!(fast_next, eager_next, "{}", &at);
            }
        }
    }

    /// After every operation of a random tape, each status bit, class mask,
    /// scheduling record and port summary word agrees with the fact it names.
    #[test]
    fn status_bits_agree_with_the_facts_they_name((seed, ops) in op_tape()) {
        let mut d = Driven::new(RouterConfig::paper_default(), seed);
        for (i, &op) in ops.iter().enumerate() {
            d.apply(op);
            if let Err(e) = bits_match_facts(&d.r) {
                proptest::prop_assert!(false, "after op {i} {op:?} at {}: {e}", d.now);
            }
        }
    }

    /// A settled step changes nothing but the cycle counter. Two routers
    /// take one tape; the second has its memo cleared before every
    /// operation, so it always runs the full stages. An over-driven CBR
    /// source keeps spent quotas, closed outputs and credit stalls dense (the
    /// states a router settles in), and one VCM bank makes a missed
    /// bank-budget reset show as a bank conflict against [`BankModel`].
    #[test]
    fn a_settled_step_changes_nothing((seed, ops) in op_tape(), arbiter in 0usize..4) {
        let arbiter = [
            ArbiterKind::BiasedPriority,
            ArbiterKind::RoundRobin,
            ArbiterKind::autonet_default(),
            ArbiterKind::Islip { iterations: 2 },
        ][arbiter];
        let cfg = RouterConfig::paper_default().arbiter(arbiter).vcm_banks(1);
        let mut memo = Driven::new(cfg.clone(), seed);
        let mut full = Driven::new(cfg, seed);
        let mut banks = BankModel::default();
        for (i, &op) in ops.iter().enumerate() {
            for d in [&mut memo, &mut full] {
                // The source offers whenever its buffer has room; a full
                // buffer is not asked, so a stalled router stays settled.
                match d.streams.first() {
                    Some(&source) if d.r.can_inject(source) => drop(d.r.inject(source, d.now)),
                    Some(_) => {}
                    None => d.streams.extend(d.r.establish(cbr(155.0, 0, 1))),
                }
            }
            banks.observe(&memo.r, false);
            full.r.touch();
            let (a, b) = (memo.apply(op), full.apply(op));
            let at = format!("after op {i} {op:?} at {}", memo.now);
            proptest::prop_assert_eq!(a.is_some(), b.is_some(), "{}", &at);
            banks.observe(&memo.r, a.is_some());
            proptest::prop_assert_eq!(memo.r.stats().bank_conflicts, banks.conflicts, "{}", &at);
            if let (Some(a), Some(b)) = (a, b) {
                proptest::prop_assert_eq!(a.transmitted, b.transmitted, "{}", &at);
                proptest::prop_assert_eq!(a.outputs_used, b.outputs_used, "{}", &at);
            }
            proptest::prop_assert_eq!(memo.r.stats(), full.r.stats(), "{}", &at);
            proptest::prop_assert_eq!(memo.r.is_quiescent(), full.r.is_quiescent(), "{}", &at);
            let served = |r: &Router| -> Vec<(ConnectionId, u64, u32)> {
                r.connections_iter()
                    .map(|c| (c.id, c.flits_forwarded, c.serviced_this_round))
                    .collect()
            };
            proptest::prop_assert_eq!(served(&memo.r), served(&full.r), "{}", &at);
        }
    }
}

/// A connection's owner tag belongs to whoever drives the router: it rides
/// out with every flit the connection transmits, the direct mapping hands
/// it back with the id, and the router reads it nowhere else. The two
/// records it grew are pinned here, so further growth is a visible
/// decision.
#[test]
fn the_owner_tag_rides_out_with_every_flit() {
    use std::mem::size_of;
    assert_eq!((size_of::<ConnState>(), size_of::<Transmitted>()), (112, 72));
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let id = r.establish(cbr(124.0, 0, 1)).expect("admits");
    assert_eq!(r.connection(id).map(|s| s.tag), Some(0), "untagged until set");
    r.set_tag(id, 0xfeed);
    r.set_tag(ConnRef { id: ConnectionId(99), ..id }, 1); // no such connection: a no-op
    r.inject(id, Cycles(0)).expect("room");
    let sent: Vec<_> = (0..4).flat_map(|t| r.step(Cycles(t)).transmitted).collect();
    assert_eq!(sent.iter().map(|t| (t.conn, t.tag)).collect::<Vec<_>>(), [(id.id, 0xfeed)]);
    assert_eq!(r.connection_by_input_vc(id.vc).map(|s| (s.handle(), s.tag)), Some((id, 0xfeed)));
}

/// A handle names one connection, not its VC: once the connection is torn
/// down and its input VC leased to another, the old handle reaches nothing
/// — every lookup compares the id the slot holds.
#[test]
fn a_stale_handle_reaches_nothing_after_its_vc_is_re_leased() {
    let mut r = small_router(ArbiterKind::BiasedPriority);
    let v = Some(VcIndex(5));
    let a = r.establish_pinned(cbr(10.0, 0, 1), v).expect("admits");
    r.teardown(a).expect("live");
    let b = r.establish_pinned(cbr(10.0, 0, 2), v).expect("the VC is free again");
    assert_eq!(a.vc, b.vc, "B owns A's old input VC");
    r.set_tag(b, 0xb);
    r.inject(b, Cycles(0)).expect("room");

    assert_eq!(r.inject(a, Cycles(0)), Err(InjectError::UnknownConnection(a.id)));
    assert_eq!(r.inject_kind(a, FlitKind::Data, Cycles(0)), Err(InjectError::UnknownConnection(a.id)));
    assert!(r.accept(a, Flit::data(a.id, 0, Cycles(0)), Cycles(0)).is_err());
    assert!(!r.can_inject(a));
    assert_eq!(r.teardown(a), Err(a));
    assert!(r.connection(a).is_none());
    r.set_tag(a, 0xa);

    let state = r.connection(b).expect("B is untouched");
    assert_eq!((state.flits_injected, state.tag), (1, 0xb));
    assert_eq!(r.vcm(b.vc.port).occupancy(b.vc.vc), 1, "only B's own flit is queued");
    assert_eq!(r.connections(), 1);
}

/// A port costs what it carries: on a 33-port, 256-VC router one connection
/// allocates tables on its input link and its output link, and nothing
/// else; the data path — select, transmit, a rekeying command word, a
/// returned credit, even onto a port that never carried a connection —
/// allocates no table anywhere. The accounted footprint moves by the
/// connection's allocation record only, and the teardown gives both ports'
/// tables back.
#[test]
fn one_connection_allocates_tables_on_its_two_ports_only() {
    let mut r = RouterConfig::paper_default()
        .ports(33)
        .vcs_per_port(256)
        .candidates(4)
        .track_output_credits(true)
        .seed(5)
        .build();
    let tables = |r: &Router| -> Vec<(bool, bool)> {
        r.inputs.iter().zip(&r.outputs).map(|(i, o)| (i.holds_tables(), o.holds_tables())).collect()
    };
    let footprint = r.heap_bytes();
    assert_eq!(r.ports_holding_tables(), 0);
    assert_eq!(r.output_credit(VcRef::new(17, 0)), 0, "an unallocated table reads its fill");
    assert_eq!(r.free_vc_counts(PortId(3)), (256, 256));

    let id = r.establish(cbr(124.0, 3, 17)).expect("admits");
    let out_vc = r.connection(id).expect("live").output_vc;
    let mut want = vec![(false, false); 33];
    want[3].0 = true;
    want[17].1 = true;
    assert_eq!(tables(&r), want);
    assert_eq!(r.ports_holding_tables(), 2);
    assert_eq!(r.output_credit(out_vc), r.vc_depth() as u32);
    assert_eq!((r.free_vc_counts(PortId(3)).0, r.free_vc_counts(PortId(17)).1), (255, 255));
    assert_eq!(
        r.heap_bytes() - footprint,
        crate::footprint::CONNECTION,
        "the tables are accounted whether allocated or not"
    );

    let period = r.connection(id).expect("live").interarrival_cycles;
    let scale = FlitKind::Command(CommandWord::ScaleRate { num: 2, den: 1 });
    r.inject_kind(id, scale, Cycles(0)).expect("room");
    r.inject(id, Cycles(0)).expect("room");
    let mut sent = 0;
    for t in 0..64 {
        sent += r.step(Cycles(t)).transmitted.len();
        r.return_credit(out_vc);
        r.return_credit(VcRef::new(20, 9));
        if t % 8 == 0 && r.can_inject(id) {
            r.inject(id, Cycles(t)).expect("room was checked");
        }
    }
    assert!(sent >= 3, "{sent} flits crossed");
    assert_eq!(tables(&r), want, "the data path allocated a table");
    assert_eq!(r.output_credit(VcRef::new(20, 9)), 0, "a stray credit has no table to land in");
    let record = r.inputs[3].bits().2.get(id.vc.vc);
    assert_eq!(record.key, period / 2.0, "the rescaled rate is the record's key");
    r.teardown(id).expect("live");
    assert_eq!(r.ports_holding_tables(), 0, "the last teardown gives the tables back");
    let id = r.establish(cbr(124.0, 3, 17)).expect("admits again");
    assert_eq!(tables(&r), want, "and the next connection allocates them afresh");
    assert_eq!(r.connection(id).expect("live").output_vc, out_vc, "onto the same VC");
    assert_eq!(r.output_credit(out_vc), r.vc_depth() as u32);
}
