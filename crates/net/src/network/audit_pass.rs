//! The end-of-cycle invariant pass.
//!
//! The laws are the [`Auditor`]'s (per router) plus the cross-router
//! credit-conservation equation of every stream hop, which only the network
//! can see. The *full sweep* checks all of them for every router and every
//! hop pair of every session. An ordinary pass visits only what an event
//! since the last pass could have changed — the [`AuditMarks`] the sites
//! that mutate a router left behind, every connection holding a flit (the
//! starvation watchdog's subject), and whatever the last pass found in
//! violation, which stays marked until a visit finds it clean — and reports
//! what the sweep would have, in the sweep's order (DESIGN.md §6c). Every
//! [`SWEEP_PERIOD`]-th pass is the sweep itself, the backstop for a change
//! that left no mark.

use std::collections::BTreeMap;

use mmr_bitvec::StatusBits;
use mmr_core::audit::{AuditViolation, Auditor};
use mmr_core::ids::ConnRef;
use mmr_sim::Cycles;

use super::routers::RouterArray;
use super::wire::Wires;
use super::{NetConnection, NetConnectionId, Owner};
use crate::topology::NodeId;

/// One audited cycle in this many is a full sweep. A constant, not an
/// option: a sweep of a few-dozen-router fabric costs ≈ 20 µs.
const SWEEP_PERIOD: u64 = 1024;

/// One thing a site that mutates a router tells the next audit pass.
#[derive(Debug, Clone, Copy)]
enum Mark {
    /// This connection on this router, and nothing else there: it
    /// transmitted, received a flit or a credit, appeared or went away.
    Conn(NodeId, ConnRef),
    /// Hop pair `hops[hop..hop + 2]` of this session: a term of its credit
    /// equation moved.
    Hop(NetConnectionId, u16),
}

/// What changed since the last audit pass, recorded by `RouterArray` at the
/// sites that change it while an auditor is armed.
#[derive(Debug)]
pub(super) struct AuditMarks {
    /// Routers handed out whole (`RouterArray::get_mut`): anything on them
    /// may have changed — every law of theirs and every hop pair through
    /// them is due.
    whole: StatusBits,
    /// Routers a connection was established or torn down on: besides that
    /// connection, the free-VC stacks and bandwidth books of its ports
    /// changed, so the per-port laws are due.
    ports: StatusBits,
    /// Everything narrower, in the order it happened.
    log: Vec<Mark>,
    /// The log as a pass visits it, filled in by `AuditPass::digest`: per
    /// router the ascending connection handles (`named` has the routers with
    /// any), and the ascending hop pairs.
    conns: Vec<Vec<ConnRef>>,
    named: StatusBits,
    hops: Vec<(NetConnectionId, u16)>,
}

impl AuditMarks {
    pub(super) fn new(nodes: usize) -> Self {
        let clear = StatusBits::zeros(nodes);
        AuditMarks {
            whole: clear.clone(),
            ports: clear.clone(),
            log: Vec::new(),
            conns: vec![Vec::new(); nodes],
            named: clear,
            hops: Vec::new(),
        }
    }

    pub(super) fn whole(&mut self, node: NodeId) {
        self.whole.set(node.index(), true);
    }

    pub(super) fn ports(&mut self, node: NodeId) {
        self.ports.set(node.index(), true);
    }

    pub(super) fn conn(&mut self, node: NodeId, conn: ConnRef) {
        self.note(Mark::Conn(node, conn));
    }

    pub(super) fn hop(&mut self, session: NetConnectionId, hop: u16) {
        self.note(Mark::Hop(session, hop));
    }

    fn note(&mut self, mark: Mark) {
        // mmr-lint: allow(A-TRANS, reason="amortized: the log keeps its capacity across audit passes, and exists only while an auditor is armed")
        self.log.push(mark);
    }

    /// Queues `conn` on router `node` for this pass's visit.
    fn visit(&mut self, node: NodeId, conn: ConnRef) {
        self.named.set(node.index(), true);
        self.conns[node.index()].push(conn);
    }

    /// Whether an ordinary pass visits `conn` on router `n`.
    fn visits(&self, n: u16, conn: ConnRef) -> bool {
        self.whole.get(usize::from(n)) || self.conns[usize::from(n)].binary_search(&conn).is_ok()
    }

    fn clear(&mut self) {
        for n in self.named.iter_set() {
            self.conns[n].clear();
        }
        self.whole.clear();
        self.ports.clear();
        self.named.clear();
        self.log.clear();
        self.hops.clear();
    }
}

/// What the auditor's pass carries from one cycle to the next.
#[derive(Debug, Default)]
pub(super) struct AuditPass {
    /// Every pass is the full sweep (the differential oracle).
    pub(super) exhaustive: bool,
    /// Passes run so far; the first is a sweep because nothing was marked
    /// before the auditor was armed.
    passes: u64,
    /// What the last pass found broken, each list ascending: `(router,
    /// connection)`, routers with a broken per-port law, hop pairs.
    broken_conns: Vec<(u16, ConnRef)>,
    broken_ports: Vec<u16>,
    broken_hops: Vec<(NetConnectionId, u16)>,
    /// Violators a sweep found that an ordinary pass in its place would not
    /// have visited. Stays 0 unless a mark rule is missing.
    pub(super) missed: u64,
}

impl AuditPass {
    pub(super) fn run(
        &mut self,
        aud: &mut Auditor,
        now: Cycles,
        routers: &mut RouterArray,
        conns: &BTreeMap<NetConnectionId, NetConnection>,
        wires: &Wires,
    ) {
        let Some(mut marks) = routers.take_marks() else { return };
        let sweep = self.exhaustive || self.passes.is_multiple_of(SWEEP_PERIOD);
        let first = self.passes == 0;
        self.passes += 1;
        self.digest(&mut marks, routers);

        // Router laws, ascending router then ascending connection handle.
        self.broken_conns.clear();
        self.broken_ports.clear();
        let broken_conns = &mut self.broken_conns;
        let broken_ports = &mut self.broken_ports;
        let mut visit = |n: usize, whole: bool| {
            let (r, n) = (routers.get(NodeId(n as u16)), n as u16);
            let broken = |conn: ConnRef| broken_conns.push((n, conn));
            let ports_broken = if whole {
                aud.visit_router(n, r, now, true, r.connections_iter(), broken)
            } else {
                let handles = marks.conns[usize::from(n)].iter();
                let conns = handles.filter_map(|&conn| r.connection(conn));
                aud.visit_router(n, r, now, marks.ports.get(usize::from(n)), conns, broken)
            };
            if ports_broken {
                broken_ports.push(n);
            }
        };
        if sweep {
            (0..routers.len()).for_each(|n| visit(n, true));
        } else {
            let mut visited = 0;
            for n in marks.named.iter_set() {
                visit(n, marks.whole.get(n));
                visited += 1;
            }
            aud.cover(routers.len() as u64 - visited);
        }

        // Hop laws, ascending session then hop by hop.
        let broken_hops = &mut self.broken_hops;
        let mut leaks = |aud: &mut Auditor, conn: &NetConnection, hop: u16| {
            if hop_leaks(aud, conn, usize::from(hop), routers, wires) {
                broken_hops.push((conn.id, hop));
            }
        };
        if sweep {
            for conn in conns.values() {
                (0..conn.hops.len().saturating_sub(1)).for_each(|hop| leaks(aud, conn, hop as u16));
            }
        } else {
            let mut session = None;
            for &(id, hop) in &marks.hops {
                if session.is_none_or(|conn: &NetConnection| conn.id != id) {
                    session = conns.get(&id);
                }
                if let Some(conn) = session {
                    leaks(aud, conn, hop);
                }
            }
        }

        if sweep && !first {
            let missed_conns = self.broken_conns.iter().filter(|&&(n, c)| !marks.visits(n, c));
            let missed_ports = (self.broken_ports.iter().map(|&n| usize::from(n)))
                .filter(|&n| !marks.whole.get(n) && !marks.ports.get(n));
            let missed_hops =
                self.broken_hops.iter().filter(|&key| marks.hops.binary_search(key).is_err());
            self.missed +=
                (missed_conns.count() + missed_ports.count() + missed_hops.count()) as u64;
        }
        marks.clear();
        routers.restore_marks(marks);
    }

    /// Digests the marks into what an ordinary pass visits: per named
    /// router the ascending connections, and the ascending hop pairs. Empties
    /// `broken_hops` into the latter.
    fn digest(&mut self, marks: &mut AuditMarks, routers: &RouterArray) {
        // The marked; the broken; every connection holding a flit (a router
        // asleep is quiescent, so holds none); every hop pair through a
        // router handed out whole.
        let log = std::mem::take(&mut marks.log);
        for &mark in &log {
            match mark {
                Mark::Conn(node, conn) => marks.visit(node, conn),
                Mark::Hop(session, hop) => marks.hops.push((session, hop)),
            }
        }
        marks.log = log;
        for &(n, conn) in &self.broken_conns {
            marks.visit(NodeId(n), conn);
        }
        for n in routers.awake().iter_set() {
            let node = NodeId(n as u16);
            routers.get(node).buffered_connections().for_each(|conn| marks.visit(node, conn));
        }
        marks.hops.append(&mut self.broken_hops);
        for n in marks.whole.iter_set() {
            for state in routers.get(NodeId(n as u16)).connections_iter() {
                let Some(Owner::Hop(session, at)) = Owner::of(state.tag) else { continue };
                marks.hops.extend(at.checked_sub(1).map(|before| (session, before)));
                marks.hops.push((session, at));
            }
        }
        for &n in &self.broken_ports {
            marks.ports(NodeId(n));
        }

        marks.hops.sort_unstable();
        marks.hops.dedup();
        for n in marks.whole.iter_set().chain(marks.ports.iter_set()) {
            marks.named.set(n, true);
        }
        for n in marks.named.iter_set() {
            marks.conns[n].sort_unstable();
            marks.conns[n].dedup();
        }
    }
}

/// The credit-conservation equation of one stream hop: credits held
/// upstream + flits buffered downstream + frames owed by the retry layer
/// must equal the VC depth (stream wires themselves are empty between
/// steps). Reports and returns `true` when it does not hold; a hop that is
/// the session's last, or whose routers no longer map it, has no equation.
fn hop_leaks(
    aud: &mut Auditor,
    conn: &NetConnection,
    hop: usize,
    routers: &RouterArray,
    wires: &Wires,
) -> bool {
    let (Some(up), Some(down)) = (conn.hops.get(hop), conn.hops.get(hop + 1)) else {
        return false;
    };
    let (up_router, down_router) = (routers.get(up.node), routers.get(down.node));
    if !up_router.credits_tracked() {
        return false;
    }
    let (Some(up_state), Some(down_state)) =
        (up_router.connection(up.local), down_router.connection(down.local))
    else {
        return false;
    };
    let credits = up_router.output_credit(up_state.output_vc);
    let input = down_state.input_vc;
    let buffered = down_router.vcm(input.port).occupancy(input.vc);
    let in_flight = wires.owed_to((down.node, input.port), conn.id);
    let depth = up_router.vc_depth();
    let leaks = credits as usize + buffered + in_flight != depth;
    if leaks {
        aud.report(AuditViolation::CreditConservation {
            router: up.node.0,
            conn: up.local.id,
            credits,
            buffered,
            in_flight,
            depth,
        });
    }
    leaks
}

#[cfg(test)]
mod tests {
    use mmr_core::audit::AuditConfig;
    use mmr_core::flit::FlitKind;
    use mmr_core::llr::LlrConfig;

    use super::*;
    use crate::network::{NetStepReport, NetworkSim, TransientKind};
    use crate::setup::{cbr_mbps, SetupStrategy};
    use crate::testkit::{mesh_net, output_wire};

    /// The marks in a comparable shape: whole-marked routers, port-marked
    /// routers, named `(router, connection)`s and hop pairs, each ascending.
    type Marked = (Vec<usize>, Vec<usize>, Vec<(usize, ConnRef)>, Vec<(u32, u16)>);

    fn marked(net: &NetworkSim) -> Marked {
        let marks = net.routers.marks();
        let (mut conns, mut hops) = (Vec::new(), Vec::new());
        for &mark in &marks.log {
            match mark {
                Mark::Conn(node, conn) => conns.push((node.index(), conn)),
                Mark::Hop(session, hop) => hops.push((session.0, hop)),
            }
        }
        conns.sort_unstable();
        conns.dedup();
        hops.sort_unstable();
        hops.dedup();
        (marks.whole.iter_set().collect(), marks.ports.iter_set().collect(), conns, hops)
    }

    /// The wire phase of `NetworkSim::step` on its own.
    fn deliver(net: &mut NetworkSim, now: Cycles) {
        let NetworkSim { wires, routers, stats, .. } = net;
        wires.pump_and_deliver(now, routers, stats);
    }

    /// What each way into a router leaves for the next audit pass: the
    /// sites that name one connection mark that connection (and its ports,
    /// when it appears or goes away) and the hop pairs it is an end of;
    /// everything else goes through `RouterArray::get_mut` and marks the
    /// whole router. A pass consumes the marks.
    #[test]
    fn every_way_into_a_router_leaves_its_marks() {
        let mut net = mesh_net();
        net.enable_audit(AuditConfig::default());
        net.step(Cycles(0));
        assert_eq!(marked(&net), (vec![], vec![], vec![], vec![]), "a pass consumes the marks");

        // Setting up 0 -> 2 reserves a hop on routers 0, 1 and 2; the
        // session's two hop pairs exist from registration on.
        let id =
            net.establish(NodeId(0), NodeId(2), cbr_mbps(155.0), SetupStrategy::Epb).expect("fits");
        let path: Vec<(usize, ConnRef)> = (net.connection(id).expect("live").hops.iter())
            .map(|hop| (hop.node.index(), hop.local))
            .collect();
        assert_eq!(path.iter().map(|&(n, _)| n).collect::<Vec<_>>(), [0, 1, 2]);
        let pairs = vec![(id.0, 0), (id.0, 1), (id.0, 2)];
        assert_eq!(marked(&net), (vec![], vec![0, 1, 2], path.clone(), pairs));
        net.step(Cycles(1));

        // A flit injected at the source NI touches the first hop's
        // connection and no hop pair (hop 0 is downstream of nothing).
        net.inject(id, Cycles(2)).expect("room");
        assert_eq!(marked(&net), (vec![], vec![], vec![path[0]], vec![]));
        // It crosses router 0 — that connection transmitted and spent a
        // credit on pair 0 — and lands in router 1 the same cycle: the
        // accepting connection, the pair the frame crossed.
        let mut report = NetStepReport::default();
        net.step_routers(Cycles(2), &mut report);
        assert_eq!(marked(&net), (vec![], vec![], vec![path[0]], vec![(id.0, 0)]));
        deliver(&mut net, Cycles(2));
        assert_eq!(marked(&net), (vec![], vec![], vec![path[0], path[1]], vec![(id.0, 0)]));
        net.run_audit(Cycles(2));
        // Next cycle it crosses router 1: a slot freed behind it (pair 0,
        // and the credit back to router 0's connection), a credit spent
        // ahead (pair 1), and router 2 accepts.
        net.step_routers(Cycles(3), &mut report);
        assert_eq!(
            marked(&net),
            (vec![], vec![], vec![path[0], path[1]], vec![(id.0, 0), (id.0, 1)])
        );
        deliver(&mut net, Cycles(3));
        assert_eq!(marked(&net), (vec![], vec![], path.clone(), vec![(id.0, 0), (id.0, 1)]));
        net.run_audit(Cycles(3));
        for t in 4..6 {
            net.step(Cycles(t));
        }

        // A tag written — here hop 1's own, again — is read by no law and
        // no stage: no mark, and no router woken.
        let awake: Vec<usize> = net.routers.awake().iter_set().collect();
        let (node, local) = (NodeId(path[1].0 as u16), path[1].1);
        net.routers.tag(node, local, Owner::Hop(id, 1).tag());
        assert_eq!(marked(&net), (vec![], vec![], vec![], vec![]));
        assert_eq!(net.routers.awake().iter_set().collect::<Vec<_>>(), awake);
        assert!(net.tags_agree());

        // A VCT packet is offered through `get_mut`: the whole router.
        net.send_packet(NodeId(4), NodeId(5), FlitKind::BestEffort, Cycles(6)).expect("valid");
        assert_eq!(marked(&net), (vec![4], vec![], vec![], vec![]));
        for t in 6..40 {
            net.step(Cycles(t));
        }

        // Teardown releases every hop: each router's ports and connection.
        assert_eq!(marked(&net), (vec![], vec![], vec![], vec![]), "the fabric is idle");
        net.teardown(id).expect("live");
        assert_eq!(marked(&net), (vec![], vec![0, 1, 2], path, vec![]));
        net.step(Cycles(40));

        // A node failure quarantines through `get_mut`, as does repair.
        net.fail_node(NodeId(8)).expect("up");
        assert_eq!(marked(&net), (vec![8], vec![], vec![], vec![]));
        net.step(Cycles(41));
        net.repair_node(NodeId(8)).expect("down");
        assert_eq!(marked(&net), (vec![8], vec![], vec![], vec![]));

        let aud = net.auditor().expect("armed");
        assert!(aud.is_clean(), "{}", aud.summary());
        assert_eq!(aud.checks(), 9 * 42, "one check per router per audited cycle");
        assert_eq!(net.audit_sweep_misses(), 0);
    }

    /// With the retry layer on, a dropped frame is replayed cycles after the
    /// router sent it: no router moves that cycle, and the accept is what
    /// marks the hop pair the frame finally crosses.
    #[test]
    fn a_replayed_frame_marks_the_hop_pair_it_lands_on() {
        let mut net = mesh_net();
        net.enable_llr(LlrConfig::default());
        net.enable_audit(AuditConfig::default());
        let id =
            net.establish(NodeId(0), NodeId(2), cbr_mbps(155.0), SetupStrategy::Epb).expect("fits");
        let (node, port) = output_wire(&net, id, 0);
        let (peer, peer_port) = net.topology().peer_of(node, port).expect("an inter-router wire");
        net.arm_transient(peer, peer_port, TransientKind::Drop).expect("a wire endpoint");
        net.inject(id, Cycles(0)).expect("room");
        let mut replayed_at = None;
        for t in 0..200 {
            let now = Cycles(t);
            net.wires.deliver_signals(now);
            let mut report = NetStepReport::default();
            net.step_routers(now, &mut report);
            deliver(&mut net, now);
            if replayed_at.is_none() && net.stats.flits_retransmitted == 1 {
                assert_eq!(report.flits_switched, 0, "no router moved a flit this cycle");
                assert_eq!(marked(&net).3, vec![(id.0, 0)]);
                replayed_at = Some(t);
            }
            net.run_audit(now);
        }
        assert!(replayed_at.is_some_and(|t| t > 1), "replayed after the timeout: {replayed_at:?}");
        assert_eq!(net.stats.flits_delivered, 1, "the replay got through");
        let aud = net.auditor().expect("armed");
        assert!(aud.is_clean(), "{}", aud.summary());
    }

    /// A change that leaves no mark — here a credit minted behind the
    /// auditor's back — is invisible to the ordinary passes, found by the
    /// next full sweep (pass 1,024), counted as a miss, and carried from
    /// then on like any other violation. The credit is minted while one
    /// flit is in flight, so the upstream count is below depth and the
    /// saturation clamp keeps it; with no router stepped after that, the
    /// flit stays buffered downstream and nothing overflows, so the sweep
    /// reports the hop's broken equation alone.
    #[test]
    fn the_backstop_sweep_finds_what_left_no_mark() {
        let mut net = mesh_net();
        net.enable_audit(AuditConfig::default());
        let id =
            net.establish(NodeId(0), NodeId(2), cbr_mbps(155.0), SetupStrategy::Epb).expect("fits");
        let hop = net.connection(id).expect("live").hops[0];
        let vc = net.router(hop.node).connection(hop.local).expect("mapped").output_vc;
        for t in 0..10 {
            net.step(Cycles(t));
        }
        net.inject(id, Cycles(10)).expect("room");
        net.step_routers(Cycles(10), &mut NetStepReport::default());
        deliver(&mut net, Cycles(10));
        net.run_audit(Cycles(10));
        let depth = net.router(hop.node).vc_depth() as u32;
        assert_eq!(net.router(hop.node).output_credit(vc), depth - 1, "one flit in flight");
        let marks = net.routers.take_marks().expect("armed");
        net.routers.get_mut(hop.node).return_credit(vc);
        net.routers.restore_marks(marks);
        assert_eq!(net.router(hop.node).output_credit(vc), depth, "a credit minted below depth");
        for t in 11..SWEEP_PERIOD {
            net.run_audit(Cycles(t));
        }
        assert!(net.auditor().expect("armed").is_clean(), "no ordinary pass had a reason to look");
        net.run_audit(Cycles(SWEEP_PERIOD));
        let found = net.auditor().expect("armed").violation_count();
        assert_eq!(found, 1, "the hop's broken equation, and no overflow");
        assert_eq!(net.audit_sweep_misses(), 1);
        net.run_audit(Cycles(SWEEP_PERIOD + 1));
        assert_eq!(net.auditor().expect("armed").violation_count(), 2 * found, "and carried");
        assert_eq!(net.audit_sweep_misses(), 1);
    }
}
