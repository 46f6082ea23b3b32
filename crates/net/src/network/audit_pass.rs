//! The end-of-cycle invariant pass.
//!
//! The laws are the [`Auditor`]'s (per router) plus the cross-router
//! credit-conservation equation of every stream hop pair, which only the
//! network can see. The *full sweep* checks all of them for every router
//! and every hop pair. An ordinary pass visits only what an event since the
//! last pass could have changed — the [`AuditMarks`] the sites that mutate a
//! router left behind, every connection holding a flit (the starvation
//! watchdog's subject), and whatever the last pass found in violation,
//! which stays marked until a visit finds it clean — and reports what the
//! sweep would have, in the sweep's order (DESIGN.md §6c). Every
//! [`SWEEP_PERIOD`]-th pass is the sweep itself, the backstop for a change
//! that left no mark.

use mmr_bitvec::StatusBits;
use mmr_core::audit::{AuditViolation, Auditor};
use mmr_core::ids::{ConnRef, PortId, VcIndex, VcRef};
use mmr_sim::Cycles;

use super::routers::RouterArray;
use super::wire::Wires;
use super::{NetConnectionId, Owner};
use crate::topology::{NodeId, Topology};

/// One audited cycle in this many is a full sweep. A constant, not an
/// option: a sweep of a few-dozen-router fabric costs ≈ 20 µs.
const SWEEP_PERIOD: u64 = 1024;

/// What changed since the last audit pass, recorded by `RouterArray` at the
/// sites that change it while an auditor is armed. Per router, a VC is bit
/// `port × vcs + vc` of a bank: the set of what needs looking at is a bit
/// vector, as §4.4's set of VCs to schedule is, not a list to sort.
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
    /// Per router, the input VCs whose connection is due — it transmitted,
    /// received a flit or a credit, appeared or went away. A connection is
    /// its input VC, so ascending bits are ascending handles.
    conns: Vec<StatusBits>,
    /// Per router, the input VCs that are the downstream end of a hop pair
    /// whose credit equation is due: a term of it moved.
    pairs: Vec<StatusBits>,
    /// The routers with a `conns` / `pairs` bit (`named` also gets the
    /// `whole` and `ports` routers, as a pass visits them).
    named: StatusBits,
    paired: StatusBits,
    /// VCs per port: the stride of a bank.
    vcs: usize,
    /// Bits a bank: `ports × vcs`. A router's bank is allocated at its
    /// first mark and empty until then, so a fabric whose traffic touches a
    /// few routers holds banks for those only.
    bank_len: usize,
}

impl AuditMarks {
    pub(super) fn new(nodes: usize, ports: usize, vcs: usize) -> Self {
        let clear = StatusBits::zeros(nodes);
        let banks = vec![StatusBits::zeros(0); nodes];
        AuditMarks {
            whole: clear.clone(),
            ports: clear.clone(),
            conns: banks.clone(),
            pairs: banks,
            named: clear.clone(),
            paired: clear,
            vcs,
            bank_len: ports * vcs,
        }
    }

    pub(super) fn whole(&mut self, node: NodeId) {
        self.whole.set(node.index(), true);
    }

    pub(super) fn ports(&mut self, node: NodeId) {
        self.ports.set(node.index(), true);
    }

    /// The connection owning input VC `vc` of router `node`, and nothing
    /// else there.
    pub(super) fn conn(&mut self, node: NodeId, vc: VcRef) {
        self.named.set(node.index(), true);
        mark_bit(&mut self.conns[node.index()], self.bank_len, bit(vc, self.vcs));
    }

    /// The hop pair whose downstream end is input VC `vc` of router `node`.
    pub(super) fn pair(&mut self, node: NodeId, vc: VcRef) {
        self.paired.set(node.index(), true);
        mark_bit(&mut self.pairs[node.index()], self.bank_len, bit(vc, self.vcs));
    }

    /// Whether an ordinary pass visits `conn` on router `n`.
    fn visits(&self, n: usize, conn: ConnRef) -> bool {
        self.whole.get(n) || is_marked(&self.conns[n], bit(conn.vc, self.vcs))
    }

    fn clear(&mut self) {
        for n in self.named.iter_set() {
            self.conns[n].clear();
        }
        for n in self.paired.iter_set() {
            self.pairs[n].clear();
        }
        self.whole.clear();
        self.ports.clear();
        self.named.clear();
        self.paired.clear();
    }
}

/// Sets bit `at` of `bank`, allocating the bank's `len` bits at its first
/// mark.
fn mark_bit(bank: &mut StatusBits, len: usize, at: usize) {
    if bank.is_empty() {
        *bank = StatusBits::zeros(len);
    }
    bank.set(at, true);
}

/// Whether bit `at` of `bank` is set; a bank never marked is not allocated.
fn is_marked(bank: &StatusBits, at: usize) -> bool {
    !bank.is_empty() && bank.get(at)
}

/// Where VC `vc` sits in a router's bank of `vcs` VCs a port.
fn bit(vc: VcRef, vcs: usize) -> usize {
    vc.port.index() * vcs + vc.vc.index()
}

/// The VC at bit `at` of a router's bank.
fn vc_at(at: usize, vcs: usize) -> VcRef {
    VcRef { port: PortId((at / vcs) as u8), vc: VcIndex((at % vcs) as u16) }
}

#[cfg(test)]
thread_local! {
    /// Connections visited and hop pairs evaluated by ordinary (not sweep)
    /// audit passes on this thread: the counters behind the pass's work gate.
    static VISITED: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// Counts `conns` connections and `pairs` hop pairs into [`VISITED`] when
/// the pass is not a sweep.
#[cfg(test)]
fn tally(sweep: bool, conns: u64, pairs: u64) {
    if !sweep {
        VISITED.with(|v| v.set((v.get().0 + conns, v.get().1 + pairs)));
    }
}

/// A hop pair whose credit equation does not hold: `(session, hop)`, its
/// downstream end `(router, input VC)` and the violation.
type Leak = ((NetConnectionId, u16), (u16, VcRef), AuditViolation);

/// What the auditor's pass carries from one cycle to the next.
#[derive(Debug, Default)]
pub(super) struct AuditPass {
    /// Every pass is the full sweep (the differential oracle).
    pub(super) exhaustive: bool,
    /// Passes run so far; the first is a sweep because nothing was marked
    /// before the auditor was armed.
    passes: u64,
    /// What the last pass found broken: `(router, connection)` and routers
    /// with a broken per-port law, each ascending, and the downstream ends
    /// `(router, input VC)` of leaking hop pairs.
    broken_conns: Vec<(u16, ConnRef)>,
    broken_ports: Vec<u16>,
    broken_pairs: Vec<(u16, VcRef)>,
    /// This pass's leaking hop pairs, sorted before they are reported.
    leaks: Vec<Leak>,
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
        topology: &Topology,
        wires: &Wires,
    ) {
        let Some(mut marks) = routers.take_marks() else { return };
        let sweep = self.exhaustive || self.passes.is_multiple_of(SWEEP_PERIOD);
        let first = self.passes == 0;
        self.passes += 1;
        self.gather(&mut marks, routers, topology);

        // Router laws, ascending router then ascending connection handle.
        self.broken_conns.clear();
        self.broken_ports.clear();
        let broken_conns = &mut self.broken_conns;
        let broken_ports = &mut self.broken_ports;
        let mut visit = |n: usize, whole: bool| {
            let (r, n) = (routers.get(NodeId(n as u16)), n as u16);
            let broken = |conn: ConnRef| broken_conns.push((n, conn));
            let ports_broken = if whole {
                let conns = r.connections_iter();
                #[cfg(test)]
                let conns = conns.inspect(|_| tally(sweep, 1, 0));
                aud.visit_router(n, r, now, true, conns, broken)
            } else {
                let bits = marks.conns[usize::from(n)].iter_set();
                let conns = bits.filter_map(|at| r.connection_by_input_vc(vc_at(at, marks.vcs)));
                #[cfg(test)]
                let conns = conns.inspect(|_| tally(sweep, 1, 0));
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

        // Hop laws, found from their downstream ends and reported in
        // ascending `(session, hop)` order.
        let leaks = &mut self.leaks;
        let mut pair = |n: usize, input: VcRef| {
            leaks.extend(pair_leak(routers, topology, wires, NodeId(n as u16), input));
        };
        if sweep {
            for (n, r) in routers.iter().enumerate() {
                r.connections_iter().for_each(|state| pair(n, state.input_vc));
            }
        } else {
            for n in marks.paired.iter_set() {
                for at in marks.pairs[n].iter_set() {
                    #[cfg(test)]
                    tally(sweep, 0, 1);
                    pair(n, vc_at(at, marks.vcs));
                }
            }
        }
        self.leaks.sort_unstable_by_key(|&(key, ..)| key);
        self.broken_pairs.clear();
        for (_, end, violation) in self.leaks.drain(..) {
            aud.report(violation);
            self.broken_pairs.push(end);
        }

        if sweep && !first {
            let missed_conns =
                self.broken_conns.iter().filter(|&&(n, c)| !marks.visits(usize::from(n), c));
            let missed_ports = (self.broken_ports.iter().map(|&n| usize::from(n)))
                .filter(|&n| !marks.whole.get(n) && !marks.ports.get(n));
            let missed_pairs = (self.broken_pairs.iter()).filter(|&&(n, input)| {
                !is_marked(&marks.pairs[usize::from(n)], bit(input, marks.vcs))
            });
            self.missed +=
                (missed_conns.count() + missed_ports.count() + missed_pairs.count()) as u64;
        }
        marks.clear();
        routers.restore_marks(marks);
    }

    /// Adds to the marks what an ordinary pass visits besides them: the
    /// broken; every connection holding a flit (a router asleep is
    /// quiescent, so holds none); every hop pair through a router handed
    /// out whole.
    fn gather(&self, marks: &mut AuditMarks, routers: &RouterArray, topology: &Topology) {
        for &(n, conn) in &self.broken_conns {
            marks.conn(NodeId(n), conn.vc);
        }
        for n in routers.awake().iter_set() {
            let node = NodeId(n as u16);
            routers.get(node).buffered_connections().for_each(|conn| marks.conn(node, conn.vc));
        }
        for &(n, input) in &self.broken_pairs {
            marks.pair(NodeId(n), input);
        }
        // Taken out while its routers mark pairs, which borrows the marks.
        let whole = std::mem::replace(&mut marks.whole, StatusBits::zeros(0));
        for n in whole.iter_set() {
            let node = NodeId(n as u16);
            for state in routers.get(node).connections_iter() {
                let Some(Owner::Hop(_, at)) = Owner::of(state.tag) else { continue };
                if at > 0 {
                    marks.pair(node, state.input_vc);
                }
                let output = state.output_vc;
                if let Some((peer, port)) = topology.peer_of(node, output.port) {
                    marks.pair(peer, VcRef { port, vc: output.vc });
                }
            }
        }
        marks.whole = whole;
        for &n in &self.broken_ports {
            marks.ports(NodeId(n));
        }
        marks.named |= &marks.whole;
        marks.named |= &marks.ports;
    }
}
/// The credit-conservation equation of the stream hop pair whose
/// downstream end is input VC `input` of router `node`: credits held
/// upstream + flits buffered downstream + frames owed by the retry layer
/// must equal the VC depth (stream wires themselves are empty between
/// steps). The upstream end is the connection holding the wire's output VC
/// on the peer router, and the two are a pair when their tags name hops
/// `at − 1` and `at` of one session. Returns the [`Leak`] when the equation
/// does not hold; a VC that is no session's hop past its first, or whose
/// upstream end is gone, has no equation.
fn pair_leak(
    routers: &RouterArray,
    topology: &Topology,
    wires: &Wires,
    node: NodeId,
    input: VcRef,
) -> Option<Leak> {
    let down_router = routers.get(node);
    let Some(Owner::Hop(session, at)) = Owner::of(down_router.connection_by_input_vc(input)?.tag)
    else {
        return None;
    };
    let hop = at.checked_sub(1)?;
    let (up, port) = topology.peer_of(node, input.port)?;
    let up_router = routers.get(up);
    let output = VcRef { port, vc: input.vc };
    let up_conn = up_router.connection_by_output_vc(output)?;
    if !up_router.credits_tracked()
        || up_router.connection(up_conn)?.tag != Owner::Hop(session, hop).tag()
    {
        return None;
    }
    let credits = up_router.output_credit(output);
    let buffered = down_router.vcm(input.port).occupancy(input.vc);
    let in_flight = wires.owed_to((node, input.port), session);
    let depth = up_router.vc_depth();
    (credits as usize + buffered + in_flight != depth).then_some((
        (session, hop),
        (node.0, input),
        AuditViolation::CreditConservation {
            router: up.0,
            conn: up_conn.id,
            credits,
            buffered,
            in_flight,
            depth,
        },
    ))
}

#[cfg(test)]
mod tests {
    use mmr_core::audit::AuditConfig;
    use mmr_core::flit::FlitKind;
    use mmr_core::conn::QosClass;
    use mmr_core::llr::LlrConfig;
    use mmr_sim::{Bandwidth, SeededRng};

    use super::*;
    use crate::network::{NetStepReport, NetworkSim, TransientKind};
    use crate::setup::{cbr_mbps, SetupStrategy};
    use crate::{AdmissionController, AdmitPolicy};
    use crate::testkit::{mesh_net, output_wire};

    /// The marks in a comparable shape: whole-marked routers, port-marked
    /// routers, the `(router, input VC)` of every marked connection and the
    /// `(router, input VC)` downstream end of every marked hop pair, each
    /// ascending.
    type Marked = (Vec<usize>, Vec<usize>, Vec<(usize, VcRef)>, Vec<(usize, VcRef)>);

    fn marked(net: &NetworkSim) -> Marked {
        let marks = net.routers.marks();
        let read = |banks: &[StatusBits], routers: &StatusBits| -> Vec<(usize, VcRef)> {
            let bits = |n: usize| banks[n].iter_set().map(move |at| (n, vc_at(at, marks.vcs)));
            routers.iter_set().flat_map(bits).collect()
        };
        (
            marks.whole.iter_set().collect(),
            marks.ports.iter_set().collect(),
            read(&marks.conns, &marks.named),
            read(&marks.pairs, &marks.paired),
        )
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
        let path: Vec<(usize, VcRef)> = (net.connection(id).expect("live").hops.iter())
            .map(|hop| (hop.node.index(), hop.local.vc))
            .collect();
        assert_eq!(path.iter().map(|&(n, _)| n).collect::<Vec<_>>(), [0, 1, 2]);
        // A hop pair is marked at its downstream end: pair 0 at hop 1's
        // input VC, pair 1 at hop 2's.
        let pairs = vec![path[1], path[2]];
        assert_eq!(marked(&net), (vec![], vec![0, 1, 2], path.clone(), pairs.clone()));
        net.step(Cycles(1));

        // A flit injected at the source NI touches the first hop's
        // connection and no hop pair (hop 0 is downstream of nothing).
        net.inject(id, Cycles(2)).expect("room");
        assert_eq!(marked(&net), (vec![], vec![], vec![path[0]], vec![]));
        // It crosses router 0 — that connection transmitted and spent a
        // credit on pair 0, found through the wire it left on — and lands
        // in router 1 the same cycle: the accepting connection, the pair
        // the frame crossed.
        let mut report = NetStepReport::default();
        net.step_routers(Cycles(2), &mut report);
        assert_eq!(marked(&net), (vec![], vec![], vec![path[0]], vec![path[1]]));
        deliver(&mut net, Cycles(2));
        assert_eq!(marked(&net), (vec![], vec![], vec![path[0], path[1]], vec![path[1]]));
        net.run_audit(Cycles(2));
        // Next cycle it crosses router 1: a slot freed behind it (pair 0,
        // and the credit back to router 0's connection), a credit spent
        // ahead (pair 1), and router 2 accepts.
        net.step_routers(Cycles(3), &mut report);
        assert_eq!(marked(&net), (vec![], vec![], vec![path[0], path[1]], pairs.clone()));
        deliver(&mut net, Cycles(3));
        assert_eq!(marked(&net), (vec![], vec![], path.clone(), pairs));
        net.run_audit(Cycles(3));
        for t in 4..6 {
            net.step(Cycles(t));
        }

        // A tag written — here hop 1's own, again — is read by no law and
        // no stage: no mark, and no router woken.
        let awake: Vec<usize> = net.routers.awake().iter_set().collect();
        let hop = net.connection(id).expect("live").hops[1];
        net.routers.tag(hop.node, hop.local, Owner::Hop(id, 1).tag());
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
        let landing = net.connection(id).expect("live").hops[1];
        assert_eq!((landing.node, landing.local.vc.port), (peer, peer_port));
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
                assert_eq!(marked(&net).3, vec![(peer.index(), landing.local.vc)]);
                replayed_at = Some(t);
            }
            net.run_audit(now);
        }
        assert!(replayed_at.is_some_and(|t| t > 1), "replayed after the timeout: {replayed_at:?}");
        assert_eq!(net.stats.flits_delivered, 1, "the replay got through");
        let aud = net.auditor().expect("armed");
        assert!(aud.is_clean(), "{}", aud.summary());
    }

    /// The pass's work gate: on a seeded, audited churn tape over the 3×3
    /// mesh — a session admitted or closed every fourth cycle, each live one
    /// fed a flit every eighth, a best-effort packet every 64th — the
    /// ordinary passes visit exactly this many connections and evaluate
    /// exactly this many hop pairs. A change that widens what a pass visits
    /// moves the counts; a deliberate one re-pins them (the failure prints
    /// the new pair).
    #[test]
    fn an_audited_churn_pass_visits_what_was_marked() {
        const CYCLES: u64 = 3_000;
        VISITED.with(|v| v.set((0, 0)));
        let mut net = mesh_net();
        net.enable_audit(AuditConfig::default());
        let mut ctl = AdmissionController::new(AdmitPolicy::default());
        let mut rng = SeededRng::new(0xA0D17);
        let mut live = Vec::new();
        for t in 0..CYCLES {
            let now = Cycles(t);
            if t % 4 == 0 {
                if live.len() < 24 && rng.chance(0.6) {
                    let (src, dst) = (rng.index(9) as u16, rng.index(9) as u16);
                    let rate = Bandwidth::from_mbps(*rng.pick(&[16.0, 55.0, 120.0]));
                    if src != dst {
                        let verdict = ctl.request(&mut net, NodeId(src), NodeId(dst), QosClass::Cbr { rate });
                        live.extend(verdict.session());
                    }
                } else if !live.is_empty() {
                    ctl.close(&mut net, live.remove(rng.index(live.len())));
                }
            }
            if t % 8 == 0 {
                for (_, conn) in ctl.sessions().active() {
                    if net.can_inject(conn) {
                        net.inject(conn, now).expect("checked");
                    }
                }
            }
            if t % 64 == 0 {
                let (src, dst) = (NodeId(rng.index(9) as u16), NodeId(rng.index(9) as u16));
                net.send_packet(src, dst, FlitKind::BestEffort, now).expect("valid");
            }
            let report = net.step(now);
            let (_, preempted) = ctl.service(&mut net, &report, now);
            live.retain(|&id| preempted.iter().all(|p| p.session != id));
        }
        let aud = net.auditor().expect("armed");
        assert!(aud.is_clean(), "{}", aud.summary());
        assert_eq!(net.audit_sweep_misses(), 0);
        assert!(net.stats().flits_delivered > 1_000, "the tape carried traffic");
        let passes = CYCLES - CYCLES.div_ceil(SWEEP_PERIOD);
        let visited = VISITED.with(std::cell::Cell::get);
        assert_eq!(visited, (59_823, 16_970), "connections, pairs over {passes} passes");
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
