//! The inter-router wires: one flit cycle of latency, armed transient
//! faults, and the optional link-level retry layer.
//!
//! A stream flit crosses its wire inside one [`NetworkSim::step`]: `send`
//! (or the retry layer's pump) puts it on the wire and `pump_and_deliver`
//! takes everything off again before the step returns, so nothing is ever
//! on a stream wire *between* steps — an entry of the transfer list has no
//! arrival time to say otherwise. What does persist is the retry layer's
//! state: each directed link's backlog and replay buffer, and the ack/nack
//! feedback crossing the reverse channel.

use std::collections::{BTreeMap, VecDeque};

use mmr_core::flit::Flit;
use mmr_core::ids::{PortId, VcIndex, VcRef};
use mmr_core::llr::{LlrConfig, LlrFrame, LlrReceiver, LlrSender, LlrSignal, RxOutcome};
use mmr_core::table::set_ports;
use mmr_sim::Cycles;

use super::routers::RouterArray;
#[cfg(doc)]
use super::NetworkSim;
use super::{Endpoint, NetConnectionId, NetStats, Owner, TransientKind};
use crate::topology::NodeId;

/// A flit crossing one wire, as the link-level retry layer sees it: the
/// [`Flit`] plus the wire-local metadata that must survive a replay.
#[derive(Debug, Clone)]
struct WireFrame {
    /// Target VC on the receiving port.
    vc: VcIndex,
    /// The end-to-end connection the flit belonged to when it was queued —
    /// a frame is delivered only into that connection's next hop, so a
    /// replay that outlived its connection is discarded rather than
    /// injected into a reused VC.
    net_conn: Option<NetConnectionId>,
    /// Which hop of `net_conn` sent the frame: it names the next hop's tag
    /// the frame may land on. (Beside `vc` rather than inside the option,
    /// where it would grow every replay-buffer slot by a word.)
    hop: u16,
    flit: Flit,
}

impl LlrFrame for WireFrame {
    fn link_seq(&self) -> u32 {
        self.flit.link_seq
    }

    fn stamp(&mut self, seq: u32) {
        self.flit.link_seq = seq;
    }

    fn intact(&self) -> bool {
        self.flit.crc_ok()
    }
}

/// Both protocol ends of one directed wire (keyed by receiver endpoint).
#[derive(Debug)]
struct LlrLink {
    sender: LlrSender<WireFrame>,
    receiver: LlrReceiver,
}

impl LlrLink {
    fn new(cfg: LlrConfig) -> Self {
        LlrLink { sender: LlrSender::new(cfg), receiver: LlrReceiver::new() }
    }

    /// Frames matching `of` that were handed to the sender and the
    /// receiver has not delivered: backlog plus unacknowledged replay
    /// entries at or past the receiver's expected sequence number. Replay
    /// entries below it are already buffered downstream and must not be
    /// counted twice.
    fn undelivered(&self, of: impl Fn(&WireFrame) -> bool) -> usize {
        let expected = self.receiver.expected();
        self.sender.iter_backlog().filter(|f| of(f)).count()
            + self
                .sender
                .iter_unacked()
                .filter(|f| f.flit.link_seq.wrapping_sub(expected) < 1 << 31 && of(f))
                .count()
    }
}

/// Where a link table of `ports` slots per node keeps `(node, port)`.
fn slot(ports: usize, (node, port): Endpoint) -> usize {
    node.index() * ports + port.index()
}

#[derive(Debug, Default)]
pub(super) struct Wires {
    /// The retry layer's configuration, when enabled.
    llr: Option<LlrConfig>,
    /// One slot per `(node, port)` — `ports` to a node — for the protocol
    /// pair of the directed wire *received* there, created by the wire's
    /// first frame. Sized by `enable_llr`; empty while the layer is off.
    links: Vec<Option<LlrLink>>,
    ports: usize,
    /// Per node, bit `p` is set whenever the sender of `(node, p)` is not
    /// drained: set by `send`, cleared by the pump that finds it drained.
    live: Vec<u64>,
    /// In-flight ack/nack feedback: `(deliver_at, receiver key, signal)`.
    signals: Vec<(Cycles, Endpoint, LlrSignal)>,
    /// Armed transient faults, keyed by receiving endpoint; each entry
    /// strikes one arriving flit, in arming order.
    armed: BTreeMap<Endpoint, VecDeque<TransientKind>>,
    /// The frames crossing a wire during the current step, by receiving
    /// endpoint. Empty between steps; only its capacity persists.
    crossing: Vec<(Endpoint, WireFrame)>,
}

impl Wires {
    /// Turns the retry layer on over a fabric of `nodes` routers with
    /// `ports` ports each, with every link starting from scratch.
    pub(super) fn enable_llr(&mut self, cfg: LlrConfig, nodes: usize, ports: usize) {
        self.llr = Some(cfg);
        self.links = (0..nodes * ports).map(|_| None).collect();
        self.ports = ports;
        self.live = vec![0; nodes];
        self.signals.clear();
    }

    /// Links whose live bit is set: what the next pump visits.
    pub(super) fn live_links(&self) -> usize {
        self.live.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Whether every sender that is not drained has its live bit set.
    pub(super) fn live_covers_senders(&self) -> bool {
        self.links.iter().enumerate().all(|(at, link)| {
            let live = self.live[at / self.ports] >> (at % self.ports) & 1 == 1;
            live || link.as_ref().is_none_or(|l| l.sender.is_drained())
        })
    }

    /// Arms a transient fault against the next flit delivered into `at`.
    pub(super) fn arm(&mut self, at: Endpoint, kind: TransientKind) {
        self.armed.entry(at).or_default().push_back(kind);
    }

    /// Puts a flit on the wire into `to`. With the retry layer on it owns
    /// the wire: the frame waits in the sender until pumped (normally the
    /// same cycle) and stays replayable until acked.
    pub(super) fn send(
        &mut self,
        to: Endpoint,
        vc: VcIndex,
        sender: Option<(NetConnectionId, u16)>,
        flit: Flit,
    ) {
        let (net_conn, hop) = sender.map_or((None, 0), |(id, hop)| (Some(id), hop));
        let frame = WireFrame { vc, net_conn, hop, flit };
        match self.llr {
            Some(cfg) => {
                let link =
                    self.links[slot(self.ports, to)].get_or_insert_with(|| LlrLink::new(cfg));
                link.sender.enqueue(frame);
                self.live[to.0.index()] |= 1 << to.1.index();
            }
            // mmr-lint: allow(A-TRANS, reason="amortized: the transfer list keeps its capacity across cycles")
            None => self.crossing.push((to, frame)),
        }
    }

    /// Delivers link-level ack/nack feedback that finished crossing its
    /// reverse channel (generated during last cycle's wire deliveries).
    /// Retained in place: the signal queue keeps its capacity across
    /// cycles instead of reallocating a fresh buffer every step.
    pub(super) fn deliver_signals(&mut self, now: Cycles) {
        let Wires { links, signals, ports, .. } = self;
        signals.retain(|&(at, key, sig)| {
            if at > now {
                return true;
            }
            // Feedback can only shrink a replay buffer, so it never makes a
            // drained sender live.
            if let Some(link) = &mut links[slot(*ports, key)] {
                link.sender.on_signal(sig, now);
            }
            false
        });
    }

    /// Pumps each live link-level sender — one frame per directed wire per
    /// cycle; in the fault-free case the frame enqueued this cycle leaves
    /// at once, so baseline timing is identical with or without the retry
    /// layer — then takes every crossing frame off its wire and into the
    /// receiving router. Pumping a drained sender is a no-op, so only live
    /// links are visited; one holding an unacknowledged frame stays live,
    /// and its retransmission timer ticks whether or not any router has
    /// work. Nodes ascending, ports ascending: that is the delivery order.
    pub(super) fn pump_and_deliver(
        &mut self,
        now: Cycles,
        routers: &mut RouterArray,
        stats: &mut NetStats,
    ) {
        let arrive_at = now + Cycles(1);
        for (node, word) in self.live.iter_mut().enumerate() {
            for port in set_ports(*word) {
                let to = (NodeId(node as u16), PortId(port as u8));
                let link = self.links[slot(self.ports, to)].as_mut();
                let Some(link) = link.filter(|l| !l.sender.is_drained()) else {
                    *word &= !(1 << port);
                    continue;
                };
                if let Some((frame, is_retx)) = link.sender.pump(now) {
                    if is_retx {
                        stats.flits_retransmitted += 1;
                    }
                    // mmr-lint: allow(A-TRANS, reason="amortized: the transfer list keeps its capacity across cycles")
                    self.crossing.push((to, frame));
                }
            }
        }

        let mut crossing = std::mem::take(&mut self.crossing);
        for (key, mut frame) in crossing.drain(..) {
            match self.strike(key) {
                Some(TransientKind::Drop) => {
                    stats.flits_dropped += 1;
                    if self.llr.is_none() {
                        // No retry layer: the flit (and its credit) are
                        // gone for good.
                        stats.flits_lost += 1;
                    }
                    continue;
                }
                Some(TransientKind::Corrupt) => {
                    stats.flits_corrupted += 1;
                    // Deterministic bit choice: derived from the
                    // corruption count, never from wall clock.
                    let bit = (stats.flits_corrupted as u32).wrapping_mul(13) % 64;
                    frame.flit.corrupt_payload_bit(bit);
                }
                None => {}
            }

            // The link-level receiver checks CRC + sequence; only clean,
            // in-order frames pass through. Feedback crosses the reverse
            // channel and reaches the sender next cycle.
            if self.llr.is_some() {
                // The pump took the frame out of this very link.
                let Some(link) = &mut self.links[slot(self.ports, key)] else { continue };
                let (outcome, signal) = link.receiver.receive(frame);
                if let Some(sig) = signal {
                    // mmr-lint: allow(A-TRANS, reason="amortized: the signal queue keeps its capacity across cycles (retain-based drain)")
                    self.signals.push((arrive_at, key, sig));
                }
                frame = match outcome {
                    RxOutcome::Deliver(frame) => frame,
                    RxOutcome::Discard(_) => continue,
                };
            }

            let (node, port) = key;
            let Some(state) =
                routers.get(node).connection_by_input_vc(VcRef { port, vc: frame.vc })
            else {
                // The VC mapping disappeared mid-flight (teardown raced the
                // wire). Under faults this is survivable, not fatal.
                stats.flits_lost += 1;
                continue;
            };
            // Stale-delivery guard: a replayed frame can outlive its
            // connection (recovery tears the circuit down while copies sit
            // in the replay buffer), and the VC may since have been
            // re-leased. Session ids are never reused, so only the
            // session's own next hop carries the tag the frame expects.
            let local = state.handle();
            if frame.net_conn.is_some_and(|id| state.tag != Owner::Hop(id, frame.hop + 1).tag()) {
                stats.flits_lost += 1;
                continue;
            }
            // An arriving flit is the canonical wake event: the router has
            // buffered work for next cycle whether or not accept succeeds.
            if routers.get_mut_for(node, local).accept(local, frame.flit, arrive_at).is_err() {
                stats.flits_lost += 1;
            }
            // Usually the cycle the frame was sent, but a replay lands later.
            if frame.net_conn.is_some() {
                routers.mark_pair(node, VcRef { port, vc: frame.vc });
            }
        }
        self.crossing = crossing;
    }

    /// The armed transient that strikes the next flit into `at`, if any.
    fn strike(&mut self, at: Endpoint) -> Option<TransientKind> {
        let queue = self.armed.get_mut(&at)?;
        let kind = queue.pop_front();
        if queue.is_empty() {
            self.armed.remove(&at);
        }
        kind
    }

    /// Frames the retry layer still owes the receiver at `key` on behalf
    /// of `conn` — the wire's term of the auditor's credit-conservation
    /// equation.
    pub(super) fn owed_to(&self, key: Endpoint, conn: NetConnectionId) -> usize {
        let link = self.links.get(slot(self.ports, key)).and_then(Option::as_ref);
        link.map_or(0, |link| link.undelivered(|f| f.net_conn == Some(conn)))
    }

    /// Cuts the wire between `a` and `b`, in both directions, and returns
    /// the flits lost with it. The retry state dies with the wire: frames
    /// the receiver never delivered are lost, and a repaired wire starts a
    /// fresh protocol instance at sequence 0 on both sides. Armed
    /// transients on the wire are discarded too. Faults strike between
    /// steps, when nothing is mid-crossing.
    pub(super) fn sever(&mut self, a: Endpoint, b: Endpoint) -> u64 {
        debug_assert!(self.crossing.is_empty(), "stream wires are empty between steps");
        let mut lost = 0;
        for key in [a, b] {
            if let Some(link) = self.links.get_mut(slot(self.ports, key)).and_then(Option::take) {
                lost += link.undelivered(|_| true) as u64;
                self.live[key.0.index()] &= !(1 << key.1.index());
            }
            self.signals.retain(|(_, k, _)| *k != key);
            self.armed.remove(&key);
        }
        lost
    }
}
