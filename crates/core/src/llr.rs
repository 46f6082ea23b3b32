//! Link-level retransmission (LLR): per-flit CRC checking with a bounded
//! go-back-N replay buffer.
//!
//! The paper's phit pipeline (§3.1–§3.2) assumes every flit that crosses a
//! wire arrives intact. Real LAN serial links — the MMR's stated deployment
//! target — flip bits, and wormhole/VCT practice puts the cheapest recovery
//! point at the link: a small sender-side replay buffer plus a receiver that
//! CRC-checks and sequence-checks every arriving flit, rejecting damage and
//! asking the sender to rewind. This module implements that protocol as a
//! pair of pure state machines:
//!
//! * [`LlrSender`] stamps each outgoing frame with a per-link sequence
//!   number, keeps every unacknowledged frame in a bounded replay buffer,
//!   and on a NACK (or a tail-loss timeout) rewinds and retransmits
//!   go-back-N style. New frames that arrive while the window is full wait
//!   in a FIFO backlog, preserving order.
//! * [`LlrReceiver`] accepts exactly the next expected sequence number with
//!   a valid CRC; anything corrupted, duplicated, or out of order is
//!   discarded on the spot — so the downstream router only ever sees each
//!   flit once, in order — and acknowledgment / negative-acknowledgment
//!   [`LlrSignal`]s flow back to drive the sender.
//!
//! The machines are generic over [`LlrFrame`] so the multi-router simulator
//! can carry per-wire metadata (the target virtual channel) alongside the
//! [`Flit`] without this module knowing about it. Both ends expose
//! introspection used by the cycle-accurate invariant auditor
//! ([`crate::audit`]) to prove flit conservation across a lossy wire.

use std::collections::VecDeque;

use mmr_sim::Cycles;

use crate::flit::Flit;

/// A frame the LLR machines can stamp, check and replay.
pub trait LlrFrame: Clone {
    /// The per-link sequence number currently stamped on the frame.
    fn link_seq(&self) -> u32;
    /// Stamps the per-link sequence number.
    fn stamp(&mut self, seq: u32);
    /// Whether the frame's integrity check (CRC) passes.
    fn intact(&self) -> bool;
}

impl LlrFrame for Flit {
    fn link_seq(&self) -> u32 {
        self.link_seq
    }

    fn stamp(&mut self, seq: u32) {
        self.link_seq = seq;
    }

    fn intact(&self) -> bool {
        self.crc_ok()
    }
}

/// `a <= b` in 32-bit wrapping sequence space.
fn seq_le(a: u32, b: u32) -> bool {
    b.wrapping_sub(a) < 1 << 31
}

/// `a < b` in 32-bit wrapping sequence space.
fn seq_lt(a: u32, b: u32) -> bool {
    a != b && seq_le(a, b)
}

/// LLR tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlrConfig {
    /// Replay-buffer capacity in frames (the go-back-N window). Frames
    /// beyond the window wait in the sender backlog.
    pub window: usize,
    /// Cycles without acknowledgment progress before the sender assumes
    /// tail loss and retransmits every unacknowledged frame.
    pub timeout: Cycles,
}

impl Default for LlrConfig {
    fn default() -> Self {
        LlrConfig { window: 32, timeout: Cycles(64) }
    }
}

impl LlrConfig {
    /// For tests: overrides the replay window.
    #[doc(hidden)]
    pub fn window(mut self, window: usize) -> Self {
        // mmr-lint: allow(P-PANIC, reason="construction-time config validation, not on the flit-cycle path")
        assert!(window > 0, "LLR window must hold at least one frame");
        self.window = window;
        self
    }

    /// For tests: overrides the tail-loss timeout.
    #[doc(hidden)]
    pub fn timeout(mut self, timeout: Cycles) -> Self {
        self.timeout = timeout;
        self
    }
}

/// Feedback from receiver to sender (modelled as out-of-band and reliable;
/// the real MMR would piggyback these on reverse-channel phits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlrSignal {
    /// Every frame up to and including `up_to` was delivered.
    Ack {
        /// Highest delivered per-link sequence number.
        up_to: u32,
    },
    /// Something from `resume_from` onward was corrupted or lost: rewind and
    /// retransmit from there (implicitly acknowledges everything before it).
    Nack {
        /// First sequence number the receiver still needs.
        resume_from: u32,
    },
}

/// Why a received frame was not delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxDiscard {
    /// CRC check failed — the frame was damaged on the wire.
    Corrupt,
    /// Sequence gap — an earlier frame was lost; this one is discarded so
    /// order is preserved when the replay arrives.
    Gap,
    /// Already delivered (a go-back-N replay overshoot).
    Duplicate,
}

/// The receiver's verdict on one arriving frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RxOutcome<F> {
    /// In-order, intact: hand the frame to the router.
    Deliver(F),
    /// Drop the frame.
    Discard(RxDiscard),
}

/// Sender-side lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlrSendStats {
    /// Frames stamped and sent for the first time.
    pub sent: u64,
    /// Frames retransmitted (go-back-N rewinds and timeouts).
    pub retransmitted: u64,
    /// Tail-loss timeouts fired.
    pub timeouts: u64,
    /// High-water mark of the replay buffer.
    pub max_replay: usize,
    /// High-water mark of the backlog.
    pub max_backlog: usize,
}

/// Receiver-side lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlrRecvStats {
    /// Frames delivered in order with a valid CRC.
    pub delivered: u64,
    /// Frames rejected by the CRC check.
    pub crc_rejected: u64,
    /// Frames discarded for a sequence gap.
    pub gap_rejected: u64,
    /// Duplicate frames discarded.
    pub duplicates: u64,
}

/// The sending end of one directed link.
#[derive(Debug, Clone, PartialEq)]
pub struct LlrSender<F> {
    cfg: LlrConfig,
    /// Sequence number of the next first-time transmission.
    next_seq: u32,
    /// Sequence number of `replay.front()`.
    base_seq: u32,
    /// Stamped, unacknowledged frames, oldest first. Never exceeds
    /// `cfg.window`.
    replay: VecDeque<F>,
    /// Frames waiting for window room, unstamped, oldest first.
    backlog: VecDeque<F>,
    /// Replay cursor: index into `replay` of the next retransmission, when a
    /// rewind is in progress.
    cursor: Option<usize>,
    /// Last cycle an acknowledgment made progress (timeout reference).
    last_progress: Cycles,
    stats: LlrSendStats,
}

impl<F: LlrFrame> LlrSender<F> {
    /// A fresh sender at sequence 0.
    pub fn new(cfg: LlrConfig) -> Self {
        LlrSender {
            cfg,
            next_seq: 0,
            base_seq: 0,
            // mmr-lint: allow(A-TRANS, reason="link construction happens at build time and on node repair (control plane), not per flit")
            replay: VecDeque::with_capacity(cfg.window),
            backlog: VecDeque::new(), // mmr-lint: allow(A-TRANS, reason="link construction happens at build time and on node repair (control plane), not per flit")
            cursor: None,
            last_progress: Cycles::ZERO,
            stats: LlrSendStats::default(),
        }
    }

    /// Queues a frame for transmission. The frame is stamped when it first
    /// reaches the wire (see [`LlrSender::pump`]).
    pub fn enqueue(&mut self, frame: F) {
        self.backlog.push_back(frame);
        self.stats.max_backlog = self.stats.max_backlog.max(self.backlog.len());
    }

    /// Produces the one frame that crosses the wire this cycle, if any:
    /// retransmissions first (rewind in progress), then the next backlog
    /// frame if the window has room. The boolean is `true` for a
    /// retransmission. Also fires the tail-loss timeout.
    pub fn pump(&mut self, now: Cycles) -> Option<(F, bool)> {
        // Tail loss: unacknowledged frames, no rewind in progress, and no
        // ack progress for a full timeout => replay everything unacked.
        if self.cursor.is_none()
            && !self.replay.is_empty()
            && now.since(self.last_progress) > self.cfg.timeout
        {
            self.cursor = Some(0);
            self.stats.timeouts += 1;
            self.last_progress = now;
        }
        if let Some(c) = self.cursor {
            if let Some(frame) = self.replay.get(c).cloned() {
                self.cursor = if c + 1 < self.replay.len() { Some(c + 1) } else { None };
                self.stats.retransmitted += 1;
                return Some((frame, true));
            }
            self.cursor = None;
        }
        if self.replay.len() < self.cfg.window {
            if let Some(mut frame) = self.backlog.pop_front() {
                frame.stamp(self.next_seq);
                self.next_seq = self.next_seq.wrapping_add(1);
                self.replay.push_back(frame.clone());
                self.stats.max_replay = self.stats.max_replay.max(self.replay.len());
                self.stats.sent += 1;
                if self.replay.len() == 1 {
                    // First outstanding frame: restart the timeout clock.
                    self.last_progress = now;
                }
                return Some((frame, false));
            }
        }
        None
    }

    /// Applies receiver feedback.
    pub fn on_signal(&mut self, signal: LlrSignal, now: Cycles) {
        match signal {
            LlrSignal::Ack { up_to } => {
                let popped = self.release_through(up_to);
                if popped > 0 {
                    self.last_progress = now;
                }
            }
            LlrSignal::Nack { resume_from } => {
                // A NACK for n implicitly acknowledges everything before n.
                if resume_from != 0 {
                    self.release_through(resume_from.wrapping_sub(1));
                }
                if !self.replay.is_empty() {
                    self.cursor = Some(0);
                }
                self.last_progress = now;
            }
        }
    }

    /// Drops acknowledged frames `..= up_to` from the replay buffer and
    /// returns how many were released.
    fn release_through(&mut self, up_to: u32) -> usize {
        let mut popped = 0;
        while !self.replay.is_empty() && seq_le(self.base_seq, up_to) {
            self.replay.pop_front();
            self.base_seq = self.base_seq.wrapping_add(1);
            popped += 1;
        }
        if popped > 0 {
            self.cursor = match self.cursor {
                Some(c) if c > popped => Some(c - popped),
                Some(_) => if self.replay.is_empty() { None } else { Some(0) },
                None => None,
            };
        }
        popped
    }

    /// For tests: frames stamped but not yet acknowledged.
    #[doc(hidden)]
    pub fn unacked(&self) -> usize {
        self.replay.len()
    }

    /// Whether every frame handed to the sender has been acknowledged.
    pub fn is_drained(&self) -> bool {
        self.replay.is_empty() && self.backlog.is_empty()
    }

    /// The unacknowledged frames, oldest first (auditor introspection).
    pub fn iter_unacked(&self) -> impl Iterator<Item = &F> {
        self.replay.iter()
    }

    /// The backlog frames, oldest first (auditor introspection).
    pub fn iter_backlog(&self) -> impl Iterator<Item = &F> {
        self.backlog.iter()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LlrSendStats {
        self.stats
    }
}

/// The receiving end of one directed link.
#[derive(Debug, Clone)]
pub struct LlrReceiver {
    expected: u32,
    /// Sequence already NACKed without progress since — suppresses NACK
    /// storms while the rewind is in flight.
    nacked_for: Option<u32>,
    stats: LlrRecvStats,
}

impl Default for LlrReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl LlrReceiver {
    /// A fresh receiver expecting sequence 0.
    pub fn new() -> Self {
        LlrReceiver { expected: 0, nacked_for: None, stats: LlrRecvStats::default() }
    }

    /// The next sequence number the receiver will deliver (auditor
    /// introspection: replay frames at or past this are still undelivered).
    pub fn expected(&self) -> u32 {
        self.expected
    }

    /// Judges one arriving frame: deliver it in order, or discard it and
    /// (maybe) ask the sender to rewind.
    pub fn receive<F: LlrFrame>(&mut self, frame: F) -> (RxOutcome<F>, Option<LlrSignal>) {
        if !frame.intact() {
            self.stats.crc_rejected += 1;
            return (RxOutcome::Discard(RxDiscard::Corrupt), self.nack_once());
        }
        let seq = frame.link_seq();
        if seq == self.expected {
            self.expected = self.expected.wrapping_add(1);
            self.nacked_for = None;
            self.stats.delivered += 1;
            (RxOutcome::Deliver(frame), Some(LlrSignal::Ack { up_to: seq }))
        } else if seq_lt(seq, self.expected) {
            self.stats.duplicates += 1;
            // Refresh the cumulative ack so the sender prunes promptly.
            (
                RxOutcome::Discard(RxDiscard::Duplicate),
                Some(LlrSignal::Ack { up_to: self.expected.wrapping_sub(1) }),
            )
        } else {
            self.stats.gap_rejected += 1;
            (RxOutcome::Discard(RxDiscard::Gap), self.nack_once())
        }
    }

    /// One NACK per stall: repeats only after delivery progress.
    fn nack_once(&mut self) -> Option<LlrSignal> {
        if self.nacked_for == Some(self.expected) {
            return None;
        }
        self.nacked_for = Some(self.expected);
        Some(LlrSignal::Nack { resume_from: self.expected })
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LlrRecvStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ConnectionId;

    fn flit(seq: u64) -> Flit {
        Flit::data(ConnectionId(1), seq, Cycles(0))
    }

    /// Drives `n` cycles of a perfect wire between `tx` and `rx`, returning
    /// delivered flits.
    fn run_clean(tx: &mut LlrSender<Flit>, rx: &mut LlrReceiver, from: u64, n: u64) -> Vec<Flit> {
        let mut out = Vec::new();
        for t in from..from + n {
            if let Some((frame, _)) = tx.pump(Cycles(t)) {
                let (verdict, signal) = rx.receive(frame);
                if let RxOutcome::Deliver(f) = verdict {
                    out.push(f);
                }
                if let Some(s) = signal {
                    tx.on_signal(s, Cycles(t));
                }
            }
        }
        out
    }

    #[test]
    fn clean_wire_delivers_in_order_and_drains() {
        let mut tx = LlrSender::new(LlrConfig::default());
        let mut rx = LlrReceiver::new();
        for i in 0..10 {
            tx.enqueue(flit(i));
        }
        let got = run_clean(&mut tx, &mut rx, 0, 12);
        assert_eq!(got.len(), 10);
        assert!(got.windows(2).all(|w| w[0].link_seq + 1 == w[1].link_seq));
        assert!(tx.is_drained(), "acks released every frame");
        assert_eq!(tx.stats().retransmitted, 0);
    }

    #[test]
    fn dropped_frame_is_replayed_via_nack() {
        let mut tx = LlrSender::new(LlrConfig::default());
        let mut rx = LlrReceiver::new();
        for i in 0..3 {
            tx.enqueue(flit(i));
        }
        // Frame 0 is dropped on the wire.
        let (lost, _) = tx.pump(Cycles(0)).expect("frame 0");
        assert_eq!(lost.link_seq, 0);
        // Frame 1 arrives, exposing the gap.
        let (f1, _) = tx.pump(Cycles(1)).expect("frame 1");
        let (verdict, signal) = rx.receive(f1);
        assert_eq!(verdict, RxOutcome::Discard(RxDiscard::Gap));
        tx.on_signal(signal.expect("nack"), Cycles(1));
        // The rewind replays 0, 1, 2 in order.
        let got = run_clean(&mut tx, &mut rx, 2, 6);
        assert_eq!(got.iter().map(|f| f.link_seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(tx.is_drained());
        assert!(tx.stats().retransmitted >= 2);
    }

    #[test]
    fn corrupt_frame_is_rejected_and_replayed() {
        let mut tx = LlrSender::new(LlrConfig::default());
        let mut rx = LlrReceiver::new();
        tx.enqueue(flit(0));
        let (mut frame, _) = tx.pump(Cycles(0)).expect("frame");
        frame.corrupt_payload_bit(7);
        let (verdict, signal) = rx.receive(frame);
        assert_eq!(verdict, RxOutcome::Discard(RxDiscard::Corrupt));
        tx.on_signal(signal.expect("nack"), Cycles(0));
        let got = run_clean(&mut tx, &mut rx, 1, 2);
        assert_eq!(got.len(), 1, "the undamaged replay copy is delivered");
        assert!(got[0].crc_ok());
        assert_eq!(rx.stats().crc_rejected, 1);
    }

    #[test]
    fn tail_loss_recovers_by_timeout() {
        let cfg = LlrConfig::default().timeout(Cycles(8));
        let mut tx = LlrSender::new(cfg);
        let mut rx = LlrReceiver::new();
        tx.enqueue(flit(0));
        let _lost = tx.pump(Cycles(0)).expect("frame 0 dropped on the wire");
        // Nothing else to send: only the timeout can recover the tail.
        let got = run_clean(&mut tx, &mut rx, 1, 20);
        assert_eq!(got.len(), 1);
        assert_eq!(tx.stats().timeouts, 1);
        assert!(tx.is_drained());
    }

    /// What lets the network pump only the links holding a frame: pumping a
    /// drained sender returns nothing and changes nothing — no timer, no
    /// cursor, no counter — under any interleaving of traffic, loss, damage
    /// and stale feedback. A drained sender never has a rewind in progress.
    #[test]
    fn a_drained_sender_pumps_nothing() {
        let mut rng = mmr_sim::SeededRng::new(0x11A);
        for window in [1, 2, 8] {
            let mut tx = LlrSender::new(LlrConfig::default().window(window).timeout(Cycles(6)));
            let mut rx = LlrReceiver::new();
            let mut drained_pumps = 0;
            for t in 0..6_000u64 {
                let now = Cycles(t);
                match rng.index(5) {
                    0 => tx.enqueue(flit(t)),
                    1..=3 if tx.is_drained() => {
                        let before = tx.clone();
                        assert!(tx.pump(now).is_none(), "t={t}");
                        assert_eq!(tx, before, "t={t}");
                        drained_pumps += 1;
                    }
                    1..=3 => {
                        let Some((mut frame, _)) = tx.pump(now) else { continue };
                        match rng.index(6) {
                            0 => continue, // lost on the wire
                            1 => frame.corrupt_payload_bit(3),
                            _ => {}
                        }
                        if let (_, Some(signal)) = rx.receive(frame) {
                            tx.on_signal(signal, now);
                        }
                    }
                    // Feedback that is late, or arrives twice.
                    _ => {
                        let seq = rx.expected().wrapping_sub(rng.index(3) as u32);
                        let signal = if rng.index(2) == 0 {
                            LlrSignal::Ack { up_to: seq.wrapping_sub(1) }
                        } else {
                            LlrSignal::Nack { resume_from: seq }
                        };
                        tx.on_signal(signal, now);
                    }
                }
                assert!(!tx.is_drained() || tx.cursor.is_none(), "t={t}: rewind on a drained sender");
            }
            assert!(drained_pumps > 100 && tx.stats().timeouts > 0 && tx.stats().retransmitted > 0);
        }
    }

    #[test]
    fn window_backpressure_holds_frames_in_backlog() {
        let cfg = LlrConfig::default().window(2).timeout(Cycles(1_000));
        let mut tx = LlrSender::new(cfg);
        for i in 0..5 {
            tx.enqueue(flit(i));
        }
        // No acks ever arrive: only `window` frames reach the wire.
        let mut sent = 0;
        for t in 0..10u64 {
            if tx.pump(Cycles(t)).is_some() {
                sent += 1;
            }
        }
        assert_eq!(sent, 2);
        assert_eq!(tx.unacked(), 2);
        // Acking frees the window for the backlog.
        tx.on_signal(LlrSignal::Ack { up_to: 1 }, Cycles(10));
        assert_eq!(tx.unacked(), 0);
        assert!(tx.pump(Cycles(11)).is_some());
    }

    #[test]
    fn duplicate_replays_are_discarded_with_a_fresh_ack() {
        let mut tx = LlrSender::new(LlrConfig::default());
        let mut rx = LlrReceiver::new();
        tx.enqueue(flit(0));
        let (frame, _) = tx.pump(Cycles(0)).expect("frame");
        let (v1, s1) = rx.receive(frame);
        assert!(matches!(v1, RxOutcome::Deliver(_)));
        tx.on_signal(s1.expect("ack"), Cycles(0));
        // The same frame arrives again (stale retransmission).
        let (v2, s2) = rx.receive(frame);
        assert_eq!(v2, RxOutcome::Discard(RxDiscard::Duplicate));
        assert_eq!(s2, Some(LlrSignal::Ack { up_to: 0 }));
        assert_eq!(rx.stats().duplicates, 1);
    }

    #[test]
    fn nack_storms_are_suppressed_until_progress() {
        let mut rx = LlrReceiver::new();
        // Two consecutive gap frames: only the first draws a NACK.
        let mut a = flit(0);
        a.stamp(5);
        let mut b = flit(1);
        b.stamp(6);
        let (_, s1) = rx.receive(a);
        assert_eq!(s1, Some(LlrSignal::Nack { resume_from: 0 }));
        let (_, s2) = rx.receive(b);
        assert_eq!(s2, None, "second NACK suppressed while the rewind is in flight");
    }
}
