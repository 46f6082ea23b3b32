//! Phit-level link pipelining, checked against §3.2's buffer-sizing rule.
//!
//! §3.1–§3.2: "Latency can be reduced by pipelining flit transmission at a
//! finer granularity … As serial links are frequent in LAN environments, we
//! assume that pipelining is performed at the word level, where word size is
//! equal to the width of the router internal data paths." The phit buffers
//! in front of the VCM are "deep enough to store all the phits that arrive
//! during a decoding period (i.e., during the computation of the memory
//! address to store those phits)", and they also provide the low-latency
//! VCT cut-through path.
//!
//! The flit-cycle simulator abstracts this pipeline (a flit crosses a link
//! in one flit cycle); this file models it explicitly at phit granularity
//! so the §3.2 sizing rules can be checked: [`PhitLink`] streams a flit's
//! phits across a link into a [`PhitBuffer`] while a decoder drains it after
//! a configurable decode period, and [`PhitTimingModel`] gives the analytic
//! buffer-depth and cut-through-latency formulas the architecture section
//! reasons with.

use std::collections::VecDeque;

use mmr_core::{ConnectionId, Flit};
use mmr_sim::Cycles;

/// A phit: the unit transferred across the link (or internal datapath) per
/// clock. Only its bookkeeping matters to the simulation; the payload is the
/// owning flit's identity plus the phit's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Phit {
    /// The flit this phit belongs to.
    flit: Flit,
    /// Position of this phit within the flit, `0..phits_per_flit`.
    position: u16,
}

/// A small FIFO of phits in front of the virtual channel memory.
///
/// Its capacity is "deep enough to store all the phits that arrive during a
/// decoding period" — i.e. while the VCM address is being computed. It also
/// provides the low-latency path for VCT cut-through (§3.2).
#[derive(Debug, Clone)]
struct PhitBuffer {
    slots: VecDeque<Phit>,
    capacity: usize,
}

impl PhitBuffer {
    /// Creates a buffer holding up to `capacity` phits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "phit buffer needs at least one slot");
        PhitBuffer { slots: VecDeque::with_capacity(capacity), capacity }
    }

    /// Current occupancy in phits.
    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the buffer is empty.
    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether another phit can be accepted.
    fn has_room(&self) -> bool {
        self.slots.len() < self.capacity
    }

    /// Accepts a phit from the link, or returns it back if the buffer is
    /// full — the link-level flow control must have prevented this, so
    /// callers treat it as a protocol violation.
    fn push(&mut self, phit: Phit) -> Result<(), Phit> {
        if self.has_room() {
            self.slots.push_back(phit);
            Ok(())
        } else {
            Err(phit)
        }
    }

    /// Removes the oldest phit (toward the VCM or the crossbar).
    fn pop(&mut self) -> Option<Phit> {
        self.slots.pop_front()
    }

    /// Peeks at the oldest phit without removing it.
    fn peek(&self) -> Option<&Phit> {
        self.slots.front()
    }
}

/// Analytic sizing rules for the phit pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PhitTimingModel {
    /// Phits per flit (flit bits / datapath width).
    phits_per_flit: u16,
    /// Link clocks to deliver one phit (1 for a word-wide link running at
    /// the router clock; >1 for narrower/slower links).
    clocks_per_phit: u16,
    /// Clocks to decode a control word and compute the VCM write address
    /// (the "decoding period").
    decode_clocks: u16,
}

impl PhitTimingModel {
    /// The paper's running example: 128-bit flits over a 32-bit datapath.
    fn paper_default() -> Self {
        PhitTimingModel { phits_per_flit: 4, clocks_per_phit: 1, decode_clocks: 2 }
    }

    /// Minimum phit-buffer depth (§3.2): all phits arriving during the
    /// decode period must be held.
    fn required_buffer_depth(&self) -> usize {
        usize::from(self.decode_clocks).div_ceil(usize::from(self.clocks_per_phit)).max(1)
    }

    /// Clocks from the first phit of a flit arriving to the last phit
    /// arriving (the serialization latency the flit-level model folds into
    /// one flit cycle).
    fn serialization_clocks(&self) -> u32 {
        u32::from(self.phits_per_flit) * u32::from(self.clocks_per_phit)
    }

    /// Cut-through latency in clocks for a VCT packet when the output is
    /// free: decode the header, then stream phits straight through — the
    /// tail phit leaves `decode + serialization` clocks after the head phit
    /// arrived (§3.2: "Phit buffers also allow low-latency routing of short
    /// messages using VCT, provided that there is no contention").
    fn cut_through_clocks(&self) -> u32 {
        u32::from(self.decode_clocks) + self.serialization_clocks()
    }

    /// Store-and-forward latency in clocks for comparison: the whole flit
    /// is buffered in the VCM, then read back out.
    fn store_and_forward_clocks(&self) -> u32 {
        u32::from(self.decode_clocks) + 2 * self.serialization_clocks()
    }
}

/// What the link delivered this clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhitEvent {
    /// Nothing arrived (link idle or mid-phit).
    Idle,
    /// One phit arrived into the receive buffer.
    PhitArrived,
    /// The arriving phit completed a flit (it is the tail phit).
    FlitCompleted(Flit),
}

/// A phit-granular link: serializes queued flits into phits, delivers one
/// phit every `clocks_per_phit`, and drains the receive buffer through a
/// decoder with the configured decode period.
#[derive(Debug, Clone)]
struct PhitLink {
    model: PhitTimingModel,
    /// Flits waiting to be serialized.
    tx_queue: VecDeque<Flit>,
    /// Position within the flit currently being serialized.
    tx_position: u16,
    /// Clocks until the next phit completes transfer.
    tx_countdown: u16,
    /// The receive-side phit buffer.
    rx_buffer: PhitBuffer,
    /// Clocks of decode work remaining before the buffer head can drain.
    decode_countdown: u16,
    /// Phits dropped because the receive buffer overflowed (a sizing
    /// violation; zero when `required_buffer_depth` is respected).
    overflows: u64,
    delivered_flits: u64,
}

impl PhitLink {
    /// Creates a link with a receive buffer of `rx_depth` phits.
    fn new(model: PhitTimingModel, rx_depth: usize) -> Self {
        PhitLink {
            model,
            tx_queue: VecDeque::new(),
            tx_position: 0,
            tx_countdown: model.clocks_per_phit,
            rx_buffer: PhitBuffer::new(rx_depth),
            decode_countdown: model.decode_clocks,
            overflows: 0,
            delivered_flits: 0,
        }
    }

    /// A link sized exactly per §3.2's rule.
    fn sized_for(model: PhitTimingModel) -> Self {
        Self::new(model, model.required_buffer_depth())
    }

    /// Queues a flit for transmission.
    fn send(&mut self, flit: Flit) {
        self.tx_queue.push_back(flit);
    }

    /// Whether the transmit side has nothing left to send.
    fn idle(&self) -> bool {
        self.tx_queue.is_empty() && self.rx_buffer.is_empty()
    }

    /// Advances one link clock: possibly lands a phit at the receiver and
    /// drains the decoder.
    fn clock(&mut self) -> PhitEvent {
        // Decoder drains one buffered phit per clock once the decode period
        // for the buffer head has elapsed.
        if !self.rx_buffer.is_empty() {
            if self.decode_countdown > 0 {
                self.decode_countdown -= 1;
            }
            if self.decode_countdown == 0 {
                self.rx_buffer.pop();
            }
        } else {
            self.decode_countdown = self.model.decode_clocks;
        }

        // Transmit side: deliver the next phit when its transfer completes.
        let Some(&flit) = self.tx_queue.front() else {
            return PhitEvent::Idle;
        };
        self.tx_countdown -= 1;
        if self.tx_countdown > 0 {
            return PhitEvent::Idle;
        }
        self.tx_countdown = self.model.clocks_per_phit;

        let phit = Phit { flit, position: self.tx_position };
        if self.rx_buffer.push(phit).is_err() {
            self.overflows += 1;
            // The phit is retried next clock; real hardware would assert
            // link-level backpressure here.
            self.tx_countdown = 1;
            return PhitEvent::Idle;
        }
        self.tx_position += 1;
        if self.tx_position == self.model.phits_per_flit {
            self.tx_position = 0;
            self.tx_queue.pop_front();
            self.delivered_flits += 1;
            PhitEvent::FlitCompleted(flit)
        } else {
            PhitEvent::PhitArrived
        }
    }
}

fn flit(seq: u64) -> Flit {
    Flit::data(ConnectionId(1), seq, Cycles(0))
}

#[test]
fn phit_buffer_is_fifo() {
    let mut b = PhitBuffer::new(4);
    for i in 0..4 {
        b.push(Phit { flit: flit(0), position: i }).expect("room");
    }
    assert!(!b.has_room());
    assert_eq!(b.peek().map(|p| p.position), Some(0));
    assert_eq!(b.pop().map(|p| p.position), Some(0));
    assert_eq!(b.pop().map(|p| p.position), Some(1));
    assert_eq!(b.len(), 2);
}

#[test]
fn phit_buffer_rejects_overflow() {
    let mut b = PhitBuffer::new(1);
    b.push(Phit { flit: flit(0), position: 0 }).expect("room");
    let spilled = b.push(Phit { flit: flit(0), position: 1 });
    assert_eq!(spilled.unwrap_err().position, 1);
}

#[test]
#[should_panic(expected = "at least one slot")]
fn zero_capacity_panics() {
    let _ = PhitBuffer::new(0);
}

#[test]
fn sizing_rule_matches_decode_period() {
    let m = PhitTimingModel::paper_default();
    assert_eq!(m.required_buffer_depth(), 2, "2 decode clocks at 1 clock/phit");
    let slow = PhitTimingModel { clocks_per_phit: 2, ..m };
    assert_eq!(slow.required_buffer_depth(), 1, "slower link needs less buffering");
    let deep = PhitTimingModel { decode_clocks: 7, ..m };
    assert_eq!(deep.required_buffer_depth(), 7);
}

#[test]
fn cut_through_beats_store_and_forward() {
    let m = PhitTimingModel::paper_default();
    assert!(m.cut_through_clocks() < m.store_and_forward_clocks());
    // 128-bit flit over 32-bit path: 4 phits; CT = 2 + 4 = 6 clocks,
    // SAF = 2 + 8 = 10 clocks.
    assert_eq!(m.cut_through_clocks(), 6);
    assert_eq!(m.store_and_forward_clocks(), 10);
}

#[test]
fn correctly_sized_link_never_overflows() {
    let m = PhitTimingModel::paper_default();
    let mut link = PhitLink::sized_for(m);
    for i in 0..50 {
        link.send(flit(i));
    }
    let mut clocks = 0;
    while !link.idle() && clocks < 10_000 {
        link.clock();
        clocks += 1;
    }
    assert_eq!(link.delivered_flits, 50);
    assert_eq!(link.overflows, 0, "the §3.2 sizing rule holds");
}

#[test]
fn undersized_buffer_overflows_under_load() {
    // One-phit buffer with a 4-clock decode period: arrivals outpace
    // the decoder and the link must stall.
    let m = PhitTimingModel { phits_per_flit: 4, clocks_per_phit: 1, decode_clocks: 4 };
    let mut link = PhitLink::new(m, 1);
    for i in 0..10 {
        link.send(flit(i));
    }
    for _ in 0..200 {
        link.clock();
    }
    assert!(link.overflows > 0, "undersized buffers backpressure");
}

#[test]
fn flit_completion_is_signalled_on_tail_phit() {
    let m = PhitTimingModel::paper_default();
    let mut link = PhitLink::new(m, 8);
    link.send(flit(7));
    let mut completed = None;
    for _ in 0..20 {
        if let PhitEvent::FlitCompleted(f) = link.clock() {
            completed = Some(f);
            break;
        }
    }
    assert_eq!(completed.map(|f| f.seq), Some(7));
}

#[test]
fn serialization_takes_phits_per_flit_clocks() {
    let m = PhitTimingModel::paper_default();
    let mut link = PhitLink::new(m, 8);
    link.send(flit(0));
    let mut clocks = 0;
    loop {
        clocks += 1;
        if matches!(link.clock(), PhitEvent::FlitCompleted(_)) {
            break;
        }
        assert!(clocks < 100);
    }
    assert_eq!(clocks, u64::from(m.serialization_clocks()));
}

#[test]
fn wide_datapath_is_a_single_phit() {
    // 128-bit flits on a 128-bit datapath: one phit per flit.
    let m = PhitTimingModel { phits_per_flit: 1, clocks_per_phit: 1, decode_clocks: 1 };
    let mut link = PhitLink::sized_for(m);
    link.send(flit(0));
    assert!(matches!(link.clock(), PhitEvent::FlitCompleted(_)));
}
