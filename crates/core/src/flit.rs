//! Flits.
//!
//! §3.1: data is organised as a sequence of flow-control digits (flits);
//! pipelining across a link happens at the *phit* (or word) level, which
//! the flit-cycle simulator folds into one flit cycle
//! (`tests/phit_pipeline.rs` checks §3.2's phit-buffer sizing).
//!
//! §3.4: for VCT traffic "packet size is equal to flit size", so control and
//! best-effort packets are single flits here, exactly as in the paper.

use mmr_sim::Cycles;

use crate::ids::ConnectionId;

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over a byte stream.
///
/// The polynomial has Hamming distance 4 for payloads far beyond a flit, so
/// every 1-bit and 2-bit corruption of a flit body is detected — the
/// property the link-level retransmission layer ([`crate::llr`]) relies on.
pub const fn crc16_ccitt(bytes: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    let mut i = 0;
    while i < bytes.len() {
        crc ^= (bytes[i] as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x1021 } else { crc << 1 };
            bit += 1;
        }
        i += 1;
    }
    crc
}

/// The CRC of a flit's sixteen checksummed bytes when all are zero.
const ZERO_BODY_CRC: u16 = crc16_ccitt(&[0; 16]);

/// A CRC is linear over GF(2) once its initial value is factored out, so
/// the CRC of sixteen bytes is [`ZERO_BODY_CRC`] XOR one term per byte:
/// `CRC_BY_POSITION[i][b]` is what byte `b` at position `i` adds. Each term
/// is read off [`crc16_ccitt`] itself, so the tables cannot drift from it.
static CRC_BY_POSITION: [[u16; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u16; 256]; 16] {
    let mut tables = [[0; 256]; 16];
    let mut i = 0;
    while i < 16 {
        let mut b = 0;
        while b < 256 {
            let mut body = [0u8; 16];
            body[i] = b as u8;
            tables[i][b] = crc16_ccitt(&body) ^ ZERO_BODY_CRC;
            b += 1;
        }
        i += 1;
    }
    tables
}

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The role of a flit within its stream or packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// An ordinary data flit of an established (PCS) connection.
    Data,
    /// A single-flit control packet (probes, acks, command words).
    /// Routed by VCT with priority *over* data streams (§3.4).
    Control,
    /// A single-flit best-effort packet. Routed by VCT with priority
    /// *under* data streams (§3.4).
    BestEffort,
    /// An in-band control word that dynamically adjusts its connection's
    /// bandwidth or priority (§4.3: "using control words along a connection
    /// we can dynamically vary the bandwidth requirements").
    Command(CommandWord),
}

/// In-band commands carried on an established connection (Myrinet-style
/// encodings, §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandWord {
    /// Replace the connection's scheduling priority.
    SetPriority(u8),
    /// Scale the connection's inter-arrival period by `num/den`
    /// (data-rate change requested by the source interface).
    ScaleRate {
        /// Numerator of the period scale factor.
        num: u16,
        /// Denominator of the period scale factor (nonzero).
        den: u16,
    },
    /// Abort the current frame: drop any queued flits of this connection
    /// ("the network interface may decide to abort the transmission of that
    /// frame").
    AbortFrame,
}

/// One flit as it travels through the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flit {
    /// Payload role.
    pub kind: FlitKind,
    /// Sequence number within the connection (for in-order checks).
    pub seq: u64,
    /// Cycle at which the flit was created at its source (end-to-end latency
    /// accounting in the network simulator).
    pub injected_at: Cycles,
    /// Synthetic payload word standing in for the 128-bit flit body. Derived
    /// deterministically from the flit's identity at the source, so any later
    /// bit flip is a detectable deviation.
    pub payload: u64,
    /// CRC-16/CCITT over the payload and stream sequence number, computed at
    /// the source. Checked per hop by the LLR receiver and end-to-end at the
    /// destination NI. A flit names no connection: the VC it sits in does.
    pub crc: u16,
    /// Per-link sequence number stamped by the LLR sender on each wire
    /// crossing; 0 (and unused) when link-level retransmission is off.
    pub link_seq: u32,
}

impl Flit {
    /// Creates a flit of an arbitrary kind with a valid CRC and a payload
    /// word derived from `conn`, `seq` and `injected_at`.
    pub fn new(conn: ConnectionId, kind: FlitKind, seq: u64, injected_at: Cycles) -> Self {
        let payload = mix64(u64::from(conn.raw()) ^ seq.rotate_left(17) ^ injected_at.count());
        let crc = Self::checksum(payload, seq);
        Flit { kind, seq, injected_at, payload, crc, link_seq: 0 }
    }

    /// Creates a data flit.
    pub fn data(conn: ConnectionId, seq: u64, injected_at: Cycles) -> Self {
        Flit::new(conn, FlitKind::Data, seq, injected_at)
    }

    /// The CRC protecting a `(payload, seq)` pair: [`crc16_ccitt`] over the
    /// payload's then the sequence number's little-endian bytes, one table
    /// read a byte.
    pub fn checksum(payload: u64, seq: u64) -> u16 {
        let bytes = payload.to_le_bytes().into_iter().chain(seq.to_le_bytes());
        let terms = CRC_BY_POSITION.iter().zip(bytes);
        // A byte is always in its 256-entry table's range.
        terms.fold(ZERO_BODY_CRC, |crc, (table, b)| {
            crc ^ table.get(usize::from(b)).copied().unwrap_or(0)
        })
    }

    /// Whether the stored CRC matches the payload (no transmission damage).
    pub fn crc_ok(&self) -> bool {
        self.crc == Self::checksum(self.payload, self.seq)
    }

    /// Flips one payload bit *without* updating the CRC — the transient-fault
    /// injector's model of wire corruption.
    pub fn corrupt_payload_bit(&mut self, bit: u32) {
        self.payload ^= 1u64 << (bit % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_constructor_sets_kind() {
        let f = Flit::data(ConnectionId(9), 3, Cycles(17));
        assert_eq!(f.kind, FlitKind::Data);
        assert_eq!(f.seq, 3);
        assert_eq!(f.injected_at, Cycles(17));
    }

    #[test]
    fn fresh_flits_carry_a_valid_crc() {
        let f = Flit::data(ConnectionId(7), 12, Cycles(3));
        assert!(f.crc_ok());
        let g = Flit::new(ConnectionId(7), FlitKind::Control, 12, Cycles(3));
        assert!(g.crc_ok());
    }

    #[test]
    fn payload_corruption_is_detected() {
        let mut f = Flit::data(ConnectionId(1), 0, Cycles(0));
        f.corrupt_payload_bit(13);
        assert!(!f.crc_ok());
        f.corrupt_payload_bit(13); // undo
        assert!(f.crc_ok());
    }

    #[test]
    fn crc16_reference_vector() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
    }

    proptest::proptest! {
        /// The per-position tables compute the bitwise reference's CRC.
        #[test]
        fn the_checksum_tables_agree_with_the_reference(
            payload in proptest::any::<u64>(),
            seq in proptest::any::<u64>(),
        ) {
            let mut bytes = [0u8; 16];
            bytes[..8].copy_from_slice(&payload.to_le_bytes());
            bytes[8..].copy_from_slice(&seq.to_le_bytes());
            proptest::prop_assert_eq!(Flit::checksum(payload, seq), crc16_ccitt(&bytes));
        }
    }

    #[test]
    fn command_words_compare() {
        assert_ne!(
            FlitKind::Command(CommandWord::SetPriority(1)),
            FlitKind::Command(CommandWord::SetPriority(2))
        );
        assert_eq!(
            FlitKind::Command(CommandWord::ScaleRate { num: 1, den: 2 }),
            FlitKind::Command(CommandWord::ScaleRate { num: 1, den: 2 })
        );
    }
}
