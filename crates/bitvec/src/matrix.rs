//! Named banks of status vectors, one bank per condition.
//!
//! §4.1 of the paper: "The data structures used for supporting fast
//! scheduling decisions are a set of status bit vectors ... Examples of
//! status bit vectors include: flits_available, input_buffer_full,
//! CBR_service_requested, CBR_bandwidth_serviced, VBR_bandwidth_serviced".
//!
//! The router keeps only the banks it writes, each a [`StatusBits`] of its
//! own (the credit bank and the two serviced banks; the VCM keeps
//! `flits_available`). The matrix is the seven-condition form of §4.1's
//! example query, which the `eligible_query` benchmark kernel times.

use crate::status::StatusBits;

/// The per-virtual-channel conditions the MMR schedulers track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Condition {
    /// The VC has at least one flit buffered and ready to transmit.
    FlitsAvailable,
    /// The VC's input buffer is full (flow control must stall the upstream).
    InputBufferFull,
    /// The downstream router has buffer credit for this VC.
    CreditsAvailable,
    /// A CBR connection on this VC still has unserved cycles this round.
    CbrServiceRequested,
    /// The CBR allocation of this VC has been fully serviced this round.
    CbrBandwidthServiced,
    /// The VBR *permanent* allocation of this VC has been serviced this round.
    VbrBandwidthServiced,
    /// The VC carries an established connection (vs. free).
    ConnectionActive,
}

impl Condition {
    /// All conditions, in storage order.
    pub const ALL: [Condition; 7] = [
        Condition::FlitsAvailable,
        Condition::InputBufferFull,
        Condition::CreditsAvailable,
        Condition::CbrServiceRequested,
        Condition::CbrBandwidthServiced,
        Condition::VbrBandwidthServiced,
        Condition::ConnectionActive,
    ];

    fn index(self) -> usize {
        match self {
            Condition::FlitsAvailable => 0,
            Condition::InputBufferFull => 1,
            Condition::CreditsAvailable => 2,
            Condition::CbrServiceRequested => 3,
            Condition::CbrBandwidthServiced => 4,
            Condition::VbrBandwidthServiced => 5,
            Condition::ConnectionActive => 6,
        }
    }
}

/// One status vector per [`Condition`], all over the same set of virtual
/// channels (one input port's worth in the MMR).
///
/// # Example
///
/// ```
/// use mmr_bitvec::{Condition, StatusMatrix};
///
/// let mut m = StatusMatrix::new(256);
/// m.set(Condition::FlitsAvailable, 7, true);
/// m.set(Condition::CreditsAvailable, 7, true);
/// m.set(Condition::FlitsAvailable, 9, true); // no credits for 9
///
/// let ready = m.all_of(&[Condition::FlitsAvailable, Condition::CreditsAvailable]);
/// assert_eq!(ready.iter_set().collect::<Vec<_>>(), vec![7]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusMatrix {
    vcs: usize,
    banks: Vec<StatusBits>,
}

impl StatusMatrix {
    /// Creates a matrix tracking `vcs` virtual channels, all conditions
    /// false.
    pub fn new(vcs: usize) -> Self {
        StatusMatrix { vcs, banks: (0..Condition::ALL.len()).map(|_| StatusBits::zeros(vcs)).collect() }
    }

    /// Writes one condition bit of one VC.
    pub fn set(&mut self, cond: Condition, vc: usize, value: bool) {
        self.banks[cond.index()].set(vc, value);
    }

    /// Borrows the full vector of a condition.
    pub fn bank(&self, cond: Condition) -> &StatusBits {
        &self.banks[cond.index()]
    }

    /// VCs satisfying *all* of `conds` (wide AND). With an empty list this
    /// is all-ones, the AND identity.
    pub fn all_of(&self, conds: &[Condition]) -> StatusBits {
        let mut acc = StatusBits::ones(self.vcs);
        for &c in conds {
            acc &= self.bank(c);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditions_have_distinct_slots() {
        let mut m = StatusMatrix::new(16);
        for (i, c) in Condition::ALL.into_iter().enumerate() {
            m.set(c, i, true);
        }
        for (i, c) in Condition::ALL.into_iter().enumerate() {
            assert!(m.bank(c).get(i));
            assert_eq!(m.bank(c).count_ones(), 1, "{c:?}");
        }
    }

    #[test]
    fn all_of_is_intersection() {
        let mut m = StatusMatrix::new(8);
        m.set(Condition::FlitsAvailable, 1, true);
        m.set(Condition::FlitsAvailable, 2, true);
        m.set(Condition::CreditsAvailable, 2, true);
        m.set(Condition::CreditsAvailable, 3, true);
        let both = m.all_of(&[Condition::FlitsAvailable, Condition::CreditsAvailable]);
        assert_eq!(both.iter_set().collect::<Vec<_>>(), vec![2]);
        // Empty condition list is the AND identity: everything matches.
        assert_eq!(m.all_of(&[]).count_ones(), 8);
    }
}
