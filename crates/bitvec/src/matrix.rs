//! Named banks of status vectors, one bank per condition.
//!
//! §4.1 of the paper: "The data structures used for supporting fast
//! scheduling decisions are a set of status bit vectors ... Examples of
//! status bit vectors include: flits_available, input_buffer_full,
//! CBR_service_requested, CBR_bandwidth_serviced, VBR_bandwidth_serviced".

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

    /// Number of virtual channels tracked.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Heap bytes owned by the matrix's condition banks.
    pub fn heap_bytes(&self) -> usize {
        self.banks.capacity() * std::mem::size_of::<StatusBits>()
            + self.banks.iter().map(StatusBits::heap_bytes).sum::<usize>()
    }

    /// Reads one condition bit of one VC.
    pub fn get(&self, cond: Condition, vc: usize) -> bool {
        self.bank(cond).get(vc)
    }

    /// Writes one condition bit of one VC.
    pub fn set(&mut self, cond: Condition, vc: usize, value: bool) {
        self.bank_mut(cond).set(vc, value);
    }

    /// Borrows the full vector of a condition.
    pub fn bank(&self, cond: Condition) -> &StatusBits {
        &self.banks[cond.index()]
    }

    fn bank_mut(&mut self, cond: Condition) -> &mut StatusBits {
        // mmr-lint: allow(P-TRANS, reason="`new` builds one bank per Condition, so Condition::index() is always in range")
        &mut self.banks[cond.index()]
    }

    /// Clears one condition across all VCs (used at round boundaries for the
    /// `*_bandwidth_serviced` vectors).
    pub fn clear_condition(&mut self, cond: Condition) {
        self.bank_mut(cond).clear();
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

    /// In-place variant of [`StatusMatrix::all_of`]: writes the wide AND
    /// into `out` without allocating, so per-cycle schedulers can reuse one
    /// scratch vector.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have `vcs` bits.
    pub fn all_of_into(&self, conds: &[Condition], out: &mut StatusBits) {
        match conds.split_first() {
            None => out.set_all(),
            Some((&first, rest)) => {
                out.copy_from(self.bank(first));
                for &c in rest {
                    *out &= self.bank(c);
                }
            }
        }
    }

    /// Fused [`StatusMatrix::all_of_into`] that also returns the population
    /// count of the result, computed in the same pass over the backing
    /// words. The three-condition shape — the paper's eligibility query —
    /// runs as a single fused loop; other arities fall back to the composed
    /// ops.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have `vcs` bits.
    pub fn all_of_count_into(&self, conds: &[Condition], out: &mut StatusBits) -> usize {
        if let [a, b, c] = *conds {
            return out.copy_intersection3(self.bank(a), self.bank(b), self.bank(c));
        }
        self.all_of_into(conds, out);
        out.count_ones()
    }

    /// For tests: the VCs with every `require` bit and no `exclude` bit (§4.1's example query).
    #[doc(hidden)]
    pub fn matching(&self, require: &[Condition], exclude: &[Condition]) -> StatusBits {
        let mut acc = self.all_of(require);
        for &c in exclude {
            acc &= &!self.bank(c);
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
            assert!(m.get(c, i));
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

    #[test]
    fn all_of_into_matches_all_of() {
        let mut m = StatusMatrix::new(70);
        m.set(Condition::FlitsAvailable, 1, true);
        m.set(Condition::FlitsAvailable, 69, true);
        m.set(Condition::CreditsAvailable, 69, true);
        let conds = [Condition::FlitsAvailable, Condition::CreditsAvailable];
        let mut out = StatusBits::zeros(70);
        m.all_of_into(&conds, &mut out);
        assert_eq!(out, m.all_of(&conds));
        m.all_of_into(&[], &mut out);
        assert_eq!(out.count_ones(), 70, "empty condition list is the AND identity");
    }

    #[test]
    fn all_of_count_into_matches_all_of() {
        let mut m = StatusMatrix::new(70);
        m.set(Condition::FlitsAvailable, 1, true);
        m.set(Condition::FlitsAvailable, 69, true);
        m.set(Condition::CreditsAvailable, 69, true);
        m.set(Condition::ConnectionActive, 69, true);
        // The fused three-condition shape.
        let conds = [
            Condition::FlitsAvailable,
            Condition::CreditsAvailable,
            Condition::ConnectionActive,
        ];
        let mut out = StatusBits::zeros(70);
        assert_eq!(m.all_of_count_into(&conds, &mut out), 1);
        assert_eq!(out, m.all_of(&conds));
        // The fallback arities.
        assert_eq!(m.all_of_count_into(&conds[..2], &mut out), 1);
        assert_eq!(out, m.all_of(&conds[..2]));
        assert_eq!(m.all_of_count_into(&[], &mut out), 70);
    }

    #[test]
    fn matching_excludes() {
        // The paper's candidate query for CBR service.
        let mut m = StatusMatrix::new(8);
        for vc in [1, 2, 3] {
            m.set(Condition::FlitsAvailable, vc, true);
            m.set(Condition::CreditsAvailable, vc, true);
            m.set(Condition::CbrServiceRequested, vc, true);
        }
        m.set(Condition::CbrBandwidthServiced, 2, true);
        let c = m.matching(
            &[
                Condition::FlitsAvailable,
                Condition::CreditsAvailable,
                Condition::CbrServiceRequested,
            ],
            &[Condition::CbrBandwidthServiced],
        );
        assert_eq!(c.iter_set().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn clear_condition_resets_round_state() {
        let mut m = StatusMatrix::new(8);
        m.set(Condition::CbrBandwidthServiced, 4, true);
        m.set(Condition::FlitsAvailable, 4, true);
        m.clear_condition(Condition::CbrBandwidthServiced);
        assert!(!m.get(Condition::CbrBandwidthServiced, 4));
        assert!(m.get(Condition::FlitsAvailable, 4), "other banks untouched");
    }
}
