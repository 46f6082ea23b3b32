//! The status bit vector itself.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::Chain;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, Not};

const WORD_BITS: usize = 64;

/// Words stored inline before spilling to the heap. Four words cover 256
/// bits — exactly the paper's 256 virtual channels per port — so every
/// status vector in the paper configuration lives inside its owner with no
/// pointer chase. The link scheduler touches ~a dozen of these per port
/// per cycle; keeping them inline is what makes the word-parallel ops
/// genuinely word-parallel instead of cache-miss-parallel.
const INLINE_WORDS: usize = 4;

/// A fixed-length bit vector modelling one hardware status vector
/// (§4.1 of the MMR paper): one bit per virtual channel, wide logical
/// operations, and constant-time priority encoding.
///
/// Vectors of up to `INLINE_WORDS` × 64 bits are stored inline (no heap
/// allocation); longer vectors spill to a `Vec`. The representation is
/// invisible to callers — equality, hashing, and every operation are
/// defined over the logical bits only.
///
/// # Example
///
/// ```
/// use mmr_bitvec::StatusBits;
///
/// let mut flits_available = StatusBits::zeros(256);
/// let mut credits_available = StatusBits::zeros(256);
/// flits_available.set(3, true);
/// flits_available.set(200, true);
/// credits_available.set(200, true);
///
/// // "the virtual channels with flits_available and credits_available, by
/// //  performing the logical AND of the corresponding bit vectors"
/// let ready = &flits_available & &credits_available;
/// assert_eq!(ready.first_set(), Some(200));
/// ```
#[derive(Clone)]
pub struct StatusBits {
    len: usize,
    words: Words,
}

#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

impl StatusBits {
    fn with_word_fill(len: usize, fill: u64) -> Self {
        let n = len.div_ceil(WORD_BITS);
        let words = if n <= INLINE_WORDS {
            Words::Inline([fill; INLINE_WORDS])
        } else {
            Words::Heap(vec![fill; n])
        };
        StatusBits { len, words }
    }

    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        StatusBits::with_word_fill(len, 0)
    }

    /// Creates an all-one vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = StatusBits::with_word_fill(len, u64::MAX);
        v.mask_tail();
        v
    }

    /// Creates a vector from an iterator of set-bit positions.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of range.
    pub fn from_set_bits(len: usize, bits: impl IntoIterator<Item = usize>) -> Self {
        let mut v = StatusBits::zeros(len);
        for b in bits {
            v.set(b, true);
        }
        v
    }

    /// The backing words holding the vector's `len` bits. For inline
    /// storage the slice is trimmed to the logical word count so that
    /// word-wise loops, comparisons, and hashes never observe the unused
    /// inline capacity.
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.words {
            // mmr-lint: allow(P-TRANS, reason="word count is derived from self.len; the inline buffer is sized for the type's maximum length by construction")
            Words::Inline(buf) => &buf[..self.len.div_ceil(WORD_BITS)],
            Words::Heap(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        let n = self.len.div_ceil(WORD_BITS);
        match &mut self.words {
            // mmr-lint: allow(P-TRANS, reason="word count is derived from self.len; the inline buffer is sized for the type's maximum length by construction")
            Words::Inline(buf) => &mut buf[..n],
            Words::Heap(v) => v,
        }
    }

    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        // mmr-lint: allow(P-TRANS, reason="bit-index bounds assert is the StatusBits API contract; callers index within construction-sized maps")
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words()[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1 // mmr-lint: allow(P-TRANS, reason="i < len was just asserted; the word index cannot exceed the storage")
    }

    /// Writes bit `i`. This is the per-VC status update the paper describes
    /// ("a bit ... is updated every time the status of a virtual channel
    /// changes").
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        // mmr-lint: allow(P-TRANS, reason="bit-index bounds assert is the StatusBits API contract; callers index within construction-sized maps")
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words_mut()[i / WORD_BITS] |= mask; // mmr-lint: allow(P-TRANS, reason="i < len was just asserted; the word index cannot exceed the storage")
        } else {
            self.words_mut()[i / WORD_BITS] &= !mask; // mmr-lint: allow(P-TRANS, reason="i < len was just asserted; the word index cannot exceed the storage")
        }
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words_mut().fill(0);
    }

    /// Sets every bit (all-ones over the vector's length).
    pub fn set_all(&mut self) {
        self.words_mut().fill(u64::MAX);
        self.mask_tail();
    }

    /// For tests: clears every bit that is set in `other` — an in-place
    /// AND-NOT, the composed form the fused
    /// [`StatusBits::copy_intersection_minus`] is checked against.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[doc(hidden)]
    pub fn subtract(&mut self, other: &StatusBits) {
        self.zip_len(other);
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= !b;
        }
    }

    /// Writes `a ∩ b` into `self` and returns its population count — the
    /// fused form of a copy, `&=` and a population count, one pass over the
    /// backing words instead of three. This is the link scheduler's
    /// eligible-set query (`flits_available ∧ credits_available`) and its
    /// per-phase domain build, which run for every port every flit cycle.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_intersection(&mut self, a: &StatusBits, b: &StatusBits) -> usize {
        a.zip_len(b);
        self.zip_len(a);
        let mut count = 0;
        for ((o, x), y) in self.words_mut().iter_mut().zip(a.words()).zip(b.words()) {
            let w = x & y;
            *o = w;
            count += w.count_ones() as usize;
        }
        count
    }

    /// Writes `(a ∩ b) \ exclude` into `self` and returns its population
    /// count — the quota-enforcing domain build (eligible class members
    /// whose round quota is not yet exhausted), fused into one pass.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_intersection_minus(
        &mut self,
        a: &StatusBits,
        b: &StatusBits,
        exclude: &StatusBits,
    ) -> usize {
        a.zip_len(b);
        a.zip_len(exclude);
        self.zip_len(a);
        let mut count = 0;
        let (aw, bw, ew) = (a.words(), b.words(), exclude.words());
        for (i, o) in self.words_mut().iter_mut().enumerate() {
            // mmr-lint: allow(P-TRANS, reason="the three vectors are zip_len-checked to equal length before the word loop")
            let w = aw[i] & bw[i] & !ew[i];
            *o = w;
            count += w.count_ones() as usize;
        }
        count
    }

    /// For tests: number of set bits.
    #[doc(hidden)]
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words().iter().any(|&w| w != 0)
    }

    /// For tests: the lowest set bit, the paper's priority encoder.
    #[doc(hidden)]
    pub fn first_set(&self) -> Option<usize> {
        for (wi, &w) in self.words().iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterates the set bits at or after `from` in ascending order, then
    /// wraps to those below it — a rotating priority encoder, the building
    /// block of round-robin candidate selection. Each set bit is yielded
    /// once; a `from` at or past the end starts the walk at bit 0. The walk
    /// divides by nothing but the word width: two word walks, from the start
    /// word's high bits to the end, then from word 0 to the start word's low
    /// bits.
    pub fn iter_set_from(&self, from: usize) -> Chain<SetBits<'_>, SetBits<'_>> {
        let from = if from < self.len { from } else { 0 };
        let (words, start) = (self.words(), from / WORD_BITS);
        let high = u64::MAX << (from % WORD_BITS);
        let head = words.split_at_checked(start + 1).map_or(words, |(head, _)| head);
        SetBits::new(words, start, high, u64::MAX).chain(SetBits::new(head, 0, u64::MAX, !high))
    }

    /// Drains every set bit into `out` in ascending order and clears the
    /// vector, one word at a time — the batched "which routers need
    /// examination" scan of the event-driven engine. A 64-router quiescence
    /// check costs a single word compare; each set bit is extracted with a
    /// trailing-zeros count and cleared with the `w & (w - 1)` idiom.
    pub fn drain_set_into(&mut self, out: &mut Vec<usize>) {
        for (wi, word) in self.words_mut().iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                // mmr-lint: allow(A-TRANS, reason="drains into a caller-owned scratch vector that keeps its capacity across cycles")
                out.push(wi * WORD_BITS + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_set(&self) -> SetBits<'_> {
        SetBits::new(self.words(), 0, u64::MAX, u64::MAX)
    }

    fn zip_len(&self, other: &StatusBits) -> usize {
        // mmr-lint: allow(P-TRANS, reason="equal-length precondition assert is the zip API contract, checked before any word access")
        assert_eq!(self.len, other.len, "status vectors must have equal length");
        self.len
    }
}

/// Equality over the logical bits only — hand-written so that an inline
/// and a (hypothetical) heap vector of the same contents compare equal and
/// the unused inline capacity never leaks into the comparison.
impl PartialEq for StatusBits {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for StatusBits {}

impl Hash for StatusBits {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.words().hash(state);
    }
}

impl fmt::Debug for StatusBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StatusBits[{}; set={:?}]", self.len, self.iter_set().collect::<Vec<_>>())
    }
}

/// Iterator over set-bit indices; see [`StatusBits::iter_set`] and
/// [`StatusBits::iter_set_from`].
#[derive(Debug, Clone)]
pub struct SetBits<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
    /// Applied to the last word of `words` when it is loaded.
    last_mask: u64,
}

impl<'a> SetBits<'a> {
    /// Walks `words` from word `first`, masking it with `first_mask` and
    /// the last word with `last_mask`.
    fn new(words: &'a [u64], first: usize, first_mask: u64, last_mask: u64) -> Self {
        let mask = if first + 1 == words.len() { first_mask & last_mask } else { first_mask };
        let word = words.split_at_checked(first).and_then(|(_, rest)| rest.first());
        SetBits { words, word_idx: first, current: word.map_or(0, |w| w & mask), last_mask }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
            if self.word_idx + 1 == self.words.len() {
                self.current &= self.last_mask;
            }
        }
    }
}

impl BitAnd for &StatusBits {
    type Output = StatusBits;
    fn bitand(self, rhs: &StatusBits) -> StatusBits {
        let len = self.zip_len(rhs);
        let mut out = StatusBits::zeros(len);
        for ((o, a), b) in out.words_mut().iter_mut().zip(self.words()).zip(rhs.words()) {
            *o = a & b;
        }
        out
    }
}

impl BitOr for &StatusBits {
    type Output = StatusBits;
    fn bitor(self, rhs: &StatusBits) -> StatusBits {
        let len = self.zip_len(rhs);
        let mut out = StatusBits::zeros(len);
        for ((o, a), b) in out.words_mut().iter_mut().zip(self.words()).zip(rhs.words()) {
            *o = a | b;
        }
        out
    }
}

impl BitXor for &StatusBits {
    type Output = StatusBits;
    fn bitxor(self, rhs: &StatusBits) -> StatusBits {
        let len = self.zip_len(rhs);
        let mut out = StatusBits::zeros(len);
        for ((o, a), b) in out.words_mut().iter_mut().zip(self.words()).zip(rhs.words()) {
            *o = a ^ b;
        }
        out
    }
}

impl Not for &StatusBits {
    type Output = StatusBits;
    fn not(self) -> StatusBits {
        let mut out = StatusBits::zeros(self.len);
        for (o, w) in out.words_mut().iter_mut().zip(self.words()) {
            *o = !w;
        }
        out.mask_tail();
        out
    }
}

impl BitAndAssign<&StatusBits> for StatusBits {
    fn bitand_assign(&mut self, rhs: &StatusBits) {
        self.zip_len(rhs);
        for (a, b) in self.words_mut().iter_mut().zip(rhs.words()) {
            *a &= b;
        }
    }
}

impl BitOrAssign<&StatusBits> for StatusBits {
    fn bitor_assign(&mut self, rhs: &StatusBits) {
        self.zip_len(rhs);
        for (a, b) in self.words_mut().iter_mut().zip(rhs.words()) {
            *a |= b;
        }
    }
}

impl FromIterator<bool> for StatusBits {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bools: Vec<bool> = iter.into_iter().collect();
        let mut v = StatusBits::zeros(bools.len());
        for (i, b) in bools.into_iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut v = StatusBits::zeros(130);
        assert!(!v.get(129));
        v.set(129, true);
        v.set(0, true);
        v.set(64, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1));
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn drain_set_into_empties_in_ascending_order() {
        let mut v = StatusBits::from_set_bits(200, [129, 0, 63, 64, 199, 7]);
        let mut out = vec![42usize];
        v.drain_set_into(&mut out);
        assert_eq!(out, vec![42, 0, 7, 63, 64, 129, 199]);
        assert!(!v.any());
        out.clear();
        v.drain_set_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        StatusBits::zeros(10).get(10);
    }

    #[test]
    fn ones_masks_tail() {
        let v = StatusBits::ones(70);
        assert_eq!(v.count_ones(), 70);
        assert!(v.get(69));
    }

    #[test]
    fn not_respects_length() {
        let v = StatusBits::zeros(70);
        let inv = !&v;
        assert_eq!(inv.count_ones(), 70);
        let back = !&inv;
        assert_eq!(back.count_ones(), 0);
    }

    #[test]
    fn and_or_xor() {
        let a = StatusBits::from_set_bits(128, [1, 5, 64, 100]);
        let b = StatusBits::from_set_bits(128, [5, 64, 101]);
        assert_eq!((&a & &b).iter_set().collect::<Vec<_>>(), vec![5, 64]);
        assert_eq!((&a | &b).count_ones(), 5);
        assert_eq!((&a ^ &b).iter_set().collect::<Vec<_>>(), vec![1, 100, 101]);
    }

    #[test]
    fn subtract_is_and_not() {
        let mut a = StatusBits::from_set_bits(130, [0, 5, 64, 100, 129]);
        let b = StatusBits::from_set_bits(130, [5, 100, 128]);
        a.subtract(&b);
        assert_eq!(a.iter_set().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn assign_ops() {
        let mut a = StatusBits::from_set_bits(64, [1, 2, 3]);
        let b = StatusBits::from_set_bits(64, [2, 3, 4]);
        a &= &b;
        assert_eq!(a.iter_set().collect::<Vec<_>>(), vec![2, 3]);
        a |= &b;
        assert_eq!(a.iter_set().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = &StatusBits::zeros(64) & &StatusBits::zeros(65);
    }

    #[test]
    fn set_all_sets_every_lane() {
        let mut v = StatusBits::zeros(70);
        v.set_all();
        assert_eq!(v.count_ones(), 70);
        assert_eq!(v, StatusBits::ones(70));
    }

    #[test]
    fn first_set_priority_encodes() {
        assert_eq!(StatusBits::zeros(256).first_set(), None);
        assert_eq!(StatusBits::from_set_bits(256, [200, 3]).first_set(), Some(3));
        assert_eq!(StatusBits::from_set_bits(256, [200]).first_set(), Some(200));
    }

    #[test]
    fn iter_set_from_walks_ring() {
        let v = StatusBits::from_set_bits(256, [10, 100, 250]);
        let walk = |from| v.iter_set_from(from).collect::<Vec<_>>();
        assert_eq!(walk(0), vec![10, 100, 250]);
        assert_eq!(walk(10), vec![10, 100, 250]);
        assert_eq!(walk(11), vec![100, 250, 10]);
        assert_eq!(walk(101), vec![250, 10, 100]);
        assert_eq!(walk(251), vec![10, 100, 250]); // wraps
        assert_eq!(StatusBits::zeros(8).iter_set_from(3).next(), None);
        // The start word's low bits come last, after every other word.
        let w = StatusBits::from_set_bits(200, [3, 70, 66, 130, 199]);
        assert_eq!(w.iter_set_from(68).collect::<Vec<_>>(), vec![70, 130, 199, 3, 66]);
    }

    #[test]
    fn iter_set_from_past_the_end_walks_from_zero() {
        let v = StatusBits::from_set_bits(8, [2, 5]);
        assert_eq!(v.iter_set_from(9).collect::<Vec<_>>(), vec![2, 5]);
        assert_eq!(v.iter_set_from(8).collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    fn iter_set_matches_gets() {
        let positions = [0, 1, 63, 64, 65, 127, 128, 255];
        let v = StatusBits::from_set_bits(256, positions);
        assert_eq!(v.iter_set().collect::<Vec<_>>(), positions.to_vec());
    }

    #[test]
    fn from_iterator_of_bools() {
        let v: StatusBits = [true, false, true, true].into_iter().collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v.iter_set().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn empty_vector_is_benign() {
        let v = StatusBits::zeros(0);
        assert!(v.is_empty());
        assert!(!v.any());
        assert_eq!(v.first_set(), None);
        assert_eq!(v.iter_set_from(0).next(), None);
        assert_eq!(v.iter_set().count(), 0);
    }

    #[test]
    fn debug_is_nonempty() {
        let v = StatusBits::from_set_bits(8, [1]);
        assert!(!format!("{v:?}").is_empty());
    }

    #[test]
    fn fused_intersections_match_composed_ops() {
        let a = StatusBits::from_set_bits(200, [1, 5, 64, 100, 130, 199]);
        let b = StatusBits::from_set_bits(200, [5, 64, 100, 131, 199]);
        let c = StatusBits::from_set_bits(200, [5, 100, 199]);
        let mut out = StatusBits::zeros(200);

        assert_eq!(out.copy_intersection(&a, &b), 4);
        assert_eq!(out, &a & &b);

        assert_eq!(out.copy_intersection_minus(&a, &b, &c), 1);
        let mut expect = &a & &b;
        expect.subtract(&c);
        assert_eq!(out, expect);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn fused_intersection_mismatched_lengths_panics() {
        StatusBits::zeros(64).copy_intersection(&StatusBits::zeros(64), &StatusBits::zeros(128));
    }

    #[test]
    fn inline_and_heap_sizes_behave_identically() {
        // 256 bits sits inline; 320 bits spills to the heap. The
        // representation must be invisible: same ops, same results.
        for len in [256usize, 320] {
            let mut v = StatusBits::zeros(len);
            v.set(len - 1, true);
            v.set(0, true);
            assert_eq!(v.count_ones(), 2);
            assert_eq!(v.iter_set().collect::<Vec<_>>(), vec![0, len - 1]);
            assert_eq!(v, StatusBits::from_set_bits(len, [0, len - 1]));
            let inv = !&v;
            assert_eq!(inv.count_ones(), len - 2);
            let mut all = StatusBits::ones(len);
            assert_eq!(all.count_ones(), len);
            all.subtract(&v);
            assert_eq!(all.count_ones(), len - 2);
            assert_eq!(all, inv);
        }
    }
}
