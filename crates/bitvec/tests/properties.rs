//! Property tests: `StatusBits` agrees with a naive `Vec<bool>` model.

use mmr_bitvec::StatusBits;
use proptest::prelude::*;

/// Naive reference model.
#[derive(Debug, Clone)]
struct Model(Vec<bool>);

impl Model {
    fn to_bits(&self) -> StatusBits {
        self.0.iter().copied().collect()
    }
}

fn model_strategy(max_len: usize) -> impl Strategy<Value = Model> {
    prop::collection::vec(any::<bool>(), 0..max_len).prop_map(Model)
}

fn pair_strategy(max_len: usize) -> impl Strategy<Value = (Model, Model)> {
    (0..max_len).prop_flat_map(|len| {
        (
            prop::collection::vec(any::<bool>(), len).prop_map(Model),
            prop::collection::vec(any::<bool>(), len).prop_map(Model),
        )
    })
}

proptest! {
    #[test]
    fn count_ones_matches_model(m in model_strategy(300)) {
        let bits = m.to_bits();
        prop_assert_eq!(bits.count_ones(), m.0.iter().filter(|&&b| b).count());
        prop_assert_eq!(bits.any(), m.0.iter().any(|&b| b));
    }

    #[test]
    fn get_matches_model(m in model_strategy(300)) {
        let bits = m.to_bits();
        for (i, &b) in m.0.iter().enumerate() {
            prop_assert_eq!(bits.get(i), b);
        }
    }

    #[test]
    fn iter_set_matches_model(m in model_strategy(300)) {
        let bits = m.to_bits();
        let expected: Vec<usize> =
            m.0.iter().enumerate().filter_map(|(i, &b)| b.then_some(i)).collect();
        prop_assert_eq!(bits.iter_set().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn first_set_matches_model(m in model_strategy(300)) {
        let bits = m.to_bits();
        prop_assert_eq!(bits.first_set(), m.0.iter().position(|&b| b));
    }

    #[test]
    fn and_or_xor_match_model((a, b) in pair_strategy(300)) {
        let (ba, bb) = (a.to_bits(), b.to_bits());
        let and = &ba & &bb;
        let or = &ba | &bb;
        let xor = &ba ^ &bb;
        for i in 0..a.0.len() {
            prop_assert_eq!(and.get(i), a.0[i] && b.0[i]);
            prop_assert_eq!(or.get(i), a.0[i] || b.0[i]);
            prop_assert_eq!(xor.get(i), a.0[i] ^ b.0[i]);
        }
    }

    #[test]
    fn not_is_involution(m in model_strategy(300)) {
        let bits = m.to_bits();
        let double = !&!&bits;
        prop_assert_eq!(double, bits.clone());
        // NOT never sets bits beyond the logical length.
        prop_assert_eq!((!&bits).count_ones(), m.0.len() - bits.count_ones());
    }

    #[test]
    fn iter_set_from_is_the_rotated_model(m in model_strategy(300), from in 0usize..400) {
        let bits = m.to_bits();
        let len = m.0.len();
        let start = if from < len { from } else { 0 };
        let expected: Vec<usize> =
            (0..len).map(|k| (start + k) % len).filter(|&i| m.0[i]).collect();
        prop_assert_eq!(bits.iter_set_from(from).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn set_then_clear_restores(mut positions in prop::collection::vec(0usize..256, 0..40)) {
        let mut bits = StatusBits::zeros(256);
        for &p in &positions {
            bits.set(p, true);
        }
        positions.sort_unstable();
        positions.dedup();
        prop_assert_eq!(bits.iter_set().collect::<Vec<_>>(), positions.clone());
        for &p in &positions {
            bits.set(p, false);
        }
        prop_assert!(!bits.any());
    }
}
