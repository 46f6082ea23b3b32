//! Property tests over the deterministic sweep harness — the foundation
//! the conformance fuzzer's reproducibility guarantee rests on.

use std::collections::BTreeSet;

use mmr_sim::sweep::{point_seed, SweepOptions};
use proptest::prelude::*;

/// 2^16 consecutive sweep indices never collide on their derived seeds:
/// every case of a campaign gets a distinct workload stream. (One dense
/// scan, not proptest, so the full range is covered exactly once per base.)
#[test]
fn point_seeds_never_collide_over_consecutive_indices() {
    for base in [0u64, 1, MMR5_FALLBACK, u64::MAX] {
        let mut seen = BTreeSet::new();
        for index in 0..(1usize << 16) {
            let seed = point_seed(base, index);
            assert!(seen.insert(seed), "base {base:#x}: index {index} collided");
        }
    }
}

/// The FNV fallback of the default campaign name, precomputed so the dense
/// scan above covers the seed the CI gate actually runs with.
const MMR5_FALLBACK: u64 = 0xa5a5_2871_0a76_faa6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seeds depend only on (base, index), never on evaluation order or
    /// worker count: a parallel run sees the same per-point streams as a
    /// serial one.
    #[test]
    fn point_seeds_are_position_pure(base in any::<u64>(), n in 1usize..64) {
        let serial: Vec<u64> = (0..n).map(|i| point_seed(base, i)).collect();
        let indexed = SweepOptions { jobs: 4, ..SweepOptions::serial() }.run_indexed(n, |i| point_seed(base, i));
        prop_assert_eq!(serial, indexed);
    }

    /// Distinct bases decorrelate: the same index under different bases
    /// yields different seeds (splitmix64 mixing, not arithmetic offset).
    #[test]
    fn bases_decorrelate(base in any::<u64>(), index in 0usize..10_000) {
        // wrapping_add(1) never equals base on u64, so the pair is always
        // two distinct bases.
        prop_assert!(point_seed(base, index) != point_seed(base.wrapping_add(1), index));
    }
}
