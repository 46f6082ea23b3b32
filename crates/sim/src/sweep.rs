//! Deterministic parallel sweep execution.
//!
//! Regenerating a figure means running dozens of independent simulations
//! (load × arbiter × candidate count). This module fans those points across
//! a scoped thread pool while keeping the output **byte-identical to a
//! serial run**: every point derives its own workload seed from
//! [`point_seed`]`(base, index)` — never from shared RNG state or from which
//! worker picked the point up — and results are assembled in point-index
//! order, so thread count and scheduling cannot influence a single emitted
//! byte.
//!
//! # Example
//!
//! ```
//! use mmr_sim::sweep::SweepOptions;
//!
//! let serial = SweepOptions::serial();
//! let parallel = SweepOptions { jobs: 4, ..SweepOptions::serial() };
//! let square = |i: usize| i * i;
//! assert_eq!(serial.run_indexed(6, square), parallel.run_indexed(6, square));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a sweep distributes its points over worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker thread count; `1` runs the sweep serially on the caller's
    /// thread.
    pub jobs: usize,
    /// Force the dense per-cycle stepping engine in every experiment (the
    /// differential-testing oracle; the default event-driven engine skips
    /// provably idle cycles and emits byte-identical results — see
    /// DESIGN.md §9 and the `--dense` flag).
    pub dense: bool,
}

impl SweepOptions {
    /// Serial execution on the caller's thread (`--jobs 1`).
    pub fn serial() -> Self {
        SweepOptions { jobs: 1, dense: false }
    }

    /// Default parallelism: one worker per core the process may use
    /// ([`std::thread::available_parallelism`]).
    pub fn all_cores() -> Self {
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        SweepOptions { jobs, dense: false }
    }

    /// Runs `point` for every index in `0..n` and returns the results in
    /// index order.
    ///
    /// With `jobs == 1` this is a plain serial loop. With more jobs the
    /// indices are handed out through a shared atomic counter
    /// (work-stealing, so an expensive point does not stall the others) and
    /// every result lands in its own slot — output order is index order no
    /// matter which worker computed what.
    pub fn run_indexed<T, F>(&self, n: usize, point: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.jobs <= 1 || n <= 1 {
            return (0..n).map(point).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.jobs.min(n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = point(i);
                    *slots[i].lock().expect("no worker panicked holding slot {i}") = Some(value);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner().expect("slot lock poisoned").expect("every index was visited")
            })
            .collect()
    }
}

/// Derives the workload seed of sweep point `index` from the sweep's base
/// seed (splitmix64-style mixing). Points get decorrelated streams, and the
/// seed depends only on the point's position — not on execution order — so
/// serial and parallel runs agree exactly.
pub fn point_seed(base: u64, index: usize) -> u64 {
    let mut z = base ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_index_order() {
        let opts = SweepOptions { jobs: 4, ..SweepOptions::serial() };
        let out = opts.run_indexed(37, |i| i * 3);
        assert_eq!(out, (0..37).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn run_indexed_matches_serial() {
        let work = |i: usize| point_seed(42, i).wrapping_mul(i as u64);
        for jobs in [2, 3, 8] {
            assert_eq!(
                SweepOptions { jobs, ..SweepOptions::serial() }.run_indexed(25, work),
                SweepOptions::serial().run_indexed(25, work),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        let opts = SweepOptions { jobs: 8, ..SweepOptions::serial() };
        assert!(opts.run_indexed(0, |i| i).is_empty());
        assert_eq!(opts.run_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn point_seeds_are_position_dependent_and_distinct() {
        let seeds: Vec<u64> = (0..100).map(|i| point_seed(19_990_109, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "no seed collisions across points");
        assert_eq!(point_seed(7, 3), point_seed(7, 3), "pure function of (base, index)");
        assert_ne!(point_seed(7, 3), point_seed(8, 3), "base seed matters");
    }
}
