//! Fixture: D-HASH and D-TIME violations.
//!
//! Never compiled — linted by `tests/golden.rs`.

use std::collections::HashMap;
use std::collections::HashSet;

fn tally(events: &[u32]) -> HashMap<u32, u32> {
    let mut seen = HashSet::new();
    let mut counts = HashMap::new();
    for &e in events {
        if seen.insert(e) {
            counts.insert(e, 1);
        }
    }
    counts
}

fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
