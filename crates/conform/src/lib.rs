//! # mmr-conform — differential conformance testing for the MMR stack
//!
//! The simulator's unit and property tests check components in isolation;
//! this crate checks the *composed* system against an independent,
//! deliberately simple reference model (the oracle). A single `u64` seed
//! expands into a complete scenario — topology, router configuration,
//! CBR connection mix over the paper's nine-rate ladder, and a fault
//! schedule — which runs on the real `mmr-net` stack with the invariant
//! auditor armed while the oracle shadows the event stream. Any
//! disagreement is a [`oracle::Divergence`], and divergent scenarios are
//! automatically [shrunk](shrink::shrink) to minimal reproducers.
//!
//! The pipeline:
//!
//! ```text
//! seed --> Scenario::generate --> run_scenario --+--> clean
//!                 ^                              |
//!                 |                              v
//!             (mutate)  <---  shrink  <---  divergences
//! ```
//!
//! Campaigns fan out over the deterministic sweep harness
//! (`mmr_sim::sweep`), so `mmr-bench conform --seed N --cases K` — this
//! crate's command line — produces byte-identical output at any `--jobs`
//! level. Regression seeds live in `tests/corpus/` at the workspace root and
//! are replayed by the tier-1 test suite.

pub mod oracle;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use oracle::{Divergence, Oracle};
pub use report::{run, CaseOutcome, Report, RunConfig};
pub use runner::{run_scenario, run_scenario_on, CaseRun, Hooks};
pub use scenario::{ChurnAction, ChurnEventSpec, ConnSpec, RoutingChoice, Scenario, TopologySpec};
pub use shrink::{shrink as shrink_scenario, Shrunk, DEFAULT_BUDGET};

/// Salt mixed into every scenario seed so conformance streams are
/// decorrelated from the figure-regeneration seeds that share the same
/// numeric range.
pub const CONFORM_SALT: u64 = 0x4D4D_5235_C0F0_0001; // "MMR5"

/// Parses a seed argument: decimal (`12345`), hexadecimal (`0xBEEF`), or —
/// for anything that parses as neither — the FNV-1a hash of the string, so
/// mnemonic campaign names like `0xMMR5` are valid, stable seeds.
pub fn parse_seed(s: &str) -> u64 {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    if let Ok(v) = s.parse::<u64>() {
        return v;
    }
    fnv1a(s.as_bytes())
}

/// FNV-1a 64-bit: tiny, stable, and good enough to turn a campaign name
/// into a seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing_accepts_decimal_hex_and_mnemonics() {
        assert_eq!(parse_seed("12345"), 12345);
        assert_eq!(parse_seed("0xBEEF"), 0xBEEF);
        assert_eq!(parse_seed("0xbeef"), 0xBEEF);
        // Not valid hex: falls back to the FNV hash, deterministically.
        assert_eq!(parse_seed("0xMMR5"), parse_seed("0xMMR5"));
        assert_ne!(parse_seed("0xMMR5"), parse_seed("0xMMR6"));
    }
}
