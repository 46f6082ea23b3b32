//! U-DEAD fixture: a library module under `crates/*/src` whose one entry
//! point is the example's `main` (`crates/demo/examples/u_dead_main.rs`).

use std::fmt;

/// Fires: its only caller is a test.
pub fn tested_only() -> u32 {
    private_helper() + 1
}

/// Fires: its only caller is `tested_only`.
fn private_helper() -> u32 {
    1
}

/// Fires, with its tail: the head of a two-link dead chain.
pub fn chain_head() -> u32 {
    chain_tail() * 2
}

/// Fires: reached only from `chain_head`.
fn chain_tail() -> u32 {
    2
}

/// A type whose only use is through a trait.
pub struct Meter;

impl fmt::Display for Meter {
    /// Silent: a trait-impl method is called through the trait.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", label())
    }
}

/// Silent: a trait method calls it.
fn label() -> &'static str {
    "meter"
}

/// A dispatch table, as a CLI registry is one.
pub const TABLE: &[(&str, fn() -> u32)] = &[("tabled", tabled)];

/// Silent: named as a value in a const table.
fn tabled() -> u32 {
    3
}

/// Silent: a declared test hook.
#[doc(hidden)]
pub fn hook() -> u32 {
    4
}

/// Silent: the example's `main` calls it.
pub fn for_example() -> u32 {
    5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_and_dead_code_answer() {
        assert_eq!(tested_only() + hook(), 6);
    }
}
