//! Fixture: L-REASON and L-UNUSED violations in the annotation grammar.
//!
//! Never compiled — linted by `tests/golden.rs`.

fn missing_reason(slot: Option<u32>) -> u32 {
    slot.unwrap() // mmr-lint: allow(P-UNWRAP)
}

fn unknown_rule(slot: Option<u32>) -> u32 {
    slot.unwrap() // mmr-lint: allow(P-OOPS, reason="no such rule")
}

fn empty_reason(slot: Option<u32>) -> u32 {
    slot.unwrap() // mmr-lint: allow(P-UNWRAP, reason="")
}

fn stale_allow() -> u32 {
    // mmr-lint: allow(P-EXPECT, reason="the expect below was removed in a refactor")
    41 + 1
}

fn well_formed_ok(slot: Option<u32>) -> u32 {
    slot.unwrap() // mmr-lint: allow(P-UNWRAP, reason="fixture demonstrating a valid escape hatch")
}
