//! Fixture: P-UNWRAP, P-EXPECT, P-PANIC violations in a panic-free module.
//!
//! Never compiled — linted by `tests/golden.rs`.

fn deliver(slot: Option<u32>) -> u32 {
    slot.unwrap()
}

fn match_vc(table: &[u32], idx: usize) -> u32 {
    *table.get(idx).expect("scheduler produced an in-range VC")
}

fn route(kind: u8) -> u8 {
    match kind {
        0 => 1,
        1 => 0,
        _ => unreachable!("probe phase only ever emits kinds 0 and 1"),
    }
}

fn check(credits: u32, capacity: u32) {
    assert!(credits <= capacity, "credit overflow");
}

fn degrade_ok(slot: Option<u32>) -> u32 {
    // The sanctioned pattern: count-and-continue, never panic mid-campaign.
    debug_assert!(slot.is_some(), "ghost match");
    slot.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_scaffold_may_unwrap() {
        // unwrap()/expect() inside #[cfg(test)] are not flagged.
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3);
    }
}
