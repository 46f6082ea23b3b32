//! Fixture: D-FLOAT violations in an integer-ledger accounting module.
//!
//! Never compiled — linted by `tests/golden.rs`.

/// Credit ledger that drifts: float arithmetic accumulates rounding error
/// across cycles, so two sweep orders can disagree on the final balance.
struct Ledger {
    balance: f64,
}

impl Ledger {
    fn credit(&mut self, phits: u32) {
        self.balance += phits as f64 * 0.5;
    }

    fn integer_ok(&self, phits: u32) -> u64 {
        // Fixed-point in integer units never drifts.
        u64::from(phits) * 512
    }
}
