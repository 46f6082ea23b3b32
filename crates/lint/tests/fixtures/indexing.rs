//! Fixture: P-INDEX violations in an index-free module.
//!
//! Never compiled — linted by `tests/golden.rs`.

fn replay_frame(frames: &[u64], cursor: usize) -> u64 {
    frames[cursor]
}

fn replay_frame_ok(frames: &[u64], cursor: usize) -> Option<u64> {
    // get() degrades to None instead of panicking on a stale cursor.
    frames.get(cursor).copied()
}

fn array_literal_ok() -> [u8; 4] {
    // Type and literal brackets are not index expressions.
    [0u8; 4]
}
