//! Companion library module for the P-TRANS scope fixture: not designated
//! panic-free, so only the chain from `p_trans_scope.rs` reports its unwrap.

pub fn router(ports: usize) -> usize {
    ports * 8
}

pub fn queues(queued: Option<usize>) -> usize {
    queued.unwrap()
}
