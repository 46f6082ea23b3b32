//! P-TRANS scope fixture: a call from library code (`crates/*/src`) resolves
//! only to library fns. `heap_bytes` sits in a panic-free module and calls
//! `footprint::router(..)`; the example beside it has a `fn router` of its
//! own that panics, which no library fn can call, so no chain runs through
//! it. The one chain reported is the real one, into `footprint::queues`.

pub fn heap_bytes(ports: usize, queued: Option<usize>) -> usize {
    crate::footprint::router(ports) + crate::footprint::queues(queued)
}
