//! Companion example for the P-TRANS scope fixture: its `fn router` shares
//! the library fn's name and panics, but library code cannot call it.

fn router() -> usize {
    panic!("an example's own router")
}

fn main() {
    router();
}
