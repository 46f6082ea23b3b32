//! Companion for the U-DEAD fixture: an example whose `main` is an entry
//! point, so the library fns it calls are live.

fn main() {
    println!("{}", demo::for_example());
}
