//! Hardware-style status bit vectors for the MMR schedulers.
//!
//! §4.1 of the MMR paper (Duato et al., HPCA 1999) describes the router's
//! scheduling state as "a set of status bit vectors, where each bit in a
//! vector is associated with a single virtual channel", combined with wide
//! logical operations so that candidate selection is a constant-time
//! "hardware" operation: *"we can quickly determine the virtual channels
//! with flits_available and credits_available, by performing the logical AND
//! of the corresponding bit vectors."*
//!
//! This crate models exactly that:
//!
//! * [`StatusBits`] — one vector: get/set per VC, wide AND/OR/XOR/NOT,
//!   priority encoding ([`StatusBits::first_set`]) and rotating priority
//!   encoding ([`StatusBits::iter_set_from`]).
//! * [`StatusMatrix`] — the named per-condition banks
//!   (`flits_available`, `credits_available`, `CBR_service_requested`, …)
//!   and their wide AND ([`StatusMatrix::all_of`]).
//!
//! # Example
//!
//! ```
//! use mmr_bitvec::{Condition, StatusMatrix};
//!
//! let mut status = StatusMatrix::new(256); // 256 VCs per input port
//! status.set(Condition::FlitsAvailable, 42, true);
//! status.set(Condition::CreditsAvailable, 42, true);
//!
//! let candidates = status.all_of(&[
//!     Condition::FlitsAvailable,
//!     Condition::CreditsAvailable,
//! ]);
//! assert_eq!(candidates.first_set(), Some(42));
//! ```

pub mod matrix;
pub mod status;

pub use matrix::{Condition, StatusMatrix};
pub use status::{SetBits, StatusBits};
