//! Simulation substrate for the MMR reproduction.
//!
//! The original MMR evaluation (Duato et al., HPCA 1999) used an ad-hoc C++
//! discrete-event simulator modelling a single router. This crate provides
//! the equivalent substrate as a reusable library:
//!
//! * [`units`] — strongly typed physical quantities ([`Bandwidth`],
//!   [`SimTime`], [`Cycles`], [`FlitTiming`]) so that link rates, flit sizes
//!   and cycle times can never be confused.
//! * [`rng`] — deterministic, seedable random source ([`SeededRng`]) so every
//!   figure in the evaluation is exactly reproducible.
//! * [`stats`] — measurement machinery: streaming moments
//!   ([`Accumulator`]), [`Histogram`], the paper's delay/jitter metrics
//!   ([`DelayJitterRecorder`]), warm-up gating ([`Warmup`]) and figure-series
//!   assembly ([`SweepTable`]).
//! * [`sweep`] — deterministic fan-out of independent simulation points
//!   over worker threads ([`SweepOptions`], [`point_seed`]): byte-identical
//!   output at any job count.
//!
//! # Example
//!
//! ```
//! use mmr_sim::{Bandwidth, FlitTiming};
//!
//! // The paper's headline configuration: 128-bit flits on 1.24 Gbps links.
//! let timing = FlitTiming::new(128, Bandwidth::from_gbps(1.24));
//! // A flit cycle is ~103 ns.
//! assert!((timing.cycle_time_ns() - 103.2).abs() < 0.1);
//! ```

pub mod plot;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod units;

pub use rng::SeededRng;
pub use stats::{Accumulator, DelayJitterRecorder, Histogram, SweepTable, TailSummary, Warmup};
pub use sweep::{point_seed, SweepOptions};
pub use units::{Bandwidth, Cycles, FlitTiming, SimTime};
