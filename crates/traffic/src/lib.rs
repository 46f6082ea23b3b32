//! Workload generation and experiment driving for the MMR evaluation.
//!
//! The paper's simulation study (§5) runs constant-bit-rate connections with
//! rates "randomly selected from the set (64 Kbps … 120 Mbps) and assigned
//! to random input and output ports". This crate builds those workloads and
//! the measurement loop around them:
//!
//! * [`rates`] — the nine-rate ladder and scaled variants.
//! * [`cbr`] — the CBR slot clock, paced CBR sources and load-targeted
//!   workload construction.
//! * [`vbr`] — a synthetic MPEG-2 GoP model for VBR traffic (the paper's
//!   follow-up workload; see DESIGN.md for the substitution note).
//! * [`besteffort`] — Poisson single-flit control/best-effort packets.
//! * [`calls`] — call-level connection arrivals/departures for admission
//!   (blocking-probability) studies.
//! * [`driver`] — the warm-up + measure experiment procedure producing the
//!   delay/jitter/utilization numbers of Figures 3–5.
//!
//! # Example
//!
//! ```
//! use mmr_core::router::RouterConfig;
//! use mmr_traffic::driver::Experiment;
//!
//! // One quick point of the delay-vs-load curve.
//! let result = Experiment::new(RouterConfig::paper_default().vcs_per_port(32), 0.4)
//!     .windows(500, 2_000)
//!     .run();
//! assert!(result.offered_load > 0.3);
//! assert!(result.flits_measured > 0);
//! ```

pub mod besteffort;
pub mod calls;
pub mod cbr;
pub mod churn;
pub mod driver;
pub mod rates;
pub mod vbr;

pub use besteffort::PoissonPacketSource;
pub use calls::{run_calls, CallStats, CallWorkload};
pub use churn::{
    ChurnConfig, ChurnEvent, ChurnEventKind, ChurnSchedule, DiurnalCurve, SessionClass,
    SessionPlan,
};
pub use cbr::{CbrSource, CbrWorkload, SlotClock};
pub use driver::{Experiment, ExperimentResult, RateClassResult};
pub use rates::{paper_rate_ladder, scaled_rate_ladder};
pub use vbr::{FrameType, MpegGopModel, VbrSource, GOP_PATTERN};
