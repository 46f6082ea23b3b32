//! The MultiMedia Router (MMR) — a reproduction of Duato, Yalamanchili,
//! Caminero, Love and Quiles, *"MMR: A High-Performance Multimedia Router —
//! Architecture and Design Trade-Offs"* (HPCA 1999).
//!
//! The MMR is a single-chip cut-through router for cluster/LAN multimedia
//! traffic. Its distinguishing features, all modelled here:
//!
//! * **Hybrid switching** — pipelined circuit switching for long QoS streams
//!   combined with virtual cut-through for control and best-effort packets
//!   ([`flit`], [`router::Router::inject_packet`]).
//! * **Virtual channel memory** — hundreds of virtual channels per input
//!   port stored in interleaved RAM banks ([`vcm`]).
//! * **Multiplexed crossbar** — as many switch ports as physical links
//!   ([`crossbar`]), synchronous flit cycles.
//! * **Bandwidth allocation & admission control** — CBR and VBR reservation
//!   registers per output link with a concurrency factor ([`bandwidth`]).
//! * **Coordinated link + switch scheduling** — per-port candidate sets
//!   selected with status bit vectors ([`linksched`]) and an input-driven
//!   switch scheduler ([`switchsched`]) arbitrating with dynamically
//!   *biased priorities* ([`arbiter`]).
//! * **Hardware feasibility** — gate-delay and silicon-area estimates for
//!   the §6 timing budget ([`cost`]).
//!
//! # Quickstart
//!
//! ```
//! use mmr_core::arbiter::ArbiterKind;
//! use mmr_core::conn::{ConnectionRequest, QosClass};
//! use mmr_core::ids::PortId;
//! use mmr_core::router::RouterConfig;
//! use mmr_sim::{Bandwidth, Cycles};
//!
//! // The paper's 8×8 router with biased-priority scheduling.
//! let mut router = RouterConfig::paper_default()
//!     .arbiter(ArbiterKind::BiasedPriority)
//!     .candidates(8)
//!     .seed(7)
//!     .build();
//!
//! // Establish a 55 Mbps CBR connection from port 0 to port 5.
//! let conn = router.establish(ConnectionRequest {
//!     input: PortId(0),
//!     output: PortId(5),
//!     class: QosClass::Cbr { rate: Bandwidth::from_mbps(55.0) },
//! })?;
//!
//! // Inject a flit and run one flit cycle.
//! router.inject(conn, Cycles(0))?;
//! let report = router.step(Cycles(0));
//! assert_eq!(report.transmitted.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod arbiter;
pub mod audit;
pub mod bandwidth;
pub mod conn;
pub mod cost;
pub mod crossbar;
pub mod flit;
pub mod footprint;
pub mod ids;
pub mod linksched;
pub mod llr;
pub mod router;
pub mod switchsched;
pub mod table;
pub mod vcm;

pub use arbiter::{ArbiterKind, Candidate, ServicePhase};
pub use audit::{AuditConfig, AuditViolation, Auditor, VcSide};
pub use bandwidth::{AdmissionError, Allocation, LinkBandwidthBook, RoundConfig};
pub use conn::{ConnState, ConnectionRequest, ConnectionTable, QosClass};
pub use cost::CostModel;
pub use crossbar::Crossbar;
pub use flit::{CommandWord, Flit, FlitKind};
pub use ids::{ConnRef, ConnectionId, PortId, VcIndex, VcRef};
pub use linksched::CandidatePolicy;
pub use llr::{LlrConfig, LlrFrame, LlrReceiver, LlrSender, LlrSignal, RxDiscard, RxOutcome};
pub use router::{
    ConfigError, EstablishError, InjectError, PacketError, PacketOutcome, Router, RouterConfig,
    RouterStats, StepReport, Transmitted,
};
pub use switchsched::{is_valid_matching, MatchedPair, SwitchScheduler};
pub use table::{OutputSet, PortMap, VcMap};
pub use vcm::{BankTimingModel, VcmError, VirtualChannelMemory};
