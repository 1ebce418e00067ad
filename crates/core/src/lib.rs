#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! HyTGraph core: hybrid transfer management with cost-aware task
//! generation and contribution-driven asynchronous scheduling.
//!
//! This crate is the paper's primary contribution, assembled from:
//!
//! * [`api`] — the push-based vertex-centric programming model and the
//!   width-aware value store (lock-free 64-bit atoms, striped wide
//!   register arrays);
//! * [`cost`] — the transfer-cost formulas (1)–(3) of Section V-A;
//! * [`select`] — Algorithm 1's engine-selection rule (α = 0.8, β = 0.4)
//!   plus the constant policies of the baseline systems;
//! * [`combine`] — the task combiner (k = 4 consecutive filter partitions,
//!   merged compaction / zero-copy sets);
//! * [`priority`] — hub-driven and Δ-driven contribution scheduling;
//! * [`exchange`] — the frontier-exchange batch encoding (id list or
//!   vertex bitmap, whichever is shorter) and its price;
//! * [`kernel`] — real host-side execution of vertex programs over exactly
//!   the edges each engine delivers;
//! * [`runner`] — the iteration driver weaving it together (Fig. 5), and
//!   the [`HyTGraphSystem`] it drives. Two private siblings hold the
//!   system's other concerns, re-exported through `runner`: `mutate`
//!   (streaming mutations, delta compaction, the sweep-price cache) and
//!   `grus` (the Grus baseline's residency, selection and pricing);
//! * [`systems`] — whole-system presets reproducing every Table V row;
//! * [`session`] — the resident multi-tenant query service: cost-priced
//!   admission control and MS-BFS-style query coalescing over one
//!   resident system;
//! * [`config`], [`stats`] — configuration and per-iteration records.
//!
//! ```
//! use hyt_core::{HyTGraphConfig, HyTGraphSystem};
//! use hyt_core::api::{EdgeCtx, InitialFrontier, VertexProgram};
//! use hyt_graph::GraphBuilder;
//!
//! // A toy connected-components program (label propagation by min-id).
//! struct MiniCc;
//! impl VertexProgram for MiniCc {
//!     type Value = u32;
//!     fn init(&self, v: u32) -> u32 { v }
//!     fn initial_frontier(&self) -> InitialFrontier { InitialFrontier::All }
//!     fn message(&self, seed: u32, _: EdgeCtx) -> Option<u32> { Some(seed) }
//!     fn accumulate(&self, s: u32, m: u32) -> Option<u32> { (m < s).then_some(m) }
//! }
//!
//! let g = GraphBuilder::rmat(8, 4.0).seed(3).build();
//! let mut sys = HyTGraphSystem::new(g, HyTGraphConfig::default());
//! let result = sys.run(MiniCc);
//! assert_eq!(result.values.len(), sys.num_vertices() as usize);
//! ```

pub mod api;
pub mod combine;
pub mod config;
pub mod cost;
pub mod exchange;
mod grus;
pub mod kernel;
mod mutate;
pub mod priority;
pub mod runner;
pub mod select;
pub mod session;
pub mod stats;
pub mod systems;

pub use api::{
    EdgeCtx, F32Pair, InitialFrontier, PriorityMode, ValueLayout, Values, VertexProgram,
    VertexValue, MAX_VALUE_LANES,
};
pub use config::{AsyncMode, HyTGraphConfig};
pub use cost::{partition_costs_sized, PartitionCosts};
pub use hyt_engines::EngineKind;
pub use hyt_sim::{HostPorts, Interconnect, LinkSpec, Route, TopologyKind};
pub use runner::{HyTGraphSystem, MutationReport, COMPACTION_HORIZON_ITERS};
pub use select::{SelectParams, Selection};
pub use session::{
    Admission, CohortOutcome, CompletedQuery, CostQuote, MutationOutcome, QueryId, QueryKind,
    QueryOutput, QueryShape, QueryStats, RejectReason, SessionBackend, SessionConfig,
    SessionService, SessionStats,
};
pub use stats::{DeviceIterationStats, EngineMix, ExchangeStats, IterationStats, RunResult};
pub use systems::SystemKind;
