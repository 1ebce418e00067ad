#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # HyTGraph-RS
//!
//! A from-scratch Rust reproduction of **HyTGraph: GPU-Accelerated Graph
//! Processing with Hybrid Transfer Management** (Wang, Ai, Zhang, Chen, Yu —
//! ICDE 2023, arXiv:2208.14935).
//!
//! Processing a graph that exceeds GPU device memory forces edge data across
//! the host–GPU bus every iteration, and the bus (PCIe) is ~50× slower than
//! GPU memory. Existing frameworks pick one transfer-management strategy:
//!
//! * **ExpTM-filter** — ship whole partitions that contain any active edge
//!   via explicit copy (`cudaMemcpy`); fast bulk bandwidth, lots of
//!   redundant bytes.
//! * **ExpTM-compaction** (Subway) — CPU gathers only active edges into a
//!   fresh compact array first; minimal bytes, heavy CPU cost.
//! * **ImpTM-unified-memory** — page-granular on-demand migration; great
//!   when the graph fits, page-fault-bound when it does not.
//! * **ImpTM-zero-copy** (EMOGI) — cacheline-granular on-demand access over
//!   PCIe TLPs; great for sparse high-degree frontiers, wastes bus capacity
//!   on unsaturated requests otherwise.
//!
//! HyTGraph's contribution is a **hybrid**: per partition, per iteration, it
//! evaluates closed-form transfer-cost formulas for the candidate engines and
//! schedules each partition with the cheapest one, then combines tasks and
//! orders them by expected contribution to convergence.
//!
//! This crate is a facade that re-exports the workspace:
//!
//! * [`graph`] — CSR storage, generators, partitioning, hub sorting,
//!   frontiers ([`hyt_graph`]).
//! * [`sim`] — the transaction-level PCIe/GPU/unified-memory simulator that
//!   substitutes for real hardware ([`hyt_sim`]).
//! * [`engines`] — the four transfer engines ([`hyt_engines`]).
//! * [`core`] — cost model, engine selection, task combining, asynchronous
//!   contribution-driven scheduling, and whole-system configurations
//!   ([`hyt_core`]).
//! * [`algos`] — SSSP, BFS, CC, PageRank, PHP and HyperBall vertex
//!   programs plus sequential oracles, MS-BFS-style multi-source batches,
//!   and the session-service backend ([`hyt_algos`]).
//!
//! For serving many point queries against one resident graph — priced
//! admission control and automatic query coalescing — see
//! [`core::session`] and `examples/session_service.rs`.
//!
//! ## Quickstart
//!
//! ```
//! use hytgraph::prelude::*;
//!
//! // A small social-network-like graph, weighted, seeded (deterministic).
//! let graph = GraphBuilder::rmat(12, 16.0).seed(42).weighted(true).build();
//! let mut system = HyTGraphSystem::new(graph, HyTGraphConfig::default());
//! let result = system.run(Sssp::from_source(0));
//! assert_eq!(result.values.len(), system.num_vertices() as usize);
//! ```
//!
//! See `examples/` for domain scenarios and `crates/bench` for the
//! experiment harness that regenerates every table and figure in the paper.

pub use hyt_algos as algos;
pub use hyt_core as core;
pub use hyt_engines as engines;
pub use hyt_graph as graph;
pub use hyt_sim as sim;

/// Convenience re-exports covering the common public API surface.
pub mod prelude {
    pub use hyt_algos::{
        lane_values, run_hyperball, AlgoBackend, Bfs, Cc, HyperBall, MultiBfs, MultiSssp, PageRank,
        Php, Sssp,
    };
    pub use hyt_core::{
        Admission, AsyncMode, EngineKind, HyTGraphConfig, HyTGraphSystem, QueryKind, QueryOutput,
        RunResult, SessionConfig, SessionService, SystemKind,
    };
    pub use hyt_graph::{Csr, GraphBuilder, VertexId};
    pub use hyt_sim::GpuModel;
}
