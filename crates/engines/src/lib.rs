#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The four host→GPU transfer engines (Section II-B/C of the paper).
//!
//! An engine answers one question per scheduled task: *how do the active
//! edges of these partitions reach the GPU, at what simulated cost, and in
//! what form does the kernel consume them?* The four answers:
//!
//! | engine | mechanism | granularity | redundancy |
//! |---|---|---|---|
//! | [`filter`] (ExpTM-F) | `cudaMemcpy` whole partitions | partition | inactive edges of shipped partitions |
//! | [`compaction`] (ExpTM-C) | CPU gathers active edges, then `cudaMemcpy` | exact | none (pays CPU gather) |
//! | [`zero_copy`] (ImpTM-ZC) | on-demand cacheline reads over PCIe TLPs | 128 B request | cacheline padding, unsaturated TLPs |
//! | [`unified`] (ImpTM-UM) | page-fault migration with LRU residency | 4 KB page | page padding, refault thrash |
//!
//! Engines *price*: from a task's [`PartitionActivity`] records they
//! compute the byte/TLP/page traffic and the simulated phase times, and
//! return them as a [`TaskPlan`] — a pure price that carries no data. The
//! one delivery primitive is [`compaction::compact`], the real gather of
//! ExpTM-compaction; the other three engines deliver the host adjacency as
//! it is. Delivery and execution — gathering once per combined task,
//! running the vertex program over the delivered edges, scheduling the
//! priced phases on CUDA streams — belong to `hyt-core`. [`par`] is the
//! scoped-thread helper both crates split their parallel loops with.

pub mod activity;
pub mod compaction;
pub mod filter;
pub mod par;
pub mod plan;
pub mod unified;
pub mod zero_copy;

pub use activity::{analyze_one, analyze_partitions, PartitionActivity};
pub use compaction::CompactedSubgraph;
pub use par::{chunk_ranges, par_map};
pub use plan::{EngineKind, TaskPlan};
pub use unified::UnifiedState;
