#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Graph substrate for HyTGraph-RS.
//!
//! Everything the transfer-management layers sit on top of lives here:
//!
//! * [`Csr`] — compressed sparse row storage with optional edge weights.
//!   The paper keeps vertex-associated data (values, `row_offset`, activity
//!   bitmaps) resident in GPU memory and the edge-associated arrays
//!   (`col_index`, `edge_weight`) in host memory; the split is mirrored by
//!   the simulator crate.
//! * [`EdgeList`] and [`GraphBuilder`] — construction from explicit edges or
//!   from the seeded synthetic generators (RMAT, Erdős–Rényi, power-law
//!   chains) in [`generators`].
//! * [`datasets`] — deterministic scaled-down proxies of the paper's five
//!   real-world graphs (SK, TW, FK, UK, FS) plus the RMAT sweep of Fig. 9.
//! * [`DeltaCsr`] — streaming mutations: an immutable base CSR plus
//!   per-partition append-only delta segments (inserts, tombstoned
//!   deletes, degree overlays), a unified adjacency iterator
//!   ([`AdjacencyView`]), and a fold back into a fresh base.
//! * [`error`] — the typed [`GraphError`] every construction and
//!   mutation path reports through.
//! * [`partition`] — chunk-based edge-balanced partitioning (Section IV).
//! * [`placement`] — stubs of the retired placement planners, kept for
//!   the frozen `wall` harness. Placement itself is the positional
//!   [`DevicePlan::build`], fixed per partition set.
//! * [`hub_sort`](mod@hub_sort) — hub gathering by `H(v) = Do·Di / (Domax·Dimax)`
//!   (Section VI-A, formula 4).
//! * [`frontier`] — atomic bitmap frontiers with dense/sparse iteration.
//! * [`DegreeStats`] — degree statistics and the bucketed distribution of
//!   Fig. 3(f).
//! * [`io`] — binary CSR and text edge-list (de)serialisation.

pub mod csr;
pub mod datasets;
mod degree;
mod delta_csr;
mod edgelist;
pub mod error;
pub mod frontier;
pub mod generators;
pub mod hub_sort;
pub mod io;
pub mod partition;
pub mod placement;

pub use csr::{Csr, CsrBuilder};
pub use datasets::{Dataset, DatasetId};
// hyt-lint: allow(unreached-pub) -- the one path to a type named in `DegreeStats`
pub use degree::DegreeBucket;
pub use degree::DegreeStats;
pub use delta_csr::{AdjacencyView, DeltaCsr, EdgeOp, MutationBatch};
// hyt-lint: allow(unreached-pub) -- the one path to the return type of `DeltaCsr::edges_of`
pub use delta_csr::DeltaEdges;
pub use edgelist::EdgeList;
pub use error::{GraphError, MAX_EDGE_MULTIPLICITY};
pub use frontier::Frontier;
pub use generators::GraphBuilder;
pub use hub_sort::{hub_sort, HubSortResult};
pub use partition::{DeviceAssignment, DevicePlan, PartitionSet, COMBINE_RUN};

/// Vertex identifier. The paper assumes 4-byte vertex ids (`d1 = 4`), and so
/// do we: all cost-model arithmetic uses `size_of::<VertexId>()`.
pub type VertexId = u32;

/// Edge weight type. Weighted algorithms (SSSP, PHP) read this; unweighted
/// ones ignore it.
pub type Weight = u32;

/// Number of bytes one neighbour entry occupies in the edge array
/// (the paper's `d1`).
pub const NEIGHBOR_BYTES: u64 = std::mem::size_of::<VertexId>() as u64;

/// Number of bytes one compacted-index entry occupies (the paper's `d2`):
/// ExpTM-compaction ships a `(vertex, offset)` pair per active vertex so the
/// kernel can address the relocated neighbour runs.
pub const INDEX_BYTES: u64 = 8;
