#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The evaluation harness: one runner per table and figure of the paper.
//!
//! Every experiment of Section VII (plus Tables I/II from the front
//! matter) has a module under [`experiments`] that regenerates the same
//! rows/series the paper reports, on the scaled proxy datasets and the
//! simulated 2080Ti platform. `repro check` asserts the paper's shape
//! claims in code; `BENCH_CHECK.txt` at the repository root records their
//! evidence.
//!
//! Run them through the `repro` binary:
//!
//! ```text
//! cargo run --release -p hyt-bench --bin repro -- table5
//! cargo run --release -p hyt-bench --bin repro -- all
//! ```

pub mod check;
pub mod context;
pub mod experiments;
pub mod table;

pub use context::{run_algo, source_vertex, Ctx, RunMetrics};
pub use table::Table;
