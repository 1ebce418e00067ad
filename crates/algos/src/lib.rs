#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Graph algorithms as HyTGraph vertex programs.
//!
//! The paper evaluates four algorithms spanning both behavioural families
//! (Section III): *traversal / value-replacement* (SSSP, BFS, CC — active
//! sets swell then drain) and *iterative / value-accumulation* (PageRank —
//! active sets shrink monotonically). PHP, mentioned alongside Δ-PageRank
//! in Section VI-A, is included as the second Δ-accumulative algorithm.
//!
//! | program | value | fold | frontier start | priority |
//! |---|---|---|---|---|
//! | [`Sssp`] | distance `u32` | min | source | hub |
//! | [`Bfs`] | depth `u32` | min | source | hub |
//! | [`Cc`] | label `u32` | min | all | hub |
//! | [`PageRank`] | `(rank, Δ)` f32×2 | Δ-add | all | Δ |
//! | [`Php`] | `(score, Δ)` f32×2 | Δ-add | source | Δ |
//! | [`HyperBall`] | 64 HLL registers (8 lanes) | register max | all | hub |
//! | [`MultiBfs`]`/`[`MultiSssp`] | `B` distances, 2 per lane | per-lane min | the `B` sources | hub |
//!
//! HyperBall is the first member of the sketch-analytics family enabled
//! by the width-aware value layer: its per-vertex state is a 64-byte
//! register array rather than a 64-bit atom, and its fold is an
//! idempotent merge rather than a semiring min/add.
//!
//! [`multi_source`] batches `B` concurrent traversals into one MS-BFS
//! style run on the same value layer — each lane converges to its serial
//! run's values bit-for-bit — and [`session`] plugs those batches into
//! `hyt_core`'s resident query service as its algorithm backend.
//!
//! [`reference`](mod@reference) holds simple, obviously-correct
//! sequential oracles; every program's converged output is tested
//! against its oracle.

pub mod bfs;
pub mod cc;
pub mod hyperball;
pub mod multi_source;
pub mod pagerank;
pub mod php;
pub mod reference;
pub mod session;
pub mod sssp;

pub use bfs::Bfs;
pub use cc::Cc;
pub use hyperball::{
    run_hyperball, run_hyperball_with, HllSketch, HllValue, HyperBall, HyperBallP, HyperBallResult,
    HLL_RSE,
};
pub use multi_source::{lane_values, MultiBfs, MultiDist, MultiSssp};
pub use pagerank::PageRank;
pub use php::Php;
pub use session::AlgoBackend;
pub use sssp::Sssp;

/// Distance value for unreachable vertices (SSSP, BFS).
pub const UNREACHED: u32 = u32::MAX;

/// The four paper algorithms plus PHP, for harness dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgoKind {
    /// PageRank (Δ-accumulative).
    PageRank,
    /// Single-source shortest paths.
    Sssp,
    /// Connected components (min-label propagation).
    Cc,
    /// Breadth-first search.
    Bfs,
    /// Penalised hitting probability (Δ-accumulative, weighted).
    Php,
    /// HyperBall neighbourhood-function sketching (wide idempotent merge).
    HyperBall,
}

impl AlgoKind {
    /// The paper's Table V rows, in order.
    pub const TABLE5: [AlgoKind; 4] =
        [AlgoKind::PageRank, AlgoKind::Sssp, AlgoKind::Cc, AlgoKind::Bfs];

    /// Paper-style short name.
    pub fn name(&self) -> &'static str {
        match self {
            AlgoKind::PageRank => "PR",
            AlgoKind::Sssp => "SSSP",
            AlgoKind::Cc => "CC",
            AlgoKind::Bfs => "BFS",
            AlgoKind::Php => "PHP",
            AlgoKind::HyperBall => "HB",
        }
    }

    /// Parse a short name (case-insensitive).
    pub fn parse(s: &str) -> Option<AlgoKind> {
        match s.to_ascii_uppercase().as_str() {
            "PR" | "PAGERANK" => Some(AlgoKind::PageRank),
            "SSSP" => Some(AlgoKind::Sssp),
            "CC" => Some(AlgoKind::Cc),
            "BFS" => Some(AlgoKind::Bfs),
            "PHP" => Some(AlgoKind::Php),
            "HB" | "HYPERBALL" => Some(AlgoKind::HyperBall),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for a in [
            AlgoKind::PageRank,
            AlgoKind::Sssp,
            AlgoKind::Cc,
            AlgoKind::Bfs,
            AlgoKind::Php,
            AlgoKind::HyperBall,
        ] {
            assert_eq!(AlgoKind::parse(a.name()), Some(a));
        }
        assert_eq!(AlgoKind::parse("pagerank"), Some(AlgoKind::PageRank));
        assert_eq!(AlgoKind::parse("xyz"), None);
    }
}
