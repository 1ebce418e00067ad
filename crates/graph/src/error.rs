//! Typed errors for malformed graph input and streaming mutations.
//!
//! A `debug_assert!` vanishes in release builds and lets bad input
//! silently corrupt the CSR, and an ad-hoc `String` cannot be matched
//! on, so everything user-facing funnels through [`GraphError`]:
//! out-of-range endpoints, duplicate-edge overflow, deletions of absent
//! edges, and located parse/format problems.

use crate::{VertexId, Weight};
use std::fmt;

/// Maximum multiplicity of a single `(src, dst)` duplicate-edge group a
/// checked conversion accepts. Real web crawls carry duplicates, but a
/// multiplicity at this scale is always a corrupt or adversarial input —
/// and the counting structures downstream (degree overlays, per-vertex
/// delta slots) index duplicate groups with 32-bit cursors.
pub const MAX_EDGE_MULTIPLICITY: u64 = 1 << 16;

/// A typed graph-construction or mutation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint is outside the declared vertex id space.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The declared id space (`0..num_vertices`).
        num_vertices: u32,
    },
    /// One `(src, dst)` pair repeats more than [`MAX_EDGE_MULTIPLICITY`]
    /// times.
    DuplicateEdgeOverflow {
        /// Source endpoint of the overflowing group.
        src: VertexId,
        /// Destination endpoint of the overflowing group.
        dst: VertexId,
        /// Observed multiplicity.
        multiplicity: u64,
    },
    /// A deletion named an edge that is not (or no longer) present.
    MissingEdge {
        /// Source endpoint of the absent edge.
        src: VertexId,
        /// Destination endpoint of the absent edge.
        dst: VertexId,
    },
    /// A weighted op was applied to an unweighted graph where the weight
    /// cannot be represented (reserved for future use) — or vice versa.
    WeightMismatch {
        /// Source endpoint of the offending edge.
        src: VertexId,
        /// Destination endpoint of the offending edge.
        dst: VertexId,
        /// The weight that could not be applied.
        weight: Weight,
    },
    /// A text edge-list line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A binary CSR payload is malformed (bad magic/version/lengths or
    /// violated CSR invariants).
    Format {
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, num_vertices } => {
                write!(f, "vertex {vertex} out of range (|V| = {num_vertices})")
            }
            GraphError::DuplicateEdgeOverflow { src, dst, multiplicity } => write!(
                f,
                "edge ({src}, {dst}) repeated {multiplicity} times \
                 (max {MAX_EDGE_MULTIPLICITY})"
            ),
            GraphError::MissingEdge { src, dst } => {
                write!(f, "edge ({src}, {dst}) not present")
            }
            GraphError::WeightMismatch { src, dst, weight } => {
                write!(f, "weight {weight} cannot be applied to edge ({src}, {dst})")
            }
            GraphError::Parse { line, reason } => write!(f, "line {line}: {reason}"),
            GraphError::Format { reason } => write!(f, "bad binary CSR: {reason}"),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = GraphError::VertexOutOfRange { vertex: 9, num_vertices: 4 };
        assert!(e.to_string().contains("vertex 9"));
        let e = GraphError::MissingEdge { src: 1, dst: 2 };
        assert!(e.to_string().contains("(1, 2)"));
        let e = GraphError::Parse { line: 3, reason: "bad src".into() };
        assert!(e.to_string().starts_with("line 3"));
    }
}
