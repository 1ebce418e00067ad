//! Per-partition activity analysis.
//!
//! Every quantity the paper's cost formulas (1)–(3) consume is derived
//! here, per partition and per iteration:
//!
//! * the active vertex set `Ai` (ids within the partition that are in the
//!   frontier),
//! * `Σ_{v∈Ai} Do(v)` — active edge count,
//! * `Σ_{v∈Pi} Do(v)` — total edge count (static),
//! * the zero-copy request count
//!   `Σ_{v∈Ai} ⌈Do(v)·d1/m⌉ + am(v)` including misalignment.
//!
//! The paper computes these on the GPU ("the cost computation between
//! partitions is independent … transferring only the selection result
//! back"); we parallelise across partitions with scoped threads, which
//! plays the same role on the simulated platform.

use crate::par::{chunk_ranges, par_map};
use hyt_graph::{AdjacencyView, Frontier, PartitionSet, VertexId};
use hyt_sim::PcieModel;

/// Activity snapshot of one partition in one iteration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionActivity {
    /// Partition id.
    pub partition: u32,
    /// Active vertices (ascending), the paper's `Ai`.
    pub active_vertices: Vec<VertexId>,
    /// `Σ_{v∈Ai} Do(v)`.
    pub active_edges: u64,
    /// `Σ_{v∈Pi} Do(v)` — the partition's full edge count.
    pub total_edges: u64,
    /// Zero-copy outstanding-request count for `Ai`, incl. `am(v)`.
    pub zc_requests: u64,
}

impl PartitionActivity {
    /// Proportion of active edges in the partition (0 when empty).
    pub fn active_ratio(&self) -> f64 {
        if self.total_edges == 0 {
            0.0
        } else {
            self.active_edges as f64 / self.total_edges as f64
        }
    }

    /// Whether the partition has any work this iteration.
    pub fn is_active(&self) -> bool {
        !self.active_vertices.is_empty()
    }
}

/// Analyse every partition against the current frontier.
///
/// Returns one [`PartitionActivity`] per partition, in partition order.
/// The partitions are split into `threads` contiguous chunks analysed
/// concurrently ([`par_map`]). Results are
/// identical for every thread count.
pub fn analyze_partitions(
    graph: AdjacencyView<'_>,
    parts: &PartitionSet,
    frontier: &Frontier,
    pcie: &PcieModel,
    bytes_per_edge: u64,
    threads: usize,
) -> Vec<PartitionActivity> {
    par_map(chunk_ranges(parts.len(), threads), |range| {
        range
            .map(|i| analyze_one(graph, parts, frontier, pcie, bytes_per_edge, i as u32))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Analyse a single partition (the sequential kernel of
/// [`analyze_partitions`]).
pub fn analyze_one(
    graph: AdjacencyView<'_>,
    parts: &PartitionSet,
    frontier: &Frontier,
    pcie: &PcieModel,
    bytes_per_edge: u64,
    pid: u32,
) -> PartitionActivity {
    let p = parts.get(pid);
    let bpe = bytes_per_edge;
    let mut active_vertices = Vec::new();
    let mut active_edges = 0u64;
    let mut zc_requests = 0u64;
    for v in frontier.iter_range(p.first_vertex, p.end_vertex) {
        let deg = graph.out_degree(v);
        active_vertices.push(v);
        active_edges += deg;
        let start_byte = graph.edge_offset(v) * bpe;
        zc_requests += pcie.requests_for_span(start_byte, deg * bpe);
    }
    PartitionActivity {
        partition: pid,
        active_vertices,
        active_edges,
        total_edges: p.num_edges(),
        zc_requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_graph::{generators, Csr};

    fn setup() -> (Csr, PartitionSet, PcieModel) {
        let g = generators::rmat(10, 8.0, 7, true);
        let ps = PartitionSet::build_count(&g, 16);
        (g, ps, PcieModel::pcie3())
    }

    #[test]
    fn empty_frontier_means_no_activity() {
        let (g, ps, pcie) = setup();
        let f = Frontier::new(g.num_vertices());
        for a in analyze_partitions(g.view(), &ps, &f, &pcie, g.bytes_per_edge(), 4) {
            assert!(!a.is_active());
            assert_eq!(a.active_edges, 0);
            assert_eq!(a.zc_requests, 0);
            assert_eq!(a.active_ratio(), 0.0);
        }
    }

    #[test]
    fn full_frontier_covers_all_edges() {
        let (g, ps, pcie) = setup();
        let f = Frontier::full(g.num_vertices());
        let acts = analyze_partitions(g.view(), &ps, &f, &pcie, g.bytes_per_edge(), 4);
        let total: u64 = acts.iter().map(|a| a.active_edges).sum();
        assert_eq!(total, g.num_edges());
        for a in &acts {
            assert_eq!(a.active_edges, a.total_edges);
            assert!(a.total_edges == 0 || a.active_ratio() == 1.0);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let (g, ps, pcie) = setup();
        let f = Frontier::new(g.num_vertices());
        for v in (0..g.num_vertices()).step_by(3) {
            f.insert(v);
        }
        let par = analyze_partitions(g.view(), &ps, &f, &pcie, g.bytes_per_edge(), 8);
        let seq = analyze_partitions(g.view(), &ps, &f, &pcie, g.bytes_per_edge(), 1);
        assert_eq!(par, seq);
    }

    #[test]
    fn request_counts_match_paper_formula() {
        let (g, ps, pcie) = setup();
        let f = Frontier::new(g.num_vertices());
        f.insert(5);
        let acts = analyze_partitions(g.view(), &ps, &f, &pcie, g.bytes_per_edge(), 2);
        let owner = ps.owner_of(5);
        let a = &acts[owner as usize];
        let deg = g.out_degree(5);
        let bpe = g.bytes_per_edge();
        let start = g.row_offset()[5] * bpe;
        let want = pcie.requests_for_span(start, deg * bpe);
        assert_eq!(a.zc_requests, want);
        assert_eq!(a.active_vertices, vec![5]);
        assert_eq!(a.active_edges, deg);
    }

    #[test]
    fn partitions_with_no_frontier_overlap_stay_inactive() {
        let (g, ps, pcie) = setup();
        let f = Frontier::new(g.num_vertices());
        let p0 = ps.get(0);
        for v in p0.vertices() {
            f.insert(v);
        }
        let acts = analyze_partitions(g.view(), &ps, &f, &pcie, g.bytes_per_edge(), 4);
        assert!(acts[0].is_active());
        for a in &acts[1..] {
            assert!(!a.is_active());
        }
    }
}
