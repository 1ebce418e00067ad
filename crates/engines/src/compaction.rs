//! ExpTM-compaction: CPU-side active-edge gathering (Subway's engine).
//!
//! Before transfer, the host CPU walks the active vertices, copies each
//! one's neighbour run (and weights) into a fresh contiguous array, and
//! builds a compressed index so the kernel can address the relocated runs.
//! The result is minimal transfer volume
//! `Σ_{v∈Ai} Do(v)·d1 + |Ai|·d2` (formula (2)'s numerator) at the price of
//! real CPU and memory-bandwidth work.
//!
//! The engine is a pair. [`price_compaction_sized`] prices a task from
//! the activity sums alone (the gathered volume is closed-form). The
//! gather itself is *real* and is the engines' one delivery primitive:
//! [`compact`] produces an actual [`CompactedSubgraph`] with the relocated
//! arrays, built in parallel by range-splitting the active list across
//! scoped threads (each thread owns a disjoint output range computed by a
//! prefix sum, so no locks are needed). `hyt-core` gathers once per
//! combined task and its kernel executes the vertex program against this
//! structure — if the gather were wrong, algorithm results would be wrong
//! and the oracle tests would catch it.

use crate::activity::PartitionActivity;
use crate::par::{chunk_ranges, par_map};
use crate::plan::{EngineKind, TaskPlan};
use hyt_graph::{AdjacencyView, VertexId, Weight, INDEX_BYTES};
use hyt_sim::MachineModel;
use std::ops::Range;

/// A compacted subgraph: the active vertices' neighbour runs relocated
/// into contiguous arrays, plus the index for addressing them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactedSubgraph {
    /// Global ids of the gathered vertices (ascending).
    pub vertices: Vec<VertexId>,
    /// Prefix offsets into [`CompactedSubgraph::col_index`]:
    /// entry `i` owns `col_index[offsets[i]..offsets[i+1]]`.
    pub offsets: Vec<u64>,
    /// Relocated neighbour ids.
    pub col_index: Vec<VertexId>,
    /// Relocated weights (present iff the source graph is weighted).
    pub weights: Option<Vec<Weight>>,
}

impl CompactedSubgraph {
    /// Number of gathered vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when nothing was gathered.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Total relocated edges.
    pub fn num_edges(&self) -> u64 {
        self.col_index.len() as u64
    }

    /// `(neighbor, weight)` pairs of local entry `i` (weight 1 when
    /// unweighted), mirroring [`hyt_graph::Csr::edges_of`].
    pub fn edges_of(&self, i: usize) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let range = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        let nbrs = &self.col_index[range.clone()];
        let ws = self.weights.as_ref().map(|w| &w[range]);
        nbrs.iter().enumerate().map(move |(k, &n)| (n, ws.map_or(1, |w| w[k])))
    }

    /// Bytes this structure occupies on the bus: relocated edge data plus
    /// the index (`d2` per gathered vertex).
    pub fn transfer_bytes(&self, bytes_per_edge: u64) -> u64 {
        self.num_edges() * bytes_per_edge + self.len() as u64 * INDEX_BYTES
    }
}

/// Gather the neighbour runs of `active` (global ids) from `graph` into a
/// fresh compacted subgraph, in parallel over `threads` workers. The
/// gather reads through the [`AdjacencyView`], so a mutated graph's live
/// runs (base minus tombstones plus delta inserts) relocate exactly as a
/// plain CSR's would.
pub fn compact(graph: AdjacencyView<'_>, active: &[VertexId], threads: usize) -> CompactedSubgraph {
    let n = active.len();
    // Prefix-sum the output layout first.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u64);
    let mut running = 0u64;
    for &v in active {
        running += graph.out_degree(v);
        offsets.push(running);
    }
    let total = running as usize;
    let mut col_index = vec![0 as VertexId; total];
    let mut weights = graph.is_weighted().then(|| vec![0 as Weight; total]);

    let ranges = chunk_ranges(n, threads);
    let col_chunks = split_at_offsets(&mut col_index, &offsets, &ranges);
    let mut weight_chunks =
        weights.as_mut().map(|w| split_at_offsets(w, &offsets, &ranges).into_iter());
    let jobs: Vec<_> = ranges
        .into_iter()
        .zip(col_chunks)
        .map(|(range, cols)| (range, cols, weight_chunks.as_mut().and_then(Iterator::next)))
        .collect();
    par_map(jobs, |(range, cols, mut ws)| {
        let mut cursor = 0usize;
        for i in range {
            let run_len = (offsets[i + 1] - offsets[i]) as usize;
            let mut k = cursor;
            for (n, w) in graph.edges_of(active[i]) {
                cols[k] = n;
                if let Some(wv) = ws.as_mut() {
                    wv[k] = w;
                }
                k += 1;
            }
            debug_assert_eq!(k, cursor + run_len, "live run length drifted mid-gather");
            cursor += run_len;
        }
    });

    CompactedSubgraph { vertices: active.to_vec(), offsets, col_index, weights }
}

/// Split `data` into one mutable slice per vertex range, cut at the edge
/// offsets of the range boundaries (`ranges` contiguous from 0).
fn split_at_offsets<'a, T>(
    data: &'a mut [T],
    offsets: &[u64],
    ranges: &[Range<usize>],
) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut rest = data;
    for r in ranges {
        let (head, tail) = rest.split_at_mut((offsets[r.end] - offsets[r.start]) as usize);
        out.push(head);
        rest = tail;
    }
    out
}

/// Price an ExpTM-compaction task from the activity sums alone. The
/// active sets of all partitions are merged into one task (the paper's
/// task combiner pre-combines compaction partitions on the GPU,
/// Algorithm 1 line 6).
///
/// The gathered volume is closed-form — `Σ_{v∈Ai} Do(v)·d1 + |Ai|·d2` —
/// so the priced bytes equal the `transfer_bytes` of the subgraph
/// [`compact`] materialises over the same active set (a unit test asserts
/// it). The multi-device runner prices each device's *slice* of a combined
/// compaction task with this while the real gather (which feeds the
/// kernel) happens once for the whole task.
///
/// For programs whose per-vertex value is wider than the narrow 8-byte
/// slot the gather additionally stages `value_surplus` bytes of value
/// payload per active vertex (the program's
/// `ValueLayout::compaction_surplus`), matching what cost formula (2)
/// charged when this engine was selected. Zero for narrow programs.
pub fn price_compaction_sized(
    machine: &MachineModel,
    acts: &[&PartitionActivity],
    bytes_per_edge: u64,
    value_surplus: u64,
) -> TaskPlan {
    let active: u64 = acts.iter().map(|a| a.active_vertices.len() as u64).sum();
    let mut plan = TaskPlan::over(EngineKind::ExpCompaction, machine, acts);
    let bytes = plan.active_edges * bytes_per_edge + active * (INDEX_BYTES + value_surplus);
    plan.cpu_time = machine.compaction_time(bytes);
    plan.transfer_time = machine.pcie.explicit_copy_time(bytes);
    plan.counters.explicit_bytes = bytes;
    plan.counters.tlps = machine.pcie.explicit_copy_tlps(bytes);
    plan.counters.compaction_bytes = bytes;
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_graph::{generators, Frontier, PartitionSet};
    use hyt_sim::{PcieModel, TransferCounters};

    #[test]
    fn compacted_edges_match_source() {
        let g = generators::rmat(9, 8.0, 3, true);
        let active: Vec<u32> = (0..g.num_vertices()).step_by(5).collect();
        let c = compact(g.view(), &active, 4);
        assert_eq!(c.len(), active.len());
        for (i, &v) in active.iter().enumerate() {
            let want: Vec<_> = g.edges_of(v).collect();
            let got: Vec<_> = c.edges_of(i).collect();
            assert_eq!(got, want, "vertex {v}");
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let g = generators::rmat(10, 6.0, 9, true);
        let active: Vec<u32> = (0..g.num_vertices()).filter(|v| v % 3 == 0).collect();
        let seq = compact(g.view(), &active, 1);
        let par = compact(g.view(), &active, 8);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_active_set() {
        let g = generators::rmat(8, 4.0, 1, false);
        let c = compact(g.view(), &[], 4);
        assert!(c.is_empty());
        assert_eq!(c.num_edges(), 0);
        assert_eq!(c.transfer_bytes(4), 0);
    }

    #[test]
    fn transfer_bytes_formula_matches_paper() {
        // Formula (2): Σ Do(v)·d1 + |Ai|·d2.
        let g = generators::rmat(8, 4.0, 2, false); // unweighted: d1 = 4
        let active = vec![1u32, 5, 9];
        let c = compact(g.view(), &active, 2);
        let sum_deg: u64 = active.iter().map(|&v| g.out_degree(v)).sum();
        assert_eq!(c.transfer_bytes(4), sum_deg * 4 + 3 * INDEX_BYTES);
    }

    /// Every `step`-th vertex active over 8 partitions: the graph, the
    /// active partitions' records, and the merged active list.
    fn sparse_activity(
        seed: u64,
        step: usize,
    ) -> (hyt_graph::Csr, Vec<PartitionActivity>, Vec<VertexId>) {
        let g = generators::rmat(9, 8.0, seed, true);
        let ps = PartitionSet::build_count(&g, 8);
        let f = Frontier::new(g.num_vertices());
        for v in (0..g.num_vertices()).step_by(step) {
            f.insert(v);
        }
        let acts = crate::activity::analyze_partitions(
            g.view(),
            &ps,
            &f,
            &PcieModel::pcie3(),
            g.bytes_per_edge(),
            4,
        );
        let active = f.to_vec();
        (g, acts.into_iter().filter(PartitionActivity::is_active).collect(), active)
    }

    #[test]
    fn price_compaction_matches_materialised_gather() {
        let (g, acts, active) = sparse_activity(11, 5);
        let refs: Vec<_> = acts.iter().collect();
        let machine = MachineModel::paper_platform();
        let gathered = compact(g.view(), &active, 4);
        let bytes = gathered.transfer_bytes(g.bytes_per_edge());
        let priced = price_compaction_sized(&machine, &refs, g.bytes_per_edge(), 0);
        assert_eq!(priced.cpu_time, machine.compaction_time(bytes));
        assert_eq!(priced.transfer_time, machine.pcie.explicit_copy_time(bytes));
        assert_eq!(priced.kernel_time, machine.kernel.kernel_time(gathered.num_edges()));
        let want = TransferCounters {
            explicit_bytes: bytes,
            tlps: machine.pcie.explicit_copy_tlps(bytes),
            compaction_bytes: bytes,
            kernel_edges: gathered.num_edges(),
            kernel_launches: 1,
            ..Default::default()
        };
        assert_eq!(priced.counters, want);
        assert_eq!(priced.active_edges, acts.iter().map(|a| a.active_edges).sum::<u64>());
    }

    #[test]
    fn value_surplus_adds_per_active_vertex_bytes() {
        let (g, acts, active) = sparse_activity(11, 7);
        let refs: Vec<_> = acts.iter().collect();
        let machine = MachineModel::paper_platform();
        let narrow = price_compaction_sized(&machine, &refs, g.bytes_per_edge(), 0);
        // A 64-byte-wire sketch stages 56 extra bytes per active vertex.
        let wide = price_compaction_sized(&machine, &refs, g.bytes_per_edge(), 56);
        let extra = active.len() as u64 * 56;
        assert_eq!(wide.counters.explicit_bytes, narrow.counters.explicit_bytes + extra);
        assert_eq!(wide.counters.compaction_bytes, narrow.counters.compaction_bytes + extra);
        // Transfer time can only grow (it may tie when the extra bytes
        // stay within the same TLP quantum); the kernel is untouched.
        assert!(wide.transfer_time >= narrow.transfer_time);
        assert_eq!(wide.kernel_time, narrow.kernel_time);
    }

    #[test]
    fn plan_merges_partitions_and_prices_phases() {
        let (g, acts, active) = sparse_activity(5, 7);
        let refs: Vec<_> = acts.iter().collect();
        let machine = MachineModel::paper_platform();
        let plan = price_compaction_sized(&machine, &refs, g.bytes_per_edge(), 0);
        assert_eq!(plan.kind, EngineKind::ExpCompaction);
        assert!(plan.cpu_time > 0.0);
        assert!(plan.transfer_time > 0.0);
        assert!(plan.kernel_time > 0.0);
        let c = compact(g.view(), &active, 4);
        assert_eq!(c.len(), active.len());
        assert_eq!(c.num_edges(), plan.active_edges);
        assert_eq!(plan.counters.explicit_bytes, c.transfer_bytes(g.bytes_per_edge()));
        assert_eq!(plan.counters.compaction_bytes, plan.counters.explicit_bytes);
    }

    #[test]
    fn giant_vertex_compaction() {
        let g = generators::star(10_000, false);
        let c = compact(g.view(), &[0], 8);
        assert_eq!(c.num_edges(), 9_999);
        let got: Vec<_> = c.edges_of(0).map(|(n, _)| n).collect();
        let want: Vec<_> = g.neighbors(0).to_vec();
        assert_eq!(got, want);
    }
}
