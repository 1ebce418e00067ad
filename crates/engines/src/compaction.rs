//! ExpTM-compaction: CPU-side active-edge gathering (Subway's engine).
//!
//! Before transfer, the host CPU walks the active vertices, copies each
//! one's neighbour run (and weights) into a fresh contiguous array, and
//! builds a compressed index so the kernel can address the relocated runs.
//! The result is minimal transfer volume
//! `Σ_{v∈Ai} Do(v)·d1 + |Ai|·d2` (formula (2)'s numerator) at the price of
//! real CPU and memory-bandwidth work.
//!
//! The gather here is *real*: [`compact`] produces an actual
//! [`CompactedSubgraph`] with the relocated arrays, built in parallel by
//! range-splitting the active list across scoped threads (each thread owns
//! a disjoint output range computed by a prefix sum, so no locks are
//! needed). `hyt-core`'s kernel then executes the vertex program against
//! this structure — if the gather were wrong, algorithm results would be
//! wrong and the oracle tests would catch it.

use crate::activity::PartitionActivity;
use crate::plan::{EngineKind, TaskPlan};
use hyt_graph::{AdjacencyView, VertexId, Weight, INDEX_BYTES};
use hyt_sim::{MachineModel, TransferCounters};

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

    let threads = threads.clamp(1, n.max(1));
    let chunk = n.div_ceil(threads.max(1)).max(1);
    let col_chunks = split_at_offsets(&mut col_index, &offsets, chunk);
    let weight_chunks = weights.as_mut().map(|w| split_at_offsets(w, &offsets, chunk));

    crossbeam::scope(|s| {
        let mut wchunks = weight_chunks;
        for (ci, cols) in col_chunks.into_iter().enumerate() {
            let lo = ci * chunk;
            let hi = (lo + chunk).min(n);
            let ws = wchunks.as_mut().map(|v| v.remove(0));
            let offsets = &offsets;
            s.spawn(move |_| {
                let mut cursor = 0usize;
                let mut ws = ws;
                for (i, &v) in active[lo..hi].iter().enumerate() {
                    let run_len = (offsets[lo + i + 1] - offsets[lo + i]) as usize;
                    let mut k = cursor;
                    for (n, w) in graph.edges_of(v) {
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
        }
    })
    // hyt-lint: allow(unwrap-in-lib) -- crossbeam scope errs only when a gather worker panicked; the subgraph would be incomplete, so re-raise
    .expect("compaction worker panicked");

    CompactedSubgraph { vertices: active.to_vec(), offsets, col_index, weights }
}

/// Split `data` into per-chunk mutable slices aligned to the vertex-chunk
/// boundaries given by `offsets` (chunk size in vertices).
fn split_at_offsets<'a, T>(data: &'a mut [T], offsets: &[u64], chunk: usize) -> Vec<&'a mut [T]> {
    let n = offsets.len() - 1;
    let mut out = Vec::new();
    let mut rest = data;
    let mut consumed = 0u64;
    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + chunk).min(n);
        let end = offsets[hi];
        let (head, tail) = rest.split_at_mut((end - consumed) as usize);
        out.push(head);
        rest = tail;
        consumed = end;
        lo = hi;
    }
    out
}

/// Price an ExpTM-compaction task over the given partitions' activity and
/// materialise the real compacted subgraph.
///
/// `machine` supplies `Thpt_cpt` and the bus model; `graph` supplies the
/// data. The active sets of all partitions are merged into one task (the
/// paper's task combiner pre-combines compaction partitions on the GPU,
/// Algorithm 1 line 6).
pub fn plan_compaction(
    machine: &MachineModel,
    graph: AdjacencyView<'_>,
    acts: &[&PartitionActivity],
    bytes_per_edge: u64,
    threads: usize,
) -> TaskPlan {
    let mut active = Vec::new();
    let mut partitions = Vec::with_capacity(acts.len());
    let mut active_edges = 0u64;
    for a in acts {
        partitions.push(a.partition);
        active.extend_from_slice(&a.active_vertices);
        active_edges += a.active_edges;
    }
    let compacted = compact(graph, &active, threads);
    let bytes = compacted.transfer_bytes(bytes_per_edge);
    let cpu_time = machine.compaction_time(bytes);
    let transfer_time = machine.pcie.explicit_copy_time(bytes);
    let kernel_time = machine.kernel.kernel_time(active_edges);
    let counters = TransferCounters {
        explicit_bytes: bytes,
        tlps: machine.pcie.explicit_copy_tlps(bytes),
        compaction_bytes: bytes,
        kernel_edges: active_edges,
        kernel_launches: 1,
        ..Default::default()
    };
    TaskPlan {
        kind: EngineKind::ExpCompaction,
        partitions,
        active_vertices: active,
        active_edges,
        cpu_time,
        transfer_time,
        kernel_time,
        counters,
        compacted: Some(compacted),
    }
}

/// Price an ExpTM-compaction task from the activity sums alone, without
/// materialising the gather.
///
/// The gathered volume is closed-form — `Σ_{v∈Ai} Do(v)·d1 + |Ai|·d2` —
/// so every timing and counter field equals [`plan_compaction`]'s (a unit
/// test asserts it); only `compacted` is `None`. The multi-device runner
/// uses this to price each device's *slice* of a combined compaction task
/// while the real gather (which feeds the kernel) happens once for the
/// whole task.
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
    let mut active = Vec::new();
    let mut partitions = Vec::with_capacity(acts.len());
    let mut active_edges = 0u64;
    for a in acts {
        partitions.push(a.partition);
        active.extend_from_slice(&a.active_vertices);
        active_edges += a.active_edges;
    }
    let bytes = active_edges * bytes_per_edge + active.len() as u64 * (INDEX_BYTES + value_surplus);
    let cpu_time = machine.compaction_time(bytes);
    let transfer_time = machine.pcie.explicit_copy_time(bytes);
    let kernel_time = machine.kernel.kernel_time(active_edges);
    let counters = TransferCounters {
        explicit_bytes: bytes,
        tlps: machine.pcie.explicit_copy_tlps(bytes),
        compaction_bytes: bytes,
        kernel_edges: active_edges,
        kernel_launches: 1,
        ..Default::default()
    };
    TaskPlan {
        kind: EngineKind::ExpCompaction,
        partitions,
        active_vertices: active,
        active_edges,
        cpu_time,
        transfer_time,
        kernel_time,
        counters,
        compacted: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_graph::{generators, Frontier, PartitionSet};
    use hyt_sim::PcieModel;

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

    #[test]
    fn price_compaction_matches_plan_compaction() {
        let g = generators::rmat(9, 8.0, 11, true);
        let ps = PartitionSet::build_count(&g, 8);
        let f = Frontier::new(g.num_vertices());
        for v in (0..g.num_vertices()).step_by(5) {
            f.insert(v);
        }
        let machine = MachineModel::paper_platform();
        let acts = crate::activity::analyze_partitions(
            g.view(),
            &ps,
            &f,
            &PcieModel::pcie3(),
            g.bytes_per_edge(),
            4,
        );
        let refs: Vec<_> = acts.iter().filter(|a| a.is_active()).collect();
        let full = plan_compaction(&machine, g.view(), &refs, g.bytes_per_edge(), 4);
        let priced = price_compaction_sized(&machine, &refs, g.bytes_per_edge(), 0);
        assert_eq!(priced.cpu_time, full.cpu_time);
        assert_eq!(priced.transfer_time, full.transfer_time);
        assert_eq!(priced.kernel_time, full.kernel_time);
        assert_eq!(priced.counters, full.counters);
        assert_eq!(priced.active_vertices, full.active_vertices);
        assert_eq!(priced.partitions, full.partitions);
        assert!(priced.compacted.is_none());
    }

    #[test]
    fn value_surplus_adds_per_active_vertex_bytes() {
        let g = generators::rmat(9, 8.0, 11, true);
        let ps = PartitionSet::build_count(&g, 8);
        let f = Frontier::new(g.num_vertices());
        for v in (0..g.num_vertices()).step_by(7) {
            f.insert(v);
        }
        let machine = MachineModel::paper_platform();
        let acts = crate::activity::analyze_partitions(
            g.view(),
            &ps,
            &f,
            &PcieModel::pcie3(),
            g.bytes_per_edge(),
            4,
        );
        let refs: Vec<_> = acts.iter().filter(|a| a.is_active()).collect();
        let narrow = price_compaction_sized(&machine, &refs, g.bytes_per_edge(), 0);
        // A 64-byte-wire sketch stages 56 extra bytes per active vertex.
        let wide = price_compaction_sized(&machine, &refs, g.bytes_per_edge(), 56);
        let extra = narrow.active_vertices.len() as u64 * 56;
        assert_eq!(wide.counters.explicit_bytes, narrow.counters.explicit_bytes + extra);
        assert_eq!(wide.counters.compaction_bytes, narrow.counters.compaction_bytes + extra);
        // Transfer time can only grow (it may tie when the extra bytes
        // stay within the same TLP quantum); the kernel is untouched.
        assert!(wide.transfer_time >= narrow.transfer_time);
        assert_eq!(wide.kernel_time, narrow.kernel_time);
    }

    #[test]
    fn plan_merges_partitions_and_prices_phases() {
        let g = generators::rmat(9, 8.0, 5, true);
        let ps = PartitionSet::build_count(&g, 8);
        let f = Frontier::new(g.num_vertices());
        for v in (0..g.num_vertices()).step_by(7) {
            f.insert(v);
        }
        let machine = MachineModel::paper_platform();
        let acts = crate::activity::analyze_partitions(
            g.view(),
            &ps,
            &f,
            &PcieModel::pcie3(),
            g.bytes_per_edge(),
            4,
        );
        let refs: Vec<_> = acts.iter().filter(|a| a.is_active()).collect();
        let plan = plan_compaction(&machine, g.view(), &refs, g.bytes_per_edge(), 4);
        assert_eq!(plan.kind, EngineKind::ExpCompaction);
        assert_eq!(plan.active_vertices.len(), f.count() as usize);
        assert!(plan.cpu_time > 0.0);
        assert!(plan.transfer_time > 0.0);
        assert!(plan.kernel_time > 0.0);
        let c = plan.compacted.as_ref().unwrap();
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
