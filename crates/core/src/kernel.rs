//! Real (host-side) execution of vertex programs.
//!
//! The simulator charges GPU *time*; this module produces GPU-identical
//! *results*. Each kernel scatters a list of active vertices over an edge
//! source — either the host CSR (filter / zero-copy / unified delivery) or
//! a [`CompactedSubgraph`] (compaction delivery, exactly the structure
//! Subway's kernel consumes) — folding messages into the shared [`Values`]
//! array with CAS loops and recording activations in an atomic frontier.
//!
//! Parallelism is a static split of the active list across scoped threads;
//! every write is atomic, so the fold order is the only nondeterminism.
//! With snapshot (sync) seeds the message multiset is fixed up front, so a
//! commutative integer fold is bit-identical for every thread count — the
//! static-split guarantee `tests/kernel_determinism.rs` pins down. With
//! live (async) seeds, whether one scatter observes another's mid-kernel
//! update is timing-dependent; monotone programs still converge to the
//! same fixpoint because the runner re-activates any vertex whose value
//! improves after it was scattered.

use crate::api::{EdgeCtx, Values, VertexProgram};
use hyt_engines::{chunk_ranges, par_map, CompactedSubgraph};
use hyt_graph::{AdjacencyView, Frontier, VertexId};

/// Where a kernel reads its edges from.
#[derive(Clone, Copy)]
pub enum EdgeSource<'a> {
    /// The (GPU-resident copy of the) adjacency — base CSR or delta view:
    /// filter, zero-copy, unified.
    Graph(AdjacencyView<'a>),
    /// A compacted subgraph gathered by ExpTM-compaction. Entry `i`
    /// corresponds to the `i`-th vertex of the kernel's active list.
    Compacted(&'a CompactedSubgraph),
}

/// Statistics returned by one kernel invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
// hyt-lint: allow(unreached-pub) -- named in the public signature of `run_kernel`
pub struct KernelStats {
    /// Edges relaxed (messages attempted).
    pub edges_processed: u64,
    /// Successful state changes at receivers.
    pub updates: u64,
    /// Newly activated vertices (inserted into the next frontier).
    pub activations: u64,
}

impl KernelStats {
    /// Merge two invocations' stats.
    pub fn merge(&mut self, o: &KernelStats) {
        self.edges_processed += o.edges_processed;
        self.updates += o.updates;
        self.activations += o.activations;
    }
}

/// Scatter `active` through `program`, folding into `values` and recording
/// activations in `next`. `seed_override` supplies sync-mode seeds (a
/// snapshot taken at iteration start); `None` reads live state (async).
pub fn run_kernel<P: VertexProgram>(
    program: &P,
    source: EdgeSource<'_>,
    active: &[VertexId],
    values: &Values<P::Value>,
    next: &Frontier,
    seed_override: Option<&[P::Value]>,
    threads: usize,
) -> KernelStats {
    let per_chunk = par_map(chunk_ranges(active.len(), threads), |range| {
        let mut stats = KernelStats::default();
        for i in range {
            scatter_one(program, source, active, i, values, next, seed_override, &mut stats);
        }
        stats
    });
    let mut total = KernelStats::default();
    for stats in &per_chunk {
        total.merge(stats);
    }
    total
}

#[allow(clippy::too_many_arguments)]
fn scatter_one<P: VertexProgram>(
    program: &P,
    source: EdgeSource<'_>,
    active: &[VertexId],
    i: usize,
    values: &Values<P::Value>,
    next: &Frontier,
    seed_override: Option<&[P::Value]>,
    stats: &mut KernelStats,
) {
    let u = active[i];
    // Claim the seed: sync mode reads the snapshot; async mode claims
    // atomically from live state (so e.g. PR's Δ is swapped out exactly
    // once even under concurrent accumulation).
    let seed = match seed_override {
        Some(snap) => {
            let s = snap[u as usize];
            // Claim only the snapshot's share from the live state (Δ that
            // arrived mid-iteration stays pending) and scatter the
            // snapshot seed.
            values.update(u, |cur| {
                let (new, _) = program.claim_from_snapshot(cur, s);
                (new != cur).then_some(new)
            });
            program.claim_from_snapshot(s, s).1
        }
        None => {
            let cur = values.get(u);
            let (new, seed) = program.activate(cur);
            if new == cur {
                // Pure read (value-replacement programs): no CAS needed.
                seed
            } else {
                match values.update(u, |c| {
                    let (n, _) = program.activate(c);
                    (n != c).then_some(n)
                }) {
                    // Claimed: seed comes from the state we swapped out.
                    Some((old, _)) => program.activate(old).1,
                    // A concurrent scatter claimed it first; our share is
                    // the no-op seed of the already-claimed state.
                    None => program.activate(values.get(u)).1,
                }
            }
        }
    };
    let out_degree = match source {
        EdgeSource::Graph(g) => g.out_degree(u),
        EdgeSource::Compacted(c) => c.offsets[i + 1] - c.offsets[i],
    };
    let weighted_degree = if P::NEEDS_WEIGHTED_DEGREE {
        match source {
            EdgeSource::Graph(g) => g.weighted_degree(u),
            EdgeSource::Compacted(c) => match &c.weights {
                Some(ws) => ws[c.offsets[i] as usize..c.offsets[i + 1] as usize]
                    .iter()
                    .map(|&w| w as u64)
                    .sum(),
                None => out_degree,
            },
        }
    } else {
        0
    };
    let mut deliver = |dst: VertexId, weight| {
        stats.edges_processed += 1;
        let ctx = EdgeCtx { out_degree, weight, weighted_degree };
        if let Some(msg) = program.message(seed, ctx) {
            if let Some((old, new)) = values.update(dst, |cur| program.accumulate(cur, msg)) {
                stats.updates += 1;
                if program.should_activate(old, new) && next.insert(dst) {
                    stats.activations += 1;
                }
            }
        }
    };
    match source {
        EdgeSource::Graph(g) => {
            for (dst, w) in g.edges_of(u) {
                deliver(dst, w);
            }
        }
        EdgeSource::Compacted(c) => {
            debug_assert_eq!(c.vertices[i], u, "compacted order must match active list");
            for (dst, w) in c.edges_of(i) {
                deliver(dst, w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::InitialFrontier;
    use hyt_graph::generators;

    /// Minimal SSSP-like program for kernel tests.
    struct Mini;
    impl VertexProgram for Mini {
        type Value = u32;
        fn init(&self, v: VertexId) -> u32 {
            if v == 0 {
                0
            } else {
                u32::MAX
            }
        }
        fn initial_frontier(&self) -> InitialFrontier {
            InitialFrontier::Set(vec![0])
        }
        fn message(&self, seed: u32, ctx: EdgeCtx) -> Option<u32> {
            (seed != u32::MAX).then(|| seed.saturating_add(ctx.weight))
        }
        fn accumulate(&self, state: u32, msg: u32) -> Option<u32> {
            (msg < state).then_some(msg)
        }
    }

    #[test]
    fn chain_relaxation_step_by_step() {
        let g = generators::chain(5, true);
        let values = Values::init(&Mini, 5);
        let next = Frontier::new(5);
        let stats = run_kernel(&Mini, EdgeSource::Graph(g.view()), &[0], &values, &next, None, 2);
        assert_eq!(stats.edges_processed, 1);
        assert_eq!(stats.activations, 1);
        assert_eq!(values.get(1), 1);
        assert!(next.contains(1));
        assert!(!next.contains(2));
    }

    #[test]
    fn parallel_matches_single_thread() {
        // Snapshot (sync) seeds make the message multiset independent of
        // thread interleaving, so the commutative min-fold is bit-exact
        // across thread counts. (Async seeds read live state mid-kernel,
        // which is timing-dependent *within* an iteration by design — the
        // runner's convergence loop, not the kernel, makes those runs land
        // on the same fixpoint.)
        let g = generators::rmat(10, 8.0, 3, true);
        let nv = g.num_vertices();
        let all: Vec<u32> = (0..nv).collect();

        let run = |threads| {
            let values = Values::init(&Mini, nv);
            values.set(0, 0);
            let next = Frontier::new(nv);
            // Two sweeps over everything: enough to propagate 2 hops.
            for _ in 0..2 {
                let snap = values.snapshot();
                run_kernel(
                    &Mini,
                    EdgeSource::Graph(g.view()),
                    &all,
                    &values,
                    &next,
                    Some(&snap),
                    threads,
                );
            }
            values.snapshot()
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn compacted_source_equals_csr_source() {
        // Snapshot seeds keep both runs deterministic under 4 threads —
        // async (live-value) seeds are timing-dependent, so two parallel
        // runs can legitimately diverge on intermediate values (same
        // flake class parallel_matches_single_thread had). The point
        // here is only that the compacted source delivers exactly the
        // CSR's edges and weights.
        let g = generators::rmat(9, 8.0, 5, true);
        let nv = g.num_vertices();
        let active: Vec<u32> = (0..nv).step_by(3).collect();
        let compacted = hyt_engines::compaction::compact(g.view(), &active, 4);

        let via_csr = {
            let values = Values::init(&Mini, nv);
            values.set(0, 0);
            let snap = values.snapshot();
            let next = Frontier::new(nv);
            run_kernel(&Mini, EdgeSource::Graph(g.view()), &active, &values, &next, Some(&snap), 4);
            (values.snapshot(), next.to_vec())
        };
        let via_compacted = {
            let values = Values::init(&Mini, nv);
            values.set(0, 0);
            let snap = values.snapshot();
            let next = Frontier::new(nv);
            run_kernel(
                &Mini,
                EdgeSource::Compacted(&compacted),
                &active,
                &values,
                &next,
                Some(&snap),
                4,
            );
            (values.snapshot(), next.to_vec())
        };
        assert_eq!(via_csr, via_compacted);
    }

    #[test]
    fn sync_seed_override_uses_snapshot() {
        // Chain 0->1->2. Active {0,1} with snapshot seeds: vertex 1 scatters
        // its *old* (unreachable) seed, so 2 stays unreached in sync mode.
        let g = generators::chain(3, true);
        let values = Values::init(&Mini, 3);
        let next = Frontier::new(3);
        let snap = values.snapshot();
        run_kernel(&Mini, EdgeSource::Graph(g.view()), &[0, 1], &values, &next, Some(&snap), 1);
        assert_eq!(values.get(1), 1);
        assert_eq!(values.get(2), u32::MAX);
        // Async mode (sequential visibility): 1 sees the fresh value.
        let values2 = Values::init(&Mini, 3);
        let next2 = Frontier::new(3);
        run_kernel(&Mini, EdgeSource::Graph(g.view()), &[0], &values2, &next2, None, 1);
        run_kernel(&Mini, EdgeSource::Graph(g.view()), &[1], &values2, &next2, None, 1);
        assert_eq!(values2.get(2), 2);
    }

    #[test]
    fn empty_active_list_is_noop() {
        let g = generators::chain(3, true);
        let values = Values::init(&Mini, 3);
        let next = Frontier::new(3);
        let stats = run_kernel(&Mini, EdgeSource::Graph(g.view()), &[], &values, &next, None, 4);
        assert_eq!(stats, KernelStats::default());
        assert!(next.is_empty());
    }

    #[test]
    fn activation_counted_once_per_vertex() {
        // Star: all spokes get activated by the hub exactly once.
        let g = generators::star(100, true);
        let values = Values::init(&Mini, 100);
        let next = Frontier::new(100);
        let stats = run_kernel(&Mini, EdgeSource::Graph(g.view()), &[0], &values, &next, None, 4);
        assert_eq!(stats.activations, 99);
        assert_eq!(next.count(), 99);
    }
}
