//! Streaming mutations of the resident graph: applying a batch,
//! invalidating exactly what it touched, pricing the delta segments, and
//! folding them when the fold pays off — plus the per-partition sweep
//! price cache those invalidations keep honest.

use crate::api::ValueLayout;
use crate::runner::HyTGraphSystem;
use hyt_engines::analyze_one;
use hyt_graph::{
    DeltaCsr, DevicePlan, EdgeOp, Frontier, GraphError, MutationBatch, PartitionSet, VertexId,
    NEIGHBOR_BYTES,
};
use std::collections::HashMap;

/// Pay-off horizon of delta compaction: the resident graph folds its
/// delta segments into a fresh base exactly when the priced per-sweep
/// overhead of carrying them (dead base slots still shipped, out-of-line
/// segment fetches) over this many iterations exceeds the priced one-off
/// fold. The horizon spans more than one run on purpose: the session
/// service re-runs query shapes against one resident build, so a fold
/// paid in one run keeps paying off in the runs after it.
pub const COMPACTION_HORIZON_ITERS: f64 = 32.0;

/// What applying one [`MutationBatch`] did to the resident system (see
/// [`HyTGraphSystem::apply_mutations`]).
#[derive(Clone, Debug, PartialEq)]
// hyt-lint: allow(unreached-pub) -- returned by `HyTGraphSystem::apply_mutations`; `mutate` is private, so the crate root re-exports it
pub struct MutationReport {
    /// Ops applied (equals the batch length on success).
    pub applied: usize,
    /// Partitions whose adjacency changed, ascending. Exactly these had
    /// their cached sweep prices invalidated; clean partitions keep
    /// their plan.
    pub dirty_partitions: Vec<u32>,
    /// The reactivation frontier in original-id order: every touched
    /// source plus the incident boundary vertices (the destinations
    /// whose in-adjacency changed), deduplicated.
    pub reactivated: Vec<VertexId>,
    /// Priced per-sweep overhead of carrying the post-batch delta
    /// segments (RTT units; 0 when the batch left no deltas).
    pub delta_surplus: f64,
    /// Priced one-off cost of folding the deltas into a fresh base.
    pub fold_cost: f64,
    /// Whether the batch tripped the compaction trigger:
    /// `delta_surplus × COMPACTION_HORIZON_ITERS > fold_cost`.
    pub compacted: bool,
}

/// Cached all-active sweep prices backing
/// [`HyTGraphSystem::price_full_sweep`].
#[derive(Default)]
pub(crate) struct SweepCache {
    /// Per-shape, per-partition sweep costs, keyed by the quote shape
    /// (`needs_weights`, value lanes, wire bytes); a slot is `None`
    /// when that partition's adjacency changed since it was last priced,
    /// so a mutation invalidates exactly the dirty partitions and a
    /// re-quote re-prices only those.
    slots: HashMap<(bool, u32, u64), Vec<Option<f64>>>,
    /// Partition slots re-priced over the system's lifetime — the
    /// incremental-repricing observable the differential suites and
    /// `repro check` assert on.
    repriced: u64,
}

impl HyTGraphSystem {
    /// Price one **all-active sweep** of the resident graph in RTT units:
    /// the sum over partitions of `min(Tef, Tec, Tiz)` from cost
    /// formulas (1)–(3) ([`crate::cost::partition_costs_sized`]), for a
    /// program with the given weight need and value layout. This is the
    /// upper envelope of what one iteration can cost the transfer
    /// engines — real frontiers are subsets of all-active, and every
    /// formula is monotone in the active set — which makes it the
    /// admission currency of the session service: a worst-case
    /// per-iteration quote that needs no knowledge of the query's actual
    /// trajectory. Pure pricing over the static partition structure; no
    /// run state is touched.
    pub fn price_full_sweep(&mut self, needs_weights: bool, layout: ValueLayout) -> f64 {
        let bpe = if needs_weights { self.graph.bytes_per_edge() } else { NEIGHBOR_BYTES };
        let pcie = &self.config.machine.pcie;
        let key = (needs_weights, layout.lanes, layout.wire_bytes);
        let n = self.parts.len();
        let slots = self.sweep.slots.entry(key).or_insert_with(|| vec![None; n]);
        // Lazily built all-active frontier: a fully-cached sweep (the
        // steady state between mutations) never materialises it.
        let mut frontier: Option<Frontier> = None;
        let mut total = 0.0;
        for (pid, slot) in slots.iter_mut().enumerate() {
            total += *slot.get_or_insert_with(|| {
                let f = frontier.get_or_insert_with(|| Frontier::full(self.graph.num_vertices()));
                let a = analyze_one(self.graph.view(), &self.parts, f, pcie, bpe, pid as u32);
                let c =
                    crate::cost::partition_costs_sized(&a, pcie, bpe, layout.compaction_surplus());
                self.sweep.repriced += 1;
                c.tef.min(c.tec).min(c.tiz)
            });
        }
        total
    }

    /// Partition slots [`Self::price_full_sweep`] has re-priced over this
    /// system's lifetime. A fresh shape prices every partition once; after
    /// a mutation, only the dirty partitions are re-priced — so the
    /// counter's growth is the incremental-repricing observable.
    pub fn sweep_repriced(&self) -> u64 {
        self.sweep.repriced
    }

    /// Priced per-sweep overhead of carrying the current delta segments,
    /// in the same RTT currency as [`Self::price_full_sweep`]: tombstoned
    /// base slots (and garbage insert slots) still ship with every
    /// explicit partition copy, and each delta-carrying partition pays one
    /// extra out-of-line segment fetch per sweep. Zero on a freshly-built
    /// or freshly-compacted system. This is the session service's
    /// delta-surplus quote term.
    pub fn delta_surplus(&self) -> f64 {
        let pcie = &self.config.machine.pcie;
        let bpe = self.graph.bytes_per_edge();
        let mut surplus = 0.0;
        for pid in self.graph.delta_partitions() {
            let dead = (self.graph.dead_base_edges(pid) + self.graph.garbage_edges(pid)) * bpe;
            surplus += pcie.explicit_copy_time(dead) + pcie.copy_latency;
        }
        surplus
    }

    /// Priced one-off cost of folding the delta segments into a fresh
    /// base: one read of the old base and the segments plus one write of
    /// the live edge set, at the host compaction pool's bandwidth (the
    /// same currency as the startup edge passes). Zero when no deltas
    /// exist.
    pub fn fold_cost(&self) -> f64 {
        if self.graph.delta_partitions().is_empty() {
            return 0.0;
        }
        let bpe = self.graph.bytes_per_edge();
        let read = self.graph.base().num_edges() + self.graph.inserted_edges();
        let write = self.graph.num_edges();
        ((read + write) * bpe) as f64 / self.config.machine.compaction_bw
    }

    /// Apply one batch of edge mutations to the resident graph and
    /// invalidate exactly what it touched.
    ///
    /// Ops arrive in **original** vertex ids and are applied in batch
    /// order to the working (hub-sorted) id space — the hub permutation
    /// is fixed at build time and never re-derived. After the batch:
    ///
    /// * partitions whose adjacency changed are marked dirty: their
    ///   cached sweep prices ([`Self::price_full_sweep`]) are dropped,
    ///   while clean partitions keep their plan, placement, and prices;
    /// * the reactivation frontier — touched sources plus incident
    ///   boundary destinations — is computed through the frontier
    ///   machinery and reported in original ids;
    /// * the compaction trigger is evaluated: when the priced per-sweep
    ///   delta overhead over [`COMPACTION_HORIZON_ITERS`] exceeds the
    ///   priced fold, the deltas fold into a fresh base and partitions
    ///   and placement are rebuilt from it (hub order stays).
    ///
    /// # Errors
    ///
    /// The typed [`GraphError`] of the first failing op. Ops before it
    /// remain applied (mirroring [`DeltaCsr::apply`]); the invalidation
    /// above still covers exactly that applied prefix, so the system
    /// stays consistent with the partially-mutated graph.
    pub fn apply_mutations(&mut self, batch: &MutationBatch) -> Result<MutationReport, GraphError> {
        // Working-id endpoints of each applied op, in batch order.
        let mut touched: Vec<[VertexId; 2]> = Vec::with_capacity(batch.ops().len());
        let mut failure: Option<GraphError> = None;
        for op in batch.ops() {
            match self.apply_op(op) {
                Ok(ends) => touched.push(ends),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        let mut dirty = self.graph.take_dirty();
        dirty.sort_unstable();
        for &pid in &dirty {
            for slots in self.sweep.slots.values_mut() {
                slots[pid as usize] = None;
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        // Reactivation frontier (working ids, deduplicated by the bitmap),
        // reported back in original ids.
        let frontier = Frontier::new(self.graph.num_vertices());
        for &[s, d] in &touched {
            frontier.insert(s);
            frontier.insert(d);
        }
        let mut reactivated: Vec<VertexId> =
            frontier.iter().map(|v| self.hub.as_ref().map_or(v, |h| h.to_old(v))).collect();
        reactivated.sort_unstable();
        let delta_surplus = self.delta_surplus();
        let fold_cost = self.fold_cost();
        let compacted = delta_surplus * COMPACTION_HORIZON_ITERS > fold_cost;
        if compacted {
            self.compact_now();
        }
        Ok(MutationReport {
            applied: touched.len(),
            dirty_partitions: dirty,
            reactivated,
            delta_surplus,
            fold_cost,
            compacted,
        })
    }

    /// Apply one op (original ids) to the working-id graph, returning its
    /// working-id endpoints.
    fn apply_op(&mut self, op: &EdgeOp) -> Result<[VertexId; 2], GraphError> {
        let (s, d) = (self.to_working(op.src())?, self.to_working(op.dst())?);
        match *op {
            EdgeOp::Insert { weight, .. } => self.graph.insert(s, d, weight)?,
            EdgeOp::Delete { .. } => self.graph.delete(s, d)?,
        }
        Ok([s, d])
    }

    /// Fold the delta segments into a fresh base and rebuild everything
    /// the partition structure feeds: partitions and the
    /// partition→device plan (with its shard holders and owned-vertex
    /// counts). The hub permutation, interconnect, route tables, and
    /// the resident scheduler are untouched — they do not depend on the
    /// edge set. The sweep cache clears wholesale: partition boundaries
    /// moved, so no per-partition price survives.
    fn compact_now(&mut self) {
        let new_base = self.graph.compact();
        let parts = PartitionSet::build(&new_base, self.config.partition_bytes);
        let nd = self.devices.num_devices();
        self.devices = DevicePlan::build(&parts, nd, self.config.device_assignment, 0);
        self.graph = DeltaCsr::with_partitions(new_base, &parts);
        self.parts = parts;
        self.sweep.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HyTGraphConfig;
    use hyt_graph::generators;

    #[test]
    fn mutation_dirties_only_touched_partitions_and_reprices_incrementally() {
        let g = generators::rmat(11, 10.0, 7, true);
        let cfg = HyTGraphConfig { contribution_scheduling: false, ..HyTGraphConfig::default() };
        let mut sys = HyTGraphSystem::new(g, cfg);
        let n = sys.num_partitions();
        assert!(n > 4, "want several partitions, got {n}");
        let layout = ValueLayout::of::<u32>();
        sys.price_full_sweep(true, layout);
        assert_eq!(sys.sweep_repriced(), n as u64, "first sweep prices every partition");
        // A localized batch: every op touches vertex 0's partition only
        // (endpoints both inside it), so exactly one partition dirties.
        let span = sys.graph().owner_of(0);
        let mut batch = MutationBatch::new();
        batch.insert_weighted(0, 1, 3).insert_weighted(1, 0, 9);
        let report = sys.apply_mutations(&batch).unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!(report.dirty_partitions, vec![span]);
        assert_eq!(report.reactivated, vec![0, 1]);
        // Re-pricing the same shape touches only the dirty partition.
        let before = sys.sweep_repriced();
        sys.price_full_sweep(true, layout);
        assert_eq!(sys.sweep_repriced() - before, report.dirty_partitions.len() as u64);
        // A clean re-sweep prices nothing.
        let before = sys.sweep_repriced();
        sys.price_full_sweep(true, layout);
        assert_eq!(sys.sweep_repriced(), before);
    }

    #[test]
    fn compaction_trigger_matches_report_fields() {
        let g = generators::rmat(10, 8.0, 5, true);
        // No hub sort: working ids are original ids, so the test can read
        // live adjacency straight off the delta graph to build deletes.
        let cfg = HyTGraphConfig { contribution_scheduling: false, ..HyTGraphConfig::default() };
        let mut sys = HyTGraphSystem::new(g, cfg);
        // Grow dead base slots until the priced surplus trips the fold.
        let mut tripped = false;
        for round in 0..64 {
            let src =
                (0..sys.graph().num_vertices()).max_by_key(|&v| sys.graph().out_degree(v)).unwrap();
            let dsts: Vec<_> = sys.graph().edges_of(src).map(|(d, _)| d).collect();
            let mut batch = MutationBatch::new();
            let mut seen = std::collections::HashSet::new();
            for d in dsts {
                // edges_of yields duplicates per multiplicity; delete each
                // (src, dst) group once — one delete kills one surviving copy,
                // so repeat per copy.
                let copies = sys.graph().edges_of(src).filter(|&(x, _)| x == d).count();
                if seen.insert(d) {
                    for _ in 0..copies {
                        batch.delete(src, d);
                    }
                }
            }
            if batch.is_empty() {
                continue;
            }
            let report = sys.apply_mutations(&batch).unwrap();
            assert_eq!(
                report.compacted,
                report.delta_surplus * COMPACTION_HORIZON_ITERS > report.fold_cost,
                "round {round}: trigger must equal the priced inequality"
            );
            if report.compacted {
                tripped = true;
                assert!(sys.graph().delta_partitions().is_empty());
                assert_eq!(sys.graph().inserted_edges(), 0);
                assert_eq!(sys.delta_surplus(), 0.0);
                assert_eq!(sys.fold_cost(), 0.0);
                break;
            }
        }
        assert!(tripped, "deleting whole adjacencies never tripped compaction");
    }

    #[test]
    fn failed_op_keeps_applied_prefix_and_invalidation() {
        let g = generators::chain(4, true);
        let cfg = HyTGraphConfig { contribution_scheduling: false, ..HyTGraphConfig::default() };
        let mut sys = HyTGraphSystem::new(g, cfg);
        let mut batch = MutationBatch::new();
        batch.insert_weighted(3, 0, 2).delete(2, 0); // 2→0 does not exist
        let err = sys.apply_mutations(&batch).unwrap_err();
        assert!(matches!(err, GraphError::MissingEdge { src: 2, dst: 0 }), "{err}");
        // The prefix stayed applied and the graph reflects it.
        assert_eq!(sys.graph().inserted_edges(), 1);
        assert!(sys.graph().edges_of(3).any(|(d, _)| d == 0));
    }
}
