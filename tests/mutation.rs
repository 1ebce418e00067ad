//! Streaming-mutation differential suite: the tentpole correctness
//! contract of the delta-CSR layer.
//!
//! A resident [`HyTGraphSystem`] absorbs interleaved mutation batches and
//! queries; after **every** query step the answer must be bit-identical
//! to a cold system built from scratch on the then-current edge set —
//! for every device count `D ∈ {1, 2, 4, 8}`, every topology, and both
//! placement modes. The resident system carries delta segments, dirty
//! partial caches, possibly a mid-stream compaction; the cold oracle has
//! none of that history. Equality proves the incremental machinery
//! (delta adjacency views, partition-local invalidation, reactivation,
//! compaction rebuilds) is invisible to computed values.

use hytgraph::core::{HyTGraphConfig, HyTGraphSystem, SystemKind, TopologyKind};
use hytgraph::graph::{generators, Csr, EdgeList, MutationBatch};
use hytgraph::prelude::*;
use std::collections::BTreeMap;

fn cfg(d: usize, topo: TopologyKind) -> HyTGraphConfig {
    let mut c = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
    c.num_devices = d;
    c.topology = topo;
    c.threads = 1; // deterministic bit-comparison, per the check harness
    c
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Shadow edge set: the oracle's ground truth. Kept duplicate-free so a
/// delete is unambiguous regardless of adjacency iteration order.
struct Shadow {
    nv: u32,
    weights: BTreeMap<(u32, u32), u32>,
    keys: Vec<(u32, u32)>,
}

impl Shadow {
    fn of(g: &Csr) -> Self {
        let mut weights = BTreeMap::new();
        for v in 0..g.num_vertices() {
            for (i, &d) in g.neighbors(v).iter().enumerate() {
                weights.insert((v, d), g.weights_of(v)[i]);
            }
        }
        let keys = weights.keys().copied().collect();
        Shadow { nv: g.num_vertices(), weights, keys }
    }

    fn to_csr(&self) -> Csr {
        let mut el = EdgeList::new(self.nv);
        for (&(s, d), &w) in &self.weights {
            el.push_weighted(s, d, w);
        }
        el.to_csr()
    }
}

/// One scripted step of the interleaved stream.
enum Step {
    Bfs(u32),
    Sssp(u32),
    Mutate(MutationBatch),
}

/// Build a deterministic script of queries and mutation batches over a
/// shadow that tracks the evolving edge set. Batches mix inserts of
/// absent edges with deletes of present ones; the delete-heavy tail
/// drives the priced compaction trigger on at least one configuration.
fn script(shadow: &mut Shadow, steps: usize, seed: u64) -> Vec<Step> {
    let mut rng = seed;
    let mut out = Vec::new();
    for i in 0..steps {
        match i % 3 {
            0 => out.push(Step::Bfs(splitmix(&mut rng) as u32 % shadow.nv)),
            1 => out.push(Step::Sssp(splitmix(&mut rng) as u32 % shadow.nv)),
            _ => {
                let mut batch = MutationBatch::new();
                for _ in 0..12 {
                    if splitmix(&mut rng).is_multiple_of(3) && !shadow.keys.is_empty() {
                        let at = splitmix(&mut rng) as usize % shadow.keys.len();
                        let (s, d) = shadow.keys.swap_remove(at);
                        shadow.weights.remove(&(s, d));
                        batch.delete(s, d);
                    } else {
                        let s = splitmix(&mut rng) as u32 % shadow.nv;
                        let d = splitmix(&mut rng) as u32 % shadow.nv;
                        let w = 1 + (splitmix(&mut rng) as u32 % 63);
                        if let std::collections::btree_map::Entry::Vacant(e) =
                            shadow.weights.entry((s, d))
                        {
                            e.insert(w);
                            shadow.keys.push((s, d));
                            batch.insert_weighted(s, d, w);
                        }
                    }
                }
                out.push(Step::Mutate(batch));
            }
        }
    }
    out
}

/// A duplicate-free weighted base graph spanning several partitions.
fn base_graph() -> Csr {
    let g = generators::rmat(9, 8.0, 21, true);
    let mut el = EdgeList::new(g.num_vertices());
    for v in 0..g.num_vertices() {
        for (i, &d) in g.neighbors(v).iter().enumerate() {
            el.push_weighted(v, d, g.weights_of(v)[i]);
        }
    }
    el.dedup();
    el.to_csr()
}

/// Replay `steps` on a resident system under `c`, checking every query
/// against a cold build of the shadow at that point in the stream.
fn replay(base: &Csr, steps: &[Step], c: &HyTGraphConfig) {
    let mut sys = HyTGraphSystem::new(base.clone(), c.clone());
    let mut shadow = Shadow::of(base);
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Bfs(s) => {
                let live = sys.run(Bfs::from_source(*s)).values;
                let mut cold = HyTGraphSystem::new(shadow.to_csr(), c.clone());
                assert_eq!(
                    live,
                    cold.run(Bfs::from_source(*s)).values,
                    "step {i}: resident BFS({s}) diverged from cold oracle"
                );
            }
            Step::Sssp(s) => {
                let live = sys.run(Sssp::from_source(*s)).values;
                let mut cold = HyTGraphSystem::new(shadow.to_csr(), c.clone());
                assert_eq!(
                    live,
                    cold.run(Sssp::from_source(*s)).values,
                    "step {i}: resident SSSP({s}) diverged from cold oracle"
                );
            }
            Step::Mutate(batch) => {
                let report = sys.apply_mutations(batch).unwrap();
                assert_eq!(report.applied, batch.len(), "step {i}: batch must apply fully");
                // Mirror into the shadow.
                for op in batch.ops() {
                    match *op {
                        hytgraph::graph::EdgeOp::Insert { src, dst, weight } => {
                            shadow.weights.insert((src, dst), weight);
                        }
                        hytgraph::graph::EdgeOp::Delete { src, dst } => {
                            shadow.weights.remove(&(src, dst));
                        }
                    }
                }
                shadow.keys = shadow.weights.keys().copied().collect();
                assert_eq!(sys.graph().num_edges(), shadow.weights.len() as u64);
            }
        }
    }
    // Final state: one more sweep over the end-of-stream edge set. (The
    // resident graph lives in working/hub-sorted ids, so adjacency is
    // compared through the algorithms — their results come back in
    // original-id order — rather than row by row.)
    let mut cold = HyTGraphSystem::new(shadow.to_csr(), c.clone());
    assert_eq!(sys.graph().num_edges(), cold.graph().num_edges());
    assert_eq!(
        sys.run(Sssp::from_source(0)).values,
        cold.run(Sssp::from_source(0)).values,
        "final SSSP diverged from cold oracle on the end-of-stream graph"
    );
}

#[test]
fn interleaved_mutations_match_cold_oracle_single_device() {
    let base = base_graph();
    let mut shadow = Shadow::of(&base);
    let steps = script(&mut shadow, 15, 0xfeed);
    replay(&base, &steps, &cfg(1, TopologyKind::HostOnly));
}

#[test]
fn interleaved_mutations_match_cold_oracle_across_devices_and_topologies() {
    let base = base_graph();
    let mut shadow = Shadow::of(&base);
    let steps = script(&mut shadow, 9, 0xabcd);
    for d in [2usize, 4, 8] {
        for topo in [TopologyKind::HostOnly, TopologyKind::Ring, TopologyKind::AllToAll] {
            replay(&base, &steps, &cfg(d, topo));
        }
    }
}

#[test]
fn delete_heavy_stream_compacts_and_stays_correct() {
    // Delete most of the graph batch by batch: dead base slots pile up,
    // the priced surplus trips the fold, and correctness must survive the
    // partition/placement rebuild mid-stream.
    let base = base_graph();
    let c = cfg(2, TopologyKind::Ring);
    let mut sys = HyTGraphSystem::new(base.clone(), c.clone());
    let mut shadow = Shadow::of(&base);
    let mut rng = 0x7777u64;
    let mut compacted_ever = false;
    for round in 0..20 {
        let mut batch = MutationBatch::new();
        for _ in 0..shadow.keys.len().min(40) {
            let at = splitmix(&mut rng) as usize % shadow.keys.len();
            let (s, d) = shadow.keys.swap_remove(at);
            shadow.weights.remove(&(s, d));
            batch.delete(s, d);
        }
        let report = sys.apply_mutations(&batch).unwrap();
        compacted_ever |= report.compacted;
        if round % 4 == 3 {
            let live = sys.run(Bfs::from_source(0)).values;
            let mut cold = HyTGraphSystem::new(shadow.to_csr(), c.clone());
            assert_eq!(live, cold.run(Bfs::from_source(0)).values, "round {round}");
        }
    }
    assert!(compacted_ever, "a delete-heavy stream must trip the priced compaction");
}

#[test]
fn out_of_range_endpoints_return_the_typed_error_and_keep_the_applied_prefix() {
    // Ids arrive from callers; on the default (hub-sorted) system an id
    // past the graph used to index the hub permutation out of bounds.
    use hytgraph::graph::GraphError;
    const FAR: u32 = 1_000_000;
    let base = base_graph();
    let nv = base.num_vertices();
    let c = cfg(4, TopologyKind::Ring);
    assert!(c.contribution_scheduling, "the hub-sorted path is the one under test");
    let mut sys = HyTGraphSystem::new(base.clone(), c.clone());
    let mut shadow = Shadow::of(&base);
    for bad in 0..3u32 {
        // One valid insert ahead of the failing op: the prefix must stay.
        let (s, d) = (7 + bad, 11);
        assert!(!shadow.weights.contains_key(&(s, d)));
        let mut batch = MutationBatch::new();
        batch.insert_weighted(s, d, 2);
        match bad {
            0 => batch.insert_weighted(3, FAR, 5),
            1 => batch.insert_weighted(FAR, 3, 5),
            _ => batch.delete(3, FAR),
        };
        let err = sys.apply_mutations(&batch).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: FAR, num_vertices: nv });
        shadow.weights.insert((s, d), 2);
        assert_eq!(sys.graph().num_edges(), shadow.weights.len() as u64);
        assert_eq!(
            sys.run(Sssp::from_source(0)).values,
            hytgraph::algos::reference::dijkstra(&shadow.to_csr(), 0),
            "op {bad}: the run after a rejected batch diverged from the oracle"
        );
    }
}
