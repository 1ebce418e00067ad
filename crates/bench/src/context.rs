//! Shared experiment context: dataset cache, machine/config construction,
//! and the algorithm-dispatching run helper.

use hyt_algos::{AlgoKind, Bfs, Cc, HyperBall, PageRank, Php, Sssp};
use hyt_core::{
    AsyncMode, HyTGraphConfig, HyTGraphSystem, IterationStats, SystemKind, VertexProgram,
};
use hyt_graph::datasets::{self, Dataset, DatasetId};
use hyt_graph::{Csr, VertexId};
use hyt_sim::{GpuModel, MachineModel, TransferCounters};
use std::collections::HashMap;

/// Scale shift shared with the dataset proxies.
pub use hyt_graph::datasets::SCALE_SHIFT;

/// Lazy dataset cache: generating a proxy costs a second or two, and most
/// experiments reuse the same five graphs.
#[derive(Default)]
pub struct Ctx {
    datasets: HashMap<DatasetId, Dataset>,
}

impl Ctx {
    /// Empty context.
    pub fn new() -> Self {
        Ctx::default()
    }

    /// Dataset by id (generated on first use, then cached).
    pub fn dataset(&mut self, id: DatasetId) -> &Dataset {
        self.datasets.entry(id).or_insert_with(|| datasets::load(id))
    }

    /// Graph by id.
    pub fn graph(&mut self, id: DatasetId) -> Csr {
        self.dataset(id).graph.clone()
    }
}

/// The standard experiment configuration: the paper's platform (2080Ti)
/// scaled to the proxy datasets.
pub fn base_config() -> HyTGraphConfig {
    HyTGraphConfig::default()
}

/// A configuration on a different GPU (Fig. 10), same scaling.
pub fn config_for_gpu(gpu: GpuModel) -> HyTGraphConfig {
    HyTGraphConfig {
        machine: MachineModel::from_gpu(gpu).scaled(SCALE_SHIFT),
        ..HyTGraphConfig::default()
    }
}

/// Deterministic source vertex for SSSP/BFS/PHP: the highest-out-degree
/// vertex (ties to the lowest id). Evaluation papers conventionally pick a
/// well-connected source so traversals reach most of the graph.
pub fn source_vertex(graph: &Csr) -> VertexId {
    let mut best = 0u32;
    let mut best_deg = 0u64;
    for v in 0..graph.num_vertices() {
        let d = graph.out_degree(v);
        if d > best_deg {
            best = v;
            best_deg = d;
        }
    }
    best
}

/// Type-erased result of one (system, algorithm, graph) run.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// System that ran.
    pub system: SystemKind,
    /// Algorithm that ran.
    pub algo: AlgoKind,
    /// Total simulated runtime in seconds.
    pub total_time: f64,
    /// Iterations to convergence.
    pub iterations: u32,
    /// Per-iteration records.
    pub per_iteration: Vec<IterationStats>,
    /// Run-total transfer counters.
    pub counters: TransferCounters,
    /// Edge-data bytes the algorithm would move shipping the graph once
    /// (Table VI's denominator; excludes weights for weight-blind algos).
    pub edge_bytes: u64,
}

impl RunMetrics {
    /// Table VI metric: transferred bytes / edge-data bytes.
    pub fn transfer_ratio(&self) -> f64 {
        self.counters.transfer_ratio(self.edge_bytes)
    }
}

fn collect<P: VertexProgram>(
    system: SystemKind,
    algo: AlgoKind,
    sys: &mut HyTGraphSystem,
    program: P,
) -> RunMetrics {
    let edge_bytes = sys.effective_edge_bytes::<P>();
    let r = sys.run(program);
    RunMetrics {
        system,
        algo,
        total_time: r.total_time,
        iterations: r.iterations,
        per_iteration: r.per_iteration,
        counters: r.counters,
        edge_bytes,
    }
}

/// Run `algo` under `system` on `graph` with `base` configuration
/// (the system preset overrides policy flags; see `hyt_core::systems`).
pub fn run_algo(
    system: SystemKind,
    algo: AlgoKind,
    graph: &Csr,
    base: HyTGraphConfig,
) -> RunMetrics {
    run_algo_with_config(system, algo, graph, system.configure(base))
}

/// Run with an explicit, already-configured `HyTGraphConfig` (for the
/// sync-mode engine study of Fig. 3(g)/(h), which bypasses the presets).
pub fn run_algo_with_config(
    system: SystemKind,
    algo: AlgoKind,
    graph: &Csr,
    mut cfg: HyTGraphConfig,
) -> RunMetrics {
    if algo == AlgoKind::HyperBall {
        // HyperBall's per-radius trajectory is only meaningful when every
        // iteration is a synchronous ball-growth round (mirrors
        // `run_hyperball`); the registers themselves converge either way.
        cfg.async_mode = AsyncMode::Sync;
    }
    let mut sys = HyTGraphSystem::new(graph.clone(), cfg);
    let src = source_vertex(graph);
    match algo {
        AlgoKind::PageRank => collect(system, algo, &mut sys, PageRank::new()),
        AlgoKind::Sssp => collect(system, algo, &mut sys, Sssp::from_source(src)),
        AlgoKind::Cc => collect(system, algo, &mut sys, Cc::new()),
        AlgoKind::Bfs => collect(system, algo, &mut sys, Bfs::from_source(src)),
        AlgoKind::Php => collect(system, algo, &mut sys, Php::from_source(src)),
        AlgoKind::HyperBall => {
            collect(system, algo, &mut sys, HyperBall::new(graph.num_vertices()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_graph::generators;

    #[test]
    fn source_is_highest_degree() {
        let g = generators::star(50, false);
        assert_eq!(source_vertex(&g), 0);
        let c = generators::chain(5, false);
        assert_eq!(source_vertex(&c), 0);
    }

    #[test]
    fn run_metrics_are_populated() {
        let g = generators::rmat(9, 8.0, 3, true);
        let m = run_algo(SystemKind::HyTGraph, AlgoKind::Bfs, &g, base_config());
        assert!(m.iterations > 0);
        assert!(m.total_time > 0.0);
        assert_eq!(m.per_iteration.len(), m.iterations as usize);
        // BFS is weight-blind: 4 bytes per edge.
        assert_eq!(m.edge_bytes, g.num_edges() * 4);
    }

    #[test]
    fn sssp_moves_weights_bfs_does_not() {
        let g = generators::rmat(9, 8.0, 3, true);
        let s = run_algo(SystemKind::HyTGraph, AlgoKind::Sssp, &g, base_config());
        assert_eq!(s.edge_bytes, g.num_edges() * 8);
    }

    #[test]
    fn ctx_caches_datasets() {
        let mut ctx = Ctx::new();
        let a = ctx.graph(DatasetId::Sk);
        let b = ctx.graph(DatasetId::Sk);
        assert_eq!(a, b);
    }
}
