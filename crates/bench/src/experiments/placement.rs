//! Extension experiment: the skewed mixed-generation fabric.
//!
//! The fabric is the worst case for positional placement: a D=8 ring
//! whose highest device id sits behind 2 GB/s bridges on *both* sides,
//! so anything placed there pays dearly to talk to anyone. One table,
//! the edge-balanced plan per `(dataset, algorithm)`: makespan, exchange
//! time and exchange bytes. These are the only committed peer-fabric rows
//! of the perf baseline.
//!
//! `REPRO_SMOKE=1` reduces the sweep to one dataset and one algorithm.

use crate::context::{base_config, run_algo_with_config, Ctx, SCALE_SHIFT};
use crate::table::{secs, Table};
use hyt_algos::AlgoKind;
use hyt_core::{HyTGraphConfig, SystemKind, TopologyKind};
use hyt_graph::DatasetId;
use hyt_sim::LinkSpec;

/// Device count of the skewed ring (matches the perf baseline's largest
/// sweep point).
pub const PLACEMENT_DEVICES: usize = 8;

/// The skewed mixed-generation ring: device `d-1` is an old-generation
/// card behind 2 GB/s bridges on both sides.
pub fn skewed_ring_config(d: usize) -> HyTGraphConfig {
    let slow = LinkSpec::with_nominal_bw(2.0e9).scaled(SCALE_SHIFT);
    let mut cfg = SystemKind::HyTGraph.configure(base_config());
    cfg.num_devices = d;
    cfg.topology = TopologyKind::Ring;
    cfg.threads = 1;
    cfg.link_overrides = match d {
        0 | 1 => Vec::new(),
        2 => vec![(0, 1, slow)],
        _ => vec![((d - 2) as u32, (d - 1) as u32, slow), ((d - 1) as u32, 0, slow)],
    };
    cfg
}

/// One `(dataset, algo)` cell of the skewed-ring sweep.
#[derive(Clone, Debug)]
pub struct SkewedRingCell {
    /// Dataset short name.
    pub dataset: String,
    /// Algorithm short name.
    pub algo: String,
    /// Device count (always [`PLACEMENT_DEVICES`]).
    pub devices: usize,
    /// Iterations to convergence.
    pub iterations: u32,
    /// Simulated makespan, seconds.
    pub total_time: f64,
    /// Sum of per-iteration priced exchange makespans, seconds.
    pub exchange_time: f64,
    /// Exchange payload bytes.
    pub exchange_bytes: u64,
}

/// Run the skewed-ring sweep (pure; no I/O) — also feeds the perf
/// baseline's `skewed_ring` table.
pub fn skewed_ring_sweep(ctx: &mut Ctx, smoke: bool) -> Vec<SkewedRingCell> {
    let datasets: &[DatasetId] =
        if smoke { &[DatasetId::Sk] } else { &[DatasetId::Sk, DatasetId::Tw] };
    let algos: &[AlgoKind] =
        if smoke { &[AlgoKind::Sssp] } else { &[AlgoKind::PageRank, AlgoKind::Sssp] };
    let mut cells = Vec::new();
    for &ds in datasets {
        let g = ctx.graph(ds);
        for &algo in algos {
            let cfg = skewed_ring_config(PLACEMENT_DEVICES);
            let m = run_algo_with_config(SystemKind::HyTGraph, algo, &g, cfg);
            cells.push(SkewedRingCell {
                dataset: ds.name().to_string(),
                algo: algo.name().to_string(),
                devices: PLACEMENT_DEVICES,
                iterations: m.iterations,
                total_time: m.total_time,
                exchange_time: m.per_iteration.iter().map(|it| it.exchange.time).sum(),
                exchange_bytes: m.counters.exchange_bytes,
            });
        }
    }
    cells
}

/// Print the skewed-ring table.
pub fn run(ctx: &mut Ctx) -> Vec<Table> {
    let smoke = std::env::var("REPRO_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let cells = skewed_ring_sweep(ctx, smoke);
    let mut t = Table::new(
        format!("Skewed mixed-generation D={PLACEMENT_DEVICES} ring (edge-balanced placement)"),
        &["dataset", "algo", "iters", "time", "exchange ms", "exchange KB"],
    );
    for c in &cells {
        t.row(vec![
            c.dataset.clone(),
            c.algo.clone(),
            c.iterations.to_string(),
            secs(c.total_time),
            format!("{:.3}", c.exchange_time * 1e3),
            format!("{:.1}", c.exchange_bytes as f64 / 1024.0),
        ]);
    }
    vec![t]
}
