//! Extension experiment: the skewed mixed-generation fabric and
//! device-affine migration on it.
//!
//! The fabric is the worst case for positional placement: a D=8 ring
//! whose highest device id sits behind 2 GB/s bridges on *both* sides,
//! so anything placed there pays dearly to talk to anyone. Two tables:
//!
//! * **skewed ring** — the edge-balanced plan per `(dataset, algorithm)`:
//!   makespan, exchange time and exchange bytes. These are the only
//!   committed peer-fabric rows of the perf baseline.
//! * **migration break-even** — a resident edge-balanced system with
//!   `affine_migration` on, re-run against the same migration-off twin:
//!   the first migrated run pays the priced bulk copy, later runs bank
//!   the cheaper exchange, and the cumulative makespan crosses below
//!   the static twin past a break-even run.
//!
//! `REPRO_SMOKE=1` reduces the sweep to one dataset and one algorithm.

use crate::context::{base_config, run_algo_with_config, source_vertex, Ctx, SCALE_SHIFT};
use crate::table::{secs, Table};
use hyt_algos::{AlgoKind, Sssp};
use hyt_core::{HyTGraphConfig, HyTGraphSystem, SystemKind, TopologyKind};
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

/// One resident run of the migration break-even study.
#[derive(Clone, Debug)]
pub struct MigrationRun {
    /// Resident run index (0-based).
    pub run: usize,
    /// Migration-off twin's makespan for this run, seconds.
    pub static_time: f64,
    /// Migration-on system's makespan (includes any priced copy).
    pub affine_time: f64,
    /// Cumulative static makespan through this run.
    pub static_cum: f64,
    /// Cumulative affine makespan through this run.
    pub affine_cum: f64,
    /// Migrations applied so far (cumulative).
    pub migrations: usize,
    /// Values bit-identical between the twins on this run.
    pub identical: bool,
}

/// Run the resident break-even study: `runs` SSSP runs against a
/// migration-off twin.
///
/// The graph is sized so edge-balancing yields about one partition per
/// device — the inherited static plan strands a chatty partition on the
/// doubly-bridged card, and a single affine move drains that card out
/// of the broadcast holder set entirely. That is the regime migration
/// exists for: a resident service inheriting the positional plan
/// repairs it at runtime, one priced copy at a time. (On graphs with
/// many partitions per device no single move empties a holder, so
/// strict-improvement migration moves little and banks little.)
pub fn migration_study(runs: usize) -> Vec<MigrationRun> {
    let g = hyt_graph::generators::power_law_preferential(1 << 14, 10.0, 2.2, 7, true);
    let src = source_vertex(&g);
    let mut on_cfg = skewed_ring_config(PLACEMENT_DEVICES);
    on_cfg.affine_migration = true;
    let mut on = HyTGraphSystem::new(g.clone(), on_cfg);
    let mut off = HyTGraphSystem::new(g.clone(), skewed_ring_config(PLACEMENT_DEVICES));
    let mut out = Vec::new();
    let (mut cum_on, mut cum_off) = (0.0, 0.0);
    for run in 0..runs {
        let r_on = on.run(Sssp::from_source(src));
        let r_off = off.run(Sssp::from_source(src));
        cum_on += r_on.total_time;
        cum_off += r_off.total_time;
        out.push(MigrationRun {
            run,
            static_time: r_off.total_time,
            affine_time: r_on.total_time,
            static_cum: cum_off,
            affine_cum: cum_on,
            migrations: on.migrations().len(),
            identical: r_on.values == r_off.values,
        });
    }
    out
}

/// Print both tables.
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
    let runs = if smoke { 3 } else { 5 };
    let study = migration_study(runs);
    let mut m = Table::new(
        "Device-affine migration break-even (resident SSSP, edge-balanced start)",
        &["run", "static", "affine", "static cum", "affine cum", "moves", "identical"],
    );
    for r in &study {
        m.row(vec![
            r.run.to_string(),
            secs(r.static_time),
            secs(r.affine_time),
            secs(r.static_cum),
            secs(r.affine_cum),
            r.migrations.to_string(),
            r.identical.to_string(),
        ]);
    }
    vec![t, m]
}
