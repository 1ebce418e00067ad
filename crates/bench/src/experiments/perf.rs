//! Extension experiment: machine-readable performance baseline (ISSUE 6).
//!
//! Emits `BENCH_PERF.json` (override with `BENCH_OUT`) — the first
//! committed perf snapshot of the repo, so later PRs can diff simulated
//! runtimes instead of re-deriving them from tables. One record per
//! `(dataset, algorithm, device count)` cell:
//!
//! * the four Table V algorithms (PR, SSSP, CC, BFS) plus HyperBall, the
//!   first wide-value program;
//! * `D ∈ {1, 4, 8}` devices on the HyTGraph preset, single-threaded host
//!   kernels so every figure is bit-reproducible run to run;
//! * since v2: the session layer's batched-vs-serial throughput table —
//!   width `B` coalesced hub traversals on a skewed 8-device ring
//!   against the `B` serial runs they replace (see
//!   [`super::session::batched_sweep`]);
//! * since v3: the skewed mixed-generation D=8 ring (see
//!   [`super::placement::skewed_ring_sweep`]), the only peer-fabric
//!   rows; named `placement` and carrying a second, cost-driven
//!   assignment per cell until v6;
//! * since v4: every grid record carries its attribution — scheduled
//!   units, bus busy time and exposed exchange (the whole exchange time:
//!   nothing hides it) — so a moved makespan can be decomposed from the
//!   diff alone;
//! * since v5: `records` run under the default host-port grouping (two
//!   devices per PCIe switch uplink), and `shared_root_complex` keeps the
//!   `D ∈ {4, 8}` grid with every device behind one root complex
//!   ([`HostPorts::Shared`], the v4 model), so that table stays
//!   reproducible. It is a separate array because readers of `records`
//!   take the first `(dataset, algo, devices)` match;
//! * since v6: the skewed-ring array is `skewed_ring`, edge-balanced
//!   placement only (the priced placement planner is gone).
//!
//! Since v3 the run also **diffs against the committed baseline**: any
//! matching `(dataset, algo, devices)` record whose simulated makespan
//! regressed by more than [`PERF_REGRESSION_TOLERANCE`] fails the run
//! (outside smoke mode), so perf regressions fail CI instead of being
//! silently committed as the new baseline.
//!
//! Set `REPRO_SMOKE=1` for a reduced sweep (one dataset, `D ∈ {1, 4}`,
//! batch widths `{1, 4}`) in CI; the committed baseline comes from the
//! full sweep.

use crate::context::{base_config, run_algo_with_config, Ctx};
use crate::table::{secs, Table};
use hyt_algos::AlgoKind;
use hyt_core::{HostPorts, SystemKind};
use hyt_graph::{Csr, DatasetId};
use serde::Serialize;
use serde_json::Value;

/// Schema tag for the emitted JSON, bumped on layout changes.
pub const PERF_SCHEMA: &str = "hytgraph-perf-v6";

/// Fractional `total_time` growth over the committed baseline that
/// fails a non-smoke `repro perf` run (25%).
pub const PERF_REGRESSION_TOLERANCE: f64 = 0.25;

/// One `(dataset, algo, devices)` measurement.
#[derive(Clone, Debug, Serialize)]
pub struct PerfRecord {
    /// Dataset short name (e.g. `SK`).
    pub dataset: String,
    /// Algorithm short name (e.g. `HB`).
    pub algo: String,
    /// Device count the run was sharded over.
    pub devices: usize,
    /// Iterations to convergence.
    pub iterations: u32,
    /// Simulated makespan in seconds.
    pub total_time: f64,
    /// Priced inter-device exchange payload in bytes (0 at `D = 1`).
    pub exchange_bytes: u64,
    /// Scheduled units: Σ `IterationStats::tasks` — combined tasks after
    /// slicing by owning device (since v4).
    pub scheduled_units: u64,
    /// Σ per-device `transfer_time`, seconds: the run's bus busy time
    /// (since v4).
    pub bus_busy: f64,
    /// Σ `exchange.time`, seconds: the exchange on the critical path,
    /// all of it, since it is charged after the iteration barrier (since
    /// v4).
    pub exchange_exposed: f64,
}

/// One batched-vs-serial throughput cell (schema v2): width `B`
/// coalesced hub traversals on the skewed 8-device ring against the `B`
/// serial runs they replace.
#[derive(Clone, Debug, Serialize)]
pub struct BatchedPerfRecord {
    /// Cohort width.
    pub width: usize,
    /// Sum of the serial runs' simulated makespans, seconds.
    pub serial_time: f64,
    /// The single batched run's simulated makespan, seconds.
    pub batched_time: f64,
    /// `serial_time / batched_time`.
    pub speedup: f64,
    /// Sum of the serial runs' exchange payload bytes.
    pub serial_exchange_bytes: u64,
    /// The batched run's exchange payload bytes.
    pub batched_exchange_bytes: u64,
}

/// One skewed-ring cell (schema v3; `skewed_ring` since v6): the
/// edge-balanced plan on the skewed mixed-generation D=8 ring.
#[derive(Clone, Debug, Serialize)]
pub struct SkewedRingPerfRecord {
    /// Dataset short name.
    pub dataset: String,
    /// Algorithm short name.
    pub algo: String,
    /// Device count.
    pub devices: usize,
    /// Iterations to convergence.
    pub iterations: u32,
    /// Simulated makespan in seconds.
    pub total_time: f64,
    /// Sum of per-iteration priced exchange makespans, seconds.
    pub exchange_time: f64,
    /// Exchange payload bytes.
    pub exchange_bytes: u64,
}

/// The emitted baseline file.
#[derive(Debug, Serialize)]
pub struct PerfBaseline {
    /// Schema tag ([`PERF_SCHEMA`]).
    pub schema: &'static str,
    /// System preset every record ran under.
    pub system: &'static str,
    /// Measurements under the default host ports, in sweep order.
    pub records: Vec<PerfRecord>,
    /// The `D > 1` cells again with every device behind one shared root
    /// complex (since v5).
    pub shared_root_complex: Vec<PerfRecord>,
    /// Session-layer batched-vs-serial throughput (since v2).
    pub batched: Vec<BatchedPerfRecord>,
    /// The skewed mixed-generation D=8 ring (since v3; named
    /// `placement` before v6).
    pub skewed_ring: Vec<SkewedRingPerfRecord>,
}

/// The fields of a committed baseline the regression gate needs. Parsed
/// leniently from the dynamic [`Value`] tree — older schemas still
/// yield their records (fields they predate read as 0), so the first v4
/// run diffs against the committed v3 file, and a malformed file
/// degrades to "no baseline".
#[derive(Debug, Default)]
struct CommittedBaseline {
    schema: String,
    records: Vec<PerfRecord>,
}

fn parse_committed(text: &str) -> CommittedBaseline {
    let Ok(doc) = serde_json::from_str(text) else {
        return CommittedBaseline::default();
    };
    let schema = doc.get("schema").and_then(Value::as_str).unwrap_or_default().to_string();
    let records = doc
        .get("records")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|r| {
            Some(PerfRecord {
                dataset: r.get("dataset")?.as_str()?.to_string(),
                algo: r.get("algo")?.as_str()?.to_string(),
                devices: r.get("devices")?.as_u64()? as usize,
                iterations: r.get("iterations")?.as_u64()? as u32,
                total_time: r.get("total_time")?.as_f64()?,
                exchange_bytes: r.get("exchange_bytes")?.as_u64()?,
                scheduled_units: r.get("scheduled_units").and_then(Value::as_u64).unwrap_or(0),
                bus_busy: r.get("bus_busy").and_then(Value::as_f64).unwrap_or(0.0),
                exchange_exposed: r.get("exchange_exposed").and_then(Value::as_f64).unwrap_or(0.0),
            })
        })
        .collect();
    CommittedBaseline { schema, records }
}

/// Compare a fresh sweep against the committed records: one line per
/// matching `(dataset, algo, devices)` cell whose `total_time` grew by
/// more than [`PERF_REGRESSION_TOLERANCE`].
pub fn diff_regressions(old: &[PerfRecord], new: &[PerfRecord]) -> Vec<String> {
    let mut out = Vec::new();
    for n in new {
        let matched = old
            .iter()
            .find(|o| o.dataset == n.dataset && o.algo == n.algo && o.devices == n.devices);
        if let Some(o) = matched {
            if o.total_time > 0.0 && n.total_time > o.total_time * (1.0 + PERF_REGRESSION_TOLERANCE)
            {
                out.push(format!(
                    "{} {} D={}: {} -> {} (+{:.0}%)",
                    n.dataset,
                    n.algo,
                    n.devices,
                    secs(o.total_time),
                    secs(n.total_time),
                    (n.total_time / o.total_time - 1.0) * 100.0
                ));
            }
        }
    }
    out
}

const ALGOS: [AlgoKind; 5] =
    [AlgoKind::PageRank, AlgoKind::Sssp, AlgoKind::Cc, AlgoKind::Bfs, AlgoKind::HyperBall];

/// One grid cell: the HyTGraph preset on `d` devices behind `host_ports`.
fn grid_record(
    g: &Csr,
    ds: DatasetId,
    algo: AlgoKind,
    d: usize,
    host_ports: HostPorts,
) -> PerfRecord {
    let mut cfg = SystemKind::HyTGraph.configure(base_config());
    cfg.num_devices = d;
    cfg.host_ports = host_ports;
    cfg.threads = 1; // bit-reproducible host kernels
    let m = run_algo_with_config(SystemKind::HyTGraph, algo, g, cfg);
    let its = &m.per_iteration;
    PerfRecord {
        dataset: ds.name().to_string(),
        algo: algo.name().to_string(),
        devices: d,
        iterations: m.iterations,
        total_time: m.total_time,
        exchange_bytes: m.counters.exchange_bytes,
        scheduled_units: its.iter().map(|it| it.tasks as u64).sum(),
        bus_busy: its.iter().flat_map(|it| &it.per_device).map(|dev| dev.transfer_time).sum(),
        exchange_exposed: its.iter().map(|it| it.exchange.time).sum(),
    }
}

/// Run the sweep (pure; no I/O) — also used by the integration tests.
pub fn collect_baseline(ctx: &mut Ctx, smoke: bool) -> PerfBaseline {
    let datasets: &[DatasetId] =
        if smoke { &[DatasetId::Sk] } else { &[DatasetId::Sk, DatasetId::Tw] };
    let devices: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 8] };
    let default_ports = base_config().host_ports;
    let (mut records, mut shared_root_complex) = (Vec::new(), Vec::new());
    for &ds in datasets {
        let g = ctx.graph(ds);
        for algo in ALGOS {
            for &d in devices {
                records.push(grid_record(&g, ds, algo, d, default_ports));
            }
        }
        for algo in ALGOS {
            for &d in devices.iter().filter(|&&d| d > 1) {
                shared_root_complex.push(grid_record(&g, ds, algo, d, HostPorts::Shared));
            }
        }
    }
    let (_, cells) = super::session::batched_sweep(smoke);
    let batched = cells
        .iter()
        .map(|c| BatchedPerfRecord {
            width: c.width,
            serial_time: c.serial_time,
            batched_time: c.batched_time,
            speedup: c.serial_time / c.batched_time,
            serial_exchange_bytes: c.serial_bytes,
            batched_exchange_bytes: c.batched_bytes,
        })
        .collect();
    let skewed_ring = super::placement::skewed_ring_sweep(ctx, smoke)
        .into_iter()
        .map(|c| SkewedRingPerfRecord {
            dataset: c.dataset,
            algo: c.algo,
            devices: c.devices,
            iterations: c.iterations,
            total_time: c.total_time,
            exchange_time: c.exchange_time,
            exchange_bytes: c.exchange_bytes,
        })
        .collect();
    PerfBaseline {
        schema: PERF_SCHEMA,
        system: SystemKind::HyTGraph.name(),
        records,
        shared_root_complex,
        batched,
        skewed_ring,
    }
}

/// Regenerate the perf baseline: diff against the committed file, write
/// the JSON, and return the same figures as printable tables. Outside
/// smoke mode a >[`PERF_REGRESSION_TOLERANCE`] makespan regression on
/// any matching record panics instead of overwriting the baseline.
pub fn run(ctx: &mut Ctx) -> Vec<Table> {
    let smoke = std::env::var("REPRO_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let baseline = collect_baseline(ctx, smoke);
    let path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_PERF.json".to_string());
    let committed =
        std::fs::read_to_string(&path).ok().map(|s| parse_committed(&s)).unwrap_or_default();
    if committed.records.is_empty() {
        eprintln!("   no committed baseline at {path}; skipping regression diff");
    } else {
        let regressions = diff_regressions(&committed.records, &baseline.records);
        if regressions.is_empty() {
            eprintln!(
                "   no >{:.0}% regressions vs committed {} baseline",
                PERF_REGRESSION_TOLERANCE * 100.0,
                committed.schema
            );
        } else {
            for r in &regressions {
                eprintln!("   REGRESSION {r}");
            }
            assert!(
                smoke,
                "repro perf: {} record(s) regressed >{:.0}% vs committed {path}",
                regressions.len(),
                PERF_REGRESSION_TOLERANCE * 100.0
            );
            eprintln!("   (smoke mode: regression diff is advisory only)");
        }
    }
    // hyt-lint: allow(unwrap-in-lib) -- Baseline derives Serialize with no custom impls; serialisation cannot fail
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serialises");
    match std::fs::write(&path, json + "\n") {
        Ok(()) => eprintln!("   wrote {} records to {path}", baseline.records.len()),
        Err(e) => eprintln!("   could not write {path}: {e}"),
    }
    let grid = |title: String, records: &[PerfRecord]| {
        let mut t = Table::new(
            title,
            &[
                "dataset",
                "algo",
                "D",
                "iters",
                "time",
                "exchange KB",
                "units",
                "bus",
                "exposed exch",
            ],
        );
        for r in records {
            t.row(vec![
                r.dataset.clone(),
                r.algo.clone(),
                r.devices.to_string(),
                r.iterations.to_string(),
                secs(r.total_time),
                format!("{:.1}", r.exchange_bytes as f64 / 1024.0),
                r.scheduled_units.to_string(),
                secs(r.bus_busy),
                secs(r.exchange_exposed),
            ]);
        }
        t
    };
    let t = grid(
        format!("Perf baseline ({}, {})", baseline.schema, baseline.system),
        &baseline.records,
    );
    let s = grid(
        "D > 1 behind one shared root complex (HostPorts::Shared)".to_string(),
        &baseline.shared_root_complex,
    );
    let mut b = Table::new(
        "Batched vs serial traversal throughput (skewed graph, D=8 ring)",
        &["width", "serial time", "batched time", "speedup", "serial KB", "batched KB"],
    );
    for r in &baseline.batched {
        b.row(vec![
            r.width.to_string(),
            secs(r.serial_time),
            secs(r.batched_time),
            format!("{:.2}x", r.speedup),
            format!("{:.1}", r.serial_exchange_bytes as f64 / 1024.0),
            format!("{:.1}", r.batched_exchange_bytes as f64 / 1024.0),
        ]);
    }
    let mut p = Table::new(
        "Skewed mixed-generation ring, D=8 (edge-balanced placement)",
        &["dataset", "algo", "iters", "time", "exchange KB"],
    );
    for r in &baseline.skewed_ring {
        p.row(vec![
            r.dataset.clone(),
            r.algo.clone(),
            r.iterations.to_string(),
            secs(r.total_time),
            format!("{:.1}", r.exchange_bytes as f64 / 1024.0),
        ]);
    }
    vec![t, s, b, p]
}
