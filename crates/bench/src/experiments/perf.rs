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
//!   `skewed_ring_sweep`), the only peer-fabric rows; named
//!   `placement` and carrying a second, cost-driven assignment per cell
//!   until v6;
//! * since v4: every grid record carries its attribution — scheduled
//!   units, bus busy time and exposed exchange (the whole exchange time:
//!   nothing hides it) — so a moved makespan can be decomposed from the
//!   diff alone;
//! * since v5: `records` run with two devices per PCIe switch uplink
//!   (v5 and v6 also carried the `D ∈ {4, 8}` grid with every device
//!   behind one shared root complex, the v4 model, in a second array);
//! * since v6: the skewed-ring array is `skewed_ring`, edge-balanced
//!   placement only (the priced placement planner is gone);
//! * since v7: two devices per uplink is the interconnect's only host
//!   layout, so the shared-root-complex array is gone; `records`,
//!   `batched` and `skewed_ring` are v6's.
//!
//! Since v3 the run also **diffs against the committed baseline**: any
//! matching cell whose simulated time regressed by more than
//! [`PERF_REGRESSION_TOLERANCE`] fails the run (outside smoke mode), so
//! perf regressions fail CI instead of being silently committed as the
//! new baseline. The gate covers all three arrays: a `records` or
//! `skewed_ring` cell's `total_time` and a `batched` cell's
//! `batched_time`.
//!
//! Set `REPRO_SMOKE=1` for a reduced sweep (one dataset, `D ∈ {1, 4}`,
//! batch widths `{1, 4}`) in CI; the committed baseline comes from the
//! full sweep.

use crate::context::{base_config, run_algo_with_config, Ctx, SCALE_SHIFT};
use crate::table::{secs, Table};
use hyt_algos::AlgoKind;
use hyt_core::{HyTGraphConfig, SystemKind, TopologyKind};
use hyt_graph::{Csr, DatasetId};
use hyt_sim::LinkSpec;
use serde::Serialize;
use serde_json::Value;

/// Schema tag for the emitted JSON, bumped on layout changes.
pub const PERF_SCHEMA: &str = "hytgraph-perf-v7";

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
    /// Σ per-device `transfer_time`, seconds: the run's host-port busy
    /// time, summed over the ports (since v4). It is not the busiest
    /// port's time: at `D` devices there are `D.div_ceil(2)` ports.
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

/// Device count of the skewed ring (the grid's largest sweep point).
const SKEWED_RING_DEVICES: usize = 8;

/// The HyTGraph preset (`threads = 1`) on the skewed mixed-generation
/// ring of `devices` GPUs, the worst case for positional placement: the
/// last device is an old-generation card behind 2 GB/s bridges on both
/// sides, so anything placed there pays dearly to talk to anyone. One or
/// two devices have one bridge at most.
pub fn skewed_ring_config(devices: usize) -> HyTGraphConfig {
    let slow = LinkSpec::with_nominal_bw(2.0e9).scaled(SCALE_SHIFT);
    let mut cfg = SystemKind::HyTGraph.configure(base_config());
    cfg.num_devices = devices;
    cfg.topology = TopologyKind::Ring;
    cfg.threads = 1;
    let last = devices.saturating_sub(1) as u32;
    cfg.link_overrides = match devices {
        0 | 1 => Vec::new(),
        2 => vec![(0, 1, slow)],
        _ => vec![(last - 1, last, slow), (last, 0, slow)],
    };
    cfg
}

/// The edge-balanced plan on the skewed D=8 ring per `(dataset, algo)`
/// (pure; no I/O). Smoke mode runs SK/SSSP only.
fn skewed_ring_sweep(ctx: &mut Ctx, smoke: bool) -> Vec<SkewedRingPerfRecord> {
    let datasets: &[DatasetId] =
        if smoke { &[DatasetId::Sk] } else { &[DatasetId::Sk, DatasetId::Tw] };
    let algos: &[AlgoKind] =
        if smoke { &[AlgoKind::Sssp] } else { &[AlgoKind::PageRank, AlgoKind::Sssp] };
    let mut cells = Vec::new();
    for &ds in datasets {
        let g = ctx.graph(ds);
        for &algo in algos {
            let cfg = skewed_ring_config(SKEWED_RING_DEVICES);
            let m = run_algo_with_config(SystemKind::HyTGraph, algo, &g, cfg);
            cells.push(SkewedRingPerfRecord {
                dataset: ds.name().to_string(),
                algo: algo.name().to_string(),
                devices: SKEWED_RING_DEVICES,
                iterations: m.iterations,
                total_time: m.total_time,
                exchange_time: m.per_iteration.iter().map(|it| it.exchange.time).sum(),
                exchange_bytes: m.counters.exchange_bytes,
            });
        }
    }
    cells
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
    /// Measurements, in sweep order.
    pub records: Vec<PerfRecord>,
    /// Session-layer batched-vs-serial throughput (since v2).
    pub batched: Vec<BatchedPerfRecord>,
    /// The skewed mixed-generation D=8 ring (since v3; named
    /// `placement` before v6).
    pub skewed_ring: Vec<SkewedRingPerfRecord>,
}

/// The fields of a committed baseline the regression gate needs: every
/// gated cell as `(key, time)` ([`gated_cells`]). Parsed leniently from
/// the dynamic [`Value`] tree — an array an older schema predates, or a
/// cell missing a field, yields nothing, and a malformed file degrades
/// to "no baseline".
#[derive(Debug, Default)]
struct CommittedBaseline {
    schema: String,
    cells: Vec<(String, f64)>,
}

/// Gate key of a `records` cell.
fn grid_key(dataset: &str, algo: &str, devices: u64) -> String {
    format!("{dataset} {algo} D={devices}")
}

/// Gate key of a `batched` cell.
fn batched_key(width: u64) -> String {
    format!("batched B={width}")
}

/// Gate key of a `skewed_ring` cell.
fn skewed_ring_key(dataset: &str, algo: &str, devices: u64) -> String {
    format!("skewed ring {dataset} {algo} D={devices}")
}

/// Every gated cell of a fresh sweep, keyed like [`parse_committed`]'s.
fn gated_cells(b: &PerfBaseline) -> Vec<(String, f64)> {
    let records =
        b.records.iter().map(|r| (grid_key(&r.dataset, &r.algo, r.devices as u64), r.total_time));
    let batched = b.batched.iter().map(|r| (batched_key(r.width as u64), r.batched_time));
    let ring = b
        .skewed_ring
        .iter()
        .map(|r| (skewed_ring_key(&r.dataset, &r.algo, r.devices as u64), r.total_time));
    records.chain(batched).chain(ring).collect()
}

fn parse_committed(text: &str) -> CommittedBaseline {
    let Ok(doc) = serde_json::from_str(text) else {
        return CommittedBaseline::default();
    };
    let schema = doc.get("schema").and_then(Value::as_str).unwrap_or_default().to_string();
    let cells_of = |array: &str, cell: &dyn Fn(&Value) -> Option<(String, f64)>| {
        let cells = doc.get(array).and_then(Value::as_array).unwrap_or_default();
        cells.iter().filter_map(cell).collect::<Vec<_>>()
    };
    let str_of = |c: &Value, field: &str| c.get(field)?.as_str().map(str::to_string);
    let u64_of = |c: &Value, field: &str| c.get(field)?.as_u64();
    let f64_of = |c: &Value, field: &str| c.get(field)?.as_f64();
    let mut cells = cells_of("records", &|c| {
        let key = grid_key(&str_of(c, "dataset")?, &str_of(c, "algo")?, u64_of(c, "devices")?);
        Some((key, f64_of(c, "total_time")?))
    });
    cells.extend(cells_of("batched", &|c| {
        Some((batched_key(u64_of(c, "width")?), f64_of(c, "batched_time")?))
    }));
    cells.extend(cells_of("skewed_ring", &|c| {
        let key =
            skewed_ring_key(&str_of(c, "dataset")?, &str_of(c, "algo")?, u64_of(c, "devices")?);
        Some((key, f64_of(c, "total_time")?))
    }));
    CommittedBaseline { schema, cells }
}

/// Compare fresh cells against the committed ones: one line per cell
/// whose key matches and whose time grew by more than
/// [`PERF_REGRESSION_TOLERANCE`].
fn diff_regressions(old: &[(String, f64)], new: &[(String, f64)]) -> Vec<String> {
    new.iter()
        .filter_map(|(key, n)| {
            let (_, o) = old.iter().find(|(k, _)| k == key)?;
            (*o > 0.0 && *n > o * (1.0 + PERF_REGRESSION_TOLERANCE)).then(|| {
                format!("{key}: {} -> {} (+{:.0}%)", secs(*o), secs(*n), (n / o - 1.0) * 100.0)
            })
        })
        .collect()
}

const ALGOS: [AlgoKind; 5] =
    [AlgoKind::PageRank, AlgoKind::Sssp, AlgoKind::Cc, AlgoKind::Bfs, AlgoKind::HyperBall];

/// One grid cell: the HyTGraph preset on `d` devices.
fn grid_record(g: &Csr, ds: DatasetId, algo: AlgoKind, d: usize) -> PerfRecord {
    let mut cfg = SystemKind::HyTGraph.configure(base_config());
    cfg.num_devices = d;
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
    let mut records = Vec::new();
    for &ds in datasets {
        let g = ctx.graph(ds);
        for algo in ALGOS {
            for &d in devices {
                records.push(grid_record(&g, ds, algo, d));
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
    let skewed_ring = skewed_ring_sweep(ctx, smoke);
    PerfBaseline {
        schema: PERF_SCHEMA,
        system: SystemKind::HyTGraph.name(),
        records,
        batched,
        skewed_ring,
    }
}

/// Regenerate the perf baseline: diff against the committed file, write
/// the JSON, and return the same figures as printable tables. Outside
/// smoke mode a >[`PERF_REGRESSION_TOLERANCE`] regression on any
/// matching cell panics instead of overwriting the baseline.
pub fn run(ctx: &mut Ctx) -> Vec<Table> {
    let smoke = std::env::var("REPRO_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let baseline = collect_baseline(ctx, smoke);
    let path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_PERF.json".to_string());
    let committed =
        std::fs::read_to_string(&path).ok().map(|s| parse_committed(&s)).unwrap_or_default();
    if committed.cells.is_empty() {
        eprintln!("   no committed baseline at {path}; skipping regression diff");
    } else {
        let regressions = diff_regressions(&committed.cells, &gated_cells(&baseline));
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
                "repro perf: {} cell(s) regressed >{:.0}% vs committed {path}",
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
    let mut t = Table::new(
        format!("Perf baseline ({}, {})", baseline.schema, baseline.system),
        &["dataset", "algo", "D", "iters", "time", "exchange KB", "units", "bus", "exposed exch"],
    );
    for r in &baseline.records {
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
        &["dataset", "algo", "iters", "time", "exchange ms", "exchange KB"],
    );
    for r in &baseline.skewed_ring {
        p.row(vec![
            r.dataset.clone(),
            r.algo.clone(),
            r.iterations.to_string(),
            secs(r.total_time),
            format!("{:.3}", r.exchange_time * 1e3),
            format!("{:.1}", r.exchange_bytes as f64 / 1024.0),
        ]);
    }
    vec![t, b, p]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_cell(total_time: f64) -> SkewedRingPerfRecord {
        SkewedRingPerfRecord {
            dataset: "SK".into(),
            algo: "PR".into(),
            devices: 8,
            iterations: 3,
            total_time,
            exchange_time: 0.0,
            exchange_bytes: 0,
        }
    }

    fn baseline(skewed_ring: Vec<SkewedRingPerfRecord>) -> PerfBaseline {
        PerfBaseline {
            schema: PERF_SCHEMA,
            system: "HyTGraph",
            records: Vec::new(),
            batched: Vec::new(),
            skewed_ring,
        }
    }

    #[test]
    fn a_skewed_ring_cell_at_half_its_fresh_time_is_reported() {
        let committed =
            serde_json::to_string(&baseline(vec![ring_cell(1.0e-3)])).expect("baseline serialises");
        let committed = parse_committed(&committed);
        let fresh = gated_cells(&baseline(vec![ring_cell(2.0e-3)]));
        let regressions = diff_regressions(&committed.cells, &fresh);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].starts_with("skewed ring SK PR D=8:"), "{}", regressions[0]);
        // The same time is no regression.
        let same = gated_cells(&baseline(vec![ring_cell(1.0e-3)]));
        assert!(diff_regressions(&committed.cells, &same).is_empty());
    }

    #[test]
    fn a_batched_cell_is_gated_on_its_batched_time() {
        let with_batched = |batched_time: f64| PerfBaseline {
            batched: vec![BatchedPerfRecord {
                width: 4,
                serial_time: 1.0,
                batched_time,
                speedup: 1.0 / batched_time,
                serial_exchange_bytes: 0,
                batched_exchange_bytes: 0,
            }],
            ..baseline(Vec::new())
        };
        let committed = serde_json::to_string(&with_batched(1.0e-3)).expect("baseline serialises");
        let committed = parse_committed(&committed);
        let regressions = diff_regressions(&committed.cells, &gated_cells(&with_batched(1.3e-3)));
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].starts_with("batched B=4:"), "{}", regressions[0]);
    }
}
