//! Extension experiment: multi-GPU sharded execution (ISSUE 2 + 3).
//!
//! Two sweeps on two generated graphs — a skewed RMAT and a
//! locality-heavy power-law web proxy:
//!
//! 1. **Device sweep** (host-only topology): `D ∈ {1, 2, 4, 8}` for SSSP
//!    and PageRank, reporting the simulated makespan and the speedup over
//!    `D = 1` (two devices per PCIe switch uplink), the exchange payload,
//!    and whether the computed values stayed bit-identical to the
//!    single-device run (the sharding contract; `tests/multi_gpu.rs`
//!    enforces it, this table *shows* it).
//! 2. **Topology sweep** (SSSP): host-only vs ring vs all-to-all at
//!    `D ∈ {2, 4, 8}`, reporting the total exchange time and its
//!    host/peer link-class split. Peer links strictly shrink the
//!    exchange at D ∈ {4, 8} while values and iterations stay identical
//!    — routing changes the timeline, never the computation.
//!
//! Host-only scaling is sub-linear: every device brings its own kernel
//! engine and streams, but the devices of one PCIe host port share its
//! queue, so transfer-bound phases serialise per port and the staged
//! exchange grows with `D`. NVLink-style topologies move the exchange off the host ports,
//! which is exactly the gap the paper's Section VIII names.

use crate::context::{base_config, source_vertex, Ctx};
use crate::table::{secs, Table};
use hyt_algos::{PageRank, Sssp};
use hyt_core::{HyTGraphConfig, HyTGraphSystem, SystemKind, TopologyKind};
use hyt_graph::{generators, Csr};

const DEVICE_SWEEP: [usize; 4] = [1, 2, 4, 8];
const TOPOLOGY_DEVICES: [usize; 3] = [2, 4, 8];

fn sharded(base: HyTGraphConfig, d: usize, topology: TopologyKind) -> HyTGraphConfig {
    let mut cfg = SystemKind::HyTGraph.configure(base);
    cfg.num_devices = d;
    cfg.topology = topology;
    // Deterministic host kernels: the values==D1 column compares bit
    // patterns across runs, and async seeds with parallel kernels are
    // timing-dependent (f32 accumulation order for PR).
    cfg.threads = 1;
    cfg
}

struct SweepPoint {
    time: f64,
    iterations: u32,
    exchange_bytes: u64,
    identical: bool,
}

fn sweep_algo(g: &Csr, pagerank: bool) -> Vec<SweepPoint> {
    let src = source_vertex(g);
    let mut baseline: Option<(Vec<u64>, u32)> = None; // (value bits, iterations)
    let mut out = Vec::new();
    for &d in &DEVICE_SWEEP {
        let cfg = sharded(base_config(), d, TopologyKind::HostOnly);
        let mut sys = HyTGraphSystem::new(g.clone(), cfg);
        let (bits, iterations, time, exchange_bytes): (Vec<u64>, u32, f64, u64) = if pagerank {
            let r = sys.run(PageRank::new());
            let bits = PageRank::ranks(&r).iter().map(|x| x.to_bits() as u64).collect();
            (bits, r.iterations, r.total_time, r.counters.exchange_bytes)
        } else {
            let r = sys.run(Sssp::from_source(src));
            let bits = r.values.iter().map(|&x| x as u64).collect();
            (bits, r.iterations, r.total_time, r.counters.exchange_bytes)
        };
        let identical = match &baseline {
            None => {
                baseline = Some((bits, iterations));
                true
            }
            Some((b, i)) => *b == bits && *i == iterations,
        };
        out.push(SweepPoint { time, iterations, exchange_bytes, identical });
    }
    out
}

/// One topology row of the SSSP topology sweep.
struct TopoPoint {
    time: f64,
    exchange: hyt_core::ExchangeStats,
    identical: bool,
}

fn sweep_topologies(g: &Csr, d: usize) -> Vec<(TopologyKind, TopoPoint)> {
    let src = source_vertex(g);
    let mut baseline: Option<(Vec<u32>, u32)> = None;
    let mut out = Vec::new();
    for &topo in &TopologyKind::ALL {
        let mut sys = HyTGraphSystem::new(g.clone(), sharded(base_config(), d, topo));
        let r = sys.run(Sssp::from_source(src));
        let identical = match &baseline {
            None => {
                baseline = Some((r.values.clone(), r.iterations));
                true
            }
            Some((v, i)) => *v == r.values && *i == r.iterations,
        };
        let mut exchange = hyt_core::ExchangeStats::default();
        for it in &r.per_iteration {
            exchange.merge(&it.exchange);
        }
        out.push((topo, TopoPoint { time: r.total_time, exchange, identical }));
    }
    out
}

/// Regenerate the multi-GPU scaling and topology tables.
pub fn run(_ctx: &mut Ctx) -> Vec<Table> {
    let graphs: Vec<(&str, Csr)> = vec![
        ("RMAT-12 (skewed)", generators::rmat(12, 12.0, 42, true)),
        ("PLAW-web (local)", generators::power_law_local(4096, 12.0, 2.4, 0.7, 64, 11, true)),
    ];
    let mut out = Vec::new();
    for (label, g) in &graphs {
        for pagerank in [false, true] {
            let algo = if pagerank { "PR" } else { "SSSP" };
            let mut t = Table::new(
                format!(
                    "Multi-GPU ({algo}, {label}, {} edges): makespan vs device count",
                    g.num_edges()
                ),
                &["D", "time", "speedup", "iters", "exchange KB", "values==D1"],
            );
            let points = sweep_algo(g, pagerank);
            let base = points[0].time;
            for (&d, p) in DEVICE_SWEEP.iter().zip(&points) {
                t.row(vec![
                    d.to_string(),
                    secs(p.time),
                    format!("{:.2}x", base / p.time),
                    p.iterations.to_string(),
                    format!("{:.1}", p.exchange_bytes as f64 / 1024.0),
                    if p.identical { "yes".into() } else { "NO".into() },
                ]);
            }
            out.push(t);
        }
        let mut t = Table::new(
            format!("Interconnect topology (SSSP, {label}): exchange by link class"),
            &[
                "D",
                "topology",
                "time",
                "exch",
                "exch host",
                "exch peer",
                "host KB",
                "peer KB",
                "fwd KB",
                "values==host-only",
            ],
        );
        for &d in &TOPOLOGY_DEVICES {
            for (topo, p) in sweep_topologies(g, d) {
                t.row(vec![
                    d.to_string(),
                    topo.name().to_string(),
                    secs(p.time),
                    secs(p.exchange.time),
                    secs(p.exchange.host_time),
                    secs(p.exchange.peer_time),
                    format!("{:.1}", p.exchange.host_bytes as f64 / 1024.0),
                    format!("{:.1}", p.exchange.peer_bytes as f64 / 1024.0),
                    format!("{:.1}", p.exchange.forwarded_bytes as f64 / 1024.0),
                    if p.identical { "yes".into() } else { "NO".into() },
                ]);
            }
        }
        out.push(t);
    }
    out
}
