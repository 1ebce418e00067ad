//! Extension experiment: HyperBall sketch analytics (ISSUE 6).
//!
//! The first wide-value program: 64 HLL registers (8 lanes, 64 wire
//! bytes) per vertex, folded with an idempotent register-max merge.
//! Two views:
//!
//! 1. **Accuracy** — the sketched neighbourhood function per radius
//!    against the exact all-pairs-BFS oracle, with the standard HLL
//!    relative-error budget (`4σ`, `σ = 1.04/√64`).
//! 2. **Width-aware sharding** — `D ∈ {1, 2, 4, 8}`: a record is at most
//!    68 bytes (id + 64 register bytes) instead of the narrow 12, and
//!    since ISSUE 26 only id + 8-byte bitmap + the raised registers when
//!    that is smaller, while the registers stay bit-identical to `D = 1`.
//!
//! Set `REPRO_SMOKE=1` for a smaller graph in CI.

use crate::context::{base_config, Ctx};
use crate::table::{secs, Table};
use hyt_algos::hyperball::{run_hyperball, HllSketch, HLL_RSE};
use hyt_algos::reference;
use hyt_core::{SystemKind, TopologyKind};
use hyt_graph::generators;

/// Regenerate the HyperBall accuracy and sharding tables.
pub fn run(_ctx: &mut Ctx) -> Vec<Table> {
    let smoke = std::env::var("REPRO_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    // Both sizes span >= 2 partitions at the default 32 KB budget, so the
    // device sweep below actually pays the wide exchange.
    let g = if smoke {
        generators::rmat(10, 8.0, 21, false)
    } else {
        generators::rmat(11, 8.0, 33, false)
    };
    let mut out = Vec::new();

    // 1. Sketch vs exact oracle, per radius.
    let oracle = reference::neighbourhood_function(&g);
    let r = run_hyperball(g.clone(), base_config());
    let mut t = Table::new(
        format!(
            "HyperBall accuracy ({} vertices, {} edges): sketched vs exact N(t)",
            g.num_vertices(),
            g.num_edges()
        ),
        &["t", "exact N(t)", "sketch N(t)", "rel err", "4-sigma budget", "within"],
    );
    let upto = r.nf.len().min(oracle.nf.len());
    for i in 0..upto {
        let rel = (r.nf[i] - oracle.nf[i]).abs() / oracle.nf[i];
        t.row(vec![
            i.to_string(),
            format!("{:.0}", oracle.nf[i]),
            format!("{:.1}", r.nf[i]),
            format!("{:.1}%", rel * 100.0),
            format!("{:.1}%", 4.0 * HLL_RSE * 100.0),
            if rel < 4.0 * HLL_RSE { "yes".into() } else { "NO".into() },
        ]);
    }
    out.push(t);
    let mut t =
        Table::new("HyperBall derived metrics vs exact oracle", &["metric", "sketch", "exact"]);
    t.row(vec![
        "diameter lower bound".into(),
        r.diameter_lower_bound.to_string(),
        oracle.diameter.to_string(),
    ]);
    let top = |h: &[f64]| {
        let mut idx: Vec<usize> = (0..h.len()).collect();
        idx.sort_by(|&a, &b| h[b].total_cmp(&h[a]).then(a.cmp(&b)));
        idx[0]
    };
    t.row(vec![
        "top harmonic-centrality vertex".into(),
        top(&r.harmonic).to_string(),
        top(&oracle.harmonic).to_string(),
    ]);
    out.push(t);

    // 2. Device sweep: wide records on the wire, bit-identical registers.
    let layout = r.run.value_layout;
    let mut t = Table::new(
        format!(
            "HyperBall sharding (full record {} B = {} id + {} registers)",
            layout.record_bytes(),
            layout.record_bytes() - layout.wire_bytes,
            layout.wire_bytes
        ),
        &["D", "time", "iters", "exchange KB", "records", "B/record", "registers==D1"],
    );
    let mut baseline: Option<Vec<HllSketch>> = None;
    for d in [1usize, 2, 4, 8] {
        let mut cfg = SystemKind::HyTGraph.configure(base_config());
        cfg.num_devices = d;
        cfg.topology = TopologyKind::HostOnly;
        cfg.threads = 1;
        let rd = run_hyperball(g.clone(), cfg);
        let identical = match &baseline {
            None => {
                baseline = Some(rd.run.values.clone());
                true
            }
            Some(b) => *b == rd.run.values,
        };
        let x = rd.run.counters.exchange_bytes;
        let records: u64 = rd.run.per_iteration.iter().map(|it| it.exchange.records).sum();
        t.row(vec![
            d.to_string(),
            secs(rd.run.total_time),
            rd.run.iterations.to_string(),
            format!("{:.1}", x as f64 / 1024.0),
            records.to_string(),
            if records == 0 { "-".into() } else { format!("{:.1}", x as f64 / records as f64) },
            if identical { "yes".into() } else { "NO".into() },
        ]);
    }
    out.push(t);
    out
}
