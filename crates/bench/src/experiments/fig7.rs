//! Figure 7: HyTGraph's execution path (engine mix per iteration) and the
//! per-iteration runtime comparison against ExpTM-F, Subway and EMOGI.

use crate::context::{base_config, run_algo, Ctx};
use crate::table::{pct, secs, Table};
use hyt_algos::AlgoKind;
use hyt_core::SystemKind;
use hyt_graph::DatasetId;

fn sample(len: usize, n: usize) -> Vec<usize> {
    if len <= n {
        (0..len).collect()
    } else {
        (0..n).map(|i| i * (len - 1) / (n - 1)).collect()
    }
}

/// Regenerate Fig. 7(a)–(d) on the FK proxy.
pub fn run(ctx: &mut Ctx) -> Vec<Table> {
    let g = ctx.graph(DatasetId::Fk);
    let mut out = Vec::new();
    for (panel, algo) in [("a", AlgoKind::PageRank), ("b", AlgoKind::Sssp)] {
        let m = run_algo(SystemKind::HyTGraph, algo, &g, base_config());
        let mut t = Table::new(
            format!("Fig 7({panel}): HyTGraph engine mix per iteration, {} on FK", algo.name()),
            &["iter", "ExpTM-F", "ExpTM-C", "ImpTM-ZC", "resident", "active parts"],
        );
        for i in sample(m.per_iteration.len(), 24) {
            let it = &m.per_iteration[i];
            let (f, c, z, _, r) = it.mix.fractions();
            t.row(vec![
                it.iteration.to_string(),
                pct(f),
                pct(c),
                pct(z),
                pct(r),
                it.active_partitions.to_string(),
            ]);
        }
        out.push(t);
    }
    for (panel, algo) in [("c", AlgoKind::PageRank), ("d", AlgoKind::Sssp)] {
        let systems =
            [SystemKind::ExpFilter, SystemKind::Subway, SystemKind::Emogi, SystemKind::HyTGraph];
        let runs: Vec<_> = systems.iter().map(|&s| run_algo(s, algo, &g, base_config())).collect();
        let iters = runs.iter().map(|m| m.per_iteration.len()).max().unwrap_or(0);
        let mut t = Table::new(
            format!("Fig 7({panel}): per-iteration runtime, {} on FK", algo.name()),
            &["iter", "ExpTM-F", "Subway", "EMOGI", "HyTGraph"],
        );
        for i in sample(iters, 24) {
            let mut row = vec![i.to_string()];
            for m in &runs {
                row.push(m.per_iteration.get(i).map_or("-".into(), |it| secs(it.time)));
            }
            t.row(row);
        }
        out.push(t);
        let mut totals = Table::new(
            format!("Fig 7({panel}) totals: {} on FK", algo.name()),
            &["System", "total", "iterations"],
        );
        for (k, m) in runs.iter().enumerate() {
            totals.row(vec![
                systems[k].name().to_string(),
                secs(m.total_time),
                m.iterations.to_string(),
            ]);
        }
        out.push(totals);
    }
    out
}
