//! Social-network analysis: influence ranking and community structure on
//! a Friendster-like graph.
//!
//! ```text
//! cargo run --release --example social_network_analysis
//! ```
//!
//! The workload the paper's introduction motivates: a social graph too
//! large for device memory, analysed with PageRank (influence) and
//! connected components (community islands). Because PageRank is
//! Δ-accumulative, HyTGraph schedules partitions by pending-Δ priority;
//! watch the engine mix move from ExpTM-filter (everything active) toward
//! zero-copy (sparse stragglers) as it converges.

use hytgraph::core::stats::IterationStats;
use hytgraph::graph::datasets::{self, DatasetId};
use hytgraph::prelude::*;

fn summarize(label: &str, iters: &[IterationStats]) {
    let total: f64 = iters.iter().map(|i| i.time).sum();
    println!("\n{label}: {} iterations, {:.2} ms simulated", iters.len(), total * 1e3);
    println!("  iter | active-vertices | engine mix (E-F/E-C/I-ZC/resident)");
    let step = (iters.len() / 8).max(1);
    for it in iters.iter().step_by(step) {
        let (f, c, z, _, r) = it.mix.fractions();
        println!(
            "  {:>4} | {:>14} | {:>3.0}% / {:>3.0}% / {:>3.0}% / {:>3.0}%",
            it.iteration,
            it.active_vertices,
            f * 100.0,
            c * 100.0,
            z * 100.0,
            r * 100.0
        );
    }
}

fn main() {
    // The FK proxy: symmetrised power-law social network (see
    // hyt_graph::datasets for how it mirrors friendster-konect).
    let ds = datasets::load(DatasetId::Fk);
    println!(
        "friendster-konect proxy: {} vertices, {} edges, avg degree {:.1}",
        ds.graph.num_vertices(),
        ds.graph.num_edges(),
        ds.graph.num_edges() as f64 / ds.graph.num_vertices() as f64
    );

    // -- Influence ranking with Delta-PageRank. --
    let mut system = HyTGraphSystem::new(ds.graph.clone(), HyTGraphConfig::default());
    let pr = system.run(PageRank::new());
    let ranks = PageRank::ranks(&pr);
    summarize("PageRank", &pr.per_iteration);

    let mut top: Vec<(u32, f32)> = ranks.iter().enumerate().map(|(v, &r)| (v as u32, r)).collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("  top influencers (vertex, rank):");
    for (v, r) in top.iter().take(5) {
        println!("    v{v}: {r:.3} (degree {})", ds.graph.out_degree(*v));
    }

    // -- Community islands with connected components. --
    let mut system = HyTGraphSystem::new(ds.graph.clone(), HyTGraphConfig::default());
    let cc = system.run(Cc::new());
    summarize("Connected components", &cc.per_iteration);

    let mut sizes = std::collections::HashMap::new();
    for &label in &cc.values {
        *sizes.entry(label).or_insert(0u64) += 1;
    }
    let mut sizes: Vec<u64> = sizes.into_values().collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "  {} components; giant component covers {:.1}% of vertices",
        sizes.len(),
        100.0 * sizes[0] as f64 / ds.graph.num_vertices() as f64
    );

    // -- Proximity to the top influencer with PHP. --
    let source = top[0].0;
    let mut system = HyTGraphSystem::new(ds.graph.clone(), HyTGraphConfig::default());
    let php = system.run(Php::from_source(source));
    let scores = Php::scores(&php);
    let close = scores.iter().filter(|&&s| s > 0.01).count();
    println!(
        "\nPHP from v{source}: {} vertices with hitting score > 0.01 ({} iterations)",
        close, php.iterations
    );
}
