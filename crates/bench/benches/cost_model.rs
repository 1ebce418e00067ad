//! Benchmarks of the per-iteration decision pipeline: activity analysis,
//! the cost formulas (1)–(3), engine selection (Algorithm 1), and task
//! combining. This is HyTGraph's runtime overhead over a dumb engine — it
//! must stay tiny relative to any transfer it saves.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hyt_core::{combine, cost, select, SelectParams, Selection};
use hyt_engines::analyze_partitions;
use hyt_graph::{generators, Frontier, PartitionSet};
use hyt_sim::PcieModel;

fn bench_activity_analysis(c: &mut Criterion) {
    let graph = generators::rmat(14, 16.0, 5, true);
    let parts = PartitionSet::build(&graph, 32 << 10);
    let frontier = Frontier::new(graph.num_vertices());
    for v in (0..graph.num_vertices()).step_by(3) {
        frontier.insert(v);
    }
    let pcie = PcieModel::pcie3();
    let mut g = c.benchmark_group("activity_analysis");
    g.throughput(Throughput::Elements(parts.len() as u64));
    for threads in [1usize, 4] {
        g.bench_function(format!("threads{threads}"), |b| {
            b.iter(|| {
                black_box(analyze_partitions(graph.view(), &parts, &frontier, &pcie, 8, threads))
            })
        });
    }
    g.finish();
}

fn bench_cost_and_selection(c: &mut Criterion) {
    let graph = generators::rmat(14, 16.0, 5, true);
    let parts = PartitionSet::build(&graph, 32 << 10);
    let frontier = Frontier::new(graph.num_vertices());
    for v in (0..graph.num_vertices()).step_by(3) {
        frontier.insert(v);
    }
    let pcie = PcieModel::pcie3();
    let acts = analyze_partitions(graph.view(), &parts, &frontier, &pcie, 8, 4);
    let params = SelectParams::default();
    let mut g = c.benchmark_group("selection");
    g.throughput(Throughput::Elements(acts.len() as u64));
    g.bench_function("formulas_1_2_3", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for a in &acts {
                let pc = cost::partition_costs_sized(a, &pcie, 8, 0);
                acc += pc.tef + pc.tec + pc.tiz;
            }
            black_box(acc)
        })
    });
    g.bench_function("algorithm1_select", |b| {
        b.iter(|| black_box(select::select_engines(&acts, &pcie, 8, Selection::Hybrid, &params)))
    });
    let decisions = select::select_engines(&acts, &pcie, 8, Selection::Hybrid, &params);
    let narrow_lane = hyt_core::ValueLayout::narrow().lane_bytes();
    g.bench_function("task_combine_k4", |b| {
        b.iter(|| black_box(combine::combine_tasks_sized(&decisions, 4, true, narrow_lane)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_activity_analysis, bench_cost_and_selection
}
criterion_main!(benches);
