//! Microbenchmarks of the graph substrate: the real (non-simulated) work
//! that underlies every experiment — CSR construction, partitioning, hub
//! sorting, frontier operations, and the parallel compaction gather whose
//! measured throughput justifies the machine model's `Thpt_cpt`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hyt_engines::compaction;
use hyt_graph::{generators, hub_sort, Frontier, PartitionSet};

fn bench_csr_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("csr_build");
    for scale in [12u32, 14] {
        let edges = 8u64 << scale;
        g.throughput(Throughput::Elements(edges));
        g.bench_function(format!("rmat_scale{scale}"), |b| {
            b.iter(|| black_box(generators::rmat(scale, 8.0, 42, true)))
        });
    }
    g.finish();
}

fn bench_partition(c: &mut Criterion) {
    let graph = generators::rmat(14, 16.0, 7, true);
    let mut g = c.benchmark_group("partition");
    g.throughput(Throughput::Elements(graph.num_edges()));
    g.bench_function("build_32kb", |b| b.iter(|| black_box(PartitionSet::build(&graph, 32 << 10))));
    g.finish();
}

fn bench_hub_sort(c: &mut Criterion) {
    let graph = generators::rmat(14, 16.0, 9, true);
    let mut g = c.benchmark_group("hub_sort");
    g.throughput(Throughput::Elements(graph.num_edges()));
    g.bench_function("top8pct", |b| b.iter(|| black_box(hub_sort::hub_sort(&graph))));
    g.finish();
}

fn bench_frontier(c: &mut Criterion) {
    let n = 1u32 << 20;
    let mut g = c.benchmark_group("frontier");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("insert_1m", |b| {
        b.iter(|| {
            let f = Frontier::new(n);
            for v in 0..n {
                f.insert(v);
            }
            black_box(f.count())
        })
    });
    let f = Frontier::new(n);
    for v in (0..n).step_by(17) {
        f.insert(v);
    }
    g.bench_function("iter_sparse", |b| b.iter(|| black_box(f.iter().count())));
    g.finish();
}

fn bench_compaction_gather(c: &mut Criterion) {
    // The real parallel gather: its bytes/second here is what the
    // simulated Thpt_cpt abstracts.
    let graph = generators::rmat(15, 16.0, 3, true);
    let active: Vec<u32> = (0..graph.num_vertices()).step_by(2).collect();
    let bytes: u64 = active.iter().map(|&v| graph.out_degree(v) * 8).sum();
    let mut g = c.benchmark_group("compaction_gather");
    g.throughput(Throughput::Bytes(bytes));
    for threads in [1usize, 4] {
        g.bench_function(format!("threads{threads}"), |b| {
            b.iter(|| black_box(compaction::compact(graph.view(), &active, threads)))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_csr_build, bench_partition, bench_hub_sort, bench_frontier, bench_compaction_gather
}
criterion_main!(benches);
