//! Quickstart: run SSSP with HyTGraph on a synthetic power-law graph.
//!
//! ```text
//! cargo run --release --example quickstart              # host-only bus
//! cargo run --release --example quickstart -- ring      # NVLink ring
//! cargo run --release --example quickstart -- a2a       # full clique
//! ```
//!
//! Shows the three-step API: build a graph, wrap it in a configured
//! system, run a vertex program. The per-iteration report prints which
//! transfer engines the cost model picked as the frontier evolved — the
//! paper's core behaviour, visible in miniature. The optional argument
//! selects the inter-device topology; peer links drain the frontier
//! exchange off the shared PCIe root complex.

use hytgraph::core::TopologyKind;
use hytgraph::prelude::*;

fn main() {
    // Optional CLI arg: interconnect topology (host-only / ring / a2a).
    let topology = std::env::args()
        .nth(1)
        .map(|s| {
            TopologyKind::parse(&s)
                .unwrap_or_else(|| panic!("unknown topology '{s}' (host-only | ring | all-to-all)"))
        })
        .unwrap_or(TopologyKind::HostOnly);

    // 1. A weighted RMAT graph: 2^14 vertices, ~16 edges/vertex.
    let graph = GraphBuilder::rmat(14, 16.0).seed(42).weighted(true).build();
    println!(
        "graph: {} vertices, {} edges ({} KB of edge data)",
        graph.num_vertices(),
        graph.num_edges(),
        graph.edge_bytes() / 1024,
    );

    // 2. HyTGraph with the paper's defaults: hybrid engine selection
    //    (alpha = 0.8, beta = 0.4), task combining (k = 4), hub-sorted
    //    contribution-driven scheduling, 4 CUDA streams per device — here
    //    sharded across two simulated 2080Ti-class GPUs. Sharding changes
    //    only the timeline: values are bit-identical to `num_devices: 1`.
    let config = HyTGraphConfig { num_devices: 2, topology, ..HyTGraphConfig::default() };
    let mut system = HyTGraphSystem::new(graph, config);
    println!(
        "partitions: {} x {} KB across {} simulated GPUs ({} interconnect)",
        system.num_partitions(),
        system.config().partition_bytes / 1024,
        system.config().num_devices,
        system.config().topology.name(),
    );

    // 3. Single-source shortest paths from vertex 0.
    let result = system.run(Sssp::from_source(0));

    let reached = result.values.iter().filter(|&&d| d != u32::MAX).count();
    println!(
        "\nSSSP converged in {} iterations, {:.3} ms simulated GPU time",
        result.iterations,
        result.total_time * 1e3
    );
    println!("reached {reached} of {} vertices", result.values.len());
    println!(
        "transfer volume: {:.1} KB ({:.2}x the edge data)",
        result.counters.total_transfer_bytes() as f64 / 1024.0,
        result.counters.transfer_ratio(system.edge_bytes())
    );
    let (mut host_us, mut peer_us, mut fwd_kb) = (0.0, 0.0, 0.0);
    for it in &result.per_iteration {
        host_us += it.exchange.host_time * 1e6;
        peer_us += it.exchange.peer_time * 1e6;
        fwd_kb += it.exchange.forwarded_bytes as f64 / 1024.0;
    }
    println!(
        "frontier exchange: {:.1} KB payload | {host_us:.1} us on the host link, \
         {peer_us:.1} us on peer links ({fwd_kb:.1} KB relayed device-via-device)",
        result.counters.exchange_bytes as f64 / 1024.0,
    );

    println!("\nper-iteration engine mix (filter / compaction / zero-copy / resident):");
    for it in &result.per_iteration {
        let (f, c, z, _, r) = it.mix.fractions();
        println!(
            "  iter {:>2}: {:>6} active vertices | {:>3.0}% E-F {:>3.0}% E-C {:>3.0}% I-ZC {:>3.0}% res | {:>8.1} us",
            it.iteration,
            it.active_vertices,
            f * 100.0,
            c * 100.0,
            z * 100.0,
            r * 100.0,
            it.time * 1e6
        );
    }

    // Cross-check against a trivial sequential Dijkstra.
    let graph2 = GraphBuilder::rmat(14, 16.0).seed(42).weighted(true).build();
    let oracle = hytgraph::algos::reference::dijkstra(&graph2, 0);
    assert_eq!(result.values, oracle, "HyTGraph result must match Dijkstra");
    println!("\nresult verified against sequential Dijkstra");
}
