//! Differential tests for multi-GPU sharded execution.
//!
//! The sharding contract (ISSUE 2): for any device count `D`, the runner
//! must produce values, a convergence-iteration count and per-iteration
//! Algorithm 1 engine choices **bit-identical** to the `D = 1` run —
//! sharding may only change the timeline, and which devices' shares fit.
//! The engine mix shows Algorithm 1's choices wherever no partition is
//! held or loaded, so a zero-budget run pins them. These tests
//! hold the runner to that with fixed mid-size graphs, a proptest sweep
//! over random graphs, and the sequential oracles as ground truth.
//!
//! Bit-identity claims run with `threads: 1`: single-threaded host kernels
//! are fully deterministic, so any value difference is a real sharding bug
//! and not a benign float/fold race. Default-thread runs are additionally
//! checked against the oracles (exact for the monotone integer
//! algorithms).

use hytgraph::algos::reference;
use hytgraph::core::{EngineMix, HostPorts, HyTGraphConfig, HyTGraphSystem, SystemKind};
use hytgraph::core::{IterationStats, TopologyKind};
use hytgraph::graph::generators;
use hytgraph::prelude::*;
use proptest::prelude::*;

/// HyTGraph preset sharded over `d` devices, single-threaded host kernels.
fn sharded_config(d: usize) -> HyTGraphConfig {
    let mut cfg = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
    cfg.num_devices = d;
    cfg.threads = 1;
    cfg
}

/// Run `program` on `g` with `d` devices; return (values, iterations,
/// total simulated time, exchange bytes).
fn run_with<P: hytgraph::core::api::VertexProgram>(
    g: &Csr,
    d: usize,
    program: P,
) -> (Vec<P::Value>, u32, f64, u64) {
    let mut sys = HyTGraphSystem::new(g.clone(), sharded_config(d));
    let r = sys.run(program);
    (r.values, r.iterations, r.total_time, r.counters.exchange_bytes)
}

/// Assert that a sharded run repeats the `D = 1` run `r1`: the same
/// values (compared through `key`), iterations, and in every iteration
/// the same active partitions and kernel edges. Where neither run's
/// devices held or loaded a partition that iteration, every partition
/// went through Algorithm 1's engine, so the engine mix is the same too.
/// (Tasks and kernel launches grow with `D`: a task is sliced per device.)
fn assert_same_run<V, K: PartialEq + std::fmt::Debug>(
    r: &RunResult<V>,
    r1: &RunResult<V>,
    key: impl Fn(&RunResult<V>) -> K,
    what: &str,
) {
    assert_eq!((key(r), r.iterations), (key(r1), r1.iterations), "{what} diverged");
    for (i, (a, b)) in r.per_iteration.iter().zip(&r1.per_iteration).enumerate() {
        assert_eq!(a.mix.total(), b.mix.total(), "{what}: iteration {i} active partitions");
        let edges = |it: &IterationStats| it.counters.kernel_edges;
        assert_eq!(edges(a), edges(b), "{what}: iteration {i} kernel edges");
        if a.mix.resident() == 0 && b.mix.resident() == 0 {
            assert_eq!(a.mix, b.mix, "{what}: iteration {i} changed its engine choices");
        }
    }
}

#[test]
fn all_four_algorithms_bit_identical_across_device_counts() {
    // Algorithm 1 prices each partition as if its device owned the bus,
    // so engine choices may not depend on D any more than values do.
    let g = generators::rmat(11, 10.0, 42, true);
    let sys = |d: usize| HyTGraphSystem::new(g.clone(), sharded_config(d));
    let values = |r: &RunResult<u32>| r.values.clone();
    // With no edge budget nothing is resident, so every run's mix is
    // Algorithm 1's choices alone.
    let unpinned = |d: usize| {
        let mut cfg = sharded_config(d);
        cfg.machine.edge_budget = 0;
        HyTGraphSystem::new(g.clone(), cfg)
    };
    let sssp1_unpinned = unpinned(1).run(Sssp::from_source(0));
    let pr1_unpinned = unpinned(1).run(PageRank::new());
    let mix_of = |r: &RunResult<u32>| EngineMix::sum_over(&r.per_iteration);
    assert!(mix_of(&sssp1_unpinned).zero_copy > 0, "SSSP never zero-copied");

    let sssp1 = sys(1).run(Sssp::from_source(0));
    assert_eq!(sssp1.counters.exchange_bytes, 0, "single-device runs must not pay the exchange");
    assert_eq!(sssp1.values, reference::dijkstra(&g, 0));
    let bfs1 = sys(1).run(Bfs::from_source(0));
    assert_eq!(bfs1.values, reference::bfs_depths(&g, 0));
    let cc1 = sys(1).run(Cc::new());
    assert_eq!(cc1.values, reference::cc_labels(&g));
    let pr1 = sys(1).run(PageRank::new());

    for d in [2usize, 4, 8] {
        let sssp = sys(d).run(Sssp::from_source(0));
        assert_same_run(&sssp, &sssp1, values, &format!("SSSP at D={d}"));
        assert!(
            sssp.counters.exchange_bytes > 0,
            "multi-device SSSP run never exchanged frontiers"
        );
        let bfs = sys(d).run(Bfs::from_source(0));
        assert_same_run(&bfs, &bfs1, values, &format!("BFS at D={d}"));
        let cc = sys(d).run(Cc::new());
        assert_same_run(&cc, &cc1, values, &format!("CC at D={d}"));
        let pr = sys(d).run(PageRank::new());
        assert_same_run(&pr, &pr1, PageRank::ranks, &format!("PageRank at D={d}"));
        let sssp = unpinned(d).run(Sssp::from_source(0));
        assert_same_run(&sssp, &sssp1_unpinned, values, &format!("unpinned SSSP at D={d}"));
        let pr = unpinned(d).run(PageRank::new());
        let what = format!("unpinned PageRank at D={d}");
        assert_same_run(&pr, &pr1_unpinned, PageRank::ranks, &what);
    }
}

#[test]
fn sharding_keeps_combined_runs_whole() {
    // PageRank over ≥ 4·D partitions, host-only: the run-dealt placement
    // keeps each combined filter run on one device, so the scheduled
    // units stay near D = 1's instead of multiplying by the run length.
    // Measured at D = 2/4/8: 1.33/1.45/1.61× (filter runs that straddle
    // a placement run still split); the one-at-a-time deal this replaced
    // measured 1.87/3.23/3.61×.
    const MAX_UNIT_GROWTH: f64 = 1.75;
    let g = generators::rmat(12, 12.0, 42, true);
    let run = |d: usize| {
        let mut cfg = sharded_config(d);
        cfg.partition_bytes = 4 << 10;
        let mut sys = HyTGraphSystem::new(g.clone(), cfg);
        assert!(sys.num_partitions() >= 4 * 8, "{} partitions", sys.num_partitions());
        let r = sys.run(PageRank::new());
        let units: u64 = r.per_iteration.iter().map(|it| it.tasks as u64).sum();
        (PageRank::ranks(&r), r.iterations, units)
    };
    let (v1, i1, u1) = run(1);
    for d in [2usize, 4, 8] {
        let (v, i, u) = run(d);
        assert_eq!((&v, i), (&v1, i1), "PageRank diverged at D={d}");
        let growth = u as f64 / u1 as f64;
        assert!(growth <= MAX_UNIT_GROWTH, "D={d}: {u} units vs {u1} at D=1 ({growth:.2}x)");
    }
}

#[test]
fn default_thread_runs_still_match_oracles_when_sharded() {
    // With the default host parallelism the monotone integer algorithms
    // must still land exactly on the oracle fixpoint at any device count.
    let g = generators::rmat(12, 12.0, 99, true);
    let mut cfg = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
    cfg.num_devices = 4;
    let mut sys = HyTGraphSystem::new(g.clone(), cfg.clone());
    assert_eq!(sys.run(Sssp::from_source(0)).values, reference::dijkstra(&g, 0));
    let mut sys = HyTGraphSystem::new(g.clone(), cfg);
    assert_eq!(sys.run(Cc::new()).values, reference::cc_labels(&g));
}

#[test]
fn per_device_stats_partition_the_iteration() {
    let g = generators::rmat(11, 10.0, 3, true);
    let d = 4usize;
    let mut sys = HyTGraphSystem::new(g.clone(), sharded_config(d));
    let r = sys.run(Sssp::from_source(0));
    for it in &r.per_iteration {
        assert_eq!(it.per_device.len(), d);
        let mix_total: u32 = it.per_device.iter().map(|ds| ds.mix.total()).sum();
        assert_eq!(mix_total, it.mix.total(), "device mixes must tile the global mix");
        let task_total: u32 = it.per_device.iter().map(|ds| ds.tasks).sum();
        assert_eq!(task_total, it.tasks);
        for ds in &it.per_device {
            assert!(
                ds.time <= it.time + 1e-12,
                "device {} makespan {} exceeds iteration time {}",
                ds.device,
                ds.time,
                it.time
            );
        }
        assert!(it.exchange.time >= 0.0);
    }
}

#[test]
fn idle_devices_pay_no_exchange() {
    // A graph small enough for one partition: 7 of the 8 "devices" own no
    // shard, so there are no peers and the exchange must stay zero.
    let g = generators::chain(64, true);
    let mut cfg = sharded_config(8);
    cfg.partition_bytes = 1 << 20; // everything fits one partition
    let mut sys = HyTGraphSystem::new(g.clone(), cfg);
    assert_eq!(sys.num_partitions(), 1);
    let r = sys.run(Sssp::from_source(0));
    assert_eq!(r.counters.exchange_bytes, 0);
    assert_eq!(r.values, reference::dijkstra(&g, 0));
}

#[test]
fn sharded_baseline_systems_keep_oracle_results() {
    // The stateful residency baselines (per-device UM caches, per-device
    // Grus budgets) must stay correct when their device memory is carved
    // up.
    let g = generators::rmat(11, 8.0, 21, true);
    let oracle = reference::dijkstra(&g, 0);
    for kind in [SystemKind::ImpUnified, SystemKind::Grus, SystemKind::Emogi, SystemKind::Subway] {
        let mut cfg = kind.configure(HyTGraphConfig::default());
        cfg.num_devices = 4;
        let mut sys = HyTGraphSystem::new(g.clone(), cfg);
        let r = sys.run(Sssp::from_source(0));
        assert_eq!(r.values, oracle, "{} diverged when sharded", kind.name());
    }
}

/// Run SSSP on `g` over `d` devices with `topo`, collecting values,
/// iterations, exchange payload, and the summed per-link-class breakdown.
fn run_topology(
    g: &Csr,
    d: usize,
    topo: TopologyKind,
) -> (Vec<u32>, u32, u64, hytgraph::core::ExchangeStats) {
    let mut cfg = sharded_config(d);
    cfg.topology = topo;
    let mut sys = HyTGraphSystem::new(g.clone(), cfg);
    let r = sys.run(Sssp::from_source(0));
    let mut x = hytgraph::core::ExchangeStats::default();
    for it in &r.per_iteration {
        x.merge(&it.exchange);
    }
    (r.values, r.iterations, r.counters.exchange_bytes, x)
}

#[test]
fn topology_changes_the_timeline_but_never_the_computation() {
    let g = generators::rmat(11, 10.0, 42, true);
    let d = 4usize;
    let (base_v, base_i, base_payload, base_x) = run_topology(&g, d, TopologyKind::HostOnly);
    assert_eq!(base_x.peer_bytes, 0, "host-only has no peer links");
    assert_eq!(base_x.peer_time, 0.0);
    assert!(base_x.host_bytes > base_payload, "staged records cross two hops");
    for topo in [TopologyKind::Ring, TopologyKind::AllToAll] {
        let (v, i, payload, x) = run_topology(&g, d, topo);
        assert_eq!((v, i), (base_v.clone(), base_i), "{topo:?} changed the computation");
        assert_eq!(payload, base_payload, "{topo:?}: exchange payload must be routing-invariant");
        assert!(x.peer_bytes > 0, "{topo:?} moved nothing over peer links");
        assert!(
            x.time < base_x.time,
            "{topo:?} exchange {} not below host-only {}",
            x.time,
            base_x.time
        );
        if topo == TopologyKind::AllToAll {
            // The clique never stages through the host.
            assert_eq!(x.host_bytes, 0);
            assert_eq!(x.host_time, 0.0);
        }
    }
}

#[test]
fn iteration_records_are_final_and_sum_to_the_total() {
    // Nothing rewrites a record after its iteration returns: each one is
    // the barrier (the slowest device) plus the exchange plus the
    // orchestration overhead, the run total is the startup charge plus
    // their in-order sum, and a run capped at `max_iterations` records a
    // bit-identical prefix of the drained run.
    use hytgraph::core::runner::ITERATION_OVERHEAD_COPIES;
    let g = generators::rmat(11, 10.0, 9, true);
    let run = |d: usize, topo: TopologyKind, max_iterations: u32| {
        let mut cfg = sharded_config(d);
        cfg.topology = topo;
        cfg.max_iterations = max_iterations;
        let mut sys = HyTGraphSystem::new(g.clone(), cfg);
        let r = sys.run(Sssp::from_source(0));
        let c = sys.config();
        let edge_bytes = sys.num_edges() * sys.effective_bytes_per_edge::<Sssp>();
        let startup = c.startup_edge_passes * edge_bytes as f64 / c.machine.compaction_bw;
        (r, startup, c.machine.pcie.copy_latency)
    };
    // `Debug` prints every f64 in its shortest round-tripping form, so
    // equal renderings are bit-identical records.
    let render = |r: &RunResult<u32>| -> Vec<String> {
        r.per_iteration.iter().map(|it| format!("{it:?}")).collect()
    };
    let (drained1, ..) = run(1, TopologyKind::HostOnly, u32::MAX);
    let cap = drained1.iterations / 2;
    assert!(cap >= 2, "need a run long enough to cap mid-way");
    let (capped1, ..) = run(1, TopologyKind::HostOnly, cap);
    for d in [1usize, 2, 4, 8] {
        for topo in [TopologyKind::HostOnly, TopologyKind::Ring, TopologyKind::AllToAll] {
            let what = format!("D={d} {topo:?}");
            let (drained, startup, lat) = run(d, topo, u32::MAX);
            let (capped, ..) = run(d, topo, cap);
            assert_eq!(capped.iterations, cap, "{what}: the cap must stop the run");
            for (r, r1) in [(&drained, &drained1), (&capped, &capped1)] {
                assert_eq!((&r.values, r.iterations), (&r1.values, r1.iterations), "{what}");
                let mut total = startup;
                for it in &r.per_iteration {
                    let barrier = it.per_device.iter().map(|dev| dev.time).fold(0.0, f64::max);
                    let expected = barrier + it.exchange.time + ITERATION_OVERHEAD_COPIES * lat;
                    assert_eq!(it.time, expected, "{what}: iteration {}", it.iteration);
                    total += it.time;
                }
                assert_eq!(r.total_time, total, "{what}: total is not the sum of its records");
            }
            assert_eq!(render(&capped)[..], render(&drained)[..cap as usize], "{what}");
            let exchanged = drained.per_iteration.iter().any(|it| it.exchange.time > 0.0);
            assert_eq!(exchanged, d > 1, "{what}: only sharded runs exchange");
        }
    }
}

#[test]
fn heterogeneous_and_duplex_configs_stay_value_transparent() {
    // ISSUE 4: per-link specs, per-direction queues, and multi-hop
    // forwarding may only change the timeline — values, iterations, and
    // the logical exchange payload must match the host-only run exactly.
    use hytgraph::core::LinkSpec;
    let g = generators::rmat(11, 10.0, 42, true);
    let d = 4usize;
    let (base_v, base_i, base_payload, _) = run_topology(&g, d, TopologyKind::HostOnly);
    let variants: Vec<(&str, HyTGraphConfig)> = vec![
        ("uniform ring", {
            let mut cfg = sharded_config(d);
            cfg.topology = TopologyKind::Ring;
            cfg
        }),
        ("mixed-generation ring", {
            let mut cfg = sharded_config(d);
            cfg.topology = TopologyKind::Ring;
            cfg.link_overrides = vec![
                (0, 1, LinkSpec::with_nominal_bw(100.0e9).scaled(10)),
                (2, 3, LinkSpec::with_nominal_bw(25.0e9).scaled(10)),
            ];
            cfg
        }),
        ("slow-bridge ring", {
            let mut cfg = sharded_config(d);
            cfg.topology = TopologyKind::Ring;
            cfg.link_overrides = vec![(1, 2, LinkSpec::with_nominal_bw(2.0e9).scaled(10))];
            cfg
        }),
    ];
    for (label, cfg) in variants {
        let mut sys = HyTGraphSystem::new(g.clone(), cfg);
        // Each direction of a peer link queues on its own: a symmetric
        // exchange prices strictly below its busiest link's two-way wire
        // occupancy, the figure one shared queue per link would price.
        let ic = sys.interconnect();
        let x = ic.price_all_gather(&[64 << 10; 4], &[true; 4]);
        let busiest_link =
            x.per_link_busy[ic.num_host_ports()..].iter().copied().fold(0.0, f64::max);
        assert!(x.makespan < busiest_link, "{label}: {} !< {busiest_link}", x.makespan);
        let r = sys.run(Sssp::from_source(0));
        assert_eq!(r.values, base_v, "{label} changed the computed values");
        assert_eq!(r.iterations, base_i, "{label} changed the iteration count");
        assert_eq!(
            r.counters.exchange_bytes, base_payload,
            "{label}: exchange payload must be routing-invariant"
        );
    }
}

#[test]
fn host_port_presets_change_the_timeline_but_never_the_computation() {
    // The host-port grouping only re-queues host transfers: at D > 1,
    // values, iterations and every iteration's engine mix are
    // bit-identical under each preset, and at D = 1 (one port whatever
    // the preset) the whole run record is.
    let g = generators::rmat(10, 8.0, 5, true);
    let run = |d: usize, topology: TopologyKind, host_ports: HostPorts| {
        let mut cfg = sharded_config(d);
        (cfg.topology, cfg.host_ports) = (topology, host_ports);
        cfg.partition_bytes = 4 << 10;
        let mut sys = HyTGraphSystem::new(g.clone(), cfg.clone());
        assert!(sys.num_partitions() >= 8, "every device of eight must hold shards");
        let sssp = sys.run(Sssp::from_source(0));
        (sssp, HyTGraphSystem::new(g.clone(), cfg).run(PageRank::new()))
    };
    let (sssp1, pr1) = run(1, TopologyKind::HostOnly, HostPorts::Shared);
    // `Debug` prints every f64 in its shortest round-tripping form, so
    // equal renderings are bit-identical records.
    let (sssp1_text, pr1_text) = (format!("{sssp1:?}"), format!("{pr1:?}"));
    for ports in HostPorts::ALL {
        let (sssp, pr) = run(1, TopologyKind::HostOnly, ports);
        assert_eq!(format!("{sssp:?}"), sssp1_text, "SSSP at D=1 under {ports:?}");
        assert_eq!(format!("{pr:?}"), pr1_text, "PageRank at D=1 under {ports:?}");
    }
    let values = |r: &RunResult<u32>| r.values.clone();
    for d in [2usize, 4, 8] {
        for topology in TopologyKind::ALL {
            for ports in HostPorts::ALL {
                let what = format!("D={d} {topology:?} {ports:?}");
                let (sssp, pr) = run(d, topology, ports);
                assert_same_run(&sssp, &sssp1, values, &format!("SSSP at {what}"));
                assert_same_run(&pr, &pr1, PageRank::ranks, &format!("PageRank at {what}"));
            }
        }
    }
}

/// Strategy: seeded weighted RMAT graphs spanning several partitions.
fn arb_rmat() -> impl Strategy<Value = Csr> {
    (8u32..=10, 4u64..=10, 0u64..1_000)
        .prop_map(|(scale, deg, seed)| generators::rmat(scale, deg as f64, seed, true))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_graphs_bit_identical_for_every_algorithm(
        g in arb_rmat(),
        d in 2usize..=4,
    ) {
        let src = (0..g.num_vertices()).max_by_key(|&v| g.out_degree(v)).unwrap_or(0);

        let (s1, si1, _, _) = run_with(&g, 1, Sssp::from_source(src));
        let (sd, sid, _, _) = run_with(&g, d, Sssp::from_source(src));
        prop_assert_eq!(&sd, &s1);
        prop_assert_eq!(sid, si1);
        prop_assert_eq!(&s1, &reference::dijkstra(&g, src));

        let (b1, bi1, _, _) = run_with(&g, 1, Bfs::from_source(src));
        let (bd, bid, _, _) = run_with(&g, d, Bfs::from_source(src));
        prop_assert_eq!(&bd, &b1);
        prop_assert_eq!(bid, bi1);
        prop_assert_eq!(&b1, &reference::bfs_depths(&g, src));

        let (c1, ci1, _, _) = run_with(&g, 1, Cc::new());
        let (cd, cid, _, _) = run_with(&g, d, Cc::new());
        prop_assert_eq!(&cd, &c1);
        prop_assert_eq!(cid, ci1);
        prop_assert_eq!(&c1, &reference::cc_labels(&g));

        let run_pr = |dd: usize| {
            let mut sys = HyTGraphSystem::new(g.clone(), sharded_config(dd));
            let r = sys.run(PageRank::new());
            (PageRank::ranks(&r), r.iterations)
        };
        let (p1, pi1) = run_pr(1);
        let (pd, pid) = run_pr(d);
        prop_assert_eq!(pd, p1);
        prop_assert_eq!(pid, pi1);
    }

    #[test]
    fn random_graphs_are_topology_invariant(
        g in arb_rmat(),
        d in 2usize..=4,
        ring in any::<bool>(),
    ) {
        // Values, iterations, and the logical exchange payload must not
        // depend on how the interconnect routes the all-gather; only the
        // per-link timeline may change.
        let topo = if ring { TopologyKind::Ring } else { TopologyKind::AllToAll };
        let (v_host, i_host, payload_host, x_host) = run_topology(&g, d, TopologyKind::HostOnly);
        let (v, i, payload, x) = run_topology(&g, d, topo);
        prop_assert_eq!(&v, &v_host);
        prop_assert_eq!(i, i_host);
        prop_assert_eq!(payload, payload_host);
        // Peer routing never makes the exchange slower than full staging.
        prop_assert!(x.time <= x_host.time + 1e-12);
        // Host-only D=1 must stay exchange-free whatever the topology
        // field says (no peers to talk to).
        let (v1, i1, p1, x1) = run_topology(&g, 1, topo);
        prop_assert_eq!(&v1, &v_host);
        prop_assert_eq!(i1, i_host);
        prop_assert_eq!(p1, 0);
        prop_assert_eq!(x1.time, 0.0);
    }
}
