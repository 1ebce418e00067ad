//! Property-based tests (proptest) over the core data structures and
//! system invariants, driven by random graphs and random frontiers.

use hytgraph::algos::reference;
use hytgraph::core::{HyTGraphConfig, HyTGraphSystem};
use hytgraph::graph::{hub_sort, io, Csr, EdgeList, Frontier, PartitionSet};
use hytgraph::prelude::*;
use hytgraph::sim::{Phase, SimTask, StreamSim};
use proptest::prelude::*;

/// Strategy: an arbitrary directed weighted graph with up to `max_v`
/// vertices and `max_e` edges (self-loops and duplicates allowed, as in
/// real crawls).
fn arb_graph(max_v: u32, max_e: usize) -> impl Strategy<Value = Csr> {
    (2..=max_v).prop_flat_map(move |nv| {
        proptest::collection::vec((0..nv, 0..nv, 1..64u32), 0..max_e).prop_map(move |edges| {
            let mut el = EdgeList::new(nv);
            for (s, d, w) in edges {
                el.push_weighted(s, d, w);
            }
            el.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_binary_io_round_trips(g in arb_graph(200, 2000)) {
        let bytes = io::to_bytes(&g);
        let back = io::from_bytes(&bytes).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn csr_edge_list_round_trips(g in arb_graph(150, 1500)) {
        let el = g.to_edge_list();
        prop_assert_eq!(el.to_csr(), g);
    }

    #[test]
    fn partitions_tile_the_graph(g in arb_graph(300, 4000), budget in 64u64..8192) {
        let ps = PartitionSet::build(&g, budget);
        let mut v_next = 0u32;
        let mut e_next = 0u64;
        for p in ps.partitions() {
            prop_assert_eq!(p.first_vertex, v_next);
            prop_assert_eq!(p.first_edge, e_next);
            v_next = p.end_vertex;
            e_next = p.end_edge;
        }
        prop_assert_eq!(v_next, g.num_vertices());
        prop_assert_eq!(e_next, g.num_edges());
    }

    #[test]
    fn hub_sort_is_a_permutation_preserving_structure(g in arb_graph(150, 2000)) {
        let r = hub_sort::hub_sort(&g);
        // perm/inv are mutually inverse.
        for v in 0..g.num_vertices() {
            prop_assert_eq!(r.to_old(r.perm[v as usize]), v);
        }
        // Edge and degree multisets preserved.
        prop_assert_eq!(r.graph.num_edges(), g.num_edges());
        for v in 0..g.num_vertices() {
            prop_assert_eq!(r.graph.out_degree(r.perm[v as usize]), g.out_degree(v));
        }
        // `Csr::from_parts` re-checks every structural invariant.
        let (ro, ci) = (r.graph.row_offset().to_vec(), r.graph.col_index().to_vec());
        let ws = r.graph.weights().map(<[_]>::to_vec);
        prop_assert!(Csr::from_parts(r.graph.num_vertices(), ro, ci, ws).is_ok());
    }

    #[test]
    fn frontier_behaves_like_a_set(
        nv in 1u32..500,
        ops in proptest::collection::vec((0u32..500, any::<bool>()), 0..200),
    ) {
        let f = Frontier::new(nv);
        let mut model = std::collections::BTreeSet::new();
        for (v, insert) in ops {
            let v = v % nv;
            if insert {
                prop_assert_eq!(f.insert(v), model.insert(v));
            } else {
                prop_assert_eq!(f.remove(v), model.remove(&v));
            }
        }
        prop_assert_eq!(f.count(), model.len() as u64);
        let got: Vec<u32> = f.iter().collect();
        let want: Vec<u32> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn timeline_makespan_is_bounded(
        tasks in proptest::collection::vec(
            (0.0f64..2.0, 0.0f64..2.0, 0.0f64..2.0, any::<bool>()),
            1..20,
        ),
        streams in 1usize..6,
    ) {
        let sim_tasks: Vec<SimTask> = tasks
            .iter()
            .map(|&(c, t, k, fused)| {
                if fused {
                    SimTask::zero_copy(t, k)
                } else {
                    SimTask::compaction(c, t, k)
                }
            })
            .collect();
        let tl = StreamSim::new(streams).schedule(&sim_tasks);
        // Lower bounds: busiest resource and longest single task.
        let serial_time = |t: &SimTask| t.phases.iter().map(Phase::duration).sum::<f64>();
        let longest = sim_tasks.iter().map(serial_time).fold(0.0, f64::max);
        prop_assert!(tl.makespan + 1e-9 >= tl.pcie_busy.max(tl.gpu_busy).max(tl.cpu_busy));
        prop_assert!(tl.makespan + 1e-9 >= longest);
        // Upper bound: full serialisation.
        let serial: f64 = sim_tasks.iter().map(serial_time).sum();
        prop_assert!(tl.makespan <= serial + 1e-9);
        // Phase conservation.
        let want_gpu: f64 = sim_tasks
            .iter()
            .flat_map(|t| &t.phases)
            .map(|p| match *p {
                Phase::Kernel(k) => k,
                Phase::Fused { kernel, .. } => kernel,
                _ => 0.0,
            })
            .sum();
        prop_assert!((tl.gpu_busy - want_gpu).abs() < 1e-9);
    }

    #[test]
    fn sssp_matches_dijkstra_on_random_graphs(g in arb_graph(120, 1200), src in 0u32..120) {
        let src = src % g.num_vertices();
        let oracle = reference::dijkstra(&g, src);
        let mut sys = HyTGraphSystem::new(g, HyTGraphConfig::default());
        let r = sys.run(Sssp::from_source(src));
        prop_assert_eq!(r.values, oracle);
    }

    #[test]
    fn bfs_depths_respect_edge_relaxation(g in arb_graph(120, 1200), src in 0u32..120) {
        let src = src % g.num_vertices();
        let mut sys = HyTGraphSystem::new(g.clone(), HyTGraphConfig::default());
        let r = sys.run(Bfs::from_source(src));
        let d = &r.values;
        prop_assert_eq!(d[src as usize], 0);
        // Triangle inequality on every edge: d[v] <= d[u] + 1.
        for u in 0..g.num_vertices() {
            if d[u as usize] == u32::MAX {
                continue;
            }
            for (v, _) in g.edges_of(u) {
                prop_assert!(d[v as usize] <= d[u as usize] + 1, "edge {u}->{v}");
            }
        }
    }

    #[test]
    fn cc_labels_are_fixpoints(g in arb_graph(100, 1000)) {
        let mut sys = HyTGraphSystem::new(g.clone(), HyTGraphConfig::default());
        let r = sys.run(Cc::new());
        let l = &r.values;
        for u in 0..g.num_vertices() {
            // Labels never exceed own id and never improve along any edge.
            prop_assert!(l[u as usize] <= u);
            for (v, _) in g.edges_of(u) {
                prop_assert!(l[v as usize] <= l[u as usize], "edge {u}->{v}");
            }
        }
    }

    #[test]
    fn transfer_counters_are_internally_consistent(g in arb_graph(200, 3000)) {
        let mut sys = HyTGraphSystem::new(g, HyTGraphConfig::default());
        let r = sys.run(Cc::new());
        let c = &r.counters;
        prop_assert_eq!(
            c.total_transfer_bytes(),
            c.explicit_bytes + c.zero_copy_bytes + c.um_bytes
        );
        // Per-iteration counters sum to the run totals.
        let mut sum = hytgraph::sim::TransferCounters::new();
        for it in &r.per_iteration {
            sum.merge(&it.counters);
        }
        prop_assert_eq!(sum, *c);
    }
}
