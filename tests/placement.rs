//! Placement transparency and the fixed device plan.
//!
//! Two families of claims:
//!
//! * **value transparency** — every device count and topology
//!   (host-only, or a mixed-generation ring with a doubly-bridged slow
//!   device) produces values and a convergence-iteration count
//!   bit-identical to the single-device run: placement is pricing-only.
//! * **fixed plan** — a resident system's partition→device plan is a
//!   function of its partition set: runs and session cohorts never move
//!   it, and a delta compaction rebuilds exactly the plan a fresh build
//!   over the mutated graph gets.

use hyt_bench::experiments::perf::skewed_ring_config;
use hytgraph::algos::reference;
use hytgraph::core::{HyTGraphSystem, TopologyKind};
use hytgraph::graph::generators;
use hytgraph::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Placement is value-transparent at every device count and
    /// topology: bit-identical values and iteration counts to the
    /// single-device run (threads = 1 for determinism).
    #[test]
    fn all_assignments_are_value_transparent(
        scale in 8u32..10,
        avg_deg in 4.0f64..10.0,
        seed in 0u64..1_000,
        host_only in 0usize..2,
    ) {
        let host_only = host_only == 1;
        let g = generators::rmat(scale, avg_deg, seed, true);
        let base = {
            let mut sys = HyTGraphSystem::new(g.clone(), skewed_ring_config(1));
            let r = sys.run(Sssp::from_source(0));
            (r.values, r.iterations)
        };
        prop_assert_eq!(&base.0, &reference::dijkstra(&g, 0));
        for d in [2usize, 4, 8] {
            let mut cfg = skewed_ring_config(d);
            if host_only {
                cfg.topology = TopologyKind::HostOnly;
                cfg.link_overrides.clear();
            }
            let mut sys = HyTGraphSystem::new(g.clone(), cfg);
            let r = sys.run(Sssp::from_source(0));
            prop_assert!(
                r.values == base.0 && r.iterations == base.1,
                "run diverged at D={} (host-only: {})", d, host_only
            );
        }
    }
}

#[test]
fn device_plan_is_fixed_by_runs_and_cohorts_and_rebuilt_by_compaction() {
    use hytgraph::algos::AlgoBackend;
    use hytgraph::core::session::{QueryKind, QueryOutput, SessionConfig};
    use hytgraph::core::SessionService;
    use hytgraph::graph::{EdgeList, MutationBatch};
    // No hub sort: working ids are original ids, so a fresh build over
    // the mutated graph partitions the same vertex order. Small
    // partitions give every device several.
    let mut cfg = skewed_ring_config(8);
    cfg.contribution_scheduling = false;
    cfg.partition_bytes = 8 << 10;
    let g = generators::power_law_preferential(1 << 13, 12.0, 2.2, 11, true);
    let src = (0..g.num_vertices()).max_by_key(|&v| g.out_degree(v)).unwrap();

    let mut sys = HyTGraphSystem::new(g.clone(), cfg.clone());
    let built = sys.device_plan().clone();
    assert!(sys.num_partitions() >= 16, "{} partitions", sys.num_partitions());
    for run in 0..3 {
        sys.run(Sssp::from_source(src));
        assert_eq!(sys.device_plan(), &built, "run {run} moved the device plan");
    }
    let scfg = SessionConfig { max_batch: 2, admission_budget: f64::INFINITY, max_queue: 16 };
    let mut svc = SessionService::new(sys, AlgoBackend, scfg);
    for round in 0..3 {
        for kind in [QueryKind::Bfs(3), QueryKind::Sssp(17), QueryKind::Bfs(44)] {
            svc.submit(kind);
        }
        assert_eq!(svc.drain().len(), 3);
        assert_eq!(svc.system().device_plan(), &built, "cohort round {round} moved the plan");
    }

    // Delete every out-edge of the upper half of the ids: enough dead
    // base slots to trip the priced fold in one batch.
    let half = g.num_vertices() / 2;
    let mut batch = MutationBatch::new();
    for s in half..g.num_vertices() {
        for &d in g.neighbors(s) {
            batch.delete(s, d);
        }
    }
    let mut mutated = EdgeList::new(g.num_vertices());
    for v in 0..half {
        for (i, &d) in g.neighbors(v).iter().enumerate() {
            mutated.push_weighted(v, d, g.weights_of(v)[i]);
        }
    }
    svc.submit(QueryKind::Mutate(batch));
    let done = svc.drain();
    match &done[0].output {
        QueryOutput::Mutation(m) => assert!(m.compacted && m.error.is_none(), "{m:?}"),
        other => panic!("mutation answered {other:?}"),
    }
    let fresh = HyTGraphSystem::new(mutated.to_csr(), cfg);
    assert_ne!(fresh.device_plan(), &built, "the mutation must change the plan");
    assert_eq!(svc.system().device_plan(), fresh.device_plan());
}
