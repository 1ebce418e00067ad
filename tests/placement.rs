//! Placement transparency and device-affine migration.
//!
//! Two families of claims:
//!
//! * **value transparency** — every device count and topology
//!   (host-only, or a mixed-generation ring with a doubly-bridged slow
//!   device) produces values and a convergence-iteration count
//!   bit-identical to the single-device run: placement is pricing-only.
//! * **migration differential** — a resident system with
//!   `affine_migration` on keeps producing values bit-identical to
//!   migration-off across repeated runs, while actually moving
//!   partitions and charging priced copies.

use hytgraph::algos::reference;
use hytgraph::core::{HyTGraphConfig, HyTGraphSystem, SystemKind, TopologyKind};
use hytgraph::graph::generators;
use hytgraph::prelude::*;
use hytgraph::sim::LinkSpec;
use proptest::prelude::*;

/// HyTGraph preset on a D-device ring with deterministic host kernels.
fn ring_config(d: usize) -> HyTGraphConfig {
    let mut cfg = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
    cfg.num_devices = d;
    cfg.topology = TopologyKind::Ring;
    cfg.threads = 1;
    cfg
}

/// The skewed mixed-generation ring: the highest device id is an
/// old-generation card behind 2 GB/s bridges on *both* sides, so
/// anything placed there pays dearly to talk to anyone.
fn skewed_ring_config_d(d: usize) -> HyTGraphConfig {
    let slow = LinkSpec::with_nominal_bw(2.0e9).scaled(10);
    let mut cfg = ring_config(d);
    cfg.link_overrides = match d {
        0 | 1 => Vec::new(),
        2 => vec![(0, 1, slow)],
        _ => vec![((d - 2) as u32, (d - 1) as u32, slow), ((d - 1) as u32, 0, slow)],
    };
    cfg
}

fn skewed_ring_config() -> HyTGraphConfig {
    skewed_ring_config_d(8)
}

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
            let mut sys = HyTGraphSystem::new(g.clone(), ring_config(1));
            let r = sys.run(Sssp::from_source(0));
            (r.values, r.iterations)
        };
        prop_assert_eq!(&base.0, &reference::dijkstra(&g, 0));
        for d in [2usize, 4, 8] {
            let cfg = if host_only {
                let mut c = ring_config(d);
                c.topology = TopologyKind::HostOnly;
                c
            } else {
                skewed_ring_config_d(d)
            };
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
fn affine_migration_moves_partitions_and_keeps_values_bit_identical() {
    // Edge-balanced start on the skewed ring leaves chatty partitions on
    // the slow-bridged device; the migration planner must move at least
    // one off it over repeated resident runs, charging a priced copy,
    // while every run's values stay bit-identical to the migration-off
    // system.
    let g = generators::power_law_preferential(1 << 13, 12.0, 2.2, 11, true);
    let src = (0..g.num_vertices()).max_by_key(|&v| g.out_degree(v)).unwrap();
    let mut cfg_on = skewed_ring_config();
    cfg_on.affine_migration = true;
    let mut on = HyTGraphSystem::new(g.clone(), cfg_on);
    let mut off = HyTGraphSystem::new(g.clone(), skewed_ring_config());
    let oracle = reference::dijkstra(&g, src);
    for run in 0..3 {
        let r_on = on.run(Sssp::from_source(src));
        let r_off = off.run(Sssp::from_source(src));
        assert_eq!(r_on.values, r_off.values, "values diverged on run {run}");
        assert_eq!(r_on.values, oracle, "migrated system left the oracle on run {run}");
        assert_eq!(r_on.iterations, r_off.iterations);
    }
    assert!(
        !on.migrations().is_empty(),
        "the skewed ring never triggered a migration over 3 resident runs"
    );
    for m in on.migrations() {
        assert_ne!(m.from, m.to);
        assert!(m.copy_cost > 0.0, "migration must charge its priced bulk copy");
    }
    assert!(off.migrations().is_empty(), "migration-off system must never move partitions");
}

#[test]
fn session_service_with_migration_stays_bit_identical_across_interleaved_runs() {
    // The resident session service inherits the evolving device plan
    // across cohorts. Interleaved traversal kinds over several rounds
    // must answer bit-identically whether migration is on or off — the
    // plan may move, the answers may not.
    use hytgraph::algos::AlgoBackend;
    use hytgraph::core::session::{QueryKind, SessionConfig};
    use hytgraph::core::SessionService;
    let g = generators::power_law_preferential(1 << 13, 12.0, 2.2, 11, true);
    let mk = |migrate: bool| {
        let mut cfg = skewed_ring_config();
        cfg.affine_migration = migrate;
        let sys = HyTGraphSystem::new(g.clone(), cfg);
        let scfg = SessionConfig { max_batch: 2, admission_budget: f64::INFINITY, max_queue: 16 };
        SessionService::new(sys, AlgoBackend, scfg)
    };
    let mut on = mk(true);
    let mut off = mk(false);
    for round in 0..3 {
        for kind in [QueryKind::Bfs(3), QueryKind::Sssp(17), QueryKind::Bfs(44)] {
            on.submit(kind.clone());
            off.submit(kind);
        }
        let a = on.drain();
        let b = off.drain();
        assert_eq!(a.len(), b.len());
        for (qa, qb) in a.iter().zip(&b) {
            assert_eq!(qa.output, qb.output, "outputs diverged in round {round}");
        }
    }
}
