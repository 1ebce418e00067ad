//! Cost-driven placement and device-affine migration (ISSUE 8).
//!
//! Four families of claims:
//!
//! * **pricing dominance** — for every fabric drawn (mixed link
//!   generations, optional slow bridge), the cost-driven plan is never
//!   priced worse than the edge-balanced seed under the same route
//!   table, and a uniform fabric returns the seed bit-identically.
//! * **value transparency** — every assignment policy, device count and
//!   topology produces values and a convergence-iteration count
//!   bit-identical to the single-device run: placement is pricing-only.
//! * **the tentpole claim** — on a skewed power-law graph sharded over a
//!   mixed-generation D=8 ring (one device behind slow bridges on both
//!   sides), cost-driven placement strictly cuts both the priced
//!   exchange makespan and the total exchanged bytes.
//! * **migration differential** — a resident system with
//!   `affine_migration` on keeps producing values bit-identical to
//!   migration-off across repeated runs, while actually moving
//!   partitions and charging priced copies.

use hytgraph::algos::reference;
use hytgraph::core::{HyTGraphConfig, HyTGraphSystem, SystemKind, TopologyKind};
use hytgraph::graph::placement::{
    placement_score, plan_cost_driven, AffinityMatrix, PlacementPricer,
};
use hytgraph::graph::{generators, DeviceAssignment, DevicePlan, PartitionSet};
use hytgraph::prelude::*;
use hytgraph::sim::{Interconnect, LinkSpec, PcieModel};
use proptest::prelude::*;

/// Mixed-generation nominal bandwidths (bytes/s), scaled like the bench
/// proxies (SCALE_SHIFT = 10).
const GENERATIONS: [f64; 4] = [8.0e9, 25.0e9, 50.0e9, 100.0e9];

fn gen_spec(generation: usize) -> LinkSpec {
    LinkSpec::with_nominal_bw(GENERATIONS[generation % GENERATIONS.len()]).scaled(10)
}

/// HyTGraph preset on a D-device ring with deterministic host kernels.
fn ring_config(d: usize, assignment: DeviceAssignment) -> HyTGraphConfig {
    let mut cfg = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
    cfg.num_devices = d;
    cfg.topology = TopologyKind::Ring;
    cfg.device_assignment = assignment;
    cfg.threads = 1;
    cfg
}

/// The skewed mixed-generation ring of the tentpole claim: the highest
/// device id is an old-generation card behind 2 GB/s bridges on *both*
/// sides, so anything placed there pays dearly to talk to anyone.
fn skewed_ring_config_d(d: usize, assignment: DeviceAssignment) -> HyTGraphConfig {
    let slow = LinkSpec::with_nominal_bw(2.0e9).scaled(10);
    let mut cfg = ring_config(d, assignment);
    cfg.link_overrides = match d {
        0 | 1 => Vec::new(),
        2 => vec![(0, 1, slow)],
        _ => vec![((d - 2) as u32, (d - 1) as u32, slow), ((d - 1) as u32, 0, slow)],
    };
    cfg
}

fn skewed_ring_config(assignment: DeviceAssignment) -> HyTGraphConfig {
    skewed_ring_config_d(8, assignment)
}

fn exchange_totals(r: &hytgraph::core::RunResult<u32>) -> (f64, u64) {
    let time: f64 = r.per_iteration.iter().map(|it| it.exchange.time).sum();
    (time, r.counters.exchange_bytes)
}

#[test]
fn cost_driven_strictly_cuts_exchange_on_the_skewed_mixed_ring() {
    let g = generators::power_law_preferential(1 << 14, 12.0, 2.2, 7, true);
    let src = (0..g.num_vertices()).max_by_key(|&v| g.out_degree(v)).unwrap();
    let run = |assignment| {
        let mut sys = HyTGraphSystem::new(g.clone(), skewed_ring_config(assignment));
        let holders = (0..sys.num_partitions() as u32)
            .map(|p| sys.device_plan().device_of(p))
            .collect::<std::collections::HashSet<_>>()
            .len();
        (sys.run(Sssp::from_source(src)), holders)
    };
    let (bal, bal_holders) = run(DeviceAssignment::EdgeBalanced);
    let (cost, cost_holders) = run(DeviceAssignment::CostDriven);
    assert_eq!(bal.values, cost.values, "placement changed computed values");
    assert_eq!(bal.iterations, cost.iterations);
    let (bal_time, bal_bytes) = exchange_totals(&bal);
    let (cost_time, cost_bytes) = exchange_totals(&cost);
    assert!(
        cost_time < bal_time,
        "cost-driven exchange {cost_time} not below edge-balanced {bal_time}"
    );
    assert!(
        cost_bytes < bal_bytes,
        "cost-driven bytes {cost_bytes} not below edge-balanced {bal_bytes} \
         (holders {cost_holders} vs {bal_holders})"
    );
    assert!(cost.total_time < bal.total_time, "makespan did not improve");
}

#[test]
fn cost_driven_on_a_uniform_fabric_is_edge_balanced() {
    // Host-only fabrics price every placement identically: the planner
    // must return the edge-balanced plan bit-identically, so the whole
    // run (values AND timeline) matches.
    let g = generators::rmat(11, 10.0, 3, true);
    let run = |assignment| {
        let mut cfg = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
        cfg.num_devices = 4;
        cfg.device_assignment = assignment;
        cfg.threads = 1;
        let mut sys = HyTGraphSystem::new(g.clone(), cfg);
        let plan: Vec<u32> =
            (0..sys.num_partitions() as u32).map(|p| sys.device_plan().device_of(p)).collect();
        (sys.run(Sssp::from_source(0)), plan)
    };
    let (bal, bal_plan) = run(DeviceAssignment::EdgeBalanced);
    let (cost, cost_plan) = run(DeviceAssignment::CostDriven);
    assert_eq!(bal_plan, cost_plan, "uniform fabric must keep the edge-balanced plan");
    assert_eq!(bal.values, cost.values);
    assert_eq!(bal.total_time, cost.total_time, "identical plans must price identically");
}

/// Build the same pricer the runner wires: all-gather makespan for the
/// broadcast term, the machine kernel for balance, routed transfer costs
/// for affinity.
fn system_pricer<'a>(
    ic: &'a Interconnect,
    exchange: &'a dyn Fn(&[u64], &[bool]) -> f64,
    compute: &'a dyn Fn(u64) -> f64,
    link: &'a dyn Fn(u32, u32, u64) -> f64,
) -> PlacementPricer<'a> {
    PlacementPricer { exchange, compute, link, uniform: ic.is_uniform_fabric() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under any mixed-generation ring (with or without a slow bridge),
    /// the cost-driven plan never prices worse than the edge-balanced
    /// seed under the same route table; uniform fabrics return the seed
    /// exactly.
    #[test]
    fn never_priced_worse_under_any_fabric(
        gens in proptest::collection::vec(0usize..4, 2..9),
        slow_sel in 0usize..10,
        scale in 4u32..7,
        seed in 0u64..1_000,
    ) {
        let d = gens.len();
        let g = generators::rmat(9, 8.0, seed, true);
        let parts = PartitionSet::build_count(&g, 1u32 << scale);
        let aff = AffinityMatrix::build(&g, &parts, 12);
        // A 2-device ring has a single link; larger rings have one per device.
        let nlinks = if d == 2 { 1 } else { d };
        let mut ic =
            Interconnect::build(TopologyKind::Ring, d, PcieModel::pcie3(), gen_spec(gens[0]));
        for (i, &generation) in gens.iter().enumerate().take(nlinks) {
            ic = ic.with_link_spec(i as u32, ((i + 1) % d) as u32, gen_spec(generation));
        }
        if slow_sel < d {
            let (a, b) = (slow_sel as u32, ((slow_sel + 1) % d) as u32);
            ic = ic.with_link_spec(a, b, LinkSpec::with_nominal_bw(1.0e9).scaled(10));
        }
        let kernel = HyTGraphConfig::default().machine.kernel;
        let exchange = |pubd: &[u64], holders: &[bool]| ic.price_all_gather(pubd, holders).makespan;
        let compute = move |edges: u64| kernel.kernel_time(edges);
        let link = |s: u32, dst: u32, bytes: u64| ic.route_cost(s, dst, bytes);
        let pricer = system_pricer(&ic, &exchange, &compute, &link);
        let plan = plan_cost_driven(&parts, d as u32, &aff, &pricer);
        let balanced = DevicePlan::build(&parts, d as u32, DeviceAssignment::EdgeBalanced, 0);
        let s_plan = placement_score(&parts, &plan, &aff, &pricer);
        let s_bal = placement_score(&parts, &balanced, &aff, &pricer);
        prop_assert!(
            s_plan <= s_bal,
            "cost-driven {} priced above edge-balanced {} on D={} fabric",
            s_plan, s_bal, d
        );
        if pricer.uniform {
            for p in 0..parts.len() as u32 {
                prop_assert_eq!(plan.device_of(p), balanced.device_of(p));
            }
        }
    }

    /// Every assignment policy is value-transparent at every device
    /// count and topology: bit-identical values and iteration counts to
    /// the single-device run (threads = 1 for determinism).
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
            let mut sys = HyTGraphSystem::new(
                g.clone(),
                ring_config(1, DeviceAssignment::EdgeBalanced),
            );
            let r = sys.run(Sssp::from_source(0));
            (r.values, r.iterations)
        };
        prop_assert_eq!(&base.0, &reference::dijkstra(&g, 0));
        for d in [2usize, 4, 8] {
            for assignment in [DeviceAssignment::EdgeBalanced, DeviceAssignment::CostDriven] {
                let cfg = if host_only {
                    let mut c = ring_config(d, assignment);
                    c.topology = TopologyKind::HostOnly;
                    c
                } else {
                    skewed_ring_config_d(d, assignment)
                };
                let mut sys = HyTGraphSystem::new(g.clone(), cfg);
                let r = sys.run(Sssp::from_source(0));
                prop_assert!(
                    r.values == base.0 && r.iterations == base.1,
                    "run diverged at D={} {:?}", d, assignment
                );
            }
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
    let mut cfg_on = skewed_ring_config(DeviceAssignment::EdgeBalanced);
    cfg_on.affine_migration = true;
    let mut on = HyTGraphSystem::new(g.clone(), cfg_on);
    let mut off =
        HyTGraphSystem::new(g.clone(), skewed_ring_config(DeviceAssignment::EdgeBalanced));
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
        let mut cfg = skewed_ring_config(DeviceAssignment::EdgeBalanced);
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
