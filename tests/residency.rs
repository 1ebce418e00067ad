//! Differential tests for whole-share residency.
//!
//! Under the HyTGraph preset, a device whose whole share of the edge data
//! fits its card loads each partition whole on its first touch (one
//! explicit copy, whatever engine Algorithm 1 chose), keeps it, and
//! prices that partition's later slices kernel-only. Every run is held
//! against the same run with `machine.edge_budget = 0` (no share fits, so
//! nothing is kept).
//!
//! **The contract**, checked on every run:
//!
//! * only prices move: the same values, iteration count, and
//!   per-iteration (and per-device) engine mix, kernel edges and exchange
//!   bytes;
//! * first touch, exactly: when every share fits, the run's explicit
//!   bytes are the whole bytes of the distinct partitions it ever touched
//!   (the owners of its seeds and of every vertex whose value moved), and
//!   it ships no zero-copy, compaction or unified-memory bytes;
//! * with a budget between the smallest and the largest share, the
//!   devices that do not fit price exactly as they do unpinned.
//!
//! **Properties of these sweeps**, which the design does not promise (a
//! whole load can cost more bytes than the gather Algorithm 1 chose):
//!
//! * for PR, SSSP, CC and HB on the R-MAT graph, no iteration ships more
//!   host bytes than unpinned, and the first iteration ships exactly as
//!   much, because Algorithm 1 filter-ships every partition they first
//!   touch (BFS's first touches are gathers, so its early iterations
//!   ship more);
//! * a run that ships fewer host bytes in all finishes strictly sooner.
//!
//! The sweep is D ∈ {1, 2, 4, 8} × {host-only, ring} × {PR, SSSP, CC, HB,
//! BFS} on an R-MAT graph, plus SSSP on a small weighted grid where
//! Algorithm 1 never filter-ships; single-threaded so that every
//! comparison is bit for bit.

use hytgraph::core::api::{InitialFrontier, ValueLayout, VertexProgram};
use hytgraph::core::{AsyncMode, HyTGraphConfig, HyTGraphSystem, RunResult, SystemKind};
use hytgraph::core::{IterationStats, TopologyKind};
use hytgraph::graph::{generators, hub_sort, CsrBuilder, PartitionSet};
use hytgraph::prelude::*;
use std::fmt::Debug;

const DEVICES: [usize; 4] = [1, 2, 4, 8];
const TOPOLOGIES: [TopologyKind; 2] = [TopologyKind::HostOnly, TopologyKind::Ring];

fn config(d: usize, topology: TopologyKind) -> HyTGraphConfig {
    let mut cfg = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
    cfg.num_devices = d;
    cfg.topology = topology;
    cfg.threads = 1;
    cfg.partition_bytes = 4 << 10;
    cfg
}

/// Bytes the tasks move over host ports: every transfer but the exchange.
fn host_bytes(it: &IterationStats) -> u64 {
    it.counters.explicit_bytes + it.counters.zero_copy_bytes + it.counters.um_bytes
}

/// Whole bytes of every partition a run of `program` touched: the owners
/// of its seeds and of every vertex whose final value differs from its
/// initial one. A vertex is activated exactly when `accumulate` changes
/// its value, and these programs move a value only one way, so that is
/// every vertex ever active; the recompute pass serves only partitions
/// its task has loaded already.
fn touched_bytes<P: VertexProgram>(
    g: &Csr,
    cfg: &HyTGraphConfig,
    program: &P,
    values: &[P::Value],
    bpe: u64,
) -> u64
where
    P::Value: PartialEq,
{
    // The system's own build: hub order, then partitions in working ids.
    assert!(cfg.contribution_scheduling, "the preset hub-sorts");
    let sorted = hub_sort::hub_sort_with_fraction(g, cfg.hub_fraction);
    let parts = PartitionSet::build(&sorted.graph, cfg.partition_bytes);
    let mut touched = vec![false; parts.len()];
    match program.initial_frontier() {
        InitialFrontier::All => touched.fill(true),
        InitialFrontier::Set(seeds) => {
            for v in seeds {
                touched[parts.owner_of(sorted.to_new(v)) as usize] = true;
            }
        }
    }
    for (v, value) in (0..g.num_vertices()).zip(values) {
        if *value != program.init(v) {
            touched[parts.owner_of(sorted.to_new(v)) as usize] = true;
        }
    }
    parts.partitions().iter().filter(|p| touched[p.id as usize]).map(|p| p.num_edges() * bpe).sum()
}

/// The same run with no edge budget: nothing fits, nothing is kept.
fn unpinned<P: VertexProgram>(g: &Csr, cfg: &HyTGraphConfig, program: P) -> RunResult<P::Value> {
    let mut cfg = cfg.clone();
    cfg.machine.edge_budget = 0;
    HyTGraphSystem::new(g.clone(), cfg).run(program)
}

/// Everything but the prices: values, iterations, and per iteration the
/// engine mix (in total and per device) and the kernel's edges.
fn assert_same_decisions<V: PartialEq + Debug>(p: &RunResult<V>, u: &RunResult<V>, what: &str) {
    assert_eq!(p.iterations, u.iterations, "{what}: iterations");
    assert!(p.values == u.values, "{what}: values diverged");
    for (i, (a, b)) in p.per_iteration.iter().zip(&u.per_iteration).enumerate() {
        assert_eq!(a.mix, b.mix, "{what}: iteration {i} engine mix");
        assert_eq!(a.counters.kernel_edges, b.counters.kernel_edges, "{what}: iteration {i}");
        assert_eq!(a.counters.exchange_bytes, b.counters.exchange_bytes, "{what}: iteration {i}");
        let mixes = |it: &IterationStats| it.per_device.iter().map(|d| d.mix).collect::<Vec<_>>();
        assert_eq!(mixes(a), mixes(b), "{what}: iteration {i} per-device mix");
    }
}

/// Each device's whole share (base edges × `bpe`) and the budget a run
/// of `P` gets per device from `machine.edge_budget`.
fn shares_and_budget<P: VertexProgram>(sys: &HyTGraphSystem, edge_budget: u64) -> (Vec<u64>, u64) {
    let bpe = sys.effective_bytes_per_edge::<P>();
    let plan = sys.device_plan();
    let shares = (0..plan.num_devices()).map(|d| plan.load(d) * bpe).collect();
    let state = u64::from(sys.num_vertices()) * ValueLayout::of::<P::Value>().state_bytes();
    let machine = &sys.config().machine;
    let budget = (edge_budget.saturating_sub(state) as f64 * machine.um_utilization) as u64;
    (shares, budget)
}

/// What a sweep saw besides the contract.
#[derive(Debug, Default, PartialEq)]
struct Seen {
    /// Runs that shipped fewer host bytes than unpinned.
    kept_any: usize,
    /// Runs whose first iteration filter-shipped every partition.
    all_first: usize,
}

/// Run `make()`'s program over the whole sweep and hold each run to the
/// contract. `filter_first` also asserts the per-iteration properties of
/// a sweep whose first touches Algorithm 1 filter-ships (module docs).
fn check<P: VertexProgram>(
    g: &Csr,
    name: &str,
    make: impl Fn() -> P,
    sync: bool,
    filter_first: bool,
) -> Seen
where
    P::Value: PartialEq + Debug,
{
    let mut seen = Seen::default();
    for d in DEVICES {
        for topology in TOPOLOGIES {
            let what = format!("{name} D={d} {topology:?}");
            let mut cfg = config(d, topology);
            if sync {
                cfg.async_mode = AsyncMode::Sync;
            }
            let u = unpinned(g, &cfg, make());

            // Default budget: every device's share fits.
            let mut sys = HyTGraphSystem::new(g.clone(), cfg.clone());
            let (shares, budget) = shares_and_budget::<P>(&sys, cfg.machine.edge_budget);
            assert!(shares.iter().all(|&s| s <= budget), "{what}: test graph must fit");
            let p = sys.run(make());
            assert_same_decisions(&p, &u, &what);
            // Each touched partition is loaded once, whole, by explicit
            // copy; nothing else crosses a host port.
            let bpe = sys.effective_bytes_per_edge::<P>();
            let touched = touched_bytes(g, &cfg, &make(), &p.values, bpe);
            assert_eq!(p.counters.explicit_bytes, touched, "{what}: first-touch bytes");
            let c = &p.counters;
            assert_eq!((c.zero_copy_bytes, c.compaction_bytes, c.um_bytes), (0, 0, 0), "{what}");
            if filter_first {
                for (i, (a, b)) in p.per_iteration.iter().zip(&u.per_iteration).enumerate() {
                    assert!(host_bytes(a) <= host_bytes(b), "{what}: iteration {i} ships more");
                }
                let (a, b) = (&p.per_iteration[0], &u.per_iteration[0]);
                assert_eq!(host_bytes(a), host_bytes(b), "{what}: first iteration");
            }
            if u.per_iteration[0].mix.filter as usize == sys.num_partitions() {
                seen.all_first += 1;
                // The first iteration touches every partition: nothing
                // ships after it.
                assert!(p.per_iteration[1..].iter().all(|it| host_bytes(it) == 0), "{what}");
            }
            let total =
                |r: &RunResult<P::Value>| r.per_iteration.iter().map(host_bytes).sum::<u64>();
            if total(&p) < total(&u) {
                seen.kept_any += 1;
                assert!(p.total_time < u.total_time, "{what}: fewer host bytes, no faster");
            }

            // A budget between the smallest and the largest share: the
            // devices that do not fit price exactly as they do unpinned.
            let held: Vec<u64> = shares.iter().copied().filter(|&s| s > 0).collect();
            let (lo, hi) = (held.iter().min().unwrap(), held.iter().max().unwrap());
            if lo == hi {
                continue;
            }
            let mut partial = cfg.clone();
            let state = u64::from(sys.num_vertices()) * ValueLayout::of::<P::Value>().state_bytes();
            // Invert the `um_utilization` derate, rounding up.
            let target = (lo + hi) / 2;
            partial.machine.edge_budget =
                state + (target as f64 / partial.machine.um_utilization).ceil() as u64;
            let mut sys = HyTGraphSystem::new(g.clone(), partial.clone());
            let (_, budget) = shares_and_budget::<P>(&sys, partial.machine.edge_budget);
            assert!(*lo <= budget && budget < *hi, "{what}: budget {budget} not in [{lo}, {hi})");
            let pp = sys.run(make());
            assert_same_decisions(&pp, &u, &format!("{what} partial"));
            for (i, (a, b)) in pp.per_iteration.iter().zip(&u.per_iteration).enumerate() {
                if filter_first {
                    assert!(host_bytes(a) <= host_bytes(b), "{what} partial: iteration {i}");
                }
                for dev in (0..d).filter(|&dev| shares[dev] > budget) {
                    let (x, y) = (&a.per_device[dev], &b.per_device[dev]);
                    let key = |s: &hytgraph::core::DeviceIterationStats| {
                        (s.tasks, s.mix, s.transfer_time, s.compute_time)
                    };
                    assert_eq!(key(x), key(y), "{what} partial: device {dev} iteration {i}");
                }
            }
        }
    }
    seen
}

fn graph() -> Csr {
    generators::rmat(10, 10.0, 42, true)
}

/// A weighted 4-neighbour grid, both directions, weights 1..=64 from a
/// fixed linear congruential draw.
fn grid(w: u32, h: u32) -> Csr {
    let mut state = 0x6A1Du64;
    let mut weight = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        1 + (state >> 58) as u32
    };
    let mut b = CsrBuilder::new(w * h, true);
    for v in 0..w * h {
        let (x, y) = (v % w, v / w);
        for (ok, u) in [(x + 1 < w, v + 1), (y + 1 < h, v + w)] {
            if ok {
                b.add_weighted_edge(v, u, weight());
                b.add_weighted_edge(u, v, weight());
            }
        }
    }
    b.build()
}

#[test]
fn pagerank_keeps_only_prices_moving() {
    let g = graph();
    let runs = DEVICES.len() * TOPOLOGIES.len();
    let all = Seen { kept_any: runs, all_first: runs };
    assert_eq!(check(&g, "PR", PageRank::new, false, true), all);
}

#[test]
fn sssp_keeps_only_prices_moving() {
    let seen = check(&graph(), "SSSP", || Sssp::from_source(0), false, true);
    assert!(seen.kept_any > 0, "no SSSP run kept anything");
}

#[test]
fn cc_keeps_only_prices_moving() {
    let seen = check(&graph(), "CC", Cc::new, false, true);
    assert!(seen.kept_any > 0, "no CC run kept anything");
}

#[test]
fn hyperball_keeps_only_prices_moving() {
    let g = graph();
    let nv = g.num_vertices();
    let seen = check(&g, "HB", || HyperBall::new(nv), true, true);
    assert!(seen.kept_any > 0, "no HB run kept anything");
}

#[test]
fn bfs_keeps_only_prices_moving() {
    let seen = check(&graph(), "BFS", || Bfs::from_source(0), false, false);
    let runs = DEVICES.len() * TOPOLOGIES.len();
    assert_eq!(seen.kept_any, runs, "every BFS run keeps something");
}

#[test]
fn grid_sssp_loads_what_algorithm_1_never_filter_ships() {
    let g = grid(48, 48);
    let make = || Sssp::from_source(0);
    let u = unpinned(&g, &config(1, TopologyKind::HostOnly), make());
    assert!(u.per_iteration.iter().all(|it| it.mix.filter == 0), "Algorithm 1 filter-shipped");
    let seen = check(&g, "grid SSSP", make, false, false);
    let runs = DEVICES.len() * TOPOLOGIES.len();
    assert_eq!(seen.kept_any, runs, "every grid run keeps something");
}
