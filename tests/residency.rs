//! Differential tests for whole-share residency.
//!
//! Under the HyTGraph preset, a device whose whole share of the edge data
//! fits its card keeps every partition an ExpTM-filter slice ships whole,
//! and prices that partition's later slices kernel-only. The contract is
//! that only prices move: against the same run with
//! `machine.edge_budget = 0` (no share fits, so nothing is kept), every
//! run must have
//!
//! * the same values, iteration count, and per-iteration (and per-device)
//!   engine mix and kernel edges;
//! * no iteration with more host bytes, and the same exchange bytes;
//! * each kept partition's bytes charged once per run;
//! * with a budget between the smallest and the largest share, the
//!   devices that do not fit pricing exactly as they do unpinned.
//!
//! The sweep is D ∈ {1, 2, 4, 8} × {host-only, ring} × {PR, SSSP, CC, HB},
//! single-threaded so that every comparison is bit for bit.

use hytgraph::core::api::{ValueLayout, VertexProgram};
use hytgraph::core::{AsyncMode, HyTGraphConfig, HyTGraphSystem, RunResult, SystemKind};
use hytgraph::core::{IterationStats, TopologyKind};
use hytgraph::graph::generators;
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

/// Bytes ExpTM-filter ships (compaction's gathered bytes are explicit
/// copies too, and counted apart).
fn filter_bytes(it: &IterationStats) -> u64 {
    it.counters.explicit_bytes - it.counters.compaction_bytes
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

/// Run `make()`'s program over the whole sweep and hold each run to the
/// contract. Returns how many runs kept anything, and in how many the
/// first iteration shipped every partition whole.
fn check<P: VertexProgram>(g: &Csr, name: &str, make: impl Fn() -> P, sync: bool) -> (usize, usize)
where
    P::Value: PartialEq + Debug,
{
    let (mut kept_any, mut all_first) = (0, 0);
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
            for (i, (a, b)) in p.per_iteration.iter().zip(&u.per_iteration).enumerate() {
                assert!(host_bytes(a) <= host_bytes(b), "{what}: iteration {i} ships more");
            }
            // Nothing is kept when the run starts, so the first iteration
            // pays in full; after it, a kept partition never ships again,
            // so the run's filter bytes cover each partition at most once.
            assert_eq!(host_bytes(&p.per_iteration[0]), host_bytes(&u.per_iteration[0]), "{what}");
            let shipped: u64 = p.per_iteration.iter().map(filter_bytes).sum();
            assert!(shipped <= shares.iter().sum::<u64>(), "{what}: a kept partition re-shipped");
            let first = &u.per_iteration[0];
            if first.mix.filter as usize == sys.num_partitions() {
                all_first += 1;
                // The first iteration ships every partition whole: each
                // is charged exactly once, and nothing ships after it.
                assert_eq!(shipped, shares.iter().sum::<u64>(), "{what}");
                assert!(p.per_iteration[1..].iter().all(|it| host_bytes(it) == 0), "{what}");
            }
            let saved: u64 = u.per_iteration.iter().map(host_bytes).sum::<u64>()
                - p.per_iteration.iter().map(host_bytes).sum::<u64>();
            if saved > 0 {
                kept_any += 1;
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
                assert!(host_bytes(a) <= host_bytes(b), "{what} partial: iteration {i}");
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
    (kept_any, all_first)
}

fn graph() -> Csr {
    generators::rmat(10, 10.0, 42, true)
}

#[test]
fn pagerank_keeps_only_prices_moving() {
    let g = graph();
    let runs = DEVICES.len() * TOPOLOGIES.len();
    assert_eq!(check(&g, "PR", PageRank::new, false), (runs, runs));
}

#[test]
fn sssp_keeps_only_prices_moving() {
    let (kept, _) = check(&graph(), "SSSP", || Sssp::from_source(0), false);
    assert!(kept > 0, "no SSSP run kept anything");
}

#[test]
fn cc_keeps_only_prices_moving() {
    let (kept, _) = check(&graph(), "CC", Cc::new, false);
    assert!(kept > 0, "no CC run kept anything");
}

#[test]
fn hyperball_keeps_only_prices_moving() {
    let g = graph();
    let nv = g.num_vertices();
    let (kept, _) = check(&g, "HB", || HyperBall::new(nv), true);
    assert!(kept > 0, "no HB run kept anything");
}
