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
//! * only prices and deliveries move: the same values, iteration count,
//!   and per iteration the active partitions (in total and per device),
//!   tasks per device, kernel launches, kernel edges and exchange bytes.
//!   Engine counts compare only on devices whose share fits in neither
//!   run;
//! * the mix says where each partition went. On a fitting device every
//!   active partition is `held` or `load` and no engine ships anything;
//!   with no budget nothing is held or loaded; and an engine counted in a
//!   grid run's mix moved bytes;
//! * first touch, exactly: when every share fits, each iteration's
//!   explicit bytes are the whole bytes of the partitions it loads,
//!   which are those it touches for the first time (the owners of the
//!   seeds, then of every vertex whose value moved in the previous
//!   iteration), and the run ships no zero-copy, compaction or
//!   unified-memory bytes;
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

use hytgraph::core::api::{EdgeCtx, InitialFrontier, PriorityMode, ValueLayout, VertexProgram};
use hytgraph::core::{AsyncMode, HyTGraphConfig, HyTGraphSystem, RunResult, SystemKind};
use hytgraph::core::{DeviceIterationStats, EngineMix, IterationStats, TopologyKind};
use hytgraph::graph::{generators, hub_sort, CsrBuilder, PartitionSet};
use hytgraph::prelude::*;
use std::fmt::Debug;
use std::sync::Mutex;

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

/// A mix's four engine counts.
fn engines(m: &EngineMix) -> [u32; 4] {
    [m.filter, m.compaction, m.zero_copy, m.unified]
}

/// `P`, keeping every iteration's converged values (original ids).
struct Observed<P: VertexProgram> {
    inner: P,
    seen: Mutex<Vec<Vec<P::Value>>>,
}

impl<P: VertexProgram> Observed<P> {
    fn new(inner: P) -> Self {
        Observed { inner, seen: Mutex::new(Vec::new()) }
    }
}

impl<P: VertexProgram> VertexProgram for Observed<P> {
    type Value = P::Value;
    const NEEDS_WEIGHTED_DEGREE: bool = P::NEEDS_WEIGHTED_DEGREE;
    const NEEDS_WEIGHTS: bool = P::NEEDS_WEIGHTS;
    const OBSERVES_ITERATIONS: bool = true;

    fn init(&self, v: VertexId) -> P::Value {
        self.inner.init(v)
    }
    fn initial_frontier(&self) -> InitialFrontier {
        self.inner.initial_frontier()
    }
    fn activate(&self, state: P::Value) -> (P::Value, P::Value) {
        self.inner.activate(state)
    }
    fn claim_from_snapshot(&self, state: P::Value, snap: P::Value) -> (P::Value, P::Value) {
        self.inner.claim_from_snapshot(state, snap)
    }
    fn message(&self, seed: P::Value, ctx: EdgeCtx) -> Option<P::Value> {
        self.inner.message(seed, ctx)
    }
    fn accumulate(&self, state: P::Value, msg: P::Value) -> Option<P::Value> {
        self.inner.accumulate(state, msg)
    }
    fn should_activate(&self, old: P::Value, new: P::Value) -> bool {
        self.inner.should_activate(old, new)
    }
    fn priority_mode(&self) -> PriorityMode {
        self.inner.priority_mode()
    }
    fn delta_of(&self, state: P::Value) -> f64 {
        self.inner.delta_of(state)
    }
    fn observe_iteration(&self, iteration: u32, values: &[P::Value]) {
        if P::OBSERVES_ITERATIONS {
            self.inner.observe_iteration(iteration, values);
        }
        self.seen.lock().unwrap().push(values.to_vec());
    }
}

/// Per iteration, the partitions a run of `program` touches for the
/// first time: (count, whole bytes). A partition is first touched when
/// it owns a seed (iteration 0) or a vertex whose value moved in the
/// previous iteration (`seen` holds each iteration's values). A vertex
/// is activated exactly when `accumulate` changes its value, these
/// programs seed every vertex whenever they do not activate on every
/// change, and the recompute pass serves only partitions its task has
/// loaded already, so that is every partition an iteration loads.
fn first_touches<P: VertexProgram>(
    g: &Csr,
    cfg: &HyTGraphConfig,
    program: &P,
    seen: &[Vec<P::Value>],
    bpe: u64,
) -> Vec<(u32, u64)> {
    // The system's own build: hub order, then partitions in working ids.
    assert!(cfg.contribution_scheduling, "the preset hub-sorts");
    let sorted = hub_sort::hub_sort_with_fraction(g, cfg.hub_fraction);
    let parts = PartitionSet::build(&sorted.graph, cfg.partition_bytes);
    let owner = |v: VertexId| parts.owner_of(sorted.perm[v as usize]) as usize;
    let mut first = vec![None; parts.len()];
    let mut touch = |p: usize, i: usize| {
        first[p].get_or_insert(i);
    };
    match program.initial_frontier() {
        InitialFrontier::All => (0..parts.len()).for_each(|p| touch(p, 0)),
        InitialFrontier::Set(seeds) => seeds.into_iter().for_each(|v| touch(owner(v), 0)),
    }
    let initial: Vec<P::Value> = (0..g.num_vertices()).map(|v| program.init(v)).collect();
    for (i, values) in seen.iter().enumerate() {
        let before = if i == 0 { &initial } else { &seen[i - 1] };
        for v in (0..g.num_vertices()).filter(|&v| values[v as usize] != before[v as usize]) {
            touch(owner(v), i + 1);
        }
    }
    let mut out = vec![(0, 0); seen.len()];
    for (p, i) in parts.partitions().iter().zip(first) {
        if let Some(slot) = i.and_then(|i| out.get_mut(i)) {
            slot.0 += 1;
            slot.1 += p.num_edges() * bpe;
        }
    }
    out
}

/// The same run with no edge budget: nothing fits, nothing is kept.
fn unpinned<P: VertexProgram>(g: &Csr, cfg: &HyTGraphConfig, program: P) -> RunResult<P::Value> {
    let mut cfg = cfg.clone();
    cfg.machine.edge_budget = 0;
    HyTGraphSystem::new(g.clone(), cfg).run(program)
}

/// Everything but the prices and the deliveries: values, iterations,
/// and per iteration the active partitions (in total and per device),
/// the tasks per device, the kernel's launches and edges, and the
/// exchange bytes. Engine counts compare only on the devices
/// `fits_neither` marks: on any other, one run holds or loads what the
/// other ships.
fn assert_same_decisions<V: PartialEq + Debug>(
    p: &RunResult<V>,
    u: &RunResult<V>,
    fits_neither: &[bool],
    what: &str,
) {
    assert_eq!(p.iterations, u.iterations, "{what}: iterations");
    assert!(p.values == u.values, "{what}: values diverged");
    for (i, (a, b)) in p.per_iteration.iter().zip(&u.per_iteration).enumerate() {
        let what = format!("{what}: iteration {i}");
        assert_eq!(a.mix.total(), b.mix.total(), "{what}: active partitions");
        let (x, y) = (&a.counters, &b.counters);
        assert_eq!(x.kernel_launches, y.kernel_launches, "{what}: kernel launches");
        assert_eq!(x.kernel_edges, y.kernel_edges, "{what}: kernel edges");
        assert_eq!(x.exchange_bytes, y.exchange_bytes, "{what}: exchange bytes");
        for (dev, (x, y)) in a.per_device.iter().zip(&b.per_device).enumerate() {
            let key = |s: &DeviceIterationStats| (s.tasks, s.mix.total());
            assert_eq!(key(x), key(y), "{what}: device {dev} tasks and partitions");
            if fits_neither[dev] {
                assert_eq!(x.mix, y.mix, "{what}: device {dev} engine mix");
            }
        }
    }
}

/// A run with no edge budget holds and loads nothing.
fn assert_unpinned_mix<V>(u: &RunResult<V>, what: &str) {
    for (i, it) in u.per_iteration.iter().enumerate() {
        let resident = |m: &EngineMix| (m.held, m.load);
        assert_eq!(resident(&it.mix), (0, 0), "{what}: iteration {i}");
        for d in &it.per_device {
            assert_eq!(resident(&d.mix), (0, 0), "{what}: iteration {i} device {}", d.device);
        }
    }
}

/// A run whose every share fits: each active partition is held or
/// loaded, no engine ships, and each iteration's explicit bytes are the
/// whole bytes of the partitions it loads (`loads`, per iteration).
fn assert_fitting_mix<V>(p: &RunResult<V>, loads: &[(u32, u64)], what: &str) {
    assert_eq!(p.per_iteration.len(), loads.len(), "{what}: one observation per iteration");
    for ((i, it), &(count, bytes)) in p.per_iteration.iter().enumerate().zip(loads) {
        let what = format!("{what}: iteration {i}");
        assert_eq!(engines(&it.mix), [0; 4], "{what}: an engine shipped");
        assert_eq!(it.mix.resident(), it.active_partitions, "{what}: held + load");
        let mut resident = 0;
        for d in &it.per_device {
            assert_eq!(engines(&d.mix), [0; 4], "{what}: device {} engine shipped", d.device);
            resident += d.mix.resident();
        }
        assert_eq!(resident, it.active_partitions, "{what}: devices' held + load");
        assert_eq!(it.mix.load, count, "{what}: first touches");
        assert_eq!(it.counters.explicit_bytes, bytes, "{what}: load bytes");
    }
}

/// An engine a run's mix counts moved bytes through that engine (on a
/// graph where every vertex has out-edges: an R-MAT partition whose
/// active vertices have none ships nothing through any engine).
fn assert_mix_ships<V>(r: &RunResult<V>, what: &str) {
    for (i, it) in r.per_iteration.iter().enumerate() {
        let (m, c) = (&it.mix, &it.counters);
        assert!(m.compaction == 0 || c.compaction_bytes > 0, "{what}: iteration {i} compaction");
        assert!(m.zero_copy == 0 || c.zero_copy_bytes > 0, "{what}: iteration {i} zero-copy");
        assert!(m.filter + m.load == 0 || c.explicit_bytes > 0, "{what}: iteration {i} filter");
    }
}

/// Each device's whole share (base edges × `bpe`) and the budget a run
/// of `P` gets per device from `machine.edge_budget`.
fn shares_and_budget<P: VertexProgram>(sys: &HyTGraphSystem, edge_budget: u64) -> (Vec<u64>, u64) {
    let bpe = sys.effective_edge_bytes::<P>() / sys.num_edges();
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
            assert_unpinned_mix(&u, &format!("{what} unpinned"));

            // Default budget: every device's share fits.
            let mut sys = HyTGraphSystem::new(g.clone(), cfg.clone());
            let (shares, budget) = shares_and_budget::<P>(&sys, cfg.machine.edge_budget);
            assert!(shares.iter().all(|&s| s <= budget), "{what}: test graph must fit");
            let observed = Observed::new(make());
            let p = sys.run(&observed);
            assert_same_decisions(&p, &u, &vec![false; d], &what);
            // Each touched partition is loaded once, whole, by explicit
            // copy, in the iteration that first touches it; nothing else
            // crosses a host port.
            let bpe = sys.effective_edge_bytes::<P>() / sys.num_edges();
            let values = observed.seen.into_inner().unwrap();
            let loads = first_touches(g, &cfg, &observed.inner, &values, bpe);
            assert_fitting_mix(&p, &loads, &what);
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
            let fits_neither: Vec<bool> = shares.iter().map(|&s| s > budget).collect();
            assert_same_decisions(&pp, &u, &fits_neither, &format!("{what} partial"));
            for (i, (a, b)) in pp.per_iteration.iter().zip(&u.per_iteration).enumerate() {
                if filter_first {
                    assert!(host_bytes(a) <= host_bytes(b), "{what} partial: iteration {i}");
                }
                for dev in (0..d).filter(|&dev| fits_neither[dev]) {
                    let (x, y) = (&a.per_device[dev], &b.per_device[dev]);
                    let key = |s: &DeviceIterationStats| (s.transfer_time, s.compute_time);
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
    assert!(u.per_iteration.iter().any(|it| it.mix.compaction > 0), "Algorithm 1 never gathered");
    let seen = check(&g, "grid SSSP", make, false, false);
    let runs = DEVICES.len() * TOPOLOGIES.len();
    assert_eq!(seen.kept_any, runs, "every grid run keeps something");
    for d in DEVICES {
        for topology in TOPOLOGIES {
            let cfg = config(d, topology);
            let what = format!("grid SSSP D={d} {topology:?}");
            assert_mix_ships(&unpinned(&g, &cfg, make()), &format!("{what} unpinned"));
            assert_mix_ships(&HyTGraphSystem::new(g.clone(), cfg).run(make()), &what);
        }
    }
}
