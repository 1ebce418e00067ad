//! `replay`: every library call the per-layer host-time metrics time, in
//! one file, one function per metric, so a later public-API change is a
//! one-line benchmark follow-up.
//!
//! Each function runs its entry point on the workload's own graph,
//! partitions and configuration, with seeded frontiers at the minimum,
//! median and maximum active share the workload's run recorded, repeats
//! the call until [`MIN_TIMED`] has been spent inside it, and returns the
//! median in the metric's unit. Rates divide the work one call does by
//! that median.

use crate::stats::{median, SplitMix};
use crate::trace::Tracer;
use crate::workloads::{self, Kind, PrimaryValue, SessionProbe};
use hyt_algos::{AlgoBackend, Cc, HyperBall, MultiDist, MultiSssp, PageRank, Sssp};
use hyt_core::api::{ValueLayout, Values, VertexProgram};
use hyt_core::combine::{combine_tasks_sized, CombinedTask};
use hyt_core::kernel::{run_kernel, EdgeSource};
use hyt_core::priority::order_tasks;
use hyt_core::runner::EXCHANGE_RECORD_BYTES;
use hyt_core::select::select_engines_sharded;
use hyt_core::session::{QueryKind, SessionService};
use hyt_core::{EngineKind, HyTGraphConfig, HyTGraphSystem, SelectParams};
use hyt_engines::{analyze_partitions, compaction, filter, zero_copy, PartitionActivity};
use hyt_engines::{CompactedSubgraph, UnifiedState};
use hyt_graph::hub_sort::hub_sort_with_fraction;
use hyt_graph::placement::{plan_cost_driven, AffinityMatrix, PlacementPricer};
use hyt_graph::{
    Csr, DeltaCsr, DevicePlan, Frontier, HubSortResult, MutationBatch, PartitionSet, VertexId,
};
use hyt_sim::{Interconnect, MultiGpuSim, SimTask, StreamSim};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time spent inside each replayed entry point before its median is taken
/// (`wall self-test` passes zero: one call each).
pub const MIN_TIMED: Duration = Duration::from_millis(50);
/// Edge ops per replayed mutation batch (the session workload's size).
const BATCH_OPS: usize = workloads::MUTATE_OPS;
/// Mutation batches applied per replayed sequence at most.
const MAX_BATCHES: usize = 32;

/// Median seconds per call of `run`, each call preceded by an untimed
/// `prepare`. Calls faster than ~20 us are timed in batches so the timer's
/// own cost stays under a percent.
fn timed<S>(min: Duration, mut prepare: impl FnMut() -> S, mut run: impl FnMut(&mut S)) -> f64 {
    let mut state = prepare();
    let t0 = Instant::now();
    run(&mut state);
    let first = t0.elapsed();
    let batch = (20_000 / first.as_nanos().max(1)).clamp(1, 10_000) as u32;
    let mut samples = vec![first.as_secs_f64()];
    let mut spent = first;
    while spent < min {
        let mut state = prepare();
        let t0 = Instant::now();
        for _ in 0..batch {
            run(&mut state);
        }
        let took = t0.elapsed();
        spent += took;
        samples.push(took.as_secs_f64() / f64::from(batch));
    }
    median(&samples)
}

fn timed_call<T>(min: Duration, mut f: impl FnMut() -> T) -> f64 {
    timed(min, || (), |()| drop(black_box(f())))
}

/// The workload's own structures, built once (untimed) for the replay.
pub struct Replay<'a> {
    pub kind: Kind,
    pub seed: u64,
    pub scale: u32,
    /// Original vertex ids.
    pub graph: &'a Csr,
    pub cfg: HyTGraphConfig,
    pub min_timed: Duration,
    /// `hub.graph` is the working (hub-sorted) graph the runner executes on.
    hub: HubSortResult,
    parts: PartitionSet,
    devices: DevicePlan,
    interconnect: Interconnect,
    /// Bytes per edge a weight-reading program moves.
    bpe: u64,
    layout: ValueLayout,
    sparse: Frontier,
    median: Frontier,
    dense: Frontier,
    /// Activity, decisions and tasks of the median frontier.
    acts: Vec<PartitionActivity>,
    decisions: Vec<(usize, EngineKind)>,
    tasks: Vec<CombinedTask>,
    dev_tasks: Vec<Vec<SimTask>>,
    /// A delta view carrying the batches `graph_delta_apply_kops_per_s`
    /// applied (what kernels read after a session's first `Mutate`).
    delta: DeltaCsr,
    /// Resident system for the pricing and session entry points.
    system: Option<HyTGraphSystem>,
}

fn seeded_frontier(nv: u32, share: f64, rng: &mut SplitMix) -> Frontier {
    let f = Frontier::new(nv);
    for v in 0..nv {
        if rng.unit() < share {
            f.insert(v);
        }
    }
    if f.is_empty() {
        f.insert(rng.below(u64::from(nv)) as VertexId);
    }
    f
}

/// [`MAX_BATCHES`] distinct batches of the session workload's shape.
fn mutation_batches(g: &Csr, rng: &mut SplitMix) -> Vec<MutationBatch> {
    let mut deleted = std::collections::HashSet::new();
    (0..MAX_BATCHES).map(|_| workloads::mutation_batch(g, rng, &mut deleted)).collect()
}

impl<'a> Replay<'a> {
    /// `shares` are the run's per-iteration active-vertex shares.
    pub fn new(
        kind: Kind,
        seed: u64,
        scale: u32,
        graph: &'a Csr,
        shares: &[f64],
        min_timed: Duration,
    ) -> Self {
        let cfg = kind.config();
        let hub = hub_sort_with_fraction(graph, cfg.hub_fraction);
        let parts = PartitionSet::build(&hub.graph, cfg.partition_bytes);
        let nd = cfg.num_devices.max(1);
        let devices = DevicePlan::build(&parts, nd as u32, cfg.device_assignment, hub.num_hubs);
        let interconnect = Interconnect::build(cfg.topology, nd, cfg.machine.pcie, cfg.peer_link);
        let layout = match kind.primary_value() {
            PrimaryValue::F32Pair => ValueLayout::of::<hyt_core::F32Pair>(),
            PrimaryValue::U32 => ValueLayout::of::<u32>(),
            PrimaryValue::Hll => ValueLayout::of::<hyt_algos::HllSketch>(),
            PrimaryValue::Multi8 => ValueLayout::of::<MultiDist<8>>(),
        };
        let (lo, mid, hi) = if shares.is_empty() {
            // The session service reports no per-iteration activity.
            (8.0 / f64::from(graph.num_vertices()), 0.05, 0.5)
        } else {
            (
                shares.iter().copied().fold(f64::INFINITY, f64::min),
                median(shares),
                shares.iter().copied().fold(0.0, f64::max),
            )
        };
        let mut rng = SplitMix(0xF207 ^ seed);
        let nv = graph.num_vertices();
        let mut r = Replay {
            kind,
            seed,
            scale,
            graph,
            bpe: hub.graph.bytes_per_edge(),
            layout,
            sparse: seeded_frontier(nv, lo, &mut rng),
            median: seeded_frontier(nv, mid, &mut rng),
            dense: seeded_frontier(nv, hi, &mut rng),
            acts: Vec::new(),
            decisions: Vec::new(),
            tasks: Vec::new(),
            dev_tasks: Vec::new(),
            delta: DeltaCsr::with_partitions(hub.graph.clone(), &parts),
            system: None,
            min_timed,
            cfg,
            hub,
            parts,
            devices,
            interconnect,
        };
        r.acts = r.analyze(&r.median);
        r.decisions = r.select();
        r.tasks = r.combine();
        r.dev_tasks = r.plan();
        r
    }

    fn working(&self) -> &Csr {
        &self.hub.graph
    }

    fn nv(&self) -> u32 {
        self.graph.num_vertices()
    }

    fn analyze(&self, frontier: &Frontier) -> Vec<PartitionActivity> {
        analyze_partitions(
            self.working().view(),
            &self.parts,
            frontier,
            &self.cfg.machine.pcie,
            self.bpe,
            self.cfg.threads,
        )
    }

    fn select_params(&self) -> SelectParams {
        SelectParams { value_surplus: self.layout.compaction_surplus(), ..self.cfg.select_params }
    }

    /// Cost formulas (1)-(3) (`partition_costs_sized`, called per active
    /// partition inside the selector) and Algorithm 1.
    fn select(&self) -> Vec<(usize, EngineKind)> {
        select_engines_sharded(
            &self.acts,
            &self.devices,
            &self.cfg.machine.pcie,
            self.bpe,
            self.cfg.selection,
            &self.select_params(),
        )
    }

    fn combine(&self) -> Vec<CombinedTask> {
        combine_tasks_sized(
            &self.decisions,
            self.cfg.combine_k,
            self.cfg.task_combining,
            self.layout.lane_bytes(),
        )
    }

    /// Price every task's per-device slice with its engine, as the runner
    /// does, into one task list per device.
    fn plan(&self) -> Vec<Vec<SimTask>> {
        let machine = &self.cfg.machine;
        let view = self.working().view();
        let mut um = UnifiedState::new(machine);
        let mut out = vec![Vec::new(); self.devices.num_devices() as usize];
        for task in &self.tasks {
            for dev in 0..self.devices.num_devices() {
                let refs: Vec<&PartitionActivity> = task
                    .members
                    .iter()
                    .map(|&i| &self.acts[i])
                    .filter(|a| self.devices.device_of(a.partition) == dev)
                    .collect();
                if refs.is_empty() {
                    continue;
                }
                let plan = match task.kind {
                    EngineKind::ExpFilter => filter::plan_filter(machine, view, &refs, self.bpe),
                    EngineKind::ExpCompaction => compaction::price_compaction_sized(
                        machine,
                        &refs,
                        self.bpe,
                        self.layout.compaction_surplus(),
                    ),
                    EngineKind::ImpZeroCopy => zero_copy::plan_zero_copy(machine, &refs),
                    EngineKind::ImpUnified => um.plan_unified(machine, view, &refs, self.bpe),
                };
                out[dev as usize].push(plan.to_sim_task_for_device(dev));
            }
        }
        out
    }

    fn active_of(&self, frontier: &Frontier) -> Vec<VertexId> {
        frontier.iter().collect()
    }

    fn all_vertices(&self) -> Vec<VertexId> {
        (0..self.nv()).collect()
    }

    fn system(&mut self) -> &mut HyTGraphSystem {
        let (graph, cfg) = (self.graph, &self.cfg);
        self.system.get_or_insert_with(|| HyTGraphSystem::new(graph.clone(), cfg.clone()))
    }

    /// What the replayed frontiers and task sets look like.
    pub fn describe(&self) -> String {
        format!(
            "replay: {} partitions on {} device(s); frontiers of {} / {} / {} of {} vertices; \
             the median one activates {} partitions in {} tasks",
            self.parts.len(),
            self.devices.num_devices(),
            self.sparse.count(),
            self.median.count(),
            self.dense.count(),
            self.nv(),
            self.decisions.len(),
            self.tasks.len()
        )
    }

    fn hub_sources(&self) -> [VertexId; 8] {
        let mut s = [0; 8];
        for (slot, v) in s.iter_mut().zip(0..self.nv()) {
            *slot = self.hub.to_old(v);
        }
        s
    }
}

// --- graph -----------------------------------------------------------------

pub fn graph_generate_s(r: &Replay) -> f64 {
    timed_call(r.min_timed, || workloads::generate_graph(r.kind, r.seed, r.scale))
}

pub fn graph_hub_sort_ms(r: &Replay) -> f64 {
    timed_call(r.min_timed, || hub_sort_with_fraction(r.graph, r.cfg.hub_fraction)) * 1e3
}

pub fn graph_partition_ms(r: &Replay) -> f64 {
    timed_call(r.min_timed, || PartitionSet::build(r.working(), r.cfg.partition_bytes)) * 1e3
}

pub fn graph_affinity_ms(r: &Replay) -> f64 {
    timed_call(r.min_timed, || AffinityMatrix::build(r.working(), &r.parts, EXCHANGE_RECORD_BYTES))
        * 1e3
}

/// The priced planner with the runner's three pricing closures over this
/// workload's interconnect (an early return at D=1).
pub fn graph_plan_cost_driven_ms(r: &Replay) -> f64 {
    let affinity = AffinityMatrix::build(r.working(), &r.parts, EXCHANGE_RECORD_BYTES);
    let ic = &r.interconnect;
    let exchange = |owned: &[u64], holders: &[bool]| ic.price_all_gather(owned, holders).makespan;
    let compute = |edges: u64| r.cfg.machine.kernel.kernel_time(edges);
    let link = |src: u32, dst: u32, bytes: u64| ic.route_cost(src, dst, bytes);
    let pricer = PlacementPricer {
        exchange: &exchange,
        compute: &compute,
        link: &link,
        uniform: ic.is_uniform_fabric(),
    };
    timed_call(r.min_timed, || {
        plan_cost_driven(&r.parts, r.devices.num_devices(), &affinity, &pricer)
    }) * 1e3
}

pub fn graph_frontier_scan_ns_per_vertex(r: &Replay) -> f64 {
    timed_call(r.min_timed, || r.median.iter().count()) * 1e9 / f64::from(r.nv())
}

/// Applies up to [`MAX_BATCHES`] distinct batches to the replay's delta
/// view (which `core_kernel_medges_per_s_delta_live_t1` then reads).
pub fn graph_delta_apply_kops_per_s(r: &mut Replay) -> f64 {
    let batches = mutation_batches(r.working(), &mut SplitMix(0xDE17A ^ r.seed));
    let mut samples = Vec::new();
    let mut spent = Duration::ZERO;
    for b in &batches {
        let t0 = Instant::now();
        let applied = r.delta.apply(b);
        let took = t0.elapsed();
        assert!(applied.is_ok(), "replay batches are valid by construction");
        samples.push(took.as_secs_f64());
        spent += took;
        if spent >= r.min_timed {
            break;
        }
    }
    BATCH_OPS as f64 / median(&samples) / 1e3
}

pub fn graph_delta_compact_ms(r: &Replay) -> f64 {
    timed_call(r.min_timed, || r.delta.compact()) * 1e3
}

// --- engines ---------------------------------------------------------------

pub fn engines_analyze_ns_per_partition_dense(r: &Replay) -> f64 {
    timed_call(r.min_timed, || r.analyze(&r.dense)) * 1e9 / r.parts.len() as f64
}

pub fn engines_analyze_ns_per_partition_sparse(r: &Replay) -> f64 {
    timed_call(r.min_timed, || r.analyze(&r.sparse)) * 1e9 / r.parts.len() as f64
}

pub fn engines_plan_ns_per_partition(r: &Replay) -> f64 {
    timed_call(r.min_timed, || r.plan()) * 1e9 / r.decisions.len().max(1) as f64
}

pub fn engines_compact_mbytes_per_s(r: &Replay) -> f64 {
    let active = r.active_of(&r.dense);
    let view = r.working().view();
    let bytes = compaction::compact(view, &active, r.cfg.threads).transfer_bytes(r.bpe);
    bytes as f64
        / timed_call(r.min_timed, || compaction::compact(view, &active, r.cfg.threads))
        / 1e6
}

// --- core: kernel ----------------------------------------------------------

/// One all-active sweep of `program` over `source`, from freshly
/// initialised values each time; millions of edges relaxed per second.
fn kernel_medges_per_s<P: VertexProgram>(
    r: &Replay,
    program: &P,
    source: EdgeSource<'_>,
    init: impl Fn(VertexId) -> P::Value,
    sync: bool,
    threads: usize,
) -> f64 {
    let active = r.all_vertices();
    let mut edges = 0u64;
    let secs = timed(
        r.min_timed,
        || {
            let values = Values::init_with(r.nv(), &init);
            let snapshot = sync.then(|| values.snapshot());
            (values, Frontier::new(r.nv()), snapshot)
        },
        |(values, next, snapshot)| {
            let stats =
                run_kernel(program, source, &active, values, next, snapshot.as_deref(), threads);
            edges = stats.edges_processed;
        },
    );
    edges as f64 / secs / 1e6
}

/// Finite pseudo-distances, so every edge of an SSSP sweep sends a message.
fn pseudo_distance(v: VertexId) -> u32 {
    (SplitMix(u64::from(v)).next() & 0xFFFF) as u32
}

fn sssp_rate(r: &Replay, source: EdgeSource<'_>) -> f64 {
    kernel_medges_per_s(r, &Sssp::from_source(0), source, pseudo_distance, false, 1)
}

fn cc_sync_rate(r: &Replay, threads: usize) -> f64 {
    kernel_medges_per_s(r, &Cc::new(), EdgeSource::Graph(r.working().view()), |v| v, true, threads)
}

pub fn core_kernel_medges_per_s_f32pair_t1(r: &Replay) -> f64 {
    let p = PageRank::new();
    kernel_medges_per_s(r, &p, EdgeSource::Graph(r.working().view()), |v| p.init(v), false, 1)
}

pub fn core_kernel_medges_per_s_u32_t1(r: &Replay) -> f64 {
    sssp_rate(r, EdgeSource::Graph(r.working().view()))
}

pub fn core_kernel_medges_per_s_u32_t2(r: &Replay) -> f64 {
    cc_sync_rate(r, workloads::host_threads().min(2))
}

/// Two threads over one: the same sync CC sweep at both counts.
pub fn core_kernel_scaling_t2(r: &Replay) -> f64 {
    cc_sync_rate(r, workloads::host_threads().min(2)) / cc_sync_rate(r, 1)
}

pub fn core_kernel_medges_per_s_hll_t1(r: &Replay) -> f64 {
    let p = HyperBall::new(r.nv());
    kernel_medges_per_s(r, &p, EdgeSource::Graph(r.working().view()), |v| p.init(v), true, 1)
}

pub fn core_kernel_medges_per_s_multi8_t1(r: &Replay) -> f64 {
    let p = MultiSssp::<8>::from_sources(r.hub_sources());
    let init = |v: VertexId| MultiDist { d: [pseudo_distance(v); 8] };
    kernel_medges_per_s(r, &p, EdgeSource::Graph(r.working().view()), init, false, 1)
}

pub fn core_kernel_medges_per_s_delta_live_t1(r: &Replay) -> f64 {
    sssp_rate(r, EdgeSource::Graph(r.delta.view()))
}

pub fn core_kernel_medges_per_s_compacted_t1(r: &Replay) -> f64 {
    let gathered: CompactedSubgraph =
        compaction::compact(r.working().view(), &r.all_vertices(), r.cfg.threads);
    sssp_rate(r, EdgeSource::Compacted(&gathered))
}

/// The delta view with no delta: what every run pays today, since the
/// resident system always reads through `DeltaCsr::view`.
pub fn core_kernel_medges_per_s_delta_empty_t1(r: &Replay) -> f64 {
    let empty = DeltaCsr::with_partitions(r.working().clone(), &r.parts);
    sssp_rate(r, EdgeSource::Graph(empty.view()))
}

/// The kernel rate `core.nonkernel_share` divides the run's edges by.
pub fn primary_kernel_medges_per_s(kind: Kind, metrics: &[(&'static str, f64)]) -> f64 {
    let name = match (kind, kind.primary_value()) {
        (Kind::CcSyncT2, _) => "core.kernel_medges_per_s.u32_t2",
        (_, PrimaryValue::F32Pair) => "core.kernel_medges_per_s.f32pair_t1",
        (_, PrimaryValue::U32) => "core.kernel_medges_per_s.u32_t1",
        (_, PrimaryValue::Hll) => "core.kernel_medges_per_s.hll_t1",
        (_, PrimaryValue::Multi8) => "core.kernel_medges_per_s.multi8_t1",
    };
    metrics.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v)
}

// --- core: orchestration ---------------------------------------------------

pub fn core_cost_select_ns_per_partition(r: &Replay) -> f64 {
    timed_call(r.min_timed, || (r.select(), r.combine())) * 1e9 / r.parts.len() as f64
}

/// Delta-mode ordering reads every member's pending mass; hub mode sorts
/// by partition id. Each workload pays the mode of its own program.
pub fn core_order_tasks_us(r: &Replay) -> f64 {
    fn order<P: VertexProgram>(r: &Replay, program: &P) -> f64 {
        let values = Values::init(program, r.nv());
        timed(
            r.min_timed,
            || r.tasks.clone(),
            |tasks| order_tasks(tasks, &r.acts, program, &values, r.cfg.contribution_scheduling),
        )
    }
    let secs = match r.kind.primary_value() {
        PrimaryValue::F32Pair => order(r, &PageRank::new()),
        _ => order(r, &Cc::new()),
    };
    secs * 1e6
}

/// `Values::init_with` composed with the hub relabelling, and the
/// end-of-run `snapshot` + `values_to_old_order`, for the workload's own
/// value width.
fn values_cost(r: &Replay, snapshot: bool) -> f64 {
    fn cost<P: VertexProgram>(r: &Replay, program: &P, snapshot: bool) -> f64 {
        let init = || Values::init_with(r.nv(), |new| program.init(r.hub.to_old(new)));
        if snapshot {
            let values = init();
            timed_call(r.min_timed, || r.hub.values_to_old_order(&values.snapshot()))
        } else {
            timed_call(r.min_timed, init)
        }
    }
    let secs = match r.kind.primary_value() {
        PrimaryValue::F32Pair => cost(r, &PageRank::new(), snapshot),
        PrimaryValue::U32 => cost(r, &Cc::new(), snapshot),
        PrimaryValue::Hll => cost(r, &HyperBall::new(r.nv()), snapshot),
        PrimaryValue::Multi8 => cost(r, &MultiSssp::<8>::from_sources(r.hub_sources()), snapshot),
    };
    secs * 1e3
}

pub fn core_values_init_ms(r: &Replay) -> f64 {
    values_cost(r, false)
}

pub fn core_values_snapshot_ms(r: &Replay) -> f64 {
    values_cost(r, true)
}

// --- core: resident system and session -------------------------------------

/// Leaves the last system it built as the replay's resident system.
pub fn core_system_new_ms(r: &mut Replay) -> f64 {
    let mut last = None;
    let secs = timed(
        r.min_timed,
        || Some(r.graph.clone()),
        |graph| {
            let graph = graph.take().unwrap_or_else(|| r.graph.clone());
            last = Some(HyTGraphSystem::new(graph, r.cfg.clone()));
        },
    );
    r.system = last;
    secs * 1e3
}

/// First pricing of a shape on a resident system: one sample per shape.
pub fn core_price_full_sweep_us_cold(r: &mut Replay) -> f64 {
    let shapes = [
        (true, ValueLayout::of::<hyt_core::F32Pair>()),
        (false, ValueLayout::of::<hyt_algos::HllSketch>()),
        (true, ValueLayout::of::<hyt_algos::HllSketch>()),
        (false, ValueLayout::of::<MultiDist<4>>()),
        (true, ValueLayout::of::<MultiDist<4>>()),
    ];
    let sys = r.system();
    let samples: Vec<f64> = shapes
        .iter()
        .map(|&(weights, layout)| {
            let t0 = Instant::now();
            black_box(sys.price_full_sweep(weights, layout));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples) * 1e6
}

pub fn core_price_full_sweep_us_cached(r: &mut Replay) -> f64 {
    let (layout, min) = (ValueLayout::of::<u32>(), r.min_timed);
    let sys = r.system();
    sys.price_full_sweep(false, layout);
    timed_call(min, || sys.price_full_sweep(false, layout)) * 1e6
}

/// Through the hub relabelling, dirty tracking and the priced compaction
/// trigger, which may trip.
pub fn core_apply_mutations_kops_per_s(r: &mut Replay) -> f64 {
    let batches = mutation_batches(r.graph, &mut SplitMix(0xA991 ^ r.seed));
    let min = r.min_timed;
    let sys = r.system();
    let mut samples = Vec::new();
    let mut spent = Duration::ZERO;
    for b in &batches {
        let t0 = Instant::now();
        let report = sys.apply_mutations(b);
        let took = t0.elapsed();
        assert!(report.is_ok(), "replay batches are valid by construction");
        samples.push(took.as_secs_f64());
        spent += took;
        if spent >= min {
            break;
        }
    }
    BATCH_OPS as f64 / median(&samples) / 1e3
}

/// Wraps the replay's resident system in a `SessionService`; returns the
/// cached-quote cost and, when `probe` is set, serves a small mixed
/// round through it (16 hub traversals around a `Mutate` barrier) to
/// sample `submit` and `run_next` on workloads that are not a session.
pub fn core_session_quote_us(r: &mut Replay, probe: Option<&mut SessionProbe>) -> f64 {
    let sources = r.hub_sources();
    let batch = mutation_batches(r.graph, &mut SplitMix(0x5E55 ^ r.seed)).swap_remove(0);
    r.system();
    let system = r.system.take().expect("just built");
    let mut svc = SessionService::new(system, AlgoBackend, workloads::session_config());
    svc.quote(&QueryKind::Bfs(sources[0]));
    let quote_us = timed_call(r.min_timed, || svc.quote(&QueryKind::Bfs(sources[0]))) * 1e6;
    let Some(probe) = probe else { return quote_us };
    let mut script: Vec<QueryKind> = sources.iter().map(|&s| QueryKind::Bfs(s)).collect();
    script.push(QueryKind::Mutate(batch));
    script.extend(sources.iter().map(|&s| QueryKind::Sssp(s)));
    for kind in script {
        let t0 = Instant::now();
        let admission = svc.submit(kind);
        probe.submit_ns.push(t0.elapsed().as_nanos() as f64);
        if matches!(admission, hyt_core::session::Admission::Rejected { .. }) {
            probe.rejected += 1;
        }
    }
    loop {
        let t0 = Instant::now();
        let Some(done) = svc.run_next() else { break };
        probe.run_next_ns.push(t0.elapsed().as_nanos() as f64);
        probe.cohort_widths.push(done.len() as f64);
    }
    quote_us
}

// --- sim: host cost of the pricing calls -----------------------------------

pub fn sim_schedule_us_per_call(r: &Replay) -> f64 {
    let nd = r.devices.num_devices() as usize;
    let sim = MultiGpuSim::with_interconnect(nd, r.cfg.num_streams, r.interconnect.clone());
    timed_call(r.min_timed, || sim.schedule(&r.dev_tasks)) * 1e6
}

pub fn sim_stream_schedule_us_per_call(r: &Replay) -> f64 {
    let tasks: Vec<SimTask> = r.dev_tasks.iter().flatten().cloned().collect();
    let sim = StreamSim::new(r.cfg.num_streams);
    timed_call(r.min_timed, || sim.schedule(&tasks)) * 1e6
}

/// Publication sizes of the median frontier per owning device, and which
/// devices hold a shard.
fn exchange_inputs(r: &Replay) -> (Vec<u64>, Vec<bool>) {
    let nd = r.devices.num_devices() as usize;
    let (mut owned, mut holders) = (vec![0u64; nd], vec![false; nd]);
    for a in &r.acts {
        let d = r.devices.device_of(a.partition) as usize;
        holders[d] = true;
        owned[d] += a.active_vertices.len() as u64 * r.layout.record_bytes();
    }
    (owned, holders)
}

pub fn sim_price_all_gather_us_per_call(r: &Replay) -> f64 {
    let (owned, holders) = exchange_inputs(r);
    timed_call(r.min_timed, || r.interconnect.price_all_gather(&owned, &holders)) * 1e6
}

pub fn sim_price_all_gather_load_aware_us_per_call(r: &Replay) -> f64 {
    let (owned, holders) = exchange_inputs(r);
    timed_call(r.min_timed, || r.interconnect.price_all_gather_load_aware(&owned, &holders)) * 1e6
}

pub fn sim_interconnect_build_ms(r: &Replay) -> f64 {
    let c = &r.cfg;
    let nd = c.num_devices.max(1);
    timed_call(r.min_timed, || Interconnect::build(c.topology, nd, c.machine.pcie, c.peer_link))
        * 1e3
}

// --- bench -----------------------------------------------------------------

pub fn bench_timer_ns(r: &Replay) -> f64 {
    timed_call(r.min_timed, || Instant::now().elapsed()) * 1e9
}

/// Run every replayed metric, each inside a `layer.<metric>` span under
/// one `replay` span. `session` receives the mini-session samples when
/// the workload is not itself a session.
pub fn replay_all(
    r: &mut Replay,
    tracer: &mut Tracer,
    session: Option<&mut SessionProbe>,
) -> Vec<(&'static str, f64)> {
    let root = tracer.open("replay", None);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    macro_rules! layer {
        ($name:literal, $call:expr) => {{
            let id = tracer.open(concat!("layer.", $name), Some(root));
            let value = $call;
            tracer.close(id);
            out.push(($name, value));
        }};
    }
    layer!("graph.generate_s", graph_generate_s(r));
    layer!("graph.hub_sort_ms", graph_hub_sort_ms(r));
    layer!("graph.partition_ms", graph_partition_ms(r));
    layer!("graph.affinity_ms", graph_affinity_ms(r));
    layer!("graph.plan_cost_driven_ms", graph_plan_cost_driven_ms(r));
    layer!("graph.frontier_scan_ns_per_vertex", graph_frontier_scan_ns_per_vertex(r));
    layer!("graph.delta_apply_kops_per_s", graph_delta_apply_kops_per_s(r));
    layer!("graph.delta_compact_ms", graph_delta_compact_ms(r));
    layer!("engines.analyze_ns_per_partition.dense", engines_analyze_ns_per_partition_dense(r));
    layer!("engines.analyze_ns_per_partition.sparse", engines_analyze_ns_per_partition_sparse(r));
    layer!("engines.plan_ns_per_partition", engines_plan_ns_per_partition(r));
    layer!("engines.compact_mbytes_per_s", engines_compact_mbytes_per_s(r));
    layer!("core.kernel_medges_per_s.f32pair_t1", core_kernel_medges_per_s_f32pair_t1(r));
    layer!("core.kernel_medges_per_s.u32_t1", core_kernel_medges_per_s_u32_t1(r));
    layer!("core.kernel_medges_per_s.u32_t2", core_kernel_medges_per_s_u32_t2(r));
    layer!("core.kernel_scaling_t2", core_kernel_scaling_t2(r));
    layer!("core.kernel_medges_per_s.hll_t1", core_kernel_medges_per_s_hll_t1(r));
    layer!("core.kernel_medges_per_s.multi8_t1", core_kernel_medges_per_s_multi8_t1(r));
    layer!("core.kernel_medges_per_s.delta_live_t1", core_kernel_medges_per_s_delta_live_t1(r));
    layer!("core.kernel_medges_per_s.compacted_t1", core_kernel_medges_per_s_compacted_t1(r));
    layer!("core.kernel_medges_per_s.delta_empty_t1", core_kernel_medges_per_s_delta_empty_t1(r));
    layer!("core.cost_select_ns_per_partition", core_cost_select_ns_per_partition(r));
    layer!("core.order_tasks_us", core_order_tasks_us(r));
    layer!("core.values_init_ms", core_values_init_ms(r));
    layer!("core.values_snapshot_ms", core_values_snapshot_ms(r));
    layer!("core.system_new_ms", core_system_new_ms(r));
    layer!("core.price_full_sweep_us.cold", core_price_full_sweep_us_cold(r));
    layer!("core.price_full_sweep_us.cached", core_price_full_sweep_us_cached(r));
    layer!("core.apply_mutations_kops_per_s", core_apply_mutations_kops_per_s(r));
    layer!("core.session_quote_us", core_session_quote_us(r, session));
    layer!("sim.schedule_us_per_call", sim_schedule_us_per_call(r));
    layer!("sim.price_all_gather_us_per_call", sim_price_all_gather_us_per_call(r));
    layer!(
        "sim.price_all_gather_load_aware_us_per_call",
        sim_price_all_gather_load_aware_us_per_call(r)
    );
    layer!("sim.stream_schedule_us_per_call", sim_stream_schedule_us_per_call(r));
    layer!("sim.interconnect_build_ms", sim_interconnect_build_ms(r));
    layer!("bench.timer_ns", bench_timer_ns(r));
    tracer.close(root);
    out
}
