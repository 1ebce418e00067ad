//! The iteration driver: HyTGraph's main loop (Fig. 5).
//!
//! Each iteration alternates the paper's two stages until the frontier
//! drains:
//!
//! 1. **Cost-aware task generation** — per-partition activity analysis,
//!    cost formulas (1)–(3), engine selection (Algorithm 1), task
//!    combination.
//! 2. **Asynchronous task scheduling** — contribution-driven priority
//!    ordering, real kernel execution (with the recompute-once pass over
//!    loaded data), and discrete-event pricing of the multi-stream
//!    timeline.
//!
//! The runner owns the correctness/timing split: *results* come from real
//! host-side kernels over exactly the edges each engine delivers; *times*
//! come from the simulator's makespan of the same task set.
//!
//! # Multi-device sharding
//!
//! With `config.num_devices > 1` the partitions are statically assigned to
//! `D` simulated GPUs (see [`hyt_graph::DevicePlan`]) and every combined
//! task is *sliced* by owning device: each device prices its slice with
//! its own engines (per-device unified-memory caches and Grus budgets of
//! `edge_budget / D`) and schedules it on its own streams, while all
//! devices contend for the configured [`Interconnect`]'s links and one
//! host compaction pool ([`MultiGpuSim`]). Between iterations a routed
//! all-gather publishes every device's newly-activated owned vertices
//! (id + 64-bit value) to the peers along each pair's cheapest path: a
//! direct NVLink-class peer link (`config.topology` ring / all-to-all,
//! optionally re-priced per link by `config.link_overrides`), a
//! forwarded device-via-device multi-hop path, or staging through the
//! host root complex; legs on disjoint direction queues overlap (each
//! direction of a peer link owns its own queue). The exchange further
//! hides under the next iteration's cost analysis instead of sitting
//! after the barrier; the window is sized per iteration from the span
//! that analysis actually takes ([`analysis_span`]).
//!
//! Kernels still execute in the *global* contribution-driven priority
//! order — the iteration barrier means device placement cannot change
//! what one synchronised iteration computes, so values and convergence
//! iteration are **bit-identical** for every device count *and* every
//! topology; only the timeline (and its per-device / per-link breakdown)
//! changes. The exception is opt-in: `contention_aware_selection`
//! deliberately changes engine choices with `D`. The differential suite
//! in `tests/multi_gpu.rs` holds the runner to those claims.

use crate::api::{InitialFrontier, ValueLayout, Values, VertexProgram};
use crate::combine::{combine_tasks_sized, CombinedTask};
use crate::config::{AsyncMode, HyTGraphConfig, ROUTE_LADDER};
use crate::kernel::{run_kernel, EdgeSource};
use crate::priority::order_tasks;
use crate::select::{select_engines_sharded_by, DeviceBudgets, SelectParams, Selection};
use crate::stats::{DeviceIterationStats, EngineMix, ExchangeStats, IterationStats, RunResult};
use hyt_engines::{
    analyze_one, analyze_partitions, compaction, filter, zero_copy, EngineKind, PartitionActivity,
    TaskPlan, UnifiedState,
};
use hyt_graph::placement::{plan_cost_driven, AffinityMatrix, PlacementPricer};
use hyt_graph::{
    hub_sort, AdjacencyView, Csr, DeltaCsr, DeviceAssignment, DevicePlan, EdgeOp, Frontier,
    GraphError, HubSortResult, MutationBatch, PartitionSet, VertexId,
};
use hyt_sim::{ExchangeReport, Interconnect, MultiGpuSim, SimTask, TransferCounters};
use std::collections::HashMap;

/// Per-iteration orchestration overhead (GPU-side cost analysis +
/// selection result copy-back + frontier bookkeeping), expressed as a
/// multiple of the explicit-copy launch latency so it scales with the
/// machine model.
pub const ITERATION_OVERHEAD_COPIES: f64 = 5.0;

/// The share of [`ITERATION_OVERHEAD_COPIES`] that is the next
/// iteration's *cost analysis* — the only overhead segment an exchange
/// can legally hide under (GPU-side bitmap scans over data disjoint from
/// the in-flight exchange records). The remaining copy is barrier
/// bookkeeping that *consumes* the exchange's published values, so it
/// can never overlap them. The full analysis span is only realised when
/// every partition is active; [`analysis_span`] scales it by the
/// fraction the analysis actually prices.
pub const ANALYSIS_SPAN_COPIES: f64 = 4.0;

/// The wall-clock span of one iteration's cost analysis, sized from what
/// that iteration actually does: the overlappable
/// [`ANALYSIS_SPAN_COPIES`] share of the orchestration overhead scaled
/// by the fraction of partitions the analysis prices (inactive
/// partitions fail the bitmap test immediately and cost ~nothing). This
/// is the measured window the previous iteration's exchange may hide
/// under.
pub fn analysis_span(copy_latency: f64, active_partitions: u32, total_partitions: u32) -> f64 {
    if total_partitions == 0 {
        return 0.0;
    }
    let frac = active_partitions.min(total_partitions) as f64 / total_partitions as f64;
    ANALYSIS_SPAN_COPIES * copy_latency * frac
}

/// Host (Galois-class) edge throughput for the CPU-only comparison rows.
pub const CPU_EDGE_THROUGHPUT: f64 = 1.5e9;

/// Host per-iteration overhead for the CPU-only rows.
pub const CPU_ITERATION_OVERHEAD: f64 = 100.0e-6;

/// GPU-resident vertex-associated bytes per vertex (value array, neighbour
/// index / row offsets, activity bitmaps) for the narrow single-lane
/// layout: carved out of device memory before edge data can be cached
/// (Section II-A's data placement). The live figure is the program's
/// [`ValueLayout::state_bytes`] — this constant is its value for one
/// 64-bit atom.
pub const VERTEX_STATE_BYTES: u64 = ValueLayout::narrow().state_bytes();

/// Bytes per record of the inter-device frontier exchange for the narrow
/// layout: a 32-bit vertex id plus the 64-bit value slot it carries. The
/// live figure is the program's [`ValueLayout::record_bytes`].
pub const EXCHANGE_RECORD_BYTES: u64 = ValueLayout::narrow().record_bytes();

/// Pay-off horizon of device-affine migration
/// ([`crate::config::HyTGraphConfig::affine_migration`]): a partition
/// moves only when its one-off bulk copy (priced over the routed
/// interconnect) is strictly cheaper than this many iterations of the
/// measured exchange savings the move buys. The feature targets
/// *resident* systems (the session service re-runs similar query shapes
/// against one build), so the horizon deliberately spans beyond a
/// single run's remaining iterations: the warm plan — and the copy that
/// bought it — keeps paying off across session runs.
pub const MIGRATION_HORIZON_ITERS: f64 = 32.0;

/// Iterations of activation observations the migration planner requires
/// before it trusts the measured re-activation rates at all (one hot
/// iteration is noise; a trend is a signal).
pub const MIGRATION_MIN_OBSERVATIONS: u32 = 3;

/// One applied device-affine migration (see
/// [`HyTGraphSystem::migrations`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigrationEvent {
    /// Partition that moved.
    pub partition: u32,
    /// Device it moved off.
    pub from: u32,
    /// Device that keeps activating it.
    pub to: u32,
    /// Priced one-off bulk-copy cost charged to the run that moved it.
    pub copy_cost: f64,
}

/// A configured system bound to one graph: construct once, run many
/// algorithms (hub sorting is a one-off preprocessing step, Section VI-A).
///
/// # Resident reuse contract
///
/// Back-to-back [`run`](Self::run) calls on one resident system are
/// **bit-identical** to runs on freshly-built systems: every piece of
/// algorithm state (values, frontier, unified-memory caches, Grus
/// residency, per-iteration stats) is created inside `run` and dropped
/// when it returns. The only state resident across runs is the immutable
/// build (graph, hub order, partitions, device plan, interconnect route
/// tables) plus two inert pieces of scratch kept warm deliberately: the
/// run-constant [`MultiGpuSim`] scheduler (cloning the interconnect's
/// dense route table per run was the expensive part) and the per-device
/// exchange publication sizes, which are zero-filled before every use.
/// Neither can leak one run's data into the next; `tests/resident.rs`
/// holds the system to this contract, and the session service
/// ([`crate::session`]) depends on it.
///
/// The one documented exception is opt-in: with
/// [`HyTGraphConfig::affine_migration`] on, the partition→device plan
/// (and the re-activation observations driving it) deliberately
/// persists and evolves across runs — a partition one run's trajectory
/// migrated stays migrated for the next, which is the point for
/// resident multi-tenant sessions. Values stay bit-identical either
/// way (placement cannot change what a synchronised iteration
/// computes); only the timeline moves, and `tests/resident.rs` holds
/// the differential claim.
pub struct HyTGraphSystem {
    graph: DeltaCsr,
    hub: Option<HubSortResult>,
    parts: PartitionSet,
    devices: DevicePlan,
    interconnect: Interconnect,
    /// Devices that own at least one partition — they share the host
    /// link, so they set the selection contention factor and are the
    /// exchange participants.
    shard_holders: Vec<bool>,
    /// Run-constant discrete-event scheduler, kept resident so repeat
    /// runs skip deep-cloning the interconnect (dense route table
    /// included). Scheduling is pure pricing: it holds no cross-run
    /// state.
    sim: MultiGpuSim,
    /// Per-device publication sizes of the frontier exchange: scratch
    /// reused across iterations *and* runs, zero-filled before every
    /// use (see `price_exchange`).
    exchange_owned: Vec<u64>,
    /// Pairwise expected-exchange matrix, kept when cost-driven
    /// placement or affine migration needs it (`None` on single-device
    /// builds, past [`hyt_graph::placement::AFFINITY_DENSE_CAP`], or
    /// when neither feature is on).
    affinity: Option<AffinityMatrix>,
    /// `warm_copies[p]` = the device a migration moved partition `p`
    /// *off*, whose edge cache still holds `p`'s data. Peer-served
    /// zero-copy (`config.peer_zc`) reads against that copy over the
    /// direct peer link when it prices below host staging.
    warm_copies: Vec<Option<u32>>,
    /// Per-partition newly-activated-vertex observations feeding the
    /// migration planner (reset after every applied migration).
    react_records: Vec<u64>,
    /// Iterations observed since the last migration (or build).
    observed_iters: u32,
    /// Applied migrations, in order, across all runs of this system.
    migration_log: Vec<MigrationEvent>,
    /// Per-shape, per-partition cached all-active sweep costs backing
    /// [`Self::price_full_sweep`]. Keyed like the session quote cache
    /// (`needs_weights`, value lanes, wire bytes); a slot is `None` when
    /// that partition's adjacency changed since it was last priced, so a
    /// mutation invalidates exactly the dirty partitions and a re-quote
    /// re-prices only those.
    sweep_cache: HashMap<(bool, u32, u64), Vec<Option<f64>>>,
    /// Partition slots re-priced by [`Self::price_full_sweep`] over the
    /// system's lifetime — the incremental-repricing observable the
    /// differential suites and `repro check` assert on.
    sweep_repriced: u64,
    config: HyTGraphConfig,
}

/// Pay-off horizon of delta compaction: the resident graph folds its
/// delta segments into a fresh base exactly when the priced per-sweep
/// overhead of carrying them (dead base slots still shipped, out-of-line
/// segment fetches) over this many iterations exceeds the priced one-off
/// fold. Mirrors [`MIGRATION_HORIZON_ITERS`]: the session service re-runs
/// query shapes against one resident build, so the fold keeps paying off
/// across runs.
pub const COMPACTION_HORIZON_ITERS: f64 = 32.0;

/// What applying one [`MutationBatch`] did to the resident system (see
/// [`HyTGraphSystem::apply_mutations`]).
#[derive(Clone, Debug, PartialEq)]
pub struct MutationReport {
    /// Ops applied (equals the batch length on success).
    pub applied: usize,
    /// Partitions whose adjacency changed, ascending. Exactly these had
    /// their cached sweep prices, warm peer copies, and migration
    /// observations invalidated; clean partitions keep their plan.
    pub dirty_partitions: Vec<u32>,
    /// The reactivation frontier in original-id order: every touched
    /// source plus the incident boundary vertices (the destinations
    /// whose in-adjacency changed), deduplicated.
    pub reactivated: Vec<VertexId>,
    /// Priced per-sweep overhead of carrying the post-batch delta
    /// segments (RTT units; 0 when the batch left no deltas).
    pub delta_surplus: f64,
    /// Priced one-off cost of folding the deltas into a fresh base.
    pub fold_cost: f64,
    /// Whether the batch tripped the compaction trigger:
    /// `delta_surplus × COMPACTION_HORIZON_ITERS > fold_cost`.
    pub compacted: bool,
}

/// Build the affinity matrix (when a priced feature wants it) and the
/// partition→device plan for `parts` over `working`. Shared by the
/// initial build and the post-compaction rebuild: compaction re-derives
/// placement from the folded base with exactly the construction-time
/// logic.
fn build_placement(
    config: &HyTGraphConfig,
    interconnect: &Interconnect,
    working: &Csr,
    parts: &PartitionSet,
    num_hubs: u32,
) -> (Option<AffinityMatrix>, DevicePlan) {
    let nd = config.num_devices.max(1) as u32;
    let wants_affinity = nd > 1
        && parts.len() <= hyt_graph::placement::AFFINITY_DENSE_CAP
        && (config.device_assignment == DeviceAssignment::CostDriven || config.affine_migration);
    let affinity =
        wants_affinity.then(|| AffinityMatrix::build(working, parts, EXCHANGE_RECORD_BYTES));
    let devices = match (config.device_assignment, affinity.as_ref()) {
        (DeviceAssignment::CostDriven, Some(aff)) => {
            // The planner lives below the simulator; the fabric
            // arrives as pricing closures over this interconnect.
            let exchange = |pubd: &[u64], holders: &[bool]| {
                interconnect.price_all_gather(pubd, holders).makespan
            };
            let compute = |edges: u64| config.machine.kernel.kernel_time(edges);
            let link = |src: u32, dst: u32, bytes: u64| interconnect.route_cost(src, dst, bytes);
            let pricer = PlacementPricer {
                exchange: &exchange,
                compute: &compute,
                link: &link,
                uniform: interconnect.is_uniform_fabric(),
            };
            plan_cost_driven(parts, nd, aff, &pricer)
        }
        // CostDriven past the dense cap (or at D = 1) degrades to its
        // documented edge-balanced fallback inside DevicePlan::build.
        (assignment, _) => DevicePlan::build(parts, nd, assignment, num_hubs),
    };
    (affinity, devices)
}

/// Which devices own at least one of the `num_parts` partitions.
fn shard_holders(devices: &DevicePlan, num_parts: usize) -> Vec<bool> {
    let mut holders = vec![false; devices.num_devices() as usize];
    for pid in 0..num_parts as u32 {
        holders[devices.device_of(pid) as usize] = true;
    }
    holders
}

/// Grus-like partition residency (unified-memory as a prefetch cache).
struct GrusState {
    /// Partition is (or is being) cached in device memory.
    resident: Vec<bool>,
    /// Partition's first migration has been priced already.
    charged: Vec<bool>,
    budget_left: u64,
}

impl HyTGraphSystem {
    /// Build a system over `graph`. When contribution scheduling is
    /// enabled the graph is hub-sorted here, once.
    pub fn new(graph: Csr, config: HyTGraphConfig) -> Self {
        let hub = if config.contribution_scheduling {
            Some(hub_sort::hub_sort_with_fraction(&graph, config.hub_fraction))
        } else {
            None
        };
        let working = hub.as_ref().map(|h| h.graph.clone()).unwrap_or_else(|| graph.clone());
        let parts = PartitionSet::build(&working, config.partition_bytes);
        let num_hubs = hub.as_ref().map_or(0, |h| h.num_hubs);
        let nd = config.num_devices.max(1) as u32;
        let mut interconnect = Interconnect::build(
            config.topology,
            nd as usize,
            config.machine.pcie,
            config.peer_link,
        );
        for &(a, b, spec) in &config.link_overrides {
            interconnect = interconnect.with_link_spec(a, b, spec);
        }
        let interconnect = interconnect.with_route_breakpoints(&ROUTE_LADDER);
        // The affinity matrix serves both priced features: cost-driven
        // initial placement and between-iteration affine migration. It is
        // estimated once, before any program runs, with the narrow
        // layout's exchange record — placement is program-agnostic, and
        // wider records scale every entry uniformly (the planner's
        // comparisons are invariant to that scale up to route-rung
        // boundaries).
        let (affinity, devices) =
            build_placement(&config, &interconnect, &working, &parts, num_hubs);
        let shard_holders = shard_holders(&devices, parts.len());
        let nd = devices.num_devices() as usize;
        let sim = MultiGpuSim::with_interconnect(nd, config.num_streams, interconnect.clone());
        HyTGraphSystem {
            graph: DeltaCsr::with_partitions(working, &parts),
            hub,
            warm_copies: vec![None; parts.len()],
            react_records: vec![0; parts.len()],
            observed_iters: 0,
            migration_log: Vec::new(),
            parts,
            devices,
            interconnect,
            shard_holders,
            sim,
            exchange_owned: vec![0u64; nd],
            affinity,
            sweep_cache: HashMap::new(),
            sweep_repriced: 0,
            config,
        }
    }

    /// The interconnect the devices contend on.
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.graph.num_vertices()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> u64 {
        self.graph.num_edges()
    }

    /// Bytes of host-resident edge data (Table VI's denominator).
    pub fn edge_bytes(&self) -> u64 {
        self.graph.edge_bytes()
    }

    /// Partition count at the configured budget.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// The partition→device assignment (static unless
    /// [`HyTGraphConfig::affine_migration`] moves partitions between
    /// iterations).
    pub fn device_plan(&self) -> &DevicePlan {
        &self.devices
    }

    /// Every device-affine migration this system has applied, in order,
    /// across all of its runs (empty unless
    /// [`HyTGraphConfig::affine_migration`] is on).
    pub fn migrations(&self) -> &[MigrationEvent] {
        &self.migration_log
    }

    /// The device still holding a warm copy of `pid`'s edge data after a
    /// migration moved the partition elsewhere (`None` for never-moved
    /// partitions).
    pub fn warm_copy_of(&self, pid: u32) -> Option<u32> {
        self.warm_copies.get(pid as usize).copied().flatten()
    }

    /// The active configuration.
    pub fn config(&self) -> &HyTGraphConfig {
        &self.config
    }

    /// Map an original vertex id to the working (hub-sorted) id space.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] when `v` is not a vertex of the
    /// resident graph: ids arrive from callers (mutation batches, query
    /// sources), and the hub permutation only covers `0..num_vertices`.
    pub(crate) fn to_working(&self, v: VertexId) -> Result<VertexId, GraphError> {
        let num_vertices = self.graph.num_vertices();
        if v >= num_vertices {
            return Err(GraphError::VertexOutOfRange { vertex: v, num_vertices });
        }
        Ok(self.hub.as_ref().map_or(v, |h| h.to_new(v)))
    }

    /// Run `program` to convergence and return values in original-id order
    /// plus the full statistics record.
    ///
    /// # Panics
    ///
    /// If the program seeds its initial frontier with a vertex outside
    /// the graph.
    pub fn run<P: VertexProgram>(&mut self, program: P) -> RunResult<P::Value> {
        let nv = self.graph.num_vertices();
        let hub = self.hub.as_ref();
        let values = Values::init_with(nv, |new| {
            let old = hub.map_or(new, |h| h.to_old(new));
            program.init(old)
        });
        let mut frontier = Frontier::new(nv);
        match program.initial_frontier() {
            InitialFrontier::All => {
                for v in 0..nv {
                    frontier.insert(v);
                }
            }
            InitialFrontier::Set(seeds) => {
                for v in seeds {
                    // hyt-lint: allow(unwrap-in-lib) -- a seed outside the graph is a bug in the VertexProgram, not input: the session service rejects out-of-range sources at submit
                    frontier.insert(self.to_working(v).expect("initial frontier seed in range"));
                }
            }
        }

        // Weight-blind programs only move the neighbour array (d1 = 4);
        // weight-reading programs move neighbours + weights.
        let bpe = self.effective_bytes_per_edge::<P>();
        // Every width-sensitive layer derives its per-vertex footprint
        // from the program's declared value layout (lanes resident, wire
        // bytes exchanged); narrow programs get [`VERTEX_STATE_BYTES`] and
        // [`EXCHANGE_RECORD_BYTES`].
        let layout = ValueLayout::of::<P::Value>();
        // Device memory left for edge data once vertex state is resident,
        // derated by the UM driver-headroom utilisation.
        let edge_budget =
            (self.config.machine.edge_budget.saturating_sub(nv as u64 * layout.state_bytes())
                as f64
                * self.config.machine.um_utilization) as u64;
        // One residency state per device: each simulated GPU caches edge
        // data out of its own memory carve (edge_budget / D).
        let budgets = DeviceBudgets::split(edge_budget, self.devices.num_devices() as usize);
        let mut um_states: Vec<UnifiedState> = (0..budgets.len())
            .map(|d| UnifiedState::with_budget(&self.config.machine, budgets.get(d)))
            .collect();
        let mut grus_states: Vec<GrusState> = (0..budgets.len())
            .map(|d| GrusState {
                resident: vec![false; self.parts.len()],
                charged: vec![false; self.parts.len()],
                budget_left: budgets.get(d),
            })
            .collect();
        let mut per_iteration: Vec<IterationStats> = Vec::new();
        // Resident scratch (see the struct-level reuse contract): taken
        // out of the struct for the run — the iteration body holds
        // `&self` — and put back before returning.
        let mut exchange_owned = std::mem::take(&mut self.exchange_owned);
        let mut total_counters = TransferCounters::new();
        let mut total_time = self.config.startup_edge_passes * (self.num_edges() * bpe) as f64
            / self.config.machine.compaction_bw;
        let mut iter = 0u32;

        while !frontier.is_empty() && iter < self.config.max_iterations {
            let stats = if self.config.selection == Selection::CpuOnly {
                self.run_iteration_cpu(&program, &values, &mut frontier, iter)
            } else {
                self.run_iteration_gpu(
                    &program,
                    &values,
                    &mut frontier,
                    iter,
                    bpe,
                    layout,
                    &mut um_states,
                    &mut grus_states,
                    &mut exchange_owned,
                    &self.sim,
                )
            };
            total_time += stats.time;
            total_counters.merge(&stats.counters);
            per_iteration.push(stats);
            // Measured overlap window: iteration i's exchange hides
            // under iteration i+1's analysis, whose span is only known
            // once i+1 has run its activity analysis. Patch the
            // predecessor's record now that it is. An exchange with no
            // successor iteration is never patched and stays fully
            // exposed — both run endings (frontier drain and the
            // max_iterations cap) leave the last record's hidden at 0
            // by construction.
            if let [.., prev, cur] = per_iteration.as_mut_slice() {
                let window = analysis_span(
                    self.config.machine.pcie.copy_latency,
                    cur.active_partitions,
                    cur.total_partitions,
                );
                let hidden = prev.exchange.time.min(window);
                prev.exchange.hidden = hidden;
                prev.time -= hidden;
                total_time -= hidden;
            }
            // Device-affine migration: between iterations (the only
            // point where no iteration state is in flight) move at most
            // one partition to the device that keeps activating it,
            // strictly-improvement-only against the priced one-off bulk
            // copy. The copy is charged to this run's clock; the values
            // are untouched by construction (placement invisibility).
            if self.config.affine_migration && self.config.selection != Selection::CpuOnly {
                total_time += self.maybe_migrate(&frontier, bpe, layout);
            }
            if P::OBSERVES_ITERATIONS {
                // Trajectory observers see every executed iteration's
                // converged state in original-id order (including the
                // final iteration, which activates nobody).
                let snap = values.snapshot();
                match self.hub.as_ref() {
                    Some(h) => program.observe_iteration(iter, &h.values_to_old_order(&snap)),
                    None => program.observe_iteration(iter, &snap),
                }
            }
            iter += 1;
        }

        self.exchange_owned = exchange_owned;
        let snapshot = values.snapshot();
        let values = match self.hub.as_ref() {
            Some(h) => h.values_to_old_order(&snapshot),
            None => snapshot,
        };
        RunResult {
            values,
            iterations: iter,
            total_time,
            per_iteration,
            counters: total_counters,
            value_layout: layout,
        }
    }

    /// Edge-data bytes per edge the program actually transfers.
    pub fn effective_bytes_per_edge<P: VertexProgram>(&self) -> u64 {
        if P::NEEDS_WEIGHTS {
            self.graph.bytes_per_edge()
        } else {
            hyt_graph::NEIGHBOR_BYTES
        }
    }

    /// Edge-data volume the program would move shipping the graph once
    /// (Table VI's denominator).
    pub fn effective_edge_bytes<P: VertexProgram>(&self) -> u64 {
        self.num_edges() * self.effective_bytes_per_edge::<P>()
    }

    /// Price one **all-active sweep** of the resident graph in RTT units:
    /// the sum over partitions of `min(Tef, Tec, Tiz)` from cost
    /// formulas (1)–(3) ([`crate::cost::partition_costs_sized`]), for a
    /// program with the given weight need and value layout. This is the
    /// upper envelope of what one iteration can cost the transfer
    /// engines — real frontiers are subsets of all-active, and every
    /// formula is monotone in the active set — which makes it the
    /// admission currency of the session service: a worst-case
    /// per-iteration quote that needs no knowledge of the query's actual
    /// trajectory. Pure pricing over the static partition structure; no
    /// run state is touched.
    pub fn price_full_sweep(&mut self, needs_weights: bool, layout: ValueLayout) -> f64 {
        let bpe =
            if needs_weights { self.graph.bytes_per_edge() } else { hyt_graph::NEIGHBOR_BYTES };
        let pcie = &self.config.machine.pcie;
        let key = (needs_weights, layout.lanes, layout.wire_bytes);
        let n = self.parts.len();
        let slots = self.sweep_cache.entry(key).or_insert_with(|| vec![None; n]);
        // Lazily built all-active frontier: a fully-cached sweep (the
        // steady state between mutations) never materialises it.
        let mut frontier: Option<Frontier> = None;
        let mut repriced = 0u64;
        let mut total = 0.0;
        for pid in 0..n as u32 {
            if slots[pid as usize].is_none() {
                let f = frontier.get_or_insert_with(|| {
                    let f = Frontier::new(self.graph.num_vertices());
                    for v in 0..self.graph.num_vertices() {
                        f.insert(v);
                    }
                    f
                });
                let a = analyze_one(self.graph.view(), &self.parts, f, pcie, bpe, pid);
                let c =
                    crate::cost::partition_costs_sized(&a, pcie, bpe, layout.compaction_surplus());
                slots[pid as usize] = Some(c.tef.min(c.tec).min(c.tiz));
                repriced += 1;
            }
            if let Some(c) = slots[pid as usize] {
                total += c;
            }
        }
        self.sweep_repriced += repriced;
        total
    }

    /// Partition slots [`Self::price_full_sweep`] has re-priced over this
    /// system's lifetime. A fresh shape prices every partition once; after
    /// a mutation, only the dirty partitions are re-priced — so the
    /// counter's growth is the incremental-repricing observable.
    pub fn sweep_repriced(&self) -> u64 {
        self.sweep_repriced
    }

    /// The resident graph, base plus delta segments.
    pub fn graph(&self) -> &DeltaCsr {
        &self.graph
    }

    /// Priced per-sweep overhead of carrying the current delta segments,
    /// in the same RTT currency as [`Self::price_full_sweep`]: tombstoned
    /// base slots (and garbage insert slots) still ship with every
    /// explicit partition copy, and each delta-carrying partition pays one
    /// extra out-of-line segment fetch per sweep. Zero on a freshly-built
    /// or freshly-compacted system. This is the session service's
    /// delta-surplus quote term.
    pub fn delta_surplus(&self) -> f64 {
        let pcie = &self.config.machine.pcie;
        let bpe = self.graph.bytes_per_edge();
        let mut surplus = 0.0;
        for pid in self.graph.delta_partitions() {
            let dead = (self.graph.dead_base_edges(pid) + self.graph.garbage_edges(pid)) * bpe;
            surplus += pcie.explicit_copy_time(dead) + pcie.copy_latency;
        }
        surplus
    }

    /// Priced one-off cost of folding the delta segments into a fresh
    /// base: one read of the old base and the segments plus one write of
    /// the live edge set, at the host compaction pool's bandwidth (the
    /// same currency as the startup edge passes). Zero when no deltas
    /// exist.
    pub fn fold_cost(&self) -> f64 {
        if self.graph.delta_partitions().is_empty() {
            return 0.0;
        }
        let bpe = self.graph.bytes_per_edge();
        let read = self.graph.base().num_edges() + self.graph.inserted_edges();
        let write = self.graph.num_edges();
        ((read + write) * bpe) as f64 / self.config.machine.compaction_bw
    }

    /// Apply one batch of edge mutations to the resident graph and
    /// invalidate exactly what it touched.
    ///
    /// Ops arrive in **original** vertex ids and are applied in batch
    /// order to the working (hub-sorted) id space — the hub permutation
    /// is fixed at build time and never re-derived. After the batch:
    ///
    /// * partitions whose adjacency changed are marked dirty: their
    ///   cached sweep prices ([`Self::price_full_sweep`]), warm peer
    ///   copies, and migration observations are dropped, while clean
    ///   partitions keep their plan, placement, and prices;
    /// * the reactivation frontier — touched sources plus incident
    ///   boundary destinations — is computed through the frontier
    ///   machinery and reported in original ids;
    /// * the compaction trigger is evaluated: when the priced per-sweep
    ///   delta overhead over [`COMPACTION_HORIZON_ITERS`] exceeds the
    ///   priced fold, the deltas fold into a fresh base and partitions,
    ///   placement, and affinity are rebuilt from it (hub order stays).
    ///
    /// # Errors
    ///
    /// The typed [`GraphError`] of the first failing op. Ops before it
    /// remain applied (mirroring [`DeltaCsr::apply`]); the invalidation
    /// above still covers exactly that applied prefix, so the system
    /// stays consistent with the partially-mutated graph.
    pub fn apply_mutations(&mut self, batch: &MutationBatch) -> Result<MutationReport, GraphError> {
        // Working-id endpoints of each applied op, in batch order.
        let mut touched: Vec<[VertexId; 2]> = Vec::with_capacity(batch.ops().len());
        let mut failure: Option<GraphError> = None;
        for op in batch.ops() {
            match self.apply_op(op) {
                Ok(ends) => touched.push(ends),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        let mut dirty = self.graph.take_dirty();
        dirty.sort_unstable();
        for &pid in &dirty {
            for slots in self.sweep_cache.values_mut() {
                slots[pid as usize] = None;
            }
            // The warm copy predates the mutation: serving zero-copy
            // reads from it would read the old adjacency.
            self.warm_copies[pid as usize] = None;
            // Old activations described the old adjacency; the migration
            // planner starts over for this partition.
            self.react_records[pid as usize] = 0;
        }
        if let Some(e) = failure {
            return Err(e);
        }
        // Reactivation frontier (working ids, deduplicated by the bitmap),
        // reported back in original ids.
        let frontier = Frontier::new(self.graph.num_vertices());
        for &[s, d] in &touched {
            frontier.insert(s);
            frontier.insert(d);
        }
        let mut reactivated: Vec<VertexId> =
            frontier.iter().map(|v| self.hub.as_ref().map_or(v, |h| h.to_old(v))).collect();
        reactivated.sort_unstable();
        let delta_surplus = self.delta_surplus();
        let fold_cost = self.fold_cost();
        let compacted = delta_surplus * COMPACTION_HORIZON_ITERS > fold_cost;
        if compacted {
            self.compact_now();
        }
        Ok(MutationReport {
            applied: touched.len(),
            dirty_partitions: dirty,
            reactivated,
            delta_surplus,
            fold_cost,
            compacted,
        })
    }

    /// Apply one op (original ids) to the working-id graph, returning its
    /// working-id endpoints.
    fn apply_op(&mut self, op: &EdgeOp) -> Result<[VertexId; 2], GraphError> {
        let (s, d) = (self.to_working(op.src())?, self.to_working(op.dst())?);
        match *op {
            EdgeOp::Insert { weight, .. } => self.graph.insert(s, d, weight)?,
            EdgeOp::Delete { .. } => self.graph.delete(s, d)?,
        }
        Ok([s, d])
    }

    /// Fold the delta segments into a fresh base and rebuild everything
    /// the partition structure feeds: partitions, affinity, the
    /// partition→device plan, shard holders, warm copies, and migration
    /// observations. The hub permutation, interconnect, route tables, and
    /// the resident scheduler are untouched — they do not depend on the
    /// edge set. The sweep cache clears wholesale: partition boundaries
    /// moved, so no per-partition price survives.
    fn compact_now(&mut self) {
        let new_base = self.graph.compact();
        let parts = PartitionSet::build(&new_base, self.config.partition_bytes);
        let num_hubs = self.hub.as_ref().map_or(0, |h| h.num_hubs);
        let (affinity, devices) =
            build_placement(&self.config, &self.interconnect, &new_base, &parts, num_hubs);
        self.graph = DeltaCsr::with_partitions(new_base, &parts);
        self.parts = parts;
        self.affinity = affinity;
        self.devices = devices;
        self.shard_holders = shard_holders(&self.devices, self.parts.len());
        self.warm_copies = vec![None; self.parts.len()];
        self.react_records = vec![0; self.parts.len()];
        self.observed_iters = 0;
        self.sweep_cache.clear();
    }

    /// One iteration on the simulated GPU platform (1..D devices).
    ///
    /// Kernels run in the global priority order regardless of `D` — the
    /// per-iteration barrier makes placement invisible to the computed
    /// values — while pricing slices every combined task by owning device
    /// and plays the slices on per-device timelines behind the shared bus.
    #[allow(clippy::too_many_arguments)]
    fn run_iteration_gpu<P: VertexProgram>(
        &self,
        program: &P,
        values: &Values<P::Value>,
        frontier: &mut Frontier,
        iteration: u32,
        bpe: u64,
        layout: ValueLayout,
        um_states: &mut [UnifiedState],
        grus_states: &mut [GrusState],
        exchange_owned: &mut [u64],
        sim: &MultiGpuSim,
    ) -> IterationStats {
        let cfg = &self.config;
        let machine = &cfg.machine;
        let devices = &self.devices;
        let nd = devices.num_devices() as usize;
        let snapshot = match cfg.async_mode {
            AsyncMode::Sync => Some(values.snapshot()),
            AsyncMode::Async { .. } => None,
        };
        let recompute_rounds = match cfg.async_mode {
            AsyncMode::Sync => 0,
            AsyncMode::Async { recompute } => recompute,
        };

        // --- Stage 1: cost-aware task generation (per device). ---
        let acts = analyze_partitions(
            self.graph.view(),
            &self.parts,
            frontier,
            &machine.pcie,
            bpe,
            cfg.threads,
        );
        // Opt-in contention awareness: Algorithm 1 priced the bus as if a
        // device owned it exclusively; with the flag on, the selector
        // sees the cost shift caused by the shard-holders sharing the
        // host link.
        let mut select_params = if cfg.contention_aware_selection {
            let holders = self.shard_holders.iter().filter(|&&h| h).count();
            cfg.select_params.with_contention(holders as f64, machine.pcie.gamma)
        } else {
            cfg.select_params
        };
        // Wide values make compaction's gather ship real value payload
        // per active vertex; the selector must price that freight
        // (exact no-op for ≤ 8-byte values).
        select_params.value_surplus = layout.compaction_surplus();
        let decisions =
            match cfg.selection {
                Selection::GrusLike => grus_select(&acts, &self.parts, devices, grus_states, bpe),
                // Peer-served zero-copy enters Algorithm 1 as one more rung:
                // partitions whose warm peer copy can feed their on-demand
                // reads see Tiz scaled by the peer link's advantage. With
                // `peer_zc` off (or no warm copies yet) the closure is
                // constant and selection is bit-identical to the plain
                // sharded pass.
                sel => select_engines_sharded_by(&acts, devices, &machine.pcie, bpe, sel, |pid| {
                    match self.peer_zc_scale_of(pid) {
                        Some(scale) => SelectParams { peer_zc_scale: scale, ..select_params },
                        None => select_params,
                    }
                }),
            };
        let mut mix = EngineMix::default();
        let mut dev_mix = vec![EngineMix::default(); nd];
        for &(i, kind) in &decisions {
            mix.add(kind, 1);
            dev_mix[devices.device_of(acts[i].partition) as usize].add(kind, 1);
        }
        let mut tasks =
            combine_tasks_sized(&decisions, cfg.combine_k, cfg.task_combining, layout.lane_bytes());
        order_tasks(&mut tasks, &acts, program, values, cfg.contribution_scheduling);

        // --- Stage 2: execution + pricing. ---
        let next = Frontier::new(self.graph.num_vertices());
        let mut dev_tasks: Vec<Vec<SimTask>> = vec![Vec::new(); nd];
        let mut counters = TransferCounters::new();
        let mut peer_zc_total = 0u64;
        for task in &tasks {
            let refs: Vec<&PartitionActivity> = task.members.iter().map(|&i| &acts[i]).collect();

            // Slice the task's members by owning device (ascending device
            // id, members keeping their order within a slice).
            let mut slices: Vec<(u32, Vec<&PartitionActivity>)> = Vec::new();
            for a in &refs {
                let dev = devices.device_of(a.partition);
                match slices.iter_mut().find(|(d, _)| *d == dev) {
                    Some((_, v)) => v.push(a),
                    None => slices.push((dev, vec![a])),
                }
            }
            slices.sort_by_key(|&(d, _)| d);

            // Price each device's slice with that device's engine state.
            let mut plans: Vec<(u32, TaskPlan)> = slices
                .iter()
                .map(|(dev, srefs)| {
                    let d = *dev as usize;
                    let plan = match task.kind {
                        EngineKind::ExpFilter => {
                            filter::plan_filter(machine, self.graph.view(), srefs, bpe)
                        }
                        EngineKind::ExpCompaction => compaction::price_compaction_sized(
                            machine,
                            srefs,
                            bpe,
                            layout.compaction_surplus(),
                        ),
                        EngineKind::ImpZeroCopy => {
                            let (mut p, peer_bytes) =
                                self.plan_zero_copy_peer_aware(machine, srefs);
                            peer_zc_total += peer_bytes;
                            if cfg.selection == Selection::GrusLike {
                                // Grus predates EMOGI's merged-and-aligned
                                // warp access; its zero-copy path issues
                                // ~64-byte requests, doubling TLP traffic
                                // (Fig. 3(e)).
                                p.transfer_time *= 2.0;
                                p.counters.zero_copy_bytes *= 2;
                                p.counters.tlps *= 2;
                            }
                            p
                        }
                        EngineKind::ImpUnified => match cfg.selection {
                            Selection::GrusLike => plan_grus_um(
                                machine,
                                self.graph.view(),
                                &self.parts,
                                srefs,
                                bpe,
                                &mut grus_states[d],
                            ),
                            _ => um_states[d].plan_unified(machine, self.graph.view(), srefs, bpe),
                        },
                    };
                    (*dev, plan)
                })
                .collect();

            // Real kernel over exactly the delivered edges, one launch per
            // combined task (identical to the single-device run: same
            // member order, same gather, same edge source).
            let active_all: Vec<VertexId> =
                refs.iter().flat_map(|a| a.active_vertices.iter().copied()).collect();
            let compacted = (task.kind == EngineKind::ExpCompaction)
                .then(|| compaction::compact(self.graph.view(), &active_all, cfg.threads));
            let source = match compacted.as_ref() {
                Some(c) => EdgeSource::Compacted(c),
                None => EdgeSource::Graph(self.graph.view()),
            };
            run_kernel(
                program,
                source,
                &active_all,
                values,
                &next,
                snapshot.as_deref(),
                cfg.threads,
            );

            // Recompute pass(es) over loaded data (Section VI-A: HyTGraph
            // reprocesses the loaded subgraph exactly once; Subway loops).
            for _ in 0..recompute_rounds {
                let eligible = self.collect_recompute(&next, task, &acts, &active_all);
                if eligible.is_empty() {
                    break;
                }
                for &v in &eligible {
                    next.remove(v);
                }
                run_kernel(
                    program,
                    EdgeSource::Graph(self.graph.view()),
                    &eligible,
                    values,
                    &next,
                    None,
                    cfg.threads,
                );
                self.charge_recompute(&eligible, task.kind, bpe, &mut plans);
            }

            for (dev, plan) in &plans {
                counters.merge(&plan.counters);
                dev_tasks[*dev as usize].push(plan.to_sim_task_for_device(*dev));
            }
        }

        // Each device's slice list inherits the global priority order
        // restricted to that device — per-device priority ordering for
        // free. Play them against the interconnect's contention queues.
        let timeline = sim.schedule(&dev_tasks);
        let exchange_report = self.price_exchange(&next, exchange_owned, layout.record_bytes());
        counters.exchange_bytes += exchange_report.payload_bytes;
        // The exchange hides under the next iteration's cost analysis:
        // only the residual stays on the critical path. The overlap is
        // legal on both axes: the data is disjoint (last iteration's
        // published values vs the freshly-drained frontier's activity
        // scan), and the resources are too — the analysis overhead is
        // GPU-side bitmap work plus launch/driver latency (it is
        // *scaled by* the copy latency, not DMA occupancy of the bus),
        // so exchange legs keep their exclusive link queues while it
        // runs. The successor's analysis span is unknown until that
        // analysis runs, so the exchange is recorded fully exposed here
        // (`hidden` = 0) and the driver patches it once the successor
        // has sized the window.
        let analysis_time = ITERATION_OVERHEAD_COPIES * machine.pcie.copy_latency;
        let exchange =
            ExchangeStats { peer_zc_bytes: peer_zc_total, ..ExchangeStats::from(&exchange_report) };

        let per_device: Vec<DeviceIterationStats> = (0..nd)
            .map(|d| DeviceIterationStats {
                device: d as u32,
                tasks: dev_tasks[d].len() as u32,
                mix: dev_mix[d],
                time: timeline.per_device[d].makespan,
                transfer_time: timeline.per_device[d].pcie_busy,
                compute_time: timeline.per_device[d].gpu_busy,
            })
            .collect();
        let active_vertices: u64 = acts.iter().map(|a| a.active_vertices.len() as u64).sum();
        let active_edges: u64 = acts.iter().map(|a| a.active_edges).sum();
        let stats = IterationStats {
            iteration,
            active_vertices,
            active_edges,
            active_partitions: decisions.len() as u32,
            total_partitions: self.parts.len() as u32,
            mix,
            tasks: dev_tasks.iter().map(Vec::len).sum::<usize>() as u32,
            time: timeline.makespan + exchange.time + analysis_time,
            transfer_time: timeline.bus_busy + exchange.host_time + exchange.peer_time,
            compute_time: timeline.gpu_busy_total(),
            compaction_time: timeline.cpu_busy,
            exchange,
            per_device,
            counters,
        };
        let mut drained = Frontier::new(self.graph.num_vertices());
        drained.copy_from(&next);
        frontier.swap(&mut drained);
        stats
    }

    /// Price the end-of-iteration all-gather (D > 1 only): each device
    /// publishes the `(id, value)` records of its newly-activated owned
    /// vertices and receives every other shard-holder's batch, routed
    /// over the configured interconnect on each pair's cheapest path *at
    /// its batch size* — a direct peer link, a forwarded multi-hop peer
    /// path (pipelined when every hop advertises a cut-through chunk), or
    /// staging through the host root complex — with legs queueing per
    /// direction queue ([`Interconnect::price_all_gather`]). With
    /// `config.load_aware_exchange` a second pass re-routes or splits
    /// batches off the busiest queue whenever that strictly lowers the
    /// priced makespan
    /// ([`Interconnect::price_all_gather_load_aware`]).
    ///
    /// Only devices that own a shard participate: a spare device with no
    /// partitions computes nothing, so it neither publishes nor
    /// subscribes (otherwise idle devices would inflate the exchange
    /// linearly when D exceeds the partition count). `owned` is
    /// caller-provided scratch (one slot per device), reused across
    /// iterations. `record_bytes` is the program's
    /// [`ValueLayout::record_bytes`] — id plus declared wire payload —
    /// so 4-byte values price smaller batches than 8-byte ones and
    /// 64-byte sketches price larger ones (which can move a batch onto
    /// a different route rung of the breakpoint ladder).
    fn price_exchange(
        &self,
        next: &Frontier,
        owned: &mut [u64],
        record_bytes: u64,
    ) -> ExchangeReport {
        let nd = self.devices.num_devices() as usize;
        if nd <= 1 {
            return ExchangeReport::default();
        }
        owned.fill(0);
        for v in next.iter() {
            owned[self.devices.device_of(self.parts.owner_of(v)) as usize] += record_bytes;
        }
        if self.config.load_aware_exchange {
            self.interconnect.price_all_gather_load_aware(owned, &self.shard_holders)
        } else {
            self.interconnect.price_all_gather(owned, &self.shard_holders)
        }
    }

    /// The Tiz scale factor partition `pid` earns from a warm peer copy,
    /// or `None` when its zero-copy reads must host-stage as usual:
    /// peer-served zero-copy is off, the partition never migrated, it
    /// migrated back onto its warm copy's device, or the peer link does
    /// not actually price below the host path
    /// ([`Interconnect::peer_read_scale`]).
    fn peer_zc_scale_of(&self, pid: u32) -> Option<f64> {
        if !self.config.peer_zc {
            return None;
        }
        let holder = self.warm_copies.get(pid as usize).copied().flatten()?;
        let reader = self.devices.device_of(pid);
        if reader == holder {
            return None;
        }
        self.interconnect.peer_read_scale(reader, holder)
    }

    /// Price a zero-copy slice with warm peer copies in play
    /// (`config.peer_zc`): the merged launch's kernel time and transfer
    /// counters are unchanged — it is still one kernel reading the same
    /// request bytes — but the read path is re-priced per stream. The
    /// host-staged partitions pool their TLP windows as before; each
    /// peer-served partition prices its own stream and scales it by its
    /// link's advantage over host staging (pricing the streams
    /// separately is conservative: fewer requests pool per window).
    /// Returns the plan and the request bytes that bypassed the host.
    fn plan_zero_copy_peer_aware(
        &self,
        machine: &hyt_sim::MachineModel,
        srefs: &[&PartitionActivity],
    ) -> (TaskPlan, u64) {
        let mut plan = zero_copy::plan_zero_copy(machine, srefs);
        if !self.config.peer_zc {
            return (plan, 0);
        }
        let mut host: Vec<&PartitionActivity> = Vec::new();
        let mut peer: Vec<(&PartitionActivity, f64)> = Vec::new();
        for a in srefs {
            match self.peer_zc_scale_of(a.partition) {
                Some(scale) => peer.push((a, scale)),
                None => host.push(a),
            }
        }
        if peer.is_empty() {
            return (plan, 0);
        }
        let mut transfer = 0.0;
        if !host.is_empty() {
            transfer += zero_copy::plan_zero_copy(machine, &host).transfer_time;
        }
        let mut peer_bytes = 0u64;
        for (a, scale) in &peer {
            let single = zero_copy::plan_zero_copy(machine, std::slice::from_ref(a));
            transfer += single.transfer_time * scale;
            peer_bytes += single.counters.zero_copy_bytes;
        }
        plan.transfer_time = transfer;
        (plan, peer_bytes)
    }

    /// Device-affine migration (one decision per iteration): observe
    /// which partitions the drained iteration re-activated, and once
    /// [`MIGRATION_MIN_OBSERVATIONS`] iterations of evidence exist, move
    /// the single partition whose priced exchange savings over
    /// [`MIGRATION_HORIZON_ITERS`] iterations most exceed its one-off
    /// bulk-copy cost — strictly-improvement-only; ties keep the status
    /// quo. Returns the copy cost charged to the run (0.0 when nothing
    /// moves).
    ///
    /// The savings estimate prices the affinity coupling a move stops
    /// (or starts) sending across the fabric, scaled by the partition's
    /// *measured* re-activation rate so a statically-chatty but
    /// dynamically-quiet partition never pays for a copy it won't
    /// amortise.
    fn maybe_migrate(&mut self, next: &Frontier, bpe: u64, layout: ValueLayout) -> f64 {
        let nd = self.devices.num_devices();
        if nd <= 1 {
            return 0.0;
        }
        let Some(affinity) = self.affinity.as_ref() else {
            return 0.0;
        };
        self.observed_iters += 1;
        for v in next.iter() {
            self.react_records[self.parts.owner_of(v) as usize] += 1;
        }
        if self.observed_iters < MIGRATION_MIN_OBSERVATIONS {
            return 0.0;
        }
        // Static coupling is estimated with the narrow record; rescale to
        // the running program's wire record so the savings and the copy
        // are priced in the same currency.
        let rb_ratio = layout.record_bytes() as f64 / EXCHANGE_RECORD_BYTES as f64;
        let route = |src: u32, dst: u32, bytes: f64| {
            if src == dst || bytes <= 0.0 {
                0.0
            } else {
                self.interconnect.route_cost(src, dst, bytes as u64)
            }
        };
        let mut best: Option<(f64, u32, u32, f64)> = None; // (net, pid, to, copy_cost)
        for pid in 0..self.parts.len() as u32 {
            if self.react_records[pid as usize] == 0 {
                continue;
            }
            let here = self.devices.device_of(pid);
            // Per-device coupling of `pid` under the current plan, and
            // the cross-fabric cost of hosting `pid` on each candidate.
            let coupling: Vec<u64> =
                (0..nd).map(|e| affinity.device_coupling(pid, e, &self.devices)).collect();
            let cost_at = |x: u32| -> f64 {
                (0..nd)
                    .filter(|&f| f != x)
                    .map(|f| route(x, f, coupling[f as usize] as f64 * rb_ratio))
                    .sum()
            };
            let cost_here = cost_at(here);
            // Measured re-activation rate: observed publication records
            // per iteration over the all-active expectation.
            let expected = (affinity.pub_bytes(pid) / EXCHANGE_RECORD_BYTES).max(1) as f64;
            let rate = (self.react_records[pid as usize] as f64
                / (self.observed_iters as f64 * expected))
                .min(1.0);
            for to in 0..nd {
                if to == here {
                    continue;
                }
                let saving = (cost_here - cost_at(to)) * rate;
                if saving <= 0.0 {
                    continue;
                }
                let part = self.parts.get(pid);
                let bulk =
                    part.num_edges() * bpe + part.num_vertices() as u64 * layout.state_bytes();
                let copy_cost = route(here, to, bulk as f64);
                let net = saving * MIGRATION_HORIZON_ITERS - copy_cost;
                if net > 0.0 && best.is_none_or(|(b, ..)| net > b) {
                    best = Some((net, pid, to, copy_cost));
                }
            }
        }
        let Some((_, pid, to, copy_cost)) = best else {
            return 0.0;
        };
        let from = self.devices.device_of(pid);
        self.devices.reassign(pid, self.parts.get(pid).num_edges(), to);
        self.warm_copies[pid as usize] = Some(from);
        self.shard_holders = shard_holders(&self.devices, self.parts.len());
        self.migration_log.push(MigrationEvent { partition: pid, from, to, copy_cost });
        // Fresh evidence for the next decision: the plan just changed, so
        // the old observations no longer describe it.
        self.react_records.fill(0);
        self.observed_iters = 0;
        copy_cost
    }

    /// Newly-activated vertices that the already-loaded task data can
    /// serve: whole partition ranges for filter/UM/ZC; the originally
    /// gathered vertex set for compaction (only their runs were shipped).
    fn collect_recompute(
        &self,
        next: &Frontier,
        task: &CombinedTask,
        acts: &[PartitionActivity],
        active_all: &[VertexId],
    ) -> Vec<VertexId> {
        match task.kind {
            EngineKind::ExpCompaction => {
                active_all.iter().copied().filter(|&v| next.contains(v)).collect()
            }
            _ => {
                let mut out = Vec::new();
                for &i in &task.members {
                    let p = self.parts.get(acts[i].partition);
                    out.extend(next.iter_range(p.first_vertex, p.end_vertex));
                }
                out
            }
        }
    }

    /// Price the recompute pass, attributing each vertex's share to the
    /// device slice that loaded its partition: an extra kernel launch per
    /// participating device; zero-copy also pays the bus again (its reads
    /// are never resident).
    fn charge_recompute(
        &self,
        eligible: &[VertexId],
        kind: EngineKind,
        bpe: u64,
        plans: &mut [(u32, TaskPlan)],
    ) {
        let machine = &self.config.machine;
        for (dev, plan) in plans.iter_mut() {
            let mine = eligible
                .iter()
                .copied()
                .filter(|&v| self.devices.device_of(self.parts.owner_of(v)) == *dev);
            let mut edges = 0u64;
            let mut requests = 0u64;
            let mut any = false;
            for v in mine {
                any = true;
                let deg = self.graph.out_degree(v);
                edges += deg;
                if kind == EngineKind::ImpZeroCopy {
                    let start = self.graph.edge_offset(v) * bpe;
                    requests += machine.pcie.requests_for_span(start, deg * bpe);
                }
            }
            if !any {
                continue;
            }
            plan.kernel_time += machine.kernel.kernel_time(edges);
            plan.counters.kernel_edges += edges;
            plan.counters.kernel_launches += 1;
            if kind == EngineKind::ImpZeroCopy {
                let tlps = machine.pcie.zero_copy_tlps(requests);
                plan.transfer_time += tlps as f64 * machine.pcie.rtt_zc(1.0);
                plan.counters.zero_copy_bytes += requests * machine.pcie.request_bytes;
                plan.counters.tlps += tlps;
            }
        }
    }

    /// One iteration of the CPU-only (Galois-class) comparison system:
    /// no transfers, host edge throughput, synchronous semantics.
    fn run_iteration_cpu<P: VertexProgram>(
        &self,
        program: &P,
        values: &Values<P::Value>,
        frontier: &mut Frontier,
        iteration: u32,
    ) -> IterationStats {
        let active: Vec<VertexId> = frontier.to_vec();
        let active_edges: u64 = active.iter().map(|&v| self.graph.out_degree(v)).sum();
        let snapshot = values.snapshot();
        let next = Frontier::new(self.graph.num_vertices());
        run_kernel(
            program,
            EdgeSource::Graph(self.graph.view()),
            &active,
            values,
            &next,
            Some(&snapshot),
            self.config.threads,
        );
        let time = active_edges as f64 / CPU_EDGE_THROUGHPUT + CPU_ITERATION_OVERHEAD;
        let stats = IterationStats {
            iteration,
            active_vertices: active.len() as u64,
            active_edges,
            active_partitions: 0,
            total_partitions: self.parts.len() as u32,
            mix: EngineMix::default(),
            tasks: 0,
            time,
            transfer_time: 0.0,
            compute_time: time,
            compaction_time: 0.0,
            exchange: ExchangeStats::default(),
            per_device: Vec::new(),
            counters: TransferCounters { kernel_edges: active_edges, ..Default::default() },
        };
        let mut drained = Frontier::new(self.graph.num_vertices());
        drained.copy_from(&next);
        frontier.swap(&mut drained);
        stats
    }
}

/// Grus's policy, per device: resident partitions are unified-memory hits;
/// while the owning device's budget remains, migrate (and pin) whole
/// partitions through UM; afterwards fall back to zero-copy. Each device
/// tracks its own residency and budget (single-device runs see exactly
/// the original global behaviour).
fn grus_select(
    acts: &[PartitionActivity],
    parts: &PartitionSet,
    devices: &DevicePlan,
    states: &mut [GrusState],
    bytes_per_edge: u64,
) -> Vec<(usize, EngineKind)> {
    acts.iter()
        .enumerate()
        .filter(|(_, a)| a.is_active())
        .map(|(i, a)| {
            let pid = a.partition as usize;
            let grus = &mut states[devices.device_of(a.partition) as usize];
            if grus.resident[pid] {
                (i, EngineKind::ImpUnified)
            } else {
                let bytes = parts.get(a.partition).num_edges() * bytes_per_edge;
                if bytes <= grus.budget_left {
                    grus.budget_left -= bytes;
                    grus.resident[pid] = true;
                    (i, EngineKind::ImpUnified)
                } else {
                    (i, EngineKind::ImpZeroCopy)
                }
            }
        })
        .collect()
}

/// Price a Grus unified-memory task: member partitions pay their whole
/// span's page migration exactly once (the prefetch-and-pin), after which
/// accesses are device-local and free.
fn plan_grus_um(
    machine: &hyt_sim::MachineModel,
    graph: AdjacencyView<'_>,
    parts: &PartitionSet,
    refs: &[&PartitionActivity],
    bytes_per_edge: u64,
    grus: &mut GrusState,
) -> TaskPlan {
    let _ = graph;
    let bpe = bytes_per_edge;
    let page = machine.um.page_bytes;
    let mut partitions = Vec::new();
    let mut active_vertices = Vec::new();
    let mut active_edges = 0u64;
    let mut migrated_pages = 0u64;
    for a in refs {
        partitions.push(a.partition);
        active_vertices.extend_from_slice(&a.active_vertices);
        active_edges += a.active_edges;
        let pid = a.partition as usize;
        if !grus.charged[pid] {
            grus.charged[pid] = true;
            let bytes = parts.get(a.partition).num_edges() * bpe;
            migrated_pages += bytes.div_ceil(page);
        }
    }
    let transfer_time = machine.um.migrate_time(migrated_pages);
    let kernel_time = machine.kernel.kernel_time(active_edges);
    TaskPlan {
        kind: EngineKind::ImpUnified,
        partitions,
        active_vertices,
        active_edges,
        cpu_time: 0.0,
        transfer_time,
        kernel_time,
        counters: TransferCounters {
            um_bytes: migrated_pages * page,
            page_faults: migrated_pages,
            kernel_edges: active_edges,
            kernel_launches: 1,
            ..Default::default()
        },
        compacted: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{EdgeCtx, InitialFrontier};
    use crate::stats::RunResult;
    use hyt_graph::generators;

    /// SSSP-shaped program local to the runner tests.
    struct MiniSssp;
    impl VertexProgram for MiniSssp {
        type Value = u32;
        const NEEDS_WEIGHTS: bool = true;
        fn init(&self, v: VertexId) -> u32 {
            if v == 0 {
                0
            } else {
                u32::MAX
            }
        }
        fn initial_frontier(&self) -> InitialFrontier {
            InitialFrontier::Set(vec![0])
        }
        fn message(&self, seed: u32, ctx: EdgeCtx) -> Option<u32> {
            (seed != u32::MAX).then(|| seed.saturating_add(ctx.weight))
        }
        fn accumulate(&self, state: u32, msg: u32) -> Option<u32> {
            (msg < state).then_some(msg)
        }
    }

    fn run_default(g: hyt_graph::Csr) -> (HyTGraphSystem, RunResult<u32>) {
        let mut sys = HyTGraphSystem::new(g, HyTGraphConfig::default());
        let r = sys.run(MiniSssp);
        (sys, r)
    }

    #[test]
    fn effective_bpe_depends_on_weight_need() {
        let g = generators::rmat(8, 4.0, 1, true);
        let sys = HyTGraphSystem::new(g, HyTGraphConfig::default());
        assert_eq!(sys.effective_bytes_per_edge::<MiniSssp>(), 8);
        struct Blind;
        impl VertexProgram for Blind {
            type Value = u32;
            fn init(&self, v: VertexId) -> u32 {
                v
            }
            fn initial_frontier(&self) -> InitialFrontier {
                InitialFrontier::All
            }
            fn message(&self, s: u32, _: EdgeCtx) -> Option<u32> {
                Some(s)
            }
            fn accumulate(&self, s: u32, m: u32) -> Option<u32> {
                (m < s).then_some(m)
            }
        }
        assert_eq!(sys.effective_bytes_per_edge::<Blind>(), 4);
    }

    #[test]
    fn per_iteration_records_cover_every_iteration() {
        let g = generators::rmat(10, 8.0, 3, true);
        let (_, r) = run_default(g);
        assert_eq!(r.per_iteration.len(), r.iterations as usize);
        for (i, it) in r.per_iteration.iter().enumerate() {
            assert_eq!(it.iteration, i as u32);
            assert!(it.active_vertices > 0, "iteration {i} had no input frontier");
            assert!(it.time > 0.0);
        }
    }

    #[test]
    fn iteration_time_includes_orchestration_overhead() {
        let g = generators::chain(3, true);
        let (sys, r) = run_default(g);
        let overhead = ITERATION_OVERHEAD_COPIES * sys.config().machine.pcie.copy_latency;
        for it in &r.per_iteration {
            assert!(it.time >= overhead);
        }
    }

    #[test]
    fn startup_passes_charge_once() {
        let g = generators::rmat(9, 6.0, 4, true);
        let time_with = |passes: f64| {
            let cfg = HyTGraphConfig { startup_edge_passes: passes, ..HyTGraphConfig::default() };
            let mut sys = HyTGraphSystem::new(g.clone(), cfg);
            sys.run(MiniSssp).total_time
        };
        let base = time_with(0.0);
        let with = time_with(4.0);
        let expected =
            4.0 * (g.num_edges() * 8) as f64 / HyTGraphConfig::default().machine.compaction_bw;
        assert!((with - base - expected).abs() < expected * 0.05 + 1e-9);
    }

    #[test]
    fn hub_sorted_results_return_in_original_order() {
        let g = generators::rmat(9, 8.0, 6, true);
        // With CDS on (default) the graph is hub-sorted internally; results
        // must still be indexed by original ids.
        let (_, with_hub) = run_default(g.clone());
        let cfg = HyTGraphConfig { contribution_scheduling: false, ..HyTGraphConfig::default() };
        let mut sys = HyTGraphSystem::new(g, cfg);
        let without_hub = sys.run(MiniSssp);
        assert_eq!(with_hub.values, without_hub.values);
    }

    #[test]
    fn mutation_dirties_only_touched_partitions_and_reprices_incrementally() {
        let g = generators::rmat(11, 10.0, 7, true);
        let cfg = HyTGraphConfig { contribution_scheduling: false, ..HyTGraphConfig::default() };
        let mut sys = HyTGraphSystem::new(g, cfg);
        let n = sys.num_partitions();
        assert!(n > 4, "want several partitions, got {n}");
        let layout = ValueLayout::of::<u32>();
        sys.price_full_sweep(true, layout);
        assert_eq!(sys.sweep_repriced(), n as u64, "first sweep prices every partition");
        // A localized batch: every op touches vertex 0's partition only
        // (endpoints both inside it), so exactly one partition dirties.
        let span = sys.graph().owner_of(0);
        let mut batch = MutationBatch::new();
        batch.insert_weighted(0, 1, 3).insert_weighted(1, 0, 9);
        let report = sys.apply_mutations(&batch).unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!(report.dirty_partitions, vec![span]);
        assert_eq!(report.reactivated, vec![0, 1]);
        // Re-pricing the same shape touches only the dirty partition.
        let before = sys.sweep_repriced();
        sys.price_full_sweep(true, layout);
        assert_eq!(sys.sweep_repriced() - before, report.dirty_partitions.len() as u64);
        // A clean re-sweep prices nothing.
        let before = sys.sweep_repriced();
        sys.price_full_sweep(true, layout);
        assert_eq!(sys.sweep_repriced(), before);
    }

    #[test]
    fn mutation_results_track_the_mutated_graph() {
        let g = generators::chain(5, true); // 0→1→2→3→4, weight 1 each
        let mut sys = HyTGraphSystem::new(g, HyTGraphConfig::default());
        let r = sys.run(MiniSssp);
        assert_eq!(r.values, vec![0, 1, 2, 3, 4]);
        // Shortcut 0→4 with weight 1, sever 0→1.
        let mut batch = MutationBatch::new();
        batch.insert_weighted(0, 4, 1).delete(0, 1);
        sys.apply_mutations(&batch).unwrap();
        let r = sys.run(MiniSssp);
        assert_eq!(r.values, vec![0, u32::MAX, u32::MAX, u32::MAX, 1]);
    }

    #[test]
    fn compaction_trigger_matches_report_fields() {
        let g = generators::rmat(10, 8.0, 5, true);
        // No hub sort: working ids are original ids, so the test can read
        // live adjacency straight off the delta graph to build deletes.
        let cfg = HyTGraphConfig { contribution_scheduling: false, ..HyTGraphConfig::default() };
        let mut sys = HyTGraphSystem::new(g, cfg);
        // Grow dead base slots until the priced surplus trips the fold.
        let mut tripped = false;
        for round in 0..64 {
            let src =
                (0..sys.graph().num_vertices()).max_by_key(|&v| sys.graph().out_degree(v)).unwrap();
            let dsts: Vec<_> = sys.graph().edges_of(src).map(|(d, _)| d).collect();
            let mut batch = MutationBatch::new();
            let mut seen = std::collections::HashSet::new();
            for d in dsts {
                // edges_of yields duplicates per multiplicity; delete each
                // (src, dst) group once — one delete kills one surviving copy,
                // so repeat per copy.
                let copies = sys.graph().edges_of(src).filter(|&(x, _)| x == d).count();
                if seen.insert(d) {
                    for _ in 0..copies {
                        batch.delete(src, d);
                    }
                }
            }
            if batch.is_empty() {
                continue;
            }
            let report = sys.apply_mutations(&batch).unwrap();
            assert_eq!(
                report.compacted,
                report.delta_surplus * COMPACTION_HORIZON_ITERS > report.fold_cost,
                "round {round}: trigger must equal the priced inequality"
            );
            if report.compacted {
                tripped = true;
                assert!(sys.graph().delta_partitions().is_empty());
                assert_eq!(sys.graph().inserted_edges(), 0);
                assert_eq!(sys.delta_surplus(), 0.0);
                assert_eq!(sys.fold_cost(), 0.0);
                break;
            }
        }
        assert!(tripped, "deleting whole adjacencies never tripped compaction");
    }

    #[test]
    fn failed_op_keeps_applied_prefix_and_invalidation() {
        let g = generators::chain(4, true);
        let cfg = HyTGraphConfig { contribution_scheduling: false, ..HyTGraphConfig::default() };
        let mut sys = HyTGraphSystem::new(g, cfg);
        let mut batch = MutationBatch::new();
        batch.insert_weighted(3, 0, 2).delete(2, 0); // 2→0 does not exist
        let err = sys.apply_mutations(&batch).unwrap_err();
        assert!(matches!(err, GraphError::MissingEdge { src: 2, dst: 0 }), "{err}");
        // The prefix stayed applied and the graph reflects it.
        assert_eq!(sys.graph().inserted_edges(), 1);
        assert!(sys.graph().edges_of(3).any(|(d, _)| d == 0));
    }

    #[test]
    fn grus_caches_then_stops_migrating() {
        let g = generators::rmat(9, 8.0, 8, true);
        let mut cfg = crate::SystemKind::Grus.configure(HyTGraphConfig::default());
        // Plenty of budget: everything becomes resident after first touch.
        cfg.machine.edge_budget = g.edge_bytes() * 8;
        let mut sys = HyTGraphSystem::new(g, cfg);
        let r = sys.run(crate::systems::tests_support::AllActiveMin);
        let first = r.per_iteration.first().unwrap().counters.um_bytes;
        let later: u64 = r.per_iteration.iter().skip(1).map(|it| it.counters.um_bytes).sum();
        assert!(first > 0);
        assert!(later <= first, "later iterations re-migrated: {later} vs first {first}");
    }
}
