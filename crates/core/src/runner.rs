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
//! come from the simulator's makespan of the same task set. Engines hand
//! back prices only, so delivery is here too: one gather (for a task with
//! a member shipped by compaction) and one kernel launch per combined
//! task, whatever the device count.
//!
//! [`HyTGraphSystem`]'s other concerns live in private sibling modules and
//! are re-exported from this one: `mutate` (mutation batches, delta
//! compaction, the sweep-price cache) and `residency` (which partitions a
//! device keeps for the rest of a run).
//!
//! # Multi-device sharding
//!
//! With `config.num_devices > 1` the partitions are statically assigned to
//! `D` simulated GPUs (see [`hyt_graph::DevicePlan`]) in aligned runs of
//! up to [`hyt_graph::COMBINE_RUN`] consecutive partitions, so a combined
//! filter task inside one run stays one copy on one device. A task whose
//! members span devices — the merged compaction and zero-copy tasks, a
//! filter run straddling two placement runs, any run under a non-default
//! `combine_k` — is *sliced* by owning device. Each device prices its
//! slice with its own engines and its own residency (every device is a
//! whole card, with the full edge budget less its own vertex-state
//! replica) and schedules it on its own streams,
//! while all devices contend for the configured [`Interconnect`]'s links
//! and one host compaction pool ([`MultiGpuSim`]). Between iterations a
//! routed all-gather publishes every device's newly-activated owned
//! vertices (values, or changed registers for a sync HLL sketch, named
//! by an id list or an owned-vertex bitmap, whichever is shorter:
//! [`crate::exchange`]) to the peers along each pair's cheapest path: a
//! direct NVLink-class peer link (`config.topology` ring / all-to-all,
//! optionally re-priced per link by `config.link_overrides`), a
//! forwarded device-via-device multi-hop path, or staging through host
//! memory (up on the source's host port, down on the destination's:
//! `config.host_ports`), each host leg an explicit copy or a zero-copy
//! run, whichever is cheaper. The legs play on the tasks' list scheduler after
//! the barrier, so every [`IterationStats`] is final when its iteration
//! returns: its time is the barrier plus the legs' makespan plus
//! [`ITERATION_OVERHEAD_COPIES`] copy latencies.
//!
//! Kernels still execute in the *global* contribution-driven priority
//! order — the iteration barrier means device placement cannot change
//! what one synchronised iteration computes, and Algorithm 1 prices each
//! partition as if its device owned the bus, so values, convergence
//! iteration and Algorithm 1's engine choices are **bit-identical** for
//! every device count *and* every topology; only the timeline (and its
//! per-device / per-link breakdown) changes, and with it which devices'
//! shares fit (see Residency below). The differential suite in
//! `tests/multi_gpu.rs` holds the runner to those claims.
//!
//! # Residency
//!
//! A partition already on the device is the cheapest delivery of all.
//! Each iteration decides every active partition's delivery once, right
//! after Algorithm 1 (`residency::Residency::resolve`), and everything
//! downstream reads that one answer. Under [`Selection::Hybrid`], a
//! device whose whole share of the edge data (its partitions' live edges
//! × the program's bytes per edge) fits its budget either *holds* a
//! partition, loaded in an earlier iteration, or *loads* it now: one
//! explicit copy at ExpTM-filter's price, whatever engine Algorithm 1
//! chose, kept for the rest of the run. A held slice is priced
//! kernel-only: no host bytes, no host port ([`SimTask::kernel_only`]).
//! A loading slice takes the filter shape (copy, then kernel; no fused
//! zero-copy), and the host kernel reads the CSR directly, with no
//! gather. The load sits where the partition is first needed, in
//! priority order on the device's streams, so it overlaps other tasks'
//! kernels, and a partition never touched is never loaded. A device whose
//! share does not fit keeps nothing and ships through Algorithm 1's
//! engine. [`EngineMix`] counts what happened: `held`, `load`, and per
//! engine only the partitions that engine shipped.
//!
//! Algorithm 1, task combining, priority order and the recompute pass's
//! vertex set stay keyed on Algorithm 1's engine, so only prices (and
//! the mix) move; `tests/residency.rs` holds the runner to that against
//! the same run with a zero edge budget. The pins are per-run state, like
//! the Grus baseline's and the unified-memory caches.

use crate::api::{InitialFrontier, ValueLayout, Values, VertexProgram, VertexValue};
use crate::combine::{combine_tasks_sized, CombinedTask};
use crate::config::{AsyncMode, HyTGraphConfig, ROUTE_LADDER};
use crate::exchange::IdEncoding;
use crate::kernel::{run_kernel, EdgeSource};
use crate::mutate::SweepCache;
use crate::priority::order_tasks;
use crate::residency::{Delivery, Pins, Residency};
use crate::select::{select_engines, SelectParams, Selection};
use crate::stats::{DeviceIterationStats, EngineMix, ExchangeStats, IterationStats, RunResult};
use hyt_engines::{
    analyze_partitions, compaction, filter, zero_copy, EngineKind, PartitionActivity, TaskPlan,
    UnifiedState,
};
use hyt_graph::{
    hub_sort, Csr, DeltaCsr, DevicePlan, Frontier, GraphError, PartitionSet, VertexId,
};
use hyt_sim::{Interconnect, MultiGpuSim, MultiTimeline, SimTask, TransferCounters};

pub use crate::mutate::{MutationReport, COMPACTION_HORIZON_ITERS};

/// Per-iteration orchestration overhead (GPU-side cost analysis +
/// selection result copy-back + frontier bookkeeping), expressed as a
/// multiple of the explicit-copy launch latency so it scales with the
/// machine model. Charged once per GPU iteration, serially after the
/// timeline and the exchange: nothing overlaps it.
pub const ITERATION_OVERHEAD_COPIES: f64 = 5.0;

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
/// live figure is the program's [`ValueLayout::record_bytes`]; it is the
/// ceiling, reached by id-list batches (a dense batch names its vertices
/// with bitmap bits instead, [`crate::exchange`]).
pub const EXCHANGE_RECORD_BYTES: u64 = ValueLayout::narrow().record_bytes();

/// A configured system bound to one graph: construct once, run many
/// algorithms (hub sorting is a one-off preprocessing step, Section VI-A).
///
/// # Resident reuse contract
///
/// Back-to-back [`run`](Self::run) calls on one resident system are
/// **bit-identical** to runs on freshly-built systems: every piece of
/// algorithm state (values, frontier, unified-memory caches, pinned
/// partitions, exchange scratch, per-iteration stats) is created inside
/// `run` and dropped when it returns. The only state resident across
/// runs is the build (graph, hub order, partitions, device plan,
/// interconnect route tables) plus the run-constant [`MultiGpuSim`]
/// scheduler, kept warm deliberately (cloning the interconnect's dense
/// route table per run was the expensive part); scheduling is pure
/// pricing, so it cannot leak one run's data into the next. No run
/// changes the build: only a mutation batch does, and the device plan
/// changes only with the partition set it is built from (a delta
/// compaction). `tests/resident.rs` holds the system to this contract,
/// `tests/placement.rs` holds the device plan to it, and the session
/// service ([`crate::session`]) depends on it.
pub struct HyTGraphSystem {
    pub(crate) graph: DeltaCsr,
    pub(crate) hub: Option<HubOrder>,
    pub(crate) parts: PartitionSet,
    pub(crate) devices: DevicePlan,
    /// Run-constant discrete-event scheduler (see the reuse contract).
    /// It owns the system's one copy of the interconnect.
    pub(crate) sim: MultiGpuSim,
    /// Cached all-active sweep prices (`mutate.rs`).
    pub(crate) sweep: SweepCache,
    pub(crate) config: HyTGraphConfig,
}

/// The build-time hub permutation: [`hyt_graph::HubSortResult`] minus its
/// relabelled graph, which moves into the resident [`DeltaCsr`] instead
/// of being held a second time.
pub(crate) struct HubOrder {
    /// `perm[old_id] = new_id`.
    perm: Vec<VertexId>,
    /// `inv[new_id] = old_id`.
    inv: Vec<VertexId>,
}

impl HubOrder {
    pub(crate) fn to_old(&self, new: VertexId) -> VertexId {
        self.inv[new as usize]
    }

    /// Reorder a value array indexed by new ids back into original-id order.
    fn values_to_old_order<T: Copy>(&self, values: &[T]) -> Vec<T> {
        self.perm.iter().map(|&new| values[new as usize]).collect()
    }
}

/// Everything one [`HyTGraphSystem::run`] prices with besides the values
/// and the frontier. Built when the run starts and dropped when it
/// returns, so no engine state survives a run.
struct RunState {
    /// Edge-data bytes per edge the program transfers: weight-blind
    /// programs only move the neighbour array (d1 = 4), weight-reading
    /// programs move neighbours + weights.
    bpe: u64,
    /// The program's declared value layout (lanes resident, wire bytes
    /// exchanged): every width-sensitive layer derives its per-vertex
    /// footprint from it; narrow programs get [`VERTEX_STATE_BYTES`] and
    /// [`EXCHANGE_RECORD_BYTES`].
    layout: ValueLayout,
    residency: Residency,
    /// Per-device tallies and encoded batch sizes of the frontier
    /// exchange: scratch reused across iterations, reset before every
    /// use (see `price_exchange`).
    exchange_batches: Vec<BatchTally>,
    exchange_bytes: Vec<u64>,
}

/// One device's exchange batch before encoding.
#[derive(Clone, Copy, Debug, Default)]
struct BatchTally {
    /// Records the device publishes.
    published: u64,
    /// Value bytes of those records.
    value_bytes: u64,
}

/// One device's members of a combined task, split by delivery.
struct Members<'a> {
    device: u32,
    /// Every member on the device, in task order: the kernel runs over
    /// them all.
    all: Vec<&'a PartitionActivity>,
    /// The members whose edge data moves to the device, in task order.
    shipped: Vec<&'a PartitionActivity>,
    /// The engine that moves them. There is one per device: a device
    /// whose share fits loads everything it ships, and any other ships
    /// through the task's engine.
    via: Option<EngineKind>,
}

/// One device's priced slice of a combined task.
struct Slice {
    device: u32,
    plan: TaskPlan,
    /// The engine that shipped the slice's edge data; `None` when the
    /// device held every member, so the slice is its kernel alone.
    via: Option<EngineKind>,
}

impl HyTGraphSystem {
    /// Build a system over `graph`. When contribution scheduling is
    /// enabled the graph is hub-sorted here, once.
    pub fn new(graph: Csr, config: HyTGraphConfig) -> Self {
        let (working, hub) = if config.contribution_scheduling {
            let sorted = hub_sort::hub_sort_with_fraction(&graph, config.hub_fraction);
            let order = HubOrder { perm: sorted.perm, inv: sorted.inv };
            (sorted.graph, Some(order))
        } else {
            (graph, None)
        };
        let parts = PartitionSet::build(&working, config.partition_bytes);
        let nd = config.num_devices.max(1) as u32;
        let mut interconnect = Interconnect::build(
            config.topology,
            nd as usize,
            config.machine.pcie,
            config.peer_link,
        )
        .with_host_ports(config.host_ports);
        for &(a, b, spec) in &config.link_overrides {
            interconnect = interconnect.with_link_spec(a, b, spec);
        }
        let interconnect = interconnect.with_route_breakpoints(&ROUTE_LADDER);
        let devices = DevicePlan::build(&parts, nd, config.device_assignment, 0);
        let sim = MultiGpuSim::with_interconnect(nd as usize, config.num_streams, interconnect);
        HyTGraphSystem {
            graph: DeltaCsr::with_partitions(working, &parts),
            hub,
            parts,
            devices,
            sim,
            sweep: SweepCache::default(),
            config,
        }
    }

    /// The interconnect the devices contend on.
    pub fn interconnect(&self) -> &Interconnect {
        &self.sim.interconnect
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

    /// The partition→device assignment: built with the partition set and
    /// rebuilt only when a delta compaction re-partitions the graph.
    pub fn device_plan(&self) -> &DevicePlan {
        &self.devices
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
        Ok(self.hub.as_ref().map_or(v, |h| h.perm[v as usize]))
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

        let layout = ValueLayout::of::<P::Value>();
        let bpe = self.effective_bytes_per_edge::<P>();
        // Every device is a whole card: device memory left for edge data
        // once its vertex-state replica is resident, derated by the UM
        // driver-headroom utilisation.
        let machine = &self.config.machine;
        let edge_budget = (machine.edge_budget.saturating_sub(nv as u64 * layout.state_bytes())
            as f64
            * machine.um_utilization) as u64;
        let nd = self.devices.num_devices() as usize;
        let num_parts = self.parts.len();
        let mut state = RunState {
            bpe,
            layout,
            residency: match self.config.selection {
                Selection::Hybrid => {
                    Residency::Hybrid(Pins::whole_shares(num_parts, &self.shares(bpe), edge_budget))
                }
                Selection::UnifiedOnly => Residency::Unified(
                    (0..nd).map(|_| UnifiedState::with_budget(machine, edge_budget)).collect(),
                ),
                Selection::GrusLike => {
                    Residency::Grus(Pins::first_touch(num_parts, nd, edge_budget))
                }
                _ => Residency::Stateless,
            },
            exchange_batches: vec![BatchTally::default(); nd],
            exchange_bytes: vec![0; nd],
        };
        let mut per_iteration: Vec<IterationStats> = Vec::new();
        let mut total_counters = TransferCounters::new();
        let mut total_time = self.config.startup_edge_passes
            * (self.num_edges() * state.bpe) as f64
            / machine.compaction_bw;
        let mut iter = 0u32;

        while !frontier.is_empty() && iter < self.config.max_iterations {
            let stats = if self.config.selection == Selection::CpuOnly {
                self.run_iteration_cpu(&program, &values, &mut frontier, iter)
            } else {
                self.run_iteration_gpu(&program, &values, &mut frontier, iter, &mut state)
            };
            total_time += stats.time;
            total_counters.merge(&stats.counters);
            per_iteration.push(stats);
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

    /// Each device's whole share of the edge data: its partitions' live
    /// (base + delta) edges × `bpe`.
    fn shares(&self, bpe: u64) -> Vec<u64> {
        let mut shares = vec![0; self.devices.num_devices() as usize];
        for p in self.parts.partitions() {
            let edges = p.num_edges() + self.graph.delta_edges(p.id);
            shares[self.devices.device_of(p.id) as usize] += edges * bpe;
        }
        shares
    }

    /// Edge-data volume the program would move shipping the graph once
    /// (Table VI's denominator).
    pub fn effective_edge_bytes<P: VertexProgram>(&self) -> u64 {
        self.num_edges() * self.effective_bytes_per_edge::<P>()
    }

    /// The resident graph, base plus delta segments.
    pub fn graph(&self) -> &DeltaCsr {
        &self.graph
    }

    /// One iteration on the simulated GPU platform (1..D devices).
    ///
    /// Kernels run in the global priority order regardless of `D` — the
    /// per-iteration barrier makes placement invisible to the computed
    /// values — while pricing slices each combined task by owning device
    /// (one slice when the task lies on one device) and plays the slices
    /// on per-device timelines behind their host ports.
    fn run_iteration_gpu<P: VertexProgram>(
        &self,
        program: &P,
        values: &Values<P::Value>,
        frontier: &mut Frontier,
        iteration: u32,
        state: &mut RunState,
    ) -> IterationStats {
        let cfg = &self.config;
        let machine = &cfg.machine;
        let devices = &self.devices;
        let nd = devices.num_devices() as usize;
        let (bpe, layout) = (state.bpe, state.layout);
        let (snapshot, recompute_rounds) = match cfg.async_mode {
            AsyncMode::Sync => (Some(values.snapshot()), 0),
            AsyncMode::Async { recompute } => (None, recompute),
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
        // Wide values make compaction's gather ship real value payload
        // per active vertex; the selector must price that freight
        // (exact no-op for ≤ 8-byte values).
        let select_params =
            SelectParams { value_surplus: layout.compaction_surplus(), ..cfg.select_params };
        let decisions = match &mut state.residency {
            Residency::Grus(grus) => grus.select(&acts, &self.parts, devices, bpe),
            _ => select_engines(&acts, &machine.pcie, bpe, cfg.selection, &select_params),
        };
        let delivery = state.residency.resolve(&decisions, &acts, devices);
        let mut mix = EngineMix::default();
        let mut dev_mix = vec![EngineMix::default(); nd];
        for (a, d) in acts.iter().zip(&delivery) {
            if let Some(d) = *d {
                mix.record(d);
                dev_mix[devices.device_of(a.partition) as usize].record(d);
            }
        }
        let mut tasks =
            combine_tasks_sized(&decisions, cfg.combine_k, cfg.task_combining, layout.lane_bytes());
        order_tasks(&mut tasks, &acts, program, values, cfg.contribution_scheduling);

        // --- Stage 2: execution + pricing. ---
        let next = Frontier::new(self.graph.num_vertices());
        let mut dev_tasks: Vec<Vec<SimTask>> = vec![Vec::new(); nd];
        let mut counters = TransferCounters::new();
        for task in &tasks {
            let mut plans = self.price_task(task, &acts, &delivery, state);

            // Real kernel over exactly the delivered edges, one launch per
            // combined task (identical to the single-device run: same
            // member order, same edges). Only a task with a member shipped
            // by compaction gathers; the others read the CSR directly.
            let active_all: Vec<VertexId> = task
                .members
                .iter()
                .flat_map(|&i| acts[i].active_vertices.iter().copied())
                .collect();
            let compacted = plans
                .iter()
                .any(|s| s.via == Some(EngineKind::ExpCompaction))
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
                self.charge_recompute(&eligible, bpe, &mut plans);
            }

            for s in &plans {
                counters.merge(&s.plan.counters);
                dev_tasks[s.device as usize].push(match s.via {
                    None => s.plan.to_kernel_only_task_for_device(s.device),
                    Some(_) => s.plan.to_sim_task_for_device(s.device),
                });
            }
        }

        // Each device's slice list inherits the global priority order
        // restricted to that device — per-device priority ordering for
        // free. Play them, then the exchange's legs after the barrier.
        let mut timeline = self.sim.schedule(&dev_tasks);
        let (exchange, payload_bytes) =
            self.price_exchange(&next, state, values, snapshot.as_deref(), &mut timeline);
        counters.exchange_bytes += payload_bytes;
        let analysis_time = ITERATION_OVERHEAD_COPIES * machine.pcie.copy_latency;

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
            time: timeline.makespan + analysis_time,
            transfer_time: timeline.bus_busy + exchange.host_time + exchange.peer_time,
            compute_time: timeline.per_device.iter().map(|t| t.gpu_busy).sum(),
            compaction_time: timeline.cpu_busy,
            exchange,
            per_device,
            counters,
        };
        *frontier = next;
        stats
    }

    /// Price the end-of-iteration all-gather (D > 1 only): each device
    /// publishes one encoded batch of its newly-activated owned vertices
    /// and receives every other shard-holder's batch, routed
    /// over the configured interconnect on each pair's cheapest path *at
    /// its batch size* — a direct peer link, a forwarded multi-hop peer
    /// path (store-and-forward), or staging through the host root
    /// complex, explicit or zero-copy per leg — one static pass, no
    /// exchange-time re-routing. The legs play after `timeline`'s barrier
    /// ([`MultiGpuSim::schedule_exchange`]), which they move.
    ///
    /// Only devices that own a shard participate: a spare device with no
    /// partitions computes nothing, so it neither publishes nor
    /// subscribes (otherwise idle devices would inflate the exchange
    /// linearly when D exceeds the partition count). The tallies live in
    /// `state`'s scratch, reused across iterations.
    ///
    /// Batch sizes: each device's batch is its value bytes plus its id
    /// section, the shorter of an id list and a bitmap over the vertices
    /// the plan gives it ([`IdEncoding::cheaper`],
    /// [`DevicePlan::owned_vertices`]). Value bytes: a
    /// sync iteration has its iteration-start `snapshot`, which is
    /// exactly what every holder's replica of a vertex holds after the
    /// previous all-gather, so each value is
    /// [`VertexValue::wire_bytes_since`] that snapshot (an HLL sketch
    /// ships only its raised registers, and its two record forms cost a
    /// form bit per record in a bitmap batch). Async iterations have no
    /// snapshot and price full [`ValueLayout::wire_bytes`] values, as
    /// does every value keeping the default hook. Batch size can move a
    /// batch onto a different route rung of the breakpoint ladder.
    ///
    /// Returns the iteration's exchange record — its record count is
    /// published vertices × (holders − 1) — and the encoded payload bytes
    /// delivered.
    fn price_exchange<V: VertexValue>(
        &self,
        next: &Frontier,
        state: &mut RunState,
        values: &Values<V>,
        snapshot: Option<&[V]>,
        timeline: &mut MultiTimeline,
    ) -> (ExchangeStats, u64) {
        let nd = self.devices.num_devices() as usize;
        if nd <= 1 {
            return (ExchangeStats::default(), 0);
        }
        let batches = &mut state.exchange_batches;
        batches.fill(BatchTally::default());
        for v in next.iter() {
            let value_bytes = match snapshot {
                Some(snap) => values.get(v).wire_bytes_since(&snap[v as usize]),
                None => state.layout.wire_bytes,
            };
            let batch = &mut batches[self.devices.device_of(self.parts.owner_of(v)) as usize];
            batch.published += 1;
            batch.value_bytes += value_bytes;
        }
        let two_forms = snapshot.is_some() && V::TWO_FORM_RECORDS;
        let mut bitmap_batches = 0;
        for (d, (bytes, b)) in state.exchange_bytes.iter_mut().zip(batches.iter()).enumerate() {
            let owned = self.devices.owned_vertices(d as u32);
            let encoding = IdEncoding::cheaper(b.published, owned, two_forms);
            if b.published > 0 && encoding == IdEncoding::Bitmap {
                bitmap_batches += 1;
            }
            *bytes = b.value_bytes + encoding.bytes(b.published, owned, two_forms);
        }
        let published: u64 = batches.iter().map(|b| b.published).sum();
        let holders = self.devices.holders();
        let report = self.sim.schedule_exchange(timeline, &state.exchange_bytes, holders);
        let holders = holders.iter().filter(|&&h| h).count() as u64;
        let stats = ExchangeStats {
            records: published * holders.saturating_sub(1),
            bitmap_batches,
            ..ExchangeStats::from(&report)
        };
        (stats, report.payload_bytes)
    }

    /// Slice combined `task` by owning device (ascending device id,
    /// members keeping their order within a slice) and price each slice
    /// with its device's engine state, by the members' resolved
    /// `delivery` (indexed like `acts`).
    fn price_task(
        &self,
        task: &CombinedTask,
        acts: &[PartitionActivity],
        delivery: &[Option<Delivery>],
        state: &mut RunState,
    ) -> Vec<Slice> {
        let mut slices: Vec<Members> = Vec::new();
        for &i in &task.members {
            let a = &acts[i];
            let device = self.devices.device_of(a.partition);
            let k = match slices.iter().position(|m| m.device == device) {
                Some(k) => k,
                None => {
                    let (all, shipped) = (Vec::new(), Vec::new());
                    slices.push(Members { device, all, shipped, via: None });
                    slices.len() - 1
                }
            };
            let m = &mut slices[k];
            m.all.push(a);
            if let Some(via) = delivery[i].and_then(Delivery::shipped_by) {
                m.shipped.push(a);
                m.via = Some(via);
            }
        }
        slices.sort_by_key(|m| m.device);
        slices.iter().map(|m| self.price_slice(task.kind, m, state)).collect()
    }

    /// Price one device's slice of a combined task Algorithm 1 gave to
    /// `kind`. A slice whose members the device all holds is priced
    /// kernel-only. Otherwise the shipped members pay their delivery
    /// through `m.via` (ExpTM-filter for a device that loads them), and
    /// one kernel runs over every member.
    fn price_slice(&self, kind: EngineKind, m: &Members, state: &mut RunState) -> Slice {
        let machine = &self.config.machine;
        let (device, d, bpe) = (m.device, m.device as usize, state.bpe);
        let Some(via) = m.via else {
            let plan = TaskPlan::over(kind, machine, &m.all);
            return Slice { device, plan, via: None };
        };
        let shipped = &m.shipped[..];
        let mut plan = match via {
            EngineKind::ExpFilter => filter::plan_filter(machine, self.graph.view(), shipped, bpe),
            EngineKind::ExpCompaction => compaction::price_compaction_sized(
                machine,
                shipped,
                bpe,
                state.layout.compaction_surplus(),
            ),
            EngineKind::ImpZeroCopy => {
                let mut p = zero_copy::plan_zero_copy(machine, shipped);
                if matches!(state.residency, Residency::Grus(_)) {
                    Pins::penalize_zero_copy(&mut p);
                }
                p
            }
            EngineKind::ImpUnified => match &mut state.residency {
                Residency::Unified(um) => {
                    um[d].plan_unified(machine, self.graph.view(), shipped, bpe)
                }
                Residency::Grus(grus) => grus.plan_um(d, machine, &self.parts, shipped, bpe),
                _ => unreachable!("only the unified-memory policies select ImpUnified"),
            },
        };
        if shipped.len() < m.all.len() {
            // The shipped members' delivery, and one kernel over them all.
            let whole = TaskPlan::over(via, machine, &m.all);
            plan = TaskPlan {
                cpu_time: plan.cpu_time,
                transfer_time: plan.transfer_time,
                counters: TransferCounters {
                    kernel_edges: whole.counters.kernel_edges,
                    ..plan.counters
                },
                ..whole
            };
        }
        Slice { device, plan, via: Some(via) }
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
    /// participating device; a slice zero-copy shipped also pays the bus
    /// again (its reads are never resident).
    fn charge_recompute(&self, eligible: &[VertexId], bpe: u64, slices: &mut [Slice]) {
        let machine = &self.config.machine;
        for Slice { device, plan, via } in slices.iter_mut() {
            let zero_copy = *via == Some(EngineKind::ImpZeroCopy);
            let mut edges = 0u64;
            let mut requests = 0u64;
            let mut any = false;
            for v in eligible.iter().copied() {
                if self.devices.device_of(self.parts.owner_of(v)) != *device {
                    continue;
                }
                any = true;
                let deg = self.graph.out_degree(v);
                edges += deg;
                if zero_copy {
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
            if zero_copy {
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
        *frontier = next;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{EdgeCtx, InitialFrontier};
    use crate::stats::RunResult;
    use hyt_graph::{generators, MutationBatch};
    use hyt_sim::Phase;

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
            // One thread: async kernels race at `threads > 1`, and a
            // different trajectory between the two runs is not a charge.
            let cfg = HyTGraphConfig {
                startup_edge_passes: passes,
                threads: 1,
                ..HyTGraphConfig::default()
            };
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

    /// A small weighted system cut into many partitions.
    fn small_system() -> HyTGraphSystem {
        let g = generators::rmat(9, 8.0, 5, true);
        let cfg = HyTGraphConfig { partition_bytes: 2 << 10, ..HyTGraphConfig::default() };
        HyTGraphSystem::new(g, cfg)
    }

    /// A HyTGraph run's pricing state with `budget` bytes per device.
    fn hybrid_state(sys: &HyTGraphSystem, budget: u64) -> RunState {
        let bpe = sys.graph.bytes_per_edge();
        RunState {
            bpe,
            layout: ValueLayout::narrow(),
            residency: Residency::Hybrid(Pins::whole_shares(
                sys.parts.len(),
                &sys.shares(bpe),
                budget,
            )),
            exchange_batches: Vec::new(),
            exchange_bytes: Vec::new(),
        }
    }

    /// Every partition's activity under an all-active frontier.
    fn all_active(sys: &HyTGraphSystem) -> Vec<PartitionActivity> {
        let full = Frontier::full(sys.num_vertices());
        let (pcie, bpe) = (&sys.config.machine.pcie, sys.graph.bytes_per_edge());
        analyze_partitions(sys.graph.view(), &sys.parts, &full, pcie, bpe, 1)
    }

    /// One iteration's pricing of a task of `kind` over `members`
    /// (indices into `acts`) on a single-device system: resolve each
    /// member's delivery, then price the task's one slice.
    fn price(
        sys: &HyTGraphSystem,
        kind: EngineKind,
        members: &[usize],
        acts: &[PartitionActivity],
        state: &mut RunState,
    ) -> Slice {
        let decisions: Vec<_> = members.iter().map(|&i| (i, kind)).collect();
        let delivery = state.residency.resolve(&decisions, acts, &sys.devices);
        let task = CombinedTask { kind, members: members.to_vec() };
        let mut slices = sys.price_task(&task, acts, &delivery, state);
        assert_eq!(slices.len(), 1);
        slices.remove(0)
    }

    #[test]
    fn kept_partitions_cost_only_their_kernel_share() {
        let sys = small_system();
        let machine = &sys.config.machine;
        let bpe = sys.graph.bytes_per_edge();
        let state_with = |budget: u64| hybrid_state(&sys, budget);
        let acts = all_active(&sys);
        let (a, b) = (&acts[0], &acts[1]);
        let bytes = |x: &PartitionActivity| x.total_edges * bpe;
        assert!(bytes(a) > 0 && bytes(b) > 0);
        let filter = EngineKind::ExpFilter;

        // The whole share fits: what is loaded once stays.
        let mut state = state_with(u64::MAX);
        let first = price(&sys, filter, &[0], &acts, &mut state);
        assert_eq!(first.via, Some(filter));
        assert_eq!(first.plan.counters.explicit_bytes, bytes(a));
        // A mixed slice ships only the member not held, under one kernel
        // over both.
        let mixed = price(&sys, filter, &[0, 1], &acts, &mut state);
        let whole = TaskPlan::over(filter, machine, &[a, b]);
        assert_eq!(mixed.via, Some(filter));
        assert_eq!(mixed.plan.counters.explicit_bytes, bytes(b));
        assert_eq!(mixed.plan.transfer_time, machine.pcie.explicit_copy_time(bytes(b)));
        assert_eq!(mixed.plan.kernel_time, whole.kernel_time);
        assert_eq!(mixed.plan.counters.kernel_edges, whole.counters.kernel_edges);
        assert_eq!(mixed.plan.partitions, vec![a.partition, b.partition]);
        // Once both are held, any engine's slice over them is its kernel.
        let kept = price(&sys, EngineKind::ExpCompaction, &[0, 1], &acts, &mut state);
        assert_eq!(kept.via, None);
        assert_eq!(kept.plan.counters, whole.counters);
        assert_eq!((kept.plan.cpu_time, kept.plan.transfer_time), (0.0, 0.0));

        // The whole share does not fit: nothing stays.
        let mut state = state_with(0);
        for _ in 0..2 {
            let again = price(&sys, filter, &[0], &acts, &mut state);
            assert_eq!(again.via, Some(filter));
            assert_eq!(again.plan.counters.explicit_bytes, bytes(a));
        }
    }

    #[test]
    fn fitting_device_loads_every_engine_whole_on_first_touch() {
        let sys = small_system();
        let machine = &sys.config.machine;
        let bpe = sys.graph.bytes_per_edge();
        let acts = all_active(&sys);
        let (a, b) = (&acts[0], &acts[1]);
        let bytes = |x: &PartitionActivity| x.total_edges * bpe;
        let p = sys.parts.get(b.partition);
        let in_b: Vec<VertexId> = (p.first_vertex..p.end_vertex).collect();
        let (ec, zc) = (EngineKind::ExpCompaction, EngineKind::ImpZeroCopy);

        // The whole share fits: a compaction slice and a zero-copy slice
        // each load their member whole, in the filter shape (so nothing
        // gathers), and keep it.
        let mut state = hybrid_state(&sys, u64::MAX);
        for (kind, i) in [(ec, 0), (zc, 1)] {
            let x = &acts[i];
            let s = price(&sys, kind, &[i], &acts, &mut state);
            let want = TaskPlan::over(kind, machine, &[x]);
            assert_eq!(s.via, Some(EngineKind::ExpFilter), "{kind:?}");
            assert_eq!(s.plan.counters.explicit_bytes, bytes(x), "{kind:?}");
            assert_eq!(s.plan.counters.compaction_bytes, 0, "{kind:?}");
            assert_eq!(s.plan.counters.zero_copy_bytes, 0, "{kind:?}");
            assert_eq!(s.plan.cpu_time, 0.0, "{kind:?}");
            assert_eq!(s.plan.transfer_time, machine.pcie.explicit_copy_time(bytes(x)));
            assert_eq!(s.plan.kernel_time, want.kernel_time);
            let task = s.plan.to_sim_task_for_device(0);
            assert!(matches!(task.phases[..], [Phase::Transfer(_), Phase::Kernel(_)]));
        }
        // A zero-copy recompute over the loaded partition pays no bus.
        let mut slices = vec![price(&sys, zc, &[0, 1], &acts, &mut state)];
        assert_eq!(slices[0].via, None, "the next slice over them is kernel-only");
        let before = slices[0].plan.transfer_time;
        sys.charge_recompute(&in_b, bpe, &mut slices);
        assert_eq!(slices[0].plan.transfer_time, before);
        assert_eq!(slices[0].plan.counters.zero_copy_bytes, 0);
        assert_eq!(slices[0].plan.counters.kernel_launches, 2);

        // The whole share does not fit: each engine prices as itself, and
        // a zero-copy recompute pays the bus again.
        let mut state = hybrid_state(&sys, 0);
        for _ in 0..2 {
            let c = price(&sys, ec, &[0], &acts, &mut state);
            let surplus = ValueLayout::narrow().compaction_surplus();
            let want = compaction::price_compaction_sized(machine, &[a], bpe, surplus);
            assert_eq!(c.via, Some(ec));
            assert_eq!(c.plan.counters, want.counters);
            assert_eq!(c.plan.cpu_time, want.cpu_time);
            assert_eq!(c.plan.transfer_time, want.transfer_time);
            assert_eq!(c.plan.to_sim_task().phases, want.to_sim_task().phases);
            let z = price(&sys, zc, &[1], &acts, &mut state);
            let want = zero_copy::plan_zero_copy(machine, &[b]);
            assert_eq!(z.plan.counters, want.counters);
            assert_eq!(z.plan.transfer_time, want.transfer_time);
            assert_eq!(z.plan.to_sim_task().phases, want.to_sim_task().phases);
        }
        let mut slices = vec![price(&sys, zc, &[1], &acts, &mut state)];
        let before = slices[0].plan.counters.zero_copy_bytes;
        sys.charge_recompute(&in_b, bpe, &mut slices);
        assert!(slices[0].plan.counters.zero_copy_bytes > before);
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
}
