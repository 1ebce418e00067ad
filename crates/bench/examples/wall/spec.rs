//! The benchmark's definition as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics and the end-to-end metric
//! each is expected to move. `wall list` prints these tables, README.md
//! carries the same rows, and `wall self-test` checks `BENCHMARK.json`
//! names exactly these.

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`wall aa` measured
    /// them; see README.md). Per-layer metrics have none.
    pub bound: Option<f64>,
    /// For a per-layer metric: the end-to-end metric it should move, and
    /// where. For an end-to-end metric: what it measures.
    pub moves: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "pr_dense_d1",
        why: "PageRank on the TW-class RMAT, D=1: all-active dense sweeps, so core::kernel and Values<F32Pair> do nearly all the work and the decision pipeline and sim almost none",
    },
    WorkloadSpec {
        name: "pr_dense_d8",
        why: "same graph and program at D=8 HostOnly: same kernel work, so the difference to pr_dense_d1 is sim::multi, exchange pricing and the backwards device scaling",
    },
    WorkloadSpec {
        name: "sssp_hubs_d1",
        why: "SSSP from the 16 highest-degree sources on one resident UK-class system: rising-then-falling frontier, engine mix changes per iteration, per-run set-up paid 16 times",
    },
    WorkloadSpec {
        name: "bfs_tail_grid_d1",
        why: "BFS then SSSP from 6 sources over a weighted 4-neighbour grid: hundreds of tiny iterations, so per-iteration fixed cost is the whole run and kernel gains must not move it",
    },
    WorkloadSpec {
        name: "cc_sync_t2",
        why: "sync CC with 2 host threads on the symmetrised FS-class graph: the only thread count above 1 whose values and simulated stats repeat bit for bit, so parallel-kernel scaling shows here",
    },
    WorkloadSpec {
        name: "hb_wide_d8",
        why: "HyperBall (64-byte HLL sketches, 8 lanes) on the SK-class graph at D=8: the striped-lock wide-value path and the large priced all-gather that adaptive sweep modes must move",
    },
    WorkloadSpec {
        name: "session_mixed_d8",
        why: "resident SessionService on a D=8 ring: 8 closed-loop clients of coalesced BFS/SSSP with PageRank refreshes and Mutate barriers, so reads run beside writes through the delta view",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound), moves }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None, moves }
}

use Better::{Higher, Lower};

pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", Lower, 0.25, "generate the graph + HyTGraphSystem::new (hub sort, partition, placement, interconnect); median of the timed set-ups"),
    e2e("run_wall_s", "s", Lower, 0.25, "host wall-clock of one measured pass (sum of its timed library calls); median over passes"),
    e2e("ops_per_s", "1/s", Higher, 0.25, "completed ops / run_wall_s; an op is one HyTGraphSystem::run or one session request"),
    e2e("sim_makespan_s", "s", Lower, 0.15, "simulated: sum of RunResult::total_time over the pass (session: SessionStats::clock); repeats exactly at one seed"),
    e2e("sim_transfer_ratio", "ratio", Lower, 0.10, "simulated: total_transfer_bytes / effective edge bytes, Table VI's metric (session: exchange payload only, all the service exposes)"),
    e2e("peak_rss_mb", "MB", Lower, 0.20, "VmHWM after the measured passes, before tracing and replay"),
];

pub const PER_LAYER: [MetricSpec; 74] = [
    // graph -> setup_s everywhere.
    layer("graph.generate_s", "s", Lower, "setup_s, every workload"),
    layer("graph.hub_sort_ms", "ms", Lower, "setup_s, every workload"),
    layer("graph.partition_ms", "ms", Lower, "setup_s, every workload"),
    layer("graph.affinity_ms", "ms", Lower, "setup_s, D=8 workloads with priced placement"),
    layer("graph.plan_cost_driven_ms", "ms", Lower, "setup_s, D=8 workloads with priced placement"),
    layer("graph.frontier_scan_ns_per_vertex", "ns", Lower, "run_wall_s on bfs_tail_grid_d1"),
    layer("graph.delta_apply_kops_per_s", "kops/s", Higher, "run_wall_s and core.op_wall_ms.p99 on session_mixed_d8 only"),
    layer("graph.delta_compact_ms", "ms", Lower, "core.op_wall_ms.p99 on session_mixed_d8 only"),
    // engines -> run_wall_s on the sparse workloads.
    layer("engines.analyze_ns_per_partition.dense", "ns", Lower, "run_wall_s on sssp_hubs_d1 (peak iterations); ~0 on pr_dense_*"),
    layer("engines.analyze_ns_per_partition.sparse", "ns", Lower, "run_wall_s on bfs_tail_grid_d1"),
    layer("engines.plan_ns_per_partition", "ns", Lower, "run_wall_s on bfs_tail_grid_d1 and sssp_hubs_d1"),
    layer("engines.compact_mbytes_per_s", "MB/s", Higher, "run_wall_s on sssp_hubs_d1 (compaction iterations)"),
    // core kernel -> run_wall_s on the workload named, not bfs_tail_grid_d1.
    layer("core.kernel_medges_per_s.f32pair_t1", "Medges/s", Higher, "run_wall_s on pr_dense_d1 and pr_dense_d8"),
    layer("core.kernel_medges_per_s.u32_t1", "Medges/s", Higher, "run_wall_s on sssp_hubs_d1"),
    layer("core.kernel_medges_per_s.u32_t2", "Medges/s", Higher, "run_wall_s on cc_sync_t2"),
    layer("core.kernel_scaling_t2", "ratio", Higher, "run_wall_s on cc_sync_t2; reported as measured"),
    layer("core.kernel_medges_per_s.hll_t1", "Medges/s", Higher, "run_wall_s on hb_wide_d8"),
    layer("core.kernel_medges_per_s.multi8_t1", "Medges/s", Higher, "run_wall_s and ops_per_s on session_mixed_d8"),
    layer("core.kernel_medges_per_s.delta_live_t1", "Medges/s", Higher, "run_wall_s on session_mixed_d8 after the first Mutate"),
    layer("core.kernel_medges_per_s.compacted_t1", "Medges/s", Higher, "run_wall_s on sssp_hubs_d1 (compaction iterations)"),
    layer("core.kernel_medges_per_s.delta_empty_t1", "Medges/s", Higher, "run_wall_s everywhere; equals .u32_t1 if the empty-delta path is free"),
    // core orchestration -> run_wall_s on bfs_tail_grid_d1.
    layer("core.iter_fixed_us", "us", Lower, "run_wall_s on bfs_tail_grid_d1; <=1% of pr_dense_d1"),
    layer("core.iter_ns_per_edge", "ns", Lower, "run_wall_s on the kernel-bound workloads"),
    layer("core.iter_wall_us.p50", "us", Lower, "run_wall_s on bfs_tail_grid_d1"),
    layer("core.cost_select_ns_per_partition", "ns", Lower, "run_wall_s on bfs_tail_grid_d1"),
    layer("core.order_tasks_us", "us", Lower, "run_wall_s on bfs_tail_grid_d1"),
    layer("core.values_init_ms", "ms", Lower, "run_wall_s on sssp_hubs_d1 (paid per run)"),
    layer("core.values_snapshot_ms", "ms", Lower, "run_wall_s on cc_sync_t2 and hb_wide_d8 (sync snapshot per iteration)"),
    layer("core.run_medges_per_s", "Medges/s", Higher, "run_wall_s, every workload"),
    layer("core.nonkernel_share", "ratio", Lower, "run_wall_s: majority on bfs_tail_grid_d1, small minority on pr_dense_d1"),
    layer("core.op_wall_ms.p50", "ms", Lower, "ops_per_s: host time of one op pooled over the measured passes (session: submit to the run_next that returns it)"),
    layer("core.op_wall_ms.p99", "ms", Lower, "nothing by itself: tail of the same pool (the slowest op under 100 samples); a read gain that costs writes shows here on session_mixed_d8"),
    // core session -> ops_per_s on session_mixed_d8.
    layer("core.session_quote_us", "us", Lower, "core.op_wall_ms.p50 on session_mixed_d8"),
    layer("core.session_submit_us", "us", Lower, "core.op_wall_ms.p50 on session_mixed_d8"),
    layer("core.session_run_next_ms.p50", "ms", Lower, "ops_per_s and core.op_wall_ms.p50 on session_mixed_d8"),
    layer("core.session_cohort_width_mean", "count", Higher, "ops_per_s on session_mixed_d8 (requests served per cohort run)"),
    layer("core.session_rejected", "count", Lower, "failed ops on session_mixed_d8"),
    layer("core.price_full_sweep_us.cold", "us", Lower, "core.op_wall_ms.p99 on session_mixed_d8 (first quote after a Mutate)"),
    layer("core.price_full_sweep_us.cached", "us", Lower, "core.op_wall_ms.p50 on session_mixed_d8"),
    layer("core.apply_mutations_kops_per_s", "kops/s", Higher, "core.op_wall_ms.p99 on session_mixed_d8"),
    layer("core.system_new_ms", "ms", Lower, "setup_s, every workload"),
    // sim host cost -> run_wall_s on the D=8 workloads.
    layer("sim.schedule_us_per_call", "us", Lower, "run_wall_s on pr_dense_d8, hb_wide_d8, session_mixed_d8"),
    layer("sim.price_all_gather_us_per_call", "us", Lower, "run_wall_s on the D=8 workloads; a no-op call at D=1"),
    layer("sim.price_all_gather_load_aware_us_per_call", "us", Lower, "run_wall_s on D=8 workloads that turn load-aware routing on"),
    layer("sim.stream_schedule_us_per_call", "us", Lower, "run_wall_s on the D=1 workloads"),
    layer("sim.interconnect_build_ms", "ms", Lower, "setup_s on the D=8 workloads"),
    // sim modelled platform -> sim_makespan_s and sim_transfer_ratio.
    layer("sim.iterations", "count", Lower, "sim_makespan_s, every workload"),
    layer("sim.transfer_s", "s", Lower, "sim_makespan_s, every workload"),
    layer("sim.compute_s", "s", Lower, "sim_makespan_s, every workload"),
    layer("sim.compaction_s", "s", Lower, "sim_makespan_s on sssp_hubs_d1"),
    layer("sim.exchange_s", "s", Lower, "sim_makespan_s on the D=8 workloads"),
    layer("sim.exchange_hidden_s", "s", Higher, "sim_makespan_s on D=8 workloads that turn overlap on"),
    layer("sim.explicit_bytes", "bytes", Lower, "sim_transfer_ratio, every workload"),
    layer("sim.zero_copy_bytes", "bytes", Lower, "sim_transfer_ratio on the sparse workloads"),
    layer("sim.um_bytes", "bytes", Lower, "sim_transfer_ratio when unified memory is selected"),
    layer("sim.exchange_bytes", "bytes", Lower, "sim_transfer_ratio on the D=8 workloads"),
    layer("sim.compaction_bytes", "bytes", Lower, "sim_makespan_s on sssp_hubs_d1"),
    layer("sim.tlps", "count", Lower, "sim_makespan_s, every workload"),
    layer("sim.page_faults", "count", Lower, "sim_makespan_s when unified memory is selected"),
    layer("sim.kernel_launches", "count", Lower, "sim_makespan_s on bfs_tail_grid_d1"),
    layer("sim.kernel_edges", "count", Lower, "sim_makespan_s and run_wall_s, every workload"),
    layer("sim.mix_filter", "count", Lower, "sim_makespan_s: partitions served by ExpTM-filter"),
    layer("sim.mix_compaction", "count", Lower, "sim_makespan_s: partitions served by ExpTM-compaction"),
    layer("sim.mix_zero_copy", "count", Lower, "sim_makespan_s: partitions served by ImpTM-zero-copy"),
    layer("sim.mix_unified", "count", Lower, "sim_makespan_s: partitions served by ImpTM-unified"),
    layer("sim.device_imbalance", "ratio", Lower, "sim_makespan_s on the D=8 workloads (max / mean per-device time)"),
    // algos.
    layer("algos.changed_share.p50", "ratio", Lower, "sim_makespan_s and run_wall_s on hb_wide_d8 (the sweep-mode signal)"),
    layer("algos.changed_share.last", "ratio", Lower, "sim_makespan_s and run_wall_s on hb_wide_d8"),
    layer("algos.reference_check_s", "s", Lower, "nothing: verification time, excluded from every wall metric"),
    // the harness's own overhead.
    layer("bench.trace_overhead_share", "ratio", Lower, "nothing: (traced - untraced pass) / untraced"),
    layer("bench.timer_ns", "ns", Lower, "nothing: cost of one Instant::now pair"),
    layer("bench.passes", "count", Higher, "nothing: measured passes behind the medians"),
    layer("bench.op_samples", "count", Higher, "nothing: ops pooled behind core.op_wall_ms.*"),
    layer("bench.host_threads", "count", Higher, "core.kernel_scaling_t2: std::thread::available_parallelism"),
];

/// `wall list`.
pub fn print_list() {
    println!("workloads (closed loop, one driver thread):");
    for w in &WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (name, unit, better, bound, meaning):");
    for m in &END_TO_END {
        println!(
            "  {:<20} {:<6} {:<7} {:>4.0}%  {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound.unwrap_or(0.0) * 100.0,
            m.moves
        );
    }
    println!("\nper-layer metrics (name, unit, better, end-to-end metric it should move):");
    for m in &PER_LAYER {
        println!("  {:<46} {:<9} {:<7} {}", m.name, m.unit, m.better.word(), m.moves);
    }
    println!(
        "\nsimulated figures (sim_*, sim.*) come from the modelled 2080Ti platform, which is \
         unvalidated against hardware: the repository holds no hardware measurements, so no \
         model-error figure is reported."
    );
}
