//! System configuration.

use crate::select::{SelectParams, Selection};
use hyt_graph::DeviceAssignment;
// Datasets are 2¹⁰ smaller than the paper's, so partitions and device
// budgets shrink by the same factor (all cost-model ratios are preserved).
use hyt_graph::datasets::SCALE_SHIFT;
use hyt_sim::{LinkSpec, MachineModel, TopologyKind};

/// The paper's partition byte budget (32 MB), before scaling.
const PAPER_PARTITION_BYTES: u64 = 32 << 20;

/// Asynchrony mode of the iteration driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AsyncMode {
    /// Synchronous: scatter seeds come from an iteration-start snapshot;
    /// no recompute. Used by the Section III motivating study. Engines see
    /// identical frontiers only under order-insensitive folds (min, HLL
    /// max): `f32` Δ folds sum in combined-task order, which the engine
    /// mix changes (in `tests/presets.rs` Grus on a half card runs PR for
    /// 56 iterations where the other systems run 62).
    Sync,
    /// Asynchronous with `recompute` extra passes over each loaded task's
    /// newly-activated local vertices. HyTGraph uses 1 ("processes the
    /// loaded partition only one more time"); Subway squeezes it twice.
    Async {
        /// Extra local passes per loaded task.
        recompute: u32,
    },
}

/// The route-probe ladder every system's interconnect is finished with:
/// [`hyt_sim::ROUTE_BREAKPOINT_LADDER`] shrunk by [`SCALE_SHIFT`]. Batch
/// sizes shrink by `2^SCALE_SHIFT` alongside the machine's latencies, so
/// the rungs shrink with them to keep the latency/bandwidth crossover at
/// the same *relative* batch size; each exchange batch then takes the
/// route that is cheapest at its own size. A rung never scales below one
/// byte (probe sizes must be positive).
pub const ROUTE_LADDER: [u64; 5] = {
    let mut ladder = hyt_sim::ROUTE_BREAKPOINT_LADDER;
    let mut i = 0;
    while i < ladder.len() {
        let scaled = ladder[i] >> SCALE_SHIFT;
        ladder[i] = if scaled == 0 { 1 } else { scaled };
        i += 1;
    }
    ladder
};

/// Full configuration of a run.
#[derive(Clone, Debug)]
pub struct HyTGraphConfig {
    /// Engine-selection policy (hybrid for HyTGraph, constant for
    /// baselines).
    pub selection: Selection,
    /// Algorithm 1 thresholds (α, β).
    pub select_params: SelectParams,
    /// Partition byte budget (default: 32 MB scaled by [`SCALE_SHIFT`]).
    pub partition_bytes: u64,
    /// Task-combining width `k` (paper: 4). The default is
    /// [`hyt_graph::COMBINE_RUN`], the run length the edge-balanced
    /// placement deals to one device, so at `D > 1` a combined run stays
    /// one copy. Any other `k` still runs correctly with identical
    /// values; combined runs that span devices are only sliced into one
    /// copy per owning device.
    pub combine_k: usize,
    /// Enable the task combiner (Fig. 8 "TC").
    pub task_combining: bool,
    /// Enable contribution-driven scheduling: hub sorting + priority
    /// ordering (Fig. 8 "CDS").
    pub contribution_scheduling: bool,
    /// Fraction of vertices gathered as hubs when CDS is on (paper: 8 %).
    pub hub_fraction: f64,
    /// Sync or async iteration semantics.
    pub async_mode: AsyncMode,
    /// Simulated GPUs to shard partitions across (1 = the paper's
    /// single-device platform). Sharding changes only the timeline — the
    /// computed values, convergence iteration and per-iteration engine
    /// choices are identical for every device count.
    pub num_devices: usize,
    /// How partitions map to devices when `num_devices > 1`. There is one
    /// policy, [`DeviceAssignment::EdgeBalanced`]; the field stays because
    /// the frozen `wall` harness reads it (ROADMAP, `wall` v2 item (a)).
    pub device_assignment: DeviceAssignment,
    /// Interconnect shape between the devices: host-only (every byte
    /// staged through the devices' PCIe host ports — the paper's
    /// platform), or NVLink-style peer links in a ring / fully-connected
    /// clique that the frontier exchange routes over (direct, forwarded
    /// device-via-device, or host-staged — whichever prices cheapest).
    /// Every shape has the same host side, the DGX-1-class 8-GPU PCIe
    /// tree ([`hyt_sim::Interconnect::build`]): two devices per switch,
    /// one x16 uplink each, and each uplink its own queue for task
    /// transfers and host-staged exchange legs. At `num_devices ≤ 2`
    /// that is the paper's single port.
    pub topology: TopologyKind,
    /// Bandwidth and latency of each peer link when `topology` has any.
    /// Each direction of a peer link owns its own contention queue, so
    /// the two legs of a symmetric exchange overlap. Forwarded chains
    /// price store-and-forward: the sum of their hops.
    pub peer_link: LinkSpec,
    /// Per-link spec overrides applied on top of the uniform `topology`
    /// build: each `(a, b, spec)` entry re-prices the peer link between
    /// devices `a` and `b` — or adds one when the shape has none — so
    /// mixed-generation rings and arbitrary heterogeneous fabrics are
    /// plain configuration ([`hyt_sim::Interconnect::with_link_spec`],
    /// which panics on an unusable spec). Routing re-plans around the
    /// edited links (e.g. a slow bridge sends its pair back to host
    /// staging). Empty by default.
    pub link_overrides: Vec<(u32, u32, LinkSpec)>,
    /// CUDA streams for the timeline simulator (per device).
    pub num_streams: usize,
    /// Host threads for real computation (kernels, compaction, analysis).
    pub threads: usize,
    /// Iteration safety cap.
    pub max_iterations: u32,
    /// One-off run-startup cost, expressed in host passes over the edge
    /// data at `Thpt_cpt` (Subway's per-run preprocessing of its
    /// compaction structures; 0 for every other system).
    pub startup_edge_passes: f64,
    /// The simulated machine.
    pub machine: MachineModel,
}

impl Default for HyTGraphConfig {
    /// HyTGraph as evaluated in the paper: hybrid selection, TC + CDS on,
    /// one recompute pass, four streams, 2080Ti-class machine scaled to
    /// the proxy datasets.
    fn default() -> Self {
        HyTGraphConfig {
            selection: Selection::Hybrid,
            select_params: SelectParams::default(),
            partition_bytes: PAPER_PARTITION_BYTES >> SCALE_SHIFT,
            combine_k: hyt_graph::COMBINE_RUN,
            task_combining: true,
            contribution_scheduling: true,
            hub_fraction: hyt_graph::hub_sort::HUB_FRACTION,
            async_mode: AsyncMode::Async { recompute: 1 },
            num_devices: 1,
            device_assignment: DeviceAssignment::EdgeBalanced,
            topology: TopologyKind::HostOnly,
            peer_link: LinkSpec::nvlink().scaled(SCALE_SHIFT),
            link_overrides: Vec::new(),
            num_streams: 4,
            threads: default_threads(),
            max_iterations: 10_000,
            startup_edge_passes: 0.0,
            machine: MachineModel::paper_platform().scaled(SCALE_SHIFT),
        }
    }
}

/// Host parallelism default: available cores capped at 8 (the real work is
/// small; more threads mostly add scope overhead).
fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = HyTGraphConfig::default();
        assert_eq!(c.select_params.alpha, 0.8);
        assert_eq!(c.select_params.beta, 0.4);
        assert_eq!(c.combine_k, 4);
        assert_eq!(c.num_streams, 4);
        assert_eq!(c.partition_bytes, 32 << 10); // 32 MB >> 10
        assert!(c.task_combining && c.contribution_scheduling);
        assert_eq!(c.async_mode, AsyncMode::Async { recompute: 1 });
        assert!((c.hub_fraction - 0.08).abs() < 1e-12);
        assert_eq!(c.num_devices, 1, "the paper's platform is single-GPU");
        assert_eq!(c.device_assignment, DeviceAssignment::EdgeBalanced);
        assert_eq!(c.topology, TopologyKind::HostOnly, "the paper's platform has no peer links");
        assert!(c.link_overrides.is_empty(), "uniform links unless configured otherwise");
        let fabric =
            hyt_sim::Interconnect::build(TopologyKind::Ring, 8, c.machine.pcie, c.peer_link);
        let ring = HyTGraphConfig { num_devices: 8, topology: TopologyKind::Ring, ..c };
        let sys = crate::HyTGraphSystem::new(hyt_graph::generators::chain(64, true), ring);
        assert_eq!(*sys.interconnect(), fabric.with_route_breakpoints(&ROUTE_LADDER));
    }

    #[test]
    fn config_link_overrides_build_the_fabric_with_link_spec_builds() {
        use hyt_sim::Interconnect;
        let c = HyTGraphConfig::default();
        let fast = LinkSpec::with_nominal_bw(200.0e9).scaled(SCALE_SHIFT);
        let slow = LinkSpec::with_nominal_bw(2.0e9).scaled(SCALE_SHIFT);
        for nd in 1..=9usize {
            for topology in TopologyKind::ALL {
                // Two links re-priced or added (the second named against
                // its endpoint order) and one chord, where D spans them.
                let edits = [(0, 1, fast), (nd - 1, nd.saturating_sub(2), slow), (2, nd - 1, fast)];
                let link_overrides: Vec<_> = (edits.into_iter())
                    .filter(|&(a, b, _)| a != b && a.max(b) < nd)
                    .map(|(a, b, spec)| (a as u32, b as u32, spec))
                    .collect();
                let cfg = HyTGraphConfig {
                    num_devices: nd,
                    topology,
                    link_overrides: link_overrides.clone(),
                    ..c.clone()
                };
                let sys = crate::HyTGraphSystem::new(hyt_graph::generators::chain(64, true), cfg);
                let (ic, what) = (sys.interconnect(), format!("D={nd} {topology:?}"));
                // Two devices per host port, whatever the shape.
                assert_eq!(ic.num_host_ports(), nd.div_ceil(2), "{what}");
                for d in 0..nd {
                    assert_eq!(ic.host_link_of(d as u32), d / 2, "{what} device {d}");
                }
                let mut expect = Interconnect::build(topology, nd, c.machine.pcie, c.peer_link);
                for (a, b, spec) in link_overrides {
                    expect = expect.with_link_spec(a, b, spec);
                }
                assert_eq!(*ic, expect.with_route_breakpoints(&ROUTE_LADDER), "{what}");
                assert_eq!(ic.kind(), topology, "{what}");
            }
        }
    }

    #[test]
    fn default_peer_link_is_scaled_like_the_machine() {
        let c = HyTGraphConfig::default();
        let unscaled = LinkSpec::nvlink();
        assert_eq!(c.peer_link.bandwidth, unscaled.bandwidth);
        assert!((c.peer_link.latency - unscaled.latency / 1024.0).abs() < 1e-18);
    }

    #[test]
    fn machine_budget_is_scaled() {
        let c = HyTGraphConfig::default();
        assert_eq!(c.machine.edge_budget, (11u64 << 30) >> SCALE_SHIFT);
    }
}
