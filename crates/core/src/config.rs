//! System configuration.

use crate::select::{SelectParams, Selection};
use hyt_graph::DeviceAssignment;
use hyt_sim::{HostPorts, LinkSpec, MachineModel, TopologyKind};

/// Scale shift shared with `hyt_graph::datasets`: datasets are 2¹⁰ smaller
/// than the paper's, so partitions and device budgets shrink by the same
/// factor (all cost-model ratios are preserved).
pub const SCALE_SHIFT: u32 = 10;

/// The paper's partition byte budget (32 MB), before scaling.
pub const PAPER_PARTITION_BYTES: u64 = 32 << 20;

/// Asynchrony mode of the iteration driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AsyncMode {
    /// Synchronous: scatter seeds come from an iteration-start snapshot;
    /// no recompute. Used by the Section III motivating study so all
    /// engines see identical frontiers.
    Sync,
    /// Asynchronous with `recompute` extra passes over each loaded task's
    /// newly-activated local vertices. HyTGraph uses 1 ("processes the
    /// loaded partition only one more time"); Subway squeezes until a
    /// fixpoint (capped).
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
    pub topology: TopologyKind,
    /// How the devices' host lanes group onto PCIe host ports, each its
    /// own queue for task transfers and host-staged exchange legs
    /// ([`hyt_sim::Interconnect::with_host_ports`]). The default,
    /// [`HostPorts::PairedSwitches`], is the DGX-1-class 8-GPU PCIe tree:
    /// two devices per switch, one x16 uplink each. [`HostPorts::Shared`]
    /// puts every device behind one root complex. At `num_devices = 1`
    /// every preset is the same single port.
    pub host_ports: HostPorts,
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
            host_ports: HostPorts::PairedSwitches,
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
pub fn default_threads() -> usize {
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
        assert_eq!(c.host_ports, HostPorts::PairedSwitches, "a DGX-1-class PCIe tree at D > 1");
        assert!(c.link_overrides.is_empty(), "uniform links unless configured otherwise");
        let ring = HyTGraphConfig { num_devices: 8, topology: TopologyKind::Ring, ..c };
        let sys = crate::HyTGraphSystem::new(hyt_graph::generators::chain(64, true), ring);
        assert_eq!(sys.interconnect().route_breakpoints(), ROUTE_LADDER);
    }

    #[test]
    fn config_link_overrides_build_the_fabric_with_link_spec_builds() {
        use hyt_sim::Interconnect;
        let c = HyTGraphConfig::default();
        let (pcie, peer) = (c.machine.pcie, c.peer_link);
        let fast = LinkSpec::with_nominal_bw(200.0e9).scaled(SCALE_SHIFT);
        let slow = LinkSpec::with_nominal_bw(2.0e9).scaled(SCALE_SHIFT);
        let system = |num_devices, topology, link_overrides| {
            let cfg = HyTGraphConfig { num_devices, topology, link_overrides, ..c.clone() };
            crate::HyTGraphSystem::new(hyt_graph::generators::chain(64, true), cfg)
        };
        // A D = 8 ring: two links re-priced (one named against its
        // endpoint order) and one chord added.
        let ring = system(8, TopologyKind::Ring, vec![(0, 1, fast), (7, 6, slow), (2, 6, fast)]);
        let expect = Interconnect::build(TopologyKind::Ring, 8, pcie, peer)
            .with_host_ports(c.host_ports)
            .with_link_spec(0, 1, fast)
            .with_link_spec(7, 6, slow)
            .with_link_spec(2, 6, fast)
            .with_route_breakpoints(&ROUTE_LADDER);
        assert_eq!(*ring.interconnect(), expect);
        // A D = 4 host-only system with two added links: a sparse
        // mixed-generation fabric, built the same way.
        let sparse = system(4, TopologyKind::HostOnly, vec![(0, 1, fast), (1, 2, slow)]);
        let expect = Interconnect::build(TopologyKind::HostOnly, 4, pcie, peer)
            .with_host_ports(c.host_ports)
            .with_link_spec(0, 1, fast)
            .with_link_spec(1, 2, slow)
            .with_route_breakpoints(&ROUTE_LADDER);
        assert_eq!(*sparse.interconnect(), expect);
        assert_eq!(sparse.interconnect().kind(), TopologyKind::HostOnly);
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
