//! Extension: fast interconnects (the paper's Section VIII future work),
//! now a **two-axis sweep**: link bandwidth × topology.
//!
//! NVLink-4 / CXL push links from 16 GB/s toward 450 GB/s, and multi-GPU
//! hosts add direct peer links beside the PCIe root complex. The sweep
//! runs SSSP on the FS proxy over both axes:
//!
//! * **axis 1 — link generation**: the host link *and* the peer links
//!   run at the swept nominal bandwidth (one interconnect generation at
//!   a time);
//! * **axis 2 — topology**: host-only / ring / all-to-all at `D = 4`
//!   devices;
//! * **axis 3 — mixed generations** (ISSUE 4): a `D = 8` ring whose
//!   bridges carry *different* specs — a uniform NVLink2 ring, an
//!   alternating NVLink2/NVLink4 ring, and a ring with one 2 GB/s bridge
//!   whose pair routing sends back to host staging while its neighbours
//!   detour device-via-device.
//!
//! Three findings the tables show:
//!
//! 1. runtimes scale with bandwidth, but the engine *mix* is invariant —
//!    formulas (1)–(3) compare TLP counts in RTT units and RTT cancels
//!    (the original nvlink finding, kept as the baseline table). FS/SSSP
//!    does not fit one card, so the `D = 1` table's `resident` column
//!    reads 0; each `D = 4` share fits, so the grid's reads 100 %;
//! 2. peer topologies drain the exchange off the host link: the per-link
//!    class breakdown shows host bytes collapsing to zero on the clique;
//! 3. rings overlap the two directions of every bridge and forward
//!    distance ≥ 2 pairs device-via-device, and the slow-bridge row
//!    shows bytes reappearing on the host link.
//!
//! Set `REPRO_SMOKE=1` to run a reduced sweep (2 bandwidths; the
//! mixed-generation axis always runs) in CI.

use crate::context::{base_config, run_algo_with_config, Ctx};
use crate::table::{pct, secs, Table};
use hyt_algos::AlgoKind;
use hyt_core::{EngineMix, HyTGraphConfig, LinkSpec, SystemKind, TopologyKind};
use hyt_graph::DatasetId;
use hyt_sim::{MachineModel, PcieModel, UmModel};

/// Devices in the topology axis.
const SWEEP_DEVICES: usize = 4;

/// Devices in the mixed-generation ring axis (8, so the detour around a
/// slow bridge is long enough that host staging wins for its pair).
const MIXED_DEVICES: usize = 8;

/// The mixed-generation ring rows: `(label, config)`.
fn mixed_ring_rows() -> Vec<(&'static str, HyTGraphConfig)> {
    let shift = crate::context::SCALE_SHIFT;
    let ring = |peer: LinkSpec, overrides: Vec<(u32, u32, LinkSpec)>| {
        let base = HyTGraphConfig {
            topology: TopologyKind::Ring,
            peer_link: peer,
            link_overrides: overrides,
            num_devices: MIXED_DEVICES,
            threads: 1,
            ..base_config()
        };
        SystemKind::HyTGraph.configure(base)
    };
    let nvlink2 = LinkSpec::nvlink().scaled(shift);
    // Alternate NVLink4-class x8 bridges with NVLink2-class x4 bridges.
    let alternating: Vec<(u32, u32, LinkSpec)> = (0..MIXED_DEVICES as u32)
        .filter(|d| d % 2 == 0)
        .map(|d| {
            (d, (d + 1) % MIXED_DEVICES as u32, LinkSpec::with_nominal_bw(200.0e9).scaled(shift))
        })
        .collect();
    vec![
        ("uniform NVLink2", ring(nvlink2, Vec::new())),
        ("alternating NVLink4/NVLink2", ring(nvlink2, alternating)),
        (
            "one 2 GB/s bridge (0, 1)",
            ring(nvlink2, vec![(0, 1, LinkSpec::with_nominal_bw(2.0e9).scaled(shift))]),
        ),
    ]
}

/// A machine whose host link runs at `nominal_bw` (bytes/s), everything
/// else the paper platform.
fn machine_with_link(nominal_bw: f64) -> MachineModel {
    let mut m = MachineModel::paper_platform();
    m.pcie = PcieModel::with_nominal_bw(nominal_bw);
    m.um = UmModel::new(&m.pcie);
    m.scaled(crate::context::SCALE_SHIFT)
}

/// HyTGraph config for one sweep cell: host link and peer links at
/// `nominal_bw`, the given topology across `d` devices.
fn cell_config(nominal_bw: f64, topology: TopologyKind, d: usize) -> HyTGraphConfig {
    let base = HyTGraphConfig {
        machine: machine_with_link(nominal_bw),
        peer_link: LinkSpec::with_nominal_bw(nominal_bw).scaled(crate::context::SCALE_SHIFT),
        topology,
        num_devices: d,
        threads: 1,
        ..base_config()
    };
    SystemKind::HyTGraph.configure(base)
}

fn mix_of(per_iteration: &[hyt_core::IterationStats]) -> EngineMix {
    EngineMix::sum_over(per_iteration)
}

/// Sweep link bandwidth × topology on SSSP / FS.
pub fn run(ctx: &mut Ctx) -> Vec<Table> {
    let g = ctx.graph(DatasetId::Fs);
    let full: [(&str, f64); 5] = [
        ("PCIe3 16GB/s", 16.0e9),
        ("PCIe4 32GB/s", 32.0e9),
        ("PCIe5 64GB/s", 64.0e9),
        ("NVLink 200GB/s", 200.0e9),
        ("NVLink4 450GB/s", 450.0e9),
    ];
    let smoke = std::env::var("REPRO_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let links: &[(&str, f64)] = if smoke { &full[..2] } else { &full };

    // Baseline: the original single-device sweep — runtimes shift, the
    // mix does not (RTT cancels in formulas (1)-(3)).
    let mut runtime = Table::new(
        "Extension: interconnect sweep, SSSP on FS (runtime, D=1 baselines)",
        &["link", "ExpTM-F", "Subway", "EMOGI", "HyTGraph"],
    );
    let mut base_mix = Table::new(
        "Extension: HyTGraph engine mix vs link bandwidth (D=1: invariant, RTT cancels)",
        &["link", "E-F", "E-C", "I-ZC", "resident"],
    );
    for &(label, bw) in links {
        let base = HyTGraphConfig { machine: machine_with_link(bw), threads: 1, ..base_config() };
        let mut row = vec![label.to_string()];
        for sys in [SystemKind::ExpFilter, SystemKind::Subway, SystemKind::Emogi] {
            let cfg = sys.configure(base.clone());
            row.push(secs(run_algo_with_config(sys, AlgoKind::Sssp, &g, cfg).total_time));
        }
        let cfg = SystemKind::HyTGraph.configure(base.clone());
        let m = run_algo_with_config(SystemKind::HyTGraph, AlgoKind::Sssp, &g, cfg);
        row.push(secs(m.total_time));
        runtime.row(row);
        let (f, c, z, _, r) = mix_of(&m.per_iteration).fractions();
        base_mix.row(vec![label.to_string(), pct(f), pct(c), pct(z), pct(r)]);
    }

    // Two-axis grid: bandwidth x topology at D = 4.
    let mut grid = Table::new(
        format!("Extension: bandwidth x topology grid (HyTGraph SSSP on FS, D={SWEEP_DEVICES})"),
        &[
            "link",
            "topology",
            "time",
            "E-F",
            "E-C",
            "I-ZC",
            "resident",
            "exch host",
            "exch peer",
            "host KB",
            "peer KB",
            "fwd KB",
        ],
    );
    for &(label, bw) in links {
        for topo in TopologyKind::ALL {
            let cfg = cell_config(bw, topo, SWEEP_DEVICES);
            let m = run_algo_with_config(SystemKind::HyTGraph, AlgoKind::Sssp, &g, cfg);
            let (f, c, z, _, r) = mix_of(&m.per_iteration).fractions();
            let mut x = hyt_core::ExchangeStats::default();
            for it in &m.per_iteration {
                x.merge(&it.exchange);
            }
            grid.row(vec![
                label.to_string(),
                topo.name().to_string(),
                secs(m.total_time),
                pct(f),
                pct(c),
                pct(z),
                pct(r),
                secs(x.host_time),
                secs(x.peer_time),
                format!("{:.1}", x.host_bytes as f64 / 1024.0),
                format!("{:.1}", x.peer_bytes as f64 / 1024.0),
                format!("{:.1}", x.forwarded_bytes as f64 / 1024.0),
            ]);
        }
    }

    // Mixed-generation axis (ISSUE 4): a D = 8 ring on the paper's PCIe3
    // host, with per-link specs. Rows walk from a uniform ring to an
    // alternating NVLink2/NVLink4 ring and a 2 GB/s slow bridge — the
    // last sends its pair back to host staging (host KB > 0) while
    // neighbours detour device-via-device (fwd KB grows).
    let mut mixed = Table::new(
        format!(
            "Extension: mixed-generation ring (HyTGraph SSSP on FS, D={MIXED_DEVICES}, PCIe3 host)"
        ),
        &["ring", "time", "exch", "exch host", "exch peer", "host KB", "peer KB", "fwd KB"],
    );
    for (label, cfg) in mixed_ring_rows() {
        let m = run_algo_with_config(SystemKind::HyTGraph, AlgoKind::Sssp, &g, cfg);
        let mut x = hyt_core::ExchangeStats::default();
        for it in &m.per_iteration {
            x.merge(&it.exchange);
        }
        mixed.row(vec![
            label.to_string(),
            secs(m.total_time),
            secs(x.time),
            secs(x.host_time),
            secs(x.peer_time),
            format!("{:.1}", x.host_bytes as f64 / 1024.0),
            format!("{:.1}", x.peer_bytes as f64 / 1024.0),
            format!("{:.1}", x.forwarded_bytes as f64 / 1024.0),
        ]);
    }

    vec![runtime, base_mix, grid, mixed]
}
