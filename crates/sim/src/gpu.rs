//! GPU device presets and the composed machine model.
//!
//! Table I of the paper motivates the whole problem: GPU memory bandwidth
//! has grown from 732 GB/s (P100) to 3 TB/s (H100) while PCIe has only
//! grown 16 → 64 GB/s, leaving a ~48× gap. The presets below carry those
//! numbers plus the three evaluation GPUs of Fig. 10.

use crate::kernel::KernelModel;
use crate::pcie::PcieModel;
use crate::um::UmModel;

/// Static description of a GPU device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuModel {
    /// Marketing name.
    pub name: &'static str,
    /// Device memory bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Nominal host-link (PCIe) bandwidth, bytes/s.
    pub pcie_bw: f64,
    /// PCIe generation label for Table I.
    pub pcie_gen: &'static str,
    /// CUDA core count (scales kernel throughput).
    pub cores: u32,
    /// Device memory capacity in bytes.
    pub mem_bytes: u64,
    /// Release year (Table I).
    pub year: u32,
}

impl GpuModel {
    /// GTX 1080 (2560 cores, 8 GB) — Fig. 10.
    pub(crate) fn gtx1080() -> Self {
        GpuModel {
            name: "GTX 1080",
            mem_bw: 320.0e9,
            pcie_bw: 16.0e9,
            pcie_gen: "Gen3",
            cores: 2560,
            mem_bytes: 8 << 30,
            year: 2016,
        }
    }

    /// Tesla P100 (3584 cores, 16 GB) — Table I and Fig. 10.
    pub(crate) fn p100() -> Self {
        GpuModel {
            name: "P100",
            mem_bw: 732.0e9,
            pcie_bw: 16.0e9,
            pcie_gen: "Gen3",
            cores: 3584,
            mem_bytes: 16 << 30,
            year: 2016,
        }
    }

    /// Tesla V100 — Table I.
    pub(crate) fn v100() -> Self {
        GpuModel {
            name: "V100",
            mem_bw: 900.0e9,
            pcie_bw: 16.0e9,
            pcie_gen: "Gen3",
            cores: 5120,
            mem_bytes: 16 << 30,
            year: 2017,
        }
    }

    /// RTX 2080Ti (4352 cores, 11 GB) — the paper's main test GPU.
    pub(crate) fn rtx2080ti() -> Self {
        GpuModel {
            name: "2080Ti",
            mem_bw: 616.0e9,
            pcie_bw: 16.0e9,
            pcie_gen: "Gen3",
            cores: 4352,
            mem_bytes: 11 << 30,
            year: 2018,
        }
    }

    /// A100 — Table I.
    pub(crate) fn a100() -> Self {
        GpuModel {
            name: "A100",
            mem_bw: 1.9e12,
            pcie_bw: 32.0e9,
            pcie_gen: "Gen4",
            cores: 6912,
            mem_bytes: 40 << 30,
            year: 2020,
        }
    }

    /// H100 — Table I.
    pub(crate) fn h100() -> Self {
        GpuModel {
            name: "H100",
            mem_bw: 3.0e12,
            pcie_bw: 64.0e9,
            pcie_gen: "Gen5",
            cores: 14592,
            mem_bytes: 80 << 30,
            year: 2022,
        }
    }

    /// The Table I rows (P100, V100, A100, H100).
    pub fn table1_rows() -> Vec<GpuModel> {
        vec![Self::p100(), Self::v100(), Self::a100(), Self::h100()]
    }

    /// The Fig. 10 sweep (GTX 1080, P100, 2080Ti).
    pub fn fig10_sweep() -> Vec<GpuModel> {
        vec![Self::gtx1080(), Self::p100(), Self::rtx2080ti()]
    }

    /// Memory-bandwidth / PCIe-bandwidth ratio (Table I's last column).
    pub fn bandwidth_gap(&self) -> f64 {
        self.mem_bw / self.pcie_bw
    }
}

/// Everything the engines need to price and time an execution: the device,
/// the bus, the unified-memory subsystem, the kernel model, and the host
/// CPU compaction throughput.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineModel {
    /// The GPU device.
    pub gpu: GpuModel,
    /// The host-device bus.
    pub pcie: PcieModel,
    /// Unified-memory subsystem.
    pub um: UmModel,
    /// Kernel-time model.
    pub kernel: KernelModel,
    /// Host CPU compaction throughput in bytes/s (`Thpt_cpt` in formula
    /// (2)). Calibrated to the paper's Fig. 3(c): compaction ~34.5 % of
    /// Subway's runtime implies the 10-core Xeon gathers at roughly
    /// 1.6x the practical PCIe bandwidth (~20 GB/s of output bytes).
    pub compaction_bw: f64,
    /// Device memory of one card, out of which each simulated device
    /// carves its own vertex-state replica before caching edge data.
    /// Scaled down alongside the datasets ([`MachineModel::scaled`]).
    /// Every device of a multi-device run is a whole card.
    pub edge_budget: u64,
    /// Fraction of the edge budget unified memory can actually keep
    /// resident: the CUDA driver reserves headroom and page-level
    /// fragmentation wastes the rest, which is why near-capacity graphs
    /// (TW/FK for PR on the paper's 11 GB card) still thrash.
    pub um_utilization: f64,
}

impl MachineModel {
    /// The paper's test platform: RTX 2080Ti, PCIe 3.0, Xeon Silver 4210.
    pub fn paper_platform() -> Self {
        Self::from_gpu(GpuModel::rtx2080ti())
    }

    /// Compose a machine around `gpu`, deriving bus and UM models from its
    /// PCIe generation.
    pub fn from_gpu(gpu: GpuModel) -> Self {
        let pcie = PcieModel::with_nominal_bw(gpu.pcie_bw);
        let um = UmModel::new(&pcie);
        let kernel = KernelModel::for_gpu(&gpu);
        MachineModel {
            gpu,
            pcie,
            um,
            kernel,
            compaction_bw: 20.0e9,
            edge_budget: gpu.mem_bytes,
            um_utilization: 0.8,
        }
    }

    /// Scale the machine to 2^-shift datasets: the device edge budget
    /// shrinks by the same factor as the proxies' vertex counts, and the
    /// fixed software latencies (copy launch, kernel launch, fault overhead)
    /// shrink by the same factor so fixed-vs-streaming cost *ratios* match
    /// the paper's second-scale runs instead of dominating our
    /// millisecond-scale ones.
    ///
    /// The edge budget does not reproduce Table IV's oversubscription
    /// factor, whose sizes are on-disk bytes (14.5–16.6 B per edge). In
    /// in-memory CSR bytes, a scaled proxy's edge data is 0.91 (SK) to
    /// 1.76 (FS) times one card's edge budget with 4-byte edges, and 1.82
    /// to 3.53 times with weights; `hyt_graph::datasets` lists every
    /// ratio.
    pub fn scaled(mut self, shift: u32) -> Self {
        let f = (1u64 << shift) as f64;
        self.edge_budget >>= shift;
        self.pcie.copy_latency /= f;
        self.kernel.launch_overhead /= f;
        self.um.fault_overhead /= f;
        self
    }

    /// Simulated wall time of the CPU compaction of `bytes` (formula (2)'s
    /// second term).
    pub fn compaction_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.compaction_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_gap_stays_near_48x() {
        // The point of Table I: the gap never narrows below ~45x. (The
        // paper's printed ratios are internally inconsistent with its own
        // bandwidth figures — e.g. V100 "50X" from 900/16 = 56.25 — so we
        // assert the claim, a stable ~45-60x gap, not the printed digits.)
        for g in GpuModel::table1_rows() {
            let gap = g.bandwidth_gap();
            assert!((45.0..=60.0).contains(&gap), "{}: gap {gap:.1}", g.name);
        }
    }

    #[test]
    fn presets_have_sane_capacities() {
        assert_eq!(GpuModel::rtx2080ti().mem_bytes, 11 << 30);
        assert_eq!(GpuModel::gtx1080().mem_bytes, 8 << 30);
        assert!(GpuModel::h100().cores > GpuModel::p100().cores);
    }

    #[test]
    fn machine_derives_bus_from_gpu_generation() {
        let m3 = MachineModel::from_gpu(GpuModel::rtx2080ti());
        let m5 = MachineModel::from_gpu(GpuModel::h100());
        assert!(m5.pcie.explicit_bw > 3.0 * m3.pcie.explicit_bw);
    }

    #[test]
    fn scaling_preserves_oversubscription() {
        let m = MachineModel::paper_platform();
        let s = m.clone().scaled(10);
        assert_eq!(s.edge_budget, m.edge_budget >> 10);
    }

    #[test]
    fn compaction_time_is_linear() {
        let m = MachineModel::paper_platform();
        let t1 = m.compaction_time(1 << 20);
        let t2 = m.compaction_time(1 << 21);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
    }

    #[test]
    fn fig10_sweep_is_three_gpus() {
        let names: Vec<_> = GpuModel::fig10_sweep().iter().map(|g| g.name).collect();
        assert_eq!(names, ["GTX 1080", "P100", "2080Ti"]);
    }
}
