//! Analytic GPU kernel-time model.
//!
//! The real vertex-program execution happens on host threads (bit-correct
//! results); this model charges the simulated *time* a GPU kernel would
//! take. Graph kernels on in-memory data are memory-bandwidth-bound, so we
//! model edge throughput as proportional to device memory bandwidth with a
//! fixed bytes-per-edge traffic estimate, plus a launch overhead per kernel
//! and a mild efficiency derate for sparse frontiers (CTA under-occupancy,
//! which SEP-Graph's CTA scheduling mitigates but does not eliminate).

use crate::gpu::GpuModel;
use crate::SimTime;

/// Kernel-time model parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelModel {
    /// Peak edge-processing throughput, edges/second.
    pub peak_edges_per_sec: f64,
    /// Fixed launch + teardown overhead per kernel invocation.
    pub launch_overhead: SimTime,
    /// Minimum edges needed to reach peak occupancy; below this the kernel
    /// still pays a floor proportional to its shortfall.
    pub saturation_edges: u64,
}

/// Estimated device-memory traffic per processed edge (neighbour id read,
/// value read, value write amortised, frontier update): used to derive
/// throughput from memory bandwidth.
const BYTES_PER_EDGE_TRAFFIC: f64 = 16.0;

impl KernelModel {
    /// Derive the model from a device's memory bandwidth and core count.
    pub fn for_gpu(gpu: &GpuModel) -> Self {
        KernelModel {
            peak_edges_per_sec: gpu.mem_bw / BYTES_PER_EDGE_TRAFFIC,
            launch_overhead: 5.0e-6,
            // Rough: each core wants a few edges in flight to hide latency.
            saturation_edges: gpu.cores as u64 * 32,
        }
    }

    /// Simulated time for one kernel that relaxes `edges` edges.
    pub fn kernel_time(&self, edges: u64) -> SimTime {
        if edges == 0 {
            return 0.0;
        }
        let work = edges as f64 / self.peak_edges_per_sec;
        // Sparse-frontier derate: occupancy below saturation wastes cycles,
        // but never more than 4x (CTA scheduling recovers most of it).
        let occupancy = (edges as f64 / self.saturation_edges as f64).min(1.0);
        let derate = 1.0 + 3.0 * (1.0 - occupancy);
        self.launch_overhead + work * derate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_edges_free() {
        let k = KernelModel::for_gpu(&GpuModel::rtx2080ti());
        assert_eq!(k.kernel_time(0), 0.0);
    }

    #[test]
    fn large_kernels_hit_peak_throughput() {
        let k = KernelModel::for_gpu(&GpuModel::rtx2080ti());
        let edges = 100_000_000u64;
        let t = k.kernel_time(edges);
        let tput = edges as f64 / t;
        assert!((tput - k.peak_edges_per_sec).abs() / k.peak_edges_per_sec < 0.05);
    }

    #[test]
    fn tiny_kernels_dominated_by_launch() {
        let k = KernelModel::for_gpu(&GpuModel::rtx2080ti());
        let t = k.kernel_time(1);
        assert!(t >= k.launch_overhead);
        assert!(t < 2.0 * k.launch_overhead);
    }

    #[test]
    fn faster_gpus_run_faster() {
        let slow = KernelModel::for_gpu(&GpuModel::gtx1080());
        let fast = KernelModel::for_gpu(&GpuModel::h100());
        assert!(fast.kernel_time(10_000_000) < slow.kernel_time(10_000_000));
    }

    #[test]
    fn monotone_in_edge_count() {
        let k = KernelModel::for_gpu(&GpuModel::p100());
        let mut prev = 0.0;
        for e in [1u64, 10, 1_000, 100_000, 10_000_000] {
            let t = k.kernel_time(e);
            assert!(t > prev);
            prev = t;
        }
    }
}
