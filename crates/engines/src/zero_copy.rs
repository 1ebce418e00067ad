//! ImpTM-zero-copy: on-demand cacheline access over PCIe TLPs (EMOGI).
//!
//! Zero-copy maps pinned host memory into the GPU address space; the kernel
//! reads neighbour runs directly over the bus in up-to-128-byte requests,
//! 256 outstanding per TLP. There is no CPU phase and no residency: every
//! access pays the bus again, but only the touched cachelines move.
//!
//! Cost follows formula (3):
//!
//! ```text
//! Tiz_i = ⌈ (Σ_{v∈Ai} ⌈Do(v)·d1/m⌉ + am(v)) / MR ⌉ · RTT_zc
//! RTT_zc = γ·RTT + (1-γ)·(Σ_{v∈Ai}Do(v) / Σ_{v∈Pi}Do(v))·RTT
//! ```
//!
//! Transferred *bytes* are counted as full cachelines (requests × 128 B):
//! the padding of partially-used requests is real bus traffic, which is how
//! EMOGI's transfer volume in Table VI exceeds its active edge volume.

use crate::activity::PartitionActivity;
use crate::plan::{EngineKind, TaskPlan};
use hyt_sim::MachineModel;

/// Price an ImpTM-zero-copy task over one or more (task-combined)
/// partitions. The merged task launches a single kernel (Algorithm 1
/// line 11) whose on-demand reads occupy bus and GPU together.
pub fn plan_zero_copy(machine: &MachineModel, acts: &[&PartitionActivity]) -> TaskPlan {
    let total_edges: u64 = acts.iter().map(|a| a.total_edges).sum();
    let requests: u64 = acts.iter().map(|a| a.zc_requests).sum();
    let mut plan = TaskPlan::over(EngineKind::ImpZeroCopy, machine, acts);
    // One merged kernel pools outstanding requests across partitions
    // (Algorithm 1 line 11): TLP count is a single global ceiling, and the
    // TLP round-trip uses the pooled active ratio. (Formula (3)'s
    // per-partition ceiling is the *selection* estimate, computed in
    // hyt-core's cost module.)
    let tlps = machine.pcie.zero_copy_tlps(requests);
    let ratio = if total_edges == 0 { 0.0 } else { plan.active_edges as f64 / total_edges as f64 };
    plan.transfer_time = tlps as f64 * machine.pcie.rtt_zc(ratio);
    plan.counters.zero_copy_bytes = requests * machine.pcie.request_bytes;
    plan.counters.tlps = tlps;
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::analyze_partitions;
    use hyt_graph::{generators, Frontier, PartitionSet};

    fn setup(active_step: usize) -> (hyt_graph::Csr, PartitionSet, Frontier, MachineModel) {
        let g = generators::rmat(9, 8.0, 3, true);
        let ps = PartitionSet::build_count(&g, 8);
        let f = Frontier::new(g.num_vertices());
        for v in (0..g.num_vertices()).step_by(active_step) {
            f.insert(v);
        }
        (g, ps, f, MachineModel::paper_platform())
    }

    #[test]
    fn bytes_are_full_cachelines() {
        let (g, ps, f, machine) = setup(11);
        let acts = analyze_partitions(g.view(), &ps, &f, &machine.pcie, g.bytes_per_edge(), 2);
        let refs: Vec<_> = acts.iter().filter(|a| a.is_active()).collect();
        let plan = plan_zero_copy(&machine, &refs);
        let requests: u64 = refs.iter().map(|a| a.zc_requests).sum();
        assert_eq!(plan.counters.zero_copy_bytes, requests * 128);
        // Cacheline padding: bytes moved >= active edge payload.
        assert!(plan.counters.zero_copy_bytes >= plan.active_edges * g.bytes_per_edge());
    }

    #[test]
    fn sparse_frontier_moves_less_than_filter() {
        let (g, ps, f, machine) = setup(97);
        let acts = analyze_partitions(g.view(), &ps, &f, &machine.pcie, g.bytes_per_edge(), 2);
        let refs: Vec<_> = acts.iter().filter(|a| a.is_active()).collect();
        let zc = plan_zero_copy(&machine, &refs);
        let ef = crate::filter::plan_filter(&machine, g.view(), &refs, g.bytes_per_edge());
        assert!(zc.counters.zero_copy_bytes < ef.counters.explicit_bytes);
        assert!(zc.transfer_time < ef.transfer_time);
    }

    #[test]
    fn no_cpu_phase_single_kernel() {
        let (g, ps, f, machine) = setup(13);
        let acts = analyze_partitions(g.view(), &ps, &f, &machine.pcie, g.bytes_per_edge(), 2);
        let refs: Vec<_> = acts.iter().filter(|a| a.is_active()).collect();
        let plan = plan_zero_copy(&machine, &refs);
        assert_eq!(plan.cpu_time, 0.0);
        assert_eq!(plan.counters.kernel_launches, 1);
        assert_eq!(plan.kind, EngineKind::ImpZeroCopy);
    }

    #[test]
    fn unsaturated_requests_hurt_many_small_vertices() {
        // The paper's Fig. 4 argument: same active edges, more active
        // vertices => more requests => more TLPs/time.
        let machine = MachineModel::paper_platform();
        let few_big = PartitionActivity {
            partition: 0,
            active_vertices: (0..3).collect(),
            active_edges: 96, // 3 vertices x 32 neighbours = 3 saturated reqs
            total_edges: 192,
            zc_requests: 3,
        };
        let many_small = PartitionActivity {
            partition: 1,
            active_vertices: (0..24).collect(),
            active_edges: 96, // 24 vertices x 4 neighbours
            total_edges: 192,
            zc_requests: 24,
        };
        let a = plan_zero_copy(&machine, &[&few_big]);
        let b = plan_zero_copy(&machine, &[&many_small]);
        assert!(b.counters.zero_copy_bytes > a.counters.zero_copy_bytes);
        // Same TLP count here (both < 256 requests) but 8x the bytes:
        assert_eq!(b.counters.zero_copy_bytes, 8 * a.counters.zero_copy_bytes);
    }

    #[test]
    fn empty_activity_costs_nothing() {
        let machine = MachineModel::paper_platform();
        let empty = PartitionActivity {
            partition: 0,
            active_vertices: vec![],
            active_edges: 0,
            total_edges: 100,
            zc_requests: 0,
        };
        let plan = plan_zero_copy(&machine, &[&empty]);
        assert_eq!(plan.transfer_time, 0.0);
        assert_eq!(plan.kernel_time, 0.0);
        assert_eq!(plan.counters.zero_copy_bytes, 0);
    }
}
