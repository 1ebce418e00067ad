//! ExpTM-filter: ship whole partitions that contain any active edge.
//!
//! The filter engine (GraphReduce / Graphie / GTS style) does no CPU work:
//! every partition with at least one active vertex is copied to the device
//! in its entirety with `cudaMemcpy`. Bandwidth utilisation is maximal
//! (saturated TLPs), redundancy is everything inactive inside the shipped
//! partitions — formula (1):
//!
//! ```text
//! Tef_i = ⌈ (Σ_{v∈Pi} Do(v)) · d1 / m / MR ⌉ · RTT
//! ```

use crate::activity::PartitionActivity;
use crate::plan::{EngineKind, TaskPlan};
use hyt_graph::AdjacencyView;
use hyt_sim::MachineModel;

/// Price an ExpTM-filter task over one or more (task-combined) partitions.
///
/// Transfer covers every byte of each partition; the kernel relaxes only
/// the active edges (the GPU-side frontier check skips inactive vertices
/// after the data is resident). `graph` is not read — the activity
/// records hold every sum the price needs; the parameter stays because
/// the frozen `wall` benchmark harness passes it.
pub fn plan_filter(
    machine: &MachineModel,
    graph: AdjacencyView<'_>,
    acts: &[&PartitionActivity],
    bytes_per_edge: u64,
) -> TaskPlan {
    let _ = graph;
    let bytes = acts.iter().map(|a| a.total_edges).sum::<u64>() * bytes_per_edge;
    let mut plan = TaskPlan::over(EngineKind::ExpFilter, machine, acts);
    plan.transfer_time = machine.pcie.explicit_copy_time(bytes);
    plan.counters.explicit_bytes = bytes;
    plan.counters.tlps = machine.pcie.explicit_copy_tlps(bytes);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::analyze_partitions;
    use hyt_graph::{generators, Frontier, PartitionSet};
    use hyt_sim::PcieModel;

    #[test]
    fn transfers_whole_partition_even_for_one_active_vertex() {
        let g = generators::rmat(9, 8.0, 3, true);
        let ps = PartitionSet::build_count(&g, 8);
        let f = Frontier::new(g.num_vertices());
        f.insert(0); // one active vertex
        let machine = MachineModel::paper_platform();
        let acts =
            analyze_partitions(g.view(), &ps, &f, &PcieModel::pcie3(), g.bytes_per_edge(), 2);
        let a = &acts[ps.owner_of(0) as usize];
        let plan = plan_filter(&machine, g.view(), &[a], g.bytes_per_edge());
        // Bytes cover the full partition, not just vertex 0's run.
        assert_eq!(plan.counters.explicit_bytes, a.total_edges * g.bytes_per_edge());
        assert!(plan.counters.explicit_bytes > g.out_degree(0) * g.bytes_per_edge());
        assert_eq!(plan.cpu_time, 0.0);
        assert_eq!(plan.active_edges, g.out_degree(0));
    }

    #[test]
    fn combined_partitions_sum_bytes() {
        let g = generators::rmat(9, 8.0, 4, true);
        let ps = PartitionSet::build_count(&g, 8);
        let f = Frontier::full(g.num_vertices());
        let machine = MachineModel::paper_platform();
        let acts =
            analyze_partitions(g.view(), &ps, &f, &PcieModel::pcie3(), g.bytes_per_edge(), 2);
        let refs: Vec<_> = acts.iter().take(3).collect();
        let plan = plan_filter(&machine, g.view(), &refs, g.bytes_per_edge());
        let want: u64 = refs.iter().map(|a| a.total_edges).sum::<u64>() * g.bytes_per_edge();
        assert_eq!(plan.counters.explicit_bytes, want);
        assert_eq!(plan.active_edges, refs.iter().map(|a| a.active_edges).sum::<u64>());
        assert_eq!(plan.counters.kernel_launches, 1);
    }

    #[test]
    fn transfer_time_matches_formula_one() {
        let g = generators::rmat(8, 8.0, 5, false);
        let ps = PartitionSet::build_count(&g, 4);
        let f = Frontier::full(g.num_vertices());
        let machine = MachineModel::paper_platform();
        let acts = analyze_partitions(g.view(), &ps, &f, &machine.pcie, g.bytes_per_edge(), 2);
        let plan = plan_filter(&machine, g.view(), &[&acts[0]], g.bytes_per_edge());
        let bytes = acts[0].total_edges * g.bytes_per_edge();
        let tlp_payload = machine.pcie.request_bytes * machine.pcie.max_requests;
        let tlps = bytes.div_ceil(tlp_payload);
        let rtt = tlp_payload as f64 / machine.pcie.explicit_bw;
        let want = machine.pcie.copy_latency + tlps as f64 * rtt;
        assert!((plan.transfer_time - want).abs() < 1e-15);
    }
}
