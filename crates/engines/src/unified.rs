//! ImpTM-unified-memory: page-fault migration with device residency.
//!
//! Unified memory migrates 4 KB pages on first touch and keeps them
//! resident until LRU eviction. Two regimes follow (Section III-B):
//!
//! * graph fits in device memory → everything transfers exactly once, all
//!   later iterations run at device speed (why UM wins the SK column of
//!   Table V);
//! * graph oversubscribes → steady-state page thrash at 73.9 % of explicit
//!   bandwidth plus fault overhead, with page-granular redundancy
//!   (Fig. 3(d)).
//!
//! Unlike the other engines this one is stateful: [`UnifiedState`] carries
//! the page cache across tasks *and* iterations. `cudaMemAdviseSetReadMostly`
//! is assumed (evictions drop pages, no write-back), matching the paper's
//! configuration.

use crate::activity::PartitionActivity;
use crate::plan::{EngineKind, TaskPlan};
use hyt_graph::AdjacencyView;
use hyt_sim::{MachineModel, UmCache};

/// Persistent unified-memory residency state.
#[derive(Debug)]
pub struct UnifiedState {
    cache: UmCache,
}

impl UnifiedState {
    /// Fresh state over the machine's device edge budget.
    pub fn new(machine: &MachineModel) -> Self {
        Self::with_budget(machine, machine.edge_budget)
    }

    /// Fresh state over an explicit byte budget (the runner subtracts the
    /// GPU-resident vertex-associated data from the device capacity).
    pub fn with_budget(machine: &MachineModel, budget: u64) -> Self {
        UnifiedState { cache: UmCache::new(machine.um, budget) }
    }

    /// Price an ImpTM-unified task over (task-combined) partitions: touch
    /// every active vertex's neighbour run in the page cache, charge
    /// migration for the faulted pages, fuse with the kernel.
    pub fn plan_unified(
        &mut self,
        machine: &MachineModel,
        graph: AdjacencyView<'_>,
        acts: &[&PartitionActivity],
        bytes_per_edge: u64,
    ) -> TaskPlan {
        let bpe = bytes_per_edge;
        let mut faulted_pages = 0u64;
        for &v in acts.iter().flat_map(|a| &a.active_vertices) {
            faulted_pages +=
                self.cache.touch_range(graph.edge_offset(v) * bpe, graph.out_degree(v) * bpe);
        }
        let um_bytes = faulted_pages * machine.um.page_bytes;
        let mut plan = TaskPlan::over(EngineKind::ImpUnified, machine, acts);
        plan.transfer_time = machine.um.migrate_time(faulted_pages);
        plan.counters.um_bytes = um_bytes;
        plan.counters.page_faults = faulted_pages;
        plan.counters.tlps = machine.pcie.explicit_copy_tlps(um_bytes);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::analyze_partitions;
    use hyt_graph::{generators, Csr, Frontier, PartitionSet};

    fn setup() -> (Csr, PartitionSet, MachineModel) {
        let g = generators::rmat(9, 8.0, 3, true);
        let ps = PartitionSet::build_count(&g, 8);
        // Plenty of device memory by default.
        let machine = MachineModel::paper_platform();
        (g, ps, machine)
    }

    fn full_acts(g: &Csr, ps: &PartitionSet, m: &MachineModel) -> Vec<PartitionActivity> {
        let f = Frontier::full(g.num_vertices());
        analyze_partitions(g.view(), ps, &f, &m.pcie, g.bytes_per_edge(), 2)
    }

    #[test]
    fn second_sweep_is_free_when_graph_fits() {
        let (g, ps, machine) = setup();
        let mut state = UnifiedState::new(&machine);
        let acts = full_acts(&g, &ps, &machine);
        let refs: Vec<_> = acts.iter().collect();
        let first = state.plan_unified(&machine, g.view(), &refs, g.bytes_per_edge());
        let second = state.plan_unified(&machine, g.view(), &refs, g.bytes_per_edge());
        assert!(first.counters.page_faults > 0);
        assert_eq!(second.counters.page_faults, 0);
        assert_eq!(second.transfer_time, 0.0);
        // Kernel still runs.
        assert!(second.kernel_time > 0.0);
    }

    #[test]
    fn oversubscription_causes_thrash() {
        let (g, ps, mut machine) = setup();
        // Budget: a quarter of the edge data.
        machine.edge_budget = g.edge_bytes() / 4;
        let mut state = UnifiedState::new(&machine);
        let acts = full_acts(&g, &ps, &machine);
        let refs: Vec<_> = acts.iter().collect();
        let first = state.plan_unified(&machine, g.view(), &refs, g.bytes_per_edge());
        let second = state.plan_unified(&machine, g.view(), &refs, g.bytes_per_edge());
        assert!(first.counters.page_faults > 0);
        // Sequential sweep over 4x capacity: LRU refaults nearly all pages.
        assert!(
            second.counters.page_faults > first.counters.page_faults / 2,
            "second sweep faults {} vs first {}",
            second.counters.page_faults,
            first.counters.page_faults
        );
    }

    #[test]
    fn page_granularity_causes_redundancy() {
        // Fig. 3(d): touching a few edges faults whole pages.
        let (g, ps, machine) = setup();
        let mut state = UnifiedState::new(&machine);
        let f = Frontier::new(g.num_vertices());
        f.insert(10);
        let acts = analyze_partitions(g.view(), &ps, &f, &machine.pcie, g.bytes_per_edge(), 2);
        let refs: Vec<_> = acts.iter().filter(|a| a.is_active()).collect();
        let plan = state.plan_unified(&machine, g.view(), &refs, g.bytes_per_edge());
        if g.out_degree(10) > 0 {
            assert!(plan.counters.um_bytes >= 4096);
            assert!(plan.counters.um_bytes >= g.out_degree(10) * g.bytes_per_edge());
        }
    }
}
