//! The Grus baseline (Table V's comparison row): unified memory as a
//! prefetch cache. Resident partitions are unified-memory hits; while the
//! owning device's budget lasts, whole partitions migrate (and pin)
//! through UM; afterwards the policy falls back to zero-copy — at Grus's
//! own, unmerged request size.

use hyt_engines::{EngineKind, PartitionActivity, TaskPlan};
use hyt_graph::{DevicePlan, PartitionSet};
use hyt_sim::MachineModel;

/// One device's partition residency.
struct GrusDevice {
    /// Partition is (or is being) cached in device memory.
    resident: Vec<bool>,
    /// Partition's first migration has been priced already.
    charged: Vec<bool>,
    budget_left: u64,
}

/// Grus-like residency for one run: each device tracks its own cached
/// partitions and remaining budget (single-device runs see exactly the
/// original global behaviour).
pub(crate) struct GrusResidency {
    devices: Vec<GrusDevice>,
}

impl GrusResidency {
    /// Nothing resident; device `d` may pin up to `budgets[d]` bytes.
    pub(crate) fn new(num_parts: usize, budgets: &[u64]) -> Self {
        let devices = budgets
            .iter()
            .map(|&budget_left| GrusDevice {
                resident: vec![false; num_parts],
                charged: vec![false; num_parts],
                budget_left,
            })
            .collect();
        GrusResidency { devices }
    }

    /// Grus's policy for every active partition, in partition order: UM
    /// when resident or when the owning device can still pin it (which
    /// reserves the bytes), zero-copy otherwise.
    pub(crate) fn select(
        &mut self,
        acts: &[PartitionActivity],
        parts: &PartitionSet,
        plan: &DevicePlan,
        bytes_per_edge: u64,
    ) -> Vec<(usize, EngineKind)> {
        acts.iter()
            .enumerate()
            .filter(|(_, a)| a.is_active())
            .map(|(i, a)| {
                let pid = a.partition as usize;
                let grus = &mut self.devices[plan.device_of(a.partition) as usize];
                if grus.resident[pid] {
                    return (i, EngineKind::ImpUnified);
                }
                let bytes = parts.get(a.partition).num_edges() * bytes_per_edge;
                if bytes <= grus.budget_left {
                    grus.budget_left -= bytes;
                    grus.resident[pid] = true;
                    (i, EngineKind::ImpUnified)
                } else {
                    (i, EngineKind::ImpZeroCopy)
                }
            })
            .collect()
    }

    /// Price a Grus unified-memory task on `device`: member partitions
    /// pay their whole span's page migration exactly once (the
    /// prefetch-and-pin), after which accesses are device-local and free.
    pub(crate) fn plan_um(
        &mut self,
        device: usize,
        machine: &MachineModel,
        parts: &PartitionSet,
        refs: &[&PartitionActivity],
        bytes_per_edge: u64,
    ) -> TaskPlan {
        let page = machine.um.page_bytes;
        let charged = &mut self.devices[device].charged;
        let mut migrated_pages = 0u64;
        for a in refs {
            let pid = a.partition as usize;
            if !charged[pid] {
                charged[pid] = true;
                let bytes = parts.get(a.partition).num_edges() * bytes_per_edge;
                migrated_pages += bytes.div_ceil(page);
            }
        }
        let mut plan = TaskPlan::over(EngineKind::ImpUnified, machine, refs);
        plan.transfer_time = machine.um.migrate_time(migrated_pages);
        plan.counters.um_bytes = migrated_pages * page;
        plan.counters.page_faults = migrated_pages;
        plan
    }

    /// Grus predates EMOGI's merged-and-aligned warp access; its
    /// zero-copy path issues ~64-byte requests, doubling TLP traffic
    /// (Fig. 3(e)).
    pub(crate) fn penalize_zero_copy(plan: &mut TaskPlan) {
        plan.transfer_time *= 2.0;
        plan.counters.zero_copy_bytes *= 2;
        plan.counters.tlps *= 2;
    }
}

#[cfg(test)]
mod tests {
    use crate::config::HyTGraphConfig;
    use crate::runner::HyTGraphSystem;
    use hyt_graph::generators;

    #[test]
    fn grus_caches_then_stops_migrating() {
        let g = generators::rmat(9, 8.0, 8, true);
        let mut cfg = crate::SystemKind::Grus.configure(HyTGraphConfig::default());
        // Plenty of budget: everything becomes resident after first touch.
        cfg.machine.edge_budget = g.edge_bytes() * 8;
        let mut sys = HyTGraphSystem::new(g, cfg);
        let r = sys.run(crate::systems::tests_support::AllActiveMin);
        let first = r.per_iteration.first().unwrap().counters.um_bytes;
        let later: u64 = r.per_iteration.iter().skip(1).map(|it| it.counters.um_bytes).sum();
        assert!(first > 0);
        assert!(later <= first, "later iterations re-migrated: {later} vs first {first}");
    }
}
