//! Device residency of edge data: which partitions a device keeps for the
//! rest of a run, and how the policies that keep any price it.
//!
//! Every simulated GPU is a whole card: its edge budget is the card's
//! memory minus its own vertex-state replica, derated by
//! `um_utilization`. Three policies keep edge data on it:
//!
//! * **HyTGraph** (`Selection::Hybrid`). A partition already on the device
//!   is the cheapest delivery of all. A device whose whole share fits its
//!   budget loads each partition whole on its first touch, by one
//!   ExpTM-filter copy whatever engine Algorithm 1 chose, and keeps it.
//!   The share is its partitions' live (base + delta) edges × the
//!   program's bytes per edge. Algorithm 1 decides exactly as before. A
//!   slice whose members the device all holds is priced kernel-only, and
//!   a mixed slice loads only the members it does not hold yet. A device
//!   whose share does not fit keeps nothing, so it prices as if
//!   residency did not exist.
//! * **Grus** (Table V's comparison row): unified memory as a prefetch
//!   cache. Resident partitions are unified-memory hits. While the owning
//!   device's budget lasts, whole partitions migrate (and pin) through UM
//!   on first touch. After that the policy falls back to zero-copy, at
//!   Grus's own unmerged request size.
//! * **ImpTM-UM** (`Selection::UnifiedOnly`): one LRU page cache per
//!   device.
//!
//! HyTGraph and Grus share one pin set, [`Pins`]. All of it lives in the
//! run's state: nothing survives a run, so a mutation between runs needs
//! no delta-upload charge.

use hyt_engines::{EngineKind, PartitionActivity, TaskPlan, UnifiedState};
use hyt_graph::{DevicePlan, PartitionSet};
use hyt_sim::MachineModel;

/// Device residency of edge data for one run.
pub(crate) enum Residency {
    /// Filter, compaction and zero-copy deliver afresh every iteration
    /// (the single-engine baselines).
    Stateless,
    /// Pure unified memory: one LRU page cache per device.
    Unified(Vec<UnifiedState>),
    /// The Grus baseline: pin whole partitions on first touch until the
    /// budget is spent.
    Grus(Pins),
    /// HyTGraph: load each partition whole on first touch and keep it, on
    /// devices whose whole share fits.
    Hybrid(Pins),
}

/// One device's pinned partitions.
struct DevicePins {
    /// Partition's edge data is on the device for the rest of the run.
    resident: Vec<bool>,
    /// Partition's one migration has been priced already (Grus).
    charged: Vec<bool>,
    /// Bytes the device may still pin; `None` for a device that pins
    /// nothing.
    budget_left: Option<u64>,
}

/// Per-device pin sets (single-device runs see exactly the original
/// global behaviour).
pub(crate) struct Pins {
    devices: Vec<DevicePins>,
}

impl Pins {
    fn with_budgets(num_parts: usize, budgets: impl Iterator<Item = Option<u64>>) -> Self {
        let devices = budgets
            .map(|budget_left| DevicePins {
                resident: vec![false; num_parts],
                charged: vec![false; num_parts],
                budget_left,
            })
            .collect();
        Pins { devices }
    }

    /// Grus: nothing resident; each of `num_devices` devices may pin up to
    /// `budget` bytes on first touch.
    pub(crate) fn first_touch(num_parts: usize, num_devices: usize, budget: u64) -> Self {
        Self::with_budgets(num_parts, (0..num_devices).map(|_| Some(budget)))
    }

    /// HyTGraph: nothing resident yet. Device `d` loads and keeps what it
    /// touches iff its whole share `shares[d]` fits `budget`, which it
    /// reserves up front; any other device keeps nothing.
    pub(crate) fn whole_shares(num_parts: usize, shares: &[u64], budget: u64) -> Self {
        Self::with_budgets(num_parts, shares.iter().map(|&s| budget.checked_sub(s)))
    }

    /// HyTGraph: `device`'s whole share fits, so it loads whole and keeps
    /// every partition it touches.
    pub(crate) fn fits(&self, device: usize) -> bool {
        self.devices[device].budget_left.is_some()
    }

    /// Partition `pid`'s edge data is already on `device`.
    pub(crate) fn holds(&self, device: usize, pid: u32) -> bool {
        self.devices[device].resident[pid as usize]
    }

    /// HyTGraph: `device` just shipped `acts`' partitions, and keeps them
    /// when its whole share fits (everything such a device ships is
    /// whole).
    pub(crate) fn keep(&mut self, device: usize, acts: &[&PartitionActivity]) {
        let dev = &mut self.devices[device];
        if dev.budget_left.is_some() {
            for a in acts {
                dev.resident[a.partition as usize] = true;
            }
        }
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
                match grus.budget_left {
                    Some(left) if bytes <= left => {
                        grus.budget_left = Some(left - bytes);
                        grus.resident[pid] = true;
                        (i, EngineKind::ImpUnified)
                    }
                    _ => (i, EngineKind::ImpZeroCopy),
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
    use super::*;
    use crate::config::HyTGraphConfig;
    use crate::runner::HyTGraphSystem;
    use hyt_graph::generators;

    fn act(partition: u32) -> PartitionActivity {
        PartitionActivity {
            partition,
            active_vertices: vec![0],
            active_edges: 1,
            total_edges: 1,
            zc_requests: 1,
        }
    }

    #[test]
    fn whole_share_is_all_or_nothing_per_device() {
        // Device 0's share fits exactly, device 1's is one byte over.
        let mut pins = Pins::whole_shares(4, &[100, 101], 100);
        let (a, b) = (act(0), act(1));
        pins.keep(0, &[&a]);
        pins.keep(1, &[&b]);
        assert!(pins.holds(0, 0));
        assert!(!pins.holds(1, 1), "a device whose share does not fit keeps nothing");
        assert!(!pins.holds(0, 1));
    }

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
