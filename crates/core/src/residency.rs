//! Device residency of edge data: which partitions a device keeps for the
//! rest of a run, and how the policies that keep any price it.
//!
//! Every simulated GPU is a whole card: its edge budget is the card's
//! memory minus its own vertex-state replica, derated by
//! `um_utilization`. Three policies keep edge data on it:
//!
//! * **HyTGraph** (`Selection::Hybrid`). A partition already on the device
//!   is the cheapest delivery of all. Each iteration,
//!   [`Residency::resolve`] turns Algorithm 1's engine for each active
//!   partition into its one [`Delivery`]. On a device whose whole share
//!   fits its budget, a partition it holds is [`Delivery::Held`] (only
//!   the kernel runs), and any other is [`Delivery::Load`]: one whole
//!   ExpTM-filter copy, kept for the rest of the run. The share is its
//!   partitions' live (base + delta) edges × the program's bytes per
//!   edge. A device whose share does not fit keeps nothing and ships
//!   through Algorithm 1's engine, so it prices as if residency did not
//!   exist. Algorithm 1 itself decides exactly as if the card were empty.
//! * **Grus** (Table V's comparison row): unified memory as a prefetch
//!   cache. Resident partitions are unified-memory hits. While the owning
//!   device's budget lasts, whole partitions migrate (and pin) through UM
//!   on first touch. After that the policy falls back to zero-copy, at
//!   Grus's own unmerged request size. Residency is an input of its
//!   selection ([`Pins::select`]), so its delivery is the engine chosen.
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

/// How one active partition reaches its device in one iteration. Decided
/// once, right after Algorithm 1 ([`Residency::resolve`]); pricing, the
/// recompute pass, the host gather and the engine mix all read it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// The device holds the partition already: only the kernel runs.
    Held,
    /// The device's whole share fits: the partition is copied whole at
    /// ExpTM-filter's price, and kept.
    Load,
    /// Algorithm 1's engine: on a device that keeps nothing, and under
    /// every policy but HyTGraph's.
    Engine(EngineKind),
}

impl Delivery {
    /// The engine that moves the partition's edge data to the device;
    /// `None` when it is there already.
    pub(crate) fn shipped_by(self) -> Option<EngineKind> {
        match self {
            Delivery::Held => None,
            Delivery::Load => Some(EngineKind::ExpFilter),
            Delivery::Engine(kind) => Some(kind),
        }
    }
}

impl Residency {
    /// Each active partition's delivery this iteration, from Algorithm 1's
    /// `decisions` (indices into `acts`, each with its engine). The result
    /// is indexed like `acts`, `None` for a partition that is not active.
    ///
    /// Under HyTGraph, a device whose whole share fits holds what it
    /// loaded in an earlier iteration and loads (and from now on holds)
    /// the rest; every other device, and every other policy, ships
    /// through Algorithm 1's engine.
    pub(crate) fn resolve(
        &mut self,
        decisions: &[(usize, EngineKind)],
        acts: &[PartitionActivity],
        plan: &DevicePlan,
    ) -> Vec<Option<Delivery>> {
        let mut out = vec![None; acts.len()];
        for &(i, kind) in decisions {
            out[i] = Some(match self {
                Residency::Hybrid(pins) => {
                    let pid = acts[i].partition;
                    let dev = &mut pins.devices[plan.device_of(pid) as usize];
                    let resident = &mut dev.resident[pid as usize];
                    if *resident {
                        Delivery::Held
                    } else if dev.budget_left.is_some() {
                        *resident = true;
                        Delivery::Load
                    } else {
                        Delivery::Engine(kind)
                    }
                }
                _ => Delivery::Engine(kind),
            });
        }
        out
    }
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
        let parts = PartitionSet::build_count(&generators::rmat(8, 8.0, 1, true), 8);
        let plan = DevicePlan::build(&parts, 2, hyt_graph::DeviceAssignment::EdgeBalanced, 0);
        let acts: Vec<_> = (0..parts.len() as u32).map(act).collect();
        let zc = EngineKind::ImpZeroCopy;
        let decisions: Vec<_> = (0..acts.len()).map(|i| (i, zc)).collect();
        // Device 0's share fits exactly, device 1's is one byte over.
        let mut residency = Residency::Hybrid(Pins::whole_shares(parts.len(), &[100, 101], 100));
        let on = |pid: usize| plan.device_of(pid as u32);
        for (round, want0) in [(0, Delivery::Load), (1, Delivery::Held)] {
            let got = residency.resolve(&decisions, &acts, &plan);
            for (pid, d) in got.into_iter().enumerate() {
                let want = if on(pid) == 0 { want0 } else { Delivery::Engine(zc) };
                assert_eq!(d, Some(want), "round {round} partition {pid}");
            }
        }
        assert!((0..acts.len()).any(|p| on(p) == 1), "device 1 must own a partition");
        // Only active partitions get a delivery, and other policies keep
        // Algorithm 1's engine.
        let got = Residency::Stateless.resolve(&decisions[1..], &acts, &plan);
        assert_eq!(got[0], None);
        assert!(got[1..].iter().all(|&d| d == Some(Delivery::Engine(zc))));
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
