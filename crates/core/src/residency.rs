//! The run's transfer policy: which engine ships each active partition,
//! which partitions a device keeps for the rest of a run, and what each
//! shipment costs.
//!
//! Each Table V row is one [`Policy`], built from `config.selection` when
//! a run starts; nothing else knows which system runs. Each iteration it
//! picks an engine per active partition ([`Policy::select`]), turns each
//! into the partition's one [`Delivery`] ([`Policy::resolve`]), and
//! prices what each device ships ([`Policy::ship`]).
//!
//! Every simulated GPU is a whole card: its edge budget is the card's
//! memory minus its own vertex-state replica, derated by
//! `um_utilization`. Three policies keep edge data on it. Under HyTGraph,
//! a device whose whole share (its partitions' live edges × the program's
//! bytes per edge) fits loads each partition whole on first touch,
//! whatever engine Algorithm 1 chose, and holds it after that; a device
//! whose share does not fit keeps nothing, and Algorithm 1 decides as if
//! every card were empty. Grus migrates and pins whole partitions through
//! unified memory on first touch while the budget lasts, then falls back
//! to zero-copy at its own unmerged request size ([`Pins::select`]).
//! ImpTM-UM keeps one LRU page cache per device. Nothing survives a run,
//! so a mutation between runs needs no delta-upload charge.

use crate::runner::HyTGraphSystem;
use crate::select::{select_engines, SelectParams, Selection};
use hyt_engines::{compaction, filter, zero_copy};
use hyt_engines::{EngineKind, PartitionActivity, TaskPlan, UnifiedState};
use hyt_graph::{DevicePlan, PartitionSet};
use hyt_sim::MachineModel;

/// One run's transfer policy: a Table V row's engine choice and the
/// device state it keeps.
pub(crate) enum Policy {
    /// Host-only execution (the Galois-class row): there is no device.
    Cpu,
    /// One constant engine, delivering afresh every iteration.
    Stateless,
    /// Pure unified memory: one LRU page cache per device.
    Unified(Vec<UnifiedState>),
    /// Grus: pin whole partitions on first touch until the budget is spent.
    Grus(Pins),
    /// HyTGraph: a device whose whole share fits keeps what it touches.
    Hybrid(Pins),
}

/// How one active partition reaches its device in one iteration. Decided
/// once, right after Algorithm 1 ([`Policy::resolve`]); pricing, the
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

impl Policy {
    /// `sys`'s configured policy for a run in which each card holds
    /// `budget` edge bytes and the program moves `bpe` bytes per edge.
    pub(crate) fn new(sys: &HyTGraphSystem, budget: u64, bpe: u64) -> Self {
        let (machine, num_parts) = (&sys.config.machine, sys.parts.len());
        let num_devices = sys.devices.num_devices() as usize;
        match sys.config.selection {
            Selection::Hybrid => {
                Policy::Hybrid(Pins::whole_shares(num_parts, &shares(sys, bpe), budget))
            }
            Selection::FilterOnly | Selection::CompactionOnly | Selection::ZeroCopyOnly => {
                Policy::Stateless
            }
            Selection::UnifiedOnly => Policy::Unified(
                (0..num_devices).map(|_| UnifiedState::with_budget(machine, budget)).collect(),
            ),
            Selection::GrusLike => {
                Policy::Grus(Pins::with_budgets(num_parts, (0..num_devices).map(|_| Some(budget))))
            }
            Selection::CpuOnly => Policy::Cpu,
        }
    }

    /// The run executes on the host: no partition reaches a device.
    pub(crate) fn on_host(&self) -> bool {
        matches!(self, Policy::Cpu)
    }

    /// An engine for every active partition, as `(index in acts, engine)`
    /// in partition order: Algorithm 1 or the constant engine
    /// ([`select_engines`], which prices `surplus` value bytes per gathered
    /// vertex), or Grus's residency check ([`Pins::select`]). Never asked
    /// of the CPU policy ([`select_engines`] panics).
    pub(crate) fn select(
        &mut self,
        acts: &[PartitionActivity],
        sys: &HyTGraphSystem,
        bpe: u64,
        surplus: u64,
    ) -> Vec<(usize, EngineKind)> {
        let cfg = &sys.config;
        let params = SelectParams { value_surplus: surplus, ..cfg.select_params };
        match self {
            Policy::Grus(pins) => pins.select(acts, &sys.parts, &sys.devices, bpe),
            _ => select_engines(acts, &cfg.machine.pcie, bpe, cfg.selection, &params),
        }
    }

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
                Policy::Hybrid(pins) => {
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

    /// Price shipping `shipped` (one device's members of a task) to
    /// `device` through `via`: the engine's own price, but Grus's zero-copy
    /// is penalised, and unified memory is a cache or a migrate-and-pin.
    pub(crate) fn ship(
        &mut self,
        via: EngineKind,
        device: usize,
        shipped: &[&PartitionActivity],
        sys: &HyTGraphSystem,
        bpe: u64,
        surplus: u64,
    ) -> TaskPlan {
        let (machine, graph) = (&sys.config.machine, sys.graph.view());
        match (self, via) {
            (Policy::Unified(caches), EngineKind::ImpUnified) => {
                caches[device].plan_unified(machine, graph, shipped, bpe)
            }
            (Policy::Grus(pins), EngineKind::ImpUnified) => {
                pins.plan_um(device, machine, &sys.parts, shipped, bpe)
            }
            (Policy::Grus(_), EngineKind::ImpZeroCopy) => {
                Pins::penalize_zero_copy(zero_copy::plan_zero_copy(machine, shipped))
            }
            (_, EngineKind::ExpFilter) => filter::plan_filter(machine, graph, shipped, bpe),
            (_, EngineKind::ExpCompaction) => {
                compaction::price_compaction_sized(machine, shipped, bpe, surplus)
            }
            (_, EngineKind::ImpZeroCopy) => zero_copy::plan_zero_copy(machine, shipped),
            (_, EngineKind::ImpUnified) => {
                unreachable!("only the unified-memory policies select ImpUnified")
            }
        }
    }
}

/// Each device's whole share of the edge data: its partitions' live
/// (base + delta) edges × `bpe`.
fn shares(sys: &HyTGraphSystem, bpe: u64) -> Vec<u64> {
    let mut shares = vec![0; sys.devices.num_devices() as usize];
    for p in sys.parts.partitions() {
        let edges = p.num_edges() + sys.graph.delta_edges(p.id);
        shares[sys.devices.device_of(p.id) as usize] += edges * bpe;
    }
    shares
}

/// One device's pinned partitions.
struct DevicePins {
    /// Partition's edge data is on the device for the rest of the run
    /// (under Grus: its one migration has been priced).
    resident: Vec<bool>,
    /// Bytes the device may still pin; `None` for a device that pins
    /// nothing.
    budget_left: Option<u64>,
}

/// Per-device pin sets, the state of HyTGraph's and Grus's policies.
pub(crate) struct Pins {
    devices: Vec<DevicePins>,
}

impl Pins {
    /// Nothing resident; device `d` may pin up to `budgets[d]` bytes.
    fn with_budgets(num_parts: usize, budgets: impl Iterator<Item = Option<u64>>) -> Self {
        let devices = budgets
            .map(|budget_left| DevicePins { resident: vec![false; num_parts], budget_left })
            .collect();
        Pins { devices }
    }

    /// HyTGraph: device `d` loads and keeps what it touches iff its whole
    /// share `shares[d]` fits `budget`, which it reserves up front; any
    /// other device keeps nothing.
    fn whole_shares(num_parts: usize, shares: &[u64], budget: u64) -> Self {
        Self::with_budgets(num_parts, shares.iter().map(|&s| budget.checked_sub(s)))
    }

    /// Grus's policy for every active partition, in partition order: UM
    /// when resident or when the owning device can still pin it (which
    /// reserves the bytes; [`Pins::plan_um`] makes it resident when it
    /// prices the migration), zero-copy otherwise.
    fn select(
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
    /// Each partition [`Pins::select`] sends to UM is priced in that same
    /// iteration, in exactly one task slice, so this is where it turns
    /// resident.
    fn plan_um(
        &mut self,
        device: usize,
        machine: &MachineModel,
        parts: &PartitionSet,
        refs: &[&PartitionActivity],
        bytes_per_edge: u64,
    ) -> TaskPlan {
        let page = machine.um.page_bytes;
        let resident = &mut self.devices[device].resident;
        let mut migrated_pages = 0u64;
        for a in refs {
            let pid = a.partition as usize;
            if !resident[pid] {
                resident[pid] = true;
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
    fn penalize_zero_copy(mut plan: TaskPlan) -> TaskPlan {
        plan.transfer_time *= 2.0;
        plan.counters.zero_copy_bytes *= 2;
        plan.counters.tlps *= 2;
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HyTGraphConfig;
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
        let mut policy = Policy::Hybrid(Pins::whole_shares(parts.len(), &[100, 101], 100));
        let on = |pid: usize| plan.device_of(pid as u32);
        for (round, want0) in [(0, Delivery::Load), (1, Delivery::Held)] {
            let got = policy.resolve(&decisions, &acts, &plan);
            for (pid, d) in got.into_iter().enumerate() {
                let want = if on(pid) == 0 { want0 } else { Delivery::Engine(zc) };
                assert_eq!(d, Some(want), "round {round} partition {pid}");
            }
        }
        assert!((0..acts.len()).any(|p| on(p) == 1), "device 1 must own a partition");
        // Only active partitions get a delivery, and other policies keep
        // Algorithm 1's engine.
        let got = Policy::Stateless.resolve(&decisions[1..], &acts, &plan);
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
