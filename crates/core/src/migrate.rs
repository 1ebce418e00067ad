//! Placement, device-affine migration, and peer-served zero-copy: where
//! partitions live, when one moves, and what a moved partition's warm
//! copy is worth.
//!
//! Placement is decided once at build time (and again after a delta
//! compaction) by [`build_placement`]. With
//! [`HyTGraphConfig::affine_migration`] on, the runner calls
//! `maybe_migrate` between iterations; a migrated partition leaves a warm
//! copy behind, which `config.peer_zc` lets Algorithm 1 and the zero-copy
//! price read over the direct peer link instead of host staging.

use crate::config::HyTGraphConfig;
use crate::runner::{HyTGraphSystem, EXCHANGE_RECORD_BYTES};
use crate::ValueLayout;
use hyt_engines::{zero_copy, PartitionActivity, TaskPlan};
use hyt_graph::placement::{plan_cost_driven, AffinityMatrix, PlacementPricer, AFFINITY_DENSE_CAP};
use hyt_graph::{Csr, DeviceAssignment, DevicePlan, Frontier, PartitionSet};
use hyt_sim::Interconnect;

/// Pay-off horizon of device-affine migration
/// ([`crate::config::HyTGraphConfig::affine_migration`]): a partition
/// moves only when its one-off bulk copy (priced over the routed
/// interconnect) is strictly cheaper than this many iterations of the
/// measured exchange savings the move buys. The feature targets
/// *resident* systems (the session service re-runs similar query shapes
/// against one build), so the horizon deliberately spans beyond a
/// single run's remaining iterations: the warm plan — and the copy that
/// bought it — keeps paying off across session runs.
pub const MIGRATION_HORIZON_ITERS: f64 = 32.0;

/// Iterations of activation observations the migration planner requires
/// before it trusts the measured re-activation rates at all (one hot
/// iteration is noise; a trend is a signal).
pub const MIGRATION_MIN_OBSERVATIONS: u32 = 3;

/// One applied device-affine migration (see
/// [`HyTGraphSystem::migrations`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigrationEvent {
    /// Partition that moved.
    pub partition: u32,
    /// Device it moved off.
    pub from: u32,
    /// Device that keeps activating it.
    pub to: u32,
    /// Priced one-off bulk-copy cost charged to the run that moved it.
    pub copy_cost: f64,
}

/// What the migration planner knows about the current placement. Unlike
/// run state this persists across runs of a resident system — the
/// documented exception to the resident-reuse contract.
pub(crate) struct MigrationState {
    /// Pairwise expected-exchange matrix, kept when cost-driven
    /// placement or affine migration needs it (`None` on single-device
    /// builds, past [`AFFINITY_DENSE_CAP`], or when neither feature is
    /// on).
    affinity: Option<AffinityMatrix>,
    /// `warm_copies[p]` = the device a migration moved partition `p`
    /// *off*, whose edge cache still holds `p`'s data. Peer-served
    /// zero-copy (`config.peer_zc`) reads against that copy over the
    /// direct peer link when it prices below host staging.
    warm_copies: Vec<Option<u32>>,
    /// Per-partition newly-activated-vertex observations feeding the
    /// planner (reset after every applied migration).
    react_records: Vec<u64>,
    /// Iterations observed since the last migration (or build).
    observed_iters: u32,
    /// Applied migrations, in order, across all runs of this system.
    log: Vec<MigrationEvent>,
}

impl MigrationState {
    /// Fresh state over `num_parts` partitions: nothing observed, nothing
    /// warm, nothing moved.
    pub(crate) fn new(affinity: Option<AffinityMatrix>, num_parts: usize) -> Self {
        MigrationState {
            affinity,
            warm_copies: vec![None; num_parts],
            react_records: vec![0; num_parts],
            observed_iters: 0,
            log: Vec::new(),
        }
    }

    /// A delta compaction re-partitioned the graph: every per-partition
    /// record starts over, the applied-migration log stays.
    pub(crate) fn reset(&mut self, affinity: Option<AffinityMatrix>, num_parts: usize) {
        let log = std::mem::take(&mut self.log);
        *self = MigrationState { log, ..MigrationState::new(affinity, num_parts) };
    }

    /// Partition `pid`'s adjacency changed: its warm copy predates the
    /// mutation (serving zero-copy reads from it would read the old
    /// adjacency) and its old activations described the old adjacency, so
    /// the planner starts over for it.
    pub(crate) fn invalidate(&mut self, pid: u32) {
        self.warm_copies[pid as usize] = None;
        self.react_records[pid as usize] = 0;
    }
}

/// Build the affinity matrix (when a priced feature wants it) and the
/// partition→device plan for `parts` over `working`. Shared by the
/// initial build and the post-compaction rebuild: compaction re-derives
/// placement from the folded base with exactly the construction-time
/// logic.
///
/// The matrix serves both priced features: cost-driven initial placement
/// and between-iteration affine migration. It is estimated before any
/// program runs, with the narrow layout's exchange record — placement is
/// program-agnostic, and wider records scale every entry uniformly (the
/// planner's comparisons are invariant to that scale up to route-rung
/// boundaries).
pub(crate) fn build_placement(
    config: &HyTGraphConfig,
    interconnect: &Interconnect,
    working: &Csr,
    parts: &PartitionSet,
    num_hubs: u32,
) -> (Option<AffinityMatrix>, DevicePlan) {
    let nd = config.num_devices.max(1) as u32;
    let wants_affinity = nd > 1
        && parts.len() <= AFFINITY_DENSE_CAP
        && (config.device_assignment == DeviceAssignment::CostDriven || config.affine_migration);
    let affinity =
        wants_affinity.then(|| AffinityMatrix::build(working, parts, EXCHANGE_RECORD_BYTES));
    let devices = match (config.device_assignment, affinity.as_ref()) {
        (DeviceAssignment::CostDriven, Some(aff)) => {
            // The planner lives below the simulator; the fabric
            // arrives as pricing closures over this interconnect.
            let exchange = |pubd: &[u64], holders: &[bool]| {
                interconnect.price_all_gather(pubd, holders).makespan
            };
            let compute = |edges: u64| config.machine.kernel.kernel_time(edges);
            let link = |src: u32, dst: u32, bytes: u64| interconnect.route_cost(src, dst, bytes);
            let pricer = PlacementPricer {
                exchange: &exchange,
                compute: &compute,
                link: &link,
                uniform: interconnect.is_uniform_fabric(),
            };
            plan_cost_driven(parts, nd, aff, &pricer)
        }
        // CostDriven past the dense cap (or at D = 1) degrades to its
        // documented edge-balanced fallback inside DevicePlan::build.
        (assignment, _) => DevicePlan::build(parts, nd, assignment, num_hubs),
    };
    (affinity, devices)
}

/// Which devices own at least one of the `num_parts` partitions.
pub(crate) fn shard_holders(devices: &DevicePlan, num_parts: usize) -> Vec<bool> {
    let mut holders = vec![false; devices.num_devices() as usize];
    for pid in 0..num_parts as u32 {
        holders[devices.device_of(pid) as usize] = true;
    }
    holders
}

impl HyTGraphSystem {
    /// Every device-affine migration this system has applied, in order,
    /// across all of its runs (empty unless
    /// [`HyTGraphConfig::affine_migration`] is on).
    pub fn migrations(&self) -> &[MigrationEvent] {
        &self.migration.log
    }

    /// The device still holding a warm copy of `pid`'s edge data after a
    /// migration moved the partition elsewhere (`None` for never-moved
    /// partitions).
    pub fn warm_copy_of(&self, pid: u32) -> Option<u32> {
        self.migration.warm_copies.get(pid as usize).copied().flatten()
    }

    /// The Tiz scale factor partition `pid` earns from a warm peer copy,
    /// or `None` when its zero-copy reads must host-stage as usual:
    /// peer-served zero-copy is off, the partition never migrated, it
    /// migrated back onto its warm copy's device, or the peer link does
    /// not actually price below the host path
    /// ([`Interconnect::peer_read_scale`]).
    pub(crate) fn peer_zc_scale_of(&self, pid: u32) -> Option<f64> {
        if !self.config.peer_zc {
            return None;
        }
        let holder = self.warm_copy_of(pid)?;
        let reader = self.devices.device_of(pid);
        if reader == holder {
            return None;
        }
        self.interconnect.peer_read_scale(reader, holder)
    }

    /// Price a zero-copy slice with warm peer copies in play
    /// (`config.peer_zc`): the merged launch's kernel time and transfer
    /// counters are unchanged — it is still one kernel reading the same
    /// request bytes — but the read path is re-priced per stream. The
    /// host-staged partitions pool their TLP windows as before; each
    /// peer-served partition prices its own stream and scales it by its
    /// link's advantage over host staging (pricing the streams
    /// separately is conservative: fewer requests pool per window).
    /// Returns the plan and the request bytes that bypassed the host.
    pub(crate) fn plan_zero_copy_peer_aware(
        &self,
        srefs: &[&PartitionActivity],
    ) -> (TaskPlan, u64) {
        let machine = &self.config.machine;
        let mut plan = zero_copy::plan_zero_copy(machine, srefs);
        if !self.config.peer_zc {
            return (plan, 0);
        }
        let mut host: Vec<&PartitionActivity> = Vec::new();
        let mut peer: Vec<(&PartitionActivity, f64)> = Vec::new();
        for a in srefs {
            match self.peer_zc_scale_of(a.partition) {
                Some(scale) => peer.push((a, scale)),
                None => host.push(a),
            }
        }
        if peer.is_empty() {
            return (plan, 0);
        }
        let mut transfer = 0.0;
        if !host.is_empty() {
            transfer += zero_copy::plan_zero_copy(machine, &host).transfer_time;
        }
        let mut peer_bytes = 0u64;
        for (a, scale) in &peer {
            let single = zero_copy::plan_zero_copy(machine, std::slice::from_ref(a));
            transfer += single.transfer_time * scale;
            peer_bytes += single.counters.zero_copy_bytes;
        }
        plan.transfer_time = transfer;
        (plan, peer_bytes)
    }

    /// Device-affine migration (one decision per iteration): observe
    /// which partitions the drained iteration re-activated, and once
    /// [`MIGRATION_MIN_OBSERVATIONS`] iterations of evidence exist, move
    /// the single partition whose priced exchange savings over
    /// [`MIGRATION_HORIZON_ITERS`] iterations most exceed its one-off
    /// bulk-copy cost — strictly-improvement-only; ties keep the status
    /// quo. Returns the copy cost charged to the run (0.0 when nothing
    /// moves).
    ///
    /// The savings estimate prices the affinity coupling a move stops
    /// (or starts) sending across the fabric, scaled by the partition's
    /// *measured* re-activation rate so a statically-chatty but
    /// dynamically-quiet partition never pays for a copy it won't
    /// amortise.
    pub(crate) fn maybe_migrate(&mut self, next: &Frontier, bpe: u64, layout: ValueLayout) -> f64 {
        let nd = self.devices.num_devices();
        if nd <= 1 {
            return 0.0;
        }
        let state = &mut self.migration;
        let Some(affinity) = state.affinity.as_ref() else {
            return 0.0;
        };
        state.observed_iters += 1;
        for v in next.iter() {
            state.react_records[self.parts.owner_of(v) as usize] += 1;
        }
        if state.observed_iters < MIGRATION_MIN_OBSERVATIONS {
            return 0.0;
        }
        // Static coupling is estimated with the narrow record; rescale to
        // the running program's wire record so the savings and the copy
        // are priced in the same currency.
        let rb_ratio = layout.record_bytes() as f64 / EXCHANGE_RECORD_BYTES as f64;
        let route = |src: u32, dst: u32, bytes: f64| {
            if src == dst || bytes <= 0.0 {
                0.0
            } else {
                self.interconnect.route_cost(src, dst, bytes as u64)
            }
        };
        let mut best: Option<(f64, u32, u32, f64)> = None; // (net, pid, to, copy_cost)
        for pid in 0..self.parts.len() as u32 {
            if state.react_records[pid as usize] == 0 {
                continue;
            }
            let here = self.devices.device_of(pid);
            // Per-device coupling of `pid` under the current plan, and
            // the cross-fabric cost of hosting `pid` on each candidate.
            let coupling: Vec<u64> =
                (0..nd).map(|e| affinity.device_coupling(pid, e, &self.devices)).collect();
            let cost_at = |x: u32| -> f64 {
                (0..nd)
                    .filter(|&f| f != x)
                    .map(|f| route(x, f, coupling[f as usize] as f64 * rb_ratio))
                    .sum()
            };
            let cost_here = cost_at(here);
            // Measured re-activation rate: observed publication records
            // per iteration over the all-active expectation.
            let expected = (affinity.pub_bytes(pid) / EXCHANGE_RECORD_BYTES).max(1) as f64;
            let rate = (state.react_records[pid as usize] as f64
                / (state.observed_iters as f64 * expected))
                .min(1.0);
            for to in 0..nd {
                if to == here {
                    continue;
                }
                let saving = (cost_here - cost_at(to)) * rate;
                if saving <= 0.0 {
                    continue;
                }
                let part = self.parts.get(pid);
                let bulk =
                    part.num_edges() * bpe + part.num_vertices() as u64 * layout.state_bytes();
                let copy_cost = route(here, to, bulk as f64);
                let net = saving * MIGRATION_HORIZON_ITERS - copy_cost;
                if net > 0.0 && best.is_none_or(|(b, ..)| net > b) {
                    best = Some((net, pid, to, copy_cost));
                }
            }
        }
        let Some((_, pid, to, copy_cost)) = best else {
            return 0.0;
        };
        let from = self.devices.device_of(pid);
        self.devices.reassign(pid, self.parts.get(pid).num_edges(), to);
        self.shard_holders = shard_holders(&self.devices, self.parts.len());
        state.warm_copies[pid as usize] = Some(from);
        state.log.push(MigrationEvent { partition: pid, from, to, copy_cost });
        // Fresh evidence for the next decision: the plan just changed, so
        // the old observations no longer describe it.
        state.react_records.fill(0);
        state.observed_iters = 0;
        copy_cost
    }
}
