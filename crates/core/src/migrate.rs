//! Device-affine migration: when a partition moves off its positional
//! device.
//!
//! Placement is the positional [`DevicePlan::build`], decided once at
//! build time and again after a delta compaction. With
//! [`HyTGraphConfig::affine_migration`] on, the runner calls
//! `maybe_migrate` between iterations. A moved partition's edge data is
//! read from host memory like any other; the copy left on its old device
//! is not consulted (README, "Opt-ins decided by measurement").

use crate::config::HyTGraphConfig;
use crate::runner::{HyTGraphSystem, EXCHANGE_RECORD_BYTES};
use crate::ValueLayout;
use hyt_graph::placement::{AffinityMatrix, AFFINITY_DENSE_CAP};
use hyt_graph::{Csr, DevicePlan, Frontier, PartitionSet};

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
    /// Pairwise expected-exchange matrix the migration planner prices
    /// moves with (`None` with affine migration off, on single-device
    /// builds, or past [`AFFINITY_DENSE_CAP`] partitions).
    affinity: Option<AffinityMatrix>,
    /// Per-partition newly-activated-vertex observations feeding the
    /// planner (reset after every applied migration).
    react_records: Vec<u64>,
    /// Iterations observed since the last migration (or build).
    observed_iters: u32,
    /// Applied migrations, in order, across all runs of this system.
    log: Vec<MigrationEvent>,
}

impl MigrationState {
    /// Fresh state over `parts` of `working`: nothing observed, nothing
    /// moved.
    pub(crate) fn new(config: &HyTGraphConfig, working: &Csr, parts: &PartitionSet) -> Self {
        MigrationState {
            affinity: affinity_for(config, working, parts),
            react_records: vec![0; parts.len()],
            observed_iters: 0,
            log: Vec::new(),
        }
    }

    /// A delta compaction re-partitioned the graph: every per-partition
    /// record starts over, the applied-migration log stays.
    pub(crate) fn reset(&mut self, config: &HyTGraphConfig, working: &Csr, parts: &PartitionSet) {
        let log = std::mem::take(&mut self.log);
        *self = MigrationState { log, ..MigrationState::new(config, working, parts) };
    }

    /// Partition `pid`'s adjacency changed: its old activations described
    /// the old adjacency, so the planner starts over for it.
    pub(crate) fn invalidate(&mut self, pid: u32) {
        self.react_records[pid as usize] = 0;
    }
}

/// The affinity matrix, when affine migration will read it. It is
/// estimated before any program runs, with the narrow layout's exchange
/// record: the estimate is program-agnostic, and `maybe_migrate` rescales
/// it to the running program's record.
fn affinity_for(
    config: &HyTGraphConfig,
    working: &Csr,
    parts: &PartitionSet,
) -> Option<AffinityMatrix> {
    let wanted =
        config.affine_migration && config.num_devices > 1 && parts.len() <= AFFINITY_DENSE_CAP;
    wanted.then(|| AffinityMatrix::build(working, parts, EXCHANGE_RECORD_BYTES))
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
        // are priced in the same currency. For sketch programs in sync
        // runs the full record is an upper bound: their records carry
        // only the changed registers (`VertexValue::wire_bytes_since`).
        let rb_ratio = layout.record_bytes() as f64 / EXCHANGE_RECORD_BYTES as f64;
        let route = |src: u32, dst: u32, bytes: f64| {
            if src == dst || bytes <= 0.0 {
                0.0
            } else {
                // The field path, not `interconnect()`: `state` holds
                // `self.migration` mutably.
                self.sim.interconnect.route_cost(src, dst, bytes as u64)
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
        state.log.push(MigrationEvent { partition: pid, from, to, copy_cost });
        // Fresh evidence for the next decision: the plan just changed, so
        // the old observations no longer describe it.
        state.react_records.fill(0);
        state.observed_iters = 0;
        copy_cost
    }
}
