//! Per-iteration and per-run statistics.
//!
//! Everything the paper's evaluation plots need is recorded here:
//! Fig. 3(a)/(d) activity proportions, Fig. 3(b)/(c) phase breakdowns,
//! Fig. 7(a)/(b) engine mixes, Fig. 7(c)/(d) per-iteration runtimes, and
//! Table VI transfer counters.

use crate::residency::Delivery;
use hyt_engines::EngineKind;
use hyt_sim::{SimTime, TransferCounters};
use serde::Serialize;

/// How each active partition reached its device in one iteration
/// (Fig. 7(a)/(b)'s stacked proportions, plus the partitions HyTGraph's
/// residency served without Algorithm 1's engine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct EngineMix {
    /// Partitions shipped by ExpTM-filter.
    pub filter: u32,
    /// Partitions shipped by ExpTM-compaction.
    pub compaction: u32,
    /// Partitions shipped by ImpTM-zero-copy.
    pub zero_copy: u32,
    /// Partitions shipped by ImpTM-unified-memory.
    pub unified: u32,
    /// Partitions a device held already, so only the kernel ran
    /// (HyTGraph, on a device whose whole share fits).
    pub held: u32,
    /// Partitions a device whose whole share fits loaded whole on first
    /// touch, at ExpTM-filter's price whatever Algorithm 1 chose, and
    /// kept.
    pub load: u32,
}

impl EngineMix {
    /// Record `n` partitions shipped by `kind`.
    pub fn add(&mut self, kind: EngineKind, n: u32) {
        match kind {
            EngineKind::ExpFilter => self.filter += n,
            EngineKind::ExpCompaction => self.compaction += n,
            EngineKind::ImpZeroCopy => self.zero_copy += n,
            EngineKind::ImpUnified => self.unified += n,
        }
    }

    /// Record one partition's resolved delivery.
    pub(crate) fn record(&mut self, delivery: Delivery) {
        match delivery {
            Delivery::Held => self.held += 1,
            Delivery::Load => self.load += 1,
            Delivery::Engine(kind) => self.add(kind, 1),
        }
    }

    /// Merge another mix into this one (summing every field).
    pub fn merge(&mut self, other: &EngineMix) {
        self.filter += other.filter;
        self.compaction += other.compaction;
        self.zero_copy += other.zero_copy;
        self.unified += other.unified;
        self.held += other.held;
        self.load += other.load;
    }

    /// Run-total mix: the sum over a run's per-iteration records.
    pub fn sum_over<'a>(iterations: impl IntoIterator<Item = &'a IterationStats>) -> EngineMix {
        let mut total = EngineMix::default();
        for it in iterations {
            total.merge(&it.mix);
        }
        total
    }

    /// Partitions on the device without an engine: held plus loaded.
    pub fn resident(&self) -> u32 {
        self.held + self.load
    }

    /// Total active partitions.
    pub fn total(&self) -> u32 {
        self.filter + self.compaction + self.zero_copy + self.unified + self.resident()
    }

    /// `(filter, compaction, zero_copy, unified, resident)` as fractions
    /// of the total (zeros when idle); they sum to one.
    pub fn fractions(&self) -> (f64, f64, f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            self.filter as f64 / t,
            self.compaction as f64 / t,
            self.zero_copy as f64 / t,
            self.unified as f64 / t,
            self.resident() as f64 / t,
        )
    }
}

/// Per-link-class breakdown of one iteration's inter-device frontier
/// exchange (all zeros on single-device or CPU-only iterations).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct ExchangeStats {
    /// Routed exchange wall time: the makespan of its legs on the list
    /// scheduler, where legs on disjoint queues overlap (equals the
    /// serial bus time on the host-only topology). All of it is on the
    /// iteration's critical path: the legs play after the barrier.
    pub time: SimTime,
    /// Always zero; kept for the frozen harness until ROADMAP's `wall` v2 item.
    pub hidden: SimTime,
    /// Host-port busy time, summed over the ports (staged uploads +
    /// downloads).
    pub host_time: SimTime,
    /// Peer-link busy time (direct device-to-device legs).
    pub peer_time: SimTime,
    /// Bytes that crossed the host ports (staged records count on both
    /// hops).
    pub host_bytes: u64,
    /// Bytes that crossed peer links (a forwarded record counts on
    /// every hop).
    pub peer_bytes: u64,
    /// Bytes relayed device-via-device through intermediate hops of
    /// forwarded routes (zero when every route is direct or
    /// host-staged).
    pub forwarded_bytes: u64,
    /// Records delivered: published vertices × (shard holders − 1). With
    /// changed-register records their sizes vary, so this is the count
    /// `payload bytes / record bytes` no longer gives.
    pub records: u64,
    /// Device batches that named their vertices with a bitmap over the
    /// device's owned vertices instead of an id list, because it was
    /// shorter ([`crate::exchange`]).
    pub bitmap_batches: u64,
    /// Always zero; kept for the frozen harness until ROADMAP's `wall` v2 item.
    pub rerouted_bytes: u64,
    /// Always zero; kept for the frozen harness until ROADMAP's `wall` v2 item.
    pub split_bytes: u64,
    /// Always zero; kept for the frozen harness until ROADMAP's `wall` v2 item.
    pub peer_zc_bytes: u64,
}

impl ExchangeStats {
    /// Accumulate another iteration's exchange into this one (run-total
    /// reporting).
    pub fn merge(&mut self, other: &ExchangeStats) {
        self.time += other.time;
        self.host_time += other.host_time;
        self.peer_time += other.peer_time;
        self.host_bytes += other.host_bytes;
        self.peer_bytes += other.peer_bytes;
        self.forwarded_bytes += other.forwarded_bytes;
        self.records += other.records;
        self.bitmap_batches += other.bitmap_batches;
    }
}

/// One routed all-gather, as the runner records it.
impl From<&hyt_sim::ExchangeReport> for ExchangeStats {
    fn from(r: &hyt_sim::ExchangeReport) -> Self {
        ExchangeStats {
            time: r.makespan,
            host_time: r.host_time,
            peer_time: r.peer_time,
            host_bytes: r.host_bytes,
            peer_bytes: r.peer_bytes,
            forwarded_bytes: r.forwarded_bytes,
            ..ExchangeStats::default()
        }
    }
}

/// One device's share of an iteration (multi-GPU runs record one entry
/// per device; CPU-only iterations record none).
#[derive(Clone, Debug, Serialize)]
pub struct DeviceIterationStats {
    /// Device id.
    pub device: u32,
    /// Scheduled task slices on this device.
    pub tasks: u32,
    /// Engine mix over this device's active partitions.
    pub mix: EngineMix,
    /// Device-local makespan (the iteration barrier waits for the max).
    pub time: SimTime,
    /// Busy time of this device's task transfers on its PCIe host port
    /// (a port may be shared with other devices; exchange legs are not
    /// included).
    pub transfer_time: SimTime,
    /// This device's kernel busy time.
    pub compute_time: SimTime,
}

/// One iteration's record.
#[derive(Clone, Debug, Serialize)]
pub struct IterationStats {
    /// Iteration number (0-based).
    pub iteration: u32,
    /// Active vertices at iteration start.
    pub active_vertices: u64,
    /// Active edges at iteration start.
    pub active_edges: u64,
    /// Partitions with any activity.
    pub active_partitions: u32,
    /// Total partitions.
    pub total_partitions: u32,
    /// Engine mix over active partitions.
    pub mix: EngineMix,
    /// Scheduled tasks after combining.
    pub tasks: u32,
    /// Iteration makespan (simulated seconds), final when the iteration
    /// returns: on the GPU path, the task barrier plus `exchange.time`
    /// plus the per-iteration orchestration overhead
    /// ([`crate::runner::ITERATION_OVERHEAD_COPIES`]).
    pub time: SimTime,
    /// Interconnect busy time within the iteration: the tasks' bus time
    /// plus the exchange legs' host and peer link time.
    pub transfer_time: SimTime,
    /// GPU busy time.
    pub compute_time: SimTime,
    /// CPU compaction busy time.
    pub compaction_time: SimTime,
    /// Routed exchange breakdown per link class (host vs peer); all
    /// zeros on single-device and CPU-only iterations. The wall time is
    /// `exchange.time`.
    pub exchange: ExchangeStats,
    /// Per-device breakdown (one entry per simulated GPU; empty for
    /// CPU-only iterations).
    pub per_device: Vec<DeviceIterationStats>,
    /// Transfer counters for the iteration.
    pub counters: TransferCounters,
}

/// Whole-run result.
#[derive(Clone, Debug)]
pub struct RunResult<V> {
    /// Final vertex values in **original** vertex-id order (hub-sort
    /// relabelling, if any, is undone).
    pub values: Vec<V>,
    /// Iterations executed.
    pub iterations: u32,
    /// Total simulated runtime: the startup edge passes plus the
    /// in-order sum of every `per_iteration[i].time`.
    pub total_time: SimTime,
    /// Per-iteration records.
    pub per_iteration: Vec<IterationStats>,
    /// Run-total transfer counters.
    pub counters: TransferCounters,
    /// The per-vertex value footprint the run was priced with (lanes
    /// resident, wire bytes exchanged).
    pub value_layout: crate::api::ValueLayout,
}

impl<V> RunResult<V> {
    /// Transfer volume normalised to edge-data volume (Table VI's metric).
    pub fn transfer_ratio(&self, edge_bytes: u64) -> f64 {
        self.counters.transfer_ratio(edge_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_accumulates_and_fractions() {
        let mut m = EngineMix::default();
        m.add(EngineKind::ExpFilter, 3);
        m.add(EngineKind::ImpZeroCopy, 1);
        m.add(EngineKind::ExpFilter, 1);
        assert_eq!(m.total(), 5);
        let mut merged = EngineMix::default();
        merged.add(EngineKind::ImpUnified, 2);
        merged.merge(&m);
        assert_eq!(merged.total(), 7);
        assert_eq!((merged.filter, merged.zero_copy, merged.unified), (4, 1, 2));
        let (f, c, z, u, r) = m.fractions();
        assert!((f - 0.8).abs() < 1e-12);
        assert_eq!(c, 0.0);
        assert!((z - 0.2).abs() < 1e-12);
        assert_eq!((u, r), (0.0, 0.0));
        // Resident partitions count in the total and in their own column.
        m.record(Delivery::Held);
        m.record(Delivery::Load);
        m.record(Delivery::Engine(EngineKind::ExpCompaction));
        assert_eq!((m.held, m.load, m.compaction, m.total()), (1, 1, 1, 8));
        let (f, c, z, u, r) = m.fractions();
        assert!((f + c + z + u + r - 1.0).abs() < 1e-12);
        assert!((r - 0.25).abs() < 1e-12);
        merged.merge(&m);
        assert_eq!((merged.resident(), merged.total()), (2, 15));
    }

    #[test]
    fn empty_mix_has_zero_fractions() {
        let m = EngineMix::default();
        assert_eq!(m.fractions(), (0.0, 0.0, 0.0, 0.0, 0.0));
    }
}
