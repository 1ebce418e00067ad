//! Multi-device timeline: per-device streams and compute behind a routed
//! interconnect.
//!
//! [`MultiGpuSim`] is the simulator's one list scheduler, over `D`
//! simulated devices ([`StreamSim`](crate::StreamSim) is its `D = 1`
//! view). Each device owns its own CUDA streams and its own
//! kernel engine (kernels on *different* devices overlap freely), while
//! two resource families stay shared across the whole host:
//!
//! * **Interconnect queues** — each contention queue of the configured
//!   [`Interconnect`] (one for the host root complex, one per direction
//!   of every peer link) is tracked independently.
//!   Edge-slice transfers and zero-copy reads are host-routed (the data
//!   lives in host memory), so they queue on the host root complex from
//!   every device — with the host-only topology this is exactly one
//!   shared bus. Peer queues carry the inter-device
//!   frontier exchange, priced by [`Interconnect::price_all_gather`]
//!   over the byte-size-aware route tables (one static pass: each pair
//!   rides the route that is cheapest at its batch size).
//! * **CPU** — the host compaction pool serves every device's gather
//!   requests and serialises with itself.
//!
//! Scheduling is deterministic list scheduling: each device's task list is
//! already in that device's priority order, and at every step the
//! scheduler commits the task (across all devices) that could start
//! earliest, breaking ties toward the lower device id. Within a device,
//! a task goes to the earliest-available stream (lowest index on ties)
//! and each phase waits for its predecessor phase and its resource. With
//! `D = 1` this is plain in-order list scheduling over one bus, one GPU
//! and the host pool.

use crate::streams::{Phase, PhaseSpan, Resource, SimTask, Timeline};
use crate::topology::Interconnect;
use crate::{PcieModel, SimTime};

/// Completed multi-device schedule.
#[derive(Clone, Debug, Default)]
pub struct MultiTimeline {
    /// Elapsed time until the last device drains (the iteration barrier).
    pub makespan: SimTime,
    /// Shared-bus busy time (all devices).
    pub bus_busy: SimTime,
    /// Host compaction-pool busy time (all devices).
    pub cpu_busy: SimTime,
    /// Per-device timelines: device-local makespan, busy times and spans.
    pub per_device: Vec<Timeline>,
    /// Shared-bus occupations as `(device, start, end)`, in schedule
    /// order — bus exclusivity must hold across devices, not just within
    /// one device's timeline.
    pub bus_spans: Vec<(u32, SimTime, SimTime)>,
    /// Busy time per interconnect contention queue (index = queue id:
    /// host root complex first, then each peer link's direction queues
    /// in link order — see [`Interconnect::queue`]). Task traffic is
    /// host-routed, so peer entries stay zero here; the frontier
    /// exchange occupies them separately.
    pub link_busy: Vec<SimTime>,
}

impl MultiTimeline {
    /// Total GPU compute work across devices (Σ per-device busy time).
    pub fn gpu_busy_total(&self) -> SimTime {
        self.per_device.iter().map(|t| t.gpu_busy).sum()
    }

    /// Makespan of the busiest single device.
    pub fn max_device_makespan(&self) -> SimTime {
        self.per_device.iter().map(|t| t.makespan).fold(0.0, f64::max)
    }
}

/// Deterministic list scheduler over `D` devices behind a routed
/// interconnect and one host compaction pool.
#[derive(Clone, Debug)]
pub struct MultiGpuSim {
    /// Number of simulated devices (minimum 1).
    pub num_devices: usize,
    /// CUDA streams per device.
    pub num_streams: usize,
    /// The link set devices contend on. Task transfers are host-routed
    /// (edge data is host-resident) and queue on each device's host
    /// link; peer links are occupied by the frontier exchange.
    pub interconnect: Interconnect,
}

impl MultiGpuSim {
    /// A scheduler over `num_devices` devices with `num_streams` streams
    /// each (both clamped to at least 1), on the host-only
    /// interconnect (one shared root complex).
    pub fn new(num_devices: usize, num_streams: usize) -> Self {
        let nd = num_devices.max(1);
        Self::with_interconnect(nd, num_streams, Interconnect::host_only(nd, PcieModel::pcie3()))
    }

    /// A scheduler over an explicit interconnect (`interconnect` must
    /// span at least `num_devices` devices).
    pub fn with_interconnect(
        num_devices: usize,
        num_streams: usize,
        interconnect: Interconnect,
    ) -> Self {
        let nd = num_devices.max(1);
        assert!(
            interconnect.num_devices() >= nd,
            "interconnect spans {} devices, scheduler needs {nd}",
            interconnect.num_devices()
        );
        MultiGpuSim { num_devices: nd, num_streams: num_streams.max(1), interconnect }
    }

    /// Contention queue serving `device`'s host-side task traffic (the
    /// host root complex is a single queue in both directions).
    fn host_queue_of(&self, device: u32) -> usize {
        self.interconnect.queue(self.interconnect.host_link_of(device), false)
    }

    /// Play one priority-ordered task list per device and return the
    /// merged timeline. `tasks.len()` must equal `num_devices`.
    pub fn schedule<L: AsRef<[SimTask]>>(&self, tasks: &[L]) -> MultiTimeline {
        assert_eq!(tasks.len(), self.num_devices, "one task list per device");
        let nd = self.num_devices;
        // One slot per interconnect contention queue. Host-routed task
        // traffic from device `d` queues on `host_link_of(d)`'s single
        // queue — with one root complex that is the shared bus.
        let mut link_free = vec![0.0f64; self.interconnect.num_queues()];
        let mut cpu_free = 0.0f64;
        let mut gpu_free = vec![0.0f64; nd];
        let mut stream_free = vec![vec![0.0f64; self.num_streams]; nd];
        let mut next = vec![0usize; nd];
        let mut tl = MultiTimeline {
            per_device: vec![Timeline::default(); nd],
            link_busy: vec![0.0; self.interconnect.num_queues()],
            ..Default::default()
        };

        loop {
            // Pick the device whose head-of-queue task could start earliest.
            let mut best: Option<(f64, usize, usize)> = None; // (start, device, stream)
            for (d, queue) in tasks.iter().enumerate() {
                let Some(task) = queue.as_ref().get(next[d]) else { continue };
                let host = self.host_queue_of(d as u32);
                let (sid, cursor) = earliest_stream(&stream_free[d]);
                let start = match task.phases.first() {
                    Some(Phase::Cpu(_)) => cursor.max(cpu_free),
                    Some(Phase::Transfer(_)) => cursor.max(link_free[host]),
                    Some(Phase::Kernel(_)) => cursor.max(gpu_free[d]),
                    Some(Phase::Fused { .. }) => cursor.max(link_free[host]).max(gpu_free[d]),
                    None => cursor,
                };
                if best.is_none_or(|(s, _, _)| start < s) {
                    best = Some((start, d, sid));
                }
            }
            let Some((_, d, sid)) = best else { break };
            let task = &tasks[d].as_ref()[next[d]];
            let tid = next[d];
            next[d] += 1;
            let host = self.host_queue_of(d as u32);

            let dev_tl = &mut tl.per_device[d];
            let mut cursor = stream_free[d][sid];
            let mut first = true;
            let mut task_start = cursor;
            for phase in &task.phases {
                let dur = phase.duration();
                let start = match phase {
                    Phase::Cpu(_) => cursor.max(cpu_free),
                    Phase::Transfer(_) => cursor.max(link_free[host]),
                    Phase::Kernel(_) => cursor.max(gpu_free[d]),
                    Phase::Fused { .. } => cursor.max(link_free[host]).max(gpu_free[d]),
                };
                let end = start + dur;
                let span = |resource, fused| PhaseSpan { task: tid, resource, start, end, fused };
                match phase {
                    Phase::Cpu(t) => {
                        cpu_free = end;
                        dev_tl.cpu_busy += t;
                        dev_tl.phase_spans.push(span(Resource::Cpu, false));
                    }
                    Phase::Transfer(t) => {
                        link_free[host] = end;
                        dev_tl.pcie_busy += t;
                        tl.link_busy[host] += t;
                        dev_tl.phase_spans.push(span(Resource::Pcie, false));
                        tl.bus_spans.push((d as u32, start, end));
                    }
                    Phase::Kernel(t) => {
                        gpu_free[d] = end;
                        dev_tl.gpu_busy += t;
                        dev_tl.phase_spans.push(span(Resource::Gpu, false));
                    }
                    Phase::Fused { transfer, kernel } => {
                        link_free[host] = end;
                        gpu_free[d] = end;
                        dev_tl.pcie_busy += transfer;
                        tl.link_busy[host] += transfer;
                        dev_tl.gpu_busy += kernel;
                        dev_tl.phase_spans.push(span(Resource::Pcie, true));
                        dev_tl.phase_spans.push(span(Resource::Gpu, true));
                        tl.bus_spans.push((d as u32, start, end));
                    }
                }
                if first {
                    task_start = start;
                    first = false;
                }
                cursor = end;
            }
            stream_free[d][sid] = cursor;
            dev_tl.makespan = dev_tl.makespan.max(cursor);
            dev_tl.spans.push((task.label.clone(), task_start, cursor));
        }

        tl.makespan = tl.max_device_makespan();
        tl.bus_busy = tl.per_device.iter().map(|t| t.pcie_busy).sum();
        tl.cpu_busy = tl.per_device.iter().map(|t| t.cpu_busy).sum();
        tl
    }
}

/// Earliest-available stream (stable tie-break), as `(index, free_time)`.
fn earliest_stream(streams: &[f64]) -> (usize, f64) {
    streams
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
        .map_or((0, 0.0), |(sid, &t)| (sid, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamSim;

    fn explicit(label: &str, t: f64, k: f64) -> SimTask {
        SimTask::explicit(label, t, k)
    }

    #[test]
    fn one_device_matches_stream_sim_exactly() {
        // Durations in halves and quarters, so every span is exact.
        let tasks: Vec<SimTask> = vec![
            SimTask::compaction("c", 0.5, 1.0, 0.75),
            SimTask::zero_copy("z", 2.0, 1.5),
            explicit("e1", 1.0, 2.0),
            explicit("e2", 0.25, 0.25),
        ];
        let single = StreamSim::new(3).schedule(&tasks);
        let multi = MultiGpuSim::new(1, 3).schedule(&[&tasks]);
        // c: cpu 0–0.5, bus 0.5–1.5, gpu 1.5–2.25. z (stream 1): bus and
        // GPU are both free at 2.25, so 2.25–4.25. e1 (stream 2): bus
        // 4.25–5.25, gpu 5.25–7.25. e2 (stream 0, free at 2.25): bus
        // 5.25–5.5, gpu waits for e1 until 7.25, ends 7.5.
        let spans: Vec<(f64, f64)> = single.spans.iter().map(|&(_, s, e)| (s, e)).collect();
        assert_eq!(spans, [(0.0, 2.25), (2.25, 4.25), (4.25, 7.25), (5.25, 7.5)]);
        assert_eq!(
            (single.makespan, single.pcie_busy, single.gpu_busy, single.cpu_busy),
            (7.5, 4.25, 4.5, 0.5)
        );
        assert_eq!(multi.per_device.len(), 1);
        assert_eq!(multi.per_device[0].phase_spans, single.phase_spans);
        assert_eq!(multi.per_device[0].spans, single.spans);
        assert_eq!((multi.makespan, multi.bus_busy, multi.cpu_busy), (7.5, 4.25, 0.5));
    }

    #[test]
    fn kernels_on_different_devices_overlap() {
        // Two pure-kernel tasks: on one device they serialise (4s); on two
        // devices they run concurrently (2s).
        let t = || vec![explicit("k", 0.0, 2.0)];
        let one = MultiGpuSim::new(1, 4)
            .schedule(&[vec![explicit("a", 0.0, 2.0), explicit("b", 0.0, 2.0)]]);
        let two = MultiGpuSim::new(2, 4).schedule(&[t(), t()]);
        assert!((one.makespan - 4.0).abs() < 1e-12);
        assert!((two.makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shared_bus_serialises_across_devices() {
        // Two pure transfers on different devices still share one bus.
        let t = || vec![explicit("t", 3.0, 0.0)];
        let tl = MultiGpuSim::new(2, 4).schedule(&[t(), t()]);
        assert!((tl.makespan - 6.0).abs() < 1e-12, "makespan {}", tl.makespan);
        // Bus spans must not overlap across devices.
        let mut spans = tl.bus_spans.clone();
        spans.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        for w in spans.windows(2) {
            assert!(w[1].1 >= w[0].2 - 1e-12, "bus overlap: {spans:?}");
        }
    }

    #[test]
    fn transfer_on_one_device_overlaps_kernel_on_another() {
        // Device 0: transfer 2 then kernel 2. Device 1: transfer 2 then
        // kernel 2. Bus serialises the transfers (0-2, 2-4) but kernels
        // overlap each other: makespan 6, not 8.
        let t = || vec![explicit("x", 2.0, 2.0)];
        let tl = MultiGpuSim::new(2, 4).schedule(&[t(), t()]);
        assert!((tl.makespan - 6.0).abs() < 1e-12, "makespan {}", tl.makespan);
    }

    #[test]
    fn host_pool_is_shared_across_devices() {
        // Pure CPU gathers serialise on the one host pool even across
        // devices.
        let t = || vec![SimTask::compaction("c", 2.0, 0.0, 0.0)];
        let tl = MultiGpuSim::new(2, 2).schedule(&[t(), t()]);
        assert!((tl.makespan - 4.0).abs() < 1e-12, "makespan {}", tl.makespan);
        assert!((tl.cpu_busy - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_device_lists_are_fine() {
        let tl = MultiGpuSim::new(3, 2).schedule(&[vec![], vec![explicit("t", 1.0, 1.0)], vec![]]);
        assert!((tl.makespan - 2.0).abs() < 1e-12);
        assert!(tl.per_device[0].spans.is_empty());
        assert_eq!(tl.per_device[1].spans.len(), 1);
    }

    #[test]
    fn more_devices_never_slower_on_balanced_load() {
        let mk = |n: usize| -> Vec<Vec<SimTask>> {
            let mut lists = vec![Vec::new(); n];
            for i in 0..8 {
                lists[i % n].push(explicit(&format!("t{i}"), 0.5, 2.0));
            }
            lists
        };
        let m1 = MultiGpuSim::new(1, 4).schedule(&mk(1)).makespan;
        let m2 = MultiGpuSim::new(2, 4).schedule(&mk(2)).makespan;
        let m4 = MultiGpuSim::new(4, 4).schedule(&mk(4)).makespan;
        assert!(m2 <= m1 + 1e-9, "m2 {m2} m1 {m1}");
        assert!(m4 <= m2 + 1e-9, "m4 {m4} m2 {m2}");
        assert!(m4 < m1, "kernel overlap should win: {m4} vs {m1}");
    }

    #[test]
    fn link_busy_mirrors_bus_busy_and_peers_stay_idle() {
        use crate::topology::{Interconnect, LinkSpec, TopologyKind};
        let ic = Interconnect::build(TopologyKind::Ring, 2, PcieModel::pcie3(), LinkSpec::nvlink());
        let t = || vec![explicit("t", 3.0, 1.0), SimTask::zero_copy("z", 2.0, 0.5)];
        let tl = MultiGpuSim::with_interconnect(2, 4, ic).schedule(&[t(), t()]);
        // Host root complex + two direction queues of the full-duplex
        // peer link.
        assert_eq!(tl.link_busy.len(), 3);
        assert!((tl.link_busy[0] - tl.bus_busy).abs() < 1e-12);
        assert!(tl.link_busy[1..].iter().all(|&b| b == 0.0), "task traffic is host-routed");
    }

    #[test]
    fn peer_topology_does_not_change_task_scheduling() {
        use crate::topology::{Interconnect, LinkSpec, TopologyKind};
        // Peer links only carry the exchange; the task timeline must be
        // identical whichever topology the scheduler is built with.
        let lists = || {
            vec![
                vec![SimTask::compaction("a", 0.5, 1.0, 0.7), explicit("b", 1.0, 0.2)],
                vec![SimTask::zero_copy("c", 2.0, 0.4)],
                vec![explicit("d", 0.9, 0.9)],
            ]
        };
        let host = MultiGpuSim::new(3, 2).schedule(&lists());
        for kind in [TopologyKind::Ring, TopologyKind::AllToAll] {
            let ic = Interconnect::build(kind, 3, PcieModel::pcie3(), LinkSpec::nvlink());
            let tl = MultiGpuSim::with_interconnect(3, 2, ic).schedule(&lists());
            assert_eq!(tl.makespan, host.makespan, "{kind:?}");
            assert_eq!(tl.bus_spans, host.bus_spans, "{kind:?}");
            assert_eq!(tl.link_busy[0], host.link_busy[0], "{kind:?}");
        }
    }

    #[test]
    fn makespan_bounded_below_by_shared_resources() {
        let lists = vec![
            vec![SimTask::compaction("a", 0.5, 1.0, 0.7), explicit("b", 1.0, 0.2)],
            vec![SimTask::zero_copy("c", 2.0, 0.4), explicit("d", 0.7, 1.1)],
            vec![explicit("e", 0.9, 0.9)],
        ];
        let tl = MultiGpuSim::new(3, 2).schedule(&lists);
        assert!(tl.makespan >= tl.bus_busy - 1e-9);
        assert!(tl.makespan >= tl.cpu_busy - 1e-9);
        for dev in &tl.per_device {
            assert!(tl.makespan >= dev.gpu_busy - 1e-9);
            assert!(tl.makespan >= dev.makespan - 1e-9);
        }
        assert_eq!(tl.makespan, tl.max_device_makespan());
    }
}
