//! Multi-device timeline: per-device streams and compute behind a routed
//! interconnect, and the frontier exchange's legs on it.
//!
//! [`MultiGpuSim`] is the simulator's one list scheduler, over `D`
//! simulated devices ([`StreamSim`](crate::StreamSim) is its `D = 1`
//! view). Each device owns its streams and its kernel engine (kernels on
//! *different* devices overlap freely); shared across the host are each
//! contention queue of the [`Interconnect`] (one per host port, one per
//! direction of every peer link) and the host compaction pool. Task
//! traffic is host-routed (edge data lives in host memory), so it queues
//! on its device's host port
//! ([`Interconnect::host_link_of`]): one queue per PCIe switch uplink,
//! shared by the two devices behind it.
//!
//! One loop plays two kinds of lane: a device's task list, in that
//! device's priority order, and an exchange leg chain, one batch's
//! [`Phase::Link`] hops in route order, played after the barrier
//! ([`MultiGpuSim::schedule_exchange`]). Each step commits the lane head
//! that could start earliest. A task takes its device's earliest-free
//! stream (lowest index on ties) and each phase waits for its predecessor
//! and its resource; a hop waits only for its chain's previous hop and
//! its queue, and a chain's first hop for the chains it is released
//! after (a host-staged download for the uploads it carries). Ties go to
//! the chain with more hops left, then to the lower lane: the lower
//! device, or the earlier leg in routing order.

use crate::streams::{Owner, Phase, PhaseSpan, Resource, SimTask, Timeline};
use crate::topology::{ExchangeReport, Interconnect};
use crate::{PcieModel, SimTime};
use std::ops::Range;

/// Completed multi-device schedule.
#[derive(Clone, Debug, Default)]
pub struct MultiTimeline {
    /// Elapsed time until the last device drains (the iteration barrier)
    /// or, once the exchange has played, until its last leg lands.
    pub makespan: SimTime,
    /// Host-port busy time of the tasks: the sum over all ports (and so
    /// over all devices), not the busiest port. A port's own share is its
    /// [`MultiTimeline::link_busy`] entry.
    pub bus_busy: SimTime,
    /// Host compaction-pool busy time (all devices).
    pub cpu_busy: SimTime,
    /// Per-device timelines: device-local makespan and busy times.
    pub per_device: Vec<Timeline>,
    /// Busy time per interconnect contention queue (index =
    /// [`Interconnect::queue`] id, host ports first). Task traffic
    /// is host-routed, so only exchange legs occupy the peer entries.
    pub link_busy: Vec<SimTime>,
    /// The one record of the schedule: every phase occupation of every
    /// task and exchange hop, once, in commit order (so each task's and
    /// each chain's in phase order). No two spans on one [`Resource`]
    /// overlap.
    pub spans: Vec<PhaseSpan>,
}

/// Deterministic list scheduler over `D` devices behind a routed
/// interconnect and one host compaction pool.
#[derive(Clone, Debug)]
pub struct MultiGpuSim {
    /// Number of simulated devices (minimum 1).
    pub num_devices: usize,
    /// CUDA streams per device.
    pub num_streams: usize,
    /// The link set devices contend on: task transfers queue on each
    /// device's host link, the frontier exchange on any link.
    pub interconnect: Interconnect,
}

impl MultiGpuSim {
    /// A scheduler over `num_devices` devices with `num_streams` streams
    /// each (both clamped to at least 1), on the host-only
    /// interconnect ([`Interconnect::host_only`]: one host port per two
    /// devices).
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

    /// Play one priority-ordered task list per device and return the
    /// merged timeline. `tasks.len()` must equal `num_devices`.
    pub fn schedule<L: AsRef<[SimTask]>>(&self, tasks: &[L]) -> MultiTimeline {
        assert_eq!(tasks.len(), self.num_devices, "one task list per device");
        let (ic, ns) = (&self.interconnect, self.num_streams);
        let mut lanes: Vec<Lane<'_>> = (tasks.iter().enumerate())
            .map(|(d, list)| Lane {
                device: d,
                host: ic.queue(ic.host_link_of(d as u32), false),
                items: Items::Tasks(list.as_ref()),
                after: &[],
                slots: d * ns..(d + 1) * ns,
                next: 0,
            })
            .collect();
        let mut tl = MultiTimeline {
            per_device: vec![Timeline::default(); self.num_devices],
            link_busy: vec![0.0; ic.num_queues()],
            ..Default::default()
        };
        play(&mut lanes, &mut tl);
        tl.bus_busy = tl.per_device.iter().map(|t| t.pcie_busy).sum();
        tl.cpu_busy = tl.per_device.iter().map(|t| t.cpu_busy).sum();
        tl
    }

    /// Route the frontier all-gather ([`Interconnect::price_all_gather`])
    /// and play its legs after `tl`'s barrier, which moves to the last
    /// leg's landing; the report's makespan is the legs' own.
    pub fn schedule_exchange(
        &self,
        tl: &mut MultiTimeline,
        owned: &[u64],
        participates: &[bool],
    ) -> ExchangeReport {
        let (mut report, legs) = self.interconnect.route_all_gather(owned, participates);
        report.makespan = play_legs(&legs, tl);
        report
    }
}

/// An exchange's leg chains in one buffer: chain `c` is `hops[chains[c]]`
/// and is released once chains `after[waits[c]]` have landed.
#[derive(Debug, Default)]
pub(crate) struct Legs {
    hops: Vec<Phase>,
    chains: Vec<Range<usize>>,
    after: Vec<usize>,
    waits: Vec<Range<usize>>,
}

impl Legs {
    /// Add a chain released once every chain in `after` (each pushed
    /// earlier) has landed; returns its index.
    pub(crate) fn push(
        &mut self,
        after: &[usize],
        chain: impl IntoIterator<Item = Phase>,
    ) -> usize {
        let c = self.chains.len();
        debug_assert!(after.iter().all(|&a| a < c), "a chain waits only for earlier chains");
        let (first, wait) = (self.hops.len(), self.after.len());
        self.hops.extend(chain);
        self.after.extend_from_slice(after);
        self.chains.push(first..self.hops.len());
        self.waits.push(wait..self.after.len());
        c
    }
}

/// Play `legs` after `tl`'s barrier; returns the legs' own makespan.
pub(crate) fn play_legs(legs: &Legs, tl: &mut MultiTimeline) -> SimTime {
    let mut lanes: Vec<Lane<'_>> = (legs.chains.iter().zip(&legs.waits).enumerate())
        .map(|(c, (hops, wait))| Lane {
            device: 0,
            host: 0,
            items: Items::Hops(&legs.hops[hops.clone()]),
            after: &legs.after[wait.clone()],
            slots: c..c + 1,
            next: 0,
        })
        .collect();
    tl.spans.reserve(legs.hops.len());
    play(&mut lanes, tl)
}

/// One lane of the list scheduler.
struct Lane<'a> {
    /// The device whose GPU and host queue (`host`) task phases hold.
    device: usize,
    host: usize,
    items: Items<'a>,
    /// Lanes that must have landed before this one starts (a staged
    /// download's uploads); empty for task lists.
    after: &'a [usize],
    /// The lane's slots in [`Free::slot`]: its device's streams, or the
    /// chain's one, free when the previous hop lands.
    slots: Range<usize>,
    next: usize,
}

#[derive(Clone, Copy)]
enum Items<'a> {
    Tasks(&'a [SimTask]),
    Hops(&'a [Phase]),
}

impl<'a> Lane<'a> {
    /// The phases of the lane's next item: a task, or one hop.
    fn head(&self) -> Option<&'a [Phase]> {
        match self.items {
            Items::Tasks(tasks) => tasks.get(self.next).map(|t| t.phases.as_slice()),
            Items::Hops(hops) => hops.get(self.next).map(std::slice::from_ref),
        }
    }

    /// Tie rank: a leg chain's hops left; task lists rank alike.
    fn hops_left(&self) -> usize {
        match self.items {
            Items::Tasks(_) => 0,
            Items::Hops(hops) => hops.len() - self.next,
        }
    }
}

/// When each shared resource and each lane slot is next free.
struct Free {
    link: Vec<SimTime>,
    cpu: SimTime,
    gpu: Vec<SimTime>,
    slot: Vec<SimTime>,
}

impl Free {
    /// When `phase` of device `d` can start once `cursor` is reached.
    fn start(&self, phase: &Phase, cursor: SimTime, d: usize, host: usize) -> SimTime {
        match *phase {
            Phase::Cpu(_) => cursor.max(self.cpu),
            Phase::Transfer(_) => cursor.max(self.link[host]),
            Phase::Kernel(_) => cursor.max(self.gpu[d]),
            Phase::Fused { .. } => cursor.max(self.link[host]).max(self.gpu[d]),
            Phase::Link { queue, .. } => cursor.max(self.link[queue]),
        }
    }
}

/// The one loop that turns phase durations into start and end times:
/// plays `lanes` on an idle machine, records them shifted by `tl`'s
/// makespan so far (shifting records, not resources, keeps
/// `origin + makespan` bit-exact), and returns the lanes' own makespan.
fn play(lanes: &mut [Lane<'_>], tl: &mut MultiTimeline) -> SimTime {
    let origin = tl.makespan;
    let mut free = Free {
        link: vec![0.0; tl.link_busy.len()],
        cpu: 0.0,
        gpu: vec![0.0; tl.per_device.len()],
        slot: vec![0.0; lanes.last().map_or(0, |l| l.slots.end)],
    };
    let mut makespan = 0.0f64;
    let mut live: Vec<usize> = (0..lanes.len()).collect(); // lanes with items left
    let mut landed: Vec<Option<SimTime>> = vec![None; lanes.len()];
    loop {
        // (start, hops left, lane, slot, cursor)
        let mut best: Option<(SimTime, usize, usize, usize, SimTime)> = None;
        for &l in &live {
            let lane = &lanes[l];
            let Some(phases) = lane.head() else { continue };
            // Held until the lanes it waits for have landed: those end
            // after any start still open, so commits stay in start order.
            let Some(release) =
                lane.after.iter().try_fold(0.0f64, |r, &a| landed[a].map(|t| r.max(t)))
            else {
                continue;
            };
            let (slot, cursor) = (lane.slots.clone().map(|i| (i, free.slot[i])))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .unwrap_or((0, 0.0));
            let cursor = cursor.max(release);
            let start =
                phases.first().map_or(cursor, |p| free.start(p, cursor, lane.device, lane.host));
            let left = lane.hops_left();
            if best.is_none_or(|(s, k, ..)| start.total_cmp(&s).then(k.cmp(&left)).is_lt()) {
                best = Some((start, left, l, slot, cursor));
            }
        }
        let Some((_, _, l, slot, mut cursor)) = best else { break };
        let lane = &mut lanes[l];
        let (item, d, host) = (lane.next, lane.device, lane.host);
        let phases = lane.head().unwrap_or_default();
        lane.next += 1;

        let owner = match lane.items {
            Items::Tasks(_) => Owner::Task { device: d, index: item },
            Items::Hops(_) => Owner::Leg(l),
        };
        for phase in phases {
            let start = free.start(phase, cursor, d, host);
            let end = start + phase.duration();
            let span = |resource, fused| PhaseSpan {
                resource,
                owner,
                start: origin + start,
                end: origin + end,
                fused,
            };
            match *phase {
                Phase::Cpu(t) => {
                    free.cpu = end;
                    tl.per_device[d].cpu_busy += t;
                    tl.spans.push(span(Resource::Cpu, false));
                }
                Phase::Transfer(t) => {
                    free.link[host] = end;
                    tl.per_device[d].pcie_busy += t;
                    tl.link_busy[host] += t;
                    tl.spans.push(span(Resource::Link(host), false));
                }
                Phase::Kernel(t) => {
                    free.gpu[d] = end;
                    tl.per_device[d].gpu_busy += t;
                    tl.spans.push(span(Resource::Gpu(d), false));
                }
                Phase::Fused { transfer, kernel } => {
                    free.link[host] = end;
                    free.gpu[d] = end;
                    let dev = &mut tl.per_device[d];
                    dev.pcie_busy += transfer;
                    dev.gpu_busy += kernel;
                    tl.link_busy[host] += transfer;
                    tl.spans.push(span(Resource::Link(host), true));
                    tl.spans.push(span(Resource::Gpu(d), true));
                }
                Phase::Link { queue, time } => {
                    free.link[queue] = end;
                    tl.link_busy[queue] += time;
                    tl.spans.push(span(Resource::Link(queue), false));
                }
            }
            cursor = end;
        }
        free.slot[slot] = cursor;
        makespan = makespan.max(cursor);
        if lane.head().is_none() {
            live.retain(|&x| x != l);
            landed[l] = Some(cursor);
        }
        if matches!(lane.items, Items::Tasks(_)) {
            let dev = &mut tl.per_device[d];
            dev.makespan = dev.makespan.max(origin + cursor);
        }
    }
    tl.makespan = tl.makespan.max(origin + makespan);
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamSim;

    /// Each task's `(device, index, first start, last end)`, from the
    /// span log.
    fn task_spans(tl: &MultiTimeline) -> Vec<(usize, usize, SimTime, SimTime)> {
        let mut out: Vec<(usize, usize, SimTime, SimTime)> = Vec::new();
        for s in &tl.spans {
            let Owner::Task { device, index } = s.owner else { continue };
            match out.iter_mut().find(|t| (t.0, t.1) == (device, index)) {
                Some(t) => (t.2, t.3) = (t.2.min(s.start), t.3.max(s.end)),
                None => out.push((device, index, s.start, s.end)),
            }
        }
        out.sort_by_key(|t| (t.0, t.1));
        out
    }

    #[test]
    fn one_device_matches_stream_sim_exactly() {
        // Durations in halves and quarters, so every span is exact.
        let tasks: Vec<SimTask> = vec![
            SimTask::compaction(0.5, 1.0, 0.75),
            SimTask::zero_copy(2.0, 1.5),
            SimTask::explicit(1.0, 2.0),
            SimTask::explicit(0.25, 0.25),
        ];
        let single = StreamSim::new(3).schedule(&tasks);
        let multi = MultiGpuSim::new(1, 3).schedule(&[&tasks]);
        // c: cpu 0–0.5, bus 0.5–1.5, gpu 1.5–2.25. z (stream 1): bus and
        // GPU are both free at 2.25, so 2.25–4.25. e1 (stream 2): bus
        // 4.25–5.25, gpu 5.25–7.25. e2 (stream 0, free at 2.25): bus
        // 5.25–5.5, gpu waits for e1 until 7.25, ends 7.5.
        let spans: Vec<(f64, f64)> =
            task_spans(&multi).iter().map(|&(_, _, s, e)| (s, e)).collect();
        assert_eq!(spans, [(0.0, 2.25), (2.25, 4.25), (4.25, 7.25), (5.25, 7.5)]);
        assert_eq!(
            (single.makespan, single.pcie_busy, single.gpu_busy, single.cpu_busy),
            (7.5, 4.25, 4.5, 0.5)
        );
        assert_eq!(multi.per_device.len(), 1);
        assert_eq!(format!("{:?}", multi.per_device[0]), format!("{single:?}"));
        assert_eq!((multi.makespan, multi.bus_busy, multi.cpu_busy), (7.5, 4.25, 0.5));
    }

    #[test]
    fn kernels_on_different_devices_overlap() {
        // Two pure-kernel tasks: on one device they serialise (4s); on two
        // devices they run concurrently (2s).
        let t = || vec![SimTask::explicit(0.0, 2.0)];
        let one = MultiGpuSim::new(1, 4)
            .schedule(&[vec![SimTask::explicit(0.0, 2.0), SimTask::explicit(0.0, 2.0)]]);
        let two = MultiGpuSim::new(2, 4).schedule(&[t(), t()]);
        assert!((one.makespan - 4.0).abs() < 1e-12);
        assert!((two.makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shared_bus_serialises_across_devices() {
        // Two pure transfers on different devices of one port (D = 2)
        // still share its bus.
        let t = || vec![SimTask::explicit(3.0, 0.0)];
        let tl = MultiGpuSim::new(2, 4).schedule(&[t(), t()]);
        assert!((tl.makespan - 6.0).abs() < 1e-12, "makespan {}", tl.makespan);
        // The port's spans, one per device, must not overlap.
        let mut spans: Vec<_> =
            tl.spans.iter().filter(|s| s.resource == Resource::Link(0)).collect();
        assert_eq!(spans.len(), 2);
        spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        assert!(spans[1].start >= spans[0].end, "bus overlap: {spans:?}");
    }

    #[test]
    fn transfer_on_one_device_overlaps_kernel_on_another() {
        // Device 0: transfer 2 then kernel 2. Device 1: transfer 2 then
        // kernel 2. Bus serialises the transfers (0-2, 2-4) but kernels
        // overlap each other: makespan 6, not 8.
        let t = || vec![SimTask::explicit(2.0, 2.0)];
        let tl = MultiGpuSim::new(2, 4).schedule(&[t(), t()]);
        assert!((tl.makespan - 6.0).abs() < 1e-12, "makespan {}", tl.makespan);
    }

    #[test]
    fn host_pool_is_shared_across_devices() {
        // Pure CPU gathers serialise on the one host pool even across
        // devices.
        let t = || vec![SimTask::compaction(2.0, 0.0, 0.0)];
        let tl = MultiGpuSim::new(2, 2).schedule(&[t(), t()]);
        assert!((tl.makespan - 4.0).abs() < 1e-12, "makespan {}", tl.makespan);
        assert!((tl.cpu_busy - 4.0).abs() < 1e-12);
        let cpu: Vec<_> = (tl.spans.iter().filter(|s| s.resource == Resource::Cpu))
            .map(|s| (s.owner, s.start, s.end))
            .collect();
        let task = |device| Owner::Task { device, index: 0 };
        assert_eq!(cpu, [(task(0), 0.0, 2.0), (task(1), 2.0, 4.0)]);
    }

    #[test]
    fn empty_device_lists_are_fine() {
        let tl =
            MultiGpuSim::new(3, 2).schedule(&[vec![], vec![SimTask::explicit(1.0, 1.0)], vec![]]);
        assert!((tl.makespan - 2.0).abs() < 1e-12);
        assert_eq!(task_spans(&tl), [(1, 0, 0.0, 2.0)]);
    }

    #[test]
    fn more_devices_never_slower_on_balanced_load() {
        let mk = |n: usize| -> Vec<Vec<SimTask>> {
            let mut lists = vec![Vec::new(); n];
            for i in 0..8 {
                lists[i % n].push(SimTask::explicit(0.5, 2.0));
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
        let t = || vec![SimTask::explicit(3.0, 1.0), SimTask::zero_copy(2.0, 0.5)];
        let tl = MultiGpuSim::with_interconnect(2, 4, ic).schedule(&[t(), t()]);
        // One host port (D = 2) + two direction queues of the
        // full-duplex peer link.
        assert_eq!(tl.link_busy.len(), 3);
        assert!((tl.link_busy[0] - tl.bus_busy).abs() < 1e-12);
        assert!(tl.link_busy[1..].iter().all(|&b| b == 0.0), "task traffic is host-routed");
        assert!(tl.spans.iter().all(|s| s.resource != Resource::Link(1)));
        assert!(tl.spans.iter().all(|s| s.resource != Resource::Link(2)));
    }

    #[test]
    fn peer_topology_does_not_change_task_scheduling() {
        use crate::topology::{Interconnect, LinkSpec, TopologyKind};
        // Peer links only carry the exchange; the task timeline must be
        // identical whichever topology the scheduler is built with.
        let lists = || {
            vec![
                vec![SimTask::compaction(0.5, 1.0, 0.7), SimTask::explicit(1.0, 0.2)],
                vec![SimTask::zero_copy(2.0, 0.4)],
                vec![SimTask::explicit(0.9, 0.9)],
            ]
        };
        let host = MultiGpuSim::new(3, 2).schedule(&lists());
        for kind in [TopologyKind::Ring, TopologyKind::AllToAll] {
            let ic = Interconnect::build(kind, 3, PcieModel::pcie3(), LinkSpec::nvlink());
            let tl = MultiGpuSim::with_interconnect(3, 2, ic).schedule(&lists());
            assert_eq!(tl.makespan, host.makespan, "{kind:?}");
            assert_eq!(tl.spans, host.spans, "{kind:?}");
            assert_eq!(tl.link_busy[0], host.link_busy[0], "{kind:?}");
        }
    }

    #[test]
    fn makespan_bounded_below_by_shared_resources() {
        let lists = vec![
            vec![SimTask::compaction(0.5, 1.0, 0.7), SimTask::explicit(1.0, 0.2)],
            vec![SimTask::zero_copy(2.0, 0.4), SimTask::explicit(0.7, 1.1)],
            vec![SimTask::explicit(0.9, 0.9)],
        ];
        let tl = MultiGpuSim::new(3, 2).schedule(&lists);
        // Devices 0 and 1 share port 0, device 2 has port 1: each port's
        // busy time is its devices' and bounds the makespan.
        let bus = |d: usize| tl.per_device[d].pcie_busy;
        let ports = [bus(0) + bus(1), bus(2)];
        assert_eq!(tl.link_busy.len(), ports.len());
        assert!(tl.link_busy.iter().zip(ports).all(|(&q, p)| (q - p).abs() < 1e-12));
        assert!(tl.link_busy.iter().all(|&port| tl.makespan >= port - 1e-9));
        assert!(tl.makespan >= tl.cpu_busy - 1e-9);
        for dev in &tl.per_device {
            assert!(tl.makespan >= dev.gpu_busy - 1e-9);
            assert!(tl.makespan >= dev.makespan - 1e-9);
        }
        assert_eq!(tl.makespan, tl.per_device.iter().map(|t| t.makespan).fold(0.0, f64::max));
    }
}
