//! Multi-stream discrete-event timeline (the paper's Fig. 6).
//!
//! HyTGraph issues every task on one of several CUDA streams. Within a
//! stream, operations serialise; across streams, the hardware overlaps
//! them subject to three contended resources:
//!
//! * **PCIe** — one transfer at a time (a single DMA copy engine direction);
//! * **GPU** — one compute kernel at a time (graph kernels saturate the
//!   SMs, so concurrent kernels serialise in practice);
//! * **CPU** — the host-side compaction pool, which overlaps freely with
//!   transfers and kernels of *other* tasks but serialises with itself.
//!
//! Zero-copy tasks are *fused*: the kernel reads host memory during
//! execution, so transfer and compute occupy the bus and the GPU for the
//! same interval (implicit transfer/compute overlap, Section V-B).
//!
//! This module holds the task and timeline vocabulary; the one list
//! scheduler is [`MultiGpuSim`], and [`StreamSim`] is its one-device
//! view. A schedule plays a task list (already in priority order) against
//! `num_streams` streams: the makespan and per-resource busy times land
//! in a [`Timeline`], and every phase occupation, once, in commit order,
//! in the one span log ([`MultiTimeline::spans`](crate::MultiTimeline::spans)).
//! This is a deterministic, list-scheduling approximation of what the
//! CUDA runtime does — tasks are dealt to the earliest-available stream
//! in priority order, and each phase waits for its predecessor phase and
//! its resource.

use crate::{MultiGpuSim, SimTime};

/// One phase of a task on a named resource.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Phase {
    /// Host-side work (compaction) of the given duration.
    Cpu(SimTime),
    /// Bus transfer (explicit copy or UM migration) of the given duration.
    Transfer(SimTime),
    /// GPU kernel of the given duration.
    Kernel(SimTime),
    /// Zero-copy execution: occupies bus **and** GPU for
    /// `max(transfer, kernel)` (implicit overlap).
    Fused {
        /// Bus time demanded by on-demand reads.
        transfer: SimTime,
        /// Compute time of the kernel consuming them.
        kernel: SimTime,
    },
    /// An exchange hop: holds one interconnect queue, and no stream, GPU
    /// or host pool.
    Link {
        /// The contention queue ([`crate::topology::Interconnect::queue`]).
        queue: usize,
        /// Transfer time.
        time: SimTime,
    },
}

impl Phase {
    /// Wall duration of the phase once it starts.
    pub fn duration(&self) -> SimTime {
        match *self {
            Phase::Cpu(t) | Phase::Transfer(t) | Phase::Kernel(t) => t,
            Phase::Fused { transfer, kernel } => transfer.max(kernel),
            Phase::Link { time, .. } => time,
        }
    }
}

/// A schedulable task: an ordered list of phases.
#[derive(Clone, Debug)]
pub struct SimTask {
    /// Ordered phases; later phases wait for earlier ones.
    pub phases: Vec<Phase>,
}

impl SimTask {
    /// An explicit-transfer task: `transfer` then `kernel`.
    pub fn explicit(transfer: SimTime, kernel: SimTime) -> Self {
        SimTask { phases: vec![Phase::Transfer(transfer), Phase::Kernel(kernel)] }
    }

    /// A compaction task: `cpu` gather, then `transfer`, then `kernel`.
    pub fn compaction(cpu: SimTime, transfer: SimTime, kernel: SimTime) -> Self {
        SimTask { phases: vec![Phase::Cpu(cpu), Phase::Transfer(transfer), Phase::Kernel(kernel)] }
    }

    /// A zero-copy task (fused transfer + kernel).
    pub fn zero_copy(transfer: SimTime, kernel: SimTime) -> Self {
        SimTask { phases: vec![Phase::Fused { transfer, kernel }] }
    }

    /// A task whose edge data is already on the device: one kernel phase,
    /// holding no host port.
    pub fn kernel_only(kernel: SimTime) -> Self {
        SimTask { phases: vec![Phase::Kernel(kernel)] }
    }
}

/// A contended resource of the simulated machine. Every resource is
/// exclusive: no two spans on one resource overlap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The host compaction pool, shared by every device.
    Cpu,
    /// Device `d`'s kernel engine (kernels on one device serialise).
    Gpu(usize),
    /// One interconnect contention queue
    /// ([`Interconnect::queue`](crate::topology::Interconnect::queue)):
    /// a task transfer holds its device's host port
    /// ([`Interconnect::host_link_of`](crate::topology::Interconnect::host_link_of)),
    /// an exchange hop ([`Phase::Link`]) its own queue.
    Link(usize),
}

/// What a [`PhaseSpan`] belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Owner {
    /// Task `index` of device `device`'s played list.
    Task {
        /// The device whose list holds the task.
        device: usize,
        /// The task's position in that list.
        index: usize,
    },
    /// A hop of exchange leg chain `c`, chains in routing order.
    Leg(usize),
}

/// One resource occupation of one phase. A fused zero-copy phase holds
/// two resources, so it records two spans (host port + GPU) over the
/// same interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseSpan {
    /// Which resource the phase held.
    pub resource: Resource,
    /// The task or leg chain the phase belongs to.
    pub owner: Owner,
    /// Occupation start.
    pub start: SimTime,
    /// Occupation end.
    pub end: SimTime,
    /// True when the span belongs to a fused (zero-copy) phase.
    pub fused: bool,
}

/// One device's share of a completed schedule.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Elapsed simulated time until the device's last task ends.
    pub makespan: SimTime,
    /// Host-port busy time of the device's tasks.
    pub pcie_busy: SimTime,
    /// GPU busy time.
    pub gpu_busy: SimTime,
    /// Host compaction-pool busy time of the device's tasks.
    pub cpu_busy: SimTime,
}

/// The single-device scheduler: a one-device [`MultiGpuSim`] on the
/// host-only interconnect, returning device 0's timeline. Kept for the
/// frozen harness until ROADMAP's `wall` v2 item; the runner schedules
/// through [`MultiGpuSim`] directly.
#[derive(Clone, Debug)]
pub struct StreamSim {
    sim: MultiGpuSim,
}

impl StreamSim {
    /// A scheduler over `num_streams` streams (minimum 1).
    pub fn new(num_streams: usize) -> Self {
        StreamSim { sim: MultiGpuSim::new(1, num_streams) }
    }

    /// Play `tasks` (already priority-ordered) and return the timeline.
    pub fn schedule(&self, tasks: &[SimTask]) -> Timeline {
        let mut tl = self.sim.schedule(&[tasks]);
        tl.per_device.swap_remove(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one span log of `tasks` played on one device.
    fn spans_of(streams: usize, tasks: &[SimTask]) -> Vec<PhaseSpan> {
        MultiGpuSim::new(1, streams).schedule(&[tasks]).spans
    }

    #[test]
    fn single_task_serial_time() {
        let sim = StreamSim::new(4);
        let t = SimTask::compaction(1.0, 2.0, 3.0);
        let tl = sim.schedule(std::slice::from_ref(&t));
        assert!((tl.makespan - 6.0).abs() < 1e-12);
        assert!((tl.cpu_busy - 1.0).abs() < 1e-12);
        let held: Vec<_> = spans_of(4, &[t]).iter().map(|s| (s.resource, s.start, s.end)).collect();
        assert_eq!(
            held,
            [
                (Resource::Cpu, 0.0, 1.0),
                (Resource::Link(0), 1.0, 3.0),
                (Resource::Gpu(0), 3.0, 6.0)
            ]
        );
    }

    #[test]
    fn transfers_serialise_on_one_bus() {
        let sim = StreamSim::new(4);
        let tasks: Vec<_> = (0..3).map(|_| SimTask::explicit(2.0, 0.0)).collect();
        let tl = sim.schedule(&tasks);
        // 3 transfers on one bus: at least 6 seconds regardless of streams.
        assert!((tl.makespan - 6.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_kernel_pipelining_overlaps() {
        let sim = StreamSim::new(2);
        // Two identical tasks: transfer 2 + kernel 2. With pipelining the
        // second transfer overlaps the first kernel: makespan 6 not 8.
        let tasks = vec![SimTask::explicit(2.0, 2.0), SimTask::explicit(2.0, 2.0)];
        let tl = sim.schedule(&tasks);
        assert!((tl.makespan - 6.0).abs() < 1e-9, "makespan {}", tl.makespan);
    }

    #[test]
    fn one_stream_fully_serialises() {
        let sim = StreamSim::new(1);
        let tasks = vec![SimTask::explicit(2.0, 2.0), SimTask::explicit(2.0, 2.0)];
        let tl = sim.schedule(&tasks);
        assert!((tl.makespan - 8.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_compaction_overlaps_bus_and_gpu() {
        let sim = StreamSim::new(2);
        // Task a: pure compaction+transfer; task b: pure zero-copy fused.
        // CPU work of a overlaps fused execution of b entirely.
        let tasks = vec![SimTask::zero_copy(4.0, 3.0), SimTask::compaction(4.0, 1.0, 1.0)];
        let tl = sim.schedule(&tasks);
        // zc holds bus+gpu 0..4; cp's CPU 0..4 overlaps, then transfer 4..5,
        // kernel 5..6.
        assert!((tl.makespan - 6.0).abs() < 1e-9, "makespan {}", tl.makespan);
    }

    #[test]
    fn fused_occupies_both_resources() {
        let sim = StreamSim::new(4);
        let tasks = vec![SimTask::zero_copy(5.0, 1.0), SimTask::explicit(1.0, 1.0)];
        let tl = sim.schedule(&tasks);
        // ex's transfer cannot start until zc releases the bus at t=5.
        assert!((tl.makespan - 7.0).abs() < 1e-9, "makespan {}", tl.makespan);
    }

    #[test]
    fn makespan_bounded_by_resource_busy_time() {
        let sim = StreamSim::new(3);
        let tasks: Vec<_> = (0..10).map(|_| SimTask::compaction(0.5, 1.0, 0.7)).collect();
        let tl = sim.schedule(&tasks);
        assert!(tl.makespan >= tl.pcie_busy - 1e-9);
        assert!(tl.makespan >= tl.gpu_busy - 1e-9);
        assert!(tl.makespan >= tl.cpu_busy - 1e-9);
        assert!(tl.makespan <= tl.pcie_busy + tl.gpu_busy + tl.cpu_busy + 1e-9);
    }

    #[test]
    fn more_streams_never_slower() {
        let tasks: Vec<_> = (0..8).map(|_| SimTask::explicit(1.0, 1.5)).collect();
        let t1 = StreamSim::new(1).schedule(&tasks).makespan;
        let t2 = StreamSim::new(2).schedule(&tasks).makespan;
        let t4 = StreamSim::new(4).schedule(&tasks).makespan;
        assert!(t2 <= t1 + 1e-9);
        assert!(t4 <= t2 + 1e-9);
        assert!(t4 < t1, "overlap should win: t4 {t4} t1 {t1}");
    }

    #[test]
    fn kernel_only_holds_the_gpu_and_no_bus() {
        let sim = StreamSim::new(2);
        let t = SimTask::kernel_only(3.0);
        assert_eq!(t.phases, vec![Phase::Kernel(3.0)]);
        // The next task's transfer runs under the kernel-only task (0..2)
        // and its kernel queues behind it on the GPU (3..4).
        let tasks = [t, SimTask::explicit(2.0, 1.0)];
        let tl = sim.schedule(&tasks);
        assert_eq!(tl.pcie_busy, 2.0);
        assert_eq!(tl.gpu_busy, 4.0);
        assert!((tl.makespan - 4.0).abs() < 1e-12, "makespan {}", tl.makespan);
        let first = Owner::Task { device: 0, index: 0 };
        let spans = spans_of(2, &tasks);
        let mine: Vec<_> = spans.iter().filter(|s| s.owner == first).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!((mine[0].resource, mine[0].start, mine[0].end), (Resource::Gpu(0), 0.0, 3.0));
    }

    #[test]
    fn empty_schedule_is_zero() {
        let tl = StreamSim::new(4).schedule(&[]);
        assert_eq!(tl.makespan, 0.0);
        assert!(spans_of(4, &[]).is_empty());
    }

    #[test]
    fn spans_follow_input_order_and_are_well_formed() {
        let tasks = [SimTask::explicit(1.0, 1.0), SimTask::zero_copy(2.0, 1.0)];
        let spans = spans_of(2, &tasks);
        // A task commits all its phases at once: task 0's transfer (0..1)
        // and kernel (1..2), then task 1's fused pair, both held 2..4.
        let owners: Vec<_> = spans
            .iter()
            .map(|s| match s.owner {
                Owner::Task { device: 0, index } => (index, s.resource, s.fused),
                o => panic!("not a device-0 task: {o:?}"),
            })
            .collect();
        assert_eq!(
            owners,
            [
                (0, Resource::Link(0), false),
                (0, Resource::Gpu(0), false),
                (1, Resource::Link(0), true),
                (1, Resource::Gpu(0), true),
            ]
        );
        assert!(spans.iter().all(|s| s.end >= s.start));
    }
}
