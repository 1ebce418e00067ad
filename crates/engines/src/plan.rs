//! Task plans: the price of delivering a task's active edges through one
//! engine. A plan carries no data — the gather and the kernel run once per
//! combined task in `hyt-core`, over the activity records themselves.

use crate::activity::PartitionActivity;
use hyt_sim::{MachineModel, SimTask, SimTime, TransferCounters};

/// Which transfer engine a task uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// ExpTM-filter: explicit copy of whole partitions.
    ExpFilter,
    /// ExpTM-compaction: CPU gather then explicit copy.
    ExpCompaction,
    /// ImpTM-zero-copy: on-demand cacheline access.
    ImpZeroCopy,
    /// ImpTM-unified-memory: page-fault migration.
    ImpUnified,
}

/// A fully-priced unit of scheduling: one or more partitions' active work
/// delivered through a single engine.
#[derive(Debug)]
pub struct TaskPlan {
    /// The engine delivering the data.
    pub kind: EngineKind,
    /// Edges the kernel will relax.
    pub active_edges: u64,
    /// Host CPU phase duration (compaction; 0 for other engines).
    pub cpu_time: SimTime,
    /// Bus phase duration.
    pub transfer_time: SimTime,
    /// GPU kernel phase duration.
    pub kernel_time: SimTime,
    /// Traffic this task generates (merged into iteration counters).
    pub counters: TransferCounters,
}

impl TaskPlan {
    /// The part of a price every engine shares: the partitions' summed
    /// active edges and the one kernel launch that relaxes them. The CPU
    /// and bus phases are zero and the traffic counters empty; each
    /// engine fills in its own.
    pub fn over(kind: EngineKind, machine: &MachineModel, acts: &[&PartitionActivity]) -> TaskPlan {
        let active_edges = acts.iter().map(|a| a.active_edges).sum();
        TaskPlan {
            kind,
            active_edges,
            cpu_time: 0.0,
            transfer_time: 0.0,
            kernel_time: machine.kernel.kernel_time(active_edges),
            counters: TransferCounters {
                kernel_edges: active_edges,
                kernel_launches: 1,
                ..Default::default()
            },
        }
    }

    /// Convert to a stream-schedulable task. Zero-copy and unified-memory
    /// fuse transfer and kernel (implicit overlap); explicit engines
    /// pipeline transfer → kernel; compaction prepends the CPU phase.
    pub fn to_sim_task(&self) -> SimTask {
        match self.kind {
            EngineKind::ExpFilter => SimTask::explicit(self.transfer_time, self.kernel_time),
            EngineKind::ExpCompaction => {
                SimTask::compaction(self.cpu_time, self.transfer_time, self.kernel_time)
            }
            EngineKind::ImpZeroCopy | EngineKind::ImpUnified => {
                SimTask::zero_copy(self.transfer_time, self.kernel_time)
            }
        }
    }

    /// [`TaskPlan::to_sim_task`] under the name the frozen `wall` harness
    /// calls (ROADMAP item 1 (a)); `device` is unread.
    pub fn to_sim_task_for_device(&self, _device: u32) -> SimTask {
        self.to_sim_task()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(kind: EngineKind) -> TaskPlan {
        TaskPlan {
            kind,
            active_edges: 10,
            cpu_time: 1.0,
            transfer_time: 2.0,
            kernel_time: 3.0,
            counters: TransferCounters::default(),
        }
    }

    #[test]
    fn sim_task_shape_matches_engine() {
        use hyt_sim::Phase;
        let phases = |kind| plan(kind).to_sim_task().phases;
        assert_eq!(phases(EngineKind::ExpFilter), [Phase::Transfer(2.0), Phase::Kernel(3.0)]);
        assert_eq!(
            phases(EngineKind::ExpCompaction),
            [Phase::Cpu(1.0), Phase::Transfer(2.0), Phase::Kernel(3.0)]
        );
        let fused = [Phase::Fused { transfer: 2.0, kernel: 3.0 }];
        assert_eq!(phases(EngineKind::ImpZeroCopy), fused);
        assert_eq!(phases(EngineKind::ImpUnified), fused);
        assert_eq!(
            plan(EngineKind::ExpFilter).to_sim_task_for_device(3).phases,
            phases(EngineKind::ExpFilter)
        );
    }
}
