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

impl EngineKind {
    /// Short label used in traces and the Fig. 7 execution-path report.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::ExpFilter => "E-F",
            EngineKind::ExpCompaction => "E-C",
            EngineKind::ImpZeroCopy => "I-ZC",
            EngineKind::ImpUnified => "I-UM",
        }
    }
}

/// A fully-priced unit of scheduling: one or more partitions' active work
/// delivered through a single engine.
#[derive(Debug)]
pub struct TaskPlan {
    /// The engine delivering the data.
    pub kind: EngineKind,
    /// Partitions covered (≥1; >1 after task combining).
    pub partitions: Vec<u32>,
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
    /// The part of a price every engine shares: the partitions covered,
    /// their summed active edges, and the one kernel launch that relaxes
    /// them. The CPU and bus phases are zero and the traffic counters
    /// empty; each engine fills in its own.
    pub fn over(kind: EngineKind, machine: &MachineModel, acts: &[&PartitionActivity]) -> TaskPlan {
        let active_edges = acts.iter().map(|a| a.active_edges).sum();
        TaskPlan {
            kind,
            partitions: acts.iter().map(|a| a.partition).collect(),
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

    /// Convert to a stream-schedulable task labelled with the owning
    /// device — the runner files one slice of a combined task per device
    /// and the trace must say whose timeline it landed on. Zero-copy and
    /// unified-memory fuse transfer and kernel (implicit overlap);
    /// explicit engines pipeline transfer → kernel; compaction prepends
    /// the CPU phase.
    pub fn to_sim_task_for_device(&self, device: u32) -> SimTask {
        self.with_label(self.device_label(device))
    }

    /// A slice whose edge data is already on `device`: the kernel alone
    /// ([`SimTask::kernel_only`]), labelled like
    /// [`TaskPlan::to_sim_task_for_device`].
    pub fn to_kernel_only_task_for_device(&self, device: u32) -> SimTask {
        SimTask::kernel_only(self.device_label(device), self.kernel_time)
    }

    fn device_label(&self, device: u32) -> String {
        format!("d{device}|{}:{:?}", self.kind.label(), self.partitions)
    }

    fn with_label(&self, label: String) -> SimTask {
        match self.kind {
            EngineKind::ExpFilter => SimTask::explicit(label, self.transfer_time, self.kernel_time),
            EngineKind::ExpCompaction => {
                SimTask::compaction(label, self.cpu_time, self.transfer_time, self.kernel_time)
            }
            EngineKind::ImpZeroCopy | EngineKind::ImpUnified => {
                SimTask::zero_copy(label, self.transfer_time, self.kernel_time)
            }
        }
    }

    /// Serial (no-overlap) duration: the quantity cost comparison uses.
    pub fn serial_time(&self) -> SimTime {
        match self.kind {
            EngineKind::ImpZeroCopy | EngineKind::ImpUnified => {
                self.transfer_time.max(self.kernel_time)
            }
            _ => self.cpu_time + self.transfer_time + self.kernel_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(kind: EngineKind) -> TaskPlan {
        TaskPlan {
            kind,
            partitions: vec![0],
            active_edges: 10,
            cpu_time: 1.0,
            transfer_time: 2.0,
            kernel_time: 3.0,
            counters: TransferCounters::default(),
        }
    }

    #[test]
    fn labels_match_fig3_legend() {
        assert_eq!(EngineKind::ExpFilter.label(), "E-F");
        assert_eq!(EngineKind::ExpCompaction.label(), "E-C");
        assert_eq!(EngineKind::ImpZeroCopy.label(), "I-ZC");
        assert_eq!(EngineKind::ImpUnified.label(), "I-UM");
    }

    #[test]
    fn sim_task_shape_matches_engine() {
        assert_eq!(plan(EngineKind::ExpFilter).to_sim_task_for_device(0).phases.len(), 2);
        assert_eq!(plan(EngineKind::ExpCompaction).to_sim_task_for_device(0).phases.len(), 3);
        assert_eq!(plan(EngineKind::ImpZeroCopy).to_sim_task_for_device(0).phases.len(), 1);
    }

    #[test]
    fn device_label_prefixes_but_keeps_phases() {
        let p = plan(EngineKind::ExpFilter);
        let t = p.to_sim_task_for_device(3);
        assert!(t.label.starts_with("d3|E-F:"), "label {}", t.label);
        assert_eq!(t.phases, p.to_sim_task_for_device(0).phases);
    }

    #[test]
    fn serial_time_fuses_implicit_engines() {
        assert_eq!(plan(EngineKind::ImpZeroCopy).serial_time(), 3.0);
        assert_eq!(plan(EngineKind::ExpCompaction).serial_time(), 6.0);
        assert_eq!(plan(EngineKind::ExpFilter).serial_time(), 6.0);
    }
}
