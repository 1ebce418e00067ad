//! Task combination — Algorithm 1, lines 6, 11, 15–24.
//!
//! HyTGraph decouples *cost* granularity from *scheduling* granularity:
//! partitions are small (32 MB) so engine selection is sharp, but
//! scheduling small tasks would drown in kernel launches and fragmented
//! copies. The combiner therefore packages same-engine partitions:
//!
//! * **ExpTM-filter** — runs of up to `k` *consecutive* partitions merge
//!   into one task (`k = 4` in the paper); consecutiveness keeps the
//!   explicit copy a single contiguous range.
//! * **ExpTM-compaction** — all compaction partitions merge into **one**
//!   task: their active edges are gathered into one contiguous buffer
//!   anyway (line 6, "pre-combine on GPU").
//! * **ImpTM-zero-copy** — all zero-copy partitions merge into **one**
//!   kernel: zero-copy has no per-partition transfer state (line 11).
//! * **ImpTM-unified** (baselines only) — same treatment as zero-copy.

use hyt_engines::EngineKind;

/// One combined scheduling unit: an engine plus the partitions it covers
/// (indices into the iteration's activity vector).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CombinedTask {
    /// The engine all member partitions selected.
    pub kind: EngineKind,
    /// Member partition indices, ascending.
    pub members: Vec<usize>,
}

/// Combine per-partition engine decisions into scheduling units.
///
/// `decisions` is `(partition index, engine)` in ascending partition order
/// (as produced by `select::select_engines`). When `combining` is false
/// every partition becomes its own task (the Fig. 8 "Hybrid" baseline).
///
/// `lane_bytes` is the program's resident per-vertex value footprint
/// ([`ValueLayout::lane_bytes`](crate::ValueLayout::lane_bytes)). The
/// paper's `k = 4` was tuned for ~8-byte states: a combined filter task
/// stages the member partitions' vertex state together, so wider values
/// shrink how many partitions fit one staging window. The effective run
/// length is `max(1, k · 8 / lane_bytes)` — the identity at 8 bytes,
/// and single-partition runs for ≥ 32-byte sketch states.
pub fn combine_tasks_sized(
    decisions: &[(usize, EngineKind)],
    k: usize,
    combining: bool,
    lane_bytes: u64,
) -> Vec<CombinedTask> {
    let narrow_lane = crate::ValueLayout::narrow().lane_bytes();
    let k = ((k as u64 * narrow_lane) / lane_bytes.max(1)).max(1) as usize;
    if !combining {
        return decisions
            .iter()
            .map(|&(i, kind)| CombinedTask { kind, members: vec![i] })
            .collect();
    }
    let mut filter_tasks: Vec<CombinedTask> = Vec::new();
    let mut compaction_members: Vec<usize> = Vec::new();
    let mut zc_members: Vec<usize> = Vec::new();
    let mut um_members: Vec<usize> = Vec::new();
    let mut run: Vec<usize> = Vec::new(); // current consecutive E-F run
    let mut prev_idx: Option<usize> = None;

    let flush_run = |run: &mut Vec<usize>, out: &mut Vec<CombinedTask>| {
        if !run.is_empty() {
            out.push(CombinedTask { kind: EngineKind::ExpFilter, members: std::mem::take(run) });
        }
    };

    for &(i, kind) in decisions {
        let consecutive = prev_idx.is_none_or(|p| i == p + 1);
        match kind {
            EngineKind::ExpFilter => {
                // Break the run on a gap (an intervening partition chose a
                // different engine or was inactive) or on reaching k.
                if !consecutive || run.len() >= k {
                    flush_run(&mut run, &mut filter_tasks);
                }
                run.push(i);
            }
            EngineKind::ExpCompaction => {
                flush_run(&mut run, &mut filter_tasks);
                compaction_members.push(i);
            }
            EngineKind::ImpZeroCopy => {
                flush_run(&mut run, &mut filter_tasks);
                zc_members.push(i);
            }
            EngineKind::ImpUnified => {
                flush_run(&mut run, &mut filter_tasks);
                um_members.push(i);
            }
        }
        prev_idx = Some(i);
    }
    flush_run(&mut run, &mut filter_tasks);

    let mut out = filter_tasks;
    if !compaction_members.is_empty() {
        out.push(CombinedTask { kind: EngineKind::ExpCompaction, members: compaction_members });
    }
    if !zc_members.is_empty() {
        out.push(CombinedTask { kind: EngineKind::ImpZeroCopy, members: zc_members });
    }
    if !um_members.is_empty() {
        out.push(CombinedTask { kind: EngineKind::ImpUnified, members: um_members });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use EngineKind::*;

    /// Resident value footprint of the narrow (single 64-bit lane) layout.
    const NARROW: u64 = crate::ValueLayout::narrow().lane_bytes();

    #[test]
    fn consecutive_filters_merge_up_to_k() {
        let d: Vec<_> = (0..10).map(|i| (i, ExpFilter)).collect();
        let tasks = combine_tasks_sized(&d, 4, true, NARROW);
        let sizes: Vec<_> = tasks.iter().map(|t| t.members.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(tasks[0].members, vec![0, 1, 2, 3]);
    }

    #[test]
    fn gaps_break_filter_runs() {
        // Partitions 0,1 filter; 2 chose ZC; 3,4 filter.
        let d =
            vec![(0, ExpFilter), (1, ExpFilter), (2, ImpZeroCopy), (3, ExpFilter), (4, ExpFilter)];
        let tasks = combine_tasks_sized(&d, 4, true, NARROW);
        let filters: Vec<_> =
            tasks.iter().filter(|t| t.kind == ExpFilter).map(|t| t.members.clone()).collect();
        assert_eq!(filters, vec![vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn inactive_partition_gaps_also_break_runs() {
        // Indices 0 and 2 are filter but 1 was inactive (absent).
        let d = vec![(0, ExpFilter), (2, ExpFilter)];
        let tasks = combine_tasks_sized(&d, 4, true, NARROW);
        let filters: Vec<_> =
            tasks.iter().filter(|t| t.kind == ExpFilter).map(|t| t.members.clone()).collect();
        assert_eq!(filters, vec![vec![0], vec![2]]);
    }

    #[test]
    fn compaction_and_zc_each_merge_into_one() {
        let d = vec![
            (0, ExpCompaction),
            (1, ImpZeroCopy),
            (2, ExpCompaction),
            (3, ImpZeroCopy),
            (4, ExpCompaction),
        ];
        let tasks = combine_tasks_sized(&d, 4, true, NARROW);
        assert_eq!(tasks.len(), 2);
        let ec = tasks.iter().find(|t| t.kind == ExpCompaction).unwrap();
        assert_eq!(ec.members, vec![0, 2, 4]);
        let zc = tasks.iter().find(|t| t.kind == ImpZeroCopy).unwrap();
        assert_eq!(zc.members, vec![1, 3]);
    }

    #[test]
    fn combining_disabled_gives_singletons() {
        let d = vec![(0, ExpFilter), (1, ExpFilter), (2, ImpZeroCopy)];
        let tasks = combine_tasks_sized(&d, 4, false, NARROW);
        assert_eq!(tasks.len(), 3);
        assert!(tasks.iter().all(|t| t.members.len() == 1));
    }

    #[test]
    fn empty_decisions_empty_tasks() {
        assert!(combine_tasks_sized(&[], 4, true, NARROW).is_empty());
    }

    #[test]
    fn wide_lanes_shrink_filter_runs() {
        let d: Vec<_> = (0..10).map(|i| (i, ExpFilter)).collect();
        // Narrow lanes keep the paper's k = 4 runs.
        let sizes: Vec<_> =
            combine_tasks_sized(&d, 4, true, NARROW).iter().map(|t| t.members.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        // 16-byte states halve the effective run length (k = 2).
        let sizes: Vec<_> =
            combine_tasks_sized(&d, 4, true, 16).iter().map(|t| t.members.len()).collect();
        assert_eq!(sizes, vec![2, 2, 2, 2, 2]);
        // 64-byte sketch states (8 lanes): every filter task is a
        // singleton — combining is effectively off for filter runs.
        let sizes: Vec<_> =
            combine_tasks_sized(&d, 4, true, 64).iter().map(|t| t.members.len()).collect();
        assert_eq!(sizes, vec![1; 10]);
    }

    #[test]
    fn mixed_engines_cover_all_partitions_once() {
        let d = vec![
            (0, ExpFilter),
            (1, ExpCompaction),
            (2, ExpFilter),
            (3, ExpFilter),
            (4, ImpZeroCopy),
            (5, ImpUnified),
            (6, ExpFilter),
        ];
        let tasks = combine_tasks_sized(&d, 2, true, NARROW);
        let mut seen: Vec<usize> = tasks.iter().flat_map(|t| t.members.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5, 6]);
    }
}
