//! Engine selection — Algorithm 1, lines 2–13.
//!
//! Per active partition, with α = 0.8 (Subway's compaction-pays-off
//! threshold) and β = 0.4 (the many-small-active-vertices guard):
//!
//! ```text
//! if Tec < α·Tef and Tec < β·Tiz:  ExpTM-compaction
//! elif Tef < Tiz:                  ExpTM-filter
//! else:                            ImpTM-zero-copy
//! ```
//!
//! Baseline systems replace the hybrid rule with a constant choice; the
//! Grus-like policy layers a residency check on top (resident → UM "hit",
//! capacity left → UM migrate, otherwise zero-copy).

use crate::cost::{partition_costs_sized, PartitionCosts};
use hyt_engines::{EngineKind, PartitionActivity};
use hyt_graph::DevicePlan;
use hyt_sim::PcieModel;

/// Which selection policy the system runs (a whole "system" in the paper's
/// Table V is a policy plus scheduling flags; see `systems.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Selection {
    /// HyTGraph's cost-aware hybrid rule (Algorithm 1).
    Hybrid,
    /// Always ExpTM-filter (GraphReduce/Graphie-class).
    FilterOnly,
    /// Always ExpTM-compaction (Subway).
    CompactionOnly,
    /// Always ImpTM-zero-copy (EMOGI).
    ZeroCopyOnly,
    /// Always ImpTM-unified-memory (HALO-class).
    UnifiedOnly,
    /// Grus-like: unified-memory as a cache; zero-copy once the device is
    /// full.
    GrusLike,
    /// Host-only execution (Galois-class comparison row).
    CpuOnly,
}

/// Tuning constants of Algorithm 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelectParams {
    /// Compaction-vs-filter threshold (paper: 0.8).
    pub alpha: f64,
    /// Compaction-vs-zero-copy threshold (paper: 0.4).
    pub beta: f64,
    /// Per-active-vertex value bytes a compaction gather moves beyond
    /// the narrow `d2` slot — the program's
    /// [`ValueLayout::compaction_surplus`](crate::ValueLayout::compaction_surplus).
    /// Zero (the default, and for every ≤ 8-byte value) is an exact
    /// pricing identity; the runner sets it from the live program so
    /// wide sketch values pay their true formula-(2) freight.
    pub value_surplus: u64,
}

impl Default for SelectParams {
    fn default() -> Self {
        SelectParams { alpha: 0.8, beta: 0.4, value_surplus: 0 }
    }
}

/// The hybrid rule for one partition (Algorithm 1 lines 4–12).
pub fn choose_engine(costs: &PartitionCosts, p: &SelectParams) -> EngineKind {
    if costs.tec < p.alpha * costs.tef && costs.tec < p.beta * costs.tiz {
        EngineKind::ExpCompaction
    } else if costs.tef < costs.tiz {
        EngineKind::ExpFilter
    } else {
        EngineKind::ImpZeroCopy
    }
}

/// Decide an engine for every **active** partition under `selection`.
/// Returns `(partition index in acts, engine)` for active partitions, in
/// partition order; inactive partitions are skipped (nothing to schedule).
///
/// Every policy here is stateless per partition, so one pass is also
/// what a sharded deployment's per-device selectors would decide between
/// them. `GrusLike` is stateful (device residency) and is decided by the
/// runner's Grus baseline instead.
pub fn select_engines(
    acts: &[PartitionActivity],
    pcie: &PcieModel,
    bytes_per_edge: u64,
    selection: Selection,
    params: &SelectParams,
) -> Vec<(usize, EngineKind)> {
    acts.iter()
        .enumerate()
        .filter(|(_, a)| a.is_active())
        .map(|(i, a)| {
            let kind = match selection {
                Selection::Hybrid => choose_engine(
                    &partition_costs_sized(a, pcie, bytes_per_edge, params.value_surplus),
                    params,
                ),
                Selection::FilterOnly => EngineKind::ExpFilter,
                Selection::CompactionOnly => EngineKind::ExpCompaction,
                Selection::ZeroCopyOnly => EngineKind::ImpZeroCopy,
                Selection::UnifiedOnly | Selection::GrusLike => EngineKind::ImpUnified,
                Selection::CpuOnly => unreachable!("CPU-only systems bypass engine selection"),
            };
            (i, kind)
        })
        .collect()
}

/// [`select_engines`]; `devices` is ignored. Kept only because the frozen
/// `wall` benchmark harness calls it by this name.
pub fn select_engines_sharded(
    acts: &[PartitionActivity],
    _devices: &DevicePlan,
    pcie: &PcieModel,
    bytes_per_edge: u64,
    selection: Selection,
    params: &SelectParams,
) -> Vec<(usize, EngineKind)> {
    select_engines(acts, pcie, bytes_per_edge, selection, params)
}

/// An even carve-up of the device edge budget across `num_devices`
/// (minimum 1) devices, the remainder spread over the lowest device ids:
/// each simulated GPU caches edge data out of its own memory, so the
/// stateful residency policies (unified-memory LRU, Grus pin-until-full)
/// get `total / D` each instead of one shared pool.
pub(crate) fn device_budgets(total: u64, num_devices: usize) -> Vec<u64> {
    let n = num_devices.max(1);
    let base = total / n as u64;
    let rem = (total % n as u64) as usize;
    (0..n).map(|i| base + u64::from(i < rem)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(tef: f64, tec: f64, tiz: f64) -> PartitionCosts {
        PartitionCosts { tef, tec, tiz }
    }

    #[test]
    fn compaction_needs_both_thresholds() {
        let p = SelectParams::default();
        // Tec well under both scaled costs.
        assert_eq!(choose_engine(&costs(10.0, 1.0, 10.0), &p), EngineKind::ExpCompaction);
        // Beats alpha*Tef but not beta*Tiz -> falls through; Tef < Tiz.
        assert_eq!(choose_engine(&costs(10.0, 5.0, 12.0), &p), EngineKind::ExpFilter);
        // Beats beta*Tiz but not alpha*Tef -> falls through; Tiz < Tef.
        assert_eq!(choose_engine(&costs(5.0, 4.5, 100.0), &p), EngineKind::ExpFilter);
    }

    #[test]
    fn filter_vs_zero_copy_tiebreak() {
        let p = SelectParams::default();
        assert_eq!(choose_engine(&costs(3.0, 9.0, 5.0), &p), EngineKind::ExpFilter);
        assert_eq!(choose_engine(&costs(5.0, 9.0, 3.0), &p), EngineKind::ImpZeroCopy);
        // Exact tie goes to zero-copy (strict <).
        assert_eq!(choose_engine(&costs(3.0, 9.0, 3.0), &p), EngineKind::ImpZeroCopy);
    }

    #[test]
    fn thresholds_respond_to_params() {
        let loose = SelectParams { alpha: 1.0, beta: 1.0, ..SelectParams::default() };
        // With alpha=beta=1 compaction wins whenever strictly cheapest.
        assert_eq!(choose_engine(&costs(10.0, 9.0, 10.5), &loose), EngineKind::ExpCompaction);
        let strict = SelectParams { alpha: 0.1, beta: 0.1, ..SelectParams::default() };
        assert_eq!(choose_engine(&costs(10.0, 9.0, 10.5), &strict), EngineKind::ExpFilter);
    }

    #[test]
    fn stateless_policies_are_constant() {
        let acts = vec![
            PartitionActivity {
                partition: 0,
                active_vertices: vec![1],
                active_edges: 10,
                total_edges: 100,
                zc_requests: 1,
            },
            PartitionActivity {
                partition: 1,
                active_vertices: vec![],
                active_edges: 0,
                total_edges: 100,
                zc_requests: 0,
            },
        ];
        let pcie = PcieModel::pcie3();
        let sel = select_engines(&acts, &pcie, 4, Selection::FilterOnly, &SelectParams::default());
        assert_eq!(sel, vec![(0, EngineKind::ExpFilter)]); // inactive skipped
        let sel =
            select_engines(&acts, &pcie, 4, Selection::ZeroCopyOnly, &SelectParams::default());
        assert_eq!(sel, vec![(0, EngineKind::ImpZeroCopy)]);
    }

    #[test]
    fn sharded_selection_equals_global_selection() {
        use hyt_graph::{generators, DeviceAssignment, Frontier, PartitionSet};
        let g = generators::rmat(10, 8.0, 13, true);
        let ps = PartitionSet::build_count(&g, 16);
        let f = Frontier::new(g.num_vertices());
        for v in (0..g.num_vertices()).step_by(3) {
            f.insert(v);
        }
        let pcie = PcieModel::pcie3();
        let acts = hyt_engines::analyze_partitions(g.view(), &ps, &f, &pcie, g.bytes_per_edge(), 4);
        let params = SelectParams::default();
        for sel in [Selection::Hybrid, Selection::FilterOnly, Selection::ZeroCopyOnly] {
            let global = select_engines(&acts, &pcie, 4, sel, &params);
            for d in [1u32, 2, 4] {
                let plan = DevicePlan::build(&ps, d, DeviceAssignment::EdgeBalanced, 0);
                let sharded = select_engines_sharded(&acts, &plan, &pcie, 4, sel, &params);
                assert_eq!(sharded, global, "{sel:?} with {d} devices");
            }
        }
    }

    #[test]
    fn device_budgets_split_evenly_with_remainder_low() {
        assert_eq!(device_budgets(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(device_budgets(77, 1), vec![77]);
        // Zero devices clamps to one: never empty.
        assert_eq!(device_budgets(5, 0), vec![5]);
    }

    #[test]
    fn wide_value_surplus_flips_compaction_to_zero_copy() {
        // 2000 active vertices of degree 2 inside a 200k-edge partition:
        // with narrow values compaction wins comfortably
        // (Tec = 32000 B / 32768 ≈ 0.98 < β·Tiz ≈ 2.08 < α·Tef ≈ 19.5).
        // A 64-byte sketch wire payload adds 56 surplus bytes per active
        // vertex, inflating only formula (2) to ≈ 4.4 > β·Tiz, so the
        // same partition falls through to zero-copy.
        let a = PartitionActivity {
            partition: 0,
            active_vertices: (0..2_000).collect(),
            active_edges: 4_000,
            total_edges: 200_000,
            zc_requests: 2_000,
        };
        let pcie = PcieModel::pcie3();
        let acts = std::slice::from_ref(&a);
        let narrow = SelectParams::default();
        let sel = select_engines(acts, &pcie, 4, Selection::Hybrid, &narrow);
        assert_eq!(sel[0].1, EngineKind::ExpCompaction);
        let wide = SelectParams { value_surplus: 56, ..SelectParams::default() };
        let sel = select_engines(acts, &pcie, 4, Selection::Hybrid, &wide);
        assert_eq!(sel[0].1, EngineKind::ImpZeroCopy);
    }

    #[test]
    fn hybrid_uses_cost_model() {
        // A dense fully-active partition (filter should win over ZC) and a
        // sparse one (ZC should win).
        let dense = PartitionActivity {
            partition: 0,
            active_vertices: (0..32_768).collect(),
            active_edges: 131_072,
            total_edges: 131_072,
            zc_requests: 32_768,
        };
        let sparse = PartitionActivity {
            partition: 1,
            active_vertices: vec![5, 6, 7],
            active_edges: 96,
            total_edges: 1_000_000,
            zc_requests: 3,
        };
        let pcie = PcieModel::pcie3();
        let sel =
            select_engines(&[dense, sparse], &pcie, 4, Selection::Hybrid, &SelectParams::default());
        assert_eq!(sel[0].1, EngineKind::ExpFilter);
        assert_eq!(sel[1].1, EngineKind::ImpZeroCopy);
    }
}
