//! Whole-system presets: the comparison rows of Table V.
//!
//! Each paper "system" is, on our shared substrate, a selection policy
//! plus scheduling flags (the paper itself builds ExpTM-F and ImpTM-UM
//! inside HyTGraph's codebase for exactly this reason):
//!
//! | row | selection | async | TC | CDS |
//! |---|---|---|---|---|
//! | HyTGraph | hybrid | recompute ×1 | on | on |
//! | ExpTM-F | filter only | sync | on | off |
//! | Subway | compaction only | recompute ×2 | on | off |
//! | EMOGI | zero-copy only | sync | on | off |
//! | Grus | UM-cache + ZC overflow | sync | on | off |
//! | ImpTM-UM | unified only | sync | on | off |
//! | Galois (CPU) | host execution | sync | – | – |

use crate::config::{AsyncMode, HyTGraphConfig};
use crate::select::Selection;

/// The systems compared throughout the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// The paper's system: hybrid transfer management + TC + CDS.
    HyTGraph,
    /// Fig. 8 ablation: hybrid selection only (multi-stream, no TC/CDS).
    HybridBase,
    /// Fig. 8 ablation: hybrid + task combining (no CDS).
    HybridTc,
    /// Pure ExpTM-filter (GraphReduce/Graphie class).
    ExpFilter,
    /// Subway: ExpTM-compaction with multi-round squeezing.
    Subway,
    /// EMOGI: ImpTM-zero-copy.
    Emogi,
    /// Grus: unified-memory caching with zero-copy overflow.
    Grus,
    /// Pure ImpTM-unified-memory (HALO class).
    ImpUnified,
    /// Galois-class CPU-only execution.
    CpuGalois,
}

impl SystemKind {
    /// All Table V rows in paper order.
    pub const TABLE5: [SystemKind; 7] = [
        SystemKind::CpuGalois,
        SystemKind::ExpFilter,
        SystemKind::ImpUnified,
        SystemKind::Grus,
        SystemKind::Subway,
        SystemKind::Emogi,
        SystemKind::HyTGraph,
    ];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::HyTGraph => "HyTGraph",
            SystemKind::HybridBase => "Hybrid",
            SystemKind::HybridTc => "Hybrid+TC",
            SystemKind::ExpFilter => "ExpTM-F",
            SystemKind::Subway => "Subway",
            SystemKind::Emogi => "EMOGI",
            SystemKind::Grus => "Grus",
            SystemKind::ImpUnified => "ImpTM-UM",
            SystemKind::CpuGalois => "Galois",
        }
    }

    /// Parse a system name (case-insensitive, paper spelling).
    pub fn parse(s: &str) -> Option<SystemKind> {
        match s.to_ascii_lowercase().as_str() {
            "hytgraph" => Some(SystemKind::HyTGraph),
            "hybrid" => Some(SystemKind::HybridBase),
            "hybrid+tc" | "hybridtc" => Some(SystemKind::HybridTc),
            "exptm-f" | "expfilter" | "filter" => Some(SystemKind::ExpFilter),
            "subway" => Some(SystemKind::Subway),
            "emogi" => Some(SystemKind::Emogi),
            "grus" => Some(SystemKind::Grus),
            "imptm-um" | "um" | "unified" => Some(SystemKind::ImpUnified),
            "galois" | "cpu" => Some(SystemKind::CpuGalois),
            _ => None,
        }
    }

    /// The configuration implementing this system on the shared substrate.
    /// Start from `base` (so experiments can override machine / partition
    /// size / threads uniformly) and apply the system's policy.
    pub fn configure(&self, mut base: HyTGraphConfig) -> HyTGraphConfig {
        match self {
            SystemKind::HyTGraph => {
                base.selection = Selection::Hybrid;
                base.task_combining = true;
                base.contribution_scheduling = true;
                base.async_mode = AsyncMode::Async { recompute: 1 };
            }
            SystemKind::HybridBase => {
                base.selection = Selection::Hybrid;
                base.task_combining = false;
                base.contribution_scheduling = false;
                base.async_mode = AsyncMode::Async { recompute: 1 };
            }
            SystemKind::HybridTc => {
                base.selection = Selection::Hybrid;
                base.task_combining = true;
                base.contribution_scheduling = false;
                base.async_mode = AsyncMode::Async { recompute: 1 };
            }
            SystemKind::ExpFilter => {
                base.selection = Selection::FilterOnly;
                base.task_combining = true;
                base.contribution_scheduling = false;
                base.async_mode = AsyncMode::Sync;
            }
            SystemKind::Subway => {
                base.selection = Selection::CompactionOnly;
                base.task_combining = true;
                base.contribution_scheduling = false;
                // Subway squeezes the loaded subgraph with extra local
                // rounds ("process multiple times"); bounded, since stale
                // local work stops paying off quickly (Section VI-A).
                base.async_mode = AsyncMode::Async { recompute: 2 };
                // Subway rebuilds its compaction structures per run; the
                // paper attributes 46.9-74.9 % of SSSP runtime to
                // preprocessing + compaction. Calibrated as 4 host passes
                // over the edge data.
                base.startup_edge_passes = 4.0;
            }
            SystemKind::Emogi => {
                base.selection = Selection::ZeroCopyOnly;
                base.task_combining = true;
                base.contribution_scheduling = false;
                base.async_mode = AsyncMode::Sync;
            }
            SystemKind::Grus => {
                base.selection = Selection::GrusLike;
                base.task_combining = true;
                base.contribution_scheduling = false;
                base.async_mode = AsyncMode::Sync;
            }
            SystemKind::ImpUnified => {
                base.selection = Selection::UnifiedOnly;
                base.task_combining = true;
                base.contribution_scheduling = false;
                base.async_mode = AsyncMode::Sync;
            }
            SystemKind::CpuGalois => {
                base.selection = Selection::CpuOnly;
                base.task_combining = false;
                base.contribution_scheduling = false;
                base.async_mode = AsyncMode::Sync;
            }
        }
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in SystemKind::TABLE5 {
            assert_eq!(SystemKind::parse(s.name()), Some(s), "{}", s.name());
        }
        assert_eq!(SystemKind::parse("nope"), None);
    }

    #[test]
    fn hytgraph_config_keeps_paper_defaults() {
        let c = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
        assert_eq!(c.selection, Selection::Hybrid);
        assert!(c.task_combining && c.contribution_scheduling);
        assert_eq!(c.async_mode, AsyncMode::Async { recompute: 1 });
    }

    #[test]
    fn subway_squeezes_emogi_does_not() {
        let sub = SystemKind::Subway.configure(HyTGraphConfig::default());
        assert_eq!(sub.selection, Selection::CompactionOnly);
        assert!(matches!(sub.async_mode, AsyncMode::Async { recompute } if recompute > 1));
        let emogi = SystemKind::Emogi.configure(HyTGraphConfig::default());
        assert_eq!(emogi.selection, Selection::ZeroCopyOnly);
        assert_eq!(emogi.async_mode, AsyncMode::Sync);
    }

    #[test]
    fn ablation_ladder_toggles_flags() {
        let base = SystemKind::HybridBase.configure(HyTGraphConfig::default());
        let tc = SystemKind::HybridTc.configure(HyTGraphConfig::default());
        let full = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
        assert!(!base.task_combining && !base.contribution_scheduling);
        assert!(tc.task_combining && !tc.contribution_scheduling);
        assert!(full.task_combining && full.contribution_scheduling);
    }
}

/// Small helpers shared by unit tests in this crate.
#[cfg(test)]
pub(crate) mod tests_support {
    use crate::api::{EdgeCtx, InitialFrontier, VertexProgram};

    /// A CC-shaped program whose frontier starts full (touches every
    /// partition, so residency paths are fully exercised).
    pub(crate) struct AllActiveMin;
    impl VertexProgram for AllActiveMin {
        type Value = u32;
        fn init(&self, v: u32) -> u32 {
            v
        }
        fn initial_frontier(&self) -> InitialFrontier {
            InitialFrontier::All
        }
        fn message(&self, seed: u32, _: EdgeCtx) -> Option<u32> {
            Some(seed)
        }
        fn accumulate(&self, s: u32, m: u32) -> Option<u32> {
            (m < s).then_some(m)
        }
    }
}
