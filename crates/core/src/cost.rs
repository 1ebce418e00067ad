//! The transfer-cost model — formulas (1), (2), (3) of Section V-A.
//!
//! For each partition `i` with vertex set `Pi` and active subset `Ai`, with
//! `d1` = bytes per neighbour entry, `d2` = bytes per compaction-index
//! entry, `m` = max request payload (128 B), `MR` = max outstanding
//! requests per TLP (256):
//!
//! ```text
//! (1) Tef_i = ⌈ Σ_{v∈Pi} Do(v)·d1 / m / MR ⌉ · RTT
//! (2) Tec_i = ⌈ (Σ_{v∈Ai} Do(v)·d1 + |Ai|·d2) / m / MR ⌉ · RTT
//!           + (Σ_{v∈Ai} Do(v)·d1 + |Ai|·d2) / Thpt_cpt
//! (3) Tiz_i = ⌈ (Σ_{v∈Ai} ⌈Do(v)·d1/m⌉ + am(v)) / MR ⌉ · RTT_zc
//!     RTT_zc = γ·RTT + (1−γ)·(Σ_{v∈Ai}Do(v) / Σ_{v∈Pi}Do(v))·RTT
//! ```
//!
//! Two paper-prescribed details:
//!
//! * RTT is arbitrary during comparison (it divides out), so
//!   [`PartitionCosts`] is computed in **RTT units**;
//! * `Thpt_cpt` is nonlinear and hard to model, so selection compares
//!   `Tec` by its *transfer term only* against scaled thresholds
//!   (`α·Tef`, `β·Tiz`) — the compaction-time term is still exposed for
//!   the simulator, just not used in engine choice.

use hyt_engines::PartitionActivity;
use hyt_graph::INDEX_BYTES;
use hyt_sim::PcieModel;

/// Fraction of a zero-copy TLP's round-trip that actually competes for
/// link bandwidth when several devices share the host root complex: the
/// payload-proportional `1 − γ` share of the paper-platform dumpling
/// factor (γ = 0.625). The fixed `γ` share is round-trip latency the
/// root complex pipelines across devices' outstanding requests, so it
/// does not stretch under sharing. This is the *default* used by
/// [`SelectParams`](crate::SelectParams); the runner derives the live
/// value from its machine's `PcieModel::gamma` so custom buses stay
/// consistent with their own `rtt_zc` pricing.
pub const ZC_CONTENTION_SHARE: f64 = 0.375;

/// Per-partition engine costs in RTT units (see module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionCosts {
    /// Formula (1): ExpTM-filter transfer cost.
    pub tef: f64,
    /// Formula (2), transfer term only (the comparison form).
    pub tec: f64,
    /// Formula (3): ImpTM-zero-copy cost.
    pub tiz: f64,
}

impl PartitionCosts {
    /// Effective costs when `contention` devices share the host link
    /// (ROADMAP item 4; `1.0` = the paper's exclusively-owned bus, and
    /// an exact identity).
    ///
    /// Bulk explicit copies (Tef, Tec's transfer term) hold the link for
    /// whole saturated-TLP bursts; sharing it `D` ways hands each device
    /// the link roughly `1/D` of the time, so both inflate by the full
    /// contention factor. Zero-copy instead issues independent
    /// outstanding requests that the root complex interleaves at request
    /// granularity, so only the payload-proportional `zc_share` of its
    /// round-trip (`1 − γ` for the machine's bus; see
    /// [`ZC_CONTENTION_SHARE`]) contends. The asymmetry is what moves
    /// the ZC/filter crossover — and the effective α/β thresholds — as
    /// the device count grows.
    pub fn under_contention(&self, contention: f64, zc_share: f64) -> PartitionCosts {
        let c = contention.max(1.0);
        PartitionCosts {
            tef: self.tef * c,
            tec: self.tec * c,
            tiz: self.tiz * (1.0 + (c - 1.0) * zc_share.clamp(0.0, 1.0)),
        }
    }
}

/// Compute formulas (1)–(3) for one partition's activity snapshot.
///
/// `bytes_per_edge` is `d1` (+ weight bytes on weighted graphs — the
/// weight array rides along with the neighbour array on every engine, so
/// it scales all three formulas identically).
///
/// `value_surplus` is the program's
/// [`ValueLayout::compaction_surplus`](crate::ValueLayout::compaction_surplus):
/// extra per-active-vertex bytes the compaction gather moves beyond the
/// `d2` slot already charged. It lands in formula (2) only — filter
/// moves whole partitions of *edge* data and zero-copy reads neighbour
/// arrays in place, so neither ships vertex values; compaction's gather
/// packages `|Ai|` value payloads alongside the index. Zero for every
/// narrow program; for
/// sketch-width values it is what can flip a compaction win to
/// zero-copy.
#[must_use = "partition costs drive filter/compaction/zero-copy selection; dropping them skips the decision"]
pub fn partition_costs_sized(
    act: &PartitionActivity,
    pcie: &PcieModel,
    bytes_per_edge: u64,
    value_surplus: u64,
) -> PartitionCosts {
    let m = pcie.request_bytes;
    let mr = pcie.max_requests;
    let tlp = (m * mr) as f64;

    // TLP counts are *fractional* here: at the paper's scale a partition
    // is ~1024 TLPs and the ceils of formulas (1)-(3) are negligible; at
    // our 2^-10 scale a partition is ~1 TLP and integer ceils would
    // quantize every comparison to a tie. Fractional units are the
    // faithful form of the paper-scale comparison (RTT cancels either
    // way); the engines still price *actual* transfers with real ceils.

    // (1) whole-partition explicit copy.
    let ef_bytes = act.total_edges * bytes_per_edge;
    let tef = ef_bytes as f64 / tlp;

    // (2) transfer term of compaction: active edges + index entries +
    // any per-vertex value payload beyond the narrow d2 slot.
    let ec_bytes = act.active_edges * bytes_per_edge
        + act.active_vertices.len() as u64 * (INDEX_BYTES + value_surplus);
    let tec = ec_bytes as f64 / tlp;

    // (3) zero-copy requests at partition-dependent RTT_zc.
    let zc_tlps = act.zc_requests as f64 / mr as f64;
    let rtt_zc_units = (pcie.gamma + (1.0 - pcie.gamma) * act.active_ratio()) / pcie.zc_efficiency;
    let tiz = zc_tlps * rtt_zc_units;

    PartitionCosts { tef, tec, tiz }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(
        active_vertices: usize,
        active_edges: u64,
        total_edges: u64,
        reqs: u64,
    ) -> PartitionActivity {
        PartitionActivity {
            partition: 0,
            active_vertices: (0..active_vertices as u32).collect(),
            active_edges,
            total_edges,
            zc_requests: reqs,
        }
    }

    fn bus() -> PcieModel {
        PcieModel::pcie3()
    }

    #[test]
    fn hand_computed_example() {
        // Partition: 100k total edges, 10k active across 100 vertices,
        // 400 zero-copy requests, d1 = 4 bytes.
        let a = act(100, 10_000, 100_000, 400);
        let c = partition_costs_sized(&a, &bus(), 4, 0);
        // Tef: 400_000 bytes / 32768 = 12.207 fractional TLPs.
        assert!((c.tef - 400_000.0 / 32_768.0).abs() < 1e-12);
        // Tec: 40_000 + 100*8 = 40_800 bytes -> 1.245 TLPs.
        assert!((c.tec - 40_800.0 / 32_768.0).abs() < 1e-12);
        // Tiz: 400/256 TLPs at RTT_zc = (.625 + .375*0.1)/0.95 units.
        let want = (400.0 / 256.0) * (0.625 + 0.375 * 0.1) / 0.95;
        assert!((c.tiz - want).abs() < 1e-12);
    }

    #[test]
    fn fully_active_partition_prefers_filter_over_zc() {
        // Everything active with small degrees: ZC requests ~ 1/vertex, so
        // request padding makes ZC lose to a saturated bulk copy.
        // 32k vertices, degree 4 each: 128k edges, 32k requests.
        let a = act(32_768, 131_072, 131_072, 32_768);
        let c = partition_costs_sized(&a, &bus(), 4, 0);
        // Tef: 524288 B -> 16 TLPs. Tiz: 128 TLPs at full RTT.
        assert!(c.tef < c.tiz, "tef {} tiz {}", c.tef, c.tiz);
    }

    #[test]
    fn sparse_high_degree_prefers_zc() {
        // 3 active vertices with 32 neighbours each in a big partition.
        let a = act(3, 96, 1_000_000, 3);
        let c = partition_costs_sized(&a, &bus(), 4, 0);
        assert!(c.tiz < c.tef, "tiz {} tef {}", c.tiz, c.tef);
        assert!(c.tiz < 1.0); // one unsaturated TLP, nearly-fixed cost
    }

    #[test]
    fn empty_partition_costs_nothing_active() {
        let a = act(0, 0, 50_000, 0);
        let c = partition_costs_sized(&a, &bus(), 4, 0);
        assert_eq!(c.tec, 0.0);
        assert_eq!(c.tiz, 0.0);
        assert!(c.tef > 0.0); // filter would still ship the whole thing
    }

    // Section V-A regime checks: on hand-computed partitions each engine's
    // formula must win exactly where the paper says it wins.

    #[test]
    fn sparse_low_degree_orders_compaction_first() {
        // 50 active vertices of degree 4 inside a 50k-edge partition: the
        // active payload is tiny, so shipping exactly it (plus d2 indexes)
        // beats both the bulk copy and the per-request-padded reads.
        let a = act(50, 200, 50_000, 50);
        let c = partition_costs_sized(&a, &bus(), 4, 0);
        // Hand-computed, m·MR = 32768 B per TLP:
        assert!((c.tef - 200_000.0 / 32_768.0).abs() < 1e-12);
        assert!((c.tec - (200.0 * 4.0 + 50.0 * 8.0) / 32_768.0).abs() < 1e-12);
        let want_tiz = (50.0 / 256.0) * (0.625 + 0.375 * (200.0 / 50_000.0)) / 0.95;
        assert!((c.tiz - want_tiz).abs() < 1e-12);
        assert!(c.tec < c.tiz && c.tiz < c.tef, "want Tec < Tiz < Tef, got {c:?}");
    }

    #[test]
    fn fully_active_orders_filter_first() {
        // Everything active at degree 4: compaction pays d2 per vertex for
        // nothing, zero-copy pays one padded request per vertex.
        let a = act(8_192, 32_768, 32_768, 8_192);
        let c = partition_costs_sized(&a, &bus(), 4, 0);
        assert!((c.tef - 4.0).abs() < 1e-12); // 131072 B / 32768
        assert!((c.tec - 6.0).abs() < 1e-12); // (131072 + 65536) B / 32768
        let want_tiz = 32.0 / 0.95; // 8192/256 TLPs at full RTT_zc
        assert!((c.tiz - want_tiz).abs() < 1e-12);
        assert!(c.tef < c.tec && c.tec < c.tiz, "want Tef < Tec < Tiz, got {c:?}");
    }

    #[test]
    fn sparse_high_degree_hubs_order_zero_copy_first() {
        // 4 hub vertices of degree 1024 in a million-edge partition: long
        // saturated runs make zero-copy's requests efficient, and it skips
        // compaction's index bytes (and, off-formula, its CPU gather).
        let a = act(4, 4_096, 1_000_000, 128);
        let c = partition_costs_sized(&a, &bus(), 4, 0);
        assert!((c.tef - 4_000_000.0 / 32_768.0).abs() < 1e-12);
        assert!((c.tec - (4_096.0 * 4.0 + 4.0 * 8.0) / 32_768.0).abs() < 1e-12);
        let want_tiz = 0.5 * (0.625 + 0.375 * (4_096.0 / 1_000_000.0)) / 0.95;
        assert!((c.tiz - want_tiz).abs() < 1e-12);
        assert!(c.tiz < c.tec && c.tec < c.tef, "want Tiz < Tec < Tef, got {c:?}");
    }

    #[test]
    fn contention_is_identity_at_one_and_favours_zero_copy_beyond() {
        let a = act(100, 10_000, 100_000, 400);
        let c = partition_costs_sized(&a, &bus(), 4, 0);
        let c1 = c.under_contention(1.0, ZC_CONTENTION_SHARE);
        assert_eq!(c, c1, "contention 1.0 must be bitwise identity");
        let c8 = c.under_contention(8.0, ZC_CONTENTION_SHARE);
        assert_eq!(c8.tef, c.tef * 8.0);
        assert_eq!(c8.tec, c.tec * 8.0);
        // Zero-copy inflates by 1 + 7·0.375 = 3.625x — strictly less.
        assert!((c8.tiz / c.tiz - 3.625).abs() < 1e-12);
        assert!(c8.tiz / c.tiz < c8.tef / c.tef);
        // Sub-1 factors clamp to the exclusive-bus identity.
        assert_eq!(c.under_contention(0.0, ZC_CONTENTION_SHARE), c1);
        // The default share is the paper bus's payload-proportional part.
        assert_eq!(ZC_CONTENTION_SHARE, 1.0 - bus().gamma);
    }

    #[test]
    fn value_surplus_prices_compaction_only() {
        let a = act(100, 10_000, 100_000, 400);
        let narrow = partition_costs_sized(&a, &bus(), 4, 0);
        // A 64-byte-wire value (56 surplus) charges formula (2) exactly
        // |Ai|·56 more bytes and leaves (1) and (3) untouched.
        let wide = partition_costs_sized(&a, &bus(), 4, 56);
        assert_eq!(wide.tef, narrow.tef);
        assert_eq!(wide.tiz, narrow.tiz);
        assert!((wide.tec - (40_800.0 + 100.0 * 56.0) / 32_768.0).abs() < 1e-12);
    }

    #[test]
    fn weight_bytes_scale_all_formulas() {
        let a = act(100, 10_000, 100_000, 400);
        let c4 = partition_costs_sized(&a, &bus(), 4, 0);
        let c8 = partition_costs_sized(&a, &bus(), 8, 0);
        assert!(c8.tef >= 2.0 * c4.tef - 1.0); // ceil slack
        assert!(c8.tec >= 2.0 * c4.tec - 1.0);
    }
}
