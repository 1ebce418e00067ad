//! Degree statistics and the bucketed distribution of the paper's Fig. 3(f).
//!
//! Fig. 3(f) buckets out-degrees into `[0,8) [8,16) [16,24) [24,32) [32,∞)`
//! to show that most vertices (74.7 % on average across the five graphs)
//! have fewer than the 32 neighbours needed to saturate a 128-byte PCIe
//! memory request — the root cause of zero-copy's unstable bandwidth.

use crate::Csr;

/// The five buckets of Fig. 3(f).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
// hyt-lint: allow(unreached-pub) -- named in the public signature of `DegreeStats`; `degree` is private, so the crate root re-exports it
pub struct DegreeBucket {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Exclusive upper bound (`u64::MAX` for the open-ended bucket).
    pub hi: u64,
    /// Number of vertices whose out-degree falls in `[lo, hi)`.
    pub count: u64,
}

impl DegreeBucket {
    /// Label in the paper's notation, e.g. `[8,16)` or `[32,)`.
    pub fn label(&self) -> String {
        if self.hi == u64::MAX {
            format!("[{},)", self.lo)
        } else {
            format!("[{},{})", self.lo, self.hi)
        }
    }
}

/// Summary statistics over a graph's degree sequences.
#[derive(Clone, Debug)]
pub struct DegreeStats {
    /// Vertex count.
    pub num_vertices: u32,
    /// Edge count.
    pub num_edges: u64,
    /// Maximum out-degree.
    pub max_out: u64,
    /// Maximum in-degree.
    pub max_in: u64,
    /// Mean out-degree.
    pub avg_out: f64,
    /// Fig. 3(f) buckets over out-degrees.
    pub buckets: Vec<DegreeBucket>,
}

/// Bucket boundaries used by Fig. 3(f).
const FIG3F_BOUNDS: [u64; 4] = [8, 16, 24, 32];

impl DegreeStats {
    /// Compute stats and Fig. 3(f) buckets for `graph`.
    pub fn compute(graph: &Csr) -> DegreeStats {
        let out = graph.out_degrees();
        let inn = graph.in_degrees();
        let max_out = out.iter().copied().max().unwrap_or(0);
        let max_in = inn.iter().copied().max().unwrap_or(0);
        let mut counts = [0u64; 5];
        for &d in &out {
            let idx = FIG3F_BOUNDS.iter().position(|&b| d < b).unwrap_or(4);
            counts[idx] += 1;
        }
        let mut buckets = Vec::with_capacity(5);
        let mut lo = 0u64;
        for (i, &hi) in FIG3F_BOUNDS.iter().enumerate() {
            buckets.push(DegreeBucket { lo, hi, count: counts[i] });
            lo = hi;
        }
        buckets.push(DegreeBucket { lo, hi: u64::MAX, count: counts[4] });
        DegreeStats {
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            max_out,
            max_in,
            avg_out: graph.num_edges() as f64 / graph.num_vertices().max(1) as f64,
            buckets,
        }
    }

    /// Fraction of vertices with out-degree below `bound`.
    pub fn fraction_below(&self, bound: u64) -> f64 {
        let n: u64 = self.buckets.iter().filter(|b| b.hi <= bound).map(|b| b.count).sum();
        n as f64 / self.num_vertices.max(1) as f64
    }

    /// Bucket fractions in order (sums to 1 for non-empty graphs).
    pub fn fractions(&self) -> Vec<f64> {
        self.buckets.iter().map(|b| b.count as f64 / self.num_vertices.max(1) as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn buckets_partition_all_vertices() {
        let g = generators::rmat(10, 12.0, 3, false);
        let s = DegreeStats::compute(&g);
        let total: u64 = s.buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, g.num_vertices() as u64);
    }

    #[test]
    fn labels_match_paper_notation() {
        let g = generators::chain(4, false);
        let s = DegreeStats::compute(&g);
        let labels: Vec<_> = s.buckets.iter().map(|b| b.label()).collect();
        assert_eq!(labels, ["[0,8)", "[8,16)", "[16,24)", "[24,32)", "[32,)"]);
    }

    #[test]
    fn chain_degrees_all_below_eight() {
        let g = generators::chain(100, false);
        let s = DegreeStats::compute(&g);
        assert_eq!(s.fraction_below(8), 1.0);
        assert_eq!(s.max_out, 1);
    }

    #[test]
    fn star_has_one_giant() {
        let g = generators::star(100, false);
        let s = DegreeStats::compute(&g);
        assert_eq!(s.max_out, 99);
        assert_eq!(s.buckets[4].count, 1);
        assert_eq!(s.max_in, 1);
    }

    #[test]
    fn power_law_majority_below_32() {
        // The claim of Fig. 3(f): despite avg degree ~37, most vertices sit
        // under 32 neighbours in skewed graphs.
        let g = generators::power_law_local(20_000, 37.0, 1.7, 0.0, 1, 2, false);
        let s = DegreeStats::compute(&g);
        assert!(s.fraction_below(32) > 0.5, "below32 = {}", s.fraction_below(32));
        assert!(s.avg_out > 30.0);
    }
}
