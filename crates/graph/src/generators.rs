//! Seeded synthetic graph generators.
//!
//! The paper evaluates on five real-world graphs (28–58 GB, not available
//! offline) and on RMAT-synthesised power-law graphs. We implement:
//!
//! * [`rmat`] — the recursive-matrix generator of Chakrabarti et al.
//!   (reference \[7\] of the paper) with configurable `(a, b, c, d)`
//!   quadrant probabilities. This is both the paper's Fig. 9 workload and
//!   the basis of our scaled-down dataset proxies.
//! * [`erdos_renyi`] — uniform random graphs (degree-homogeneous contrast
//!   case for tests and ablations).
//! * [`power_law_local`] — power-law out-degrees with ring-local target
//!   bias, approximating the locality of crawled web graphs (SK/UK) where
//!   consecutive ids are same-host pages.
//! * [`chain`], [`star`], [`complete`] — tiny deterministic shapes for unit
//!   tests.
//!
//! Every generator takes an explicit seed; identical seeds produce identical
//! graphs on every platform (we rely on `rand`'s portable `StdRng`).

use crate::{Csr, CsrBuilder, VertexId, Weight};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default RMAT quadrant probabilities (the literature-standard skew used
/// by Graph500 and the paper's reference \[7\]).
pub const RMAT_A: f64 = 0.57;
/// See [`RMAT_A`].
pub const RMAT_B: f64 = 0.19;
/// See [`RMAT_A`].
pub const RMAT_C: f64 = 0.19;

/// Maximum random edge weight produced by the weighted generators;
/// weights are drawn uniformly from `1..=MAX_RANDOM_WEIGHT`.
pub const MAX_RANDOM_WEIGHT: Weight = 64;

/// Generate one RMAT edge endpoint pair in a `2^scale`-vertex id space.
fn rmat_edge(rng: &mut StdRng, scale: u32, a: f64, b: f64, c: f64) -> (VertexId, VertexId) {
    let mut src = 0u64;
    let mut dst = 0u64;
    for _ in 0..scale {
        src <<= 1;
        dst <<= 1;
        let r: f64 = rng.gen();
        // Add a little per-level noise so the degree sequence is not
        // perfectly self-similar (standard RMAT practice).
        let noise = 0.05 * (rng.gen::<f64>() - 0.5);
        let (a, b, c) = (a + noise, b - noise / 3.0, c - noise / 3.0);
        if r < a {
            // quadrant (0,0)
        } else if r < a + b {
            dst |= 1;
        } else if r < a + b + c {
            src |= 1;
        } else {
            src |= 1;
            dst |= 1;
        }
    }
    (src as VertexId, dst as VertexId)
}

/// RMAT power-law graph with `2^scale` vertices and
/// `edge_factor * 2^scale` directed edges.
pub fn rmat(scale: u32, edge_factor: f64, seed: u64, weighted: bool) -> Csr {
    rmat_with_probs(scale, edge_factor, seed, weighted, RMAT_A, RMAT_B, RMAT_C)
}

/// RMAT with explicit quadrant probabilities `(a, b, c)`; `d = 1 - a - b - c`.
pub fn rmat_with_probs(
    scale: u32,
    edge_factor: f64,
    seed: u64,
    weighted: bool,
    a: f64,
    b: f64,
    c: f64,
) -> Csr {
    assert!(scale <= 31, "scale {scale} would overflow u32 vertex ids");
    assert!(a + b + c < 1.0 + 1e-9, "quadrant probabilities must sum to <= 1");
    let nv = 1u64 << scale;
    let ne = (edge_factor * nv as f64).round() as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = CsrBuilder::new(nv as u32, weighted);
    builder.reserve(ne as usize);
    for _ in 0..ne {
        let (s, d) = rmat_edge(&mut rng, scale, a, b, c);
        if weighted {
            builder.add_weighted_edge(s, d, rng.gen_range(1..=MAX_RANDOM_WEIGHT));
        } else {
            builder.add_edge(s, d);
        }
    }
    builder.build()
}

/// Erdős–Rényi G(n, m): `num_edges` uniform random directed edges.
pub fn erdos_renyi(num_vertices: u32, num_edges: u64, seed: u64, weighted: bool) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = CsrBuilder::new(num_vertices, weighted);
    builder.reserve(num_edges as usize);
    for _ in 0..num_edges {
        let s = rng.gen_range(0..num_vertices);
        let d = rng.gen_range(0..num_vertices);
        if weighted {
            builder.add_weighted_edge(s, d, rng.gen_range(1..=MAX_RANDOM_WEIGHT));
        } else {
            builder.add_edge(s, d);
        }
    }
    builder.build()
}

/// Truncated-Zipf degree sampler: `P(deg = k) ∝ (k+1)^(-alpha)` for
/// `k ∈ 0..=kmax`, with `kmax` tuned by bisection so the mean hits
/// `avg_degree`. This reproduces the Fig. 3(f) profile of real crawls —
/// a large mass of low-degree vertices under a long hub tail — which a
/// rescaled Pareto cannot (rescaling lifts the minimum degree).
struct ZipfDegrees {
    /// Cumulative distribution over 0..=kmax (last entry 1.0).
    cdf: Vec<f64>,
}

impl ZipfDegrees {
    fn new(avg_degree: f64, alpha: f64, hard_cap: u64) -> ZipfDegrees {
        assert!(avg_degree > 0.0 && alpha > 1.0);
        let mean_at = |kmax: u64| -> f64 {
            let mut num = 0.0;
            let mut den = 0.0;
            for k in 0..=kmax {
                let p = ((k + 1) as f64).powf(-alpha);
                num += k as f64 * p;
                den += p;
            }
            num / den
        };
        let mut lo = 1u64;
        let mut hi = hard_cap.max(2);
        if mean_at(hi) < avg_degree {
            // Tail capped by graph size; accept the closest achievable mean.
            lo = hi;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if mean_at(mid) < avg_degree {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let kmax = lo;
        let mut cdf = Vec::with_capacity(kmax as usize + 1);
        let mut acc = 0.0;
        for k in 0..=kmax {
            acc += ((k + 1) as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfDegrees { cdf }
    }

    /// Inverse CDF: the smallest degree whose cumulative mass reaches `u`.
    fn quantile(&self, u: f64) -> u64 {
        self.cdf.partition_point(|&c| c < u) as u64
    }

    /// A degree sequence of length `n` drawn by stratified inverse-CDF
    /// sampling: one jittered quantile per stratum `[i/n, (i+1)/n)`, then a
    /// Fisher–Yates shuffle so degree is uncorrelated with vertex id. The
    /// empirical distribution tracks the CDF to within one vertex per
    /// degree value, so the realised average degree matches the tuned mean
    /// tightly even under the heavy hub tail (independent draws do not:
    /// their sample mean wanders by several edges per vertex).
    fn sample_sequence(&self, n: usize, rng: &mut StdRng) -> Vec<u64> {
        let mut degrees: Vec<u64> =
            (0..n).map(|i| self.quantile((i as f64 + rng.gen::<f64>()) / n as f64)).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            degrees.swap(i, j);
        }
        degrees
    }
}

/// Power-law out-degrees (truncated Zipf, exponent `alpha`) with ring-local
/// targets: each edge lands within `locality_window` of its source with
/// probability `locality`, otherwise anywhere. Models crawled web graphs
/// whose id order follows URL order (the SK / UK proxies use this).
pub fn power_law_local(
    num_vertices: u32,
    avg_degree: f64,
    alpha: f64,
    locality: f64,
    locality_window: u32,
    seed: u64,
    weighted: bool,
) -> Csr {
    assert!(num_vertices > 0);
    assert!((0.0..=1.0).contains(&locality));
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ZipfDegrees::new(avg_degree, alpha, num_vertices as u64 * 4);
    let degrees = zipf.sample_sequence(num_vertices as usize, &mut rng);
    let mut builder = CsrBuilder::new(num_vertices, weighted);
    builder.reserve((avg_degree * num_vertices as f64) as usize);
    for v in 0..num_vertices {
        for _ in 0..degrees[v as usize] {
            let dst = if rng.gen::<f64>() < locality {
                let w = locality_window.max(1);
                let delta = rng.gen_range(0..=2 * w) as i64 - w as i64;
                ((v as i64 + delta).rem_euclid(num_vertices as i64)) as VertexId
            } else {
                rng.gen_range(0..num_vertices)
            };
            if weighted {
                builder.add_weighted_edge(v, dst, rng.gen_range(1..=MAX_RANDOM_WEIGHT));
            } else {
                builder.add_edge(v, dst);
            }
        }
    }
    builder.build()
}

/// Power-law out-degrees with **preferential** targets: an edge lands on
/// `t` with probability proportional to `t`'s own drawn degree + 1, so
/// in-degrees share the out-degree skew (Chung–Lu style). Symmetrised,
/// this models social networks (the FK / FS proxies).
pub fn power_law_preferential(
    num_vertices: u32,
    avg_degree: f64,
    alpha: f64,
    seed: u64,
    weighted: bool,
) -> Csr {
    assert!(num_vertices > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ZipfDegrees::new(avg_degree, alpha, num_vertices as u64 * 4);
    let degrees = zipf.sample_sequence(num_vertices as usize, &mut rng);
    // Cumulative target weights (degree + 1 so isolated vertices remain
    // reachable).
    let mut cum = Vec::with_capacity(num_vertices as usize);
    let mut acc = 0u64;
    for &d in &degrees {
        acc += d + 1;
        cum.push(acc);
    }
    let total = acc;
    let mut builder = CsrBuilder::new(num_vertices, weighted);
    builder.reserve(degrees.iter().sum::<u64>() as usize);
    for v in 0..num_vertices {
        for _ in 0..degrees[v as usize] {
            let x = rng.gen_range(0..total);
            let dst = cum.partition_point(|&c| c <= x) as VertexId;
            if weighted {
                builder.add_weighted_edge(v, dst, rng.gen_range(1..=MAX_RANDOM_WEIGHT));
            } else {
                builder.add_edge(v, dst);
            }
        }
    }
    builder.build()
}

/// A directed chain `0 -> 1 -> ... -> n-1` (diameter = n-1).
pub fn chain(num_vertices: u32, weighted: bool) -> Csr {
    let mut b = CsrBuilder::new(num_vertices, weighted);
    for v in 0..num_vertices.saturating_sub(1) {
        if weighted {
            b.add_weighted_edge(v, v + 1, 1);
        } else {
            b.add_edge(v, v + 1);
        }
    }
    b.build()
}

/// A star: vertex 0 points at every other vertex.
pub fn star(num_vertices: u32, weighted: bool) -> Csr {
    let mut b = CsrBuilder::new(num_vertices, weighted);
    for v in 1..num_vertices {
        if weighted {
            b.add_weighted_edge(0, v, 1);
        } else {
            b.add_edge(0, v);
        }
    }
    b.build()
}

/// A complete directed graph (no self loops). Quadratic; tests only.
pub fn complete(num_vertices: u32, weighted: bool) -> Csr {
    let mut b = CsrBuilder::new(num_vertices, weighted);
    for s in 0..num_vertices {
        for d in 0..num_vertices {
            if s != d {
                if weighted {
                    b.add_weighted_edge(s, d, 1 + ((s + d) % 7) as Weight);
                } else {
                    b.add_edge(s, d);
                }
            }
        }
    }
    b.build()
}

/// Fluent builder over the generators, used by the facade crate's examples.
///
/// ```
/// use hyt_graph::GraphBuilder;
/// let g = GraphBuilder::rmat(10, 8.0).seed(7).weighted(true).build();
/// assert_eq!(g.num_vertices(), 1024);
/// assert!(g.is_weighted());
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    kind: BuilderKind,
    seed: u64,
    weighted: bool,
}

#[derive(Clone, Debug)]
enum BuilderKind {
    Rmat { scale: u32, edge_factor: f64 },
    ErdosRenyi { num_vertices: u32, num_edges: u64 },
    PowerLawLocal { num_vertices: u32, avg_degree: f64, alpha: f64, locality: f64, window: u32 },
}

impl GraphBuilder {
    /// RMAT graph with `2^scale` vertices.
    pub fn rmat(scale: u32, edge_factor: f64) -> Self {
        GraphBuilder { kind: BuilderKind::Rmat { scale, edge_factor }, seed: 1, weighted: false }
    }

    /// Uniform random graph.
    pub fn erdos_renyi(num_vertices: u32, num_edges: u64) -> Self {
        GraphBuilder {
            kind: BuilderKind::ErdosRenyi { num_vertices, num_edges },
            seed: 1,
            weighted: false,
        }
    }

    /// Power-law graph with web-like id locality.
    pub fn power_law_local(num_vertices: u32, avg_degree: f64) -> Self {
        GraphBuilder {
            kind: BuilderKind::PowerLawLocal {
                num_vertices,
                avg_degree,
                alpha: 1.8,
                locality: 0.8,
                window: num_vertices / 64 + 1,
            },
            seed: 1,
            weighted: false,
        }
    }

    /// Set the RNG seed (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Toggle random edge weights (default unweighted).
    pub fn weighted(mut self, weighted: bool) -> Self {
        self.weighted = weighted;
        self
    }

    /// Generate the graph.
    pub fn build(self) -> Csr {
        match self.kind {
            BuilderKind::Rmat { scale, edge_factor } => {
                rmat(scale, edge_factor, self.seed, self.weighted)
            }
            BuilderKind::ErdosRenyi { num_vertices, num_edges } => {
                erdos_renyi(num_vertices, num_edges, self.seed, self.weighted)
            }
            BuilderKind::PowerLawLocal { num_vertices, avg_degree, alpha, locality, window } => {
                power_law_local(
                    num_vertices,
                    avg_degree,
                    alpha,
                    locality,
                    window,
                    self.seed,
                    self.weighted,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_deterministic_per_seed() {
        let a = rmat(10, 8.0, 42, true);
        let b = rmat(10, 8.0, 42, true);
        assert_eq!(a, b);
        let c = rmat(10, 8.0, 43, true);
        assert_ne!(a, c);
    }

    #[test]
    fn rmat_has_requested_size() {
        let g = rmat(10, 8.0, 1, false);
        assert_eq!(g.num_vertices(), 1024);
        assert_eq!(g.num_edges(), 8192);
        g.validate().unwrap();
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(12, 16.0, 7, false);
        let degs = g.out_degrees();
        let max = *degs.iter().max().unwrap();
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        // Power-law: the hottest vertex should be far above average.
        assert!(max as f64 > 8.0 * avg, "max {max} vs avg {avg}");
    }

    #[test]
    fn erdos_renyi_is_roughly_uniform() {
        let g = erdos_renyi(1 << 12, 1 << 16, 3, false);
        let degs = g.out_degrees();
        let max = *degs.iter().max().unwrap();
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        // Poisson tail: the max should stay within a small factor of avg.
        assert!((max as f64) < 5.0 * avg, "max {max} vs avg {avg}");
    }

    #[test]
    fn power_law_local_hits_average_degree() {
        let g = power_law_local(10_000, 12.0, 1.8, 0.8, 100, 5, true);
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!((avg - 12.0).abs() < 1.5, "avg degree {avg}");
        g.validate().unwrap();
    }

    #[test]
    fn power_law_local_has_locality() {
        let g = power_law_local(10_000, 12.0, 1.8, 0.9, 50, 5, false);
        let mut near = 0u64;
        let mut total = 0u64;
        for v in 0..g.num_vertices() {
            for &n in g.neighbors(v) {
                let dist = (v as i64 - n as i64)
                    .unsigned_abs()
                    .min(g.num_vertices() as u64 - (v as i64 - n as i64).unsigned_abs());
                if dist <= 50 {
                    near += 1;
                }
                total += 1;
            }
        }
        assert!(near as f64 / total as f64 > 0.7, "locality {}", near as f64 / total as f64);
    }

    #[test]
    fn weights_are_in_declared_range() {
        let g = rmat(9, 8.0, 11, true);
        for v in 0..g.num_vertices() {
            for &w in g.weights_of(v) {
                assert!((1..=MAX_RANDOM_WEIGHT).contains(&w));
            }
        }
    }

    #[test]
    fn deterministic_shapes() {
        let c = chain(5, false);
        assert_eq!(c.num_edges(), 4);
        assert_eq!(c.neighbors(2), &[3]);
        let s = star(5, false);
        assert_eq!(s.out_degree(0), 4);
        assert_eq!(s.out_degree(1), 0);
        let k = complete(4, false);
        assert_eq!(k.num_edges(), 12);
    }

    #[test]
    fn builder_facade_matches_direct_call() {
        let a = GraphBuilder::rmat(9, 4.0).seed(9).weighted(true).build();
        let b = rmat(9, 4.0, 9, true);
        assert_eq!(a, b);
    }
}
