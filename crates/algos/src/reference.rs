//! Sequential reference implementations (oracles).
//!
//! Deliberately simple textbook algorithms with no sharing with the system
//! under test: Dijkstra with a binary heap, queue BFS, worklist label
//! propagation, dense power iteration. Every vertex program's converged
//! output is asserted against these in unit and integration tests.

use crate::UNREACHED;
use hyt_graph::{Csr, VertexId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Dijkstra single-source shortest paths ([`UNREACHED`] when unreachable).
pub fn dijkstra(graph: &Csr, source: VertexId) -> Vec<u32> {
    let nv = graph.num_vertices() as usize;
    let mut dist = vec![UNREACHED; nv];
    dist[source as usize] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u32, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for (v, w) in graph.edges_of(u) {
            let nd = d.saturating_add(w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// BFS hop depths ([`UNREACHED`] when unreachable).
pub fn bfs_depths(graph: &Csr, source: VertexId) -> Vec<u32> {
    let nv = graph.num_vertices() as usize;
    let mut depth = vec![UNREACHED; nv];
    depth[source as usize] = 0;
    let mut q = VecDeque::new();
    q.push_back(source);
    while let Some(u) = q.pop_front() {
        let du = depth[u as usize];
        for (v, _) in graph.edges_of(u) {
            if depth[v as usize] == UNREACHED {
                depth[v as usize] = du + 1;
                q.push_back(v);
            }
        }
    }
    depth
}

/// Min-label propagation fixpoint: `label(v)` = min id over `{v} ∪ {u : u
/// can reach v}`. Equals connected components on symmetric graphs.
pub fn cc_labels(graph: &Csr) -> Vec<u32> {
    let nv = graph.num_vertices() as usize;
    let mut label: Vec<u32> = (0..nv as u32).collect();
    let mut q: VecDeque<u32> = (0..nv as u32).collect();
    let mut in_q = vec![true; nv];
    while let Some(u) = q.pop_front() {
        in_q[u as usize] = false;
        let lu = label[u as usize];
        for (v, _) in graph.edges_of(u) {
            if lu < label[v as usize] {
                label[v as usize] = lu;
                if !in_q[v as usize] {
                    in_q[v as usize] = true;
                    q.push_back(v);
                }
            }
        }
    }
    label
}

/// Unnormalised PageRank by Jacobi power iteration:
/// `rank(v) = (1-d) + d·Σ_{u→v} rank(u)/Do(u)`.
pub fn pagerank(graph: &Csr, damping: f64, iterations: u32) -> Vec<f64> {
    let nv = graph.num_vertices() as usize;
    let out_deg = graph.out_degrees();
    let mut rank = vec![1.0 - damping; nv];
    let mut next = vec![0.0f64; nv];
    for _ in 0..iterations {
        next.iter_mut().for_each(|x| *x = 1.0 - damping);
        for u in 0..nv as u32 {
            let du = out_deg[u as usize];
            if du == 0 {
                continue;
            }
            let share = damping * rank[u as usize] / du as f64;
            for (v, _) in graph.edges_of(u) {
                next[v as usize] += share;
            }
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// PHP scores by synchronous Δ propagation: source pinned to 1 and
/// absorbing; messages are decay-and-weight-normalised (see `crate::php`).
pub fn php(graph: &Csr, source: VertexId, decay: f64, iterations: u32) -> Vec<f64> {
    let nv = graph.num_vertices() as usize;
    let weighted_deg: Vec<f64> = (0..nv as u32)
        .map(|u| {
            if graph.is_weighted() {
                graph.weights_of(u).iter().map(|&w| w as f64).sum()
            } else {
                graph.out_degree(u) as f64
            }
        })
        .collect();
    let mut score = vec![0.0f64; nv];
    let mut delta = vec![0.0f64; nv];
    delta[source as usize] = 1.0;
    for _ in 0..iterations {
        let mut next_delta = vec![0.0f64; nv];
        for u in 0..nv as u32 {
            let d = delta[u as usize];
            if d == 0.0 || weighted_deg[u as usize] == 0.0 {
                continue;
            }
            for (v, w) in graph.edges_of(u) {
                if v == source {
                    continue; // absorbed
                }
                next_delta[v as usize] += decay * d * w as f64 / weighted_deg[u as usize];
            }
        }
        for v in 0..nv {
            if v != source as usize {
                score[v] += next_delta[v];
            }
        }
        delta = next_delta;
        delta[source as usize] = 0.0;
    }
    score[source as usize] = 1.0;
    score
}

/// Exact neighbourhood statistics computed by all-pairs BFS — the oracle
/// for `crate::hyperball`'s sketch estimates.
#[derive(Clone, Debug, PartialEq)]
// hyt-lint: allow(unreached-pub) -- named in the public signature of `neighbourhood_function`
pub struct NeighbourhoodOracle {
    /// `nf[t]` = number of ordered pairs `(u, v)` with `d(u→v) ≤ t`,
    /// including the `nv` trivial `d = 0` pairs; `nf[0] = nv`. The last
    /// entry is the number of connected (reachable) pairs.
    pub nf: Vec<f64>,
    /// In-harmonic centrality: `harmonic[v] = Σ_{u ≠ v reaching v} 1/d(u→v)`
    /// (pass the transpose to get the out-distance convention).
    pub harmonic: Vec<f64>,
    /// `sum_of_distances[v] = Σ_{u reaching v} d(u→v)` — the denominator
    /// of (in-)closeness centrality.
    pub sum_of_distances: Vec<f64>,
    /// Largest finite directed distance (0 for edgeless graphs).
    pub diameter: u32,
}

/// All-pairs BFS over out-edges: hop distances `d(u→v)`, folded into the
/// neighbourhood function and per-vertex centrality sums. Quadratic and
/// deliberately naive — the obviously-correct baseline the HyperBall
/// sketches are tested against.
pub fn neighbourhood_function(graph: &Csr) -> NeighbourhoodOracle {
    let nv = graph.num_vertices() as usize;
    let mut nf_counts: Vec<u64> = vec![nv as u64]; // t = 0: the diagonal
    let mut harmonic = vec![0.0f64; nv];
    let mut sum_of_distances = vec![0.0f64; nv];
    let mut diameter = 0u32;
    for u in 0..nv as u32 {
        let depth = bfs_depths(graph, u);
        for (v, &d) in depth.iter().enumerate() {
            if d == UNREACHED || d == 0 {
                continue;
            }
            if nf_counts.len() <= d as usize {
                nf_counts.resize(d as usize + 1, 0);
            }
            nf_counts[d as usize] += 1;
            harmonic[v] += 1.0 / d as f64;
            sum_of_distances[v] += d as f64;
            diameter = diameter.max(d);
        }
    }
    // Prefix-sum the per-distance counts into the cumulative N(t).
    let mut nf = Vec::with_capacity(nf_counts.len());
    let mut acc = 0u64;
    for c in nf_counts {
        acc += c;
        nf.push(acc as f64);
    }
    NeighbourhoodOracle { nf, harmonic, sum_of_distances, diameter }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_graph::generators;

    #[test]
    fn dijkstra_on_chain() {
        let g = generators::chain(5, true);
        assert_eq!(dijkstra(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(dijkstra(&g, 2), vec![UNREACHED, UNREACHED, 0, 1, 2]);
    }

    #[test]
    fn bfs_equals_dijkstra_on_unit_weights() {
        let g = generators::rmat(9, 6.0, 3, false); // unweighted => w = 1
        assert_eq!(bfs_depths(&g, 0), dijkstra(&g, 0));
    }

    #[test]
    fn cc_on_disjoint_chains() {
        let mut el = hyt_graph::EdgeList::new(6);
        el.push(0, 1);
        el.push(1, 0);
        el.push(4, 5);
        el.push(5, 4);
        let g = el.to_csr();
        assert_eq!(cc_labels(&g), vec![0, 0, 2, 3, 4, 4]);
    }

    #[test]
    fn pagerank_sums_are_stable() {
        // Residual decays like damping^iters: 0.85^200 ≈ 6e-15.
        let g = generators::rmat(8, 8.0, 1, false);
        let r200 = pagerank(&g, 0.85, 200);
        let r300 = pagerank(&g, 0.85, 300);
        let err: f64 = r200.iter().zip(&r300).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-9, "not converged: {err}");
    }

    #[test]
    fn neighbourhood_oracle_on_chain() {
        // 0→1→2→3→4 with all pairs (u, v), u ≤ v, at distance v − u.
        let g = generators::chain(5, true);
        let o = neighbourhood_function(&g);
        // N(t): 5 diagonal + 4 at d=1 + 3 + 2 + 1.
        assert_eq!(o.nf, vec![5.0, 9.0, 12.0, 14.0, 15.0]);
        assert_eq!(o.diameter, 4);
        // Vertex 2 is reached by 0 (d=2) and 1 (d=1).
        assert!((o.harmonic[2] - 1.5).abs() < 1e-12);
        assert!((o.sum_of_distances[2] - 3.0).abs() < 1e-12);
        assert_eq!(o.harmonic[0], 0.0);
    }

    #[test]
    fn neighbourhood_oracle_counts_reachable_pairs() {
        let g = generators::rmat(7, 4.0, 5, false);
        let o = neighbourhood_function(&g);
        // Cumulative and capped by nv².
        for w in o.nf.windows(2) {
            assert!(w[1] >= w[0]);
        }
        let nv = g.num_vertices() as f64;
        assert!(*o.nf.last().unwrap() <= nv * nv);
        assert_eq!(o.nf[0], nv);
    }

    #[test]
    fn php_chain_decays_geometrically() {
        let g = generators::chain(5, true);
        let s = php(&g, 0, 0.8, 50);
        assert_eq!(s[0], 1.0);
        assert!((s[1] - 0.8).abs() < 1e-12);
        assert!((s[2] - 0.64).abs() < 1e-12);
    }
}
