//! Compressed sparse row (CSR) graph storage.
//!
//! The layout matches the paper's Fig. 1: a `row_offset` array of
//! `|V| + 1` entries, a `col_index` array of `|E|` neighbour ids, and an
//! optional `weights` array parallel to `col_index`. `row_offset` and all
//! vertex-associated state are considered GPU-resident by the transfer
//! layers; `col_index`/`weights` are host-resident and must be moved across
//! the simulated PCIe bus before a kernel may touch them.

use crate::{EdgeList, VertexId, Weight};

/// An immutable directed graph in CSR form.
///
/// Invariants (checked by [`Csr::from_parts`] and enforced by all
/// constructors in this crate):
///
/// * `row_offset.len() == num_vertices + 1`
/// * `row_offset` is non-decreasing, `row_offset[0] == 0`,
///   `row_offset[num_vertices] == col_index.len()`
/// * every entry of `col_index` is `< num_vertices`
/// * `weights`, when present, has exactly `col_index.len()` entries
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    num_vertices: u32,
    row_offset: Vec<u64>,
    col_index: Vec<VertexId>,
    weights: Option<Vec<Weight>>,
}

impl Csr {
    /// Build a CSR directly from raw parts, validating every invariant.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn from_parts(
        num_vertices: u32,
        row_offset: Vec<u64>,
        col_index: Vec<VertexId>,
        weights: Option<Vec<Weight>>,
    ) -> Result<Self, String> {
        let csr = Csr { num_vertices, row_offset, col_index, weights };
        csr.validate()?;
        Ok(csr)
    }

    /// Check all structural invariants, returning the first violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let nv = self.num_vertices as usize;
        if self.row_offset.len() != nv + 1 {
            return Err(format!(
                "row_offset has {} entries, expected |V|+1 = {}",
                self.row_offset.len(),
                nv + 1
            ));
        }
        if self.row_offset[0] != 0 {
            return Err(format!("row_offset[0] = {}, expected 0", self.row_offset[0]));
        }
        for w in self.row_offset.windows(2) {
            if w[1] < w[0] {
                return Err(format!("row_offset not monotone: {} then {}", w[0], w[1]));
            }
        }
        if self.row_offset[nv] != self.col_index.len() as u64 {
            return Err(format!(
                "row_offset[|V|] = {} but col_index has {} entries",
                self.row_offset[nv],
                self.col_index.len()
            ));
        }
        if let Some(bad) = self.col_index.iter().find(|&&v| v >= self.num_vertices) {
            return Err(format!("col_index contains vertex {bad} >= |V| = {}", self.num_vertices));
        }
        if let Some(w) = &self.weights {
            if w.len() != self.col_index.len() {
                return Err(format!(
                    "weights has {} entries but col_index has {}",
                    w.len(),
                    self.col_index.len()
                ));
            }
        }
        Ok(())
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.col_index.len() as u64
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u64 {
        let v = v as usize;
        self.row_offset[v + 1] - self.row_offset[v]
    }

    /// Half-open byte/entry range of `v`'s neighbour run in `col_index`.
    #[inline]
    pub fn neighbor_range(&self, v: VertexId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.row_offset[v] as usize..self.row_offset[v + 1] as usize
    }

    /// Neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.col_index[self.neighbor_range(v)]
    }

    /// Weights of `v`'s out-edges, parallel to [`Csr::neighbors`].
    /// Panics if the graph is unweighted.
    #[inline]
    pub fn weights_of(&self, v: VertexId) -> &[Weight] {
        // hyt-lint: allow(unwrap-in-lib) -- documented caller contract: this accessor panics on unweighted graphs (see doc comment)
        let w = self.weights.as_ref().expect("graph is unweighted");
        &w[self.neighbor_range(v)]
    }

    /// `(neighbor, weight)` pairs of `v`'s out-edges; weight is 1 for
    /// unweighted graphs, so unweighted algorithms can share code paths.
    pub fn edges_of(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let range = self.neighbor_range(v);
        let nbrs = &self.col_index[range.clone()];
        let ws = self.weights.as_ref().map(|w| &w[range]);
        nbrs.iter().enumerate().map(move |(i, &n)| (n, ws.map_or(1, |w| w[i])))
    }

    /// Whether edge weights are stored.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// The full row-offset array (GPU-resident in the paper's model).
    #[inline]
    pub fn row_offset(&self) -> &[u64] {
        &self.row_offset
    }

    /// The full neighbour array (host-resident in the paper's model).
    #[inline]
    pub fn col_index(&self) -> &[VertexId] {
        &self.col_index
    }

    /// The full weight array if present (host-resident).
    #[inline]
    pub fn weights(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }

    /// Total bytes of host-resident edge-associated data: the neighbour
    /// array plus the weight array when present. This is the quantity that
    /// must cross the bus if the whole graph is shipped once.
    pub fn edge_bytes(&self) -> u64 {
        let per_edge = crate::NEIGHBOR_BYTES
            + if self.is_weighted() { std::mem::size_of::<Weight>() as u64 } else { 0 };
        self.num_edges() * per_edge
    }

    /// Bytes of edge-associated data per edge entry.
    pub fn bytes_per_edge(&self) -> u64 {
        self.edge_bytes() / self.num_edges().max(1)
    }

    /// In-degrees of all vertices (one counting pass over `col_index`).
    pub fn in_degrees(&self) -> Vec<u64> {
        let mut d = vec![0u64; self.num_vertices as usize];
        for &dst in &self.col_index {
            d[dst as usize] += 1;
        }
        d
    }

    /// Out-degrees of all vertices.
    pub fn out_degrees(&self) -> Vec<u64> {
        self.row_offset.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// The transposed graph (every edge reversed). Weights follow edges.
    #[cfg(test)]
    pub(crate) fn transpose(&self) -> Csr {
        let nv = self.num_vertices as usize;
        let mut counts = vec![0u64; nv + 1];
        for &dst in &self.col_index {
            counts[dst as usize + 1] += 1;
        }
        for i in 0..nv {
            counts[i + 1] += counts[i];
        }
        let row_offset = counts.clone();
        let mut cursor = counts;
        let mut col_index = vec![0 as VertexId; self.col_index.len()];
        let mut weights = self.weights.as_ref().map(|_| vec![0 as Weight; self.col_index.len()]);
        for v in 0..nv {
            let range = self.neighbor_range(v as VertexId);
            for i in range {
                let dst = self.col_index[i] as usize;
                let slot = cursor[dst] as usize;
                cursor[dst] += 1;
                col_index[slot] = v as VertexId;
                if let (Some(out), Some(src)) = (&mut weights, &self.weights) {
                    out[slot] = src[i];
                }
            }
        }
        Csr { num_vertices: self.num_vertices, row_offset, col_index, weights }
    }

    /// Apply a vertex relabelling: `perm[old] = new`. Returns the graph with
    /// every endpoint renamed and rows laid out in the *new* id order.
    /// `perm` must be a permutation of `0..num_vertices`; this is checked.
    pub fn relabel(&self, perm: &[VertexId]) -> Result<Csr, String> {
        let nv = self.num_vertices as usize;
        if perm.len() != nv {
            return Err(format!("perm has {} entries, expected {nv}", perm.len()));
        }
        let mut seen = vec![false; nv];
        for &p in perm {
            if p as usize >= nv || std::mem::replace(&mut seen[p as usize], true) {
                return Err("perm is not a permutation".into());
            }
        }
        // inverse: inv[new] = old
        let mut inv = vec![0 as VertexId; nv];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = old as VertexId;
        }
        let mut row_offset = Vec::with_capacity(nv + 1);
        row_offset.push(0u64);
        let mut col_index = Vec::with_capacity(self.col_index.len());
        let mut weights = self.weights.as_ref().map(|_| Vec::with_capacity(self.col_index.len()));
        for &old in inv.iter().take(nv) {
            let range = self.neighbor_range(old);
            for i in range {
                col_index.push(perm[self.col_index[i] as usize]);
                if let (Some(out), Some(src)) = (&mut weights, &self.weights) {
                    out.push(src[i]);
                }
            }
            row_offset.push(col_index.len() as u64);
        }
        Ok(Csr { num_vertices: self.num_vertices, row_offset, col_index, weights })
    }

    /// Convert back into an edge list (used by tests and property checks).
    pub fn to_edge_list(&self) -> EdgeList {
        let mut el = EdgeList::with_capacity(self.num_vertices, self.col_index.len());
        for v in 0..self.num_vertices {
            for (n, w) in self.edges_of(v) {
                if self.is_weighted() {
                    el.push_weighted(v, n, w);
                } else {
                    el.push(v, n);
                }
            }
        }
        el
    }
}

/// Incremental CSR builder used by generators and IO.
///
/// Collects edges in any order, then sorts by `(src, dst)` via a counting
/// pass — O(|V| + |E|), no comparison sort.
#[derive(Clone, Debug, Default)]
pub struct CsrBuilder {
    num_vertices: u32,
    srcs: Vec<VertexId>,
    dsts: Vec<VertexId>,
    weights: Vec<Weight>,
    weighted: bool,
}

impl CsrBuilder {
    /// New builder for a graph on `num_vertices` vertices. `weighted`
    /// decides whether [`CsrBuilder::build`] emits a weight array.
    pub fn new(num_vertices: u32, weighted: bool) -> Self {
        CsrBuilder { num_vertices, weighted, ..Default::default() }
    }

    /// Pre-allocate room for `edges` edges.
    pub fn reserve(&mut self, edges: usize) {
        self.srcs.reserve(edges);
        self.dsts.reserve(edges);
        if self.weighted {
            self.weights.reserve(edges);
        }
    }

    /// Add a directed edge with weight 1.
    #[inline]
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        self.add_weighted_edge(src, dst, 1)
    }

    /// Add a directed weighted edge.
    #[inline]
    pub fn add_weighted_edge(&mut self, src: VertexId, dst: VertexId, w: Weight) {
        debug_assert!(src < self.num_vertices && dst < self.num_vertices);
        self.srcs.push(src);
        self.dsts.push(dst);
        if self.weighted {
            self.weights.push(w);
        }
    }

    /// Number of edges added so far.
    pub fn len(&self) -> usize {
        self.srcs.len()
    }

    /// True when no edges were added.
    pub fn is_empty(&self) -> bool {
        self.srcs.is_empty()
    }

    /// Finish: counting-sort edges by source and emit a valid [`Csr`].
    /// Neighbour runs keep insertion order within a source, matching how
    /// on-disk edge lists behave; duplicates and self-loops are kept
    /// (real-world web crawls contain both).
    pub fn build(self) -> Csr {
        let nv = self.num_vertices as usize;
        let ne = self.srcs.len();
        let mut counts = vec![0u64; nv + 1];
        for &s in &self.srcs {
            counts[s as usize + 1] += 1;
        }
        for i in 0..nv {
            counts[i + 1] += counts[i];
        }
        let row_offset = counts.clone();
        let mut cursor = counts;
        let mut col_index = vec![0 as VertexId; ne];
        let mut weights = if self.weighted { Some(vec![0 as Weight; ne]) } else { None };
        for i in 0..ne {
            let s = self.srcs[i] as usize;
            let slot = cursor[s] as usize;
            cursor[s] += 1;
            col_index[slot] = self.dsts[i];
            if let Some(w) = &mut weights {
                w[slot] = self.weights[i];
            }
        }
        let csr = Csr { num_vertices: self.num_vertices, row_offset, col_index, weights };
        debug_assert!(csr.validate().is_ok());
        csr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 6-vertex SSSP example of the paper's Fig. 1.
    pub(crate) fn fig1_graph() -> Csr {
        // a=0 b=1 c=2 d=3 e=4 f=5
        let mut b = CsrBuilder::new(6, true);
        b.add_weighted_edge(0, 1, 2); // a->b 2
        b.add_weighted_edge(0, 2, 6); // a->c 6
        b.add_weighted_edge(1, 2, 1); // b->c 1
        b.add_weighted_edge(2, 3, 1); // c->d 1
        b.add_weighted_edge(2, 4, 2); // c->e 2
        b.add_weighted_edge(2, 5, 4); // c->f 4
        b.add_weighted_edge(3, 4, 3); // d->e ... toy values
        b.add_weighted_edge(4, 5, 1);
        b.add_weighted_edge(5, 3, 3);
        b.add_weighted_edge(3, 0, 2);
        b.build()
    }

    #[test]
    fn builder_produces_valid_csr() {
        let g = fig1_graph();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 10);
        g.validate().unwrap();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.weights_of(0), &[2, 6]);
        assert_eq!(g.out_degree(2), 3);
    }

    #[test]
    fn builder_handles_unsorted_insertion() {
        let mut b = CsrBuilder::new(4, false);
        b.add_edge(3, 0);
        b.add_edge(0, 1);
        b.add_edge(3, 2);
        b.add_edge(1, 2);
        b.add_edge(0, 3);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(3), &[0, 2]);
        assert_eq!(g.out_degree(2), 0);
    }

    #[test]
    fn edges_of_defaults_weight_one_for_unweighted() {
        let mut b = CsrBuilder::new(2, false);
        b.add_edge(0, 1);
        let g = b.build();
        let edges: Vec<_> = g.edges_of(0).collect();
        assert_eq!(edges, vec![(1, 1)]);
    }

    #[test]
    fn transpose_reverses_all_edges() {
        let g = fig1_graph();
        let t = g.transpose();
        t.validate().unwrap();
        assert_eq!(t.num_edges(), g.num_edges());
        // a->b in g means b->a in t
        assert!(t.neighbors(1).contains(&0));
        // weights follow: a->b has weight 2
        let pos = t.neighbors(1).iter().position(|&x| x == 0).unwrap();
        assert_eq!(t.weights_of(1)[pos], 2);
        // double transpose is identity up to neighbour order
        let tt = t.transpose();
        for v in 0..g.num_vertices() {
            let mut a: Vec<_> = g.edges_of(v).collect();
            let mut b: Vec<_> = tt.edges_of(v).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "vertex {v}");
        }
    }

    #[test]
    fn in_degrees_match_transpose_out_degrees() {
        let g = fig1_graph();
        assert_eq!(g.in_degrees(), g.transpose().out_degrees());
    }

    #[test]
    fn relabel_identity_is_noop() {
        let g = fig1_graph();
        let perm: Vec<u32> = (0..6).collect();
        assert_eq!(g.relabel(&perm).unwrap(), g);
    }

    #[test]
    fn relabel_swap_renames_endpoints() {
        let g = fig1_graph();
        // swap a(0) and c(2)
        let perm = vec![2, 1, 0, 3, 4, 5];
        let r = g.relabel(&perm).unwrap();
        r.validate().unwrap();
        // old a->b(2) becomes new 2->1 with weight 2
        let pos = r.neighbors(2).iter().position(|&x| x == 1).unwrap();
        assert_eq!(r.weights_of(2)[pos], 2);
        // degree is preserved under relabelling
        assert_eq!(r.out_degree(2), g.out_degree(0));
        assert_eq!(r.out_degree(0), g.out_degree(2));
    }

    #[test]
    fn relabel_rejects_non_permutation() {
        let g = fig1_graph();
        assert!(g.relabel(&[0, 0, 1, 2, 3, 4]).is_err());
        assert!(g.relabel(&[0, 1, 2]).is_err());
    }

    #[test]
    fn validate_catches_corruption() {
        let g = fig1_graph();
        let mut bad = g.clone();
        bad.col_index[0] = 99;
        assert!(bad.validate().is_err());
        let mut bad = g.clone();
        bad.row_offset[1] = 1 << 40;
        assert!(bad.validate().is_err());
        let mut bad = g;
        bad.row_offset[0] = 1;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn edge_bytes_counts_weights() {
        let g = fig1_graph(); // weighted: 4B neighbour + 4B weight
        assert_eq!(g.edge_bytes(), 10 * 8);
        let mut b = CsrBuilder::new(3, false);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let u = b.build();
        assert_eq!(u.edge_bytes(), 2 * 4);
    }

    #[test]
    fn empty_and_isolated_vertices() {
        let b = CsrBuilder::new(5, false);
        let g = b.build();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_degree(4), 0);
        g.validate().unwrap();
        let t = g.transpose();
        assert_eq!(t.num_edges(), 0);
    }

    #[test]
    fn round_trip_via_edge_list() {
        let g = fig1_graph();
        let el = g.to_edge_list();
        let g2 = el.to_csr();
        assert_eq!(g, g2);
    }
}
