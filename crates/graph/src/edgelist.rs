//! Mutable edge-list container: the interchange format between generators,
//! text IO, and [`Csr`] construction.

use crate::{Csr, CsrBuilder, GraphError, VertexId, Weight, MAX_EDGE_MULTIPLICITY};

/// A growable list of directed, optionally weighted edges.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeList {
    num_vertices: u32,
    edges: Vec<(VertexId, VertexId)>,
    weights: Vec<Weight>,
    weighted: bool,
}

impl EdgeList {
    /// Empty list over `num_vertices` vertices (unweighted until the first
    /// weighted push).
    pub fn new(num_vertices: u32) -> Self {
        EdgeList { num_vertices, ..Default::default() }
    }

    /// Empty list with pre-allocated edge capacity.
    pub fn with_capacity(num_vertices: u32, edges: usize) -> Self {
        let mut el = Self::new(num_vertices);
        el.edges.reserve(edges);
        el
    }

    /// Number of vertices in the id space.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edges are present.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Whether any weighted edge was pushed.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// The raw edge pairs.
    pub fn edges(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Weight of edge `i` (1 when unweighted).
    pub fn weight(&self, i: usize) -> Weight {
        if self.weighted {
            self.weights[i]
        } else {
            1
        }
    }

    /// Add an unweighted edge. Panics in debug builds on out-of-range
    /// ids — for trusted producers (generators) whose ids are in-range
    /// by construction. Untrusted input goes through
    /// [`EdgeList::try_push`].
    pub fn push(&mut self, src: VertexId, dst: VertexId) {
        debug_assert!(src < self.num_vertices && dst < self.num_vertices);
        if self.weighted {
            self.weights.push(1);
        }
        self.edges.push((src, dst));
    }

    /// Add a weighted edge. Promotes the list to weighted, back-filling
    /// earlier edges with weight 1. Same trust contract as
    /// [`EdgeList::push`]; see [`EdgeList::try_push_weighted`].
    pub fn push_weighted(&mut self, src: VertexId, dst: VertexId, w: Weight) {
        debug_assert!(src < self.num_vertices && dst < self.num_vertices);
        if !self.weighted {
            self.weights = vec![1; self.edges.len()];
            self.weighted = true;
        }
        self.edges.push((src, dst));
        self.weights.push(w);
    }

    /// Add an unweighted edge, rejecting out-of-range endpoints — the
    /// checked path for untrusted input (release builds would otherwise
    /// accept the edge and fail CSR validation much later, or not at
    /// all).
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] when an endpoint is outside
    /// `0..num_vertices`.
    pub fn try_push(&mut self, src: VertexId, dst: VertexId) -> Result<(), GraphError> {
        self.check_range(src)?;
        self.check_range(dst)?;
        self.push(src, dst);
        Ok(())
    }

    /// Add a weighted edge, rejecting out-of-range endpoints. Checked
    /// counterpart of [`EdgeList::push_weighted`].
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] when an endpoint is outside
    /// `0..num_vertices`.
    pub fn try_push_weighted(
        &mut self,
        src: VertexId,
        dst: VertexId,
        w: Weight,
    ) -> Result<(), GraphError> {
        self.check_range(src)?;
        self.check_range(dst)?;
        self.push_weighted(src, dst, w);
        Ok(())
    }

    fn check_range(&self, v: VertexId) -> Result<(), GraphError> {
        if v >= self.num_vertices {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.num_vertices,
            });
        }
        Ok(())
    }

    /// Convert into CSR after validating the whole list: every endpoint
    /// in range, and no `(src, dst)` pair repeated beyond
    /// [`MAX_EDGE_MULTIPLICITY`] (real crawls carry duplicates; a group
    /// at that scale is corrupt input that would silently blow up the
    /// degree overlays downstream).
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] or
    /// [`GraphError::DuplicateEdgeOverflow`] on the first violation.
    // hyt-lint: allow(unreached-pub) -- the safety check for untrusted edge lists such as `io::parse_edge_list` reads
    pub fn try_to_csr(&self) -> Result<Csr, GraphError> {
        for &(s, d) in &self.edges {
            self.check_range(s)?;
            self.check_range(d)?;
        }
        let mut sorted = self.edges.clone();
        sorted.sort_unstable();
        let mut run = 0u64;
        for i in 0..sorted.len() {
            run = if i > 0 && sorted[i] == sorted[i - 1] { run + 1 } else { 1 };
            if run > MAX_EDGE_MULTIPLICITY {
                let (src, dst) = sorted[i];
                let multiplicity =
                    run + sorted[i + 1..].iter().take_while(|&&e| e == (src, dst)).count() as u64;
                return Err(GraphError::DuplicateEdgeOverflow { src, dst, multiplicity });
            }
        }
        Ok(self.to_csr())
    }

    /// Append the reverse of every edge (making the graph symmetric, the
    /// standard treatment for undirected inputs such as Friendster).
    pub fn symmetrize(&mut self) {
        let n = self.edges.len();
        self.edges.reserve(n);
        for i in 0..n {
            let (s, d) = self.edges[i];
            self.edges.push((d, s));
            if self.weighted {
                let w = self.weights[i];
                self.weights.push(w);
            }
        }
    }

    /// Remove duplicate edges (keeping the first weight) and self-loops.
    pub fn dedup(&mut self) {
        let mut order: Vec<usize> = (0..self.edges.len()).collect();
        order.sort_unstable_by_key(|&i| self.edges[i]);
        let mut keep = Vec::with_capacity(self.edges.len());
        let mut last: Option<(VertexId, VertexId)> = None;
        for i in order {
            let e = self.edges[i];
            if e.0 == e.1 {
                continue;
            }
            if last != Some(e) {
                keep.push(i);
                last = Some(e);
            }
        }
        keep.sort_unstable();
        let mut edges = Vec::with_capacity(keep.len());
        let mut weights = Vec::with_capacity(if self.weighted { keep.len() } else { 0 });
        for i in keep {
            edges.push(self.edges[i]);
            if self.weighted {
                weights.push(self.weights[i]);
            }
        }
        self.edges = edges;
        self.weights = weights;
    }

    /// Convert into CSR.
    pub fn to_csr(&self) -> Csr {
        let mut b = CsrBuilder::new(self.num_vertices, self.weighted);
        b.reserve(self.edges.len());
        for (i, &(s, d)) in self.edges.iter().enumerate() {
            if self.weighted {
                b.add_weighted_edge(s, d, self.weights[i]);
            } else {
                b.add_edge(s, d);
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_weighted_promotes_and_backfills() {
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.push(1, 2);
        assert!(!el.is_weighted());
        el.push_weighted(2, 3, 7);
        assert!(el.is_weighted());
        assert_eq!(el.weight(0), 1);
        assert_eq!(el.weight(2), 7);
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 5);
        el.push_weighted(1, 2, 9);
        el.symmetrize();
        assert_eq!(el.len(), 4);
        assert_eq!(el.edges()[2], (1, 0));
        assert_eq!(el.weight(2), 5);
    }

    #[test]
    fn dedup_removes_loops_and_duplicates() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 3);
        el.push_weighted(0, 0, 4); // self loop
        el.push_weighted(0, 1, 8); // duplicate, later weight dropped
        el.push_weighted(2, 1, 1);
        el.dedup();
        assert_eq!(el.len(), 2);
        assert_eq!(el.edges(), &[(0, 1), (2, 1)]);
        assert_eq!(el.weight(0), 3);
    }

    #[test]
    fn try_push_reports_out_of_range_endpoints() {
        let mut el = EdgeList::new(3);
        el.try_push(0, 2).unwrap();
        assert_eq!(
            el.try_push(0, 3),
            Err(GraphError::VertexOutOfRange { vertex: 3, num_vertices: 3 })
        );
        assert_eq!(
            el.try_push_weighted(5, 1, 9),
            Err(GraphError::VertexOutOfRange { vertex: 5, num_vertices: 3 })
        );
        // The failed pushes added nothing.
        assert_eq!(el.len(), 1);
    }

    #[test]
    fn try_to_csr_rejects_duplicate_edge_overflow() {
        let mut el = EdgeList::new(2);
        for _ in 0..=MAX_EDGE_MULTIPLICITY {
            el.push(0, 1);
        }
        el.push(1, 0);
        match el.try_to_csr() {
            Err(GraphError::DuplicateEdgeOverflow { src: 0, dst: 1, multiplicity }) => {
                assert_eq!(multiplicity, MAX_EDGE_MULTIPLICITY + 1);
            }
            other => panic!("expected overflow, got {other:?}"),
        }
        // At the cap it converts fine.
        let mut ok = EdgeList::new(2);
        for _ in 0..MAX_EDGE_MULTIPLICITY {
            ok.push(0, 1);
        }
        assert_eq!(ok.try_to_csr().unwrap().num_edges(), MAX_EDGE_MULTIPLICITY);
    }

    #[test]
    fn csr_round_trip_preserves_edges() {
        let mut el = EdgeList::new(5);
        el.push_weighted(4, 0, 2);
        el.push_weighted(1, 3, 6);
        el.push_weighted(1, 2, 1);
        let g = el.to_csr();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(1), &[3, 2]); // insertion order within source
        assert_eq!(g.weights_of(1), &[6, 1]);
    }
}
