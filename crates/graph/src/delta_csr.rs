//! Delta-CSR: streaming mutations over an immutable base CSR.
//!
//! The paper prices every transfer decision against a *fixed* resident
//! CSR. This module lifts that assumption the way streaming systems do
//! (Kineograph/differential-style delta segments): the base [`Csr`] stays
//! immutable, and every partition accumulates an append-only **delta
//! segment** of edge inserts plus **tombstones** over base slots for
//! deletes. A unified adjacency iterator presents the live graph —
//! surviving base edges in their original order, then inserts in arrival
//! order — and a priced [`DeltaCsr::compact`] folds everything into a
//! fresh base.
//!
//! Ordering contract (load-bearing for the bit-identity tests): for every
//! vertex, [`DeltaCsr::edges_of`] yields exactly the sequence that
//! [`Csr::edges_of`] yields on [`DeltaCsr::compact`]'s output. This holds
//! because [`CsrBuilder`] counting-sorts by source while preserving
//! per-source insertion order, and `compact` feeds it vertices in id
//! order with each vertex's unified run in iterator order.
//!
//! Mutations address endpoints in whatever id space the base CSR uses;
//! the runner maps original ids through its hub permutation *before*
//! calling in, exactly as it does for query sources.

use crate::{Csr, CsrBuilder, GraphError, PartitionSet, VertexId, Weight};
use std::collections::HashMap;

/// One edge mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    /// Insert a directed edge. `weight` must be 1 on unweighted graphs.
    Insert {
        /// Source endpoint.
        src: VertexId,
        /// Destination endpoint.
        dst: VertexId,
        /// Edge weight (1 for unweighted graphs).
        weight: Weight,
    },
    /// Delete the first live occurrence of a directed edge.
    Delete {
        /// Source endpoint.
        src: VertexId,
        /// Destination endpoint.
        dst: VertexId,
    },
}

impl EdgeOp {
    /// The source endpoint the op touches (the vertex whose adjacency
    /// changes).
    #[inline]
    pub fn src(&self) -> VertexId {
        match *self {
            EdgeOp::Insert { src, .. } | EdgeOp::Delete { src, .. } => src,
        }
    }

    /// The destination endpoint.
    #[inline]
    pub fn dst(&self) -> VertexId {
        match *self {
            EdgeOp::Insert { dst, .. } | EdgeOp::Delete { dst, .. } => dst,
        }
    }
}

/// An ordered batch of edge mutations, applied atomically between
/// iterations (and, through the session service, serialized against
/// in-flight query cohorts).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct MutationBatch {
    ops: Vec<EdgeOp>,
}

impl MutationBatch {
    /// Empty batch.
    pub fn new() -> Self {
        MutationBatch::default()
    }

    /// Append an unweighted insert (weight 1).
    pub fn insert(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.ops.push(EdgeOp::Insert { src, dst, weight: 1 });
        self
    }

    /// Append a weighted insert.
    pub fn insert_weighted(&mut self, src: VertexId, dst: VertexId, weight: Weight) -> &mut Self {
        self.ops.push(EdgeOp::Insert { src, dst, weight });
        self
    }

    /// Append a delete of the first live `(src, dst)` occurrence.
    pub fn delete(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.ops.push(EdgeOp::Delete { src, dst });
        self
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[EdgeOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Per-vertex mutation overlay: tombstoned base slots plus appended
/// inserts (with their own tombstones, so a delete of a never-compacted
/// insert leaves no live trace).
#[derive(Clone, Debug, Default)]
struct Overlay {
    /// Tombstoned positions within the vertex's base neighbour run,
    /// ascending.
    dead_base: Vec<u32>,
    /// Appended edges in arrival order.
    inserts: Vec<(VertexId, Weight)>,
    /// Tombstoned positions within `inserts`, ascending.
    dead_inserts: Vec<u32>,
}

impl Overlay {
    fn live_inserts(&self) -> u64 {
        (self.inserts.len() - self.dead_inserts.len()) as u64
    }
}

/// An immutable base [`Csr`] plus per-partition append-only delta
/// segments: degree overlays, edge inserts, and tombstoned deletes.
///
/// Partition boundaries are captured at construction (they index the
/// *base* edge spans) and stay fixed until the owner folds the deltas via
/// [`DeltaCsr::compact`] and re-partitions the result.
#[derive(Clone, Debug)]
pub struct DeltaCsr {
    base: Csr,
    overlays: HashMap<VertexId, Overlay>,
    /// `end_vertex` of each partition, ascending; `owner_of` is a
    /// partition-point lookup. A single all-covering partition when built
    /// without a [`PartitionSet`].
    bounds: Vec<VertexId>,
    /// Live appended edges per partition (inserts minus insert-tombstones).
    delta_live: Vec<u64>,
    /// Tombstoned base edges per partition (still occupying contiguous
    /// base bytes, so they ship wastefully until compaction).
    dead_base: Vec<u64>,
    /// Tombstoned inserts per partition (segment garbage: skipped by the
    /// iterator but inflating the overlay structures).
    garbage: Vec<u64>,
    /// Partitions whose adjacency changed since the last
    /// [`DeltaCsr::take_dirty`].
    dirty: Vec<bool>,
    live_edges: u64,
}

impl DeltaCsr {
    /// Wrap `base` with a single all-covering partition.
    pub fn new(base: Csr) -> Self {
        let nv = base.num_vertices();
        DeltaCsr::with_bounds(base, vec![nv])
    }

    /// Wrap `base` with the partition boundaries of `parts` (which must
    /// have been built over `base`).
    pub fn with_partitions(base: Csr, parts: &PartitionSet) -> Self {
        let bounds = parts.partitions().iter().map(|p| p.end_vertex).collect();
        DeltaCsr::with_bounds(base, bounds)
    }

    fn with_bounds(base: Csr, bounds: Vec<VertexId>) -> Self {
        let n = bounds.len();
        let live_edges = base.num_edges();
        DeltaCsr {
            base,
            overlays: HashMap::new(),
            bounds,
            delta_live: vec![0; n],
            dead_base: vec![0; n],
            garbage: vec![0; n],
            dirty: vec![false; n],
            live_edges,
        }
    }

    /// The immutable base CSR (no delta applied).
    pub fn base(&self) -> &Csr {
        &self.base
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.base.num_vertices()
    }

    /// Number of *live* directed edges (base minus tombstones plus live
    /// inserts).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.live_edges
    }

    /// Whether edge weights are stored.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.base.is_weighted()
    }

    /// Bytes of edge-associated data per edge entry (base layout; delta
    /// segments store the same `(neighbour[, weight])` record).
    pub fn bytes_per_edge(&self) -> u64 {
        self.base.bytes_per_edge()
    }

    /// Total live host-resident edge bytes.
    pub fn edge_bytes(&self) -> u64 {
        self.live_edges * self.bytes_per_edge()
    }

    /// Live out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u64 {
        let base = self.base.out_degree(v);
        match self.overlays.get(&v) {
            None => base,
            Some(o) => base - o.dead_base.len() as u64 + o.live_inserts(),
        }
    }

    /// Entry offset of `v`'s neighbour run in the host-resident edge
    /// array. Delta segments are appended out-of-line but priced as part
    /// of the same request stream, so the *base* offset anchors the span.
    #[inline]
    pub fn edge_offset(&self, v: VertexId) -> u64 {
        self.base.row_offset()[v as usize]
    }

    /// `(neighbour, weight)` pairs of `v`'s live out-edges: surviving
    /// base edges in base order, then live inserts in arrival order.
    /// Weight is 1 on unweighted graphs.
    pub fn edges_of(&self, v: VertexId) -> DeltaEdges<'_> {
        static NO_OVERLAY: Overlay =
            Overlay { dead_base: Vec::new(), inserts: Vec::new(), dead_inserts: Vec::new() };
        let o = self.overlays.get(&v).unwrap_or(&NO_OVERLAY);
        let range = self.base.neighbor_range(v);
        DeltaEdges {
            nbrs: &self.base.col_index()[range.clone()],
            ws: self.base.weights().map(|w| &w[range]),
            pos: 0,
            dead_base: &o.dead_base,
            dead_i: 0,
            inserts: &o.inserts,
            dead_inserts: &o.dead_inserts,
            ins_pos: 0,
            ins_dead_i: 0,
        }
    }

    /// Sum of `v`'s live out-edge weights (the live out-degree on
    /// unweighted graphs).
    pub fn weighted_degree(&self, v: VertexId) -> u64 {
        if self.is_weighted() {
            self.edges_of(v).map(|(_, w)| w as u64).sum()
        } else {
            self.out_degree(v)
        }
    }

    /// Number of partitions the delta bookkeeping is tracked against.
    pub fn num_partitions(&self) -> usize {
        self.bounds.len()
    }

    /// Which partition owns vertex `v`.
    #[inline]
    pub fn owner_of(&self, v: VertexId) -> u32 {
        self.bounds.partition_point(|&end| end <= v) as u32
    }

    /// Live appended edges in partition `pid`'s delta segment.
    pub fn delta_edges(&self, pid: u32) -> u64 {
        self.delta_live[pid as usize]
    }

    /// Tombstoned base edges in partition `pid` (dead bytes still shipped
    /// with the contiguous base run).
    pub fn dead_base_edges(&self, pid: u32) -> u64 {
        self.dead_base[pid as usize]
    }

    /// Tombstoned inserts in partition `pid` (segment garbage).
    pub fn garbage_edges(&self, pid: u32) -> u64 {
        self.garbage[pid as usize]
    }

    /// True when partition `pid` carries any delta state.
    fn has_deltas(&self, pid: u32) -> bool {
        let i = pid as usize;
        self.delta_live[i] > 0 || self.dead_base[i] > 0 || self.garbage[i] > 0
    }

    /// Partitions carrying any delta state, ascending.
    pub fn delta_partitions(&self) -> Vec<u32> {
        (0..self.bounds.len() as u32).filter(|&p| self.has_deltas(p)).collect()
    }

    /// Total live appended edges.
    pub fn inserted_edges(&self) -> u64 {
        self.delta_live.iter().sum()
    }

    /// Drain the dirty-partition set accumulated since the last call:
    /// ids of partitions whose adjacency changed, ascending.
    pub fn take_dirty(&mut self) -> Vec<u32> {
        let mut out = Vec::new();
        for (i, d) in self.dirty.iter_mut().enumerate() {
            if std::mem::take(d) {
                out.push(i as u32);
            }
        }
        out
    }

    /// Insert a directed edge.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] on an endpoint outside the id
    /// space; [`GraphError::WeightMismatch`] when a weight other than 1
    /// targets an unweighted graph (the weight would be silently lost).
    pub fn insert(
        &mut self,
        src: VertexId,
        dst: VertexId,
        weight: Weight,
    ) -> Result<(), GraphError> {
        let nv = self.num_vertices();
        for v in [src, dst] {
            if v >= nv {
                return Err(GraphError::VertexOutOfRange { vertex: v, num_vertices: nv });
            }
        }
        if !self.is_weighted() && weight != 1 {
            return Err(GraphError::WeightMismatch { src, dst, weight });
        }
        self.overlays.entry(src).or_default().inserts.push((dst, weight));
        let pid = self.owner_of(src) as usize;
        self.delta_live[pid] += 1;
        self.dirty[pid] = true;
        self.live_edges += 1;
        Ok(())
    }

    /// Delete the first live occurrence of `(src, dst)` — the base run is
    /// searched before the delta segment, mirroring iteration order.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] on an endpoint outside the id
    /// space; [`GraphError::MissingEdge`] when no live occurrence exists.
    pub fn delete(&mut self, src: VertexId, dst: VertexId) -> Result<(), GraphError> {
        let nv = self.num_vertices();
        for v in [src, dst] {
            if v >= nv {
                return Err(GraphError::VertexOutOfRange { vertex: v, num_vertices: nv });
            }
        }
        let o = self.overlays.entry(src).or_default();
        let pid_slot = {
            // First live base slot holding `dst`.
            let nbrs = {
                let range = self.base.neighbor_range(src);
                &self.base.col_index()[range]
            };
            nbrs.iter()
                .enumerate()
                .position(|(i, &n)| n == dst && o.dead_base.binary_search(&(i as u32)).is_err())
        };
        let pid = self.bounds.partition_point(|&end| end <= src);
        if let Some(slot) = pid_slot {
            let slot = slot as u32;
            // hyt-lint: allow(unwrap-in-lib) -- position() above proved the slot absent
            let at = o.dead_base.binary_search(&slot).unwrap_err();
            o.dead_base.insert(at, slot);
            self.dead_base[pid] += 1;
        } else if let Some(slot) =
            o.inserts.iter().enumerate().position(|(i, &(n, _))| {
                n == dst && o.dead_inserts.binary_search(&(i as u32)).is_err()
            })
        {
            let slot = slot as u32;
            // hyt-lint: allow(unwrap-in-lib) -- position() above proved the slot absent
            let at = o.dead_inserts.binary_search(&slot).unwrap_err();
            o.dead_inserts.insert(at, slot);
            self.delta_live[pid] -= 1;
            self.garbage[pid] += 1;
        } else {
            return Err(GraphError::MissingEdge { src, dst });
        }
        self.dirty[pid] = true;
        self.live_edges -= 1;
        Ok(())
    }

    /// Apply a batch in op order. On error the earlier ops of the batch
    /// remain applied and the index of the failing op is reported
    /// alongside the error; callers wanting atomicity validate first.
    pub fn apply(&mut self, batch: &MutationBatch) -> Result<(), (usize, GraphError)> {
        for (i, op) in batch.ops().iter().enumerate() {
            let r = match *op {
                EdgeOp::Insert { src, dst, weight } => self.insert(src, dst, weight),
                EdgeOp::Delete { src, dst } => self.delete(src, dst),
            };
            r.map_err(|e| (i, e))?;
        }
        Ok(())
    }

    /// Fold every delta into a fresh base [`Csr`]. The result's
    /// [`Csr::edges_of`] sequence is bit-identical to this view's
    /// [`DeltaCsr::edges_of`] for every vertex (see the module docs for
    /// why the counting-sort build preserves it).
    pub fn compact(&self) -> Csr {
        let nv = self.num_vertices();
        let weighted = self.is_weighted();
        let mut b = CsrBuilder::new(nv, weighted);
        b.reserve(self.live_edges as usize);
        for v in 0..nv {
            for (n, w) in self.edges_of(v) {
                if weighted {
                    b.add_weighted_edge(v, n, w);
                } else {
                    b.add_edge(v, n);
                }
            }
        }
        b.build()
    }
}

/// Iterator over a vertex's live out-edges in a [`DeltaCsr`] (or, with
/// empty overlay slices, a plain [`Csr`]): surviving base edges in base
/// order, then live inserts in arrival order.
#[derive(Clone, Debug)]
// hyt-lint: allow(unreached-pub) -- named in the public signature of `DeltaCsr::edges_of`; `delta_csr` is private, so the crate root re-exports it
pub struct DeltaEdges<'a> {
    nbrs: &'a [VertexId],
    ws: Option<&'a [Weight]>,
    pos: usize,
    dead_base: &'a [u32],
    dead_i: usize,
    inserts: &'a [(VertexId, Weight)],
    dead_inserts: &'a [u32],
    ins_pos: usize,
    ins_dead_i: usize,
}

impl<'a> DeltaEdges<'a> {
    /// A delta-free iterator over a plain CSR vertex run (the fast path
    /// [`crate::AdjacencyView::Base`] uses).
    fn over_base(nbrs: &'a [VertexId], ws: Option<&'a [Weight]>) -> Self {
        DeltaEdges {
            nbrs,
            ws,
            pos: 0,
            dead_base: &[],
            dead_i: 0,
            inserts: &[],
            dead_inserts: &[],
            ins_pos: 0,
            ins_dead_i: 0,
        }
    }
}

impl Iterator for DeltaEdges<'_> {
    type Item = (VertexId, Weight);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, Weight)> {
        while self.pos < self.nbrs.len() {
            let i = self.pos;
            self.pos += 1;
            if self.dead_i < self.dead_base.len() && self.dead_base[self.dead_i] == i as u32 {
                self.dead_i += 1;
                continue;
            }
            let w = self.ws.map_or(1, |w| w[i]);
            return Some((self.nbrs[i], w));
        }
        while self.ins_pos < self.inserts.len() {
            let i = self.ins_pos;
            self.ins_pos += 1;
            if self.ins_dead_i < self.dead_inserts.len()
                && self.dead_inserts[self.ins_dead_i] == i as u32
            {
                self.ins_dead_i += 1;
                continue;
            }
            let (n, w) = self.inserts[i];
            return Some((n, if self.ws.is_some() { w } else { 1 }));
        }
        None
    }
}

/// A read view over either a plain [`Csr`] or a [`DeltaCsr`] — the type
/// the engines, kernels, and activity analysis read adjacency through,
/// so a mutated graph never needs rematerialising before the next query.
#[derive(Clone, Copy, Debug)]
pub enum AdjacencyView<'a> {
    /// An immutable CSR with no deltas.
    Base(&'a Csr),
    /// A base CSR plus live delta segments.
    Delta(&'a DeltaCsr),
}

impl<'a> From<&'a Csr> for AdjacencyView<'a> {
    fn from(g: &'a Csr) -> Self {
        AdjacencyView::Base(g)
    }
}

impl Csr {
    /// This graph as an [`AdjacencyView`] (the delta-free fast path).
    pub fn view(&self) -> AdjacencyView<'_> {
        AdjacencyView::Base(self)
    }
}

impl DeltaCsr {
    /// This graph as an [`AdjacencyView`].
    pub fn view(&self) -> AdjacencyView<'_> {
        AdjacencyView::Delta(self)
    }
}

impl<'a> From<&'a DeltaCsr> for AdjacencyView<'a> {
    fn from(g: &'a DeltaCsr) -> Self {
        AdjacencyView::Delta(g)
    }
}

impl<'a> AdjacencyView<'a> {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        match self {
            AdjacencyView::Base(g) => g.num_vertices(),
            AdjacencyView::Delta(g) => g.num_vertices(),
        }
    }

    /// Number of live directed edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        match self {
            AdjacencyView::Base(g) => g.num_edges(),
            AdjacencyView::Delta(g) => g.num_edges(),
        }
    }

    /// Live out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u64 {
        match self {
            AdjacencyView::Base(g) => g.out_degree(v),
            AdjacencyView::Delta(g) => g.out_degree(v),
        }
    }

    /// Whether edge weights are stored.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        match self {
            AdjacencyView::Base(g) => g.is_weighted(),
            AdjacencyView::Delta(g) => g.is_weighted(),
        }
    }

    /// Entry offset of `v`'s neighbour run in the host edge array (the
    /// anchor the zero-copy span pricing uses).
    #[inline]
    pub fn edge_offset(&self, v: VertexId) -> u64 {
        match self {
            AdjacencyView::Base(g) => g.row_offset()[v as usize],
            AdjacencyView::Delta(g) => g.edge_offset(v),
        }
    }

    /// `(neighbour, weight)` pairs of `v`'s live out-edges.
    #[inline]
    pub fn edges_of(&self, v: VertexId) -> DeltaEdges<'a> {
        match self {
            AdjacencyView::Base(g) => {
                let range = g.neighbor_range(v);
                DeltaEdges::over_base(&g.col_index()[range.clone()], g.weights().map(|w| &w[range]))
            }
            AdjacencyView::Delta(g) => g.edges_of(v),
        }
    }

    /// Sum of `v`'s live out-edge weights (out-degree when unweighted).
    pub fn weighted_degree(&self, v: VertexId) -> u64 {
        match self {
            AdjacencyView::Base(g) => {
                if g.is_weighted() {
                    g.weights_of(v).iter().map(|&w| w as u64).sum()
                } else {
                    g.out_degree(v)
                }
            }
            AdjacencyView::Delta(g) => g.weighted_degree(v),
        }
    }

    /// Bytes of edge-associated data per edge entry.
    pub fn bytes_per_edge(&self) -> u64 {
        match self {
            AdjacencyView::Base(g) => g.bytes_per_edge(),
            AdjacencyView::Delta(g) => g.bytes_per_edge(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn diamond() -> Csr {
        let mut b = CsrBuilder::new(4, true);
        b.add_weighted_edge(0, 1, 2);
        b.add_weighted_edge(0, 2, 5);
        b.add_weighted_edge(1, 3, 1);
        b.add_weighted_edge(2, 3, 1);
        b.build()
    }

    #[test]
    fn fresh_delta_matches_base() {
        let g = diamond();
        let d = DeltaCsr::new(g.clone());
        assert_eq!(d.num_edges(), g.num_edges());
        for v in 0..g.num_vertices() {
            assert_eq!(d.out_degree(v), g.out_degree(v));
            let a: Vec<_> = d.edges_of(v).collect();
            let b: Vec<_> = g.edges_of(v).collect();
            assert_eq!(a, b, "vertex {v}");
        }
        assert!(d.delta_partitions().is_empty());
    }

    #[test]
    fn insert_appends_in_arrival_order() {
        let mut d = DeltaCsr::new(diamond());
        d.insert(0, 3, 7).unwrap();
        d.insert(0, 1, 9).unwrap();
        let edges: Vec<_> = d.edges_of(0).collect();
        assert_eq!(edges, vec![(1, 2), (2, 5), (3, 7), (1, 9)]);
        assert_eq!(d.out_degree(0), 4);
        assert_eq!(d.num_edges(), 6);
        assert_eq!(d.delta_edges(0), 2);
    }

    #[test]
    fn delete_tombstones_base_then_inserts() {
        let mut d = DeltaCsr::new(diamond());
        d.insert(0, 1, 9).unwrap();
        // First live (0,1) is the base slot.
        d.delete(0, 1).unwrap();
        assert_eq!(d.edges_of(0).collect::<Vec<_>>(), vec![(2, 5), (1, 9)]);
        assert_eq!(d.dead_base_edges(0), 1);
        // Second delete hits the insert.
        d.delete(0, 1).unwrap();
        assert_eq!(d.edges_of(0).collect::<Vec<_>>(), vec![(2, 5)]);
        assert_eq!(d.garbage_edges(0), 1);
        assert_eq!(d.delta_edges(0), 0);
        // Nothing left to delete.
        assert_eq!(d.delete(0, 1), Err(GraphError::MissingEdge { src: 0, dst: 1 }));
        assert_eq!(d.num_edges(), 3);
    }

    #[test]
    fn duplicate_base_edges_tombstone_one_at_a_time() {
        let mut b = CsrBuilder::new(2, false);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let mut d = DeltaCsr::new(b.build());
        d.delete(0, 1).unwrap();
        assert_eq!(d.out_degree(0), 2);
        d.delete(0, 1).unwrap();
        assert_eq!(d.edges_of(0).collect::<Vec<_>>(), vec![(1, 1)]);
        d.delete(0, 1).unwrap();
        assert_eq!(d.out_degree(0), 0);
        assert!(d.delete(0, 1).is_err());
    }

    #[test]
    fn typed_errors_on_bad_endpoints_and_weights() {
        let mut d = DeltaCsr::new(diamond());
        assert_eq!(
            d.insert(0, 9, 1),
            Err(GraphError::VertexOutOfRange { vertex: 9, num_vertices: 4 })
        );
        assert_eq!(
            d.delete(7, 0),
            Err(GraphError::VertexOutOfRange { vertex: 7, num_vertices: 4 })
        );
        let mut u = DeltaCsr::new(generators::chain(3, false));
        assert_eq!(
            u.insert(0, 2, 5),
            Err(GraphError::WeightMismatch { src: 0, dst: 2, weight: 5 })
        );
        u.insert(0, 2, 1).unwrap();
    }

    #[test]
    fn compact_is_bit_identical_to_the_view() {
        let g = generators::rmat(8, 6.0, 11, true);
        let parts = PartitionSet::build(&g, 2048);
        let mut d = DeltaCsr::with_partitions(g.clone(), &parts);
        // A deterministic mixed batch: delete some existing edges, insert
        // some new ones (including duplicates and self-loops).
        let mut batch = MutationBatch::new();
        for v in (0..g.num_vertices()).step_by(7) {
            if let Some((n, _)) = g.edges_of(v).next() {
                batch.delete(v, n);
            }
            batch.insert_weighted(v, (v + 3) % g.num_vertices(), 4);
            batch.insert_weighted(v, v, 2); // self-loop
        }
        d.apply(&batch).unwrap();
        let folded = d.compact();
        assert_eq!(folded.num_edges(), d.num_edges());
        for v in 0..g.num_vertices() {
            let a: Vec<_> = d.edges_of(v).collect();
            let b: Vec<_> = folded.edges_of(v).collect();
            assert_eq!(a, b, "vertex {v}");
        }
        // Compacting the compacted graph is a fixpoint.
        let d2 = DeltaCsr::new(folded.clone());
        assert_eq!(d2.compact(), folded);
    }

    #[test]
    fn differential_against_a_naive_model() {
        // Random op stream vs a Vec<Vec<(dst, w)>> model with identical
        // first-occurrence delete semantics.
        let g = generators::rmat(7, 5.0, 3, true);
        let nv = g.num_vertices();
        let mut model: Vec<Vec<(VertexId, Weight)>> =
            (0..nv).map(|v| g.edges_of(v).collect()).collect();
        let mut d = DeltaCsr::new(g);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..500 {
            let src = rng() % nv;
            let dst = rng() % nv;
            if rng() % 3 == 0 {
                let ours = d.delete(src, dst);
                let model_hit = model[src as usize].iter().position(|&(n, _)| n == dst).map(|i| {
                    model[src as usize].remove(i);
                });
                assert_eq!(ours.is_ok(), model_hit.is_some(), "delete ({src},{dst})");
            } else {
                let w = rng() % 9 + 1;
                d.insert(src, dst, w).unwrap();
                model[src as usize].push((dst, w));
            }
        }
        for v in 0..nv {
            assert_eq!(d.edges_of(v).collect::<Vec<_>>(), model[v as usize], "vertex {v}");
            assert_eq!(d.out_degree(v), model[v as usize].len() as u64);
        }
        assert_eq!(d.num_edges(), model.iter().map(|m| m.len() as u64).sum::<u64>());
        // And the fold agrees too.
        let folded = d.compact();
        for v in 0..nv {
            assert_eq!(folded.edges_of(v).collect::<Vec<_>>(), model[v as usize]);
        }
    }

    #[test]
    fn dirty_tracking_is_per_partition_and_drains() {
        let g = generators::rmat(8, 6.0, 2, false);
        let parts = PartitionSet::build(&g, 1024);
        assert!(parts.len() >= 4, "need several partitions, got {}", parts.len());
        let mut d = DeltaCsr::with_partitions(g, &parts);
        let v = parts.get(1).first_vertex;
        d.insert(v, 0, 1).unwrap();
        assert_eq!(d.take_dirty(), vec![1]);
        assert!(d.take_dirty().is_empty(), "dirty set drains");
        assert_eq!(d.owner_of(v), 1);
        assert!(d.has_deltas(1));
        assert!(!d.has_deltas(0));
        assert_eq!(d.delta_partitions(), vec![1]);
    }

    #[test]
    fn apply_reports_the_failing_op_index() {
        let mut d = DeltaCsr::new(diamond());
        let mut batch = MutationBatch::new();
        batch.insert_weighted(0, 3, 1).delete(3, 1).insert_weighted(1, 2, 1);
        let err = d.apply(&batch).unwrap_err();
        assert_eq!(err.0, 1);
        assert_eq!(err.1, GraphError::MissingEdge { src: 3, dst: 1 });
        // The first op landed (documented partial application).
        assert_eq!(d.out_degree(0), 3);
    }

    #[test]
    fn view_dispatches_identically_over_base_and_empty_delta() {
        let g = generators::rmat(7, 5.0, 9, true);
        let d = DeltaCsr::new(g.clone());
        let vb = AdjacencyView::from(&g);
        let vd = AdjacencyView::from(&d);
        assert_eq!(vb.num_edges(), vd.num_edges());
        for v in 0..g.num_vertices() {
            assert_eq!(vb.out_degree(v), vd.out_degree(v));
            assert_eq!(vb.edge_offset(v), vd.edge_offset(v));
            assert_eq!(vb.weighted_degree(v), vd.weighted_degree(v));
            assert_eq!(vb.edges_of(v).collect::<Vec<_>>(), vd.edges_of(v).collect::<Vec<_>>());
        }
    }
}
