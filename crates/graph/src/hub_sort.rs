//! Hub-vertex gathering (Section VI-A, formula 4).
//!
//! Real-world power-law graphs have a small set of *hub* vertices with high
//! in- and out-degree that sit on most computation paths. HyTGraph applies
//! a one-off relabelling at data-preparation time that gathers the top 8 %
//! of vertices by importance
//!
//! ```text
//! H(v) = Do(v) * Di(v) / (Domax * Dimax)
//! ```
//!
//! at the *front* of the CSR while every other vertex keeps its natural
//! relative order. Two effects (both exploited by the scheduler):
//!
//! 1. hub vertices land in the first partitions, which the
//!    contribution-driven scheduler prioritises, so hubs accumulate updates
//!    before their large fan-outs are scattered (fewer stale computations);
//! 2. high in-degree vertices — the ones most likely to be re-activated —
//!    are stored together, sharpening the per-partition cost analysis.
//!
//! The relabelling is performed once per dataset and reused by every
//! algorithm, exactly as the paper prescribes.

use crate::{Csr, VertexId};

/// Fraction of vertices gathered as hubs (the paper uses the top 8 %).
pub const HUB_FRACTION: f64 = 0.08;

/// Outcome of [`hub_sort`]: the relabelled graph plus the permutation used,
/// so algorithm results can be mapped back to original vertex ids.
#[derive(Clone, Debug)]
pub struct HubSortResult {
    /// The relabelled graph (hubs occupy ids `0..num_hubs`).
    pub graph: Csr,
    /// `perm[old_id] = new_id`.
    pub perm: Vec<VertexId>,
    /// `inv[new_id] = old_id`.
    pub inv: Vec<VertexId>,
    /// Number of vertices classified as hubs.
    pub num_hubs: u32,
}

impl HubSortResult {
    /// Map a relabelled vertex id back to the original id.
    #[inline]
    pub fn to_old(&self, new: VertexId) -> VertexId {
        self.inv[new as usize]
    }

    /// Reorder a value array indexed by new ids back into original-id order.
    pub fn values_to_old_order<T: Copy>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.perm.len());
        self.perm.iter().map(|&new| values[new as usize]).collect()
    }
}

/// Gather the top [`HUB_FRACTION`] of vertices by `H(v)` at the front of
/// the id space; non-hubs keep natural order. See module docs.
pub fn hub_sort(graph: &Csr) -> HubSortResult {
    hub_sort_with_fraction(graph, HUB_FRACTION)
}

/// [`hub_sort`] with an explicit hub fraction in `[0, 1]` (ablations).
pub fn hub_sort_with_fraction(graph: &Csr, fraction: f64) -> HubSortResult {
    assert!((0.0..=1.0).contains(&fraction), "hub fraction out of range");
    let nv = graph.num_vertices() as usize;
    let out_degs = graph.out_degrees();
    let in_degs = graph.in_degrees();
    let num_hubs = ((nv as f64) * fraction).round() as usize;

    // Select the num_hubs highest-H(v) vertices. H preserves order under
    // the positive monotone map H -> Do*Di, so compare integer products
    // (u128 to dodge overflow) instead of floats; ties break by natural
    // order, so the order is total. Selection is linear, and only the
    // hubs are sorted.
    let key = |&v: &u32| {
        let p = out_degs[v as usize] as u128 * in_degs[v as usize] as u128;
        (std::cmp::Reverse(p), v)
    };
    let mut hubs: Vec<u32> = (0..nv as u32).collect();
    if num_hubs < nv {
        hubs.select_nth_unstable_by_key(num_hubs, key);
        hubs.truncate(num_hubs);
    }
    hubs.sort_unstable_by_key(key);
    let mut is_hub = vec![false; nv];
    for &v in &hubs {
        is_hub[v as usize] = true;
    }

    // New layout: hubs first (in descending importance), then the rest in
    // natural order (`hubs` still has the capacity for all nv).
    let mut inv: Vec<VertexId> = hubs;
    inv.extend((0..nv as u32).filter(|&v| !is_hub[v as usize]));
    let mut perm = vec![0 as VertexId; nv];
    for (new, &old) in inv.iter().enumerate() {
        perm[old as usize] = new as VertexId;
    }
    // hyt-lint: allow(unwrap-in-lib) -- perm is built one entry per vertex from a partition of 0..nv, so it is a valid permutation by construction
    let relabelled = graph.relabel(&perm).expect("hub permutation is valid");
    HubSortResult { graph: relabelled, perm, inv, num_hubs: num_hubs as u32 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn perm_and_inv_are_inverse_permutations() {
        let g = generators::rmat(9, 8.0, 4, false);
        let r = hub_sort(&g);
        for old in 0..g.num_vertices() {
            assert_eq!(r.to_old(r.perm[old as usize]), old);
        }
    }

    #[test]
    fn hubs_land_at_front_with_max_importance() {
        let g = generators::rmat(10, 16.0, 9, false);
        let r = hub_sort(&g);
        assert!(r.num_hubs > 0);
        let out = g.out_degrees();
        let inn = g.in_degrees();
        let score = |v: VertexId| out[v as usize] as u128 * inn[v as usize] as u128;
        let min_hub_score = (0..r.num_hubs).map(|n| score(r.to_old(n))).min().unwrap();
        let max_rest_score =
            (r.num_hubs..g.num_vertices()).map(|n| score(r.to_old(n))).max().unwrap();
        assert!(min_hub_score >= max_rest_score);
    }

    #[test]
    fn non_hubs_keep_natural_order() {
        let g = generators::rmat(9, 8.0, 2, false);
        let r = hub_sort(&g);
        let tail: Vec<_> = (r.num_hubs..g.num_vertices()).map(|n| r.to_old(n)).collect();
        let mut sorted = tail.clone();
        sorted.sort_unstable();
        assert_eq!(tail, sorted);
    }

    #[test]
    fn num_hubs_is_eight_percent() {
        let g = generators::erdos_renyi(1000, 5000, 1, false);
        let r = hub_sort(&g);
        assert_eq!(r.num_hubs, 80);
    }

    #[test]
    fn degrees_preserved_under_relabel() {
        let g = generators::rmat(8, 8.0, 6, true);
        let r = hub_sort(&g);
        for old in 0..g.num_vertices() {
            assert_eq!(g.out_degree(old), r.graph.out_degree(r.perm[old as usize]));
        }
        assert_eq!(g.num_edges(), r.graph.num_edges());
    }

    #[test]
    fn values_map_back_to_old_order() {
        let g = generators::rmat(7, 4.0, 8, false);
        let r = hub_sort(&g);
        // value[new] = to_old(new): mapping back must give identity.
        let vals: Vec<u32> = (0..g.num_vertices()).map(|n| r.to_old(n)).collect();
        let back = r.values_to_old_order(&vals);
        let expect: Vec<u32> = (0..g.num_vertices()).collect();
        assert_eq!(back, expect);
    }

    /// The permutation by a full sort of every vertex under the same
    /// order: the definition selection must reproduce.
    fn full_sort_inv(g: &Csr, fraction: f64) -> Vec<VertexId> {
        let nv = g.num_vertices() as usize;
        let (out, inn) = (g.out_degrees(), g.in_degrees());
        let mut order: Vec<u32> = (0..nv as u32).collect();
        order.sort_by_key(|&v| {
            (std::cmp::Reverse(out[v as usize] as u128 * inn[v as usize] as u128), v)
        });
        let num_hubs = ((nv as f64) * fraction).round() as usize;
        let mut is_hub = vec![false; nv];
        let mut inv: Vec<VertexId> = order[..num_hubs].to_vec();
        for &v in &inv {
            is_hub[v as usize] = true;
        }
        inv.extend((0..nv as u32).filter(|&v| !is_hub[v as usize]));
        inv
    }

    #[test]
    fn selection_matches_full_sort_order() {
        // A grid ties nearly every vertex; R-MAT spreads the products.
        let mut grid = crate::CsrBuilder::new(32 * 32, false);
        for v in 0..32 * 32u32 {
            if v % 32 + 1 < 32 {
                grid.add_edge(v, v + 1);
                grid.add_edge(v + 1, v);
            }
            if v + 32 < 32 * 32 {
                grid.add_edge(v, v + 32);
                grid.add_edge(v + 32, v);
            }
        }
        let empty = crate::CsrBuilder::new(0, false).build();
        for g in [grid.build(), generators::rmat(10, 8.0, 7, true), empty] {
            for fraction in [0.0, 0.03, HUB_FRACTION, 0.5, 1.0] {
                let r = hub_sort_with_fraction(&g, fraction);
                assert_eq!(r.inv, full_sort_inv(&g, fraction), "fraction {fraction}");
            }
        }
    }

    #[test]
    fn zero_fraction_is_identity() {
        let g = generators::rmat(7, 4.0, 8, false);
        let r = hub_sort_with_fraction(&g, 0.0);
        assert_eq!(r.num_hubs, 0);
        assert_eq!(r.graph, g);
    }
}
