//! The partition-affinity matrix that device-affine migration prices
//! moves with, plus the stubs of the retired priced placement planner.
//!
//! Placement itself is positional: [`crate::DevicePlan::build`] deals
//! runs of [`crate::COMBINE_RUN`] consecutive partitions so combined
//! copies stay whole and edge counts balance. What stays priced is
//! *migration* (`HyTGraphConfig::affine_migration` in `hyt-core`): a
//! resident system moves one partition at a time onto the device that
//! keeps activating it, once the routed exchange the move saves pays for
//! its bulk copy. [`AffinityMatrix`] is that planner's static signal: it
//! estimates, from the CSR cut structure alone, the expected exchange
//! bytes between every partition pair. Each edge `u → v` is a potential
//! activation of `v`, and an activation publishes one `record_bytes`
//! exchange record from `v`'s owner. Column sums are therefore a
//! partition's expected *publication* batch; off-diagonal entries are the
//! pairwise consumption traffic.
//!
//! [`plan_cost_driven`] and [`PlacementPricer`] are what is left of a
//! priced placement search. It scored plans by kernel balance, all-gather
//! and pairwise routed traffic but had no host-transfer term, so under
//! per-port host links it packed every partition onto one device and lost
//! to the positional plan on every committed cell. Both names stay only
//! because the frozen `wall` harness still calls them; the planner now
//! returns the positional plan.

use crate::{Csr, DeviceAssignment, DevicePlan, PartitionSet};

/// Dense partitions under which a system keeps the full pairwise
/// matrix; beyond it the quadratic memory is not worth an estimate and
/// device-affine migration stays off.
pub const AFFINITY_DENSE_CAP: usize = 2048;

/// Expected pairwise exchange bytes between partitions, estimated from
/// the CSR cut structure: `bytes(i, j)` is the number of edges from
/// partition `i` into partition `j` times the exchange `record_bytes`
/// (id + wire value payload) — the bytes `i`'s activity is expected to
/// make `j`'s owner publish. The diagonal (intra-partition activations)
/// is kept: those records are published too, they just never cross a
/// device boundary when `i` and `j` are co-located.
#[derive(Clone, Debug)]
pub struct AffinityMatrix {
    n: usize,
    bytes: Vec<u64>,
}

impl AffinityMatrix {
    /// Build the matrix for `graph` partitioned by `parts`, with
    /// `record_bytes` per published activation. O(E) time, O(n²) memory.
    pub fn build(graph: &Csr, parts: &PartitionSet, record_bytes: u64) -> AffinityMatrix {
        let n = parts.len();
        let mut bytes = vec![0u64; n * n];
        for u in 0..graph.num_vertices() {
            let row = parts.owner_of(u) as usize * n;
            for &v in graph.neighbors(u) {
                bytes[row + parts.owner_of(v) as usize] += record_bytes;
            }
        }
        AffinityMatrix { n, bytes }
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the zero-partition matrix (never produced by
    /// [`AffinityMatrix::build`], which sees at least one partition).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Expected exchange bytes partition `i`'s activity makes partition
    /// `j`'s owner publish.
    #[inline]
    pub fn get(&self, i: u32, j: u32) -> u64 {
        self.bytes[i as usize * self.n + j as usize]
    }

    /// Expected publication batch of partition `p` (column sum,
    /// diagonal included): every in-edge is a potential activation and
    /// each activation publishes one record.
    pub fn pub_bytes(&self, p: u32) -> u64 {
        (0..self.n).map(|i| self.bytes[i * self.n + p as usize]).sum()
    }

    /// Total pairwise coupling of partition `p` with every partition on
    /// device `dev` under `plan`, excluding `p` itself: the bytes that
    /// stop crossing the fabric if `p` moves onto `dev`. This is the
    /// migration planner's "which device keeps activating it" signal.
    pub fn device_coupling(&self, p: u32, dev: u32, plan: &DevicePlan) -> u64 {
        let mut total = 0u64;
        for q in 0..self.n as u32 {
            if q != p && plan.device_of(q) == dev {
                total += self.get(p, q) + self.get(q, p);
            }
        }
        total
    }
}

/// Pricing callbacks of the retired placement planner. Nothing reads the
/// fields; the struct keeps its shape because the frozen `wall` harness
/// builds one (ROADMAP, `wall` v2 item (a)).
pub struct PlacementPricer<'a> {
    /// Broadcast all-gather makespan for per-device publications.
    pub exchange: &'a dyn Fn(&[u64], &[bool]) -> f64,
    /// Kernel time of one device processing `edges` edges.
    pub compute: &'a dyn Fn(u64) -> f64,
    /// Routed transfer cost `src → dst` at the given batch size.
    pub link: &'a dyn Fn(u32, u32, u64) -> f64,
    /// All ordered pairs price identically (see
    /// `Interconnect::is_uniform_fabric`).
    pub uniform: bool,
}

/// The positional plan of `parts` over `num_devices` devices, exactly
/// [`DevicePlan::build`] with [`DeviceAssignment::EdgeBalanced`]. The
/// affinity matrix and the pricer are ignored; the signature stays
/// because the frozen `wall` harness times this call (ROADMAP, `wall` v2
/// item (a)).
#[must_use = "a placement plan has no effect until applied"]
pub fn plan_cost_driven(
    parts: &PartitionSet,
    num_devices: u32,
    _affinity: &AffinityMatrix,
    _pricer: &PlacementPricer,
) -> DevicePlan {
    DevicePlan::build(parts, num_devices, DeviceAssignment::EdgeBalanced, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn setup() -> (crate::Csr, PartitionSet, AffinityMatrix) {
        let g = generators::power_law_preferential(1 << 11, 10.0, 2.2, 7, true);
        let ps = PartitionSet::build_count(&g, 24);
        let aff = AffinityMatrix::build(&g, &ps, 12);
        (g, ps, aff)
    }

    #[test]
    fn affinity_totals_match_edge_count() {
        let (g, ps, aff) = setup();
        let total: u64 = (0..ps.len() as u32)
            .flat_map(|i| (0..ps.len() as u32).map(move |j| (i, j)))
            .map(|(i, j)| aff.get(i, j))
            .sum();
        assert_eq!(total, g.num_edges() * 12);
        let pub_total: u64 = (0..ps.len() as u32).map(|p| aff.pub_bytes(p)).sum();
        assert_eq!(pub_total, total);
    }

    #[test]
    fn plan_cost_driven_stub_is_edge_balanced() {
        // A non-uniform pricer whose slow device 1 a priced planner would
        // route around: the stub must ignore it and deal positionally.
        let exchange = |pubd: &[u64], _: &[bool]| pubd.iter().sum::<u64>() as f64 * 1e-9;
        let compute = |edges: u64| edges as f64 * 1e-9;
        let link =
            |s: u32, d: u32, bytes: u64| bytes as f64 * if s == 1 || d == 1 { 8e-9 } else { 1e-9 };
        let pricer =
            PlacementPricer { exchange: &exchange, compute: &compute, link: &link, uniform: false };
        let (_, ps, aff) = setup();
        for d in [1u32, 2, 3, 8] {
            let plan = plan_cost_driven(&ps, d, &aff, &pricer);
            let balanced = DevicePlan::build(&ps, d, DeviceAssignment::EdgeBalanced, 0);
            assert_eq!(plan.num_devices(), balanced.num_devices());
            for p in 0..ps.len() as u32 {
                assert_eq!(plan.device_of(p), balanced.device_of(p), "D={d} partition {p}");
            }
            for dev in 0..d {
                assert_eq!(plan.load(dev), balanced.load(dev));
            }
        }
    }

    #[test]
    fn device_coupling_sums_cross_bytes() {
        let (_, ps, aff) = setup();
        let plan = DevicePlan::build(&ps, 4, DeviceAssignment::EdgeBalanced, 0);
        let p = 0u32;
        for dev in 0..4u32 {
            let mut expect = 0u64;
            for q in 0..ps.len() as u32 {
                if q != p && plan.device_of(q) == dev {
                    expect += aff.get(p, q) + aff.get(q, p);
                }
            }
            assert_eq!(aff.device_coupling(p, dev, &plan), expect);
        }
    }
}
