//! Stubs of two retired placement planners, kept for the frozen `wall`
//! harness.
//!
//! Placement is positional: [`crate::DevicePlan::build`] deals runs of
//! [`crate::COMBINE_RUN`] consecutive partitions so combined copies stay
//! whole and edge counts balance, and the plan changes only when the
//! partition set does (a delta compaction). A priced placement search and
//! device-affine migration were both measured against it and deleted:
//! neither priced the host-port transfers a placement causes, and neither
//! won a committed cell (README, "Placement").
//!
//! [`AffinityMatrix`], [`PlacementPricer`] and [`plan_cost_driven`] are
//! what is left of them. The names and signatures stay only because the
//! frozen `wall` harness still calls them (ROADMAP, `wall` v2 item (a));
//! the matrix holds nothing and the planner returns the positional plan.

use crate::{Csr, DeviceAssignment, DevicePlan, PartitionSet};

/// What is left of the partition-affinity matrix the retired planners
/// priced with. It holds nothing; the type stays because the frozen
/// `wall` harness builds one (ROADMAP, `wall` v2 item (a)).
#[derive(Clone, Copy, Debug)]
pub struct AffinityMatrix;

impl AffinityMatrix {
    /// The empty matrix. The arguments are unread; the signature stays
    /// because the frozen `wall` harness times this call.
    pub fn build(_graph: &Csr, _parts: &PartitionSet, _record_bytes: u64) -> AffinityMatrix {
        AffinityMatrix
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
        let g = generators::power_law_preferential(1 << 11, 10.0, 2.2, 7, true);
        let ps = PartitionSet::build_count(&g, 24);
        let aff = AffinityMatrix::build(&g, &ps, 12);
        for d in [1u32, 2, 3, 8] {
            let plan = plan_cost_driven(&ps, d, &aff, &pricer);
            assert_eq!(plan, DevicePlan::build(&ps, d, DeviceAssignment::EdgeBalanced, 0));
        }
    }
}
