//! Chunk-based edge-balanced partitioning (Section IV of the paper).
//!
//! HyTGraph logically partitions the host-resident edge-associated arrays
//! into `N` edge-balanced partitions `{P0, …, P_{N-1}}`, where each `Pi` is
//! a set of **consecutively numbered vertices** (chunk-based partitioning,
//! following Scaph/Gemini). Partition size is chosen by a byte budget —
//! 32 MB in the paper, scaled down in our experiments to keep the same
//! partition *count* against the scaled graphs.
//!
//! Partitions never split a vertex's neighbour run: a vertex's out-edges
//! always live in exactly one partition. A pathological vertex whose run
//! alone exceeds the byte budget gets a partition of its own.

use crate::{Csr, VertexId};

/// One partition: a contiguous vertex range plus its edge span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Partition index within the [`PartitionSet`].
    pub id: u32,
    /// First vertex (inclusive).
    pub first_vertex: VertexId,
    /// Last vertex (exclusive).
    pub end_vertex: VertexId,
    /// First edge slot in `col_index` (inclusive).
    pub first_edge: u64,
    /// Last edge slot (exclusive).
    pub end_edge: u64,
}

impl Partition {
    /// Number of vertices owned by the partition.
    pub fn num_vertices(&self) -> u32 {
        self.end_vertex - self.first_vertex
    }

    /// Number of edges owned by the partition.
    pub fn num_edges(&self) -> u64 {
        self.end_edge - self.first_edge
    }

    /// Vertex iterator.
    pub fn vertices(&self) -> std::ops::Range<VertexId> {
        self.first_vertex..self.end_vertex
    }

    /// True if `v` belongs to this partition.
    pub fn contains(&self, v: VertexId) -> bool {
        (self.first_vertex..self.end_vertex).contains(&v)
    }
}

/// An edge-balanced partitioning of a [`Csr`].
#[derive(Clone, Debug)]
pub struct PartitionSet {
    partitions: Vec<Partition>,
    /// Bytes of edge data per partition at the budget used to build this set.
    byte_budget: u64,
    /// `owner[v]` = partition id of vertex `v`.
    owner: Vec<u32>,
}

impl PartitionSet {
    /// Partition `graph` so each partition's edge-associated data is at most
    /// `byte_budget` bytes (one oversized vertex run may exceed it).
    ///
    /// The paper uses 32 MB partitions; our scaled experiments use
    /// `32 MB >> SCALE_SHIFT` = 32 KB so the partition *count* matches.
    pub fn build(graph: &Csr, byte_budget: u64) -> PartitionSet {
        assert!(byte_budget > 0, "byte budget must be positive");
        let bpe = graph.bytes_per_edge().max(1);
        let edges_per_part = (byte_budget / bpe).max(1);
        let mut partitions = Vec::new();
        let mut owner = vec![0u32; graph.num_vertices() as usize];
        let mut first_vertex = 0u32;
        let mut first_edge = 0u64;
        let nv = graph.num_vertices();
        for v in 0..nv {
            let end_edge = graph.row_offset()[v as usize + 1];
            let span = end_edge - first_edge;
            // Close the partition when adding v+1 would blow the budget
            // and the partition is non-trivial.
            let next_span =
                if v + 1 < nv { graph.row_offset()[v as usize + 2] - first_edge } else { span };
            let last = v + 1 == nv;
            if last || (next_span > edges_per_part && span > 0) || span >= edges_per_part {
                let id = partitions.len() as u32;
                partitions.push(Partition {
                    id,
                    first_vertex,
                    end_vertex: v + 1,
                    first_edge,
                    end_edge,
                });
                for u in first_vertex..=v {
                    owner[u as usize] = id;
                }
                first_vertex = v + 1;
                first_edge = end_edge;
            }
        }
        if partitions.is_empty() {
            // Zero-vertex graph: keep a single empty partition so callers
            // never special-case emptiness.
            partitions.push(Partition {
                id: 0,
                first_vertex: 0,
                end_vertex: 0,
                first_edge: 0,
                end_edge: 0,
            });
        }
        PartitionSet { partitions, byte_budget, owner }
    }

    /// Partition into (roughly) `count` edge-balanced partitions; used where
    /// the paper fixes the count (e.g. 256 partitions in Fig. 3(a)).
    pub fn build_count(graph: &Csr, count: u32) -> PartitionSet {
        let total = graph.edge_bytes().max(1);
        let budget = total.div_ceil(count.max(1) as u64).max(1);
        PartitionSet::build(graph, budget)
    }

    /// All partitions, ordered by vertex range.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True when the set holds a single empty partition of an empty graph.
    pub fn is_empty(&self) -> bool {
        self.partitions.len() == 1 && self.partitions[0].num_vertices() == 0
    }

    /// Byte budget the set was built with.
    pub fn byte_budget(&self) -> u64 {
        self.byte_budget
    }

    /// Which partition owns vertex `v`.
    #[inline]
    pub fn owner_of(&self, v: VertexId) -> u32 {
        self.owner[v as usize]
    }

    /// Partition by id.
    pub fn get(&self, id: u32) -> &Partition {
        &self.partitions[id as usize]
    }
}

/// Consecutive partitions dealt to one device as a unit under
/// [`DeviceAssignment::EdgeBalanced`]: the paper's task-combining width
/// `k = 4` (Algorithm 1 lines 15–24). The combiner merges up to `k`
/// consecutive ExpTM-filter partitions into one copy, and a run split
/// across devices is sliced back into per-device copies, so the placement
/// deals in runs of the same width. `HyTGraphConfig::default().combine_k`
/// is defined from this constant.
pub const COMBINE_RUN: usize = 4;

/// How partitions are assigned to simulated devices in a multi-GPU run.
/// Placement has one policy; the enum and
/// `HyTGraphConfig::device_assignment` stay because the frozen `wall`
/// harness passes them (ROADMAP, `wall` v2 item (a)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceAssignment {
    /// Weighted round-robin over runs: partition ids are cut into aligned
    /// runs `[r·run, (r+1)·run)` with `run = min(COMBINE_RUN, max(1,
    /// P / D))`, and each run is dealt, in id order, to the device with
    /// the least accumulated edge weight (ties to the lowest device id).
    /// A combined filter task inside one run therefore stays on one
    /// device, and per-device edge loads stay within one run of each
    /// other. The clamp leaves at least `D` runs whenever `P ≥ D`, so a
    /// small graph still spreads over every device instead of piling
    /// onto the first few.
    EdgeBalanced,
}

/// A static assignment of every partition to one of `D` simulated devices.
///
/// Device placement is a preprocessing decision (like hub sorting): the
/// plan is a function of the partition set alone, built with it and
/// rebuilt only when it is (a delta compaction re-partitions the graph),
/// so the per-iteration exchange step only ever moves frontier
/// activations, never re-shards edge data. Because the plan never moves,
/// it also carries the per-device figures the exchange prices with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DevicePlan {
    num_devices: u32,
    /// `device_of[pid]` = owning device.
    device_of: Vec<u32>,
    /// Accumulated edge count per device.
    loads: Vec<u64>,
    /// `holders[d]`: device `d` owns at least one partition.
    holders: Vec<bool>,
    /// Vertices owned per device.
    owned: Vec<u64>,
}

impl DevicePlan {
    /// Deal `parts` to `num_devices` devices (minimum 1) in the
    /// edge-balanced runs of [`DeviceAssignment::EdgeBalanced`], the one
    /// placement policy. The last two arguments are unread; they stay
    /// because the frozen `wall` harness passes them (ROADMAP, `wall` v2
    /// item (a)).
    ///
    /// At `D = 1` every run lands on device 0, the single-device plan.
    ///
    /// # More devices than partitions
    ///
    /// With `num_devices > parts.len()` there is not enough work to go
    /// around: runs are single partitions and fill devices from the low
    /// ids up (least-loaded ties break to the lowest id), so the spare
    /// `num_devices − parts.len()` **highest** device ids end the build
    /// owning no partition and carrying zero load. Spares stay priced
    /// out of the run — the runner excludes devices without a shard from
    /// the exchange — but they still size the interconnect and split the
    /// per-device edge budget. A debug assertion holds the build to this
    /// shape.
    pub fn build(
        parts: &PartitionSet,
        num_devices: u32,
        _assignment: DeviceAssignment,
        _num_hub_vertices: u32,
    ) -> DevicePlan {
        let d = num_devices.max(1);
        let mut plan = DevicePlan {
            num_devices: d,
            device_of: vec![0; parts.len()],
            loads: vec![0; d as usize],
            holders: vec![false; d as usize],
            owned: vec![0; d as usize],
        };
        let run = COMBINE_RUN.min((parts.len() / d as usize).max(1));
        for chunk in parts.partitions().chunks(run) {
            let dev = plan.least_loaded();
            for p in chunk {
                plan.device_of[p.id as usize] = dev;
                plan.loads[dev as usize] += p.num_edges();
                plan.holders[dev as usize] = true;
                plan.owned[dev as usize] += u64::from(p.num_vertices());
            }
        }
        debug_assert!(
            plan.device_of.iter().all(|&dev| (dev as usize) < parts.len().min(d as usize)),
            "positional assignment must fill devices from the low ids: only the \
             highest {} device id(s) may be left idle",
            (d as usize).saturating_sub(parts.len())
        );
        plan
    }

    /// A trivial single-device plan (every partition on device 0).
    pub fn single(parts: &PartitionSet) -> DevicePlan {
        DevicePlan::build(parts, 1, DeviceAssignment::EdgeBalanced, 0)
    }

    /// Device with the least accumulated edge load, ties to the lowest id.
    fn least_loaded(&self) -> u32 {
        let mut best = 0u32;
        for d in 1..self.num_devices {
            if self.loads[d as usize] < self.loads[best as usize] {
                best = d;
            }
        }
        best
    }

    /// Number of devices (≥ 1).
    pub fn num_devices(&self) -> u32 {
        self.num_devices
    }

    /// Which device owns partition `pid`.
    #[inline]
    pub fn device_of(&self, pid: u32) -> u32 {
        self.device_of[pid as usize]
    }

    /// Accumulated edge count on device `d`.
    pub fn load(&self, d: u32) -> u64 {
        self.loads[d as usize]
    }

    /// Which devices own at least one partition: the exchange's
    /// participants. Spare devices (more devices than partitions) hold
    /// nothing.
    pub fn holders(&self) -> &[bool] {
        &self.holders
    }

    /// Vertices owned by device `d`: the bits a bitmap exchange batch
    /// from `d` carries.
    pub fn owned_vertices(&self, d: u32) -> u64 {
        self.owned[d as usize]
    }

    /// Partition ids owned by device `d`, ascending.
    pub fn partitions_on(&self, d: u32) -> Vec<u32> {
        (0..self.device_of.len() as u32).filter(|&p| self.device_of[p as usize] == d).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn covers_all_vertices_and_edges_without_overlap() {
        let g = generators::rmat(10, 8.0, 3, true);
        let ps = PartitionSet::build(&g, 4096);
        let mut v_seen = 0u64;
        let mut e_seen = 0u64;
        let mut prev_v_end = 0;
        let mut prev_e_end = 0;
        for p in ps.partitions() {
            assert_eq!(p.first_vertex, prev_v_end);
            assert_eq!(p.first_edge, prev_e_end);
            prev_v_end = p.end_vertex;
            prev_e_end = p.end_edge;
            v_seen += p.num_vertices() as u64;
            e_seen += p.num_edges();
        }
        assert_eq!(v_seen, g.num_vertices() as u64);
        assert_eq!(e_seen, g.num_edges());
    }

    #[test]
    fn respects_byte_budget_except_giant_vertices() {
        let g = generators::rmat(10, 8.0, 3, true);
        let budget = 4096u64;
        let ps = PartitionSet::build(&g, budget);
        let bpe = g.bytes_per_edge();
        let max_run = (0..g.num_vertices()).map(|v| g.out_degree(v)).max().unwrap() * bpe;
        for p in ps.partitions() {
            let bytes = p.num_edges() * bpe;
            assert!(
                bytes <= budget.max(max_run),
                "partition {} has {bytes} bytes, budget {budget}",
                p.id
            );
        }
    }

    #[test]
    fn partitions_are_edge_balanced() {
        let g = generators::erdos_renyi(4096, 65_536, 1, false);
        let ps = PartitionSet::build_count(&g, 16);
        let avg = g.num_edges() as f64 / ps.len() as f64;
        for p in ps.partitions() {
            // Uniform graph: every partition should be close to the mean.
            assert!((p.num_edges() as f64) < 2.0 * avg);
        }
        assert!((ps.len() as i64 - 16).unsigned_abs() <= 3, "got {} partitions", ps.len());
    }

    #[test]
    fn owner_map_is_consistent() {
        let g = generators::rmat(9, 6.0, 5, false);
        let ps = PartitionSet::build(&g, 2048);
        for p in ps.partitions() {
            for v in p.vertices() {
                assert_eq!(ps.owner_of(v), p.id);
                assert!(p.contains(v));
            }
        }
    }

    #[test]
    fn giant_vertex_gets_own_partition() {
        let g = generators::star(1000, false); // vertex 0 has 999 edges
        let ps = PartitionSet::build(&g, 16); // 4 edges per partition
        let p0 = ps.get(ps.owner_of(0));
        assert_eq!(p0.num_vertices(), 1);
        assert_eq!(p0.num_edges(), 999);
    }

    #[test]
    fn empty_graph_single_empty_partition() {
        let g = crate::CsrBuilder::new(0, false).build();
        let ps = PartitionSet::build(&g, 1024);
        assert!(ps.is_empty());
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn single_partition_when_budget_huge() {
        let g = generators::rmat(8, 4.0, 2, false);
        let ps = PartitionSet::build(&g, u64::MAX / 2);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.get(0).num_edges(), g.num_edges());
    }

    #[test]
    fn device_plan_covers_every_partition_exactly_once() {
        let g = generators::rmat(10, 8.0, 3, true);
        let ps = PartitionSet::build_count(&g, 16);
        for d in [1u32, 2, 4, 8] {
            let plan = DevicePlan::build(&ps, d, DeviceAssignment::EdgeBalanced, 0);
            assert_eq!(plan.num_devices(), d);
            let mut seen: Vec<u32> = (0..d).flat_map(|dev| plan.partitions_on(dev)).collect();
            seen.sort_unstable();
            let want: Vec<u32> = (0..ps.len() as u32).collect();
            assert_eq!(seen, want);
            let load_sum: u64 = (0..d).map(|dev| plan.load(dev)).sum();
            assert_eq!(load_sum, g.num_edges());
        }
    }

    /// Edges of the heaviest aligned run of `run` partitions.
    fn max_run_edges(ps: &PartitionSet, run: usize) -> u64 {
        ps.partitions().chunks(run).map(|c| c.iter().map(Partition::num_edges).sum()).max().unwrap()
    }

    #[test]
    fn edge_balanced_loads_stay_close() {
        let g = generators::erdos_renyi(4096, 65_536, 1, false);
        let ps = PartitionSet::build_count(&g, 32);
        let plan = DevicePlan::build(&ps, 4, DeviceAssignment::EdgeBalanced, 0);
        let max_run = max_run_edges(&ps, COMBINE_RUN);
        let loads: Vec<u64> = (0..4).map(|d| plan.load(d)).collect();
        let (lo, hi) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        // Greedy least-loaded over runs keeps the spread within one run.
        assert!(hi - lo <= max_run, "loads {loads:?}, max run {max_run}");
    }

    #[test]
    fn edge_balanced_keeps_every_aligned_run_on_one_device() {
        let g = generators::rmat(11, 8.0, 3, true);
        for d in [2u32, 4, 8] {
            let ps = PartitionSet::build_count(&g, 6 * COMBINE_RUN as u32 * d);
            assert!(ps.len() >= COMBINE_RUN * d as usize, "{} partitions at D={d}", ps.len());
            let plan = DevicePlan::build(&ps, d, DeviceAssignment::EdgeBalanced, 0);
            let ids: Vec<u32> = (0..ps.len() as u32).collect();
            for run in ids.chunks(COMBINE_RUN) {
                let dev = plan.device_of(run[0]);
                assert!(
                    run.iter().all(|&p| plan.device_of(p) == dev),
                    "run {run:?} split at D={d}"
                );
            }
            let max_run = max_run_edges(&ps, COMBINE_RUN);
            let loads: Vec<u64> = (0..d).map(|dev| plan.load(dev)).collect();
            let (lo, hi) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
            assert!(hi - lo <= max_run, "D={d}: loads {loads:?}, max run {max_run}");
        }
    }

    #[test]
    fn edge_balanced_run_clamp_reaches_every_device() {
        // D ≤ P < COMBINE_RUN·D: unclamped runs of COMBINE_RUN would
        // leave devices empty; the clamp shortens runs to P / D.
        let g = generators::rmat(10, 8.0, 5, true);
        let mut checked = 0;
        for d in [2u32, 3, 4, 8] {
            for target in [d, d + 1, 2 * d, COMBINE_RUN as u32 * d - 1] {
                let ps = PartitionSet::build_count(&g, target);
                let p = ps.len();
                if p < d as usize || p >= COMBINE_RUN * d as usize {
                    continue;
                }
                let plan = DevicePlan::build(&ps, d, DeviceAssignment::EdgeBalanced, 0);
                for dev in 0..d {
                    assert!(!plan.partitions_on(dev).is_empty(), "device {dev} empty, P={p} D={d}");
                }
                checked += 1;
            }
        }
        assert!(checked >= 8, "only {checked} (P, D) shapes fell in the clamp range");
    }

    #[test]
    fn single_device_plan_puts_everything_on_device_zero() {
        let g = generators::rmat(8, 4.0, 1, false);
        let ps = PartitionSet::build(&g, 1024);
        let plan = DevicePlan::single(&ps);
        assert_eq!(plan.num_devices(), 1);
        for p in 0..ps.len() as u32 {
            assert_eq!(plan.device_of(p), 0);
        }
        assert_eq!(plan.load(0), g.num_edges());
    }

    #[test]
    fn more_devices_than_partitions_leaves_spares_idle() {
        let g = generators::chain(4, false);
        let ps = PartitionSet::build(&g, u64::MAX / 2); // one partition
        let plan = DevicePlan::build(&ps, 8, DeviceAssignment::EdgeBalanced, 0);
        assert_eq!(plan.device_of(0), 0);
        assert_eq!((1..8).map(|d| plan.load(d)).sum::<u64>(), 0);
    }

    #[test]
    fn spare_devices_are_the_highest_ids_under_every_policy() {
        // Documented behaviour for num_devices > partitions.len(): the
        // low device ids are filled first, the spare top ids own nothing
        // and carry zero load.
        let g = generators::rmat(8, 6.0, 2, true);
        let ps = PartitionSet::build_count(&g, 3);
        let n = ps.len() as u32;
        let d = n + 5;
        let plan = DevicePlan::build(&ps, d, DeviceAssignment::EdgeBalanced, 0);
        for p in 0..n {
            assert!(plan.device_of(p) < n, "assigned past the partition count");
        }
        for spare in n..d {
            assert_eq!(plan.load(spare), 0, "loaded spare device {spare}");
            assert!(plan.partitions_on(spare).is_empty());
        }
    }

    #[test]
    fn holders_and_owned_counts_match_a_recount_over_device_of() {
        let g = generators::rmat(10, 8.0, 3, true);
        let ps = PartitionSet::build_count(&g, 20);
        let n = ps.len() as u32;
        for d in [1u32, 2, 3, 8, n + 3] {
            let plan = DevicePlan::build(&ps, d, DeviceAssignment::EdgeBalanced, 0);
            let mut holders = vec![false; d as usize];
            let mut owned = vec![0u64; d as usize];
            for p in ps.partitions() {
                let dev = plan.device_of(p.id) as usize;
                holders[dev] = true;
                owned[dev] += u64::from(p.num_vertices());
            }
            assert_eq!(plan.holders(), holders, "D={d}");
            for dev in 0..d {
                assert_eq!(plan.owned_vertices(dev), owned[dev as usize], "D={d} device {dev}");
            }
            assert_eq!(owned.iter().sum::<u64>(), u64::from(g.num_vertices()));
            if d > n {
                for spare in n..d {
                    assert!(!plan.holders()[spare as usize], "spare device {spare} holds a shard");
                    assert_eq!(plan.owned_vertices(spare), 0, "spare device {spare} owns vertices");
                }
            }
        }
    }
}
