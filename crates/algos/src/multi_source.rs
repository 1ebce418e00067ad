//! Multi-source traversal batches: MS-BFS-style coalescing on the
//! width-aware value layer.
//!
//! Then et al.'s "The More the Merrier" insight is that `B` concurrent
//! BFS runs over one graph can share every edge scan: give each source a
//! *lane* of per-vertex state and fold all `B` frontiers in one pass.
//! Here that costs nothing structurally — the value layer already
//! stripes multi-lane values per vertex — so a batch is just a vertex
//! program whose value is [`MultiDist<B>`]: `B` independent `u32`
//! distances packed two per 64-bit lane, merged by element-wise min.
//!
//! **Bit-identity.** Lane `k` of [`MultiBfs`]/[`MultiSssp`] evolves under
//! exactly the serial program's min-plus fold from source `k`: messages
//! relax each lane independently (`UNREACHED` lanes send nothing a
//! serial run would not), and the fold accepts iff some lane strictly
//! lowers. A monotone min-plus system has one least fixpoint regardless
//! of schedule, so the converged lane equals the serial run's values
//! bit-for-bit — the property the session service's coalescer depends
//! on, enforced by proptests in `tests/session.rs` across device counts
//! and topologies.
//!
//! What batching buys is *pricing*: one coalesced run prices one routed
//! exchange per iteration for the whole batch — each exchanged record
//! carries `4·B` value bytes instead of `B` separate 4-byte records
//! with `B` separate 4-byte id halves and `B` separately-latencied
//! exchange legs — and one cost analysis, one kernel schedule, one
//! barrier. On skewed multi-device graphs that strictly cuts total
//! exchange bytes versus the serial runs it replaces (a `repro check`
//! claim).

use crate::UNREACHED;
use hyt_core::api::{EdgeCtx, InitialFrontier, VertexProgram, VertexValue};
use hyt_graph::VertexId;

/// `B` per-source `u32` distances, packed two per 64-bit storage lane
/// (`B = 1` is layout-compatible with the serial programs' bare `u32`:
/// one lane, 4 wire bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiDist<const B: usize> {
    /// Distance from source `k` in slot `k` ([`UNREACHED`] when no path
    /// is known yet).
    pub d: [u32; B],
}

impl<const B: usize> MultiDist<B> {
    /// All-unreached state.
    fn unreached() -> Self {
        MultiDist { d: [UNREACHED; B] }
    }

    fn pack_lane(&self, lane: usize) -> u64 {
        let lo = self.d[2 * lane] as u64;
        let hi = if 2 * lane + 1 < B { self.d[2 * lane + 1] as u64 } else { 0 };
        lo | (hi << 32)
    }

    fn unpack_lane(&mut self, lane: usize, bits: u64) {
        self.d[2 * lane] = bits as u32;
        if 2 * lane + 1 < B {
            self.d[2 * lane + 1] = (bits >> 32) as u32;
        }
    }
}

impl<const B: usize> VertexValue for MultiDist<B> {
    /// Two 4-byte distances per 64-bit lane; an odd `B` pads its last
    /// lane's high half with zeros.
    const LANES: usize = B.div_ceil(2);

    /// The exchange ships exactly the `B` distances — `4·B` bytes per
    /// published vertex, against `B` serial records of 4 bytes *plus*
    /// `B` separate id halves.
    const WIRE_BYTES: u64 = 4 * B as u64;

    fn to_bits(self) -> u64 {
        self.pack_lane(0)
    }

    fn from_bits(bits: u64) -> Self {
        let mut v = MultiDist::unreached();
        v.unpack_lane(0, bits);
        v
    }

    fn store_lanes(self, out: &mut [u64]) {
        for (lane, slot) in out.iter_mut().enumerate() {
            *slot = self.pack_lane(lane);
        }
    }

    fn load_lanes(lanes: &[u64]) -> Self {
        let mut v = MultiDist::unreached();
        for (lane, &bits) in lanes.iter().enumerate() {
            v.unpack_lane(lane, bits);
        }
        v
    }
}

/// Element-wise min fold shared by both batched programs: `Some` iff any
/// lane strictly improved — exactly the serial accept rule applied per
/// lane.
fn min_fold<const B: usize>(state: MultiDist<B>, msg: MultiDist<B>) -> Option<MultiDist<B>> {
    let mut out = state;
    let mut changed = false;
    for (slot, &m) in out.d.iter_mut().zip(msg.d.iter()) {
        if m < *slot {
            *slot = m;
            changed = true;
        }
    }
    changed.then_some(out)
}

/// Per-lane relaxation shared by both batched programs: lane `k` sends
/// `d[k] + step` when reached, [`UNREACHED`] (a no-op under min) when
/// not; nothing at all when no lane is reached — the union of what the
/// `B` serial programs would send.
fn relax<const B: usize>(seed: MultiDist<B>, step: u32) -> Option<MultiDist<B>> {
    let mut out = MultiDist::unreached();
    let mut any = false;
    for (slot, &d) in out.d.iter_mut().zip(seed.d.iter()) {
        if d != UNREACHED {
            *slot = d.saturating_add(step);
            any = true;
        }
    }
    any.then_some(out)
}

/// `B` coalesced BFS traversals sharing one frontier (MS-BFS).
#[derive(Clone, Copy, Debug)]
pub struct MultiBfs<const B: usize> {
    sources: [VertexId; B],
}

impl<const B: usize> MultiBfs<B> {
    /// Depths from each of `sources` (lane `k` ↔ `sources[k]`).
    pub fn from_sources(sources: [VertexId; B]) -> Self {
        MultiBfs { sources }
    }
}

impl<const B: usize> VertexProgram for MultiBfs<B> {
    type Value = MultiDist<B>;

    fn init(&self, v: VertexId) -> MultiDist<B> {
        let mut d = [UNREACHED; B];
        for (slot, &s) in d.iter_mut().zip(self.sources.iter()) {
            if v == s {
                *slot = 0;
            }
        }
        MultiDist { d }
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::Set(self.sources.to_vec())
    }

    fn message(&self, seed: MultiDist<B>, _ctx: EdgeCtx) -> Option<MultiDist<B>> {
        relax(seed, 1)
    }

    fn accumulate(&self, state: MultiDist<B>, msg: MultiDist<B>) -> Option<MultiDist<B>> {
        min_fold(state, msg)
    }
}

/// `B` coalesced SSSP traversals sharing one frontier.
#[derive(Clone, Copy, Debug)]
pub struct MultiSssp<const B: usize> {
    sources: [VertexId; B],
}

impl<const B: usize> MultiSssp<B> {
    /// Shortest paths from each of `sources` (lane `k` ↔ `sources[k]`).
    pub fn from_sources(sources: [VertexId; B]) -> Self {
        MultiSssp { sources }
    }
}

impl<const B: usize> VertexProgram for MultiSssp<B> {
    type Value = MultiDist<B>;

    const NEEDS_WEIGHTS: bool = true;

    fn init(&self, v: VertexId) -> MultiDist<B> {
        let mut d = [UNREACHED; B];
        for (slot, &s) in d.iter_mut().zip(self.sources.iter()) {
            if v == s {
                *slot = 0;
            }
        }
        MultiDist { d }
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::Set(self.sources.to_vec())
    }

    fn message(&self, seed: MultiDist<B>, ctx: EdgeCtx) -> Option<MultiDist<B>> {
        relax(seed, ctx.weight)
    }

    fn accumulate(&self, state: MultiDist<B>, msg: MultiDist<B>) -> Option<MultiDist<B>> {
        min_fold(state, msg)
    }
}

/// Demultiplex one lane of a batched run: the distances source `k`'s
/// serial run would have produced.
pub fn lane_values<const B: usize>(values: &[MultiDist<B>], k: usize) -> Vec<u32> {
    assert!(k < B, "lane {k} out of range for batch width {B}");
    values.iter().map(|v| v.d[k]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, Bfs};
    use hyt_core::api::ValueLayout;
    use hyt_core::{HyTGraphConfig, HyTGraphSystem};
    use hyt_graph::generators;

    #[test]
    fn layouts_pack_two_distances_per_lane() {
        assert_eq!(ValueLayout::of::<MultiDist<1>>(), ValueLayout::of::<u32>());
        let l2 = ValueLayout::of::<MultiDist<2>>();
        assert_eq!((l2.lanes, l2.wire_bytes), (1, 8));
        let l4 = ValueLayout::of::<MultiDist<4>>();
        assert_eq!((l4.lanes, l4.wire_bytes), (2, 16));
        let l8 = ValueLayout::of::<MultiDist<8>>();
        assert_eq!((l8.lanes, l8.wire_bytes), (4, 32));
    }

    #[test]
    fn lane_packing_round_trips() {
        let v = MultiDist::<8> { d: [0, 1, UNREACHED, 3, 4, 5, 6, 7] };
        let mut lanes = [0u64; 4];
        v.store_lanes(&mut lanes);
        assert_eq!(MultiDist::<8>::load_lanes(&lanes), v);
        // Width-1 to_bits is bit-identical to the serial u32 cell.
        let one = MultiDist::<1> { d: [42] };
        assert_eq!(one.to_bits(), VertexValue::to_bits(42u32));
        assert_eq!(MultiDist::<1>::from_bits(42), one);
        // Width-2 packs both distances into the single CAS lane.
        let two = MultiDist::<2> { d: [7, 9] };
        assert_eq!(MultiDist::<2>::from_bits(two.to_bits()), two);
    }

    #[test]
    fn batched_bfs_lanes_match_serial_runs() {
        let g = generators::rmat(9, 8.0, 5, false);
        let sources = [0u32, 3, 11, 42];
        let mut sys = HyTGraphSystem::new(g.clone(), HyTGraphConfig::default());
        let batched = sys.run(MultiBfs::from_sources(sources));
        for (k, &s) in sources.iter().enumerate() {
            let mut serial_sys = HyTGraphSystem::new(g.clone(), HyTGraphConfig::default());
            let serial = serial_sys.run(Bfs::from_source(s));
            assert_eq!(lane_values(&batched.values, k), serial.values, "lane {k}");
        }
    }

    #[test]
    fn batched_sssp_lanes_match_dijkstra() {
        let g = generators::rmat(9, 8.0, 13, true);
        let sources = [1u32, 8];
        let mut sys = HyTGraphSystem::new(g.clone(), HyTGraphConfig::default());
        let batched = sys.run(MultiSssp::from_sources(sources));
        for (k, &s) in sources.iter().enumerate() {
            assert_eq!(lane_values(&batched.values, k), reference::dijkstra(&g, s), "lane {k}");
        }
    }

    #[test]
    fn duplicate_sources_share_a_distance() {
        let g = generators::chain(5, false);
        let mut sys = HyTGraphSystem::new(g, HyTGraphConfig::default());
        let r = sys.run(MultiBfs::from_sources([2, 2]));
        assert_eq!(lane_values(&r.values, 0), lane_values(&r.values, 1));
    }
}
