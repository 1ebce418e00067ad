//! HyperBall differential and property suite.
//!
//! Three claim families from ISSUE 6:
//!
//! 1. **Merge algebra** — the HLL register merge is commutative,
//!    associative and idempotent, so the sketch of a set is invariant
//!    under any sharding/ordering of its elements (proptests).
//! 2. **Accuracy** — the estimated neighbourhood function tracks the
//!    exact all-pairs-BFS oracle within standard HLL error bounds.
//! 3. **Determinism** — converged registers are **bit-identical** across
//!    device counts D ∈ {1, 2, 4, 8} and every topology: the merge is
//!    idempotent and commutative and iterations are synchronous, so
//!    placement can only change the timeline.
//!
//! ISSUE 26 adds the changed-register exchange: a record carries only the
//! registers the merge raised, and they rebuild the sketch on a replica.

use hytgraph::algos::hyperball::{run_hyperball, HllSketch, HLL_RSE};
use hytgraph::algos::reference;
use hytgraph::core::api::VertexValue;
use hytgraph::core::{HyTGraphConfig, SystemKind, TopologyKind};
use hytgraph::graph::{generators, EdgeList};
use proptest::prelude::*;

/// Sketch of a whole set of vertex ids.
fn sketch_of(ids: &[u32]) -> HllSketch {
    ids.iter().fold(HllSketch::empty(), |acc, &v| acc.merge(HllSketch::singleton(v)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative(a in proptest::collection::vec(any::<u32>(), 0..100),
                            b in proptest::collection::vec(any::<u32>(), 0..100)) {
        let (sa, sb) = (sketch_of(&a), sketch_of(&b));
        prop_assert_eq!(sa.merge(sb), sb.merge(sa));
    }

    #[test]
    fn merge_is_associative(a in proptest::collection::vec(any::<u32>(), 0..80),
                            b in proptest::collection::vec(any::<u32>(), 0..80),
                            c in proptest::collection::vec(any::<u32>(), 0..80)) {
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
        prop_assert_eq!(sa.merge(sb).merge(sc), sa.merge(sb.merge(sc)));
    }

    #[test]
    fn merge_is_idempotent(a in proptest::collection::vec(any::<u32>(), 0..150)) {
        let s = sketch_of(&a);
        prop_assert_eq!(s.merge(s), s);
    }

    #[test]
    fn sketch_is_invariant_under_shard_order(
        ids in proptest::collection::vec(any::<u32>(), 1..200),
        cut in 0usize..1000,
    ) {
        // Split the id stream at an arbitrary point into two "shards";
        // merging the shard sketches in either order — or interleaving
        // one element at a time — must produce the same registers, and
        // therefore the same estimate, as the sequential sketch.
        let k = cut % ids.len();
        let whole = sketch_of(&ids);
        let split = sketch_of(&ids[..k]).merge(sketch_of(&ids[k..]));
        let reversed = sketch_of(&ids[k..]).merge(sketch_of(&ids[..k]));
        prop_assert_eq!(split, whole);
        prop_assert_eq!(reversed, whole);
        prop_assert_eq!(split.estimate().to_bits(), whole.estimate().to_bits());
    }

    #[test]
    fn duplicate_insertion_never_changes_the_sketch(
        ids in proptest::collection::vec(0u32..500, 1..100),
    ) {
        // Idempotence in stream form: re-inserting every element again
        // (sets have no multiplicity) leaves the registers untouched.
        let once = sketch_of(&ids);
        let twice: Vec<u32> = ids.iter().chain(ids.iter()).copied().collect();
        prop_assert_eq!(sketch_of(&twice), once);
    }
}

/// HyTGraph preset on `d` devices / `topo`, single-threaded host kernels
/// (bit-identity baseline; the merge itself is also thread-invariant,
/// covered by the unit tests).
fn cfg(d: usize, topo: TopologyKind) -> HyTGraphConfig {
    let mut cfg = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
    cfg.num_devices = d;
    cfg.topology = topo;
    cfg.threads = 1;
    cfg
}

#[test]
fn registers_bit_identical_across_device_counts_and_topologies() {
    let g = generators::rmat(10, 8.0, 21, false);
    let base = run_hyperball(g.clone(), cfg(1, TopologyKind::HostOnly));
    assert_eq!(base.run.counters.exchange_bytes, 0, "D=1 must not pay the exchange");
    for topo in TopologyKind::ALL {
        for d in [2usize, 4, 8] {
            let r = run_hyperball(g.clone(), cfg(d, topo));
            assert_eq!(r.run.values, base.run.values, "registers diverged at D={d} on {topo:?}");
            assert_eq!(r.run.iterations, base.run.iterations, "D={d} {topo:?}");
            assert_eq!(r.nf, base.nf, "trajectory diverged at D={d} on {topo:?}");
            assert!(r.run.counters.exchange_bytes > 0, "D={d} never exchanged");
        }
    }
}

#[test]
fn estimates_track_exact_oracle_within_error_bounds() {
    // Two shapes: a scale-free rmat and a symmetrised one (larger balls).
    for (g, label) in [
        (generators::rmat(9, 6.0, 5, false), "rmat"),
        (
            {
                let mut el = generators::rmat(8, 5.0, 11, false).to_edge_list();
                el.symmetrize();
                el.to_csr()
            },
            "symmetric rmat",
        ),
    ] {
        let oracle = reference::neighbourhood_function(&g);
        let r = run_hyperball(g, HyTGraphConfig::default());
        let upto = r.nf.len().min(oracle.nf.len());
        assert!(upto >= 2, "{label}: no radii to compare");
        for t in 1..upto {
            let rel = (r.nf[t] - oracle.nf[t]).abs() / oracle.nf[t];
            assert!(
                rel < 4.0 * HLL_RSE,
                "{label} t={t}: sketch {} vs exact {} (rel {rel})",
                r.nf[t],
                oracle.nf[t]
            );
        }
    }
}

#[test]
fn harmonic_centrality_ranks_a_star_centre_first() {
    // Directed star: every leaf points at the centre, so the centre has
    // the maximal in-harmonic centrality and the leaves have none.
    let n = 32u32;
    let mut el = EdgeList::new(n);
    for v in 1..n {
        el.push(v, 0);
    }
    let r = run_hyperball(el.to_csr(), HyTGraphConfig::default());
    assert!(r.harmonic[0] > 0.0);
    for v in 1..n as usize {
        assert!(r.harmonic[0] > r.harmonic[v], "leaf {v} outranked the centre");
        assert_eq!(r.closeness[v], 0.0);
    }
    assert_eq!(r.diameter_lower_bound, 1);
    // Exact here: 31 leaves at distance 1, each clamped-positive delta
    // read off a 31-element sketch, within the standard error of 31.
    let rel = (r.harmonic[0] - (n - 1) as f64).abs() / (n - 1) as f64;
    assert!(rel < 4.0 * HLL_RSE, "centre harmonic {} (rel {rel})", r.harmonic[0]);
}

#[test]
fn wide_layout_is_reported_and_exchange_records_are_sketch_sized() {
    // Big enough for several partitions, so both devices hold a shard.
    let g = generators::rmat(11, 8.0, 33, false);
    let r = run_hyperball(g, cfg(2, TopologyKind::HostOnly));
    let layout = r.run.value_layout;
    assert_eq!(layout.lanes, 8, "64 HLL registers are 8 lanes");
    assert_eq!(layout.wire_bytes, 64);
    assert_eq!(layout.record_bytes(), 68);
    // Each record fanned out to the other shard holder carries a register
    // bitmap plus at least one raised register; its id is 4 bytes, or a
    // couple of bits when a dense batch ships a vertex bitmap. Records
    // stay strictly below the full sketch on average: they shrink to
    // what changed.
    let bytes = r.run.counters.exchange_bytes;
    let records: u64 = r.run.per_iteration.iter().map(|it| it.exchange.records).sum();
    assert!(records > 0);
    assert!(records * (8 + 1) <= bytes, "{bytes} B for {records} records");
    assert!(bytes < records * layout.record_bytes(), "{bytes} B for {records} records");
}

/// Registers of a sketch, in register order (8 per lane, low byte first).
fn registers(s: HllSketch) -> Vec<u8> {
    let mut lanes = [0u64; HllSketch::SKETCH_LANES];
    s.store_lanes(&mut lanes);
    lanes.iter().flat_map(|l| l.to_le_bytes()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ISSUE 26's replica invariant: a holder with `old` that receives the
    /// registers the merge raised rebuilds `new` bit for bit, and the
    /// record is priced as the bitmap plus exactly those registers.
    #[test]
    fn raised_registers_rebuild_the_merged_sketch(
        a in proptest::collection::vec(any::<u32>(), 0..120),
        b in proptest::collection::vec(any::<u32>(), 0..120),
    ) {
        let old = sketch_of(&a);
        let new = old.merge(sketch_of(&b));
        let (before, after) = (registers(old), registers(new));
        let raised: Vec<usize> = (0..after.len()).filter(|&j| after[j] > before[j]).collect();
        let mut replica = before;
        for &j in &raised {
            replica[j] = after[j];
        }
        prop_assert_eq!(&replica, &after);
        let sparse = HllSketch::REGISTERS as u64 / 8 + raised.len() as u64;
        prop_assert_eq!(new.wire_bytes_since(&old), sparse.min(HllSketch::WIRE_BYTES));
    }
}
