//! Round trip of the frontier-exchange batch encoding: each device batch
//! encodes both ways (id list, and bitmap over the device's owned
//! vertices), decodes back to the same records, and is priced at the
//! shorter encoding's exact length.

use hytgraph::algos::hyperball::HllSketch;
use hytgraph::core::api::VertexValue;
use hytgraph::core::exchange::{decode_ids, encode_ids, IdEncoding, OwnedVertices};
use hytgraph::graph::{generators, DeviceAssignment, DevicePlan, PartitionSet, VertexId};
use proptest::prelude::*;

/// Stateless vertex hash, so a frontier is a pure function of its seed.
fn mix(v: u64, seed: u64) -> u64 {
    let mut x = (v ^ seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn sketch_of(ids: std::ops::Range<u32>) -> HllSketch {
    ids.fold(HllSketch::empty(), |acc, v| acc.merge(HllSketch::singleton(v)))
}

/// One sketch update per HLL record form: `(old, new)` whose changed
/// registers ship as a register bitmap (short form), and one that ships
/// the whole sketch.
fn hll_updates() -> [(HllSketch, HllSketch); 2] {
    let full = sketch_of(0..400);
    let short = (full, full.merge(sketch_of(5000..5003)));
    let whole = (HllSketch::empty(), full);
    assert!(short.1.wire_bytes_since(&short.0) < HllSketch::WIRE_BYTES);
    assert_eq!(whole.1.wire_bytes_since(&whole.0), HllSketch::WIRE_BYTES);
    [short, whole]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batches_round_trip_both_ways_and_price_the_shorter(
        seed in any::<u64>(),
        permille in 0u64..=1000,
        d_idx in 0usize..3,
    ) {
        let g = generators::rmat(10, 8.0, 7, false);
        let parts = PartitionSet::build(&g, 1024);
        let d = [2u32, 4, 8][d_idx];
        let plan = DevicePlan::build(&parts, d, DeviceAssignment::EdgeBalanced, 0);
        let updates = hll_updates();
        let mut owned_total = 0;
        for device in 0..d {
            let owned = OwnedVertices::of_device(&parts, &plan, device);
            owned_total += owned.len();
            let mine: Vec<VertexId> = parts
                .partitions()
                .iter()
                .filter(|p| plan.device_of(p.id) == device)
                .flat_map(|p| p.vertices())
                .filter(|&v| mix(v as u64, seed) % 1000 < permille)
                .collect();
            for two_forms in [false, true] {
                // The form flag is the HLL record's: short form exactly
                // when the changed registers undercut the whole sketch.
                let records: Vec<(VertexId, bool)> = mine
                    .iter()
                    .map(|&v| {
                        let (old, new) = updates[(mix(v as u64, !seed) & 1) as usize];
                        (v, two_forms && new.wire_bytes_since(&old) < HllSketch::WIRE_BYTES)
                    })
                    .collect();
                let n = records.len() as u64;
                let mut lengths = Vec::new();
                for enc in [IdEncoding::List, IdEncoding::Bitmap] {
                    let section = encode_ids(enc, &owned, &records, two_forms);
                    prop_assert_eq!(section.len() as u64, enc.bytes(n, owned.len(), two_forms));
                    let back = decode_ids(enc, &owned, &section, two_forms);
                    prop_assert!(back.as_ref() == Some(&records), "{enc:?} on device {device}");
                    lengths.push(section.len() as u64);
                }
                // The priced id section is the shorter encoding, and the
                // receiver reads which one it got off the section itself.
                let cheaper = IdEncoding::cheaper(n, owned.len(), two_forms);
                let shortest = lengths.iter().copied().min().unwrap();
                prop_assert_eq!(cheaper.bytes(n, owned.len(), two_forms), shortest);
                let sent = encode_ids(cheaper, &owned, &records, two_forms);
                prop_assert_eq!(IdEncoding::detect(&sent, owned.len(), two_forms), cheaper);
                prop_assert!(shortest <= 4 * n, "never more than the id list");
            }
        }
        // The plan covers every vertex exactly once.
        prop_assert_eq!(owned_total, g.num_vertices() as u64);
    }
}
