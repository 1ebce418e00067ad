//! Regression suite for width-aware pricing (ISSUE 6 satellite): every
//! layer derives its per-vertex payload from the program's declared
//! value width instead of hard-coded 8-byte constants.

use hytgraph::core::api::{EdgeCtx, InitialFrontier, ValueLayout, VertexProgram};
use hytgraph::core::{AsyncMode, HyTGraphConfig, HyTGraphSystem, IterationStats, SystemKind};
use hytgraph::graph::{generators, VertexId};

/// Min-fold over `u32` values — 4 bytes on the wire (8-byte records).
struct Min32;
impl VertexProgram for Min32 {
    type Value = u32;
    fn init(&self, v: VertexId) -> u32 {
        v
    }
    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::All
    }
    fn message(&self, seed: u32, _: EdgeCtx) -> Option<u32> {
        Some(seed)
    }
    fn accumulate(&self, s: u32, m: u32) -> Option<u32> {
        (m < s).then_some(m)
    }
}

/// The identical fold over `u64` values — 8 bytes on the wire (12-byte
/// records). Same activations, same iterations; only the width differs.
struct Min64;
impl VertexProgram for Min64 {
    type Value = u64;
    fn init(&self, v: VertexId) -> u64 {
        v as u64
    }
    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::All
    }
    fn message(&self, seed: u64, _: EdgeCtx) -> Option<u64> {
        Some(seed)
    }
    fn accumulate(&self, s: u64, m: u64) -> Option<u64> {
        (m < s).then_some(m)
    }
}

fn sharded_cfg(d: usize) -> HyTGraphConfig {
    let mut cfg = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
    cfg.num_devices = d;
    cfg.threads = 1;
    cfg
}

#[test]
fn four_byte_values_price_smaller_exchanges_than_eight_byte() {
    let g = generators::rmat(10, 8.0, 17, false);
    let mut sys = HyTGraphSystem::new(g.clone(), sharded_cfg(2));
    let narrow = sys.run(Min32);
    let mut sys = HyTGraphSystem::new(g, sharded_cfg(2));
    let wide = sys.run(Min64);

    // Identical propagation: same fixpoint, same iteration count, so the
    // two runs exchanged exactly the same *record* stream.
    assert_eq!(wide.values, narrow.values.iter().map(|&v| v as u64).collect::<Vec<_>>());
    assert_eq!(wide.iterations, narrow.iterations);

    let x32 = narrow.counters.exchange_bytes;
    let x64 = wide.counters.exchange_bytes;
    assert!(x32 > 0, "the sharded run must exchange frontiers");
    assert!(x32 < x64, "4-byte records must price a smaller exchange ({x32} vs {x64})");
    // Exactly the record-size ratio: 8 bytes/record vs 12 bytes/record.
    assert_eq!(x32 * 12, x64 * 8, "exchange must scale with declared record size");
}

/// Sync runs price values against the iteration-start snapshot, but
/// narrow values keep the default `wire_bytes_since`, so every value is
/// full width. Ids cost at most a full id per record: an iteration's
/// exchange is exactly `records × record_bytes` when every device batch
/// lists its ids, and at most that when a dense batch ships a vertex
/// bitmap instead (strictly less unless the bitmap only ties the list).
#[test]
fn narrow_sync_exchange_prices_full_records() {
    let g = generators::rmat(10, 8.0, 17, false);
    for d in [2usize, 4, 8] {
        let cfg = HyTGraphConfig { async_mode: AsyncMode::Sync, ..sharded_cfg(d) };
        let r32 = HyTGraphSystem::new(g.clone(), cfg.clone()).run(Min32);
        let r64 = HyTGraphSystem::new(g.clone(), cfg).run(Min64);
        let mut saved = 0;
        for (iterations, layout) in
            [(&r32.per_iteration, r32.value_layout), (&r64.per_iteration, r64.value_layout)]
        {
            assert!(records_of(iterations) > 0, "D={d} never exchanged");
            for it in iterations {
                let bytes = it.counters.exchange_bytes;
                let full = it.exchange.records * layout.record_bytes();
                let at = format!("D={d} iteration {} {layout:?}", it.iteration);
                if it.exchange.bitmap_batches == 0 {
                    assert_eq!(bytes, full, "{at}: every batch listed its ids");
                } else {
                    assert!(bytes <= full, "{at}: a bitmap never costs more than the ids");
                    saved += u64::from(bytes < full);
                }
            }
        }
        // The all-active first iteration publishes every vertex.
        assert!(saved > 0, "D={d}: no dense batch shipped a shorter bitmap");
    }
}

fn records_of(iterations: &[IterationStats]) -> u64 {
    iterations.iter().map(|it| it.exchange.records).sum()
}

#[test]
fn run_results_carry_the_layout_they_were_priced_with() {
    let g = generators::rmat(8, 4.0, 3, false);
    let mut sys = HyTGraphSystem::new(g.clone(), sharded_cfg(1));
    let r32 = sys.run(Min32);
    assert_eq!(r32.value_layout, ValueLayout { lanes: 1, wire_bytes: 4 });
    assert_eq!(r32.value_layout.record_bytes(), 8);
    assert_eq!(r32.value_layout.state_bytes(), 24);
    let mut sys = HyTGraphSystem::new(g, sharded_cfg(1));
    let r64 = sys.run(Min64);
    assert_eq!(r64.value_layout, ValueLayout::narrow());
    assert_eq!(r64.value_layout.record_bytes(), 12);
}

#[test]
fn width_is_priced_but_never_changes_narrow_results() {
    // The narrow layouts (every pre-existing program) must go through
    // the width-aware plumbing as exact identities: same values, same
    // iterations, same simulated time as each other for u32 vs u64 on
    // a *single* device (no exchange, no surplus, same state bytes).
    let g = generators::rmat(9, 6.0, 29, false);
    let mut sys = HyTGraphSystem::new(g.clone(), sharded_cfg(1));
    let r32 = sys.run(Min32);
    let mut sys = HyTGraphSystem::new(g, sharded_cfg(1));
    let r64 = sys.run(Min64);
    assert_eq!(r64.values, r32.values.iter().map(|&v| v as u64).collect::<Vec<_>>());
    assert_eq!(r64.iterations, r32.iterations);
    assert_eq!(r64.total_time, r32.total_time, "identical narrow pricing");
    assert_eq!(r64.counters, r32.counters);
}
