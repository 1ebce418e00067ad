//! The resident-reuse contract: back-to-back [`HyTGraphSystem::run`]
//! calls on one resident system are bit-identical to runs on freshly
//! built systems.
//!
//! The session service keeps one partitioned system alive across an
//! arbitrary query stream, so everything that survives a `run` —
//! partitions, hub order, device plan, route tables, the resident
//! simulator and exchange scratch — must be either immutable or
//! restored before `run` returns. These tests hold the runner to that:
//! any drift between "fresh every time" and "resident, reused" is a
//! leak of per-run state into the struct.
//!
//! Bit-identity runs use `threads: 1` (deterministic host kernels), and
//! compare full [`RunResult`] content: values, iteration count, total
//! time, and the serialized per-iteration records (timings, engine
//! mixes, exchange breakdowns, counters).

use hytgraph::core::{HyTGraphConfig, HyTGraphSystem, RunResult, SystemKind};
use hytgraph::graph::{generators, Csr, DeviceAssignment};
use hytgraph::prelude::*;

fn config(devices: usize) -> HyTGraphConfig {
    let mut cfg = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
    cfg.num_devices = devices;
    cfg.device_assignment = DeviceAssignment::EdgeBalanced;
    cfg.threads = 1;
    cfg
}

fn graph() -> Csr {
    generators::rmat(10, 10.0, 33, true)
}

/// Everything observable about a run, in comparable form.
fn fingerprint<V: std::fmt::Debug>(r: &RunResult<V>) -> (String, u32, f64, String) {
    (
        format!("{:?}", r.values),
        r.iterations,
        r.total_time,
        serde_json::to_string(&r.per_iteration).expect("per-iteration records serialize"),
    )
}

#[test]
fn repeat_runs_of_one_program_are_bit_identical() {
    for devices in [1usize, 4] {
        let mut resident = HyTGraphSystem::new(graph(), config(devices));
        let first = fingerprint(&resident.run(Sssp::from_source(0)));
        for round in 1..4 {
            let again = fingerprint(&resident.run(Sssp::from_source(0)));
            assert_eq!(first, again, "run {round} drifted on D={devices}");
        }
        // And the resident runs match a fresh system exactly.
        let mut fresh = HyTGraphSystem::new(graph(), config(devices));
        assert_eq!(first, fingerprint(&fresh.run(Sssp::from_source(0))), "D={devices}");
    }
}

#[test]
fn interleaved_programs_do_not_leak_state_between_runs() {
    // A/B/A: running a different program (different value type, different
    // frontier shape) in between must not perturb the repeat.
    let mut resident = HyTGraphSystem::new(graph(), config(4));
    let a1 = fingerprint(&resident.run(Bfs::from_source(7)));
    let b1 = fingerprint(&resident.run(PageRank::new()));
    let a2 = fingerprint(&resident.run(Bfs::from_source(7)));
    let b2 = fingerprint(&resident.run(PageRank::new()));
    assert_eq!(a1, a2, "BFS drifted after an interleaved PageRank");
    assert_eq!(b1, b2, "PageRank drifted after an interleaved BFS");
    // Different sources still answer independently on the same resident.
    let c = resident.run(Bfs::from_source(1));
    let mut fresh = HyTGraphSystem::new(graph(), config(4));
    assert_eq!(fingerprint(&c), fingerprint(&fresh.run(Bfs::from_source(1))));
}

#[test]
fn resident_reuse_holds_with_overlap_and_wide_values() {
    // The multi-lane exchange scratch, reused across iterations, must
    // leave no residue between wide and narrow runs.
    let cfg = config(4);
    let mut resident = HyTGraphSystem::new(graph(), cfg.clone());
    let wide1 = fingerprint(&resident.run(MultiBfs::from_sources([0, 9, 3, 250])));
    let narrow = fingerprint(&resident.run(Sssp::from_source(0)));
    let wide2 = fingerprint(&resident.run(MultiBfs::from_sources([0, 9, 3, 250])));
    assert_eq!(wide1, wide2, "wide-value run drifted across resident reuse");
    let mut fresh = HyTGraphSystem::new(graph(), cfg);
    assert_eq!(narrow, fingerprint(&fresh.run(Sssp::from_source(0))));
}
