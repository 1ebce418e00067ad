//! The exchange-overlap window.
//!
//! Iteration `i`'s routed exchange hides under iteration `i+1`'s cost
//! analysis, and the window is that analysis's **actual** span — a
//! drained frontier prices almost nothing, and a run's *last* iteration
//! has no successor to hide under at all:
//!
//! ```text
//! window_i = ANALYSIS_SPAN_COPIES · copy_latency · active_frac_{i+1}
//! hidden_i = min(exchange_makespan_i, window_i),  hidden_last = 0
//! ```

use hytgraph::algos::Sssp;
use hytgraph::core::runner::{analysis_span, ANALYSIS_SPAN_COPIES, ITERATION_OVERHEAD_COPIES};
use hytgraph::core::{HyTGraphConfig, HyTGraphSystem, RunResult, SystemKind};
use hytgraph::graph::{generators, DeviceAssignment};

const EPS: f64 = 1e-12;

fn sharded_config(devices: usize, max_iterations: u32) -> HyTGraphConfig {
    let mut cfg = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
    cfg.num_devices = devices;
    cfg.device_assignment = DeviceAssignment::EdgeBalanced;
    cfg.threads = 1;
    cfg.max_iterations = max_iterations;
    cfg
}

fn run(max_iterations: u32) -> (RunResult<u32>, f64) {
    let g = generators::rmat(11, 10.0, 9, true);
    let cfg = sharded_config(4, max_iterations);
    let copy_latency = cfg.machine.pcie.copy_latency;
    let mut sys = HyTGraphSystem::new(g, cfg);
    (sys.run(Sssp::from_source(0)), copy_latency)
}

/// Iteration `i` never hides more than `min(its exchange makespan,
/// iteration i+1's actual analysis span)`, the final iteration hides
/// nothing, and the run total is the serial sum minus what was hidden.
#[test]
fn hidden_is_bounded_by_next_iterations_measured_analysis_span() {
    let (r, copy_latency) = run(u32::MAX);
    assert!(r.iterations >= 3, "need a multi-iteration run to exercise the window");
    let n = r.per_iteration.len();
    for i in 0..n - 1 {
        let cur = &r.per_iteration[i];
        let next = &r.per_iteration[i + 1];
        let window = analysis_span(copy_latency, next.active_partitions, next.total_partitions);
        // Not just bounded by both: the window is used exactly.
        assert!(
            (cur.exchange.hidden - cur.exchange.time.min(window)).abs() < EPS,
            "iteration {i} hid {} of a {} exchange under a successor span of {window}",
            cur.exchange.hidden,
            cur.exchange.time,
        );
    }
    // Natural drain: the final iteration has no successor analysis.
    assert_eq!(r.per_iteration[n - 1].exchange.hidden, 0.0);
    let hidden: f64 = r.per_iteration.iter().map(|it| it.exchange.hidden).sum();
    assert!(hidden > 0.0, "overlap hid nothing at all");
    // Consistency: what each iteration would cost with its exchange
    // fully exposed — timeline, exchange, orchestration — sums to the
    // run total plus everything hidden.
    let serial: f64 = r
        .per_iteration
        .iter()
        .map(|it| {
            let timeline = it.per_device.iter().fold(0.0f64, |a, d| a.max(d.time));
            timeline + it.exchange.time + ITERATION_OVERHEAD_COPIES * copy_latency
        })
        .sum();
    assert!((r.total_time + hidden - serial).abs() < EPS);
}

/// The max-iterations cap is the other way a run can end; the capped
/// final iteration must hide nothing either (there is no iteration
/// `cap+1` whose analysis could absorb it).
#[test]
fn capped_final_iteration_hides_nothing() {
    let (full, _) = run(u32::MAX);
    let cap = full.iterations / 2;
    assert!(cap >= 2);
    let (r, _) = run(cap);
    assert_eq!(r.iterations, cap, "run must actually stop at the cap");
    let last = r.per_iteration.last().unwrap();
    assert!(last.exchange.time > 0.0, "capped mid-run iteration still exchanges");
    assert_eq!(last.exchange.hidden, 0.0);
    // Every non-final iteration matches the uncapped run's record
    // exactly — the cap only changes who counts as "final".
    for (a, b) in r.per_iteration[..cap as usize - 1]
        .iter()
        .zip(full.per_iteration[..cap as usize - 1].iter())
    {
        assert!((a.exchange.hidden - b.exchange.hidden).abs() < EPS);
        assert!((a.time - b.time).abs() < EPS);
    }
}

/// The measured window's parts: the analysis span is the overlappable
/// share of the per-iteration overhead, scaled by the priced-partition
/// fraction, and degenerate inputs are safe.
#[test]
fn analysis_span_scales_with_active_fraction() {
    let lat = 30.0e-6;
    const { assert!(ANALYSIS_SPAN_COPIES < ITERATION_OVERHEAD_COPIES) };
    assert_eq!(analysis_span(lat, 8, 8), ANALYSIS_SPAN_COPIES * lat);
    assert!((analysis_span(lat, 2, 8) - ANALYSIS_SPAN_COPIES * lat * 0.25).abs() < EPS);
    assert_eq!(analysis_span(lat, 0, 8), 0.0);
    // Clamped, not extrapolated, if activity ever overcounts.
    assert_eq!(analysis_span(lat, 9, 8), ANALYSIS_SPAN_COPIES * lat);
    assert_eq!(analysis_span(lat, 3, 0), 0.0);
}

/// Overlap is pure attribution: the sharded run, whose exchanges hide
/// time, computes the values and iteration count of the single-device
/// run, which has no exchange to hide.
#[test]
fn hiding_the_exchange_never_touches_values() {
    let g = generators::rmat(10, 8.0, 5, true);
    let results: Vec<_> = [1usize, 4]
        .into_iter()
        .map(|devices| {
            let mut sys = HyTGraphSystem::new(g.clone(), sharded_config(devices, u32::MAX));
            let r = sys.run(Sssp::from_source(3));
            let hidden: f64 = r.per_iteration.iter().map(|it| it.exchange.hidden).sum();
            (r.values, r.iterations, hidden)
        })
        .collect();
    assert_eq!((&results[0].0, results[0].1), (&results[1].0, results[1].1));
    assert_eq!(results[0].2, 0.0, "a single device exchanges nothing");
    assert!(results[1].2 > 0.0, "the sharded run hid nothing");
}
