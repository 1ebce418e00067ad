//! The algorithm-aware backend for `hyt_core`'s resident session
//! service.
//!
//! `hyt_core::session` owns the admission, queueing, and accounting
//! machinery; this module supplies the half that knows the algorithms:
//!
//! * **Pricing shapes** — each [`QueryKind`] is quoted at the value
//!   layout and weight need of the program that would serve it alone
//!   (BFS/SSSP at the bare `u32` cell, PageRank at the `F32Pair` pair,
//!   HyperBall at the 8-lane sketch), so admission control charges a
//!   HyperBall snapshot its real 64-wire-byte sweep rather than a
//!   traversal's 4.
//! * **Coalescing** — same-kind traversals (BFS with BFS, SSSP with
//!   SSSP) may share one multi-source frontier; anything else runs
//!   alone. Supported cohort widths are 1, 2, 4, 8 — the
//!   [`MultiDist`] instantiations compiled below.
//! * **Execution** — traversal cohorts dispatch to
//!   [`MultiBfs`]/[`MultiSssp`] at the cohort's const width and
//!   demultiplex per-lane distances; PageRank returns its ranks,
//!   HyperBall its converged per-vertex ball-size estimates.
//!
//! Lane bit-identity (every lane of a batched run equals the serial
//! run's values — see `multi_source`) is what makes coalescing safe to
//! apply silently: a caller cannot tell whether its query rode alone or
//! in a cohort except by reading its
//! [`QueryStats`](hyt_core::session::QueryStats).

use crate::hyperball::HllSketch;
use crate::multi_source::{lane_values, MultiBfs, MultiDist, MultiSssp};
use crate::{HyperBall, PageRank};
use hyt_core::api::{F32Pair, ValueLayout};
use hyt_core::session::{
    CohortOutcome, MutationOutcome, QueryKind, QueryOutput, QueryShape, SessionBackend,
};
use hyt_core::stats::{ExchangeStats, RunResult};
use hyt_core::HyTGraphSystem;
use hyt_graph::VertexId;

/// The production [`SessionBackend`]: quotes by real program shapes,
/// coalesces same-kind traversals into [`MultiBfs`]/[`MultiSssp`]
/// batches, and serves PageRank/HyperBall refreshes solo.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlgoBackend;

/// Cohort widths with a compiled [`MultiDist`] instantiation.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Run-total iteration/time/exchange accounting shared by every cohort
/// shape. The payload currency is the routing-invariant
/// `counters.exchange_bytes` — what the system logically had to move,
/// not per-link wire bytes — so byte savings from batching compare
/// fairly across topologies.
fn totals<V>(r: &RunResult<V>) -> (u32, f64, ExchangeStats, u64) {
    let mut exchange = ExchangeStats::default();
    for it in &r.per_iteration {
        exchange.merge(&it.exchange);
    }
    (r.iterations, r.total_time, exchange, r.counters.exchange_bytes)
}

/// The source vertices of a traversal cohort.
fn sources(cohort: &[QueryKind]) -> Vec<VertexId> {
    cohort
        .iter()
        .map(|k| match k {
            QueryKind::Bfs(s) | QueryKind::Sssp(s) => *s,
            other => panic!("non-traversal {other:?} in a traversal cohort"),
        })
        .collect()
}

/// Demultiplex a batched traversal run into per-request outputs.
fn demux<const B: usize>(r: &RunResult<MultiDist<B>>) -> CohortOutcome {
    let outputs = (0..B).map(|k| QueryOutput::Distances(lane_values(&r.values, k))).collect();
    let (iterations, total_time, exchange, payload) = totals(r);
    CohortOutcome { outputs, iterations, total_time, exchange, exchange_payload_bytes: payload }
}

fn bfs_cohort<const B: usize>(system: &mut HyTGraphSystem, s: &[VertexId]) -> CohortOutcome {
    let mut arr = [0u32; B];
    arr.copy_from_slice(s);
    demux(&system.run(MultiBfs::from_sources(arr)))
}

fn sssp_cohort<const B: usize>(system: &mut HyTGraphSystem, s: &[VertexId]) -> CohortOutcome {
    let mut arr = [0u32; B];
    arr.copy_from_slice(s);
    demux(&system.run(MultiSssp::from_sources(arr)))
}

impl SessionBackend for AlgoBackend {
    fn query_shape(&self, kind: &QueryKind) -> QueryShape {
        match kind {
            QueryKind::Bfs(_) => {
                QueryShape { layout: ValueLayout::of::<u32>(), needs_weights: false }
            }
            QueryKind::Sssp(_) => {
                QueryShape { layout: ValueLayout::of::<u32>(), needs_weights: true }
            }
            QueryKind::PageRank => {
                QueryShape { layout: ValueLayout::of::<F32Pair>(), needs_weights: false }
            }
            QueryKind::HyperBall => {
                QueryShape { layout: ValueLayout::of::<HllSketch>(), needs_weights: false }
            }
            // A mutation is admission-priced at the narrow weight-blind
            // sweep (the bound on the repricing work it can force); the
            // service adds the live delta surplus on top.
            QueryKind::Mutate(_) => {
                QueryShape { layout: ValueLayout::of::<u32>(), needs_weights: false }
            }
        }
    }

    fn widths(&self) -> &[usize] {
        &WIDTHS
    }

    fn coalesces(&self, a: &QueryKind, b: &QueryKind) -> bool {
        matches!(
            (a, b),
            (QueryKind::Bfs(_), QueryKind::Bfs(_)) | (QueryKind::Sssp(_), QueryKind::Sssp(_))
        )
    }

    fn execute(&self, system: &mut HyTGraphSystem, cohort: &[QueryKind]) -> CohortOutcome {
        match &cohort[0] {
            QueryKind::Bfs(_) => {
                let s = sources(cohort);
                match s.len() {
                    1 => bfs_cohort::<1>(system, &s),
                    2 => bfs_cohort::<2>(system, &s),
                    4 => bfs_cohort::<4>(system, &s),
                    8 => bfs_cohort::<8>(system, &s),
                    n => panic!("unsupported traversal cohort width {n}"),
                }
            }
            QueryKind::Sssp(_) => {
                let s = sources(cohort);
                match s.len() {
                    1 => sssp_cohort::<1>(system, &s),
                    2 => sssp_cohort::<2>(system, &s),
                    4 => sssp_cohort::<4>(system, &s),
                    8 => sssp_cohort::<8>(system, &s),
                    n => panic!("unsupported traversal cohort width {n}"),
                }
            }
            QueryKind::PageRank => {
                assert_eq!(cohort.len(), 1, "PageRank never coalesces");
                let r = system.run(PageRank::new());
                let ranks = PageRank::ranks(&r).into_iter().map(f64::from).collect();
                let (iterations, total_time, exchange, payload) = totals(&r);
                CohortOutcome {
                    outputs: vec![QueryOutput::Scores(ranks)],
                    iterations,
                    total_time,
                    exchange,
                    exchange_payload_bytes: payload,
                }
            }
            QueryKind::HyperBall => {
                assert_eq!(cohort.len(), 1, "HyperBall never coalesces");
                let r = system.run(HyperBall::new(system.num_vertices()));
                let balls = r.values.iter().map(HllSketch::estimate).collect();
                let (iterations, total_time, exchange, payload) = totals(&r);
                CohortOutcome {
                    outputs: vec![QueryOutput::Scores(balls)],
                    iterations,
                    total_time,
                    exchange,
                    exchange_payload_bytes: payload,
                }
            }
            QueryKind::Mutate(batch) => {
                assert_eq!(cohort.len(), 1, "mutations never coalesce");
                let (outcome, time) = match system.apply_mutations(batch) {
                    Ok(rep) => {
                        // The mutation's priced service time is the fold
                        // it triggered (zero otherwise — appends are
                        // host-side bookkeeping off the device clock).
                        let time = if rep.compacted { rep.fold_cost } else { 0.0 };
                        let out = MutationOutcome {
                            applied: rep.applied,
                            dirty_partitions: rep.dirty_partitions,
                            reactivated: rep.reactivated.len(),
                            compacted: rep.compacted,
                            error: None,
                        };
                        (out, time)
                    }
                    Err(e) => (
                        MutationOutcome {
                            applied: 0,
                            dirty_partitions: Vec::new(),
                            reactivated: 0,
                            compacted: false,
                            error: Some(e.to_string()),
                        },
                        0.0,
                    ),
                };
                CohortOutcome {
                    outputs: vec![QueryOutput::Mutation(outcome)],
                    iterations: 0,
                    total_time: time,
                    exchange: ExchangeStats::default(),
                    exchange_payload_bytes: 0,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::DAMPING;
    use crate::{reference, Bfs};
    use hyt_core::session::{Admission, SessionConfig, SessionService};
    use hyt_core::HyTGraphConfig;
    use hyt_graph::{generators, Csr};

    fn graph() -> Csr {
        generators::rmat(9, 8.0, 21, true)
    }

    fn config() -> HyTGraphConfig {
        HyTGraphConfig { threads: 1, ..HyTGraphConfig::default() }
    }

    fn service() -> SessionService<AlgoBackend> {
        let sys = HyTGraphSystem::new(graph(), config());
        let cfg = SessionConfig { max_batch: 8, admission_budget: 1e12, max_queue: 64 };
        SessionService::new(sys, AlgoBackend, cfg)
    }

    #[test]
    fn shapes_price_the_real_programs() {
        let b = AlgoBackend;
        assert!(!b.query_shape(&QueryKind::Bfs(0)).needs_weights);
        assert!(b.query_shape(&QueryKind::Sssp(0)).needs_weights);
        assert_eq!(b.query_shape(&QueryKind::HyperBall).layout.wire_bytes, 64);
        assert_eq!(b.query_shape(&QueryKind::PageRank).layout.lanes, 1);
    }

    #[test]
    fn batched_bfs_queries_demux_to_serial_answers() {
        let mut s = service();
        let sources = [3u32, 17, 44, 120];
        for &v in &sources {
            assert!(matches!(s.submit(QueryKind::Bfs(v)), Admission::Admitted { .. }));
        }
        let done = s.drain();
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|q| q.stats.batch_width == 4));
        for (q, &v) in done.iter().zip(sources.iter()) {
            assert_eq!(q.kind, QueryKind::Bfs(v));
            let mut serial = HyTGraphSystem::new(graph(), config());
            let expect = serial.run(Bfs::from_source(v)).values;
            assert_eq!(q.output, QueryOutput::Distances(expect), "source {v}");
        }
    }

    #[test]
    fn mixed_workload_serves_every_kind() {
        let mut s = service();
        s.submit(QueryKind::Sssp(5));
        s.submit(QueryKind::PageRank);
        s.submit(QueryKind::Sssp(9));
        s.submit(QueryKind::HyperBall);
        let done = s.drain();
        assert_eq!(done.len(), 4);
        // The two SSSPs coalesced around PageRank; each lane matches
        // the sequential oracle.
        let sssp: Vec<_> = done.iter().filter(|q| matches!(q.kind, QueryKind::Sssp(_))).collect();
        assert_eq!(sssp.len(), 2);
        assert!(sssp.iter().all(|q| q.stats.batch_width == 2));
        for q in sssp {
            let QueryKind::Sssp(v) = q.kind else { unreachable!() };
            assert_eq!(q.output, QueryOutput::Distances(reference::dijkstra(&graph(), v)));
        }
        let hb = done.iter().find(|q| q.kind == QueryKind::HyperBall).unwrap();
        let QueryOutput::Scores(balls) = &hb.output else { panic!("HyperBall yields scores") };
        assert_eq!(balls.len(), graph().num_vertices() as usize);
        // Converged ball sizes are cardinality estimates ≥ 1 (every
        // vertex sees at least itself).
        assert!(balls.iter().all(|&e| e >= 1.0));
        let pr = done.iter().find(|q| q.kind == QueryKind::PageRank).unwrap();
        let QueryOutput::Scores(ranks) = &pr.output else { panic!("PageRank yields scores") };
        // Unnormalised fixpoint: every vertex retains at least its own
        // (1 − d) teleport mass (± ε leakage).
        assert_eq!(ranks.len(), graph().num_vertices() as usize);
        assert!(ranks.iter().all(|&r| r >= f64::from(1.0f32 - DAMPING) - 1e-3));
    }

    #[test]
    fn batching_amortises_exchange_payload_per_request() {
        // Same four queries, batched vs one-at-a-time: the batch's
        // per-request payload share must be strictly smaller.
        let sources = [3u32, 17, 44, 120];
        let mut batched = service();
        for &v in &sources {
            batched.submit(QueryKind::Bfs(v));
        }
        let done = batched.drain();
        let share = done[0].stats.exchange_share_bytes;

        let mut serial = service();
        let mut serial_total = 0.0;
        for &v in &sources {
            serial.submit(QueryKind::Bfs(v));
            let q = serial.run_next().unwrap();
            assert_eq!(q[0].stats.batch_width, 1);
            serial_total += q[0].stats.exchange_share_bytes;
        }
        // Single-device default config has zero exchange; the claim is
        // share ≤ serial mean (strict on multi-device systems, tested in
        // tests/session.rs).
        assert!(share <= serial_total / sources.len() as f64 + 1e-9);
    }
}
