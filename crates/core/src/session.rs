//! The resident session service: one partitioned [`HyTGraphSystem`]
//! absorbing many concurrent point queries.
//!
//! The ROADMAP north star is a server, not a batch job: build the
//! expensive state once (hub sort, partitions, device plan, route
//! tables) and let it absorb a stream of point queries — BFS/SSSP
//! sources, PageRank refreshes, HyperBall snapshots. [`SessionService`]
//! is that server, structured as three stages:
//!
//! 1. **Priced admission.** Every submitted query is quoted *before* it
//!    is accepted: [`HyTGraphSystem::price_full_sweep`] prices one
//!    all-active sweep of the resident graph with the query's value
//!    layout and weight need through cost formulas (1)–(3) — the upper
//!    envelope of any iteration the query can cause. Quotes are the
//!    admission currency: a query is *admitted* while the sum of
//!    admitted quotes fits the configured budget, *queued* behind the
//!    budget otherwise, and *rejected with its quote* when the overflow
//!    queue is full (the caller learns exactly how expensive the query
//!    it must retry somewhere else was).
//! 2. **Coalesced execution.** Compatible in-flight traversal queries
//!    ride one multi-source frontier (MS-BFS style): the backend packs
//!    up to `max_batch` same-kind traversals into one wide-value
//!    program — one lane group per source — so `D` devices amortise a
//!    single routed exchange, one cost analysis, and one kernel
//!    schedule across the whole batch. Non-coalescible queries
//!    (PageRank, HyperBall) run alone. Batching changes *pricing only*:
//!    each lane converges to exactly the serial run's values.
//! 3. **Demultiplexed reporting.** Per-request results are unpacked
//!    from the shared run, and every completed query reports its own
//!    [`QueryStats`]: wait time on the session clock, the batch cohort
//!    it rode, its share of the cohort's exchange bytes, iterations,
//!    and the quote it was admitted under.
//!
//! The service is deterministic: time is a simulated clock advanced by
//! the priced makespan of each executed cohort (plus any explicit
//! [`SessionService::advance_clock`] gaps the caller injects between
//! arrivals), so wait/service accounting is reproducible bit-for-bit.
//!
//! The algorithm-aware half lives in `hyt_algos::session::AlgoBackend`;
//! this module owns the admission, queueing, cohort selection, and
//! accounting machinery, generic over any [`SessionBackend`].

use crate::api::ValueLayout;
use crate::runner::HyTGraphSystem;
use crate::stats::ExchangeStats;
use hyt_graph::{MutationBatch, VertexId};
use std::collections::HashMap;
use std::collections::VecDeque;

/// What a point query asks of the resident system. (`Clone` but not
/// `Copy`: a mutation request owns its batch.)
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Hop depths from one source vertex (original-id space).
    Bfs(VertexId),
    /// Shortest-path distances from one source vertex.
    Sssp(VertexId),
    /// A full PageRank refresh (per-vertex ranks).
    PageRank,
    /// A HyperBall snapshot: per-vertex converged ball-size estimates.
    HyperBall,
    /// A batch of edge mutations (original-id space), serialized against
    /// in-flight cohorts: it never coalesces, and it is a FIFO barrier —
    /// no admitted query behind it may jump it into an earlier cohort.
    Mutate(MutationBatch),
}

/// Opaque per-query handle, unique within one service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// The pricing shape of a query: what the cost model needs to know to
/// quote it without running it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryShape {
    /// Per-vertex value footprint of the program that would serve the
    /// query alone.
    pub layout: ValueLayout,
    /// Whether that program reads edge weights (SSSP ships 8 bytes per
    /// edge where BFS ships 4).
    pub needs_weights: bool,
}

/// A worst-case price for one query, in the cost model's RTT units.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostQuote {
    /// `Σ_partitions min(Tef, Tec, Tiz)` for an all-active sweep at the
    /// query's shape: the upper envelope of one iteration's transfer
    /// cost (real frontiers are subsets of all-active and formulas
    /// (1)–(3) are monotone in the active set).
    pub sweep_rtt: f64,
}

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The query's own quote exceeds the whole admission budget: no
    /// amount of queueing would ever let it in.
    OverBudget,
    /// The overflow queue is at `max_queue`.
    QueueFull,
    /// A traversal's source vertex is not a vertex of the resident
    /// graph: running it could answer nothing, and it would take its
    /// whole cohort down with it.
    SourceOutOfRange,
}

/// Outcome of [`SessionService::submit`]. Every arm carries the quote —
/// including rejections, so a refused caller knows the price that sank
/// it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Admission {
    /// In the budget-bounded admitted pool; will ride one of the next
    /// cohorts.
    Admitted {
        /// Handle to match against completed results.
        id: QueryId,
        /// The price it was admitted under.
        quote: CostQuote,
    },
    /// Behind the budget in the overflow queue; promoted FIFO as
    /// admitted quotes complete.
    Queued {
        /// Handle to match against completed results.
        id: QueryId,
        /// Position in the overflow queue at submission (0 = next to
        /// promote).
        position: usize,
        /// The price it will be admitted under.
        quote: CostQuote,
    },
    /// Not accepted; nothing was enqueued.
    Rejected {
        /// Why it was refused.
        reason: RejectReason,
        /// The price that sank it.
        quote: CostQuote,
    },
}

/// Per-request output, demultiplexed from the (possibly shared) run.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutput {
    /// Traversal distances/depths per vertex, original-id order
    /// (`u32::MAX` = unreached).
    Distances(Vec<u32>),
    /// Real-valued scores per vertex (ranks, ball-size estimates).
    Scores(Vec<f64>),
    /// What a mutation request did to the resident graph.
    Mutation(MutationOutcome),
}

/// The observable outcome of one [`QueryKind::Mutate`] request (the
/// session-level projection of
/// [`crate::runner::MutationReport`]).
#[derive(Clone, Debug, PartialEq)]
pub struct MutationOutcome {
    /// Ops applied (the full batch on success).
    pub applied: usize,
    /// Partitions whose adjacency changed, ascending.
    pub dirty_partitions: Vec<u32>,
    /// Size of the reactivation frontier (touched sources plus incident
    /// boundary vertices).
    pub reactivated: usize,
    /// Whether the batch tripped the priced compaction trigger.
    pub compacted: bool,
    /// The typed error's rendering when an op failed (the applied prefix
    /// stays applied).
    pub error: Option<String>,
}

/// What one executed cohort reports back to the service.
#[derive(Clone, Debug)]
pub struct CohortOutcome {
    /// One output per cohort member, in cohort order.
    pub outputs: Vec<QueryOutput>,
    /// Iterations the shared run took.
    pub iterations: u32,
    /// Priced wall time of the shared run (advances the session clock).
    pub total_time: f64,
    /// Run-total exchange breakdown (all zeros on single-device
    /// systems).
    pub exchange: ExchangeStats,
    /// Run-total exchange payload bytes (the quantity batching
    /// amortises).
    pub exchange_payload_bytes: u64,
}

/// The algorithm-aware executor behind a [`SessionService`]: quotes
/// query shapes, decides which queries may share a frontier, and runs
/// cohorts on the resident system.
pub trait SessionBackend {
    /// Pricing shape of one query of `kind` when run alone.
    fn query_shape(&self, kind: &QueryKind) -> QueryShape;

    /// Supported cohort widths in ascending order. Must contain 1;
    /// widths above [`SessionConfig::max_batch`] are never used.
    fn widths(&self) -> &[usize];

    /// Whether two in-flight queries may ride one multi-source
    /// frontier. Must be symmetric, and must refuse
    /// [`QueryKind::Mutate`] pairs (mutations run alone by contract).
    fn coalesces(&self, a: &QueryKind, b: &QueryKind) -> bool;

    /// Execute one cohort (its length is one of
    /// [`widths`](SessionBackend::widths)) on the resident system, returning one
    /// output per member in cohort order.
    fn execute(&self, system: &mut HyTGraphSystem, cohort: &[QueryKind]) -> CohortOutcome;
}

/// Admission-control knobs of a [`SessionService`].
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Largest cohort the coalescer may form (clamped to the backend's
    /// supported widths).
    pub max_batch: usize,
    /// Sum of admitted quotes the service will hold concurrently, in
    /// RTT units. Submissions beyond it queue; a single query quoting
    /// above it is rejected outright.
    pub admission_budget: f64,
    /// Overflow-queue bound: submissions arriving past the budget are
    /// queued FIFO up to this many, then rejected.
    pub max_queue: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { max_batch: 8, admission_budget: 4096.0, max_queue: 1024 }
    }
}

/// Per-request accounting, on the deterministic session clock.
#[derive(Clone, Copy, Debug)]
pub struct QueryStats {
    /// Session-clock time the query was submitted.
    pub arrival: f64,
    /// Session-clock time its cohort started executing.
    pub start: f64,
    /// `start − arrival`: time spent admitted/queued.
    pub wait: f64,
    /// Priced wall time of the cohort that served it (shared, not
    /// divided — every rider waits for the whole run).
    pub service: f64,
    /// 1-based id of the batch cohort it rode.
    pub batch: u64,
    /// Members in that cohort (1 = ran alone).
    pub batch_width: usize,
    /// This request's share of the cohort's exchange payload bytes
    /// (`payload / width` — the amortisation batching buys).
    pub exchange_share_bytes: f64,
    /// Iterations of the shared run.
    pub iterations: u32,
    /// The quote it was admitted under.
    pub quote: CostQuote,
}

/// A finished query: output plus accounting.
#[derive(Clone, Debug)]
pub struct CompletedQuery {
    /// The handle [`SessionService::submit`] returned.
    pub id: QueryId,
    /// What was asked.
    pub kind: QueryKind,
    /// The demultiplexed result.
    pub output: QueryOutput,
    /// Wait/service/cohort accounting.
    pub stats: QueryStats,
}

/// Aggregate service counters (see [`SessionService::stats`]).
#[derive(Clone, Copy, Debug)]
pub struct SessionStats {
    /// Current session-clock time.
    pub clock: f64,
    /// Queries completed so far.
    pub completed: u64,
    /// Cohorts executed so far.
    pub batches: u64,
    /// Queries currently admitted (budgeted, awaiting a cohort).
    pub admitted_now: usize,
    /// Queries currently in the overflow queue.
    pub waiting_now: usize,
    /// Sum of admitted quotes currently outstanding, in RTT units.
    pub admitted_cost: f64,
}

/// An accepted-but-unserved query.
#[derive(Clone, Debug)]
struct Pending {
    id: QueryId,
    kind: QueryKind,
    arrival: f64,
    quote: CostQuote,
}

/// A long-running query service over one resident [`HyTGraphSystem`].
/// See the module docs for the admission → coalesce → demultiplex
/// pipeline.
pub struct SessionService<B: SessionBackend> {
    system: HyTGraphSystem,
    backend: B,
    config: SessionConfig,
    clock: f64,
    next_id: u64,
    /// Budget-bounded admitted pool, FIFO.
    admitted: VecDeque<Pending>,
    /// Overflow queue behind the budget, FIFO.
    waiting: VecDeque<Pending>,
    admitted_cost: f64,
    batches: u64,
    completed: u64,
    /// Full-sweep quotes per pricing shape: every query of one shape on
    /// one resident graph prices identically, so the sweep is computed
    /// once per shape, not per query.
    quote_cache: HashMap<(bool, u32, u64), f64>,
}

impl<B: SessionBackend> SessionService<B> {
    /// Wrap a resident system. The system keeps whatever configuration
    /// it was built with — device count, topology, placement — and
    /// the service's repeat runs rely on its resident-reuse contract.
    pub fn new(system: HyTGraphSystem, backend: B, config: SessionConfig) -> Self {
        assert!(backend.widths().contains(&1), "backend must support width-1 cohorts");
        assert!(
            backend.widths().windows(2).all(|w| w[0] < w[1]),
            "backend widths must be ascending"
        );
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        SessionService {
            system,
            backend,
            config,
            clock: 0.0,
            next_id: 0,
            admitted: VecDeque::new(),
            waiting: VecDeque::new(),
            admitted_cost: 0.0,
            batches: 0,
            completed: 0,
            quote_cache: HashMap::new(),
        }
    }

    /// The resident system.
    pub fn system(&self) -> &HyTGraphSystem {
        &self.system
    }

    /// Price a query of `kind` without submitting it: the worst-case
    /// per-iteration transfer cost of its shape on the resident graph,
    /// cached per shape. A [`QueryKind::Mutate`] is quoted through the
    /// same formulas (1)–(3) sweep (the repricing work it can force is
    /// bounded by one all-active sweep at the narrow shape) plus the
    /// current delta surplus — a graph already carrying deltas quotes
    /// mutations dearer, which is exactly the pressure that amortises
    /// into the compaction trigger.
    pub fn quote(&mut self, kind: &QueryKind) -> CostQuote {
        let shape = self.backend.query_shape(kind);
        let key = (shape.needs_weights, shape.layout.lanes, shape.layout.wire_bytes);
        let sweep = match self.quote_cache.get(&key) {
            Some(&s) => s,
            None => {
                let s = self.system.price_full_sweep(shape.needs_weights, shape.layout);
                self.quote_cache.insert(key, s);
                s
            }
        };
        let surplus =
            if matches!(kind, QueryKind::Mutate(_)) { self.system.delta_surplus() } else { 0.0 };
        CostQuote { sweep_rtt: sweep + surplus }
    }

    /// Submit a query: quoted, then admitted / queued / rejected (see
    /// [`Admission`]). A newcomer never jumps an occupied overflow
    /// queue, even if its own quote would fit the budget — admission
    /// order is arrival order.
    pub fn submit(&mut self, kind: QueryKind) -> Admission {
        let quote = self.quote(&kind);
        if let QueryKind::Bfs(src) | QueryKind::Sssp(src) = kind {
            if self.system.to_working(src).is_err() {
                return Admission::Rejected { reason: RejectReason::SourceOutOfRange, quote };
            }
        }
        if quote.sweep_rtt > self.config.admission_budget {
            return Admission::Rejected { reason: RejectReason::OverBudget, quote };
        }
        let id = QueryId(self.next_id);
        let pending = Pending { id, kind, arrival: self.clock, quote };
        if self.waiting.is_empty()
            && self.admitted_cost + quote.sweep_rtt <= self.config.admission_budget
        {
            self.next_id += 1;
            self.admitted_cost += quote.sweep_rtt;
            self.admitted.push_back(pending);
            Admission::Admitted { id, quote }
        } else if self.waiting.len() < self.config.max_queue {
            self.next_id += 1;
            let position = self.waiting.len();
            self.waiting.push_back(pending);
            Admission::Queued { id, position, quote }
        } else {
            Admission::Rejected { reason: RejectReason::QueueFull, quote }
        }
    }

    /// Advance the session clock by an arrival gap (deterministic
    /// idle time between submissions; `dt ≥ 0`).
    pub fn advance_clock(&mut self, dt: f64) {
        assert!(dt >= 0.0, "the session clock is monotone");
        self.clock += dt;
    }

    /// Execute the next cohort: the admitted queue's head plus up to
    /// `width − 1` coalescible admitted followers (FIFO, skipping
    /// incompatible entries without reordering them), at the largest
    /// backend width that fits. A [`QueryKind::Mutate`] anywhere in the
    /// admitted queue is a barrier: the follower scan stops at the first
    /// one, so no query admitted behind a mutation can overtake it into
    /// an earlier cohort, and the mutation itself always runs alone.
    /// Returns the completed queries in cohort order, or `None` when
    /// nothing is pending.
    pub fn run_next(&mut self) -> Option<Vec<CompletedQuery>> {
        self.promote();
        let head = self.admitted.pop_front()?;
        self.admitted_cost -= head.quote.sweep_rtt;
        // Indices of coalescible followers, FIFO, stopping at the first
        // mutation barrier.
        let mut compat: Vec<usize> = Vec::new();
        for (i, p) in self.admitted.iter().enumerate() {
            if matches!(p.kind, QueryKind::Mutate(_)) {
                break;
            }
            if self.backend.coalesces(&head.kind, &p.kind) {
                compat.push(i);
            }
        }
        let mut width = 1usize;
        for &w in self.backend.widths() {
            if w <= self.config.max_batch && w <= 1 + compat.len() {
                width = width.max(w);
            }
        }
        let mut cohort = vec![head];
        // Remove the chosen followers back-to-front so earlier indices
        // stay valid, then restore their FIFO order.
        let mut followers = Vec::with_capacity(width - 1);
        for &i in compat[..width - 1].iter().rev() {
            // Invariant: `compat` indexes the deque we just enumerated,
            // and back-to-front removal keeps earlier indices valid.
            // hyt-lint: allow(unwrap-in-lib) -- compat indexes the deque enumerated above; back-to-front removal keeps them in bounds
            let p = self.admitted.remove(i).expect("compat index in bounds");
            self.admitted_cost -= p.quote.sweep_rtt;
            followers.push(p);
        }
        followers.reverse();
        cohort.extend(followers);

        let kinds: Vec<QueryKind> = cohort.iter().map(|p| p.kind.clone()).collect();
        let start = self.clock;
        let outcome = self.backend.execute(&mut self.system, &kinds);
        assert_eq!(
            outcome.outputs.len(),
            kinds.len(),
            "backend must demultiplex one output per cohort member"
        );
        if kinds.iter().any(|k| matches!(k, QueryKind::Mutate(_))) {
            // The graph just changed shape: every cached sweep is
            // suspect. The system's own per-partition cache survives for
            // clean partitions — re-quoting a shape re-prices only the
            // dirty ones.
            self.quote_cache.clear();
        }
        self.batches += 1;
        self.clock += outcome.total_time;
        let share = outcome.exchange_payload_bytes as f64 / kinds.len() as f64;
        let done: Vec<CompletedQuery> = cohort
            .into_iter()
            .zip(outcome.outputs)
            .map(|(p, output)| CompletedQuery {
                id: p.id,
                kind: p.kind.clone(),
                output,
                stats: QueryStats {
                    arrival: p.arrival,
                    start,
                    wait: start - p.arrival,
                    service: outcome.total_time,
                    batch: self.batches,
                    batch_width: kinds.len(),
                    exchange_share_bytes: share,
                    iterations: outcome.iterations,
                    quote: p.quote,
                },
            })
            .collect();
        self.completed += done.len() as u64;
        self.promote();
        Some(done)
    }

    /// Run cohorts until nothing is pending; returns every completed
    /// query in completion order.
    pub fn drain(&mut self) -> Vec<CompletedQuery> {
        let mut out = Vec::new();
        while let Some(batch) = self.run_next() {
            out.extend(batch);
        }
        out
    }

    /// Aggregate counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            clock: self.clock,
            completed: self.completed,
            batches: self.batches,
            admitted_now: self.admitted.len(),
            waiting_now: self.waiting.len(),
            admitted_cost: self.admitted_cost,
        }
    }

    /// Promote overflow entries into the admitted pool while the budget
    /// allows, FIFO.
    fn promote(&mut self) {
        while self
            .waiting
            .front()
            .is_some_and(|p| self.admitted_cost + p.quote.sweep_rtt <= self.config.admission_budget)
        {
            if let Some(p) = self.waiting.pop_front() {
                self.admitted_cost += p.quote.sweep_rtt;
                self.admitted.push_back(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HyTGraphConfig;
    use hyt_graph::generators;

    /// A backend that serves canned outputs and records cohort shapes —
    /// the admission/coalescing machinery under test, not the
    /// algorithms.
    struct MockBackend;

    impl SessionBackend for MockBackend {
        fn query_shape(&self, kind: &QueryKind) -> QueryShape {
            match kind {
                QueryKind::Bfs(_) | QueryKind::Mutate(_) => {
                    QueryShape { layout: ValueLayout::of::<u32>(), needs_weights: false }
                }
                QueryKind::Sssp(_) => {
                    QueryShape { layout: ValueLayout::of::<u32>(), needs_weights: true }
                }
                _ => QueryShape {
                    layout: ValueLayout::of::<crate::api::F32Pair>(),
                    needs_weights: false,
                },
            }
        }
        fn widths(&self) -> &[usize] {
            &[1, 2, 4]
        }
        fn coalesces(&self, a: &QueryKind, b: &QueryKind) -> bool {
            matches!((a, b), (QueryKind::Bfs(_), QueryKind::Bfs(_)))
        }
        fn execute(&self, system: &mut HyTGraphSystem, cohort: &[QueryKind]) -> CohortOutcome {
            CohortOutcome {
                outputs: cohort
                    .iter()
                    .map(|k| match k {
                        QueryKind::Bfs(s) | QueryKind::Sssp(s) => QueryOutput::Distances(vec![*s]),
                        QueryKind::Mutate(batch) => {
                            let r = system.apply_mutations(batch);
                            QueryOutput::Mutation(match r {
                                Ok(rep) => MutationOutcome {
                                    applied: rep.applied,
                                    dirty_partitions: rep.dirty_partitions,
                                    reactivated: rep.reactivated.len(),
                                    compacted: rep.compacted,
                                    error: None,
                                },
                                Err(e) => MutationOutcome {
                                    applied: 0,
                                    dirty_partitions: Vec::new(),
                                    reactivated: 0,
                                    compacted: false,
                                    error: Some(e.to_string()),
                                },
                            })
                        }
                        _ => QueryOutput::Scores(vec![1.0]),
                    })
                    .collect(),
                iterations: 3,
                total_time: 2.0,
                exchange: ExchangeStats::default(),
                exchange_payload_bytes: 120 * cohort.len() as u64,
            }
        }
    }

    fn service(budget: f64, max_queue: usize) -> SessionService<MockBackend> {
        let g = generators::rmat(8, 4.0, 1, true);
        let sys = HyTGraphSystem::new(g, HyTGraphConfig::default());
        let cfg = SessionConfig { max_batch: 4, admission_budget: budget, max_queue };
        SessionService::new(sys, MockBackend, cfg)
    }

    #[test]
    fn quotes_are_positive_shape_cached_and_weight_sensitive() {
        let mut s = service(1e12, 4);
        let bfs = s.quote(&QueryKind::Bfs(0));
        assert!(bfs.sweep_rtt > 0.0);
        // Same shape, different source: the cached sweep, bitwise.
        assert_eq!(s.quote(&QueryKind::Bfs(7)), bfs);
        // SSSP ships weights: strictly dearer on a weighted graph.
        assert!(s.quote(&QueryKind::Sssp(0)).sweep_rtt > bfs.sweep_rtt);
        assert_eq!(s.quote_cache.len(), 2);
    }

    #[test]
    fn coalescer_packs_same_kind_traversals_fifo() {
        let mut s = service(1e12, 16);
        for v in 0..5u32 {
            assert!(matches!(s.submit(QueryKind::Bfs(v)), Admission::Admitted { .. }));
        }
        // First cohort: width 4 (the largest supported ≤ max_batch).
        let c1 = s.run_next().unwrap();
        assert_eq!(c1.len(), 4);
        assert_eq!(
            c1.iter().map(|q| q.kind.clone()).collect::<Vec<_>>(),
            (0..4).map(QueryKind::Bfs).collect::<Vec<_>>(),
            "cohort preserves FIFO order"
        );
        assert!(c1.iter().all(|q| q.stats.batch_width == 4 && q.stats.batch == 1));
        // Leftover runs alone.
        let c2 = s.run_next().unwrap();
        assert_eq!(c2.len(), 1);
        assert_eq!(c2[0].kind, QueryKind::Bfs(4));
        assert!(s.run_next().is_none());
        assert_eq!(s.stats().completed, 5);
        assert_eq!(s.stats().batches, 2);
    }

    #[test]
    fn incompatible_heads_run_alone_without_reordering_followers() {
        let mut s = service(1e12, 16);
        s.submit(QueryKind::PageRank);
        s.submit(QueryKind::Bfs(1));
        s.submit(QueryKind::Bfs(2));
        let c1 = s.run_next().unwrap();
        assert_eq!(c1.len(), 1);
        assert_eq!(c1[0].kind, QueryKind::PageRank);
        let c2 = s.run_next().unwrap();
        assert_eq!(c2.len(), 2);
        assert_eq!(c2[0].kind, QueryKind::Bfs(1));
    }

    #[test]
    fn skipped_incompatible_entries_keep_their_queue_position() {
        let mut s = service(1e12, 16);
        s.submit(QueryKind::Bfs(0));
        s.submit(QueryKind::PageRank);
        s.submit(QueryKind::Bfs(2));
        // Head Bfs(0) coalesces around the PageRank in the middle.
        let c1 = s.run_next().unwrap();
        assert_eq!(
            c1.iter().map(|q| q.kind.clone()).collect::<Vec<_>>(),
            vec![QueryKind::Bfs(0), QueryKind::Bfs(2)]
        );
        // The skipped PageRank is still next, not displaced.
        let c2 = s.run_next().unwrap();
        assert_eq!(c2[0].kind, QueryKind::PageRank);
    }

    #[test]
    fn budget_queues_then_rejects_with_quote() {
        let mut s = service(1e12, 2);
        let q = s.quote(&QueryKind::Bfs(0)).sweep_rtt;
        // Budget fits exactly two quotes.
        s.config.admission_budget = 2.0 * q + 1e-9;
        assert!(matches!(s.submit(QueryKind::Bfs(0)), Admission::Admitted { .. }));
        assert!(matches!(s.submit(QueryKind::Bfs(1)), Admission::Admitted { .. }));
        match s.submit(QueryKind::Bfs(2)) {
            Admission::Queued { position, .. } => assert_eq!(position, 0),
            a => panic!("expected Queued, got {a:?}"),
        }
        // A newcomer that would fit must not jump the occupied queue.
        match s.submit(QueryKind::Bfs(3)) {
            Admission::Queued { position, .. } => assert_eq!(position, 1),
            a => panic!("expected Queued, got {a:?}"),
        }
        match s.submit(QueryKind::Bfs(4)) {
            Admission::Rejected { reason, quote } => {
                assert_eq!(reason, RejectReason::QueueFull);
                assert_eq!(quote.sweep_rtt, q);
            }
            a => panic!("expected Rejected, got {a:?}"),
        }
        // Serving the admitted pool promotes the queue FIFO.
        let served = s.drain();
        assert_eq!(served.len(), 4);
        assert_eq!(s.stats().waiting_now, 0);
        assert_eq!(s.stats().admitted_cost, 0.0);
    }

    #[test]
    fn oversized_query_is_rejected_outright() {
        let mut s = service(1e-12, 4);
        match s.submit(QueryKind::Bfs(0)) {
            Admission::Rejected { reason, quote } => {
                assert_eq!(reason, RejectReason::OverBudget);
                assert!(quote.sweep_rtt > 1e-12);
            }
            a => panic!("expected Rejected, got {a:?}"),
        }
        assert!(s.run_next().is_none());
    }

    #[test]
    fn mutation_is_a_fifo_barrier_that_runs_alone() {
        let mut s = service(1e12, 16);
        s.submit(QueryKind::Bfs(0));
        s.submit(QueryKind::Bfs(1));
        let mut batch = MutationBatch::new();
        batch.insert_weighted(0, 5, 2);
        s.submit(QueryKind::Mutate(batch));
        s.submit(QueryKind::Bfs(2));
        s.submit(QueryKind::Bfs(3));
        // Bfs(2)/Bfs(3) sit behind the barrier: the first cohort may not
        // pull them forward even though width 4 is available.
        let c1 = s.run_next().unwrap();
        assert_eq!(
            c1.iter().map(|q| q.kind.clone()).collect::<Vec<_>>(),
            vec![QueryKind::Bfs(0), QueryKind::Bfs(1)]
        );
        // The mutation runs alone.
        let c2 = s.run_next().unwrap();
        assert_eq!(c2.len(), 1);
        assert!(matches!(c2[0].kind, QueryKind::Mutate(_)));
        assert_eq!(c2[0].stats.batch_width, 1);
        match &c2[0].output {
            QueryOutput::Mutation(m) => {
                assert_eq!(m.applied, 1);
                assert!(m.error.is_none());
            }
            o => panic!("expected a mutation outcome, got {o:?}"),
        }
        // The queries behind the barrier coalesce normally afterwards.
        let c3 = s.run_next().unwrap();
        assert_eq!(
            c3.iter().map(|q| q.kind.clone()).collect::<Vec<_>>(),
            vec![QueryKind::Bfs(2), QueryKind::Bfs(3)]
        );
    }

    #[test]
    fn mutation_quote_carries_the_delta_surplus() {
        let mut s = service(1e12, 16);
        let clean = s.quote(&QueryKind::Mutate(MutationBatch::new()));
        // Clean graph: no deltas, the mutation quote is exactly the
        // narrow weight-blind sweep (same shape the backend assigns BFS).
        assert_eq!(clean, s.quote(&QueryKind::Bfs(0)));
        let mut batch = MutationBatch::new();
        batch.insert_weighted(0, 3, 1).insert_weighted(7, 1, 4);
        s.submit(QueryKind::Mutate(batch));
        let done = s.drain();
        assert_eq!(done.len(), 1);
        // The mutate cohort dropped every cached per-shape quote.
        assert!(s.quote_cache.is_empty());
        // Re-quoting: a mutation now prices the sweep plus the live
        // surplus of the deltas the last batch left behind (zero again
        // only if it compacted).
        let mutate = s.quote(&QueryKind::Mutate(MutationBatch::new()));
        let bfs = s.quote(&QueryKind::Bfs(0));
        let surplus = s.system.delta_surplus();
        assert!(surplus > 0.0, "the insert batch must leave deltas behind");
        let gap = mutate.sweep_rtt - bfs.sweep_rtt;
        assert!(
            (gap - surplus).abs() <= 1e-9 * surplus.max(1.0),
            "quote gap {gap} must be the delta surplus {surplus}"
        );
    }

    #[test]
    fn failed_mutation_reports_error_through_the_outcome() {
        let mut s = service(1e12, 16);
        let mut batch = MutationBatch::new();
        batch.insert_weighted(0, 1, 2).delete(250, 251); // missing edge
        s.submit(QueryKind::Mutate(batch));
        let done = s.drain();
        match &done[0].output {
            QueryOutput::Mutation(m) => {
                let err = m.error.as_deref().expect("the delete must fail");
                assert!(err.contains("250"), "{err}");
            }
            o => panic!("expected a mutation outcome, got {o:?}"),
        }
    }

    #[test]
    fn clock_and_wait_accounting_is_deterministic() {
        let mut s = service(1e12, 4);
        s.submit(QueryKind::Bfs(0));
        s.advance_clock(5.0);
        s.submit(QueryKind::PageRank);
        let c1 = s.run_next().unwrap(); // Bfs at clock 5.0
        assert_eq!(c1[0].stats.arrival, 0.0);
        assert_eq!(c1[0].stats.start, 5.0);
        assert_eq!(c1[0].stats.wait, 5.0);
        assert_eq!(c1[0].stats.service, 2.0);
        let c2 = s.run_next().unwrap(); // PageRank at clock 7.0
        assert_eq!(c2[0].stats.arrival, 5.0);
        assert_eq!(c2[0].stats.wait, 2.0);
        assert_eq!(s.stats().clock, 9.0);
        // Per-request exchange share splits the cohort payload evenly.
        assert_eq!(c1[0].stats.exchange_share_bytes, 120.0);
    }
}
