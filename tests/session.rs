//! The multi-tenant session layer, end to end: MS-BFS-style coalescing
//! bit-identity, exchange-byte amortisation, and the priced admission
//! pipeline over a resident multi-device system.
//!
//! The coalescing contract is the strongest claim: for **every** device
//! count and topology, lane `k` of a batched [`MultiBfs`]/[`MultiSssp`]
//! run equals the serial run from source `k` bit-for-bit. This composes
//! with the sharding contract (`tests/multi_gpu.rs`: serial runs are
//! value-identical across `D` and topology), so lanes are checked
//! against the `D = 1` serial baseline and, on a fixed graph, against
//! same-`D`/same-topology serial runs directly.
//!
//! What batching is *for* is the exchange: one routed all-gather per
//! iteration carrying `4·B`-byte records instead of `B` separate
//! all-gathers of 8-byte records. On a skewed multi-device graph that
//! must strictly cut total exchanged payload bytes — asserted here and
//! promoted to a `repro check` claim.

use hytgraph::algos::{lane_values, reference};
use hytgraph::core::{HyTGraphConfig, HyTGraphSystem, SystemKind, TopologyKind};
use hytgraph::graph::{generators, Csr, EdgeList};
use hytgraph::prelude::*;
use proptest::prelude::*;

fn cfg(d: usize, topo: TopologyKind) -> HyTGraphConfig {
    let mut c = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
    c.num_devices = d;
    c.topology = topo;
    c.threads = 1;
    c
}

/// Batched BFS lanes plus the run's logical exchange payload.
fn batched_bfs<const B: usize>(g: &Csr, c: HyTGraphConfig, srcs: [u32; B]) -> (Vec<Vec<u32>>, u64) {
    let mut sys = HyTGraphSystem::new(g.clone(), c);
    let r = sys.run(MultiBfs::from_sources(srcs));
    ((0..B).map(|k| lane_values(&r.values, k)).collect(), r.counters.exchange_bytes)
}

fn serial_bfs(g: &Csr, c: HyTGraphConfig, s: u32) -> (Vec<u32>, u64) {
    let mut sys = HyTGraphSystem::new(g.clone(), c);
    let r = sys.run(Bfs::from_source(s));
    (r.values, r.counters.exchange_bytes)
}

/// Strategy: an arbitrary directed graph (self-loops and duplicate edges
/// allowed) with up to `max_v` vertices and `max_e` edges.
fn arb_graph(max_v: u32, max_e: usize) -> impl Strategy<Value = Csr> {
    (2..=max_v).prop_flat_map(move |nv| {
        proptest::collection::vec((0..nv, 0..nv, 1..64u32), 0..max_e).prop_map(move |edges| {
            let mut el = EdgeList::new(nv);
            for (s, d, w) in edges {
                el.push_weighted(s, d, w);
            }
            el.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// ISSUE satellite: the coalesced multi-source run is bit-identical
    /// to per-source serial runs for every `D ∈ {1, 2, 4, 8}` and every
    /// topology.
    #[test]
    fn coalesced_lanes_bit_identical_across_devices_and_topologies(
        g in arb_graph(96, 700),
        picks in proptest::collection::vec(any::<u32>(), 4..5),
    ) {
        let nv = g.num_vertices();
        let srcs = [picks[0] % nv, picks[1] % nv, picks[2] % nv, picks[3] % nv];
        let serial: Vec<Vec<u32>> = srcs
            .iter()
            .map(|&s| serial_bfs(&g, cfg(1, TopologyKind::HostOnly), s).0)
            .collect();
        for d in [1usize, 2, 4, 8] {
            for topo in [TopologyKind::HostOnly, TopologyKind::Ring, TopologyKind::AllToAll] {
                let (lanes, _) = batched_bfs::<4>(&g, cfg(d, topo), srcs);
                for (k, lane) in lanes.iter().enumerate() {
                    prop_assert!(
                        lane == &serial[k],
                        "lane {} diverged at D={} {:?}",
                        k,
                        d,
                        topo
                    );
                }
            }
        }
    }
}

/// The same sweep at every supported width, for both traversal kinds,
/// with the serial baseline run at the *same* device count and topology.
#[test]
fn every_width_matches_same_config_serial_runs() {
    let g = generators::rmat(10, 8.0, 77, true);
    let srcs8 = [0u32, 3, 11, 42, 97, 150, 513, 800];
    for d in [1usize, 2, 4, 8] {
        for topo in [TopologyKind::HostOnly, TopologyKind::Ring, TopologyKind::AllToAll] {
            let serial: Vec<Vec<u32>> =
                srcs8.iter().map(|&s| serial_bfs(&g, cfg(d, topo), s).0).collect();
            let (w2, _) = batched_bfs::<2>(&g, cfg(d, topo), [srcs8[0], srcs8[1]]);
            let (w4, _) =
                batched_bfs::<4>(&g, cfg(d, topo), [srcs8[0], srcs8[1], srcs8[2], srcs8[3]]);
            let (w8, _) = batched_bfs::<8>(&g, cfg(d, topo), srcs8);
            for k in 0..2 {
                assert_eq!(w2[k], serial[k], "width 2 lane {k} at D={d} {topo:?}");
            }
            for k in 0..4 {
                assert_eq!(w4[k], serial[k], "width 4 lane {k} at D={d} {topo:?}");
            }
            for k in 0..8 {
                assert_eq!(w8[k], serial[k], "width 8 lane {k} at D={d} {topo:?}");
            }
        }
    }
    // Weighted counterpart against the sequential oracle.
    let mut sys = HyTGraphSystem::new(g.clone(), cfg(4, TopologyKind::Ring));
    let r = sys.run(MultiSssp::from_sources([srcs8[0], srcs8[4], srcs8[6], srcs8[7]]));
    for (k, &s) in [srcs8[0], srcs8[4], srcs8[6], srcs8[7]].iter().enumerate() {
        assert_eq!(lane_values(&r.values, k), reference::dijkstra(&g, s), "SSSP lane {k}");
    }
}

/// The top-degree vertices of `g` — the natural anchors of a concurrent
/// analytics workload (queries land on popular entities), and the
/// sources whose frontiers overlap the most.
fn hub_sources<const B: usize>(g: &Csr) -> [u32; B] {
    let mut by_degree: Vec<(u64, u32)> =
        (0..g.num_vertices()).map(|v| (g.out_degree(v), v)).collect();
    by_degree.sort_unstable_by(|a, b| b.cmp(a));
    let mut out = [0u32; B];
    for (slot, &(_, v)) in out.iter_mut().zip(by_degree.iter()) {
        *slot = v;
    }
    out
}

/// ISSUE satellite: on a skewed graph sharded over 8 devices, batching 8
/// traversals strictly reduces total exchanged payload bytes versus the
/// 8 serial runs it replaces.
///
/// The saving needs temporal overlap: a batched record costs
/// `4 + 4·B` bytes wherever a serial run's costs `4 + 4`, so it wins
/// only when several lanes update a vertex in the *same* iteration.
/// Hub-anchored traversals on a skewed graph overlap almost fully
/// (every hub reaches most of the graph in the same two or three hops);
/// traversals from arbitrary low-degree vertices need not, which is why
/// the service coalesces opportunistically instead of promising a
/// universal byte reduction.
#[test]
fn batching_strictly_cuts_exchange_bytes_on_a_skewed_graph() {
    let g = generators::power_law_preferential(1 << 12, 12.0, 2.2, 7, false);
    let srcs: [u32; 8] = hub_sources(&g);
    let c = cfg(8, TopologyKind::Ring);
    let (lanes, batched_bytes) = batched_bfs::<8>(&g, c.clone(), srcs);
    let mut serial_bytes = 0u64;
    for (k, &s) in srcs.iter().enumerate() {
        let (values, bytes) = serial_bfs(&g, c.clone(), s);
        assert_eq!(lanes[k], values, "lane {k}");
        serial_bytes += bytes;
    }
    assert!(batched_bytes > 0, "an 8-device run must exchange something");
    assert!(
        batched_bytes < serial_bytes,
        "batching should amortise the exchange: batched {batched_bytes} \
         vs serial total {serial_bytes}"
    );
}

/// The full service pipeline on a resident multi-device system: priced
/// admission, coalesced execution, per-request demux and accounting.
#[test]
fn session_service_serves_a_mixed_stream_on_a_multi_device_system() {
    let g = generators::rmat(9, 8.0, 21, true);
    let sys = HyTGraphSystem::new(g.clone(), cfg(4, TopologyKind::Ring));
    let scfg = SessionConfig { max_batch: 4, admission_budget: 1e12, max_queue: 16 };
    let mut svc = SessionService::new(sys, AlgoBackend, scfg);

    let sources = [3u32, 17, 44, 120];
    for &v in &sources {
        assert!(matches!(svc.submit(QueryKind::Bfs(v)), Admission::Admitted { .. }));
    }
    svc.advance_clock(1.0);
    svc.submit(QueryKind::PageRank);
    let done = svc.drain();
    assert_eq!(done.len(), 5);

    // The four BFS queries rode one width-4 cohort; each answer matches
    // a fresh serial system bit-for-bit.
    for (q, &v) in done[..4].iter().zip(sources.iter()) {
        assert_eq!(q.kind, QueryKind::Bfs(v));
        assert_eq!(q.stats.batch_width, 4);
        assert_eq!(q.stats.batch, 1);
        assert_eq!(q.stats.wait, 1.0, "head cohort starts after the arrival gap");
        let serial = serial_bfs(&g, cfg(4, TopologyKind::Ring), v).0;
        assert_eq!(q.output, QueryOutput::Distances(serial), "source {v}");
    }
    // The cohort's exchange share is a strict per-request saving over
    // running alone.
    let solo = {
        let sys = HyTGraphSystem::new(g.clone(), cfg(4, TopologyKind::Ring));
        let mut solo_svc = SessionService::new(sys, AlgoBackend, scfg);
        solo_svc.submit(QueryKind::Bfs(sources[0]));
        solo_svc.drain()[0].stats.exchange_share_bytes
    };
    assert!(done[0].stats.exchange_share_bytes < solo);

    // PageRank ran alone afterwards, on the session clock.
    let pr = &done[4];
    assert_eq!(pr.kind, QueryKind::PageRank);
    assert_eq!(pr.stats.batch_width, 1);
    assert_eq!(pr.stats.batch, 2);
    assert!(pr.stats.start >= done[0].stats.start + done[0].stats.service);

    let stats = svc.stats();
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.batches, 2);
    assert_eq!((stats.admitted_now, stats.waiting_now), (0, 0));
}

/// Admission control with real quotes: a tight budget queues, a full
/// queue rejects with the quote attached, and draining promotes FIFO.
#[test]
fn real_quotes_drive_admission_queueing_and_rejection() {
    let g = generators::rmat(9, 8.0, 21, true);
    let sys = HyTGraphSystem::new(g.clone(), cfg(2, TopologyKind::Ring));
    let mut svc = SessionService::new(
        sys,
        AlgoBackend,
        SessionConfig { max_batch: 2, admission_budget: f64::INFINITY, max_queue: 1 },
    );
    let bfs_quote = svc.quote(&QueryKind::Bfs(0));
    assert!(bfs_quote.sweep_rtt > 0.0);
    // SSSP ships weights (8 edge bytes vs 4): strictly dearer. HyperBall's
    // wide values only surface where compaction would win, so its quote is
    // never *cheaper* than BFS at the same edge bytes.
    assert!(svc.quote(&QueryKind::Sssp(0)).sweep_rtt > bfs_quote.sweep_rtt);
    assert!(svc.quote(&QueryKind::HyperBall).sweep_rtt >= bfs_quote.sweep_rtt);

    // Budget admits exactly two BFS quotes.
    let sys = HyTGraphSystem::new(g, cfg(2, TopologyKind::Ring));
    let mut svc = SessionService::new(
        sys,
        AlgoBackend,
        SessionConfig {
            max_batch: 2,
            admission_budget: 2.0 * bfs_quote.sweep_rtt + 1e-9,
            max_queue: 1,
        },
    );
    assert!(matches!(svc.submit(QueryKind::Bfs(1)), Admission::Admitted { .. }));
    assert!(matches!(svc.submit(QueryKind::Bfs(2)), Admission::Admitted { .. }));
    // Over budget → queued; queue full → rejected, quoting the price.
    assert!(matches!(svc.submit(QueryKind::Bfs(3)), Admission::Queued { position: 0, .. }));
    match svc.submit(QueryKind::Bfs(4)) {
        Admission::Rejected { reason, quote } => {
            assert_eq!(reason, hytgraph::core::session::RejectReason::QueueFull);
            assert_eq!(quote.sweep_rtt, bfs_quote.sweep_rtt);
        }
        a => panic!("expected a queue-full rejection, got {a:?}"),
    }
    // Draining serves all three accepted queries and empties the queue.
    let done = svc.drain();
    assert_eq!(done.len(), 3);
    assert_eq!(done[0].stats.batch_width, 2);
    assert_eq!(done[2].stats.batch_width, 1);
    assert_eq!(svc.stats().waiting_now, 0);
    assert_eq!(svc.stats().admitted_cost, 0.0);

    // A single query dearer than the whole budget is refused outright,
    // not parked in the queue it could never leave.
    let g = generators::rmat(9, 8.0, 21, true);
    let sys = HyTGraphSystem::new(g, cfg(2, TopologyKind::Ring));
    let mut tight = SessionService::new(
        sys,
        AlgoBackend,
        SessionConfig { max_batch: 2, admission_budget: 0.5 * bfs_quote.sweep_rtt, max_queue: 4 },
    );
    match tight.submit(QueryKind::Bfs(0)) {
        Admission::Rejected { reason, quote } => {
            assert_eq!(reason, hytgraph::core::session::RejectReason::OverBudget);
            assert_eq!(quote.sweep_rtt, bfs_quote.sweep_rtt);
        }
        a => panic!("expected an over-budget rejection, got {a:?}"),
    }
    assert!(tight.run_next().is_none());
}

/// A traversal whose source is not a vertex of the resident graph is
/// refused at `submit` (it used to be admitted and then panic inside
/// its cohort, taking the valid queries beside it down): exactly the
/// out-of-range queries are rejected, nothing is enqueued for them, and
/// the rest of the stream answers as if they had never been sent.
#[test]
fn out_of_range_sources_are_rejected_without_disturbing_the_stream() {
    use hytgraph::core::session::RejectReason;
    let g = generators::rmat(9, 8.0, 21, true);
    let far = 1_000_000u32;
    let valid = [QueryKind::Bfs(3), QueryKind::Bfs(17), QueryKind::Sssp(5), QueryKind::Sssp(40)];
    let answers = |stream: &[QueryKind]| {
        let sys = HyTGraphSystem::new(g.clone(), cfg(4, TopologyKind::Ring));
        let mut svc = SessionService::new(sys, AlgoBackend, SessionConfig::default());
        let mut rejected = Vec::new();
        for kind in stream {
            if let Admission::Rejected { reason, quote } = svc.submit(kind.clone()) {
                assert_eq!(reason, RejectReason::SourceOutOfRange);
                assert_eq!(quote, svc.quote(kind), "a rejection still carries the quote");
                rejected.push(kind.clone());
            }
        }
        let done: Vec<_> = svc.drain().into_iter().map(|c| (c.kind, c.output)).collect();
        (rejected, done)
    };
    let mut hostile = valid.to_vec();
    hostile.insert(1, QueryKind::Bfs(far));
    hostile.insert(4, QueryKind::Sssp(far));
    let (rejected, done) = answers(&hostile);
    assert_eq!(rejected, [QueryKind::Bfs(far), QueryKind::Sssp(far)]);
    let (none_rejected, clean) = answers(&valid);
    assert!(none_rejected.is_empty());
    assert_eq!(done, clean);
    assert_eq!(done.len(), valid.len());
}

/// ISSUE satellite: fairness of mutation requests in mixed streams.
/// A [`QueryKind::Mutate`] is a FIFO barrier — it must never overtake a
/// query admitted before it, and (the starvation side) no query admitted
/// after it may be pulled into an earlier cohort past it: the number of
/// cohorts that run before the mutation is bounded by the number of
/// earlier admissions. It also always runs alone.
mod mutation_fairness {
    use super::*;
    use hytgraph::graph::MutationBatch;
    use std::collections::BTreeSet;

    /// Scripted stream entry: selector plus raw operands, folded into
    /// valid queries/batches against a shadow edge set at build time.
    type Cmd = (u8, u32, u32, u32);

    fn check_stream(script: Vec<Cmd>) {
        let g = generators::rmat(8, 6.0, 21, true);
        let nv = g.num_vertices();
        let mut present: BTreeSet<(u32, u32)> = BTreeSet::new();
        for v in 0..nv {
            for &d in g.neighbors(v) {
                present.insert((v, d));
            }
        }
        let mut pool: Vec<(u32, u32)> = present.iter().copied().collect();
        let sys = HyTGraphSystem::new(g, cfg(2, TopologyKind::Ring));
        let scfg = SessionConfig { max_batch: 4, admission_budget: 1e12, max_queue: 1024 };
        let mut svc = SessionService::new(sys, AlgoBackend, scfg);

        let mut expected_ops: Vec<usize> = Vec::new();
        for (sel, a, b, w) in script {
            let kind = match sel % 3 {
                0 => QueryKind::Bfs(a % nv),
                1 => QueryKind::Sssp(a % nv),
                _ => {
                    let mut batch = MutationBatch::new();
                    if b % 2 == 0 && !pool.is_empty() {
                        // Delete an edge the shadow still holds: at least
                        // one live occurrence is guaranteed.
                        let (s, d) = pool.swap_remove(a as usize % pool.len());
                        present.remove(&(s, d));
                        batch.delete(s, d);
                    } else {
                        let (s, d) = (a % nv, b % nv);
                        if present.insert((s, d)) {
                            pool.push((s, d));
                        }
                        batch.insert_weighted(s, d, w);
                    }
                    expected_ops.push(batch.len());
                    QueryKind::Mutate(batch)
                }
            };
            assert!(matches!(svc.submit(kind), Admission::Admitted { .. }));
        }
        let done = svc.drain();

        let mut mutations: Vec<(u64, u64)> = Vec::new(); // (id, batch)
        for q in &done {
            if let QueryKind::Mutate(_) = q.kind {
                assert_eq!(q.stats.batch_width, 1, "a mutation must run alone");
                mutations.push((q.id.0, q.stats.batch));
                match &q.output {
                    QueryOutput::Mutation(m) => {
                        assert!(m.error.is_none(), "scripted ops are valid: {:?}", m.error);
                    }
                    o => panic!("expected a mutation outcome, got {o:?}"),
                }
            }
        }
        let applied: Vec<usize> = done
            .iter()
            .filter_map(|q| match (&q.kind, &q.output) {
                (QueryKind::Mutate(_), QueryOutput::Mutation(m)) => Some(m.applied),
                _ => None,
            })
            .collect();
        assert_eq!(applied, expected_ops, "every scripted op must apply");

        for &(mid, mbatch) in &mutations {
            let earlier = done.iter().filter(|q| q.id.0 < mid).count() as u64;
            for q in &done {
                if q.id.0 < mid {
                    assert!(
                        q.stats.batch < mbatch,
                        "mutation {mid} (batch {mbatch}) overtook query {} (batch {})",
                        q.id.0,
                        q.stats.batch
                    );
                } else if q.id.0 > mid {
                    assert!(
                        q.stats.batch > mbatch,
                        "query {} (batch {}) jumped the mutation barrier {mid} (batch {mbatch})",
                        q.id.0,
                        q.stats.batch
                    );
                }
            }
            // Starvation bound: every cohort ahead of the mutation holds
            // at least one earlier-admitted query.
            assert!(mbatch <= earlier + 1, "mutation {mid} starved: batch {mbatch} of {earlier}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn mutations_never_overtake_and_never_starve(
            script in proptest::collection::vec((0u8..6, any::<u32>(), any::<u32>(), 1u32..32), 4..20),
        ) {
            check_stream(script);
        }
    }

    #[test]
    fn coalesced_cohort_does_not_reach_past_a_mutation() {
        // Deterministic spot check of the exact barrier shape: four
        // coalescible BFS queries straddle a mutation; the first cohort
        // may only take the two in front of it.
        check_stream(vec![(0, 1, 0, 1), (0, 2, 0, 1), (2, 3, 1, 5), (0, 4, 0, 1), (0, 5, 0, 1)]);
    }
}
