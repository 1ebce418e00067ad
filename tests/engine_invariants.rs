//! Property tests on the engine/cost layer: every plan's counters and
//! times must be mutually consistent and must agree with the closed-form
//! TLP formulas, on random graphs and random frontiers.

use hytgraph::core::{cost, partition_costs_sized};
use hytgraph::engines::{analyze_partitions, compaction, filter, zero_copy, UnifiedState};
use hytgraph::graph::{generators, Csr, EdgeList, Frontier, PartitionSet};
use hytgraph::sim::{MachineModel, UmCache, UmModel};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Csr> {
    (16u32..200, 0usize..2000, any::<u64>()).prop_map(|(nv, ne, seed)| {
        // Seeded RMAT-ish edges through the deterministic generator plus
        // extra random edges for irregularity.
        let mut el = EdgeList::new(nv);
        let base = generators::erdos_renyi(nv, ne as u64, seed, true);
        for v in 0..nv {
            for (d, w) in base.edges_of(v) {
                el.push_weighted(v, d, w);
            }
        }
        el.to_csr()
    })
}

fn arb_frontier(nv: u32, density: u8) -> Frontier {
    let f = Frontier::new(nv);
    let step = (density as u32 % 7) + 1;
    for v in (0..nv).step_by(step as usize) {
        f.insert(v);
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn activity_totals_match_frontier(g in arb_graph(), density in 0u8..7) {
        let machine = MachineModel::paper_platform();
        let parts = PartitionSet::build(&g, 1024);
        let f = arb_frontier(g.num_vertices(), density);
        let acts = analyze_partitions(g.view(), &parts, &f, &machine.pcie, g.bytes_per_edge(), 4);
        let total_active: u64 = acts.iter().map(|a| a.active_vertices.len() as u64).sum();
        prop_assert_eq!(total_active, f.count());
        let total_edges: u64 = acts.iter().map(|a| a.total_edges).sum();
        prop_assert_eq!(total_edges, g.num_edges());
        // Requests are bounded below by the saturated payload and above by
        // two extra requests per active vertex (per-vertex ceiling plus a
        // possible straddle line).
        for a in &acts {
            let payload = a.active_edges * g.bytes_per_edge();
            let min_req = payload.div_ceil(machine.pcie.request_bytes);
            prop_assert!(a.zc_requests >= min_req);
            prop_assert!(a.zc_requests <= min_req + 2 * a.active_vertices.len() as u64);
        }
    }

    #[test]
    fn filter_plan_matches_formula_one(g in arb_graph(), density in 0u8..7) {
        let machine = MachineModel::paper_platform();
        let parts = PartitionSet::build(&g, 1024);
        let f = arb_frontier(g.num_vertices(), density);
        let bpe = g.bytes_per_edge();
        let acts = analyze_partitions(g.view(), &parts, &f, &machine.pcie, bpe, 2);
        for a in acts.iter().filter(|a| a.is_active()) {
            let plan = filter::plan_filter(&machine, g.view(), &[a], bpe);
            // Counters: the whole partition ships, regardless of activity.
            prop_assert_eq!(plan.counters.explicit_bytes, a.total_edges * bpe);
            // Time: latency + ceil-TLPs x RTT.
            let tlp_payload = machine.pcie.request_bytes * machine.pcie.max_requests;
            let tlps = (a.total_edges * bpe).div_ceil(tlp_payload);
            let want = if a.total_edges == 0 {
                0.0
            } else {
                let rtt = tlp_payload as f64 / machine.pcie.explicit_bw;
                machine.pcie.copy_latency + tlps as f64 * rtt
            };
            prop_assert!((plan.transfer_time - want).abs() < 1e-12);
        }
    }

    #[test]
    fn compaction_plan_is_exact_and_minimal(g in arb_graph(), density in 0u8..7) {
        let machine = MachineModel::paper_platform();
        let parts = PartitionSet::build(&g, 1024);
        let f = arb_frontier(g.num_vertices(), density);
        let bpe = g.bytes_per_edge();
        let acts = analyze_partitions(g.view(), &parts, &f, &machine.pcie, bpe, 2);
        let refs: Vec<_> = acts.iter().filter(|a| a.is_active()).collect();
        if refs.is_empty() {
            return Ok(());
        }
        let plan = compaction::price_compaction_sized(&machine, &refs, bpe, 0);
        let c = compaction::compact(g.view(), &f.to_vec(), 4);
        // The gather holds exactly the active edges.
        let want_edges: u64 = refs.iter().map(|a| a.active_edges).sum();
        prop_assert_eq!(c.num_edges(), want_edges);
        // Formula (2) numerator: active edges x d1 + |A| x d2 — priced in
        // closed form, and exactly what the materialised gather occupies.
        let want_bytes = want_edges * bpe + c.len() as u64 * 8;
        prop_assert_eq!(plan.counters.explicit_bytes, want_bytes);
        prop_assert_eq!(plan.counters.explicit_bytes, c.transfer_bytes(bpe));
        // Compaction never ships more than filter would.
        let filter_bytes: u64 = refs.iter().map(|a| a.total_edges * bpe).sum();
        prop_assert!(want_bytes <= filter_bytes + c.len() as u64 * 8);
    }

    #[test]
    fn zero_copy_plan_pools_tlps(g in arb_graph(), density in 0u8..7) {
        let machine = MachineModel::paper_platform();
        let parts = PartitionSet::build(&g, 1024);
        let f = arb_frontier(g.num_vertices(), density);
        let bpe = g.bytes_per_edge();
        let acts = analyze_partitions(g.view(), &parts, &f, &machine.pcie, bpe, 2);
        let refs: Vec<_> = acts.iter().filter(|a| a.is_active()).collect();
        let plan = zero_copy::plan_zero_copy(&machine, &refs);
        let requests: u64 = refs.iter().map(|a| a.zc_requests).sum();
        prop_assert_eq!(plan.counters.zero_copy_bytes, requests * machine.pcie.request_bytes);
        prop_assert_eq!(plan.counters.tlps, requests.div_ceil(machine.pcie.max_requests));
        // Zero-copy payload is never below the active edge data it reads.
        let active_bytes: u64 = refs.iter().map(|a| a.active_edges * bpe).sum();
        prop_assert!(plan.counters.zero_copy_bytes >= active_bytes);
    }

    #[test]
    fn unified_faults_are_bounded_by_page_spans(g in arb_graph(), density in 0u8..7) {
        let machine = MachineModel::paper_platform();
        let parts = PartitionSet::build(&g, 1024);
        let f = arb_frontier(g.num_vertices(), density);
        let bpe = g.bytes_per_edge();
        let acts = analyze_partitions(g.view(), &parts, &f, &machine.pcie, bpe, 2);
        let refs: Vec<_> = acts.iter().filter(|a| a.is_active()).collect();
        let mut state = UnifiedState::new(&machine);
        let plan = state.plan_unified(&machine, g.view(), &refs, bpe);
        // With ample budget: first touch faults at most one page span per
        // active vertex, at least the payload's pages.
        let page = machine.um.page_bytes;
        let payload: u64 = refs.iter().map(|a| a.active_edges * bpe).sum();
        let max_spans: u64 = refs
            .iter()
            .flat_map(|a| a.active_vertices.iter())
            .map(|&v| {
                let (start, len) = (g.row_offset()[v as usize] * bpe, g.out_degree(v) * bpe);
                if len == 0 { 0 } else { (start + len - 1) / page - start / page + 1 }
            })
            .sum();
        prop_assert!(plan.counters.page_faults <= max_spans);
        prop_assert!(plan.counters.page_faults * page >= payload.min(plan.counters.um_bytes));
        // Second pass over identical refs is all hits.
        let second = state.plan_unified(&machine, g.view(), &refs, bpe);
        prop_assert_eq!(second.counters.page_faults, 0);
    }

    #[test]
    fn cost_formulas_are_monotone_in_activity(g in arb_graph()) {
        // Growing the frontier can only grow Tec and Tiz, never shrink them;
        // Tef is activity-independent.
        let machine = MachineModel::paper_platform();
        let parts = PartitionSet::build(&g, 2048);
        let bpe = g.bytes_per_edge();
        let sparse = arb_frontier(g.num_vertices(), 6); // every 7th vertex
        let dense = Frontier::full(g.num_vertices());
        let a1 = analyze_partitions(g.view(), &parts, &sparse, &machine.pcie, bpe, 2);
        let a2 = analyze_partitions(g.view(), &parts, &dense, &machine.pcie, bpe, 2);
        for (s, d) in a1.iter().zip(&a2) {
            let cs: cost::PartitionCosts = partition_costs_sized(s, &machine.pcie, bpe, 0);
            let cd: cost::PartitionCosts = partition_costs_sized(d, &machine.pcie, bpe, 0);
            prop_assert_eq!(cs.tef, cd.tef);
            prop_assert!(cs.tec <= cd.tec + 1e-12);
            prop_assert!(cs.tiz <= cd.tiz + 1e-12);
        }
    }

    #[test]
    fn um_cache_never_exceeds_capacity(
        capacity_pages in 1u64..64,
        touches in proptest::collection::vec((0u64..1_000_000, 1u64..20_000), 1..100),
    ) {
        let model = UmModel::new(&MachineModel::paper_platform().pcie);
        let mut cache = UmCache::new(model, capacity_pages * model.page_bytes);
        for (start, len) in touches {
            cache.touch_range(start, len);
            prop_assert!(cache.resident_pages() <= capacity_pages);
        }
    }

    #[test]
    fn hybrid_copy_time_is_monotone_and_never_above_explicit(
        a in 0u64..(16 << 20),
        b in 0u64..(16 << 20),
        shift in 0u32..11,
    ) {
        // Both halves of the min are monotone in bytes, so the min is:
        // a larger exchange leg never prices cheaper, at any scale.
        let pcie = MachineModel::paper_platform().scaled(shift).pcie;
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(pcie.hybrid_copy_time(lo) <= pcie.hybrid_copy_time(hi), "{lo} B vs {hi} B");
        prop_assert!(pcie.hybrid_copy_time(hi) <= pcie.explicit_copy_time(hi));
    }
}
