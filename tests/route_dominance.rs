//! Property suite for the sized routing layer (ISSUE 5): byte-size-aware
//! breakpoint tables and the all-gather pricer.
//!
//! Two families of invariants:
//!
//! * **dominance** — at every rung of the breakpoint ladder no pair's
//!   route prices above host staging, which is always available.
//! * **oracle** — the all-gather routes **bit-identically** to the
//!   reference model re-implemented here from the public route/queue
//!   API, on single-probe fabrics and on the five-rung ladder every
//!   system prices with, two devices per host port: exact `==` on
//!   every field but the makespan — per-queue and per-link busy vectors,
//!   class times, every byte counter — no epsilon. The list-scheduled
//!   makespan lies between the oracle's lower bound (busiest queue,
//!   longest hop chain) and the sum of the legs.

use hytgraph::sim::{
    ExchangeReport, Interconnect, Link, LinkSpec, PcieModel, Route, TopologyKind,
    ROUTE_BREAKPOINT_LADDER,
};
use proptest::prelude::*;

const EPS: f64 = 1e-9;

/// Nominal per-direction bandwidths of the link generations the mixed
/// fabrics draw from (x4 bridges up to NVLink4-class), bytes/s.
const GENERATIONS: [f64; 6] = [8.0e9, 16.0e9, 25.0e9, 50.0e9, 100.0e9, 200.0e9];

fn spec(generation: usize) -> LinkSpec {
    LinkSpec::with_nominal_bw(GENERATIONS[generation % GENERATIONS.len()])
}

/// A mixed-generation interconnect: a ring whose `i → (i+1) mod D` link
/// carries `spec(gens[i])`, with an optional 1 GB/s slow bridge so host
/// staging and detours win somewhere.
fn mixed_fabric(gens: &[usize], slow_sel: usize) -> Interconnect {
    let nd = gens.len();
    let mut ic = Interconnect::build(TopologyKind::Ring, nd, PcieModel::pcie3(), spec(gens[0]));
    for (i, &g) in gens.iter().enumerate() {
        ic = ic.with_link_spec(i as u32, ((i + 1) % nd) as u32, spec(g));
    }
    if slow_sel < gens.len() {
        let (a, b) = (slow_sel as u32, ((slow_sel + 1) % gens.len()) as u32);
        ic = ic.with_link_spec(a, b, LinkSpec::with_nominal_bw(1.0e9));
    }
    ic
}

/// The reference all-gather routing, re-implemented from the public
/// API: each pair's route looked up at its own batch size,
/// per-direction queue occupancy, shared host upload per source on its
/// host port (device `d` on port `d / 2`, stated here rather than asked
/// of the fabric) + aggregated download per destination on its own (the
/// uploads by device, then the downloads by device). Returns the report
/// with a zero makespan, and the makespan's lower bound: the busiest
/// queue floored by the longest store-and-forward chain, summed by the
/// oracle itself.
fn oracle(ic: &Interconnect, owned: &[u64], participates: &[bool]) -> (ExchangeReport, f64) {
    let nd = owned.len();
    let mut r = ExchangeReport {
        per_queue_busy: vec![0.0; ic.num_queues()],
        per_link_busy: vec![0.0; ic.num_links()],
        ..ExchangeReport::default()
    };
    let holders = participates.iter().filter(|&&p| p).count();
    let total: u64 = owned.iter().zip(participates).filter(|&(_, &p)| p).map(|(&o, _)| o).sum();
    if holders <= 1 || total == 0 {
        return (r, 0.0);
    }
    r.payload_bytes = total * (holders as u64 - 1);
    let ends = |link: usize| match ic.links()[link] {
        Link::Peer { ends, .. } => ends,
        Link::Host(_) => panic!("link {link} is a host port"),
    };
    let occupy = |link: usize, reverse: bool, b: u64, r: &mut ExchangeReport| {
        let t = ic.transfer_time(link, b);
        r.per_queue_busy[ic.queue(link, reverse)] += t;
        r.per_link_busy[link] += t;
        t
    };
    let mut host_up = vec![0u64; nd];
    let mut host_down = vec![0u64; nd];
    let mut longest_chain = 0.0f64;
    for s in (0..nd as u32).filter(|&s| participates[s as usize]) {
        let b = owned[s as usize];
        if b == 0 {
            continue;
        }
        for d in (0..nd as u32).filter(|&d| d != s && participates[d as usize]) {
            match ic.route(s, d, b) {
                Route::Direct(link) => {
                    let (a, _) = ends(*link);
                    occupy(*link, s != a, b, &mut r);
                    r.peer_bytes += b;
                }
                Route::Forwarded(hops) => {
                    let mut cur = s;
                    let mut path_time = 0.0;
                    for &link in hops {
                        let (a, bb) = ends(link);
                        path_time += occupy(link, cur != a, b, &mut r);
                        cur = if cur == a { bb } else { a };
                        r.peer_bytes += b;
                    }
                    r.forwarded_bytes += b * (hops.len() as u64 - 1);
                    longest_chain = longest_chain.max(path_time);
                }
                Route::HostStaged => {
                    host_up[s as usize] = b;
                    host_down[d as usize] += b;
                }
            }
        }
    }
    for legs in [&host_up, &host_down] {
        for (d, &b) in legs.iter().enumerate().filter(|&(_, &b)| b > 0) {
            occupy(d / 2, false, b, &mut r);
            r.host_bytes += b;
        }
    }
    let busy_of = |host: bool| -> f64 {
        (ic.links().iter().zip(&r.per_link_busy))
            .filter(|(l, _)| matches!(l, Link::Host(_)) == host)
            .map(|(_, &b)| b)
            .sum()
    };
    (r.host_time, r.peer_time) = (busy_of(true), busy_of(false));
    let bound = r.per_queue_busy.iter().fold(longest_chain, |a, &b| a.max(b));
    (r, bound)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sized_routes_are_cheapest_at_every_rung(
        gens in proptest::collection::vec(0usize..6, 3..9),
        slow_sel in 0usize..16,
    ) {
        let nd = gens.len();
        let ic = mixed_fabric(&gens, slow_sel).with_route_breakpoints(&ROUTE_BREAKPOINT_LADDER);
        for probe in ROUTE_BREAKPOINT_LADDER {
            for s in 0..nd as u32 {
                for d in (0..nd as u32).filter(|&d| d != s) {
                    // Host staging (up on s's port, down on d's; two
                    // devices per port) is always available, so no
                    // rung's route may price above it at that rung's
                    // probe.
                    let host_cost = ic.transfer_time(s as usize / 2, probe)
                        + ic.transfer_time(d as usize / 2, probe);
                    let cost = ic.route_cost(s, d, probe);
                    prop_assert!(
                        cost <= host_cost + EPS,
                        "{s}->{d} at {probe}B: {cost} > host {host_cost}"
                    );
                }
            }
        }
    }

    #[test]
    fn static_pricing_is_bit_identical_to_the_oracle(
        gens in proptest::collection::vec(0usize..6, 3..9),
        owned_seed in proptest::collection::vec(0u64..2_000_000, 3..9),
        participates_bits in proptest::collection::vec(any::<bool>(), 3..9),
        slow_sel in 0usize..16,
    ) {
        let nd = gens.len();
        let owned: Vec<u64> = owned_seed.iter().cycle().take(nd).copied().collect();
        let mut participates: Vec<bool> =
            participates_bits.iter().cycle().take(nd).copied().collect();
        participates[0] = true;
        // A mixed-generation ring (with an optional slow bridge) and the
        // three uniform named shapes, each probed once and on the ladder
        // production prices with (batches up to 2 MB span four rungs).
        let uniform = TopologyKind::ALL
            .map(|kind| Interconnect::build(kind, nd, PcieModel::pcie3(), spec(gens[0])));
        for single in std::iter::once(mixed_fabric(&gens, slow_sel)).chain(uniform) {
            let laddered = single.clone().with_route_breakpoints(&ROUTE_BREAKPOINT_LADDER);
            for ic in [single, laddered] {
                // The list schedule never beats the bound, and never
                // exceeds playing every leg back to back.
                let mut got = ic.price_all_gather(&owned, &participates);
                let (want, bound) = oracle(&ic, &owned, &participates);
                let legs: f64 = want.per_queue_busy.iter().sum();
                prop_assert!(bound * (1.0 - 1e-12) <= got.makespan, "{} < {bound}", got.makespan);
                prop_assert!(got.makespan <= legs * (1.0 + 1e-12), "{} > {legs}", got.makespan);
                // Bit-identical: exact equality on every other field
                // (per-queue and per-link busy vectors, class times,
                // every byte column), no epsilon.
                got.makespan = 0.0;
                prop_assert_eq!(got, want);
            }
        }
    }
}
