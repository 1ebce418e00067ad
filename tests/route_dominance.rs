//! Property suite for the sized, load-aware routing layer (ISSUE 5):
//! byte-size-aware breakpoint tables, the load-aware re-route/split
//! second pass, and cut-through forwarding.
//!
//! Three families of invariants:
//!
//! * **dominance** — the load-aware pass only ever applies
//!   strictly-improving moves, so for every topology, spec mix, ladder,
//!   and byte-size vector drawn, its makespan is at most the static
//!   sized-table makespan; the logical payload is invariant; and the
//!   makespan never undercuts the per-fragment chain-serialisation
//!   floor.
//! * **oracle** — on a freshly built interconnect (single-probe
//!   routing, no cut-through, static pass) the all-gather prices
//!   **bit-identically** to the reference model re-implemented here from
//!   the public route/queue API: exact `==` on the makespan, the
//!   per-queue busy vector, and every byte counter — no epsilon.
//! * **cut-through** — chunked forwarding only lowers the chain floor:
//!   wire occupancy and byte counters are unchanged, the makespan and
//!   critical path never grow, and `cut_through = None` reproduces the
//!   store-and-forward pricing exactly.

use hytgraph::sim::{
    Interconnect, LinkSpec, PcieModel, Route, TopologyKind, ROUTE_BREAKPOINT_LADDER,
    ROUTE_PROBE_BYTES,
};
use proptest::prelude::*;

const EPS: f64 = 1e-9;

/// Nominal per-direction bandwidths of the link generations the mixed
/// fabrics draw from (x4 bridges up to NVLink4-class), bytes/s.
const GENERATIONS: [f64; 6] = [8.0e9, 16.0e9, 25.0e9, 50.0e9, 100.0e9, 200.0e9];

fn spec(generation: usize) -> LinkSpec {
    LinkSpec::with_nominal_bw(GENERATIONS[generation % GENERATIONS.len()])
}

/// A mixed-generation interconnect: a ring with per-link specs, with an
/// optional 1 GB/s slow bridge so host staging and detours win somewhere.
fn mixed_fabric(gens: &[usize], slow_sel: usize) -> Interconnect {
    let specs: Vec<LinkSpec> = gens.iter().map(|&g| spec(g)).collect();
    let mut ic = Interconnect::ring_with_specs(gens.len(), PcieModel::pcie3(), &specs);
    if slow_sel < gens.len() {
        let (a, b) = (slow_sel as u32, ((slow_sel + 1) % gens.len()) as u32);
        ic = ic.with_link_spec(a, b, LinkSpec::with_nominal_bw(1.0e9));
    }
    ic
}

/// The reference all-gather pricing, re-implemented from the public
/// API: per-pair single-probe routes, per-direction queue occupancy,
/// shared host upload per source + aggregated download per destination
/// (ascending device order, upload before download), makespan = busiest
/// queue floored by the longest store-and-forward chain.
#[allow(clippy::type_complexity)]
fn pr4_oracle(
    ic: &Interconnect,
    owned: &[u64],
    participates: &[bool],
) -> (f64, f64, Vec<f64>, u64, u64, u64) {
    let nd = owned.len();
    let mut per_queue = vec![0.0f64; ic.num_queues()];
    let mut critical = 0.0f64;
    let (mut host_bytes, mut peer_bytes, mut fwd_bytes) = (0u64, 0u64, 0u64);
    let holders = participates.iter().filter(|&&p| p).count();
    let total: u64 = owned.iter().zip(participates).filter(|&(_, &p)| p).map(|(&o, _)| o).sum();
    if holders <= 1 || total == 0 {
        return (0.0, 0.0, per_queue, 0, 0, 0);
    }
    let occupy = |q: usize, t: f64, acc: &mut Vec<f64>| acc[q] += t;
    let mut host_up = vec![0u64; nd];
    let mut host_down = vec![0u64; nd];
    for s in (0..nd as u32).filter(|&s| participates[s as usize]) {
        let b = owned[s as usize];
        let mut staged = false;
        for d in (0..nd as u32).filter(|&d| d != s && participates[d as usize]) {
            match ic.route(s, d, ROUTE_PROBE_BYTES) {
                Route::Direct(link) => {
                    if b > 0 {
                        let (a, _) = ic.links()[*link].endpoints.unwrap();
                        occupy(ic.queue(*link, s != a), ic.transfer_time(*link, b), &mut per_queue);
                        peer_bytes += b;
                    }
                }
                Route::Forwarded(hops) => {
                    if b > 0 {
                        let mut cur = s;
                        let mut path_time = 0.0;
                        for &link in hops {
                            path_time += ic.transfer_time(link, b);
                            let (a, bb) = ic.links()[link].endpoints.unwrap();
                            occupy(
                                ic.queue(link, cur != a),
                                ic.transfer_time(link, b),
                                &mut per_queue,
                            );
                            cur = if cur == a { bb } else { a };
                            peer_bytes += b;
                        }
                        fwd_bytes += b * (hops.len() as u64 - 1);
                        critical = critical.max(path_time);
                    }
                }
                Route::HostStaged => {
                    staged = true;
                    host_down[d as usize] += b;
                }
            }
        }
        if staged {
            host_up[s as usize] = b;
        }
    }
    let host_q = ic.queue(ic.host_link(), false);
    for d in 0..nd {
        for b in [host_up[d], host_down[d]] {
            if b > 0 {
                occupy(host_q, ic.transfer_time(ic.host_link(), b), &mut per_queue);
                host_bytes += b;
            }
        }
    }
    let makespan = per_queue.iter().fold(critical, |a, &b| a.max(b));
    (makespan, critical, per_queue, host_bytes, peer_bytes, fwd_bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn load_aware_is_never_worse_than_the_static_sized_table(
        gens in proptest::collection::vec(0usize..6, 3..9),
        owned_seed in proptest::collection::vec(0u64..2_000_000, 3..9),
        participates_bits in proptest::collection::vec(any::<bool>(), 3..9),
        slow_sel in 0usize..16,
        ladder in any::<bool>(),
    ) {
        let nd = gens.len();
        let owned: Vec<u64> = owned_seed.iter().cycle().take(nd).copied().collect();
        let mut participates: Vec<bool> =
            participates_bits.iter().cycle().take(nd).copied().collect();
        participates[0] = true;
        let mut ic = mixed_fabric(&gens, slow_sel);
        if ladder {
            ic = ic.with_route_breakpoints(&ROUTE_BREAKPOINT_LADDER);
        }
        let stat = ic.price_all_gather(&owned, &participates);
        let load = ic.price_all_gather_load_aware(&owned, &participates);
        // Dominance: the greedy applies only strictly-improving moves.
        prop_assert!(
            load.makespan <= stat.makespan + EPS,
            "load-aware {} > static {}", load.makespan, stat.makespan
        );
        // The logical payload is routing-invariant; only occupancy moves.
        prop_assert_eq!(load.payload_bytes, stat.payload_bytes);
        // The static pass never re-routes or splits.
        prop_assert_eq!(stat.rerouted_bytes, 0);
        prop_assert_eq!(stat.split_bytes, 0);
        // Both reports respect the per-fragment chain floor.
        prop_assert!(stat.makespan >= stat.critical_path - EPS);
        prop_assert!(load.makespan >= load.critical_path - EPS);
        // Class totals still tile the per-link busy vector.
        let sum: f64 = load.per_link_busy.iter().sum();
        prop_assert!((sum - load.host_time - load.peer_time).abs() < EPS);
    }

    #[test]
    fn sized_routes_are_cheapest_at_every_rung(
        gens in proptest::collection::vec(0usize..6, 3..9),
        slow_sel in 0usize..16,
    ) {
        let ic = mixed_fabric(&gens, slow_sel).with_route_breakpoints(&ROUTE_BREAKPOINT_LADDER);
        let nd = gens.len();
        for &probe in ic.route_breakpoints() {
            let host_cost = 2.0 * ic.transfer_time(ic.host_link(), probe);
            for s in 0..nd as u32 {
                for d in (0..nd as u32).filter(|&d| d != s) {
                    // Host staging is always available, so no rung's
                    // route may price above it at that rung's probe.
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
    fn knobs_off_price_bit_identically_to_the_pr4_oracle(
        gens in proptest::collection::vec(0usize..6, 3..9),
        owned_seed in proptest::collection::vec(0u64..2_000_000, 3..9),
        participates_bits in proptest::collection::vec(any::<bool>(), 3..9),
        slow_sel in 0usize..16,
        kind_idx in 0usize..3,
    ) {
        let nd = gens.len();
        let owned: Vec<u64> = owned_seed.iter().cycle().take(nd).copied().collect();
        let mut participates: Vec<bool> =
            participates_bits.iter().cycle().take(nd).copied().collect();
        participates[0] = true;
        // Both a mixed-generation ring (with an optional slow bridge)
        // and the uniform named shapes must reproduce the oracle exactly.
        let ics = [
            mixed_fabric(&gens, slow_sel),
            Interconnect::build(TopologyKind::ALL[kind_idx], nd, PcieModel::pcie3(), spec(gens[0])),
        ];
        for ic in ics {
            let r = ic.price_all_gather(&owned, &participates);
            let (makespan, critical, per_queue, host_b, peer_b, fwd_b) =
                pr4_oracle(&ic, &owned, &participates);
            // Bit-identical: exact equality, no epsilon.
            prop_assert_eq!(r.makespan, makespan);
            prop_assert_eq!(r.critical_path, critical);
            prop_assert_eq!(&r.per_queue_busy, &per_queue);
            prop_assert_eq!(r.host_bytes, host_b);
            prop_assert_eq!(r.peer_bytes, peer_b);
            prop_assert_eq!(r.forwarded_bytes, fwd_b);
            prop_assert_eq!(r.rerouted_bytes, 0);
            prop_assert_eq!(r.split_bytes, 0);
        }
    }

    #[test]
    fn cut_through_only_lowers_the_chain_floor(
        gens in proptest::collection::vec(0usize..6, 3..9),
        owned_seed in proptest::collection::vec(0u64..2_000_000, 3..9),
        chunk_kb in 1u64..512,
    ) {
        let nd = gens.len();
        let owned: Vec<u64> = owned_seed.iter().cycle().take(nd).copied().collect();
        let participates = vec![true; nd];
        let plain: Vec<LinkSpec> = gens.iter().map(|&g| spec(g)).collect();
        let chunked: Vec<LinkSpec> =
            plain.iter().map(|s| s.with_cut_through(chunk_kb << 10)).collect();
        let saf = Interconnect::ring_with_specs(nd, PcieModel::pcie3(), &plain)
            .price_all_gather(&owned, &participates);
        let ct = Interconnect::ring_with_specs(nd, PcieModel::pcie3(), &chunked)
            .price_all_gather(&owned, &participates);
        // Same routes, same bytes on every wire: occupancy and counters
        // are bit-identical; only the serialisation floor may shrink.
        prop_assert_eq!(&ct.per_queue_busy, &saf.per_queue_busy);
        prop_assert_eq!(&ct.per_link_busy, &saf.per_link_busy);
        prop_assert_eq!(ct.peer_bytes, saf.peer_bytes);
        prop_assert_eq!(ct.host_bytes, saf.host_bytes);
        prop_assert_eq!(ct.forwarded_bytes, saf.forwarded_bytes);
        prop_assert_eq!(ct.payload_bytes, saf.payload_bytes);
        prop_assert!(ct.critical_path <= saf.critical_path + EPS);
        prop_assert!(ct.makespan <= saf.makespan + EPS);
        prop_assert!(ct.makespan >= ct.critical_path - EPS);
    }
}

#[test]
fn load_aware_system_runs_are_value_transparent() {
    // End-to-end: the full runner with load-aware routing and
    // cut-through links computes bit-identical values and iterations to
    // the all-defaults run — routing is pricing-only — while the
    // exchange never grows.
    use hytgraph::prelude::*;
    let g = hytgraph::graph::generators::power_law_preferential(1 << 12, 8.0, 2.2, 11, true);
    let run = |smart: bool| {
        let mut cfg = HyTGraphConfig {
            num_devices: 8,
            topology: TopologyKind::Ring,
            threads: 1,
            ..HyTGraphConfig::default()
        };
        if smart {
            cfg.load_aware_exchange = true;
            cfg.peer_link = cfg.peer_link.with_cut_through(256);
        }
        let mut sys = HyTGraphSystem::new(g.clone(), cfg);
        let r = sys.run(Bfs::from_source(0));
        let exchange: f64 = r.per_iteration.iter().map(|it| it.exchange.time).sum();
        (r.values, r.iterations, exchange)
    };
    let (v0, i0, x0) = run(false);
    let (v1, i1, x1) = run(true);
    assert_eq!(v0, v1, "routing must never change computed values");
    assert_eq!(i0, i1);
    assert!(x1 <= x0 + 1e-12, "smart routing must never grow the exchange: {x1} vs {x0}");
}
