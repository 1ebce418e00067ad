//! Property tests for the heterogeneous interconnect routing layer
//! (ISSUE 4): per-link specs, per-direction queueing, and multi-hop
//! device-via-device forwarding.
//!
//! Three families of invariants:
//!
//! * **duplex** — each peer link's two directions queue on their own,
//!   which can only lower the all-gather's bound against one shared
//!   queue per link: a link's shared queue would carry both direction
//!   queues' legs, i.e. its total wire occupancy. Every link's occupancy
//!   tiles exactly into its two queues, and the list-scheduled makespan
//!   lies between the duplex bound (busiest queue, floored by the
//!   longest hop chain) and the sum of the legs.
//! * **payload** — the logical exchange payload is a property of the
//!   participants, never of the topology or the link specs.
//! * **routing** — the chosen route is the cheapest priced path at the
//!   probe size: it satisfies the triangle inequality over intermediate
//!   devices, a forwarded path prices as exactly the sum of its hops
//!   (store-and-forward, never cheaper), and no route prices above host
//!   staging.

use hytgraph::sim::{
    ExchangeReport, Interconnect, LinkSpec, PcieModel, Route, TopologyKind, ROUTE_PROBE_BYTES,
};
use proptest::prelude::*;

const EPS: f64 = 1e-9;

/// Nominal per-direction bandwidths of the link generations the mixed
/// meshes draw from (x4 bridges up to NVLink4-class), bytes/s.
const GENERATIONS: [f64; 6] = [8.0e9, 16.0e9, 25.0e9, 50.0e9, 100.0e9, 200.0e9];

fn spec(generation: usize) -> LinkSpec {
    LinkSpec::with_nominal_bw(GENERATIONS[generation % GENERATIONS.len()])
}

/// A mixed-generation ring over `gens.len()` devices: the
/// `i → (i+1) mod D` link carries `spec(gens[i])`.
fn mixed_ring(gens: &[usize]) -> Interconnect {
    let nd = gens.len();
    let mut ic = Interconnect::build(TopologyKind::Ring, nd, PcieModel::pcie3(), spec(gens[0]));
    for (i, &g) in gens.iter().enumerate() {
        ic = ic.with_link_spec(i as u32, ((i + 1) % nd) as u32, spec(g));
    }
    ic
}

/// The lower bound one shared queue per link would give `r`, the
/// busiest link's total wire occupancy (both directions) floored by the
/// longest hop chain, beside the duplex bound, the busiest direction
/// queue with the same floor. Also checks that every link's occupancy
/// is exactly the sum of its direction queues, and that the makespan
/// lies between the duplex bound and the sum of the legs.
fn shared_queue_makespan(
    ic: &Interconnect,
    owned: &[u64],
    participates: &[bool],
    r: &ExchangeReport,
) -> Result<(f64, f64), TestCaseError> {
    let mut chain = 0.0f64;
    for s in (0..owned.len() as u32).filter(|&s| participates[s as usize] && owned[s as usize] > 0)
    {
        for d in (0..owned.len() as u32).filter(|&d| d != s && participates[d as usize]) {
            if ic.route(s, d, owned[s as usize]) != &Route::HostStaged {
                chain = chain.max(ic.route_cost(s, d, owned[s as usize]));
            }
        }
    }
    let mut shared = chain;
    for (l, &busy) in r.per_link_busy.iter().enumerate() {
        let (fwd, rev) = (ic.queue(l, false), ic.queue(l, true));
        let queued = if fwd == rev {
            r.per_queue_busy[fwd]
        } else {
            r.per_queue_busy[fwd] + r.per_queue_busy[rev]
        };
        prop_assert!((busy - queued).abs() < EPS, "link {l}: {busy} != {queued}");
        shared = shared.max(busy);
    }
    let duplex = r.per_queue_busy.iter().fold(chain, |a, &b| a.max(b));
    let legs: f64 = r.per_queue_busy.iter().sum();
    prop_assert!(duplex <= r.makespan + EPS, "makespan {} under the bound {duplex}", r.makespan);
    prop_assert!(r.makespan <= legs + EPS, "makespan {} over the legs {legs}", r.makespan);
    Ok((duplex, shared))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn full_duplex_never_slower_than_a_shared_queue_uniform(
        owned in proptest::collection::vec(0u64..2_000_000, 2..8),
        participates_bits in proptest::collection::vec(any::<bool>(), 2..8),
        kind_idx in 0usize..3,
        generation in 0usize..6,
    ) {
        let nd = owned.len();
        let mut participates: Vec<bool> =
            participates_bits.iter().cycle().take(nd).copied().collect();
        participates[0] = true; // at least one participant
        let ic = Interconnect::build(
            TopologyKind::ALL[kind_idx],
            nd,
            PcieModel::pcie3(),
            spec(generation),
        );
        let r = ic.price_all_gather(&owned, &participates);
        let (full, shared) = shared_queue_makespan(&ic, &owned, &participates, &r)?;
        prop_assert!(full <= shared + EPS, "full {full} > shared {shared}");
        // Class totals tile the per-link occupancy.
        let sum: f64 = r.per_link_busy.iter().sum();
        prop_assert!((sum - r.host_time - r.peer_time).abs() < EPS);
    }

    #[test]
    fn full_duplex_never_slower_on_mixed_generation_rings(
        gens in proptest::collection::vec(0usize..6, 3..9),
        owned_seed in proptest::collection::vec(0u64..1_500_000, 3..9),
    ) {
        let nd = gens.len();
        let owned: Vec<u64> = owned_seed.iter().cycle().take(nd).copied().collect();
        let ic = mixed_ring(&gens);
        let participates = vec![true; nd];
        let r = ic.price_all_gather(&owned, &participates);
        let (full, shared) = shared_queue_makespan(&ic, &owned, &participates, &r)?;
        prop_assert!(full <= shared + EPS, "full {full} > shared {shared}");
    }

    #[test]
    fn payload_bytes_invariant_under_topology_spec_and_duplex(
        owned in proptest::collection::vec(0u64..2_000_000, 2..8),
        participates_bits in proptest::collection::vec(any::<bool>(), 2..8),
        generation in 0usize..6,
    ) {
        let nd = owned.len();
        let participates: Vec<bool> =
            participates_bits.iter().cycle().take(nd).copied().collect();
        let holders = participates.iter().filter(|&&p| p).count() as u64;
        let total: u64 = owned
            .iter()
            .zip(&participates)
            .filter(|&(_, &p)| p)
            .map(|(&o, _)| o)
            .sum();
        let expected = if holders <= 1 || total == 0 { 0 } else { total * (holders - 1) };
        let p = PcieModel::pcie3();
        for kind in TopologyKind::ALL {
            let r = Interconnect::build(kind, nd, p, spec(generation))
                .price_all_gather(&owned, &participates);
            prop_assert_eq!(r.payload_bytes, expected);
        }
    }

    #[test]
    fn routes_are_cheapest_paths_and_respect_the_triangle_inequality(
        gens in proptest::collection::vec(0usize..6, 3..9),
        slow_sel in 0usize..16,
    ) {
        let nd = gens.len();
        // Roughly half the cases derate one bridge to 1 GB/s so host
        // staging and detours actually win somewhere.
        let mut ic = mixed_ring(&gens);
        if slow_sel < nd {
            let (a, b) = (slow_sel as u32, ((slow_sel + 1) % nd) as u32);
            ic = ic.with_link_spec(a, b, LinkSpec::with_nominal_bw(1.0e9));
        }
        let probe = ROUTE_PROBE_BYTES;
        let host_cost = 2.0 * ic.transfer_time(ic.host_link_of(0), probe);
        for s in 0..nd as u32 {
            for d in (0..nd as u32).filter(|&d| d != s) {
                let cost = ic.route_cost(s, d, probe);
                // Never above host staging (which is always available).
                prop_assert!(cost <= host_cost + EPS, "{s}->{d}: {cost} > host {host_cost}");
                match ic.route(s, d, probe) {
                    Route::Direct(l) => {
                        prop_assert!((cost - ic.transfer_time(*l, probe)).abs() < EPS);
                    }
                    Route::Forwarded(hops) => {
                        prop_assert!(hops.len() >= 2);
                        // Store-and-forward: the path prices as exactly
                        // the sum of its hops, never below any one hop.
                        let sum: f64 =
                            hops.iter().map(|&l| ic.transfer_time(l, probe)).sum();
                        prop_assert!((cost - sum).abs() < EPS);
                        for &l in hops {
                            prop_assert!(cost >= ic.transfer_time(l, probe) - EPS);
                        }
                    }
                    Route::HostStaged => {
                        prop_assert!((cost - host_cost).abs() < EPS);
                    }
                }
                // Triangle inequality over every intermediate device.
                for m in (0..nd as u32).filter(|&m| m != s && m != d) {
                    let via = ic.route_cost(s, m, probe) + ic.route_cost(m, d, probe);
                    prop_assert!(
                        cost <= via + EPS,
                        "{s}->{d} ({cost}) beats the triangle via {m} ({via})"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_cliques_ride_every_batch_on_its_own_direction_queue(
        owned in proptest::collection::vec(0u64..2_000_000, 2..7),
        generation in 0usize..6,
    ) {
        // On a uniform clique every ordered pair's batch is the only leg
        // on its direct link's direction queue.
        let nd = owned.len();
        let s = spec(generation);
        let ic = Interconnect::build(TopologyKind::AllToAll, nd, PcieModel::pcie3(), s);
        let participates = vec![true; nd];
        let r = ic.price_all_gather(&owned, &participates);
        let total: u64 = owned.iter().sum();
        if total == 0 || nd < 2 {
            prop_assert_eq!(r.makespan, 0.0);
            return Ok(());
        }
        let mut link_busy = vec![0.0f64; ic.num_links()];
        let mut longest_leg = 0.0f64;
        for src in 0..nd as u32 {
            for dst in (0..nd as u32).filter(|&d| d != src) {
                let b = owned[src as usize];
                if b > 0 {
                    link_busy[ic.peer_link(src, dst).unwrap()] += s.transfer_time(b);
                    longest_leg = longest_leg.max(s.transfer_time(b));
                }
            }
        }
        prop_assert_eq!(r.makespan, longest_leg);
        prop_assert_eq!(&r.per_link_busy, &link_busy);
        prop_assert_eq!(r.host_bytes, 0);
        prop_assert_eq!(r.forwarded_bytes, 0);
    }
}

#[test]
fn forwarding_is_reported_and_bounded_on_rings() {
    // Deterministic end-to-end: a 6-device uniform ring forwards the
    // distance ≥ 2 pairs, reports the relayed bytes, and stays within
    // the host-staged envelope.
    let ic = Interconnect::build(TopologyKind::Ring, 6, PcieModel::pcie3(), LinkSpec::nvlink());
    let owned = vec![100_000u64; 6];
    let participates = vec![true; 6];
    let r = ic.price_all_gather(&owned, &participates);
    assert!(r.forwarded_bytes > 0, "distance >= 2 pairs must forward");
    assert_eq!(r.host_bytes, 0, "fast uniform rings never stage through the host");
    let host =
        Interconnect::host_only(6, PcieModel::pcie3()).price_all_gather(&owned, &participates);
    assert!(r.makespan < host.makespan);
    // Relayed bytes are the per-hop overhang of the peer traffic: every
    // record crosses at least one link, so peer_bytes exceeds the
    // forwarded share by exactly one payload per delivered batch.
    assert!(r.peer_bytes > r.forwarded_bytes);
    assert_eq!(r.peer_bytes - r.forwarded_bytes, r.payload_bytes);
}
