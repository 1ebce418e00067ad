use super::*;
use crate::pcie::PcieModel;

const EPS: f64 = 1e-12;

fn pcie() -> PcieModel {
    PcieModel::pcie3()
}

#[test]
fn topology_kind_parse_roundtrips() {
    for k in TopologyKind::ALL {
        assert_eq!(TopologyKind::parse(k.name()), Some(k));
    }
    // Other fabrics are a named shape edited per link, not a shape.
    assert_eq!(TopologyKind::parse("mesh"), None);
    assert_eq!(TopologyKind::parse("a2a"), Some(TopologyKind::AllToAll));
    assert_eq!(TopologyKind::parse("HOST"), Some(TopologyKind::HostOnly));
    assert_eq!(TopologyKind::parse("torus"), None);
}

#[test]
fn link_counts_per_topology() {
    let p = pcie();
    let s = LinkSpec::nvlink();
    // One host port per two devices, then the peers.
    assert_eq!(Interconnect::build(TopologyKind::HostOnly, 4, p, s).num_links(), 2);
    assert_eq!(Interconnect::build(TopologyKind::HostOnly, 2, p, s).num_links(), 1);
    assert_eq!(Interconnect::build(TopologyKind::Ring, 4, p, s).num_links(), 2 + 4);
    assert_eq!(Interconnect::build(TopologyKind::Ring, 2, p, s).num_links(), 1 + 1);
    assert_eq!(Interconnect::build(TopologyKind::Ring, 1, p, s).num_links(), 1);
    assert_eq!(Interconnect::build(TopologyKind::AllToAll, 4, p, s).num_links(), 2 + 6);
    // ⌈D / 2⌉ host links lead the table; the peers follow them.
    for (nd, host_links, peers) in
        [(8, 4, 8), (7, 4, 7), (5, 3, 5), (3, 2, 3), (2, 1, 1), (1, 1, 0)]
    {
        let ic = Interconnect::build(TopologyKind::Ring, nd, p, s);
        assert_eq!(ic.num_host_ports(), host_links, "D={nd}");
        assert_eq!(ic.num_links(), host_links + peers, "D={nd}");
        let (head, tail) = ic.links().split_at(host_links);
        assert!(head.iter().all(|l| *l == Link::Host(p)), "host ports lead, priced by `host`");
        assert!(tail.iter().all(|l| matches!(l, Link::Peer { .. })), "peers follow");
    }
}

#[test]
fn queue_counts_follow_duplex() {
    let p = pcie();
    // One queue per host port, numbered first, then one per direction of
    // every peer link.
    let full = Interconnect::build(TopologyKind::Ring, 4, p, LinkSpec::nvlink());
    assert_eq!(full.num_queues(), 2 + 2 * 4);
    // A host port is always one queue.
    for port in 0..2 {
        assert_eq!(full.queue(port, false), port);
        assert_eq!(full.queue(port, true), port);
    }
    assert_eq!((full.queue(2, false), full.queue(2, true)), (2, 3));
    assert_eq!(Interconnect::host_only(2, p).num_queues(), 1);
    assert_eq!(Interconnect::host_only(4, p).num_queues(), 2);
    assert_eq!(Interconnect::host_only(5, p).num_queues(), 3);
    assert_eq!(Interconnect::host_only(6, p).num_queues(), 3);
}

#[test]
fn ring_routes_neighbours_direct_and_opposites_forwarded() {
    let ic = Interconnect::build(TopologyKind::Ring, 4, pcie(), LinkSpec::nvlink());
    assert!(matches!(ic.route(0, 1, ROUTE_PROBE_BYTES), Route::Direct(_)));
    assert!(matches!(ic.route(3, 0, ROUTE_PROBE_BYTES), Route::Direct(_)));
    // Opposite pairs forward two fast hops rather than paying two
    // host legs.
    match ic.route(0, 2, ROUTE_PROBE_BYTES) {
        Route::Forwarded(hops) => assert_eq!(hops.len(), 2),
        r => panic!("expected a 2-hop forward, got {r:?}"),
    }
    assert!(matches!(ic.route(1, 3, ROUTE_PROBE_BYTES), Route::Forwarded(_)));
    // Peer lookup is direction-agnostic and O(1).
    assert_eq!(ic.peer_link(1, 0), ic.peer_link(0, 1));
    assert_eq!(ic.peer_link(0, 2), None);
}

#[test]
fn all_to_all_routes_everything_direct() {
    let ic = Interconnect::build(TopologyKind::AllToAll, 5, pcie(), LinkSpec::nvlink());
    for a in 0..5u32 {
        for b in 0..5u32 {
            if a != b {
                assert!(matches!(ic.route(a, b, ROUTE_PROBE_BYTES), Route::Direct(_)), "{a}->{b}");
            }
        }
    }
}

#[test]
fn host_only_routes_everything_host_staged() {
    let ic = Interconnect::host_only(3, pcie());
    for a in 0..3u32 {
        for b in 0..3u32 {
            if a != b {
                assert_eq!(ic.route(a, b, ROUTE_PROBE_BYTES), &Route::HostStaged);
            }
        }
    }
}

#[test]
fn slow_bridge_shifts_its_pair_back_to_host_staging() {
    // D = 8 uniform ring: every pair rides the peer fabric (max 4
    // hops beat two host legs).
    let uniform = Interconnect::build(TopologyKind::Ring, 8, pcie(), LinkSpec::nvlink());
    for d in 1..8u32 {
        assert_ne!(uniform.route(0, d, ROUTE_PROBE_BYTES), &Route::HostStaged, "0->{d}");
    }
    // Derate the (0, 1) bridge to 2 GB/s: the direct hop is slower
    // than host staging and so is the 7-hop detour, so exactly that
    // pair falls back to the host; its neighbours re-route around.
    let slow = uniform.clone().with_link_spec(0, 1, LinkSpec::with_nominal_bw(2.0e9));
    assert_eq!(slow.route(0, 1, ROUTE_PROBE_BYTES), &Route::HostStaged);
    assert_eq!(slow.route(1, 0, ROUTE_PROBE_BYTES), &Route::HostStaged);
    // A pair whose short path crosses the slow bridge detours the
    // long way around instead (0 → 7 → … → 3 is five fast hops,
    // cheaper than both the bridge and the host).
    match slow.route(0, 3, ROUTE_PROBE_BYTES) {
        Route::Forwarded(hops) => {
            assert_eq!(hops.len(), 5, "must detour away from the slow bridge")
        }
        r => panic!("expected a detour, got {r:?}"),
    }
    // Route costs still respect the choice: host staging is cheapest
    // for the slow pair at the probe size.
    let probe = ROUTE_PROBE_BYTES;
    let direct_slow = slow.transfer_time(slow.peer_link(0, 1).unwrap(), probe);
    assert!(slow.route_cost(0, 1, probe) < direct_slow);
}

#[test]
fn payload_bytes_are_topology_invariant() {
    let p = pcie();
    let owned = [400u64, 900, 16, 0];
    let participates = [true; 4];
    let payloads: Vec<u64> = TopologyKind::ALL
        .iter()
        .map(|&k| {
            Interconnect::build(k, 4, p, LinkSpec::nvlink())
                .price_all_gather(&owned, &participates)
                .payload_bytes
        })
        .collect();
    assert_eq!(payloads[0], (400 + 900 + 16) * 3);
    assert!(payloads.windows(2).all(|w| w[0] == w[1]), "{payloads:?}");
}

#[test]
fn peer_links_offload_and_shorten_the_exchange() {
    let p = pcie();
    // Large enough batches that bandwidth, not launch latency or TLP
    // quantisation, dominates (tiny copies price identically on every
    // route, which is the realistic fixed-cost floor).
    let owned = [256_000u64; 4];
    let participates = [true; 4];
    let host = Interconnect::build(TopologyKind::HostOnly, 4, p, LinkSpec::nvlink())
        .price_all_gather(&owned, &participates);
    let ring = Interconnect::build(TopologyKind::Ring, 4, p, LinkSpec::nvlink())
        .price_all_gather(&owned, &participates);
    let a2a = Interconnect::build(TopologyKind::AllToAll, 4, p, LinkSpec::nvlink())
        .price_all_gather(&owned, &participates);
    assert!(ring.makespan < host.makespan, "ring {} host {}", ring.makespan, host.makespan);
    assert!(a2a.makespan <= ring.makespan, "a2a {} ring {}", a2a.makespan, ring.makespan);
    assert!(ring.host_bytes < host.host_bytes);
    assert_eq!(a2a.host_bytes, 0, "a clique never stages through the host");
    assert!(a2a.peer_bytes > 0 && ring.peer_bytes > 0);
    // Opposite ring pairs forward through a neighbour now.
    assert!(ring.forwarded_bytes > 0);
    assert_eq!(a2a.forwarded_bytes, 0, "a clique never forwards");
}

#[test]
fn full_duplex_overlaps_the_symmetric_legs() {
    // Two devices, one link, symmetric batches: each direction
    // queue carries one leg, so the legs overlap exactly where one
    // shared queue (the link's total wire occupancy) would have
    // serialised them.
    let owned = [64_000u64, 64_000];
    let leg = LinkSpec::nvlink().transfer_time(64_000);
    let full = Interconnect::build(TopologyKind::Ring, 2, pcie(), LinkSpec::nvlink())
        .price_all_gather(&owned, &[true; 2]);
    assert!((full.makespan - leg).abs() < EPS, "symmetric legs must overlap");
    assert!((full.per_link_busy[1] - 2.0 * leg).abs() < EPS);
}

#[test]
fn sparse_forwarded_exchange_cannot_undercut_its_hop_chain() {
    // One publisher, one opposite-side receiver on a 4-ring: each of
    // the batch's two hops has its queue to itself, yet the second
    // waits for the first, so the exchange takes two hop times.
    let ic = Interconnect::build(TopologyKind::Ring, 4, pcie(), LinkSpec::nvlink());
    let b = 200_000u64;
    let r = ic.price_all_gather(&[b, 0, 0, 0], &[true, false, true, false]);
    let hop = LinkSpec::nvlink().transfer_time(b);
    assert_eq!(r.makespan, hop + hop, "the second hop starts when the first lands");
    let busiest = r.per_queue_busy.iter().fold(0.0f64, |a, &x| a.max(x));
    assert_eq!(busiest, hop, "each queue carries one hop");
}

#[test]
fn forwarded_legs_price_as_the_sum_of_their_hops() {
    let ic = Interconnect::build(TopologyKind::Ring, 4, pcie(), LinkSpec::nvlink());
    let b = 100_000u64;
    let hop = LinkSpec::nvlink().transfer_time(b);
    // Distance-2 pair: cost is exactly two hops, never less (the
    // triangle inequality over its legs).
    assert!((ic.route_cost(0, 2, b) - 2.0 * hop).abs() < EPS);
    assert!(ic.route_cost(0, 2, b) >= ic.route_cost(0, 1, b) - EPS);
    // And the direct pair prices one hop.
    assert!((ic.route_cost(0, 1, b) - hop).abs() < EPS);
}

#[test]
fn link_spec_edits_price_mixed_generations_per_link() {
    let p = pcie();
    let fast = LinkSpec::with_nominal_bw(200.0e9);
    let slow = LinkSpec::with_nominal_bw(25.0e9);
    // A sparse fabric: the bare host-only shape plus two added links,
    // appended after its two host ports.
    let ic = Interconnect::host_only(3, p).with_link_spec(0, 1, fast).with_link_spec(1, 2, slow);
    assert_eq!(ic.kind(), TopologyKind::HostOnly, "the shape it was edited from");
    assert_eq!(ic.num_links(), 2 + 2);
    assert_eq!((ic.peer_link(0, 1), ic.peer_link(1, 2)), (Some(2), Some(3)));
    let b = 1 << 20;
    let l01 = ic.peer_link(0, 1).unwrap();
    let l12 = ic.peer_link(1, 2).unwrap();
    assert!(ic.transfer_time(l01, b) < ic.transfer_time(l12, b));
    // (0, 2) has no link: it forwards over both generations.
    match ic.route(0, 2, ROUTE_PROBE_BYTES) {
        Route::Forwarded(hops) => assert_eq!(hops, &vec![l01, l12]),
        r => panic!("expected forwarding, got {r:?}"),
    }
    let expect = ic.transfer_time(l01, b) + ic.transfer_time(l12, b);
    assert!((ic.route_cost(0, 2, b) - expect).abs() < EPS);
}

#[test]
fn link_spec_edits_keep_link_and_endpoint_order() {
    let p = pcie();
    let specs =
        [LinkSpec::with_nominal_bw(50.0e9), LinkSpec::nvlink(), LinkSpec::with_nominal_bw(100.0e9)];
    let ic = Interconnect::build(TopologyKind::Ring, 3, p, specs[0])
        .with_link_spec(1, 2, specs[1])
        .with_link_spec(2, 0, specs[2]);
    assert_eq!(ic.num_links(), 2 + 3);
    let l20 = ic.peer_link(2, 0).unwrap();
    // Re-pricing keeps the ring's link order (after the two host ports)
    // and endpoint order.
    assert_eq!(l20, 4);
    assert_eq!(ic.links()[l20], Link::Peer { ends: (2, 0), spec: specs[2] });
    assert_eq!(
        ic.links()[ic.peer_link(1, 2).unwrap()],
        Link::Peer { ends: (1, 2), spec: specs[1] }
    );
    let b = 1 << 20;
    // Link (2, 0) carries the 100 GB/s spec and is the fastest peer.
    for l in ic.num_host_ports()..ic.num_links() {
        if l != l20 {
            assert!(ic.transfer_time(l20, b) < ic.transfer_time(l, b) + EPS);
        }
    }
}

#[test]
fn all_gather_degenerate_cases_are_free() {
    let ic = Interconnect::build(TopologyKind::Ring, 3, pcie(), LinkSpec::nvlink());
    // One participant: no peers.
    let r = ic.price_all_gather(&[10, 0, 0], &[true, false, false]);
    assert_eq!(r.makespan, 0.0);
    assert_eq!(r.payload_bytes, 0);
    // Nothing to publish.
    let r = ic.price_all_gather(&[0, 0, 0], &[true, true, true]);
    assert_eq!(r.makespan, 0.0);
    assert_eq!((r.host_bytes, r.peer_bytes), (0, 0));
}

#[test]
fn makespan_is_at_least_the_busiest_queue_and_the_longest_chain() {
    // Between max(busiest queue, longest chain) and the sum of the legs.
    let ic = Interconnect::build(TopologyKind::Ring, 5, pcie(), LinkSpec::nvlink());
    let owned = [100, 2000, 3, 77, 900];
    let r = ic.price_all_gather(&owned, &[true; 5]);
    let mut chain = 0.0f64;
    for s in 0..5u32 {
        for d in (0..5u32).filter(|&d| d != s) {
            chain = chain.max(ic.route_cost(s, d, owned[s as usize]));
        }
    }
    let busiest = r.per_queue_busy.iter().fold(chain, |a, &b| a.max(b));
    let legs: f64 = r.per_queue_busy.iter().sum();
    assert!(busiest - EPS <= r.makespan && r.makespan <= legs + EPS, "{busiest} {r:?}");
    // Per-link busy sums its direction queues and tiles the class
    // totals.
    let mut q = 0;
    for (l, link) in ic.links().iter().enumerate() {
        let n = if matches!(link, Link::Peer { .. }) { 2 } else { 1 };
        let sum: f64 = r.per_queue_busy[q..q + n].iter().sum();
        assert!((r.per_link_busy[l] - sum).abs() < EPS);
        q += n;
    }
    let sum: f64 = r.per_link_busy.iter().sum();
    assert!((sum - r.host_time - r.peer_time).abs() < EPS);
}

/// A 3-device fabric whose (0, 1) pair has a slow direct bridge beside
/// a fast 2-hop detour: bulk batches should forward, tiny ones go
/// direct (two hop latencies cost more than the slow wire). The host is
/// a PCIe x1-class link, so that a tiny batch's two zero-copy host legs
/// cannot undercut the peer paths this fixture compares.
fn slow_direct_fast_detour() -> Interconnect {
    let fast = LinkSpec::with_nominal_bw(50.0e9);
    let slow = LinkSpec::with_nominal_bw(2.0e9);
    Interconnect::host_only(3, PcieModel::with_nominal_bw(1.0e9))
        .with_link_spec(0, 1, slow)
        .with_link_spec(0, 2, fast)
        .with_link_spec(1, 2, fast)
}

#[test]
fn breakpoint_ladder_is_sorted_deduped_and_defaults_to_the_single_probe() {
    let ic = Interconnect::build(TopologyKind::Ring, 4, pcie(), LinkSpec::nvlink());
    assert_eq!(ic.route_breakpoints(), &[ROUTE_PROBE_BYTES]);
    let laddered = ic.clone().with_route_breakpoints(&[1 << 20, 4 << 10, 4 << 10, 64 << 20]);
    assert_eq!(laddered.route_breakpoints(), &[4 << 10, 1 << 20, 64 << 20]);
    // Re-probing at the single default size reproduces the default
    // tables exactly.
    let same = laddered.with_route_breakpoints(&[ROUTE_PROBE_BYTES]);
    assert_eq!(same, ic);
}

#[test]
fn one_build_with_edits_and_ladder_equals_the_chained_build() {
    let (fast, slow) = (LinkSpec::with_nominal_bw(50.0e9), LinkSpec::with_nominal_bw(2.0e9));
    // Re-price a ring link, add a chord, then re-price the chord named
    // from its other end.
    let edits = [(0, 1, slow), (0, 2, fast), (2, 0, slow)];
    for kind in TopologyKind::ALL {
        let mut chained = Interconnect::build(kind, 4, pcie(), LinkSpec::nvlink());
        for &(a, b, spec) in &edits {
            chained = chained.with_link_spec(a, b, spec);
        }
        let chained = chained.with_route_breakpoints(&ROUTE_BREAKPOINT_LADDER);
        let once = Interconnect::build_with(
            kind,
            4,
            pcie(),
            LinkSpec::nvlink(),
            &edits,
            &ROUTE_BREAKPOINT_LADDER,
        );
        assert_eq!(once, chained, "{kind:?}");
    }
}

#[test]
fn sized_routes_let_tiny_batches_take_fewer_hops_than_bulk() {
    let ic = slow_direct_fast_detour().with_route_breakpoints(&ROUTE_BREAKPOINT_LADDER);
    // Bandwidth-bound bulk forwards over the fast detour…
    match ic.route(0, 1, 64 << 20) {
        Route::Forwarded(hops) => assert_eq!(hops.len(), 2),
        r => panic!("bulk should detour, got {r:?}"),
    }
    // …while the latency-bound tiny batch rides the slow wire
    // directly (one launch beats two).
    assert!(
        matches!(ic.route(0, 1, 4 << 10), Route::Direct(_)),
        "tiny batches should go direct, got {:?}",
        ic.route(0, 1, 4 << 10)
    );
    // Each choice is the cheaper one at its own size.
    let direct = ic.peer_link(0, 1).unwrap();
    assert!(ic.route_cost(0, 1, 4 << 10) <= ic.transfer_time(direct, 4 << 10) + EPS);
    assert!(ic.route_cost(0, 1, 64 << 20) < ic.transfer_time(direct, 64 << 20));
    // Sizes between rungs round up to the next rung's table.
    assert_eq!(ic.route(0, 1, (4 << 10) + 1), ic.route(0, 1, 64 << 10));
    // Sizes above the top rung use the top table.
    assert_eq!(ic.route(0, 1, 1 << 40), ic.route(0, 1, 64 << 20));
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "src == dst is never routed")]
fn routing_a_device_to_itself_fails_loudly() {
    let ic = Interconnect::build(TopologyKind::Ring, 4, pcie(), LinkSpec::nvlink());
    let _ = ic.route(2, 2, ROUTE_PROBE_BYTES);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "out of range")]
fn host_link_of_rejects_devices_the_topology_does_not_span() {
    let ic = Interconnect::build(TopologyKind::Ring, 4, pcie(), LinkSpec::nvlink());
    let _ = ic.host_link_of(4);
}

#[test]
fn host_link_of_maps_every_spanned_device_to_its_host_port() {
    let ports_of = |nd: usize| {
        let ic = Interconnect::build(TopologyKind::Ring, nd, pcie(), LinkSpec::nvlink());
        (0..nd as u32).map(|d| ic.host_link_of(d)).collect::<Vec<_>>()
    };
    assert_eq!(ports_of(8), [0, 0, 1, 1, 2, 2, 3, 3]);
    // An odd count leaves the last port with one device.
    assert_eq!(ports_of(5), [0, 0, 1, 1, 2]);
    assert_eq!(ports_of(2), [0; 2]);
    assert_eq!(ports_of(1), [0]);
    // Every port index is a host link, and the peers start after them.
    let ring = Interconnect::build(TopologyKind::Ring, 8, pcie(), LinkSpec::nvlink());
    for d in 0..8 {
        assert!(matches!(ring.links()[ring.host_link_of(d)], Link::Host(_)), "device {d}");
    }
    assert_eq!(ring.peer_link(0, 1), Some(ring.num_host_ports()));
}

#[test]
fn host_staging_prices_the_source_port_plus_the_destination_port() {
    // Identical ports price identically, so the staged route costs two
    // legs whether the pair shares a port or not, bit for bit one
    // port's `2 ×`.
    let b = 300_000;
    let leg = Link::Host(pcie()).transfer_time(b);
    let ic = Interconnect::host_only(4, pcie());
    for (s, d) in [(0, 1), (1, 2), (3, 0), (2, 3)] {
        assert_eq!(ic.route(s, d, b), &Route::HostStaged);
        assert_eq!(ic.route_cost(s, d, b), 2.0 * leg, "{s}->{d}");
    }
    // Staged legs ride their own ports: publishers behind different
    // ports upload concurrently, so the exchange is shorter than with
    // both publishers behind port 0, while moving the same bytes over
    // the same total busy time.
    let all = [true; 4];
    let split = ic.price_all_gather(&[b, 0, b, 0], &all);
    let packed = ic.price_all_gather(&[b, b, 0, 0], &all);
    assert_eq!((split.host_bytes, split.payload_bytes), (packed.host_bytes, packed.payload_bytes));
    assert!((split.host_time - packed.host_time).abs() < EPS);
    assert!(split.makespan < packed.makespan, "{} !< {}", split.makespan, packed.makespan);
    for r in [&split, &packed] {
        assert_eq!(r.per_queue_busy.len(), 2, "one queue per port");
        // No port can finish before its own legs have played.
        let busiest = r.per_queue_busy.iter().fold(0.0f64, |a, &x| a.max(x));
        assert!(r.makespan >= busiest - EPS, "{} < {busiest}", r.makespan);
    }
    // At D = 2 both devices share one port: the serial bus, bit for bit.
    let one = Interconnect::host_only(2, pcie()).price_all_gather(&[b, b], &[true; 2]);
    assert_eq!(one.per_queue_busy.len(), 1);
    assert_eq!(one.makespan, one.per_queue_busy[0]);
    assert_eq!(one.makespan, leg + leg + leg + leg);
}

#[test]
fn a_staged_download_waits_for_the_uploads_it_carries() {
    // Device 0 alone publishes. Its upload holds port 0; device 1's
    // download follows it there, and devices 2 and 3 download on port 1
    // once the batch is in host memory: three legs, not the two that
    // would start port 1 before the data exists.
    let b = 300_000;
    let leg = Link::Host(pcie()).transfer_time(b);
    let ic = Interconnect::host_only(4, pcie());
    let r = ic.price_all_gather(&[b, 0, 0, 0], &[true; 4]);
    assert_eq!(r.makespan, leg + leg + leg);
    assert!(r.makespan >= ic.route_cost(0, 3, b) + leg);
    assert_eq!(r.per_queue_busy, [leg + leg, leg + leg]);
}

#[test]
fn link_spec_scaling_shrinks_latency_only() {
    let s = LinkSpec::nvlink();
    let sc = s.scaled(10);
    assert_eq!(LinkSpec { latency: s.latency, ..sc }, s, "only the latency moves");
    assert!((sc.latency - s.latency / 1024.0).abs() < 1e-18);
    assert_eq!(s.transfer_time(0), 0.0);
    assert!(s.transfer_time(1 << 20) > s.latency);
}

fn ring4_with(spec: LinkSpec) -> Interconnect {
    Interconnect::build(TopologyKind::Ring, 4, pcie(), LinkSpec::nvlink())
        .with_link_spec(0, 1, spec)
}

#[test]
#[should_panic(expected = "peer link (0, 1) needs a finite positive bandwidth")]
fn negative_bandwidth_links_are_rejected_where_they_enter_the_fabric() {
    // Negative hop costs would make route search's predecessor links
    // cycle, so the hop list would never end.
    let _ = ring4_with(LinkSpec::with_nominal_bw(-1.0e9));
}

#[test]
#[should_panic(expected = "peer link (0, 1) needs a finite positive bandwidth")]
fn zero_bandwidth_links_are_rejected_where_they_enter_the_fabric() {
    // An infinitely slow link would otherwise read as a missing one.
    let _ = ring4_with(LinkSpec::with_nominal_bw(0.0));
}

#[test]
#[should_panic(expected = "peer link (0, 1) needs a finite positive bandwidth")]
fn nan_bandwidth_links_are_rejected_where_they_enter_the_fabric() {
    let _ = ring4_with(LinkSpec { bandwidth: f64::NAN, ..LinkSpec::nvlink() });
}
