//! Invariant tests for the stream timeline simulators.
//!
//! The discrete-event schedulers back every runtime number the harness
//! reports, so their physical invariants get property coverage, all read
//! off the one span log (`MultiTimeline::spans`):
//!
//! * the makespan is never shorter than any single resource's busy time;
//! * no two spans on one resource overlap: the host compaction pool
//!   (shared by every device), each GPU's kernel engine, each host port
//!   (shared by its two devices) and each interconnect queue;
//! * every task phase is recorded once, on the resource its kind names,
//!   after its predecessor;
//! * fused zero-copy phases occupy bus and GPU for the *same* interval;
//! * a kernel-only task (edge data already on the device) holds its
//!   GPU and nothing else: no host port, no link queue;
//! * the multi-device scheduler at `D = 1` gives `StreamSim`'s timeline,
//!   and the host-only span log on every topology; each port (device `d`
//!   on port `d / 2`) is busy for exactly its devices' transfers;
//! * the frontier exchange's legs, played after the barrier, never
//!   overlap on a queue, follow their chain's previous hop (a staged
//!   download, the uploads it carries), and land between the busiest
//!   queue / longest chain bound and the sum of the legs.

use hytgraph::sim::{
    Interconnect, LinkSpec, MultiGpuSim, MultiTimeline, Owner, PcieModel, Phase, PhaseSpan,
    Resource, Route, SimTask, StreamSim, TopologyKind, ROUTE_BREAKPOINT_LADDER,
};
use proptest::prelude::*;
use std::collections::HashMap;

const EPS: f64 = 1e-9;

/// The host port of device `d`, stated independently of the simulator:
/// two devices per PCIe switch uplink.
fn port_of(d: usize) -> usize {
    d / 2
}

/// The per-port form of the one-bus oracles, for a task timeline on
/// `ic`: `ic` maps device `d` to port `d / 2`; every task transfer of
/// device `d` holds that port's queue, and no other queue; each port's
/// queue is busy for the sum of its devices' `pcie_busy` (within `tol`:
/// zero for dyadic durations, whose sums are exact); the makespan is at
/// least the busiest port's busy time; and the ports together carry
/// `bus_busy`. Exclusivity of each port is [`assert_exclusive`]'s.
fn assert_per_port_bus(ic: &Interconnect, tl: &MultiTimeline, tol: f64) {
    let nd = tl.per_device.len();
    assert_eq!(ic.num_host_ports(), nd.div_ceil(2), "one port per two devices");
    for d in 0..nd {
        assert_eq!(ic.host_link_of(d as u32), port_of(d), "device {d}'s port");
    }
    for s in &tl.spans {
        if let (Owner::Task { device, .. }, Resource::Link(q)) = (s.owner, s.resource) {
            assert_eq!(q, ic.queue(port_of(device), false), "device {device}'s transfer {s:?}");
        }
    }
    assert_exclusive(&tl.spans, tol, "tasks");
    let mut ports = 0.0;
    for port in 0..ic.num_host_ports() {
        let devices: f64 =
            (0..nd).filter(|&d| port_of(d) == port).map(|d| tl.per_device[d].pcie_busy).sum();
        let busy = tl.link_busy[ic.queue(port, false)];
        assert!((busy - devices).abs() <= tol, "port {port}: queue {busy} != devices {devices}");
        assert!(tl.makespan >= busy - EPS, "makespan {} < port {port} busy {busy}", tl.makespan);
        ports += busy;
    }
    assert!((ports - tl.bus_busy).abs() <= tol + EPS, "ports {ports} != bus busy {}", tl.bus_busy);
}

/// Strategy: one task of a random engine shape with millisecond-scale
/// durations in integer tenths.
fn arb_task() -> impl Strategy<Value = SimTask> {
    arb_task_in(10.0)
}

/// [`arb_task`] with durations in integer `1 / per_unit`ths: a power of
/// two keeps every sum exact, whatever its order.
fn arb_task_in(per_unit: f64) -> impl Strategy<Value = SimTask> {
    (0u8..4, 0u64..40, 0u64..40, 0u64..40).prop_map(move |(shape, a, b, c)| {
        let (a, b, c) = (a as f64 / per_unit, b as f64 / per_unit, c as f64 / per_unit);
        match shape {
            0 => SimTask::explicit(a, b),
            1 => SimTask::compaction(a, b, c),
            2 => SimTask::zero_copy(a, b),
            _ => SimTask::kernel_only(a),
        }
    })
}

/// No two spans on one resource overlap (within `tol`), whatever the
/// resource and whoever holds it.
fn assert_exclusive(spans: &[PhaseSpan], tol: f64, what: &str) {
    let mut by_start: Vec<&PhaseSpan> = spans.iter().collect();
    by_start.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut last: HashMap<Resource, &PhaseSpan> = HashMap::new();
    for s in by_start {
        if let Some(prev) = last.insert(s.resource, s) {
            assert!(s.start >= prev.end - tol, "{what}: overlapping spans {prev:?} and {s:?}");
        }
    }
}

/// The spans task `index` of device `d` recorded, in commit order.
fn spans_of(tl: &MultiTimeline, device: usize, index: usize) -> Vec<&PhaseSpan> {
    tl.spans.iter().filter(|s| s.owner == Owner::Task { device, index }).collect()
}

/// The span-log invariants of a task schedule of `lists` on `ic`: each
/// device's makespan bounds its busy times; every resource is exclusive;
/// every task records each phase once, in phase order, on the resource
/// its kind names (a fused phase both its port and its GPU, over one
/// interval); and nothing else is recorded.
fn assert_timeline_invariants(
    ic: &Interconnect,
    lists: &[Vec<SimTask>],
    tl: &MultiTimeline,
    what: &str,
) {
    for (d, dev) in tl.per_device.iter().enumerate() {
        assert!(dev.makespan >= dev.pcie_busy - EPS, "{what}: device {d} makespan < bus busy");
        assert!(dev.makespan >= dev.gpu_busy - EPS, "{what}: device {d} makespan < gpu busy");
        assert!(dev.makespan >= dev.cpu_busy - EPS, "{what}: device {d} makespan < cpu busy");
        assert!(tl.makespan >= dev.makespan - EPS, "{what}: makespan < device {d}'s");
    }
    assert_exclusive(&tl.spans, EPS, what);
    let mut recorded = 0;
    for (d, list) in lists.iter().enumerate() {
        let port = Resource::Link(ic.queue(ic.host_link_of(d as u32), false));
        for (i, task) in list.iter().enumerate() {
            let want: Vec<(Resource, bool)> = (task.phases.iter())
                .flat_map(|p| match p {
                    Phase::Cpu(_) => vec![(Resource::Cpu, false)],
                    Phase::Transfer(_) => vec![(port, false)],
                    Phase::Kernel(_) => vec![(Resource::Gpu(d), false)],
                    Phase::Fused { .. } => vec![(port, true), (Resource::Gpu(d), true)],
                    Phase::Link { .. } => panic!("{what}: a task holds no link hop"),
                })
                .collect();
            let got = spans_of(tl, d, i);
            let held: Vec<(Resource, bool)> = got.iter().map(|s| (s.resource, s.fused)).collect();
            assert_eq!(held, want, "{what}: task {i} of device {d}");
            for w in got.windows(2) {
                if w[0].fused && w[1].fused {
                    // A fused phase's port span and its GPU twin.
                    assert_eq!(
                        (w[0].start, w[0].end),
                        (w[1].start, w[1].end),
                        "{what}: fused spans diverge"
                    );
                } else {
                    assert!(w[1].start >= w[0].end, "{what}: phase before its predecessor: {w:?}");
                }
            }
            assert!(got.iter().all(|s| s.end >= s.start), "{what}: negative span");
            recorded += got.len();
        }
    }
    assert_eq!(recorded, tl.spans.len(), "{what}: spans no task owns");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn stream_sim_invariants_hold(
        tasks in proptest::collection::vec(arb_task(), 0..24),
        streams in 1usize..6,
    ) {
        let tl = StreamSim::new(streams).schedule(&tasks);
        prop_assert!(tl.makespan >= tl.pcie_busy - EPS);
        prop_assert!(tl.makespan >= tl.gpu_busy - EPS);
        prop_assert!(tl.makespan >= tl.cpu_busy - EPS);
        let sim = MultiGpuSim::new(1, streams);
        let lists = [tasks];
        let multi = sim.schedule(&lists);
        assert_timeline_invariants(&sim.interconnect, &lists, &multi, "StreamSim");
        prop_assert_eq!(format!("{:?}", multi.per_device[0]), format!("{tl:?}"));
    }

    #[test]
    fn multi_gpu_invariants_hold(
        lists in proptest::collection::vec(proptest::collection::vec(arb_task(), 0..10), 1..9),
        streams in 1usize..4,
    ) {
        let nd = lists.len();
        let sim = MultiGpuSim::new(nd, streams);
        let tl = sim.schedule(&lists);
        // Every resource is exclusive across devices, not just within one.
        assert_timeline_invariants(&sim.interconnect, &lists, &tl, "MultiGpuSim");
        // Each port's bus serialises across its devices and bounds the
        // makespan.
        assert_per_port_bus(&sim.interconnect, &tl, EPS);
        // Totals are the per-device sums.
        let bus_sum: f64 = tl.per_device.iter().map(|t| t.pcie_busy).sum();
        prop_assert!((tl.bus_busy - bus_sum).abs() < EPS);
        prop_assert!(tl.makespan >= tl.cpu_busy - EPS);
    }

    #[test]
    fn each_host_port_is_its_own_exclusive_queue(
        lists in proptest::collection::vec(
            proptest::collection::vec(arb_task_in(16.0), 0..8), 1..9),
        streams in 1usize..4,
    ) {
        let nd = lists.len();
        let ic = Interconnect::host_only(nd, PcieModel::pcie3());
        let tl = MultiGpuSim::with_interconnect(nd, streams, ic.clone()).schedule(&lists);
        // Spans of one port's devices never overlap, and the port's
        // queue is busy for exactly its devices' transfers (dyadic
        // durations, so the two sums are exact).
        assert_per_port_bus(&ic, &tl, 0.0);
        // `MultiGpuSim::new` is the host-only fabric, bit for bit.
        let new_tl = MultiGpuSim::new(nd, streams).schedule(&lists);
        prop_assert_eq!(format!("{new_tl:?}"), format!("{tl:?}"));
    }

    #[test]
    fn kernel_only_tasks_hold_no_host_port(
        lists in proptest::collection::vec(
            proptest::collection::vec(arb_task_in(16.0), 0..8), 1..9),
        kernels in proptest::collection::vec(
            proptest::collection::vec(0u64..40, 0..6), 1..9),
        streams in 1usize..4,
    ) {
        let nd = lists.len();
        let ic = Interconnect::host_only(nd, PcieModel::pcie3());
        let sim = MultiGpuSim::with_interconnect(nd, streams, ic.clone());
        // Each device's list with kernel-only tasks dealt in ahead of its
        // tasks (dyadic durations, so every busy sum is exact), and the
        // kernel time they add.
        let (with, added): (Vec<Vec<SimTask>>, Vec<f64>) = (lists.iter().zip(kernels.iter().cycle()))
            .map(|(list, ks)| {
                let mut out = Vec::new();
                for i in 0..list.len().max(ks.len()) {
                    if let Some(&k) = ks.get(i) {
                        out.push(SimTask::kernel_only(k as f64 / 16.0));
                    }
                    out.extend(list.get(i).cloned());
                }
                (out, ks.iter().map(|&k| k as f64 / 16.0).sum::<f64>())
            })
            .unzip();
        let base = sim.schedule(&lists);
        let tl = sim.schedule(&with);
        assert_timeline_invariants(&ic, &with, &tl, "with kernel-only tasks");
        // The host ports and every link queue carry exactly what they
        // carried without the kernel-only tasks…
        prop_assert_eq!(&tl.link_busy, &base.link_busy);
        prop_assert_eq!(tl.bus_busy, base.bus_busy);
        for (d, dev) in tl.per_device.iter().enumerate() {
            prop_assert_eq!(dev.pcie_busy, base.per_device[d].pcie_busy);
            // …and each kernel-only task holds its device's GPU alone.
            for (i, task) in with[d].iter().enumerate() {
                if matches!(task.phases[..], [Phase::Kernel(_)]) {
                    let held: Vec<_> = spans_of(&tl, d, i).iter().map(|s| (s.resource, s.fused)).collect();
                    prop_assert_eq!(held, vec![(Resource::Gpu(d), false)]);
                }
            }
            let base_gpu = base.per_device[d].gpu_busy;
            prop_assert!(dev.gpu_busy >= base_gpu + added[d] - EPS && dev.gpu_busy <= base_gpu + added[d] + EPS);
        }
    }

    #[test]
    fn single_device_multi_sim_equals_stream_sim(
        tasks in proptest::collection::vec(arb_task(), 0..16),
        streams in 1usize..5,
    ) {
        let single = StreamSim::new(streams).schedule(&tasks);
        let multi = MultiGpuSim::new(1, streams).schedule(std::slice::from_ref(&tasks));
        prop_assert_eq!(multi.makespan, single.makespan);
        prop_assert_eq!(format!("{:?}", multi.per_device[0]), format!("{single:?}"));
        prop_assert_eq!(multi.bus_busy, single.pcie_busy);
        prop_assert_eq!(multi.cpu_busy, single.cpu_busy);
        prop_assert_eq!(multi.per_device[0].gpu_busy, single.gpu_busy);
        // D=1 with any topology still equals StreamSim, span for span
        // the host-only log: a single device has no peer to link to, so
        // every shape degenerates to its one host port for task traffic.
        for kind in TopologyKind::ALL {
            let ic = Interconnect::build(kind, 1, PcieModel::pcie3(), LinkSpec::nvlink());
            let tl = MultiGpuSim::with_interconnect(1, streams, ic).schedule(std::slice::from_ref(&tasks));
            prop_assert_eq!(tl.makespan, single.makespan);
            prop_assert_eq!(tl.link_busy[0], single.pcie_busy);
            prop_assert_eq!(&tl.spans, &multi.spans);
        }
    }

    #[test]
    fn per_link_busy_never_exceeds_makespan(
        lists in proptest::collection::vec(proptest::collection::vec(arb_task(), 0..8), 2..5),
        streams in 1usize..4,
        kind_idx in 0usize..3,
    ) {
        let nd = lists.len();
        let kind = TopologyKind::ALL[kind_idx];
        let ic = Interconnect::build(kind, nd, PcieModel::pcie3(), LinkSpec::nvlink());
        let num_queues = ic.num_queues();
        let tl = MultiGpuSim::with_interconnect(nd, streams, ic.clone()).schedule(&lists);
        // One busy slot per contention queue (full-duplex peer links
        // expose one per direction).
        prop_assert_eq!(tl.link_busy.len(), num_queues);
        for (q, &busy) in tl.link_busy.iter().enumerate() {
            prop_assert!(busy <= tl.makespan + EPS, "queue {q} busy {busy} > makespan {}", tl.makespan);
            prop_assert!(busy >= 0.0);
        }
        // Task traffic is host-routed: each host port's queue is busy for
        // its own devices' transfers, the ports together for the bus
        // total, and the peer queues stay idle and unheld.
        assert_per_port_bus(&ic, &tl, EPS);
        prop_assert!(tl.link_busy[ic.num_host_ports()..].iter().all(|&b| b == 0.0));
        let peer = |s: &PhaseSpan| matches!(s.resource, Resource::Link(q) if q >= ic.num_host_ports());
        prop_assert!(!tl.spans.iter().any(peer));
    }

    #[test]
    fn whole_timeline_is_exclusive_per_resource(
        lists in proptest::collection::vec(proptest::collection::vec(arb_task(), 0..6), 1..9),
        owned_seed in proptest::collection::vec(0u64..2_000_000, 1..9),
        streams in 1usize..4,
        kind_idx in 0usize..3,
    ) {
        // A task schedule, then its exchange played after the barrier:
        // the one host compaction pool across every device, each host
        // port across its two devices and the legs it carries, each GPU,
        // and each peer queue hold at most one span at a time.
        let nd = lists.len();
        let kind = TopologyKind::ALL[kind_idx];
        let ic = Interconnect::build(kind, nd, PcieModel::pcie3(), LinkSpec::nvlink());
        let sim = MultiGpuSim::with_interconnect(nd, streams, ic.clone());
        let mut tl = sim.schedule(&lists);
        let owned: Vec<u64> = owned_seed.iter().cycle().take(nd).copied().collect();
        let _ = sim.schedule_exchange(&mut tl, &owned, &vec![true; nd]);
        let resources: Vec<Resource> = std::iter::once(Resource::Cpu)
            .chain((0..nd).map(Resource::Gpu))
            .chain((0..ic.num_queues()).map(Resource::Link))
            .collect();
        prop_assert!(tl.spans.iter().all(|s| resources.contains(&s.resource)));
        assert_exclusive(&tl.spans, 0.0, "the whole timeline");
        prop_assert!(tl.spans.iter().all(|s| s.end <= tl.makespan));
    }

    #[test]
    fn exchange_report_invariants_hold(
        owned in proptest::collection::vec(0u64..2_000_000, 2..7),
        kind_idx in 0usize..3,
    ) {
        let nd = owned.len();
        let kind = TopologyKind::ALL[kind_idx];
        let pcie = PcieModel::pcie3();
        let peer = LinkSpec::nvlink();
        let participates = vec![true; nd];
        let ic = Interconnect::build(kind, nd, pcie, peer);
        let r = ic.price_all_gather(&owned, &participates);
        // Per-queue busy never exceeds the makespan (legs sharing a
        // queue serialise), and the makespan never exceeds playing
        // every leg back to back.
        for &b in &r.per_queue_busy {
            prop_assert!(b <= r.makespan + EPS);
        }
        let legs: f64 = r.per_queue_busy.iter().sum();
        prop_assert!(r.makespan <= legs + EPS, "makespan {} over the legs {legs}", r.makespan);
        // A link's wire occupancy is the sum of its queues, and class
        // totals tile the per-link vector.
        let link_sum: f64 = r.per_link_busy.iter().sum();
        let queue_sum: f64 = r.per_queue_busy.iter().sum();
        prop_assert!((link_sum - queue_sum).abs() < EPS);
        prop_assert!((link_sum - r.host_time - r.peer_time).abs() < EPS);
        // The logical payload is routing-invariant…
        let host = Interconnect::build(TopologyKind::HostOnly, nd, pcie, peer)
            .price_all_gather(&owned, &participates);
        prop_assert_eq!(r.payload_bytes, host.payload_bytes);
        // …and peer links (at least as fast as the host link here) never
        // make the exchange slower than full host staging.
        prop_assert!(r.makespan <= host.makespan + EPS);
        // Host-only stages everything on the ports: one queue per two
        // devices, nothing rides or relays over peers, the makespan is at
        // least the busiest port's legs and at most all of them back to
        // back, and a one-port fabric (D ≤ 2) is the serial bus.
        prop_assert_eq!(host.per_queue_busy.len(), nd.div_ceil(2));
        let busiest = host.per_queue_busy.iter().fold(0.0f64, |a, &b| a.max(b));
        prop_assert!(host.makespan >= busiest, "makespan {} < busiest port {busiest}", host.makespan);
        prop_assert!(host.makespan <= host.host_time + EPS);
        if nd <= 2 {
            prop_assert_eq!(host.makespan, host.host_time);
        }
        prop_assert_eq!(host.peer_bytes, 0);
        prop_assert_eq!(host.forwarded_bytes, 0);
    }

    #[test]
    fn played_legs_respect_queues_chains_and_bounds(
        lists in proptest::collection::vec(proptest::collection::vec(arb_task(), 0..4), 2..8),
        owned_seed in proptest::collection::vec(0u64..2_000_000, 2..8),
        participates_bits in proptest::collection::vec(any::<bool>(), 2..8),
        kind_idx in 0usize..3,
        slow_bridge in any::<bool>(),
        laddered in any::<bool>(),
    ) {
        let nd = lists.len();
        // About a fifth of the batches are empty: a holder with nothing
        // to publish still receives.
        let owned: Vec<u64> = (owned_seed.iter().cycle().take(nd))
            .map(|&o| if o < 400_000 { 0 } else { o })
            .collect();
        let mut participates: Vec<bool> =
            participates_bits.iter().cycle().take(nd).copied().collect();
        participates[0] = true;
        let pcie = PcieModel::pcie3();
        let kind = TopologyKind::ALL[kind_idx];
        // A named shape, optionally with a slow (0, 1) bridge (added on
        // host-only) and the sized route ladder.
        let mut ic = Interconnect::build(kind, nd, pcie, LinkSpec::nvlink());
        if slow_bridge {
            ic = ic.with_link_spec(0, 1, LinkSpec::with_nominal_bw(2.0e9));
        }
        if laddered {
            ic = ic.with_route_breakpoints(&ROUTE_BREAKPOINT_LADDER);
        }
        let sim = MultiGpuSim::with_interconnect(nd, 2, ic.clone());
        let mut tl = sim.schedule(&lists);
        let barrier = tl.makespan;
        let r = sim.schedule_exchange(&mut tl, &owned, &participates);
        prop_assert_eq!(tl.makespan, barrier + r.makespan);
        prop_assert_eq!(r, ic.price_all_gather(&owned, &participates));
        // Spans on one queue never overlap, tasks' and legs' alike, and
        // no leg starts before the barrier.
        assert_exclusive(&tl.spans, EPS, "tasks and exchange legs");
        let legs: Vec<&PhaseSpan> = tl.spans.iter().filter(|s| matches!(s.owner, Owner::Leg(_))).collect();
        prop_assert!(legs.iter().all(|s| s.start >= barrier && s.end <= tl.makespan));
        prop_assert!(legs.iter().all(|s| matches!(s.resource, Resource::Link(_)) && !s.fused));
        // Hop k + 1 starts at or after hop k ends (a chain's hops are
        // committed, so recorded, in hop order).
        for chain in 0..legs.len() {
            let hops: Vec<&&PhaseSpan> = legs.iter().filter(|s| s.owner == Owner::Leg(chain)).collect();
            for w in hops.windows(2) {
                prop_assert!(w[1].start >= w[0].end, "hop before its predecessor: {:?} / {:?}", w[0], w[1]);
            }
        }
        // The deleted max(busiest queue, longest chain) rule is a lower
        // bound; the legs played back to back an upper one.
        let mut chain = 0.0f64;
        for s in (0..nd as u32).filter(|&s| participates[s as usize] && owned[s as usize] > 0) {
            for d in (0..nd as u32).filter(|&d| d != s && participates[d as usize]) {
                if ic.route(s, d, owned[s as usize]) != &Route::HostStaged {
                    chain = chain.max(ic.route_cost(s, d, owned[s as usize]));
                }
            }
        }
        let busiest = r.per_queue_busy.iter().fold(chain, |a, &b| a.max(b));
        let legs: f64 = r.per_queue_busy.iter().sum();
        prop_assert!(busiest <= r.makespan + EPS, "makespan {} under {busiest}", r.makespan);
        prop_assert!(r.makespan <= legs + EPS, "makespan {} over {legs}", r.makespan);
        // Peer queues carry only legs.
        for q in ic.num_host_ports()..ic.num_queues() {
            prop_assert!((tl.link_busy[q] - r.per_queue_busy[q]).abs() < EPS);
        }

        // Host-only: each port is the serial bus for its own legs, bit
        // for bit. Per participant, one upload and one download on its
        // port (`d / 2`), each leg the cheaper of an explicit copy and a
        // zero-copy run; a port plays its uploads, then its downloads,
        // in device order. The makespan is at least the busiest port and
        // at most every leg back to back; one port (D ≤ 2) is exactly
        // the serial bus.
        let host = Interconnect::host_only(nd, pcie).price_all_gather(&owned, &participates);
        let holders = participates.iter().filter(|&&p| p).count() as u64;
        let total: u64 = (0..nd).filter(|&d| participates[d]).map(|d| owned[d]).sum();
        let mut port_busy = vec![0.0; nd.div_ceil(2)];
        let mut bytes = 0;
        if holders > 1 {
            let holding = (0..nd).filter(|&d| participates[d]);
            let ups = holding.clone().map(|d| (d, owned[d]));
            for (d, b) in ups.chain(holding.map(|d| (d, total - owned[d]))).filter(|&(_, b)| b > 0) {
                port_busy[port_of(d)] += pcie.hybrid_copy_time(b);
                bytes += b;
            }
        }
        prop_assert_eq!(&host.per_queue_busy, &port_busy);
        let serial: f64 = port_busy.iter().sum();
        prop_assert_eq!((host.host_time, host.host_bytes), (serial, bytes));
        let busiest = port_busy.iter().fold(0.0f64, |a, &b| a.max(b));
        prop_assert!(host.makespan >= busiest && host.makespan <= serial + EPS);
        if nd <= 2 {
            prop_assert_eq!(host.makespan, serial);
        }

        // Host-only: each download starts once the uploads it carries
        // have landed. The chains are one upload per publisher, then one
        // download per receiver, in device order.
        let sim = MultiGpuSim::with_interconnect(nd, 2, Interconnect::host_only(nd, pcie));
        let mut tl = sim.schedule(&lists);
        let _ = sim.schedule_exchange(&mut tl, &owned, &participates);
        let publishers: Vec<usize> = (0..nd).filter(|&d| participates[d] && owned[d] > 0).collect();
        let receivers = (0..nd).filter(|&d| participates[d] && publishers.iter().any(|&s| s != d));
        let span = |chain: usize| tl.spans.iter().find(|s| s.owner == Owner::Leg(chain)).expect("a leg");
        if holders > 1 {
            for (k, d) in receivers.enumerate() {
                let down = span(publishers.len() + k);
                for (j, _) in publishers.iter().enumerate().filter(|&(_, &s)| s != d) {
                    let up = span(j);
                    prop_assert!(down.start >= up.end, "download into {d} before upload {j} landed");
                }
            }
        }
        prop_assert_eq!((host.peer_time, host.peer_bytes, host.forwarded_bytes), (0.0, 0, 0));
        prop_assert_eq!(host.payload_bytes, if holders > 1 { total * (holders - 1) } else { 0 });

        // Uniform clique: every batch rides its own direction queue, so
        // the makespan is the longest leg.
        let spec = LinkSpec::nvlink();
        let clique = Interconnect::build(TopologyKind::AllToAll, nd, pcie, spec)
            .price_all_gather(&owned, &participates);
        let longest = (0..nd)
            .filter(|&d| participates[d] && participates.iter().filter(|&&p| p).count() > 1)
            .map(|d| spec.transfer_time(owned[d]))
            .fold(0.0, f64::max);
        prop_assert_eq!(clique.makespan, longest);
    }
}

#[test]
fn fused_phase_holds_bus_and_gpu_for_identical_interval() {
    // Deterministic version of the fused invariant with asymmetric times:
    // wall interval is max(transfer, kernel) on both resources.
    let tl = MultiGpuSim::new(1, 2).schedule(&[[SimTask::zero_copy(5.0, 2.0)]]);
    let held: Vec<_> = tl.spans.iter().map(|s| (s.resource, s.start, s.end, s.fused)).collect();
    assert_eq!(held, [(Resource::Link(0), 0.0, 5.0, true), (Resource::Gpu(0), 0.0, 5.0, true)]);
    // Busy accounting still records the true demand, not the wall interval.
    assert_eq!(tl.per_device[0].pcie_busy, 5.0);
    assert_eq!(tl.per_device[0].gpu_busy, 2.0);
}

#[test]
fn legs_go_earliest_first_and_ties_to_the_longer_chain() {
    // Device 0 of a 4-ring publishes to devices 1 and 2; device 3 holds
    // no shard. Both batches start on the 0 → 1 queue at time 0: the
    // batch bound for 2 (two hops) goes first, so its second hop
    // overlaps the direct batch and the exchange takes two hop times,
    // where pair order would have taken three.
    let ic = Interconnect::build(TopologyKind::Ring, 4, PcieModel::pcie3(), LinkSpec::nvlink());
    let sim = MultiGpuSim::with_interconnect(4, 1, ic);
    // Four 0.5 s bus transfers, two on each of the two host ports: the
    // barrier is at 1.
    let mut tl = sim.schedule(&vec![vec![SimTask::explicit(0.5, 0.0)]; 4]);
    assert_eq!(tl.makespan, 1.0, "each port serialises its two devices' transfers");
    let b = 200_000;
    let r = sim.schedule_exchange(&mut tl, &[b, 0, 0, 0], &[true, true, true, false]);
    let hop = LinkSpec::nvlink().transfer_time(b);
    assert_eq!(r.makespan, hop + hop);
    assert_eq!(tl.makespan, 1.0 + r.makespan, "the legs play after the barrier");
    // The tasks' eight spans come first, all before the barrier; the
    // legs follow. Chain 0 is the direct batch, chain 1 the two-hop one.
    // Commit order: chain 1's first hop, then (a tie at one hop left
    // each) the lower chain, then chain 1's second hop.
    let (tasks, legs) = tl.spans.split_at(8);
    assert!(tasks.iter().all(|s| matches!(s.owner, Owner::Task { .. }) && s.end <= 1.0));
    let chains: Vec<Owner> = legs.iter().map(|s| s.owner).collect();
    assert_eq!(chains, [Owner::Leg(1), Owner::Leg(0), Owner::Leg(1)]);
    assert_eq!(legs[0].start, 1.0);
}
