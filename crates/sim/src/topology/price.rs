//! The frontier all-gather over the routed interconnect: each pair's
//! batch routed into legs, written against `route`'s public lookups
//! only, then played on the one list scheduler ([`crate::MultiGpuSim`]).

use super::route::{Interconnect, Route};
use super::spec::Link;
use crate::multi::{play_legs, Legs, MultiTimeline};
use crate::streams::Phase;
use crate::SimTime;

impl Interconnect {
    /// One hop of a `bytes` batch over `link`, leaving `from`: its leg on
    /// that direction's queue (busy time charged to `report`) and the
    /// device at the other end (`from` again on a host port).
    fn hop(&self, report: &mut ExchangeReport, from: u32, link: usize, bytes: u64) -> (Phase, u32) {
        let time = self.transfer_time(link, bytes);
        let (reverse, to) = match self.links()[link] {
            Link::Peer { ends: (a, b), .. } => (from != a, if from == a { b } else { a }),
            Link::Host(_) => (false, from),
        };
        let queue = self.queue(link, reverse);
        report.per_queue_busy[queue] += time;
        report.per_link_busy[link] += time;
        (Phase::Link { queue, time }, to)
    }

    /// Price the end-of-iteration frontier all-gather: participating
    /// device `d` publishes `owned[d]` bytes and must receive every other
    /// participant's batch.
    ///
    /// Each pair's batch is routed into legs on its cheapest route at its
    /// own size: one leg over a direct peer link, a chain of
    /// store-and-forward hops over a forwarded path, or host staging —
    /// one upload per staged source on its host port (reused by all its
    /// staged destinations) and one aggregated download per destination
    /// on its own, each the cheaper of explicit copy and zero-copy. A
    /// download is released once every upload it carries has landed. The
    /// legs then play on an idle fabric through
    /// [`MultiGpuSim`](crate::MultiGpuSim)'s one loop. Pairs route in
    /// ascending `(src, dst)` order, then the uploads by device, then the
    /// downloads by device: busy sums accumulate, and each host port
    /// plays, in that order, so a host-only fabric of one port (`D ≤ 2`)
    /// is the serial bus (makespan == host busy, bit for bit). A free
    /// exchange (≤ 1 participant, or nothing published) returns a zeroed
    /// report with the per-link / per-queue vectors sized.
    #[must_use = "an ExchangeReport is a priced plan, not an action; dropping it discards the pricing"]
    pub fn price_all_gather(&self, owned: &[u64], participates: &[bool]) -> ExchangeReport {
        let (mut report, legs) = self.route_all_gather(owned, participates);
        let mut idle =
            MultiTimeline { link_busy: vec![0.0; self.num_queues()], ..Default::default() };
        report.makespan = play_legs(&legs, &mut idle);
        report
    }

    /// Alias of [`Self::price_all_gather`] for the frozen harness; goes with the `wall` v2 item.
    pub fn price_all_gather_load_aware(
        &self,
        owned: &[u64],
        participates: &[bool],
    ) -> ExchangeReport {
        self.price_all_gather(owned, participates)
    }

    /// The routing step of [`Self::price_all_gather`]: the report with
    /// every field but the makespan, and the leg chains to play, in
    /// routing order.
    pub(crate) fn route_all_gather(
        &self,
        owned: &[u64],
        participates: &[bool],
    ) -> (ExchangeReport, Legs) {
        let nd = self.num_devices();
        assert_eq!(owned.len(), nd, "one publication size per device");
        assert_eq!(participates.len(), nd);
        let mut report = ExchangeReport {
            per_link_busy: vec![0.0; self.num_links()],
            per_queue_busy: vec![0.0; self.num_queues()],
            ..Default::default()
        };
        let mut legs = Legs::default();
        let holders = participates.iter().filter(|&&p| p).count();
        let total: u64 = (0..nd).filter(|&d| participates[d]).map(|d| owned[d]).sum();
        if holders <= 1 || total == 0 {
            return (report, legs);
        }
        // Topology-invariant: every participant receives every other
        // participant's records, however routed.
        report.payload_bytes = total * (holders as u64 - 1);
        // Which sources stage, and per destination the sources whose
        // batches it takes from host memory.
        let mut stages = vec![false; nd];
        let mut staged_from: Vec<Vec<usize>> = vec![Vec::new(); nd];
        for s in (0..nd as u32).filter(|&s| participates[s as usize]) {
            let b = owned[s as usize];
            if b == 0 {
                continue;
            }
            for d in (0..nd as u32).filter(|&d| d != s && participates[d as usize]) {
                let hops = match self.route(s, d, b) {
                    Route::Direct(link) => std::slice::from_ref(link),
                    Route::Forwarded(hops) => hops.as_slice(),
                    Route::HostStaged => {
                        stages[s as usize] = true;
                        staged_from[d as usize].push(s as usize);
                        continue;
                    }
                };
                let mut cur = s;
                legs.push(
                    &[],
                    hops.iter().map(|&link| {
                        let (leg, to) = self.hop(&mut report, cur, link, b);
                        cur = to;
                        leg
                    }),
                );
                debug_assert_eq!(cur, d, "peer path must end at the destination");
                report.peer_bytes += b * hops.len() as u64;
                report.forwarded_bytes += b * (hops.len() as u64 - 1);
            }
        }
        // Staged destinations share their source's one upload; each
        // destination's aggregated download is released once the uploads
        // it carries have landed in host memory.
        let mut host_leg = |report: &mut ExchangeReport, d: usize, b: u64, after: &[usize]| {
            report.host_bytes += b;
            let port = self.host_link_of(d as u32);
            legs.push(after, [self.hop(report, d as u32, port, b).0])
        };
        let upload: Vec<Option<usize>> =
            (0..nd).map(|s| stages[s].then(|| host_leg(&mut report, s, owned[s], &[]))).collect();
        for (d, sources) in staged_from.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
            let after: Vec<usize> = sources.iter().filter_map(|&s| upload[s]).collect();
            let b = sources.iter().map(|&s| owned[s]).sum();
            host_leg(&mut report, d, b, &after);
        }
        // Summed per link kind (an empty sum is -0.0, as it always was).
        let busy_of = |host: bool| {
            (self.links().iter().zip(&report.per_link_busy))
                .filter(|(l, _)| matches!(l, Link::Host(_)) == host)
                .map(|(_, &b)| b)
                .sum()
        };
        (report.host_time, report.peer_time) = (busy_of(true), busy_of(false));
        (report, legs)
    }
}

/// Routed, list-scheduled pricing of one frontier all-gather.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExchangeReport {
    /// Wall time until the last leg lands, list-scheduled on an idle
    /// fabric: legs on disjoint queues overlap, legs sharing a queue
    /// serialise, and a forwarded batch's hops follow one another.
    pub makespan: SimTime,
    /// Host-port busy time, summed over the ports.
    pub host_time: SimTime,
    /// Total peer-link busy time (all peer links, both directions).
    pub peer_time: SimTime,
    /// Bytes that crossed the host ports (staged uploads + downloads; a
    /// staged record is counted on both hops).
    pub host_bytes: u64,
    /// Bytes that crossed peer links (a forwarded record is counted on
    /// every hop, mirroring the host staging convention).
    pub peer_bytes: u64,
    /// Bytes relayed through intermediate devices: for a batch forwarded
    /// over `k` hops, the `(k − 1) ·` batch bytes that intermediate
    /// devices carried on behalf of the pair. Zero when every route is
    /// direct or host-staged.
    pub forwarded_bytes: u64,
    /// Payload delivered (`Σ owned · (participants − 1)`): the encoded
    /// batch bytes the caller published (the runner's batches are id
    /// list or vertex bitmap plus values, whichever is shorter), once per
    /// receiver — identical for every topology, unlike the per-link byte
    /// counts.
    pub payload_bytes: u64,
    /// Busy time per link (index = link id; host ports first). For a
    /// peer link this is the *sum* of its two direction queues (total
    /// wire occupancy) — the figure one shared queue would have priced.
    pub per_link_busy: Vec<SimTime>,
    /// Busy time per contention queue (host ports first, then each peer
    /// link's two queues in link order). The makespan is at least the
    /// maximum entry.
    pub per_queue_busy: Vec<SimTime>,
}
