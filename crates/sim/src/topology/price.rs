//! Contended pricing of the frontier all-gather over the routed
//! interconnect, written against `route`'s public lookups only.

use super::route::{Interconnect, Route, HOST_LINK};
use super::spec::Link;
use crate::SimTime;

impl Interconnect {
    /// Occupy `link` in the direction leaving `from` with one transfer of
    /// `bytes`; returns the device at the other end. Routes hop over peer
    /// links only; the host root complex, one queue, would leave `from`
    /// where it is.
    fn occupy(&self, report: &mut ExchangeReport, from: u32, link: usize, bytes: u64) -> u32 {
        let t = self.transfer_time(link, bytes);
        let (reverse, to) = match self.links()[link] {
            Link::Peer { ends: (a, b), .. } => (from != a, if from == a { b } else { a }),
            Link::Host(_) => (false, from),
        };
        report.per_queue_busy[self.queue(link, reverse)] += t;
        report.per_link_busy[link] += t;
        to
    }

    /// Price the end-of-iteration frontier all-gather: participating
    /// device `d` publishes `owned[d]` bytes and must receive every other
    /// participant's batch.
    ///
    /// Each pair's batch follows its cheapest route at the batch's own
    /// size: a direct peer link, a forwarded multi-hop peer path (the
    /// batch pays — and occupies — every hop), or the shared host
    /// staging path — one upload per source (the host copy is reused for
    /// every host-routed destination) and one aggregated download per
    /// destination, exactly the shared-bus exchange, each leg moving the
    /// cheaper of explicit copy and zero-copy at its size. Legs queue per
    /// *direction* queue (a peer link runs its two directions
    /// concurrently) and overlap across queues, so the makespan is the
    /// busiest queue — floored by the longest single-batch
    /// store-and-forward chain ([`ExchangeReport::critical_path`], priced
    /// by [`Interconnect::chain_time`]): a
    /// forwarded batch's hops serialise even when their queues are
    /// otherwise idle, so the exchange can never finish before its
    /// slowest routed batch has crossed every hop. (Still a relaxation:
    /// hop/queue interleavings beyond those two bounds are not played
    /// out.)
    ///
    /// Pairs are visited in ascending `(src, dst)` order and host legs
    /// are queued in ascending device order, upload before download: the
    /// f64 accumulation order is part of the priced result, and it keeps
    /// the host-only result bit-identical to the serial bus model. A
    /// free exchange (≤ 1 participant, or nothing published) returns a
    /// zeroed report with the per-link / per-queue vectors sized.
    #[must_use = "an ExchangeReport is a priced plan, not an action; dropping it discards the pricing"]
    pub fn price_all_gather(&self, owned: &[u64], participates: &[bool]) -> ExchangeReport {
        let nd = self.num_devices();
        assert_eq!(owned.len(), nd, "one publication size per device");
        assert_eq!(participates.len(), nd);
        let mut report = ExchangeReport {
            per_link_busy: vec![0.0; self.num_links()],
            per_queue_busy: vec![0.0; self.num_queues()],
            ..Default::default()
        };
        let holders = participates.iter().filter(|&&p| p).count();
        let total: u64 = (0..nd).filter(|&d| participates[d]).map(|d| owned[d]).sum();
        if holders <= 1 || total == 0 {
            return report;
        }
        // Topology-invariant: every participant receives every other
        // participant's records, however routed.
        report.payload_bytes = total * (holders as u64 - 1);
        let mut host_up = vec![0u64; nd];
        let mut host_down = vec![0u64; nd];
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
                        // Staged destinations share the source's host copy.
                        host_up[s as usize] = b;
                        host_down[d as usize] += b;
                        continue;
                    }
                };
                let mut cur = s;
                for &link in hops {
                    cur = self.occupy(&mut report, cur, link, b);
                    report.peer_bytes += b;
                }
                debug_assert_eq!(cur, d, "peer path must end at the destination");
                if hops.len() > 1 {
                    report.forwarded_bytes += b * (hops.len() as u64 - 1);
                    // The batch's hops depend on each other; a direct or
                    // host-staged leg never exceeds its own queue's busy
                    // time, so only forwarded chains can raise the floor.
                    report.critical_path = report.critical_path.max(self.chain_time(hops, b));
                }
            }
        }
        for d in 0..nd {
            for b in [host_up[d], host_down[d]] {
                if b > 0 {
                    let t = self.transfer_time(HOST_LINK, b);
                    report.per_queue_busy[self.queue(HOST_LINK, false)] += t;
                    report.per_link_busy[HOST_LINK] += t;
                    report.host_bytes += b;
                }
            }
        }
        report.host_time = report.per_link_busy[HOST_LINK];
        report.peer_time = report.per_link_busy[HOST_LINK + 1..].iter().sum();
        report.makespan = report.per_queue_busy.iter().fold(report.critical_path, |a, &b| a.max(b));
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
}

/// Routed, per-queue-contended pricing of one frontier all-gather.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExchangeReport {
    /// Wall time until the last queue drains (legs on disjoint queues
    /// overlap; legs sharing a queue serialise), floored by
    /// [`ExchangeReport::critical_path`].
    pub makespan: SimTime,
    /// Longest single-batch store-and-forward chain: the hops of a
    /// forwarded batch serialise among themselves even when their
    /// queues are otherwise idle, so the makespan can never undercut
    /// this. Zero when no route forwards.
    pub critical_path: SimTime,
    /// Host root-complex busy time.
    pub host_time: SimTime,
    /// Total peer-link busy time (all peer links, both directions).
    pub peer_time: SimTime,
    /// Bytes that crossed the host root complex (staged uploads +
    /// downloads; a staged record is counted on both hops).
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
    /// Busy time per link (index = link id; `HOST_LINK` first). For a
    /// peer link this is the *sum* of its two direction queues (total
    /// wire occupancy) — the figure one shared queue would have priced.
    pub per_link_busy: Vec<SimTime>,
    /// Busy time per contention queue (host root complex first, then
    /// each link's queues in link order). The makespan is the maximum
    /// entry.
    pub per_queue_busy: Vec<SimTime>,
}
