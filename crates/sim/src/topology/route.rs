//! The interconnect and its route tables: builders, the dense tables
//! derived from the link set, and contention-free path pricing.

use super::spec::{HostPorts, Link, LinkSpec, TopologyKind};
use crate::pcie::PcieModel;
use crate::SimTime;

/// Index of host port 0 in every [`Interconnect`]'s link table: the one
/// host link under [`HostPorts::Shared`], the first of
/// [`Interconnect::num_host_ports`] otherwise.
pub const HOST_LINK: usize = 0;

/// Default probe payload used to price candidate routes when the dense
/// route table is built: large enough that sustained bandwidth (not
/// launch latency) dominates, so route choices reflect link *generations*
/// rather than fixed costs. One probe prices one hop; host staging is
/// priced as one upload of the probe on the source's host port plus one
/// download on the destination's. An [`Interconnect`] built without
/// [`Interconnect::with_route_breakpoints`] probes at exactly this one
/// size.
pub const ROUTE_PROBE_BYTES: u64 = 1 << 20;

/// A log-spaced ladder of route-probe sizes (4 KiB … 64 MiB) for
/// byte-size-aware routing: pass it to
/// [`Interconnect::with_route_breakpoints`] so latency-bound tiny
/// batches and bandwidth-bound bulk batches each get the route that is
/// cheapest *at their size*. [`ROUTE_PROBE_BYTES`] is one of the rungs.
pub const ROUTE_BREAKPOINT_LADDER: [u64; 5] =
    [4 << 10, 64 << 10, ROUTE_PROBE_BYTES, 16 << 20, 64 << 20];

/// The priced path of one device-to-device transfer, chosen at build
/// time as the cheapest of direct / multi-hop-forwarded / host-staged
/// at each configured route-probe size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Route {
    /// A direct peer link (link-table index).
    Direct(usize),
    /// Store-and-forward through intermediate devices: ≥ 2 peer-link ids
    /// in hop order. Every hop pays its own transfer time and occupies
    /// its own direction queue.
    Forwarded(Vec<usize>),
    /// Store-and-forward through host memory, one upload on the source's
    /// host port and one download on the destination's — chosen when no
    /// peer path exists or every peer path prices slower (e.g. across a
    /// slow mixed-generation bridge).
    HostStaged,
}

/// A set of links connecting `D` devices and the host, plus the dense
/// tables derived from them at build time: direct-peer adjacency, the
/// per-pair cheapest route, and the queue layout, so every lookup is
/// O(1).
#[derive(Clone, Debug, PartialEq)]
pub struct Interconnect {
    kind: TopologyKind,
    num_devices: usize,
    /// Devices sharing each host port: device `d` uses host link
    /// `d / devices_per_port`.
    devices_per_port: usize,
    /// Host ports first (link ids `0..num_host_ports`), then peer links.
    links: Vec<Link>,
    /// Dense `nd × nd` direct-peer-link table (`None` off the diagonal of
    /// the topology; the diagonal is always `None`).
    peer_adj: Vec<Option<usize>>,
    /// Route-probe sizes (ascending, deduplicated, never empty): one
    /// dense route table is built per breakpoint, and
    /// [`Interconnect::route`] selects by batch size. A fresh build
    /// probes at [`ROUTE_PROBE_BYTES`] alone.
    breakpoints: Vec<u64>,
    /// Dense `breakpoints × nd × nd` cheapest-route tables, breakpoint-
    /// major (the diagonal holds `HostStaged` but is never consulted: a
    /// device does not route to itself).
    routes: Vec<Route>,
    /// Per link: `[forward, reverse]` queue ids. Both entries coincide
    /// for a host port, which is one queue.
    queue_of: Vec<[usize; 2]>,
    num_queues: usize,
}

impl Interconnect {
    /// Build the `kind` topology over `num_devices` devices (minimum 1)
    /// behind one shared host root complex ([`HostPorts::Shared`]): link
    /// 0 is that root complex, priced by `host`; peer links (if any) all
    /// carry the uniform `peer` spec. Mixed generations and arbitrary
    /// fabrics are this plus [`Interconnect::with_link_spec`] per edited
    /// link, and other host-port groupings this plus
    /// [`Interconnect::with_host_ports`].
    ///
    /// # Panics
    /// When the shape has a peer link and `peer` is unusable (see
    /// [`Interconnect::with_link_spec`]).
    pub fn build(kind: TopologyKind, num_devices: usize, host: PcieModel, peer: LinkSpec) -> Self {
        let nd = num_devices.max(1);
        let pairs: Vec<(u32, u32)> = match kind {
            TopologyKind::HostOnly => Vec::new(),
            TopologyKind::Ring => ring_pairs(nd),
            TopologyKind::AllToAll => {
                (0..nd as u32).flat_map(|a| (a + 1..nd as u32).map(move |b| (a, b))).collect()
            }
        };
        let mut links = vec![Link::Host(host)];
        for (a, b) in pairs {
            check_peer_link(nd, a, b, &peer);
            links.push(Link::Peer { ends: (a, b), spec: peer });
        }
        let mut ic = Interconnect {
            kind,
            num_devices: nd,
            devices_per_port: nd,
            links,
            peer_adj: Vec::new(),
            breakpoints: vec![ROUTE_PROBE_BYTES],
            routes: Vec::new(),
            queue_of: Vec::new(),
            num_queues: 0,
        };
        ic.finalize();
        ic
    }

    /// The same interconnect with its route tables rebuilt at the given
    /// probe-size ladder (sorted and deduplicated; must be non-empty and
    /// positive): [`Interconnect::route`] then selects each transfer's
    /// route by batch size instead of pricing everything at the single
    /// [`ROUTE_PROBE_BYTES`] probe. See [`ROUTE_BREAKPOINT_LADDER`] for
    /// a ready-made ladder.
    pub fn with_route_breakpoints(mut self, breakpoints: &[u64]) -> Self {
        assert!(!breakpoints.is_empty(), "at least one route probe size is required");
        let mut bps = breakpoints.to_vec();
        bps.sort_unstable();
        bps.dedup();
        assert!(bps[0] > 0, "route probe sizes must be positive");
        self.breakpoints = bps;
        self.finalize();
        self
    }

    /// The same interconnect with its host lanes grouped by `ports`: one
    /// [`Link::Host`] per port, all priced like the current port 0, at
    /// the head of the link table (peer links keep their order after
    /// them), and device `d` on host link `d / devices_per_port`. Route
    /// and queue tables are rebuilt.
    pub fn with_host_ports(mut self, ports: HostPorts) -> Self {
        let host = self.links[HOST_LINK];
        self.devices_per_port = ports.devices_per_port(self.num_devices);
        self.links.retain(|l| matches!(l, Link::Peer { .. }));
        self.links.splice(0..0, vec![host; self.num_host_ports()]);
        self.finalize();
        self
    }

    /// The probe-size ladder the route tables were built at (ascending).
    pub fn route_breakpoints(&self) -> &[u64] {
        &self.breakpoints
    }

    /// The same interconnect with the `(a, b)` peer link re-priced to
    /// `spec` — or, when the pair has no link yet, with a new one added
    /// (so a named shape can be edited into an arbitrary fabric). A
    /// re-priced link keeps its endpoint order. Route and queue tables
    /// are rebuilt.
    ///
    /// # Panics
    /// On a self-loop, an endpoint outside the fabric, or an unusable
    /// `spec`: the bandwidth must be finite and positive and the latency
    /// finite and non-negative (a zero or NaN bandwidth would read as a
    /// missing link, a negative one would send route search into a
    /// cycle).
    pub fn with_link_spec(mut self, a: u32, b: u32, spec: LinkSpec) -> Self {
        check_peer_link(self.num_devices, a, b, &spec);
        match self.peer_link(a, b) {
            Some(l) => {
                if let Link::Peer { spec: s, .. } = &mut self.links[l] {
                    *s = spec;
                }
            }
            None => self.links.push(Link::Peer { ends: (a, b), spec }),
        }
        self.finalize();
        self
    }

    /// Recompute the dense tables (adjacency, queue layout, cheapest
    /// routes) from the link table.
    fn finalize(&mut self) {
        let nd = self.num_devices;
        self.peer_adj = vec![None; nd * nd];
        self.queue_of = Vec::with_capacity(self.links.len());
        let mut q = 0usize;
        for (l, link) in self.links.iter().enumerate() {
            // A host port is one queue; each direction of a peer link
            // owns its own.
            match *link {
                Link::Host(_) => {
                    self.queue_of.push([q, q]);
                    q += 1;
                }
                Link::Peer { ends: (a, b), .. } => {
                    self.peer_adj[a as usize * nd + b as usize] = Some(l);
                    self.peer_adj[b as usize * nd + a as usize] = Some(l);
                    self.queue_of.push([q, q + 1]);
                    q += 2;
                }
            }
        }
        self.num_queues = q;
        self.routes = self.compute_routes();
    }

    /// Deterministic Dijkstra over the peer fabric from `src` (linear
    /// extraction: D is small, so the O(D²) scan beats a heap and stays
    /// allocation-light). Nodes settle in ascending (cost, id) order and
    /// paths improve only on strictly smaller cost.
    fn dijkstra(
        &self,
        src: usize,
        hop_cost: &[SimTime],
    ) -> (Vec<f64>, Vec<Option<usize>>, Vec<usize>) {
        let nd = self.num_devices;
        let mut dist = vec![f64::INFINITY; nd];
        let mut via: Vec<Option<usize>> = vec![None; nd]; // arriving link
        let mut prev = vec![usize::MAX; nd];
        let mut done = vec![false; nd];
        dist[src] = 0.0;
        loop {
            let mut u = usize::MAX;
            for d in 0..nd {
                if !done[d] && dist[d].is_finite() && (u == usize::MAX || dist[d] < dist[u]) {
                    u = d;
                }
            }
            if u == usize::MAX {
                break;
            }
            done[u] = true;
            for v in 0..nd {
                if let Some(l) = self.peer_adj[u * nd + v] {
                    let c = dist[u] + hop_cost[l];
                    if c < dist[v] {
                        dist[v] = c;
                        via[v] = Some(l);
                        prev[v] = u;
                    }
                }
            }
        }
        (dist, via, prev)
    }

    /// Cheapest route per ordered pair *per breakpoint*: per-source
    /// Dijkstra over the peer fabric (hop cost = the link's probe
    /// transfer time at that breakpoint), compared against host staging
    /// (probe upload on the source's host port + probe download on the
    /// destination's).
    ///
    /// The host comparison is per-pair and static, and it **overprices
    /// host staging once a source already stages**:
    /// [`Interconnect::price_all_gather`] amortises a staged source's
    /// upload across all of its staged destinations and aggregates
    /// downloads, so the *marginal* host cost of staging one more pair
    /// is below the 2-copy probe cost compared here. A marginal-cost
    /// table would depend on which other pairs stage (and thus on the
    /// routing itself); the static per-pair choice keeps the tables
    /// load-independent and O(1). The measured ceiling of fixing it at
    /// exchange time, by re-routing against the amortised cost, was
    /// 0.2 % of makespan (median 0.03 % on ring fabrics, exactly 0
    /// host-only) at ~30× the host time per exchange.
    fn compute_routes(&self) -> Vec<Route> {
        let nd = self.num_devices;
        let mut routes = vec![Route::HostStaged; self.breakpoints.len() * nd * nd];
        for (bi, &probe) in self.breakpoints.iter().enumerate() {
            let hop_cost: Vec<SimTime> =
                self.links.iter().map(|l| l.transfer_time(probe)).collect();
            let port_cost = |d: usize| hop_cost[self.host_link_of(d as u32)];
            for src in 0..nd {
                let (dist, via, prev) = self.dijkstra(src, &hop_cost);
                for (dst, &d) in dist.iter().enumerate() {
                    // Host staging wins strictly costlier peer paths.
                    if dst == src || !d.is_finite() || d > port_cost(src) + port_cost(dst) {
                        continue;
                    }
                    let hops = extract_hops(src, dst, &via, &prev);
                    routes[(bi * nd + src) * nd + dst] = match hops.len() {
                        1 => Route::Direct(hops[0]),
                        _ => Route::Forwarded(hops),
                    };
                }
            }
        }
        routes
    }

    /// The shared-bus interconnect (no peer links, one host root complex).
    pub fn host_only(num_devices: usize, host: PcieModel) -> Self {
        Self::build(TopologyKind::HostOnly, num_devices, host, LinkSpec::nvlink())
    }

    /// Topology shape.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Devices connected.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Total links, host ports included.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Host ports: host links `0..num_host_ports()`.
    pub fn num_host_ports(&self) -> usize {
        self.num_devices.div_ceil(self.devices_per_port)
    }

    /// Total contention queues: one per host port, two (one per
    /// direction) for each peer link.
    pub fn num_queues(&self) -> usize {
        self.num_queues
    }

    /// The queue serving `link` in direction `reverse` (`false` =
    /// `ends.0 → ends.1` of a [`Link::Peer`]). A host port returns the
    /// same id for both directions.
    pub fn queue(&self, link: usize, reverse: bool) -> usize {
        self.queue_of[link][reverse as usize]
    }

    /// The link table (index = link id; host ports first).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Host port (link id) of `device`'s host-side transfers:
    /// `device / devices_per_port`. Debug builds reject a device the
    /// topology does not span.
    pub fn host_link_of(&self, device: u32) -> usize {
        debug_assert!(
            (device as usize) < self.num_devices,
            "host_link_of({device}) out of range: the topology spans {} devices",
            self.num_devices
        );
        device as usize / self.devices_per_port
    }

    /// Direct peer link between `a` and `b`, if the topology has one.
    /// O(1): indexes the dense adjacency table built at construction.
    pub fn peer_link(&self, a: u32, b: u32) -> Option<usize> {
        self.peer_adj[a as usize * self.num_devices + b as usize]
    }

    /// Cheapest route for one `src → dst` device transfer of `bytes`
    /// (O(1) table lookup; the batch size selects the breakpoint table —
    /// the first rung whose probe is at least the batch, clamped to the
    /// largest — so tiny latency-bound batches may route differently
    /// from bulk bandwidth-bound ones). `src == dst` is never routed —
    /// debug builds fail loudly so a caller bug cannot price phantom
    /// traffic.
    pub fn route(&self, src: u32, dst: u32, bytes: u64) -> &Route {
        debug_assert_ne!(src, dst, "route({src}, {dst}): src == dst is never routed");
        let nd = self.num_devices;
        let bi = self.breakpoints.partition_point(|&bp| bp < bytes).min(self.breakpoints.len() - 1);
        &self.routes[(bi * nd + src as usize) * nd + dst as usize]
    }

    /// Price `route(src, dst, bytes)` contention-free: the direct link's
    /// transfer time, the forwarded chain's store-and-forward sum (a hop
    /// cannot start until the previous one delivered the whole batch),
    /// or an upload on `src`'s host port + a download on `dst`'s.
    /// Queueing happens in [`Interconnect::price_all_gather`].
    pub fn route_cost(&self, src: u32, dst: u32, bytes: u64) -> SimTime {
        match self.route(src, dst, bytes) {
            Route::Direct(l) => self.transfer_time(*l, bytes),
            Route::Forwarded(hops) => hops.iter().map(|&l| self.transfer_time(l, bytes)).sum(),
            Route::HostStaged => {
                self.transfer_time(self.host_link_of(src), bytes)
                    + self.transfer_time(self.host_link_of(dst), bytes)
            }
        }
    }

    /// Wall time of one transfer of `bytes` over link `link`.
    pub fn transfer_time(&self, link: usize, bytes: u64) -> SimTime {
        self.links[link].transfer_time(bytes)
    }

    /// Does every ordered device pair price identically at every route
    /// breakpoint? On such a fabric — host-only (every pair stages through
    /// identically priced host ports), or a clique of identical links — no
    /// placement can be cheaper than any other as far as pair routing is
    /// concerned. No planner reads it any more; it stays because the
    /// frozen `wall` harness fills `PlacementPricer::uniform` with it
    /// (ROADMAP, `wall` v2 item (a)). The comparison is exact (`==` on
    /// the priced f64): pairs on a uniform fabric run the identical
    /// arithmetic, so no tolerance is needed.
    pub fn is_uniform_fabric(&self) -> bool {
        if self.num_devices <= 2 {
            // 0 or 1 devices route nothing; 2 devices have one ordered
            // pair per direction and both directions share one link spec.
            return true;
        }
        for &probe in &self.breakpoints {
            let reference = self.route_cost(0, 1, probe);
            for src in 0..self.num_devices as u32 {
                for dst in 0..self.num_devices as u32 {
                    if src != dst && self.route_cost(src, dst, probe) != reference {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Reconstruct the hop list of a settled Dijkstra path `src → dst` (link
/// ids in travel order). Requires `dist[dst]` finite.
fn extract_hops(src: usize, dst: usize, via: &[Option<usize>], prev: &[usize]) -> Vec<usize> {
    let mut hops = Vec::new();
    let mut cur = dst;
    while cur != src {
        // hyt-lint: allow(unwrap-in-lib) -- Dijkstra settles a vertex only by relaxing some link into it, recording via[cur] = Some(link)
        hops.push(via[cur].expect("finite distance implies an arriving link"));
        cur = prev[cur];
    }
    hops.reverse();
    hops
}

/// Panic unless a peer link `(a, b)` priced by `spec` fits an
/// `nd`-device fabric: distinct in-range endpoints, a finite positive
/// bandwidth and a finite non-negative latency.
fn check_peer_link(nd: usize, a: u32, b: u32, spec: &LinkSpec) {
    assert!(a != b, "peer link ({a}, {b}) is a self-loop");
    assert!((a as usize) < nd && (b as usize) < nd, "peer link ({a}, {b}) exceeds {nd} devices");
    assert!(
        spec.bandwidth.is_finite() && spec.bandwidth > 0.0,
        "peer link ({a}, {b}) needs a finite positive bandwidth, got {}",
        spec.bandwidth
    );
    assert!(
        spec.latency.is_finite() && spec.latency >= 0.0,
        "peer link ({a}, {b}) needs a finite non-negative latency, got {}",
        spec.latency
    );
}

/// Ring neighbour pairs for `nd` devices: `nd = 2` has a single link,
/// `nd ≤ 1` none.
fn ring_pairs(nd: usize) -> Vec<(u32, u32)> {
    match nd {
        0 | 1 => Vec::new(),
        2 => vec![(0, 1)],
        _ => (0..nd as u32).map(|d| (d, (d + 1) % nd as u32)).collect(),
    }
}
