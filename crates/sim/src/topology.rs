//! Topology-aware interconnect: heterogeneous links, routed (possibly
//! multi-hop) paths, and per-direction contention.
//!
//! Pricing every byte — edge slices *and* the inter-device frontier
//! exchange — on one shared PCIe root complex is exactly the "one flat
//! bus" assumption the paper's Section VIII names as the open frontier.
//! This module makes the interconnect a first-class object:
//!
//! * a [`Link`] is one contended wire with its own pricing: the **host
//!   root complex** (all devices' PCIe lanes converge there, priced with
//!   the TLP-quantised [`PcieModel`]) or an **NVLink-class peer link**
//!   between two devices (smooth latency + bandwidth, [`LinkSpec`]).
//!   Every peer link carries its *own* spec, so mixed-generation meshes
//!   (x4 beside x8 bridges, NVLink 2 beside NVLink 4) are first-class —
//!   see [`Interconnect::ring_with_specs`], [`Interconnect::mesh`], and
//!   [`Interconnect::with_link_spec`];
//! * peer links are **full-duplex**: each direction owns its own
//!   contention queue, so the two legs of a symmetric exchange overlap
//!   instead of serialising. The host root complex always stays **one**
//!   TLP-quantised queue, so a host-only interconnect is the serial
//!   shared bus;
//! * an [`Interconnect`] is a set of links in one of three named shapes
//!   ([`TopologyKind`]) — host-only (the shared bus), a ring of
//!   neighbour links, or a fully-connected clique — optionally edited
//!   per link into an arbitrary heterogeneous mesh;
//! * [`Interconnect::route`] returns the **cheapest priced path** for a
//!   device-to-device transfer of a given *size*, chosen at build time
//!   from a dense **per-breakpoint** route table: routes are probed at a
//!   ladder of payload sizes ([`Interconnect::with_route_breakpoints`];
//!   a freshly built interconnect probes at [`ROUTE_PROBE_BYTES`]
//!   alone), and `route(src, dst, bytes)` selects the table whose probe
//!   matches the batch, so latency-bound tiny batches may legitimately
//!   take fewer hops than bandwidth-bound bulk ones. Each entry is
//!   **direct** over a peer link, **forwarded** device-via-device over a
//!   multi-hop peer path, or **host-staged** (up then down on the root
//!   complex) when the peer fabric is absent or slower. A slow bridge
//!   therefore shifts its pair's traffic back to host staging instead of
//!   being used blindly;
//! * forwarded chains price **store-and-forward** by default (each hop
//!   waits for the whole batch); a [`LinkSpec::with_cut_through`] chunk
//!   size lets a chain pipeline chunks across its hops instead, pricing
//!   the chain as the bottleneck hop's stream plus a one-chunk ramp on
//!   every other hop ([`Interconnect::chain_time`]). `cut_through =
//!   None` (the default) reproduces the store-and-forward sum exactly;
//! * [`Interconnect::price_all_gather`] plays a frontier all-gather
//!   against the per-direction contention queues: legs on disjoint
//!   queues overlap, legs sharing a queue serialise. With the host-only
//!   topology this reduces *bit-identically* to serial-bus pricing
//!   (asserted by tests), so the multi-device differential guarantees
//!   hold on every topology.
//! * [`Interconnect::price_all_gather_load_aware`] adds a second,
//!   *load-aware* pass: given the static pass's per-queue busy times, a
//!   deterministic bounded greedy re-routes batches off the busiest
//!   queue onto their next-cheapest path — another breakpoint's route,
//!   the cheapest first-hop-disjoint detour, host staging at its true
//!   *marginal* (amortised-upload) cost, or an even **split** across two
//!   disjoint peer paths (the two ring directions) — accepting a move
//!   only when it strictly lowers the priced makespan, so it is never
//!   worse than the static routing.

use crate::pcie::PcieModel;
use crate::SimTime;

/// Index of the host root complex in every [`Interconnect`]'s link table.
pub const HOST_LINK: usize = 0;

/// Default probe payload used to price candidate routes when the dense
/// route table is built: large enough that sustained bandwidth (not
/// launch latency) dominates, so route choices reflect link *generations*
/// rather than fixed costs. One probe prices one hop; host staging is
/// priced as one upload plus one download of the probe on the root
/// complex. An [`Interconnect`] built without
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

/// Improvement rounds the load-aware second pass may apply before it
/// stops (each round applies at most one strictly-improving move), so
/// re-routing always terminates.
pub const MAX_REROUTE_ROUNDS: usize = 24;

/// Relative makespan improvement a re-route move must achieve to be
/// accepted (guards against f64 noise flapping the greedy).
const REROUTE_EPS: f64 = 1e-9;

/// Named interconnect shapes the simulator knows how to build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// No peer links: every transfer is staged through the host root
    /// complex. The paper's platform; the default.
    #[default]
    HostOnly,
    /// Each device has a direct link to its two ring neighbours
    /// (`d ± 1 mod D`); other pairs forward along the ring or stage
    /// through the host, whichever prices cheaper.
    Ring,
    /// A direct link between every device pair (NVSwitch-class).
    AllToAll,
    /// An explicitly-specified link set ([`Interconnect::mesh`], or
    /// `link_overrides` on any base shape): the uniform builder adds no
    /// links of its own, the caller supplies every peer link.
    Mesh,
}

impl TopologyKind {
    /// The uniformly-buildable shapes, in sweep order ([`TopologyKind::
    /// Mesh`] is excluded: it has no uniform link set to sweep).
    pub const ALL: [TopologyKind; 3] =
        [TopologyKind::HostOnly, TopologyKind::Ring, TopologyKind::AllToAll];

    /// Display name (also accepted by [`TopologyKind::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::HostOnly => "host-only",
            TopologyKind::Ring => "ring",
            TopologyKind::AllToAll => "all-to-all",
            TopologyKind::Mesh => "mesh",
        }
    }

    /// Parse a CLI/config spelling.
    pub fn parse(s: &str) -> Option<TopologyKind> {
        match s.to_ascii_lowercase().as_str() {
            "host" | "host-only" | "hostonly" | "pcie" => Some(TopologyKind::HostOnly),
            "ring" => Some(TopologyKind::Ring),
            "all-to-all" | "alltoall" | "a2a" | "nvswitch" => Some(TopologyKind::AllToAll),
            "mesh" => Some(TopologyKind::Mesh),
            _ => None,
        }
    }
}

/// Bandwidth, latency and cut-through chunk of an NVLink-class
/// point-to-point link. The bandwidth is *per direction*, and each
/// direction owns its own contention queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Effective (practical) bandwidth per direction, bytes/second.
    pub bandwidth: f64,
    /// Fixed per-transfer software/launch latency, seconds.
    pub latency: SimTime,
    /// Cut-through chunk size in bytes: when every hop of a forwarded
    /// chain advertises one, the chain pipelines chunks of the smallest
    /// advertised size across its hops ([`Interconnect::chain_time`])
    /// instead of store-and-forwarding the whole batch per hop. `None`
    /// (the default) keeps the chain store-and-forward.
    pub cut_through: Option<u64>,
}

impl LinkSpec {
    /// NVLink 2.0-class bridge: ~50 GB/s nominal per direction, derated
    /// to practical throughput like the PCIe model; P2P copies skip the
    /// host staging so their launch latency is about half a `cudaMemcpy`.
    pub fn nvlink() -> Self {
        Self::with_nominal_bw(50.0e9)
    }

    /// A peer link with the given *nominal* per-direction
    /// bandwidth (bytes/s), derated by the same practical fraction as the
    /// PCIe model.
    pub fn with_nominal_bw(nominal: f64) -> Self {
        LinkSpec {
            bandwidth: nominal * crate::pcie::PRACTICAL_FRACTION,
            latency: 5.0e-6,
            cut_through: None,
        }
    }

    /// The same link with cut-through forwarding at `chunk`-byte
    /// granularity: forwarded chains whose hops all advertise a chunk
    /// size pipeline their chunks instead of store-and-forwarding the
    /// whole batch per hop.
    pub fn with_cut_through(mut self, chunk: u64) -> Self {
        assert!(chunk > 0, "cut-through chunks must be non-empty");
        self.cut_through = Some(chunk);
        self
    }

    /// Scale fixed latency to 2^-shift datasets, mirroring
    /// [`MachineModel::scaled`](crate::MachineModel::scaled).
    pub fn scaled(mut self, shift: u32) -> Self {
        self.latency /= (1u64 << shift) as f64;
        self
    }

    /// Wall time of one transfer of `bytes` over one direction of this
    /// link.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return 0.0;
        }
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// Host-side vs device-to-device link classes (the per-class exchange
/// breakdown in `IterationStats` uses these).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// The PCIe root complex every device's host lanes converge on.
    Host,
    /// A direct NVLink-class link between two devices.
    Peer,
}

/// How a link prices one transfer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkRate {
    /// TLP-quantised explicit-copy pricing (the PCIe root complex) —
    /// keeps host-staged legs bit-identical to the single-device bus
    /// model.
    Pcie(PcieModel),
    /// Smooth latency + bandwidth pricing (NVLink-class peer links).
    Smooth(LinkSpec),
}

impl LinkRate {
    /// Wall time of one transfer of `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        match self {
            LinkRate::Pcie(p) => p.explicit_copy_time(bytes),
            LinkRate::Smooth(s) => s.transfer_time(bytes),
        }
    }
}

/// One contended wire of the interconnect.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Host root complex or device peer link.
    pub class: LinkClass,
    /// Endpoint devices of a peer link (`None` for the host link, which
    /// every device shares).
    pub endpoints: Option<(u32, u32)>,
    /// Transfer pricing.
    pub rate: LinkRate,
}

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
    /// Store-and-forward through host memory, one upload and one
    /// download on the host root complex — chosen when no peer path
    /// exists or every peer path prices slower (e.g. across a slow
    /// mixed-generation bridge).
    HostStaged,
}

/// The concrete path one all-gather fragment travels: a peer hop chain
/// (one hop = direct) or staging through the host root complex.
#[derive(Clone, Debug, PartialEq)]
enum FragPath {
    /// Peer-link ids in travel order (length 1 = a direct link).
    Peer(Vec<usize>),
    /// Upload + aggregated download on the host root complex.
    Host,
}

/// One batch (or, after a split, one half of a batch) of the all-gather,
/// with the path it currently travels and the static route it started
/// on.
#[derive(Clone, Debug)]
struct Fragment {
    src: u32,
    dst: u32,
    bytes: u64,
    /// Path the fragment currently travels (the load-aware pass edits
    /// this).
    path: FragPath,
    /// The sized static route the batch started on (re-route
    /// accounting compares against it).
    static_path: FragPath,
    /// Secondary half of a split batch.
    split: bool,
    /// Whole batches may split once; fragments never re-split.
    can_split: bool,
}

/// One candidate re-route move of the load-aware pass.
#[derive(Clone, Debug)]
enum RerouteMove {
    /// Move the whole fragment onto this path.
    Whole(FragPath),
    /// Keep half the bytes on the current path and send the other half
    /// over this disjoint peer chain.
    Split(Vec<usize>),
}

/// Convert a route-table entry into the path a fragment travels.
fn frag_path_of(route: &Route) -> FragPath {
    match route {
        Route::Direct(l) => FragPath::Peer(vec![*l]),
        Route::Forwarded(hops) => FragPath::Peer(hops.clone()),
        Route::HostStaged => FragPath::Host,
    }
}

/// Apply one re-route move, returning the edited fragment list (the
/// split secondary is inserted right after its primary, so fragments
/// stay grouped by ascending `(src, dst)`).
fn apply_move(frags: &[Fragment], i: usize, mv: &RerouteMove) -> Vec<Fragment> {
    let mut out = frags.to_vec();
    match mv {
        RerouteMove::Whole(p) => out[i].path = p.clone(),
        RerouteMove::Split(alt) => {
            let moved = out[i].bytes / 2;
            out[i].bytes -= moved;
            out[i].can_split = false;
            let mut secondary = out[i].clone();
            secondary.bytes = moved;
            secondary.path = FragPath::Peer(alt.clone());
            secondary.split = true;
            out.insert(i + 1, secondary);
        }
    }
    out
}

/// A set of links connecting `D` devices and the host, plus the dense
/// tables derived from them at build time: direct-peer adjacency, the
/// per-pair cheapest route, and the queue layout, so every lookup is
/// O(1).
#[derive(Clone, Debug, PartialEq)]
pub struct Interconnect {
    kind: TopologyKind,
    num_devices: usize,
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
    /// Dense `breakpoints × nd × nd` *fallback* routes for the
    /// load-aware pass: the cheapest peer path that avoids the primary
    /// route's first hop (for host-staged primaries, the cheapest peer
    /// path outright). `None` when the peer fabric admits no such path.
    alt_routes: Vec<Option<Vec<usize>>>,
    /// Per link: `[forward, reverse]` queue ids. Both entries coincide
    /// for the host root complex, which is one queue.
    queue_of: Vec<[usize; 2]>,
    num_queues: usize,
}

impl Interconnect {
    /// Build the `kind` topology over `num_devices` devices (minimum 1):
    /// link 0 is always the host root complex priced by `host`; peer
    /// links (if any) all carry the uniform `peer` spec. For mixed
    /// generations use [`Interconnect::ring_with_specs`],
    /// [`Interconnect::mesh`], or [`Interconnect::with_link_spec`].
    pub fn build(kind: TopologyKind, num_devices: usize, host: PcieModel, peer: LinkSpec) -> Self {
        let nd = num_devices.max(1);
        let pairs: Vec<(u32, u32, LinkSpec)> = match kind {
            // A mesh has no uniform link set: links come from the
            // caller (`Interconnect::mesh`, `with_link_spec`,
            // `link_overrides`).
            TopologyKind::HostOnly | TopologyKind::Mesh => Vec::new(),
            TopologyKind::Ring => ring_pairs(nd).into_iter().map(|(a, b)| (a, b, peer)).collect(),
            TopologyKind::AllToAll => {
                let mut v = Vec::new();
                for a in 0..nd as u32 {
                    for b in a + 1..nd as u32 {
                        v.push((a, b, peer));
                    }
                }
                v
            }
        };
        Self::from_links(kind, nd, host, &pairs)
    }

    /// A ring whose `i`-th neighbour link (`i → (i+1) mod D`) carries
    /// `specs[i]` — the mixed-generation ring builder. `specs.len()` must
    /// equal the ring's link count (`D` for `D > 2`, 1 for `D = 2`, 0
    /// below).
    pub fn ring_with_specs(num_devices: usize, host: PcieModel, specs: &[LinkSpec]) -> Self {
        let nd = num_devices.max(1);
        let pairs = ring_pairs(nd);
        assert_eq!(
            specs.len(),
            pairs.len(),
            "a {nd}-device ring has {} links, got {} specs",
            pairs.len(),
            specs.len()
        );
        let links: Vec<(u32, u32, LinkSpec)> =
            pairs.iter().zip(specs).map(|(&(a, b), &s)| (a, b, s)).collect();
        Self::from_links(TopologyKind::Ring, nd, host, &links)
    }

    /// An arbitrary heterogeneous mesh: one peer link per `(a, b, spec)`
    /// entry (order-insensitive endpoints, no self-loops, no duplicate
    /// pairs). Pairs without a link route multi-hop or via the host,
    /// whichever is cheaper.
    pub fn mesh(num_devices: usize, host: PcieModel, links: &[(u32, u32, LinkSpec)]) -> Self {
        Self::from_links(TopologyKind::Mesh, num_devices.max(1), host, links)
    }

    fn from_links(
        kind: TopologyKind,
        nd: usize,
        host: PcieModel,
        pairs: &[(u32, u32, LinkSpec)],
    ) -> Self {
        let mut links =
            vec![Link { class: LinkClass::Host, endpoints: None, rate: LinkRate::Pcie(host) }];
        let mut seen = vec![false; nd * nd];
        for &(a, b, spec) in pairs {
            assert!(a != b, "peer link ({a}, {b}) is a self-loop");
            assert!(
                (a as usize) < nd && (b as usize) < nd,
                "peer link ({a}, {b}) exceeds {nd} devices"
            );
            let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
            assert!(!seen[lo * nd + hi], "duplicate peer link ({a}, {b})");
            seen[lo * nd + hi] = true;
            links.push(Link {
                class: LinkClass::Peer,
                endpoints: Some((a, b)),
                rate: LinkRate::Smooth(spec),
            });
        }
        let mut ic = Interconnect {
            kind,
            num_devices: nd,
            links,
            peer_adj: Vec::new(),
            breakpoints: vec![ROUTE_PROBE_BYTES],
            routes: Vec::new(),
            alt_routes: Vec::new(),
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

    /// The probe-size ladder the route tables were built at (ascending).
    pub fn route_breakpoints(&self) -> &[u64] {
        &self.breakpoints
    }

    /// The same interconnect with the `(a, b)` peer link re-priced to
    /// `spec` — or, when the pair has no link yet, with a new one added
    /// (so a named shape can be edited into an arbitrary mesh). Route and
    /// queue tables are rebuilt.
    pub fn with_link_spec(mut self, a: u32, b: u32, spec: LinkSpec) -> Self {
        let nd = self.num_devices;
        assert!(a != b, "peer link ({a}, {b}) is a self-loop");
        assert!(
            (a as usize) < nd && (b as usize) < nd,
            "peer link ({a}, {b}) exceeds {nd} devices"
        );
        match self.peer_adj[a as usize * nd + b as usize] {
            Some(l) => self.links[l].rate = LinkRate::Smooth(spec),
            None => self.links.push(Link {
                class: LinkClass::Peer,
                endpoints: Some((a, b)),
                rate: LinkRate::Smooth(spec),
            }),
        }
        self.finalize();
        self
    }

    /// Recompute the dense tables (adjacency, queue layout, cheapest
    /// routes) from the link table.
    fn finalize(&mut self) {
        let nd = self.num_devices;
        self.peer_adj = vec![None; nd * nd];
        for (l, link) in self.links.iter().enumerate() {
            if let Some((a, b)) = link.endpoints {
                self.peer_adj[a as usize * nd + b as usize] = Some(l);
                self.peer_adj[b as usize * nd + a as usize] = Some(l);
            }
        }
        self.queue_of = Vec::with_capacity(self.links.len());
        let mut q = 0usize;
        for link in &self.links {
            // The host root complex is one TLP-quantised queue; each
            // direction of a peer link owns its own.
            match link.class {
                LinkClass::Peer => {
                    self.queue_of.push([q, q + 1]);
                    q += 2;
                }
                LinkClass::Host => {
                    self.queue_of.push([q, q]);
                    q += 1;
                }
            }
        }
        self.num_queues = q;
        let (routes, alt_routes) = self.compute_routes();
        self.routes = routes;
        self.alt_routes = alt_routes;
    }

    /// Deterministic Dijkstra over the peer fabric from `src` (linear
    /// extraction: D is small, so the O(D²) scan beats a heap and stays
    /// allocation-light). Nodes settle in ascending (cost, id) order and
    /// paths improve only on strictly smaller cost. `excluded` (a link
    /// id, or `usize::MAX` for none) is skipped — the pruned runs supply
    /// the first-hop-disjoint fallback routes.
    fn dijkstra(
        &self,
        src: usize,
        hop_cost: &[SimTime],
        excluded: usize,
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
                    if l == excluded {
                        continue;
                    }
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
    /// (probe upload + probe download on the root complex).
    ///
    /// The host comparison is per-pair and static — a known relaxation:
    /// [`Interconnect::price_all_gather`] amortises a staged source's
    /// upload across all of its staged destinations and aggregates
    /// downloads, so once one pair of a source already stages, the
    /// *marginal* host cost of staging another is below the 2-copy probe
    /// cost used here. A marginal-cost table would depend on which other
    /// pairs stage (and thus on the routing itself); the static per-pair
    /// choice keeps the tables load-independent and O(1), and the
    /// load-aware second pass ([`Interconnect::
    /// price_all_gather_load_aware`]) is where the marginal cost is
    /// finally honoured: its host-staging candidate is evaluated against
    /// the amortised upload, not the 2-copy probe.
    ///
    /// Alongside each primary route the second (same-length) table holds
    /// the re-route *fallback*: the cheapest peer path avoiding the
    /// primary's first hop (for host-staged primaries, the cheapest peer
    /// path outright, however costly), which the load-aware pass offers
    /// as a detour or split target.
    fn compute_routes(&self) -> (Vec<Route>, Vec<Option<Vec<usize>>>) {
        let nd = self.num_devices;
        let nb = self.breakpoints.len();
        let mut routes = vec![Route::HostStaged; nb * nd * nd];
        let mut alts: Vec<Option<Vec<usize>>> = vec![None; nb * nd * nd];
        for (bi, &probe) in self.breakpoints.iter().enumerate() {
            let host_cost = 2.0 * self.links[HOST_LINK].rate.transfer_time(probe);
            let hop_cost: Vec<SimTime> =
                self.links.iter().map(|l| l.rate.transfer_time(probe)).collect();
            for src in 0..nd {
                let (dist, via, prev) = self.dijkstra(src, &hop_cost, usize::MAX);
                // First hops of this source's peer-routed primaries: one
                // pruned Dijkstra per distinct first link serves every
                // destination that leaves over it.
                let mut first_links: Vec<usize> = Vec::new();
                for (dst, &d) in dist.iter().enumerate() {
                    if dst == src || !d.is_finite() {
                        continue;
                    }
                    let hops = extract_hops(src, dst, &via, &prev);
                    let idx = (bi * nd + src) * nd + dst;
                    // Host staging wins strictly costlier peer paths; the
                    // rejected peer path stays available as the fallback.
                    if d > host_cost {
                        alts[idx] = Some(hops);
                    } else {
                        if !first_links.contains(&hops[0]) {
                            first_links.push(hops[0]);
                        }
                        routes[idx] = match hops.len() {
                            1 => Route::Direct(hops[0]),
                            _ => Route::Forwarded(hops),
                        };
                    }
                }
                first_links.sort_unstable();
                for &fl in &first_links {
                    let (dist2, via2, prev2) = self.dijkstra(src, &hop_cost, fl);
                    for (dst, &d2) in dist2.iter().enumerate() {
                        if dst == src || !d2.is_finite() {
                            continue;
                        }
                        let idx = (bi * nd + src) * nd + dst;
                        let primary_first = match &routes[idx] {
                            Route::Direct(l) => Some(*l),
                            Route::Forwarded(h) => Some(h[0]),
                            Route::HostStaged => None,
                        };
                        if primary_first == Some(fl) {
                            alts[idx] = Some(extract_hops(src, dst, &via2, &prev2));
                        }
                    }
                }
            }
        }
        (routes, alts)
    }

    /// The shared-bus interconnect (no peer links).
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

    /// Total links, host root complex included.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Total contention queues: one for the host root complex, two (one
    /// per direction) for each peer link.
    pub fn num_queues(&self) -> usize {
        self.num_queues
    }

    /// The queue serving `link` in direction `reverse` (`false` =
    /// `endpoints.0 → endpoints.1`). The host root complex returns the
    /// same id for both directions.
    pub fn queue(&self, link: usize, reverse: bool) -> usize {
        self.queue_of[link][reverse as usize]
    }

    /// The link table (index = link id; `HOST_LINK` first).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The host root complex link id.
    pub fn host_link(&self) -> usize {
        HOST_LINK
    }

    /// Host link used by `device`'s host-side transfers.
    ///
    /// Every device's lanes currently converge on the **one** root
    /// complex, so every in-range device maps to [`HOST_LINK`] — the
    /// device argument exists because per-device root ports (independent
    /// host switches on heterogeneous hosts) are where this API goes
    /// next, and callers must already address the host link per device.
    /// The debug assertion keeps callers honest: passing a device the
    /// topology does not span is a bug even while the answer happens to
    /// be uniform.
    pub fn host_link_of(&self, device: u32) -> usize {
        debug_assert!(
            (device as usize) < self.num_devices,
            "host_link_of({device}) out of range: the topology spans {} devices",
            self.num_devices
        );
        HOST_LINK
    }

    /// Direct peer link between `a` and `b`, if the topology has one.
    /// O(1): indexes the dense adjacency table built at construction.
    pub fn peer_link(&self, a: u32, b: u32) -> Option<usize> {
        self.peer_adj[a as usize * self.num_devices + b as usize]
    }

    /// Breakpoint-table index serving a `bytes`-sized batch: the first
    /// rung whose probe is at least the batch, clamped to the largest.
    fn bp_index(&self, bytes: u64) -> usize {
        self.breakpoints.partition_point(|&bp| bp < bytes).min(self.breakpoints.len() - 1)
    }

    /// Cheapest route for one `src → dst` device transfer of `bytes`
    /// (O(1) table lookup; the batch size selects the breakpoint table,
    /// so tiny latency-bound batches may route differently from bulk
    /// bandwidth-bound ones). `src == dst` is never routed — debug
    /// builds fail loudly so a caller bug cannot price phantom traffic.
    pub fn route(&self, src: u32, dst: u32, bytes: u64) -> &Route {
        debug_assert_ne!(src, dst, "route({src}, {dst}): src == dst is never routed");
        let nd = self.num_devices;
        &self.routes[(self.bp_index(bytes) * nd + src as usize) * nd + dst as usize]
    }

    /// Re-route fallback for `src → dst` at `bytes`: the cheapest peer
    /// path avoiding the primary route's first hop (for host-staged
    /// primaries, the cheapest peer path outright). The load-aware
    /// second pass offers it as a detour and split target; `None` when
    /// the peer fabric admits no such path.
    pub fn alt_route(&self, src: u32, dst: u32, bytes: u64) -> Option<&[usize]> {
        debug_assert_ne!(src, dst, "alt_route({src}, {dst}): src == dst is never routed");
        let nd = self.num_devices;
        self.alt_routes[(self.bp_index(bytes) * nd + src as usize) * nd + dst as usize].as_deref()
    }

    /// Serialisation time of one `bytes`-sized batch crossing the hop
    /// chain `hops` end to end (contention-free).
    ///
    /// Store-and-forward (any hop without a cut-through chunk): the sum
    /// of every hop's transfer time — a hop cannot start until the
    /// previous one delivered the whole batch. With cut-through on every
    /// hop the chain pipelines chunks of the smallest advertised size
    /// `c`: the first chunk ramps across all hops, then the remaining
    /// `⌈bytes/c⌉ − 1` chunks drain at the bottleneck hop's chunk rate —
    ///
    /// ```text
    /// T = min( Σᵢ Tᵢ(bytes),  Σᵢ Tᵢ(c) + (⌈bytes/c⌉ − 1) · maxᵢ Tᵢ(c) )
    /// ```
    ///
    /// (the `min` models a forwarder that falls back to store-and-forward
    /// when per-chunk launch latency would dominate, so cut-through never
    /// prices a chain above the store-and-forward sum).
    pub fn chain_time(&self, hops: &[usize], bytes: u64) -> SimTime {
        let store_forward: SimTime = hops.iter().map(|&l| self.transfer_time(l, bytes)).sum();
        if bytes == 0 || hops.len() < 2 {
            return store_forward;
        }
        let mut chunk = u64::MAX;
        for &l in hops {
            match self.links[l].rate {
                LinkRate::Smooth(s) => match s.cut_through {
                    Some(c) => chunk = chunk.min(c),
                    None => return store_forward,
                },
                // Host-class hops never cut through.
                _ => return store_forward,
            }
        }
        if chunk >= bytes {
            return store_forward;
        }
        let chunks = bytes.div_ceil(chunk);
        let mut ramp = 0.0;
        let mut bottleneck = 0.0f64;
        for &l in hops {
            let t = self.transfer_time(l, chunk);
            ramp += t;
            bottleneck = bottleneck.max(t);
        }
        (ramp + (chunks - 1) as f64 * bottleneck).min(store_forward)
    }

    /// Price `route(src, dst, bytes)` contention-free: the direct link's
    /// transfer time, the forwarded chain's serialisation time
    /// ([`Interconnect::chain_time`] — store-and-forward, or pipelined
    /// under cut-through), or upload + download on the host root
    /// complex. Queueing happens in [`Interconnect::price_all_gather`].
    pub fn route_cost(&self, src: u32, dst: u32, bytes: u64) -> SimTime {
        match self.route(src, dst, bytes) {
            Route::Direct(l) => self.transfer_time(*l, bytes),
            Route::Forwarded(hops) => self.chain_time(hops, bytes),
            Route::HostStaged => 2.0 * self.transfer_time(HOST_LINK, bytes),
        }
    }

    /// Wall time of one transfer of `bytes` over link `link`.
    pub fn transfer_time(&self, link: usize, bytes: u64) -> SimTime {
        self.links[link].rate.transfer_time(bytes)
    }

    /// Does every ordered device pair price identically at every route
    /// breakpoint? On such a fabric — host-only (every pair stages through
    /// the one root complex), or a clique of identical links — no
    /// placement can be cheaper than any other as far as pair routing is
    /// concerned, so cost-driven placement planners short-circuit to
    /// their positional seed and stay bit-identical to it. The comparison
    /// is exact (`==` on the priced f64): pairs on a uniform fabric run
    /// the identical arithmetic, so no tolerance is needed.
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

    /// Peer-served zero-copy rung: the factor by which serving `reader`'s
    /// on-demand zero-copy reads from a warm copy held by `holder` (over
    /// their direct peer link) scales formula (3)'s host-staged `Tiz`.
    ///
    /// The zero-copy engine's baseline reads pinned *host* memory through
    /// the root complex; when the two devices share a direct NVLink-class
    /// link that moves the same bytes faster, the read stream can be
    /// served peer-to-peer instead and `Tiz` shrinks by the ratio of the
    /// two links' bulk transfer times. `None` when there is no direct
    /// link or the link is no faster than host staging (the rung only
    /// ever *improves* the crossover, mirroring the strict-improvement
    /// routing passes).
    pub fn peer_read_scale(&self, reader: u32, holder: u32) -> Option<f64> {
        if reader == holder {
            return None;
        }
        let link = self.peer_link(reader, holder)?;
        let peer = self.transfer_time(link, ROUTE_PROBE_BYTES);
        let host = self.transfer_time(HOST_LINK, ROUTE_PROBE_BYTES);
        (peer < host && host > 0.0).then(|| peer / host)
    }

    /// The endpoint of peer link `link` that is not `device`.
    fn other_end(&self, link: usize, device: u32) -> u32 {
        // hyt-lint: allow(unwrap-in-lib) -- callers only pass peer-link ids, and every peer link is constructed with Some(endpoints); only HOST_LINK has None
        let (a, b) = self.links[link].endpoints.expect("peer link has endpoints");
        if device == a {
            b
        } else {
            a
        }
    }

    /// Occupy `link` in the direction leaving `from` with one transfer of
    /// `bytes`; returns the device at the other end.
    fn occupy(&self, report: &mut ExchangeReport, from: u32, link: usize, bytes: u64) -> u32 {
        let t = self.transfer_time(link, bytes);
        // hyt-lint: allow(unwrap-in-lib) -- occupy is only invoked on peer links, which are always constructed with Some(endpoints)
        let (a, _) = self.links[link].endpoints.expect("peer link has endpoints");
        report.per_queue_busy[self.queue(link, from != a)] += t;
        report.per_link_busy[link] += t;
        self.other_end(link, from)
    }

    /// Price the end-of-iteration frontier all-gather: participating
    /// device `d` publishes `owned[d]` bytes and must receive every other
    /// participant's batch.
    ///
    /// Each pair's batch follows its cheapest route: a direct peer link,
    /// a forwarded multi-hop peer path (the batch pays — and occupies —
    /// every hop), or the shared host staging path — one upload per
    /// source (the host copy is reused for every host-routed destination)
    /// and one aggregated download per destination, exactly the
    /// shared-bus exchange. Legs queue per *direction* queue (a peer
    /// link runs its two directions concurrently) and overlap across
    /// queues, so the makespan is the busiest queue — floored by the
    /// longest single-batch store-and-forward chain ([`ExchangeReport::
    /// critical_path`]): a forwarded batch's hops serialise even when
    /// their queues are otherwise idle, so the exchange can never finish
    /// before its slowest routed batch has crossed every hop. (Still a
    /// relaxation: hop/queue interleavings beyond those two bounds are
    /// not played out.)
    ///
    /// Host legs are queued in ascending device order, upload before
    /// download, which keeps the host-only result bit-identical to the
    /// serial bus model.
    #[must_use = "an ExchangeReport is a priced plan, not an action; dropping it discards the pricing"]
    pub fn price_all_gather(&self, owned: &[u64], participates: &[bool]) -> ExchangeReport {
        match self.all_gather_payload(owned, participates) {
            None => self.empty_report(),
            Some(payload) => {
                let frags = self.static_fragments(owned, participates);
                self.evaluate_fragments(&frags, payload)
            }
        }
    }

    /// [`Interconnect::price_all_gather`] followed by the **load-aware
    /// second pass**: a deterministic greedy that, given the static
    /// pass's per-queue busy times, re-routes batches off the busiest
    /// queue (or off the binding forwarded chain) onto their
    /// next-cheapest path — another breakpoint's route, the
    /// first-hop-disjoint detour, host staging at its *marginal*
    /// (amortised-upload) cost, or an even split across two disjoint
    /// peer chains (the two ring directions) — accepting a move only
    /// when it strictly lowers the priced makespan.
    ///
    /// At most [`MAX_REROUTE_ROUNDS`] moves are applied, each strictly
    /// improving, so the result is **never worse than the static
    /// routing** and the pass always terminates. Each candidate move is
    /// probed by re-pricing the whole fragment set — O(D²) per probe,
    /// which is trivial at simulated device counts and keeps the probe
    /// arithmetic bit-identical to the final evaluation (a delta
    /// evaluator is the natural optimisation if D ever grows large). Payload bytes are
    /// invariant; only the per-link occupancy (and the
    /// [`ExchangeReport::rerouted_bytes`] / [`ExchangeReport::
    /// split_bytes`] accounting) may differ from the static pass.
    #[must_use = "an ExchangeReport is a priced plan, not an action; dropping it discards the pricing"]
    pub fn price_all_gather_load_aware(
        &self,
        owned: &[u64],
        participates: &[bool],
    ) -> ExchangeReport {
        let Some(payload) = self.all_gather_payload(owned, participates) else {
            return self.empty_report();
        };
        let mut frags = self.static_fragments(owned, participates);
        let mut best = self.evaluate_fragments(&frags, payload);
        for _round in 0..MAX_REROUTE_ROUNDS {
            let Some(bottleneck) = self.reroute_candidates(&frags, &best) else { break };
            let mut improved = false;
            'moves: for i in bottleneck {
                for mv in self.candidate_moves(&frags[i]) {
                    let tentative = apply_move(&frags, i, &mv);
                    let report = self.evaluate_fragments(&tentative, payload);
                    if report.makespan < best.makespan * (1.0 - REROUTE_EPS) {
                        frags = tentative;
                        best = report;
                        improved = true;
                        break 'moves;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        best
    }

    /// Logical all-gather payload, or `None` when the exchange is free
    /// (≤ 1 participant, or nothing published). Topology-invariant:
    /// every participant receives every other participant's records,
    /// however routed.
    fn all_gather_payload(&self, owned: &[u64], participates: &[bool]) -> Option<u64> {
        assert_eq!(owned.len(), self.num_devices, "one publication size per device");
        assert_eq!(participates.len(), self.num_devices);
        let holders = participates.iter().filter(|&&p| p).count();
        if holders <= 1 {
            return None; // nobody to talk to
        }
        let total: u64 = (0..self.num_devices).filter(|&d| participates[d]).map(|d| owned[d]).sum();
        if total == 0 {
            return None;
        }
        Some(total * (holders as u64 - 1))
    }

    /// A zeroed report with the per-link / per-queue vectors sized.
    fn empty_report(&self) -> ExchangeReport {
        ExchangeReport {
            per_link_busy: vec![0.0; self.links.len()],
            per_queue_busy: vec![0.0; self.num_queues],
            ..Default::default()
        }
    }

    /// One fragment per ordered participant pair with a non-empty batch,
    /// on its sized static route, in ascending `(src, dst)` order (f64
    /// accumulation order is part of the priced result).
    fn static_fragments(&self, owned: &[u64], participates: &[bool]) -> Vec<Fragment> {
        let nd = self.num_devices;
        let mut frags = Vec::new();
        for s in (0..nd as u32).filter(|&s| participates[s as usize]) {
            let b = owned[s as usize];
            if b == 0 {
                continue;
            }
            for d in (0..nd as u32).filter(|&d| d != s && participates[d as usize]) {
                let path = frag_path_of(self.route(s, d, b));
                frags.push(Fragment {
                    src: s,
                    dst: d,
                    bytes: b,
                    static_path: path.clone(),
                    path,
                    split: false,
                    can_split: true,
                });
            }
        }
        frags
    }

    /// Price one fragment assignment: peer fragments occupy every hop's
    /// direction queue (store-and-forward occupancy — cut-through only
    /// lowers the chain's *serialisation floor*, the same bytes still
    /// cross every wire); host fragments accumulate one amortised upload
    /// per source (staged destinations share the host copy, so the
    /// upload is the largest staged fragment — exact, because only
    /// unsplit fragments may host-stage and each carries the source's
    /// full publication) and one aggregated download per destination,
    /// queued in ascending device order, upload before download. The
    /// makespan is the busiest queue floored by the slowest fragment's chain
    /// serialisation ([`Interconnect::chain_time`], evaluated
    /// *per fragment*, so a split batch floors by its slowest half, not
    /// the original batch).
    fn evaluate_fragments(&self, frags: &[Fragment], payload: u64) -> ExchangeReport {
        let nd = self.num_devices;
        let mut report = self.empty_report();
        report.payload_bytes = payload;
        let mut host_up = vec![0u64; nd];
        let mut host_down = vec![0u64; nd];
        for f in frags {
            if f.bytes == 0 {
                continue;
            }
            match &f.path {
                FragPath::Peer(hops) => {
                    let mut cur = f.src;
                    for &link in hops {
                        cur = self.occupy(&mut report, cur, link, f.bytes);
                        report.peer_bytes += f.bytes;
                    }
                    debug_assert_eq!(cur, f.dst, "peer path must end at the destination");
                    if hops.len() > 1 {
                        report.forwarded_bytes += f.bytes * (hops.len() as u64 - 1);
                        // The fragment's hops depend on each other; a
                        // direct or host-staged leg never exceeds its
                        // own queue's busy time, so only forwarded
                        // chains can raise the floor.
                        report.critical_path =
                            report.critical_path.max(self.chain_time(hops, f.bytes));
                    }
                }
                FragPath::Host => {
                    host_up[f.src as usize] = host_up[f.src as usize].max(f.bytes);
                    host_down[f.dst as usize] += f.bytes;
                }
            }
            if f.split {
                report.split_bytes += f.bytes;
            } else if f.path != f.static_path {
                report.rerouted_bytes += f.bytes;
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

    /// Does this fragment occupy queue `q` on its current path?
    fn frag_touches(&self, f: &Fragment, q: usize) -> bool {
        match &f.path {
            FragPath::Host => self.queue(HOST_LINK, false) == q,
            FragPath::Peer(hops) => {
                let mut cur = f.src;
                for &link in hops {
                    // hyt-lint: allow(unwrap-in-lib) -- FragPath::Peer hop lists come from extract_hops over peer links, which all carry Some(endpoints)
                    let (a, _) = self.links[link].endpoints.expect("peer link has endpoints");
                    if self.queue(link, cur != a) == q {
                        return true;
                    }
                    cur = self.other_end(link, cur);
                }
                false
            }
        }
    }

    /// Fragments the greedy may move this round, in deterministic order:
    /// every fragment touching the busiest queue (ties break toward the
    /// lowest queue id), plus — when the forwarded-chain floor is what
    /// binds the makespan — the fragments whose chains sit on that
    /// floor. `None` when the exchange is already empty.
    fn reroute_candidates(&self, frags: &[Fragment], best: &ExchangeReport) -> Option<Vec<usize>> {
        if best.makespan <= 0.0 {
            return None;
        }
        let mut busiest = 0usize;
        for (q, &b) in best.per_queue_busy.iter().enumerate() {
            if b > best.per_queue_busy[busiest] {
                busiest = q;
            }
        }
        let mut out: Vec<usize> =
            (0..frags.len()).filter(|&i| self.frag_touches(&frags[i], busiest)).collect();
        if best.critical_path >= best.per_queue_busy[busiest] * (1.0 - REROUTE_EPS) {
            for (i, f) in frags.iter().enumerate() {
                if let FragPath::Peer(hops) = &f.path {
                    if hops.len() > 1
                        && self.chain_time(hops, f.bytes)
                            >= best.critical_path * (1.0 - REROUTE_EPS)
                        && !out.contains(&i)
                    {
                        out.push(i);
                    }
                }
            }
        }
        Some(out)
    }

    /// Candidate moves for one fragment, in deterministic order: the
    /// other breakpoints' routes for its pair (ascending rung), the
    /// first-hop-disjoint fallback path at its own rung, host staging,
    /// and — for a not-yet-split peer-routed batch — an even split
    /// across its current path and the fallback.
    fn candidate_moves(&self, f: &Fragment) -> Vec<RerouteMove> {
        let nd = self.num_devices;
        let mut paths: Vec<FragPath> = Vec::new();
        for bi in 0..self.breakpoints.len() {
            let r = &self.routes[(bi * nd + f.src as usize) * nd + f.dst as usize];
            let p = frag_path_of(r);
            if p != f.path && !paths.contains(&p) {
                paths.push(p);
            }
        }
        let alt = self.alt_route(f.src, f.dst, f.bytes);
        if let Some(hops) = alt {
            let p = FragPath::Peer(hops.to_vec());
            if p != f.path && !paths.contains(&p) {
                paths.push(p);
            }
        }
        if f.path != FragPath::Host && !paths.contains(&FragPath::Host) {
            paths.push(FragPath::Host);
        }
        // The halves of a split batch are *disjoint* record subsets, so
        // they may never host-stage: the amortised host upload is priced
        // as the largest staged fragment per source (exact when every
        // staged fragment from a source carries the source's full
        // publication), and a staged half would underprice the union.
        // Splits therefore stay on the peer fabric.
        if !f.can_split {
            paths.retain(|p| matches!(p, FragPath::Peer(_)));
        }
        let mut moves: Vec<RerouteMove> = paths.into_iter().map(RerouteMove::Whole).collect();
        if f.can_split && f.bytes >= 2 && matches!(f.path, FragPath::Peer(_)) {
            if let Some(hops) = alt {
                if FragPath::Peer(hops.to_vec()) != f.path {
                    moves.push(RerouteMove::Split(hops.to_vec()));
                }
            }
        }
        moves
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

/// Ring neighbour pairs for `nd` devices: `nd = 2` has a single link,
/// `nd ≤ 1` none.
fn ring_pairs(nd: usize) -> Vec<(u32, u32)> {
    match nd {
        0 | 1 => Vec::new(),
        2 => vec![(0, 1)],
        _ => (0..nd as u32).map(|d| (d, (d + 1) % nd as u32)).collect(),
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
    /// Bytes of whole batches the load-aware second pass moved off their
    /// sized static route (zero for the static pass, and when no
    /// re-route strictly improved the makespan).
    pub rerouted_bytes: u64,
    /// Bytes travelling on the secondary halves of batches the
    /// load-aware pass split across two disjoint peer paths (zero when
    /// nothing split).
    pub split_bytes: u64,
    /// Logical payload delivered (`Σ owned · (participants − 1)`) —
    /// identical for every topology, unlike the per-link byte counts.
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

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn pcie() -> PcieModel {
        PcieModel::pcie3()
    }

    fn serial_bus_exchange(pcie: &PcieModel, owned: &[u64], participates: &[bool]) -> (f64, u64) {
        // The reference pricing: per participating device, one upload
        // and one download on the single shared bus.
        let total: u64 = owned.iter().zip(participates).filter(|&(_, &p)| p).map(|(&o, _)| o).sum();
        let mut time = 0.0;
        let mut bytes = 0u64;
        for (d, &o) in owned.iter().enumerate() {
            if !participates[d] {
                continue;
            }
            for b in [o, total - o] {
                if b > 0 {
                    time += pcie.explicit_copy_time(b);
                    bytes += b;
                }
            }
        }
        (time, bytes)
    }

    #[test]
    fn topology_kind_parse_roundtrips() {
        for k in TopologyKind::ALL {
            assert_eq!(TopologyKind::parse(k.name()), Some(k));
        }
        assert_eq!(TopologyKind::parse(TopologyKind::Mesh.name()), Some(TopologyKind::Mesh));
        assert_eq!(TopologyKind::parse("a2a"), Some(TopologyKind::AllToAll));
        assert_eq!(TopologyKind::parse("HOST"), Some(TopologyKind::HostOnly));
        assert_eq!(TopologyKind::parse("torus"), None);
    }

    #[test]
    fn link_counts_per_topology() {
        let p = pcie();
        let s = LinkSpec::nvlink();
        assert_eq!(Interconnect::build(TopologyKind::HostOnly, 4, p, s).num_links(), 1);
        assert_eq!(Interconnect::build(TopologyKind::Ring, 4, p, s).num_links(), 1 + 4);
        assert_eq!(Interconnect::build(TopologyKind::Ring, 2, p, s).num_links(), 1 + 1);
        assert_eq!(Interconnect::build(TopologyKind::Ring, 1, p, s).num_links(), 1);
        assert_eq!(Interconnect::build(TopologyKind::AllToAll, 4, p, s).num_links(), 1 + 6);
    }

    #[test]
    fn queue_counts_follow_duplex() {
        let p = pcie();
        // Host queue + one per direction of every peer link.
        let full = Interconnect::build(TopologyKind::Ring, 4, p, LinkSpec::nvlink());
        assert_eq!(full.num_queues(), 1 + 2 * 4);
        assert_ne!(full.queue(1, false), full.queue(1, true));
        // The host root complex is always one queue.
        assert_eq!(full.queue(HOST_LINK, false), full.queue(HOST_LINK, true));
        assert_eq!(Interconnect::host_only(4, p).num_queues(), 1);
    }

    #[test]
    fn ring_routes_neighbours_direct_and_opposites_forwarded() {
        let ic = Interconnect::build(TopologyKind::Ring, 4, pcie(), LinkSpec::nvlink());
        assert!(matches!(ic.route(0, 1, ROUTE_PROBE_BYTES), Route::Direct(_)));
        assert!(matches!(ic.route(3, 0, ROUTE_PROBE_BYTES), Route::Direct(_)));
        // Opposite pairs forward two fast hops rather than paying two
        // TLP-quantised host copies.
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
                    assert!(
                        matches!(ic.route(a, b, ROUTE_PROBE_BYTES), Route::Direct(_)),
                        "{a}->{b}"
                    );
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
        // hops beat two TLP-quantised host copies).
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
    fn host_only_all_gather_is_bit_identical_to_legacy_serial_bus() {
        let p = pcie();
        let ic = Interconnect::host_only(4, p);
        let owned = [1200u64, 0, 96, 50_000];
        let participates = [true, true, true, false];
        let r = ic.price_all_gather(&owned, &participates);
        let (serial_time, serial_bytes) = serial_bus_exchange(&p, &owned, &participates);
        assert_eq!(r.makespan, serial_time, "host-only must reduce to the serial bus exactly");
        assert_eq!(r.host_time, serial_time);
        assert_eq!(r.host_bytes, serial_bytes);
        assert_eq!(r.peer_bytes, 0);
        assert_eq!(r.forwarded_bytes, 0);
        assert_eq!(r.peer_time, 0.0);
        // Payload counts each record once per receiving peer.
        assert_eq!(r.payload_bytes, (1200 + 96) * 2);
    }

    #[test]
    fn uniform_clique_rides_every_batch_on_its_own_direction_queue() {
        // On an all-to-all clique every ordered pair's batch is the only
        // leg on its direct link's direction queue.
        let p = pcie();
        let spec = LinkSpec::nvlink();
        let ic = Interconnect::build(TopologyKind::AllToAll, 4, p, spec);
        let owned = [400u64, 900, 16, 120];
        let participates = [true; 4];
        let r = ic.price_all_gather(&owned, &participates);
        let mut link_busy = vec![0.0f64; ic.num_links()];
        for s in 0..4u32 {
            for d in (0..4u32).filter(|&d| d != s) {
                let l = ic.peer_link(s, d).unwrap();
                link_busy[l] += spec.transfer_time(owned[s as usize]);
            }
        }
        assert_eq!(r.makespan, spec.transfer_time(900), "the largest batch binds");
        assert_eq!(r.per_link_busy, link_busy);
        assert_eq!(r.host_bytes, 0);
        assert_eq!(r.forwarded_bytes, 0);
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
        // One publisher, one opposite-side receiver on a 4-ring: the
        // batch crosses two hops that depend on each other, so even
        // though each hop sits on its own otherwise-idle queue (no
        // other leg shares them), the exchange takes two hop times, not
        // one.
        let ic = Interconnect::build(TopologyKind::Ring, 4, pcie(), LinkSpec::nvlink());
        let b = 200_000u64;
        let r = ic.price_all_gather(&[b, 0, 0, 0], &[true, false, true, false]);
        let hop = LinkSpec::nvlink().transfer_time(b);
        assert!((r.critical_path - 2.0 * hop).abs() < EPS);
        assert!((r.makespan - 2.0 * hop).abs() < EPS, "hop precedence must floor the makespan");
        let busiest = r.per_queue_busy.iter().fold(0.0f64, |a, &x| a.max(x));
        assert!((busiest - hop).abs() < EPS, "each queue carries one hop");
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
    fn mesh_builder_prices_mixed_generations_per_link() {
        let p = pcie();
        let fast = LinkSpec::with_nominal_bw(200.0e9);
        let slow = LinkSpec::with_nominal_bw(25.0e9);
        let ic = Interconnect::mesh(3, p, &[(0, 1, fast), (1, 2, slow)]);
        assert_eq!(ic.kind(), TopologyKind::Mesh, "a sparse mesh is not a clique");
        assert_eq!(ic.num_links(), 3);
        // A mesh kind builds bare (host link only) from the uniform
        // builder; its links come from the caller.
        assert_eq!(Interconnect::build(TopologyKind::Mesh, 3, p, fast).num_links(), 1);
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
    fn ring_with_specs_assigns_in_link_order() {
        let p = pcie();
        let specs = [
            LinkSpec::with_nominal_bw(50.0e9),
            LinkSpec::nvlink(),
            LinkSpec::with_nominal_bw(100.0e9),
        ];
        let ic = Interconnect::ring_with_specs(3, p, &specs);
        assert_eq!(ic.num_links(), 1 + 3);
        let l20 = ic.peer_link(2, 0).unwrap();
        let b = 1 << 20;
        // Link (2, 0) carries the 100 GB/s spec and is the fastest.
        for l in 1..ic.num_links() {
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
    fn makespan_is_the_busiest_queue_floored_by_the_critical_path() {
        let ic = Interconnect::build(TopologyKind::Ring, 5, pcie(), LinkSpec::nvlink());
        let r = ic.price_all_gather(&[100, 2000, 3, 77, 900], &[true; 5]);
        let max = r.per_queue_busy.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!((r.makespan - max.max(r.critical_path)).abs() < EPS);
        for &busy in &r.per_queue_busy {
            assert!(busy <= r.makespan + EPS);
        }
        // Per-link busy sums its direction queues and tiles the class
        // totals.
        let mut q = 0;
        for (l, link) in ic.links().iter().enumerate() {
            let n = if link.class == LinkClass::Peer { 2 } else { 1 };
            let sum: f64 = r.per_queue_busy[q..q + n].iter().sum();
            assert!((r.per_link_busy[l] - sum).abs() < EPS);
            q += n;
        }
        let sum: f64 = r.per_link_busy.iter().sum();
        assert!((sum - r.host_time - r.peer_time).abs() < EPS);
    }

    /// A 3-device mesh whose (0, 1) pair has a slow direct bridge beside
    /// a fast 2-hop detour: bulk batches should forward, tiny ones go
    /// direct (two hop latencies cost more than the slow wire).
    fn slow_direct_fast_detour() -> Interconnect {
        let fast = LinkSpec::with_nominal_bw(50.0e9);
        let slow = LinkSpec::with_nominal_bw(2.0e9);
        Interconnect::mesh(3, pcie(), &[(0, 1, slow), (0, 2, fast), (1, 2, fast)])
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
    fn host_link_of_maps_every_spanned_device_to_the_root_complex() {
        let ic = Interconnect::build(TopologyKind::Ring, 4, pcie(), LinkSpec::nvlink());
        for d in 0..4 {
            assert_eq!(ic.host_link_of(d), HOST_LINK);
        }
    }

    #[test]
    fn alt_routes_offer_the_other_ring_direction() {
        let ic = Interconnect::build(TopologyKind::Ring, 6, pcie(), LinkSpec::nvlink());
        // Primary 0 → 2 goes clockwise (2 hops); the fallback must avoid
        // the primary's first link, i.e. detour counter-clockwise.
        let primary = match ic.route(0, 2, ROUTE_PROBE_BYTES) {
            Route::Forwarded(hops) => hops.clone(),
            r => panic!("expected forwarding, got {r:?}"),
        };
        let alt = ic.alt_route(0, 2, ROUTE_PROBE_BYTES).expect("a ring always has a detour");
        assert_eq!(alt.len(), 4, "counter-clockwise detour is 4 hops");
        assert_ne!(alt[0], primary[0], "fallback must avoid the primary's first hop");
        // A host-staged pair still exposes its (rejected) peer path as
        // the fallback.
        let slow = ic
            .clone()
            .with_link_spec(0, 1, LinkSpec::with_nominal_bw(0.1e9))
            .with_link_spec(5, 0, LinkSpec::with_nominal_bw(0.1e9));
        assert_eq!(slow.route(0, 3, ROUTE_PROBE_BYTES), &Route::HostStaged);
        assert!(slow.alt_route(0, 3, ROUTE_PROBE_BYTES).is_some());
    }

    #[test]
    fn cut_through_pipelines_a_long_detour_toward_the_bottleneck_hop() {
        let b = 64 << 20;
        let chunk = 4 << 20;
        let saf_spec = LinkSpec::with_nominal_bw(50.0e9);
        let ct_spec = saf_spec.with_cut_through(chunk);
        let line = |s: LinkSpec| Interconnect::mesh(4, pcie(), &[(0, 1, s), (1, 2, s), (2, 3, s)]);
        let saf = line(saf_spec);
        let ct = line(ct_spec);
        let hops: Vec<usize> = (0..3).map(|i| saf.peer_link(i, i + 1).unwrap()).collect();
        // Store-and-forward prices the sum of the hops; cut-through the
        // bottleneck stream plus a one-chunk ramp on the other hops.
        let hop_t = saf_spec.transfer_time(b);
        assert!((saf.chain_time(&hops, b) - 3.0 * hop_t).abs() < EPS);
        let chunk_t = ct_spec.transfer_time(chunk);
        let expect = 3.0 * chunk_t + (b / chunk - 1) as f64 * chunk_t;
        assert!((ct.chain_time(&hops, b) - expect).abs() < EPS);
        assert!(ct.chain_time(&hops, b) < saf.chain_time(&hops, b), "cut-through must win here");
        // Chunks at least the batch degenerate to store-and-forward, and
        // chunking never prices above it (the min clamps pathological
        // per-chunk latency).
        let huge = line(saf_spec.with_cut_through(b));
        assert_eq!(huge.chain_time(&hops, b), saf.chain_time(&hops, b));
        let tiny = line(saf_spec.with_cut_through(64));
        assert!(tiny.chain_time(&hops, b) <= saf.chain_time(&hops, b) + EPS);
    }

    #[test]
    #[should_panic(expected = "cut-through chunks must be non-empty")]
    fn zero_cut_through_chunks_fail_at_build_time() {
        // A zero chunk must be rejected when the spec is built, not
        // divide-by-zero later in chain pricing.
        let _ = LinkSpec::nvlink().with_cut_through(0);
    }

    #[test]
    fn cut_through_shrinks_the_sparse_detour_exchange_and_only_that() {
        // One publisher, one far receiver on a 4-link line: the makespan
        // is the 3-hop serialisation floor, which cut-through pipelines
        // down toward the bottleneck hop. Wire occupancy, byte counts
        // and payload stay identical.
        let b = 64 << 20;
        let spec = LinkSpec::with_nominal_bw(50.0e9);
        let line = |s: LinkSpec| Interconnect::mesh(4, pcie(), &[(0, 1, s), (1, 2, s), (2, 3, s)]);
        let owned = [b, 0, 0, 0];
        let participates = [true, false, false, true];
        let saf = line(spec).price_all_gather(&owned, &participates);
        let ct = line(spec.with_cut_through(4 << 20)).price_all_gather(&owned, &participates);
        assert!(ct.critical_path < saf.critical_path);
        assert!(ct.makespan < saf.makespan, "ct {} !< saf {}", ct.makespan, saf.makespan);
        assert_eq!(ct.per_link_busy, saf.per_link_busy, "same bytes cross every wire");
        assert_eq!(ct.per_queue_busy, saf.per_queue_busy);
        assert_eq!(ct.peer_bytes, saf.peer_bytes);
        assert_eq!(ct.forwarded_bytes, saf.forwarded_bytes);
        assert_eq!(ct.payload_bytes, saf.payload_bytes);
    }

    #[test]
    fn load_aware_pass_splits_the_skewed_ring_and_strictly_improves() {
        // Device 0 publishes ~80x more than anyone else on a D = 8
        // ring: statically its two egress direction queues
        // carry 4 and 3 of its batches, and the 4-hop opposite batch
        // floors the makespan at 4 hop times. Splitting that batch
        // across the two ring directions rebalances to ~3.5 hop times.
        let ic = Interconnect::build(TopologyKind::Ring, 8, pcie(), LinkSpec::nvlink());
        let mut owned = [10_000u64; 8];
        owned[0] = 800_000;
        let participates = [true; 8];
        let stat = ic.price_all_gather(&owned, &participates);
        let load = ic.price_all_gather_load_aware(&owned, &participates);
        assert!(
            load.makespan < stat.makespan,
            "load-aware {} !< static {}",
            load.makespan,
            stat.makespan
        );
        assert_eq!(load.payload_bytes, stat.payload_bytes, "payload is routing-invariant");
        assert_eq!(stat.rerouted_bytes, 0, "the static pass never re-routes");
        assert_eq!(stat.split_bytes, 0);
        assert!(
            load.rerouted_bytes > 0 || load.split_bytes > 0,
            "an improvement implies at least one move"
        );
        assert!(load.makespan >= load.critical_path - EPS);
    }

    #[test]
    fn load_aware_pass_is_a_no_op_when_the_static_routing_is_already_balanced() {
        // A perfectly symmetric clique admits no strictly-improving
        // move, so the load-aware report is bit-identical to the static
        // one.
        let ic = Interconnect::build(TopologyKind::AllToAll, 4, pcie(), LinkSpec::nvlink());
        let owned = [50_000u64; 4];
        let participates = [true; 4];
        let stat = ic.price_all_gather(&owned, &participates);
        let load = ic.price_all_gather_load_aware(&owned, &participates);
        assert_eq!(stat, load);
        assert_eq!(load.rerouted_bytes, 0);
        assert_eq!(load.split_bytes, 0);
    }

    #[test]
    fn load_aware_pass_moves_host_staged_traffic_onto_an_idle_fabric() {
        // A slow bridge statically sends its pair to the host; when the
        // host queue is the bottleneck the second pass may prefer the
        // (statically rejected) slow peer wire, which sits idle. Build
        // that situation directly: host staging two bulk batches vs a
        // slow-but-idle direct wire.
        let slow = LinkSpec::with_nominal_bw(8.0e9);
        let ic = Interconnect::mesh(2, pcie(), &[(0, 1, slow)])
            .with_route_breakpoints(&[ROUTE_PROBE_BYTES]);
        // At the probe size the direct 8 GB/s wire loses to 2 host
        // copies? explicit_bw ~12.3 GB/s, two copies => ~6.15 GB/s
        // effective; the 8 GB/s wire (derated to ~6.2) is close — pick a
        // spec slow enough to stage statically.
        let really_slow = LinkSpec::with_nominal_bw(4.0e9);
        let ic = ic.with_link_spec(0, 1, really_slow);
        assert_eq!(ic.route(0, 1, ROUTE_PROBE_BYTES), &Route::HostStaged);
        let owned = [4 << 20, 4 << 20];
        let participates = [true; 2];
        let stat = ic.price_all_gather(&owned, &participates);
        let load = ic.price_all_gather_load_aware(&owned, &participates);
        // Both directions share the one host queue statically (4 host
        // copies serialise); the full-duplex slow wire carries the two
        // directions concurrently, so re-routing at least one batch
        // strictly helps.
        assert!(load.makespan < stat.makespan);
        assert!(load.rerouted_bytes > 0);
        assert!(load.host_bytes < stat.host_bytes);
    }

    #[test]
    fn link_spec_scaling_shrinks_latency_only() {
        let s = LinkSpec::nvlink();
        let sc = s.scaled(10);
        assert_eq!(sc.bandwidth, s.bandwidth);
        assert_eq!(sc.cut_through, s.cut_through);
        assert!((sc.latency - s.latency / 1024.0).abs() < 1e-18);
        assert_eq!(s.transfer_time(0), 0.0);
        assert!(s.transfer_time(1 << 20) > s.latency);
    }
}
