//! Topology-aware interconnect: heterogeneous links, routed (possibly
//! multi-hop) paths, and per-direction contention.
//!
//! Pricing every byte — edge slices *and* the inter-device frontier
//! exchange — on one flat PCIe bus is exactly the assumption the paper's
//! Section VIII names as the open frontier.
//! This module makes the interconnect a first-class object:
//!
//! * a [`Link`] is one contended wire with its own pricing: a **host
//!   port** ([`Link::Host`]: the PCIe root port or switch uplink its
//!   devices' lanes converge on, and each leg takes the cheaper of an
//!   explicit copy and a zero-copy run,
//!   [`PcieModel::hybrid_copy_time`](crate::PcieModel::hybrid_copy_time))
//!   or an **NVLink-class peer link** between two devices ([`Link::Peer`]:
//!   smooth latency + bandwidth, [`LinkSpec`]).
//!   Every peer link carries its *own* spec, so mixed-generation fabrics
//!   (x4 beside x8 bridges, NVLink 2 beside NVLink 4) are first-class;
//! * the host side is **one queue per host port**, one port per PCIe
//!   switch uplink with two devices behind it (device `d` on port
//!   `d / 2`, [`Interconnect::host_link_of`]), so devices on different
//!   ports move host bytes concurrently and the two devices of one port
//!   serialise on it;
//! * peer links are **full-duplex**: each direction owns its own
//!   contention queue, so the two legs of a symmetric exchange overlap
//!   instead of serialising;
//! * an [`Interconnect`] is one of three named shapes ([`TopologyKind`])
//!   — host-only, a ring of neighbour links, or a
//!   fully-connected clique — plus per-link edits
//!   ([`Interconnect::with_link_spec`]) that re-price a link or add a
//!   missing one, which is how any heterogeneous fabric is built;
//! * [`Interconnect::route`] returns the **cheapest priced path** for a
//!   device-to-device transfer of a given *size*, chosen at build time
//!   from a dense **per-breakpoint** route table: routes are probed at a
//!   ladder of payload sizes ([`Interconnect::with_route_breakpoints`];
//!   a freshly built interconnect probes at [`ROUTE_PROBE_BYTES`]
//!   alone), and `route(src, dst, bytes)` selects the table whose probe
//!   matches the batch, so latency-bound tiny batches may legitimately
//!   take fewer hops than bandwidth-bound bulk ones. Each entry is
//!   **direct** over a peer link, **forwarded** device-via-device over a
//!   multi-hop peer path, or **host-staged** (up on the source's host
//!   port, down on the destination's) when the peer fabric is absent or
//!   slower. A slow bridge therefore shifts its pair's traffic back to
//!   host staging instead of being used blindly;
//! * forwarded chains price **store-and-forward**: each hop waits for the
//!   whole batch, so a chain costs the sum of its hops
//!   ([`Interconnect::route_cost`]);
//! * [`Interconnect::price_all_gather`] routes a frontier all-gather
//!   into legs and plays them on the one list scheduler
//!   ([`MultiGpuSim`](crate::MultiGpuSim)): legs on disjoint queues
//!   overlap, legs sharing a queue serialise. With the host-only
//!   topology at `D ≤ 2` (one port) this reduces *bit-identically* to a
//!   serial bus pricing every leg with the same per-leg rule, and at any
//!   `D` each port is that serial bus for its own legs (asserted by
//!   tests), so the multi-device differential guarantees hold on every
//!   topology.
//!
//! Three private siblings, re-exported here so every
//! `hyt_sim::topology::*` path resolves: `spec` (the link vocabulary),
//! `route` (builders, the per-breakpoint route tables, contention-free
//! path pricing) and `price` (routing the all-gather into legs, and its
//! [`ExchangeReport`]).

mod price;
mod route;
mod spec;

pub use price::ExchangeReport;
pub use route::{Interconnect, Route, ROUTE_BREAKPOINT_LADDER, ROUTE_PROBE_BYTES};
pub use spec::{Link, LinkSpec, TopologyKind};

// One test module for all three siblings (not one per file): the suite
// tracks tests by path, and these keep their `topology::tests::*` names.
#[cfg(test)]
mod tests;
