#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Transaction-level PCIe / GPU / unified-memory simulator.
//!
//! This crate is the substitution for the hardware the paper ran on (an
//! NVIDIA GTX 2080Ti behind PCIe 3.0 x16). It models exactly the quantities
//! HyTGraph's cost formulas reason about, and nothing more:
//!
//! * [`pcie`] — Transaction Layer Packet (TLP) accounting: each TLP carries
//!   up to `MR = 256` outstanding memory requests of up to `m = 128` bytes,
//!   and takes one bus round-trip (`RTT`) to process. Explicit copies
//!   (`cudaMemcpy`) always ship saturated TLPs; zero-copy ships one request
//!   per vertex-neighbour-run cacheline and so may be arbitrarily
//!   unsaturated (the γ "dumpling factor" models the fixed vs payload-
//!   proportional split of TLP time).
//! * [`um`] — unified-memory: 4 KB page granularity, page-fault overhead
//!   (TLB invalidation + page-table update), LRU eviction under a device
//!   byte budget, and the paper's measured 73.9 % peak-bandwidth ratio
//!   versus explicit copy.
//! * [`gpu`] — device presets (GTX 1080, Tesla P100, RTX 2080Ti, V100,
//!   A100, H100) with memory bandwidth, PCIe generation, core counts and
//!   capacity: Table I's inputs and Fig. 10's sweep.
//! * [`kernel`] — an analytic kernel-time model (edge throughput scaled by
//!   core count, launch overhead). Real computation happens on CPU threads
//!   in `hyt-engines`; this model only charges simulated *time*.
//! * [`streams`] — the vocabulary of the CUDA-stream timeline (Fig. 6):
//!   tasks as ordered phases on three kinds of contended resource
//!   (interconnect queues, each device's GPU, the one CPU compaction
//!   pool) plus exchange hops on interconnect queues, spans, and
//!   `StreamSim`, the one-device view of `multi`'s scheduler.
//! * [`multi`] — the one discrete-event list scheduler: per-device
//!   streams and kernel engines behind a routed interconnect and one host
//!   compaction pool, then the frontier exchange's legs, recorded once in
//!   one span log.
//! * [`topology`] — the interconnect itself: host ports (one per PCIe
//!   switch uplink, two devices each) plus
//!   optional NVLink-class peer links (ring / all-to-all, edited per link
//!   into heterogeneous fabrics, each link with its own spec and duplex
//!   discipline), byte-size-aware cheapest-path
//!   transfer routing (per-breakpoint route tables; direct,
//!   device-via-device forwarded, or host-staged), and the frontier
//!   all-gather routed into per-direction-queue legs.
//! * [`clock`] — transfer/volume counters used by Table VI.

pub mod clock;
pub mod gpu;
pub mod kernel;
pub mod multi;
pub mod pcie;
pub mod streams;
pub mod topology;
pub mod um;

pub use clock::TransferCounters;
pub use gpu::{GpuModel, MachineModel};
pub use kernel::KernelModel;
pub use multi::{MultiGpuSim, MultiTimeline};
pub use pcie::PcieModel;
pub use streams::{Owner, Phase, PhaseSpan, Resource, SimTask, StreamSim, Timeline};
pub use topology::{
    ExchangeReport, Interconnect, Link, LinkSpec, Route, TopologyKind, ROUTE_BREAKPOINT_LADDER,
    ROUTE_PROBE_BYTES,
};
pub use um::{UmCache, UmModel};

/// Simulated time in seconds. All model arithmetic is pure `f64`; identical
/// inputs give identical times on every platform.
pub type SimTime = f64;
