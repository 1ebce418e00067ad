//! Link vocabulary: the named shapes, what one wire costs, and the link
//! table entry an [`Interconnect`](super::Interconnect) is built from.

use crate::pcie::PcieModel;
use crate::SimTime;

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
    /// An explicitly-specified link set
    /// ([`Interconnect::mesh`](super::Interconnect::mesh), or
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
    /// advertised size across its hops
    /// ([`Interconnect::chain_time`](super::Interconnect::chain_time))
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
