//! Link vocabulary: the named shapes, what one wire costs, and the link
//! table entry an [`Interconnect`](super::Interconnect) is built from.

use crate::pcie::PcieModel;
use crate::SimTime;

/// Named interconnect shapes the simulator knows how to build. Any other
/// fabric is one of these edited per link
/// ([`Interconnect::with_link_spec`](super::Interconnect::with_link_spec),
/// or `link_overrides` in the system configuration).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// No peer links: every transfer is staged through the host ports.
    /// The paper's platform; the default.
    #[default]
    HostOnly,
    /// Each device has a direct link to its two ring neighbours
    /// (`d ± 1 mod D`); other pairs forward along the ring or stage
    /// through the host, whichever prices cheaper.
    Ring,
    /// A direct link between every device pair (NVSwitch-class).
    AllToAll,
}

impl TopologyKind {
    /// Every shape, in sweep order.
    pub const ALL: [TopologyKind; 3] =
        [TopologyKind::HostOnly, TopologyKind::Ring, TopologyKind::AllToAll];

    /// Display name (also accepted by [`TopologyKind::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::HostOnly => "host-only",
            TopologyKind::Ring => "ring",
            TopologyKind::AllToAll => "all-to-all",
        }
    }

    /// Parse a CLI/config spelling.
    pub fn parse(s: &str) -> Option<TopologyKind> {
        match s.to_ascii_lowercase().as_str() {
            "host" | "host-only" | "hostonly" | "pcie" => Some(TopologyKind::HostOnly),
            "ring" => Some(TopologyKind::Ring),
            "all-to-all" | "alltoall" | "a2a" | "nvswitch" => Some(TopologyKind::AllToAll),
            _ => None,
        }
    }
}

/// Bandwidth and latency of an NVLink-class point-to-point link. The
/// bandwidth is *per direction*, and each direction owns its own
/// contention queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Effective (practical) bandwidth per direction, bytes/second.
    pub bandwidth: f64,
    /// Fixed per-transfer software/launch latency, seconds.
    pub latency: SimTime,
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
        LinkSpec { bandwidth: nominal * crate::pcie::PRACTICAL_FRACTION, latency: 5.0e-6 }
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

/// One contended wire of the interconnect.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Link {
    /// One PCIe switch uplink that its two devices' host lanes converge
    /// on ([`Interconnect::host_link_of`](super::Interconnect::host_link_of)):
    /// one queue. Each
    /// leg moves the cheaper way at its own size
    /// ([`PcieModel::hybrid_copy_time`]): a TLP-quantised explicit copy,
    /// or a zero-copy run whose last TLP may be partly filled.
    Host(PcieModel),
    /// A direct NVLink-class link between devices `ends.0` and `ends.1`,
    /// priced smooth latency + bandwidth; each direction owns a queue.
    Peer {
        /// Endpoint devices; the forward direction is `ends.0 → ends.1`.
        ends: (u32, u32),
        /// Per-direction pricing.
        spec: LinkSpec,
    },
}

impl Link {
    /// Wall time of one transfer of `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        match self {
            Link::Host(p) => p.hybrid_copy_time(bytes),
            Link::Peer { spec, .. } => spec.transfer_time(bytes),
        }
    }
}
