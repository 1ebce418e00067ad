//! PCIe Transaction Layer Packet (TLP) accounting.
//!
//! The paper's cost model (Section V-A) reduces every transfer mechanism to
//! TLP counts:
//!
//! * Each TLP processes at most `MR = 256` outstanding memory requests
//!   (PCIe 3.0 specification).
//! * Each request carries at most `m = 128` bytes of payload.
//! * A *saturated* TLP (all requests full) takes one round-trip time `RTT`.
//! * Zero-copy TLPs may be unsaturated; their round-trip `RTT_zc` is split
//!   by the "dumpling factor" γ into a fixed part and a payload-
//!   proportional part:
//!   `RTT_zc = γ·RTT + (1-γ)·(active_edges/total_edges)·RTT`, γ = 0.625.
//!
//! [`PcieModel`] implements that arithmetic plus the bandwidth curve of
//! Fig. 3(e) (throughput vs request granularity 32/64/96/128 B).

use crate::SimTime;

/// PCIe bus model. Constructed from a link bandwidth; all TLP constants
/// default to the PCIe 3.0 values the paper uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PcieModel {
    /// Practical explicit-copy bandwidth in bytes/second. The paper quotes
    /// 12.3 GB/s measured out of the 16 GB/s nominal PCIe 3.0 x16.
    pub explicit_bw: f64,
    /// Max payload of one outstanding memory request (the paper's `m`).
    pub request_bytes: u64,
    /// Max outstanding requests per TLP (the paper's `MR`).
    pub max_requests: u64,
    /// Dumpling factor γ: the fixed fraction of a zero-copy TLP's
    /// round-trip (the paper sets 0.625, citing EMOGI).
    pub gamma: f64,
    /// Fixed software latency per explicit copy invocation
    /// (`cudaMemcpy` launch; ~10 µs on the paper's platform class).
    pub copy_latency: SimTime,
    /// Zero-copy efficiency relative to explicit copy at full saturation.
    /// Fig. 3(e) shows saturated zero-copy reaching "almost" cudaMemcpy
    /// bandwidth — the residual TLP bookkeeping keeps it slightly below,
    /// which is also why fully-active partitions prefer ExpTM-filter.
    pub zc_efficiency: f64,
}

/// Nominal-to-practical bandwidth derate observed by the paper
/// (12.3 GB/s achieved on a 16 GB/s link).
pub const PRACTICAL_FRACTION: f64 = 12.3 / 16.0;

impl PcieModel {
    /// PCIe 3.0 x16 with the paper's measured practical bandwidth.
    pub fn pcie3() -> Self {
        Self::with_nominal_bw(16.0e9)
    }

    /// A model with the given *nominal* link bandwidth (bytes/s), derated
    /// to practical throughput by [`PRACTICAL_FRACTION`].
    pub fn with_nominal_bw(nominal: f64) -> Self {
        PcieModel {
            explicit_bw: nominal * PRACTICAL_FRACTION,
            request_bytes: 128,
            max_requests: 256,
            gamma: 0.625,
            copy_latency: 10.0e-6,
            zc_efficiency: 0.95,
        }
    }

    /// Payload of one saturated TLP (`m · MR` bytes = 32 KB on PCIe 3.0).
    #[inline]
    fn tlp_payload(&self) -> u64 {
        self.request_bytes * self.max_requests
    }

    /// Round-trip time of one saturated TLP: the time the bus needs to move
    /// a full payload at practical bandwidth. The paper notes RTT's
    /// absolute value cancels in engine comparison; it matters here because
    /// the simulator also reports absolute times.
    #[inline]
    fn rtt(&self) -> SimTime {
        self.tlp_payload() as f64 / self.explicit_bw
    }

    /// Number of saturated TLPs an explicit copy of `bytes` needs:
    /// `ceil(bytes / m / MR)`.
    #[inline]
    pub fn explicit_copy_tlps(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.tlp_payload())
    }

    /// Wall time of one explicit copy (`cudaMemcpy`) of `bytes`.
    pub fn explicit_copy_time(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return 0.0;
        }
        self.copy_latency + self.explicit_copy_tlps(bytes) as f64 * self.rtt()
    }

    /// Exact memory requests for a neighbour run at byte `start` of length
    /// `len`: the number of distinct request-sized lines the run touches.
    /// This is `⌈len·d1/m⌉ + am(v)` where `am(v)` is 1 only when the
    /// misaligned run actually straddles one more line.
    #[inline]
    pub fn requests_for_span(&self, start: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        (start + len - 1) / self.request_bytes - start / self.request_bytes + 1
    }

    /// Number of TLPs zero-copy needs for `requests` outstanding requests:
    /// `ceil(requests / MR)`.
    #[inline]
    pub fn zero_copy_tlps(&self, requests: u64) -> u64 {
        requests.div_ceil(self.max_requests)
    }

    /// Round-trip time of a zero-copy TLP given the partition's active-edge
    /// ratio (formula for `RTT_zc` in Section V-A).
    #[inline]
    pub fn rtt_zc(&self, active_ratio: f64) -> SimTime {
        let r = active_ratio.clamp(0.0, 1.0);
        (self.gamma * self.rtt() + (1.0 - self.gamma) * r * self.rtt()) / self.zc_efficiency
    }

    /// Wall time of moving one contiguous run of `bytes` the cheaper way:
    /// Algorithm 1's explicit-or-zero-copy rule applied to a single run.
    /// The zero-copy side is formula (3) for a run of `⌈bytes / m⌉`
    /// requests whose TLPs carry `fill = bytes / (tlps · m · MR)` of a
    /// saturated payload, `tlps · RTT_zc(fill)`, with no copy launch.
    /// Zero-copy wins runs too small to fill their last TLP and loses
    /// multi-megabyte runs, where [`zc_efficiency`](Self::zc_efficiency)
    /// costs more than one copy launch saves. Prices the host-staged legs
    /// of the frontier exchange; engine tasks keep their own formulas.
    pub fn hybrid_copy_time(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return 0.0;
        }
        let tlps = self.zero_copy_tlps(bytes.div_ceil(self.request_bytes));
        let fill = bytes as f64 / (tlps * self.tlp_payload()) as f64;
        let zero_copy = tlps as f64 * self.rtt_zc(fill);
        self.explicit_copy_time(bytes).min(zero_copy)
    }

    /// Effective throughput (bytes/s) of zero-copy when every request
    /// carries exactly `granularity` bytes — the Fig. 3(e) curve. At 128 B
    /// this approaches explicit-copy bandwidth; at 32 B it collapses.
    pub fn throughput_at_granularity(&self, granularity: u64) -> f64 {
        assert!(granularity > 0 && granularity <= self.request_bytes);
        // A TLP still takes a full-γ fixed cost but moves only
        // MR·granularity payload bytes.
        let payload_ratio = granularity as f64 / self.request_bytes as f64;
        let tlp_time = (self.gamma * self.rtt() + (1.0 - self.gamma) * payload_ratio * self.rtt())
            / self.zc_efficiency;
        (self.max_requests * granularity) as f64 / tlp_time
    }
}

impl Default for PcieModel {
    fn default() -> Self {
        Self::pcie3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> PcieModel {
        PcieModel::pcie3()
    }

    #[test]
    fn tlp_payload_is_32k_on_pcie3() {
        assert_eq!(bus().tlp_payload(), 32 * 1024);
    }

    #[test]
    fn explicit_copy_achieves_practical_bandwidth() {
        let b = bus();
        let bytes = 1u64 << 30; // 1 GiB
        let t = b.explicit_copy_time(bytes);
        let bw = bytes as f64 / t;
        let rel = (bw - b.explicit_bw).abs() / b.explicit_bw;
        assert!(rel < 0.01, "bw {bw:.3e} vs {:.3e}", b.explicit_bw);
    }

    #[test]
    fn explicit_copy_zero_bytes_is_free() {
        assert_eq!(bus().explicit_copy_time(0), 0.0);
    }

    #[test]
    fn tlp_counts_round_up() {
        let b = bus();
        assert_eq!(b.explicit_copy_tlps(1), 1);
        assert_eq!(b.explicit_copy_tlps(32 * 1024), 1);
        assert_eq!(b.explicit_copy_tlps(32 * 1024 + 1), 2);
        assert_eq!(b.zero_copy_tlps(256), 1);
        assert_eq!(b.zero_copy_tlps(257), 2);
        assert_eq!(b.zero_copy_tlps(0), 0);
    }

    #[test]
    fn rtt_zc_interpolates_with_gamma() {
        let b = bus();
        // Fully active: RTT_zc == RTT / zc_efficiency (slightly above RTT).
        assert!((b.rtt_zc(1.0) - b.rtt() / b.zc_efficiency).abs() < 1e-15);
        // Zero activity: only the fixed γ part remains (derated).
        assert!((b.rtt_zc(0.0) - b.gamma * b.rtt() / b.zc_efficiency).abs() < 1e-15);
        // Monotone in the active ratio.
        for w in [0.0, 0.25, 0.5, 0.75, 1.0].windows(2) {
            assert!(b.rtt_zc(w[0]) <= b.rtt_zc(w[1]) + 1e-15);
        }
    }

    #[test]
    fn granularity_curve_matches_fig3e_shape() {
        let b = bus();
        let t32 = b.throughput_at_granularity(32);
        let t64 = b.throughput_at_granularity(64);
        let t96 = b.throughput_at_granularity(96);
        let t128 = b.throughput_at_granularity(128);
        // Monotone increasing in granularity.
        assert!(t32 < t64 && t64 < t96 && t96 < t128);
        // At 128 B zero-copy reaches "almost" explicit-copy bandwidth
        // (the zc_efficiency residual).
        assert!(t128 <= b.explicit_bw);
        assert!((t128 - b.explicit_bw * b.zc_efficiency).abs() / b.explicit_bw < 0.01);
        // At 32 B throughput collapses well below half (paper shows ~3x gap).
        assert!(t32 < 0.5 * t128, "t32 {t32:.3e} t128 {t128:.3e}");
    }

    #[test]
    fn hybrid_copy_never_exceeds_explicit_and_wins_sub_tlp_runs() {
        for b in [bus(), bus_scaled()] {
            for bytes in [1u64, 100, 4096, 32 << 10, (32 << 10) + 1, 1 << 20, 8 << 20, 64 << 20] {
                assert!(b.hybrid_copy_time(bytes) <= b.explicit_copy_time(bytes), "{bytes} B");
            }
            // A sub-TLP run pays a partly-filled zero-copy TLP instead of
            // a copy launch plus a whole saturated one.
            assert!(b.hybrid_copy_time(4096) < b.explicit_copy_time(4096));
            // Multi-MB runs: the zero-copy efficiency loss outweighs one
            // launch, so the explicit price stands.
            for bytes in [8u64 << 20, 64 << 20] {
                assert_eq!(b.hybrid_copy_time(bytes), b.explicit_copy_time(bytes), "{bytes} B");
            }
        }
        assert_eq!(bus().hybrid_copy_time(0), 0.0);
    }

    /// The machine as scaled experiments run it: copy launches 1024×
    /// cheaper, so explicit copies win from a smaller size.
    fn bus_scaled() -> PcieModel {
        PcieModel { copy_latency: bus().copy_latency / 1024.0, ..bus() }
    }

    #[test]
    fn faster_links_scale_everything() {
        let g3 = PcieModel::with_nominal_bw(16.0e9);
        let g5 = PcieModel::with_nominal_bw(64.0e9);
        assert!(g5.explicit_copy_time(1 << 24) < g3.explicit_copy_time(1 << 24));
        assert!(g5.rtt() < g3.rtt());
    }
}
