//! Interconnect descriptions: host↔device links (PCIe, NVLink-C2C) and
//! socket↔socket links (Intel UPI).

use crate::units::{Bytes, GbPerSec, Seconds};
use std::fmt;

/// Host-to-device link technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// PCI Express 4.0 x16 (A100 server in Table II).
    Pcie4,
    /// PCI Express 5.0 x16 (H100 server in Table II).
    Pcie5,
    /// NVLink-C2C (Grace-Hopper; discussed in §V-B).
    NvLinkC2c,
    /// Intel Ultra Path Interconnect between sockets.
    Upi,
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkKind::Pcie4 => "PCIe 4.0",
            LinkKind::Pcie5 => "PCIe 5.0",
            LinkKind::NvLinkC2c => "NVLink-C2C",
            LinkKind::Upi => "UPI",
        };
        f.write_str(s)
    }
}

/// A point-to-point link with an advertised aggregate bandwidth and the
/// effective fraction of it achievable for large DMA transfers.
///
/// The paper quotes *aggregate bidirectional* bandwidths (64 GB/s for PCIe 4.0,
/// 128 GB/s for PCIe 5.0). Offloading traffic is dominated by one direction
/// (host-to-device weight streaming), and protocol overheads further reduce
/// what a real `cudaMemcpy` achieves, so the model exposes
/// [`LinkSpec::effective_bandwidth`] = advertised × direction share ×
/// protocol efficiency.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Link technology.
    pub kind: LinkKind,
    /// Advertised aggregate bandwidth (both directions), as quoted in Table II.
    pub advertised: GbPerSec,
    /// Fraction of the aggregate available to the dominant direction
    /// (0.5 for full-duplex links quoted bidirectionally).
    pub direction_share: f64,
    /// Protocol/DMA efficiency for large transfers (0..=1).
    pub protocol_efficiency: f64,
    /// One-way latency for a transfer kickoff.
    pub latency: Seconds,
}

impl LinkSpec {
    /// Creates a link spec.
    ///
    /// # Panics
    ///
    /// Panics if `direction_share` or `protocol_efficiency` is outside `(0, 1]`.
    #[must_use]
    pub fn new(
        kind: LinkKind,
        advertised: GbPerSec,
        direction_share: f64,
        protocol_efficiency: f64,
        latency: Seconds,
    ) -> Self {
        assert!(
            direction_share > 0.0 && direction_share <= 1.0,
            "direction share must be in (0,1], got {direction_share}"
        );
        assert!(
            protocol_efficiency > 0.0 && protocol_efficiency <= 1.0,
            "protocol efficiency must be in (0,1], got {protocol_efficiency}"
        );
        LinkSpec {
            kind,
            advertised,
            direction_share,
            protocol_efficiency,
            latency,
        }
    }

    /// Sustained one-direction bandwidth for large DMA transfers.
    #[must_use]
    pub fn effective_bandwidth(&self) -> GbPerSec {
        self.advertised
            .scale(self.direction_share * self.protocol_efficiency)
    }

    /// Time to move `data` across the link in one direction, including the
    /// kickoff latency.
    #[must_use]
    pub fn transfer_time(&self, data: Bytes) -> Seconds {
        if data == Bytes::ZERO {
            return Seconds::ZERO;
        }
        self.latency + self.effective_bandwidth().transfer_time(data)
    }
}

impl fmt::Display for LinkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}, {} aggregate ({} effective)",
            self.kind,
            self.advertised,
            self.effective_bandwidth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pcie4() -> LinkSpec {
        LinkSpec::new(
            LinkKind::Pcie4,
            GbPerSec::new(64.0),
            0.5,
            0.8,
            Seconds::from_micros(10.0),
        )
    }

    #[test]
    fn effective_bandwidth_applies_share_and_efficiency() {
        let l = pcie4();
        assert!((l.effective_bandwidth().as_f64() - 25.6).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_includes_latency() {
        let l = pcie4();
        let t = l.transfer_time(Bytes::new(25_600_000_000));
        assert!((t.as_f64() - (1.0 + 10e-6)).abs() < 1e-9);
        assert_eq!(l.transfer_time(Bytes::ZERO), Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "direction share")]
    fn bad_share_panics() {
        let _ = LinkSpec::new(
            LinkKind::Pcie5,
            GbPerSec::new(128.0),
            0.0,
            0.8,
            Seconds::ZERO,
        );
    }
}
