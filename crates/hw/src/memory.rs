//! Memory-device descriptions (DDR4/DDR5 DIMM pools, on-package HBM, GPU HBM).

use crate::units::{Bytes, GbPerSec, Seconds};
use std::fmt;

/// The memory technology backing a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// DDR4 DIMMs (e.g. the Ice Lake server in Table I).
    Ddr4,
    /// DDR5 DIMMs (e.g. the Sapphire Rapids server in Table I).
    Ddr5,
    /// On-package high-bandwidth memory (SPR Max HBM2e, GPU HBM).
    Hbm,
}

impl fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemoryKind::Ddr4 => "DDR4",
            MemoryKind::Ddr5 => "DDR5",
            MemoryKind::Hbm => "HBM",
        };
        f.write_str(s)
    }
}

/// One attached memory device: a capacity plus a sustained (STREAM-measured)
/// bandwidth and an idle access latency.
///
/// Bandwidths are per-socket sustained numbers, matching how Table I reports
/// them (measured with the STREAM benchmark on a single socket).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryDeviceSpec {
    /// Technology of this device.
    pub kind: MemoryKind,
    /// Total capacity of the device (whole machine, all sockets).
    pub capacity: Bytes,
    /// Sustained bandwidth per socket.
    pub bandwidth_per_socket: GbPerSec,
    /// Unloaded access latency.
    pub idle_latency: Seconds,
}

impl MemoryDeviceSpec {
    /// Creates a new memory device spec.
    #[must_use]
    pub fn new(
        kind: MemoryKind,
        capacity: Bytes,
        bandwidth_per_socket: GbPerSec,
        idle_latency: Seconds,
    ) -> Self {
        MemoryDeviceSpec {
            kind,
            capacity,
            bandwidth_per_socket,
            idle_latency,
        }
    }

    /// Capacity available on a single socket, assuming devices are split
    /// evenly across `sockets`.
    ///
    /// # Panics
    ///
    /// Panics if `sockets` is zero.
    #[must_use]
    pub fn capacity_per_socket(&self, sockets: u32) -> Bytes {
        assert!(sockets > 0, "a machine has at least one socket");
        Bytes::new(self.capacity.get() / u64::from(sockets))
    }
}

impl fmt::Display for MemoryDeviceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} @ {}/socket",
            self.kind, self.capacity, self.bandwidth_per_socket
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ddr5() -> MemoryDeviceSpec {
        MemoryDeviceSpec::new(
            MemoryKind::Ddr5,
            Bytes::from_gib(512.0),
            GbPerSec::new(233.8),
            Seconds::from_nanos(110.0),
        )
    }

    #[test]
    fn per_socket_capacity_divides_evenly() {
        assert_eq!(ddr5().capacity_per_socket(2), Bytes::from_gib(256.0));
    }

    #[test]
    #[should_panic(expected = "at least one socket")]
    fn zero_sockets_panics() {
        let _ = ddr5().capacity_per_socket(0);
    }

    #[test]
    fn display_mentions_kind_and_bandwidth() {
        let s = ddr5().to_string();
        assert!(s.contains("DDR5"), "{s}");
        assert!(s.contains("233.8"), "{s}");
    }
}
