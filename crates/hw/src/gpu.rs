//! GPU server descriptions (Table II of the paper).

use crate::interconnect::LinkSpec;
use crate::units::{Bytes, FlopsPerSec, GbPerSec};
use std::fmt;

/// A GPU accelerator specification (one column of Table II).
///
/// # Examples
///
/// ```
/// use llmsim_hw::presets;
///
/// let h100 = presets::h100_80gb();
/// assert_eq!(h100.memory_capacity.as_gib().round(), 80.0);
/// assert!(h100.bf16_peak.as_tflops() > 700.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. "NVIDIA H100".
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sms: u32,
    /// Peak dense BF16 tensor-core throughput.
    pub bf16_peak: FlopsPerSec,
    /// L2 cache capacity.
    pub l2_capacity: Bytes,
    /// Device memory capacity.
    pub memory_capacity: Bytes,
    /// Sustained device memory bandwidth (STREAM-measured in Table II).
    pub memory_bandwidth: GbPerSec,
    /// Host interconnect (PCIe for the paper's servers).
    pub host_link: LinkSpec,
}

impl GpuSpec {
    /// Whether a resident working set of `bytes` fits in device memory.
    ///
    /// A small reservation (~4%) is held back for framework overheads
    /// (CUDA context, workspace), matching practical deployments where a
    /// "40 GB" card cannot hold 40 GB of weights.
    #[must_use]
    pub fn fits(&self, bytes: Bytes) -> bool {
        bytes.as_f64() <= self.usable_memory().as_f64()
    }

    /// Device memory usable for model state after framework reservations.
    #[must_use]
    pub fn usable_memory(&self) -> Bytes {
        Bytes::new((self.memory_capacity.as_f64() * 0.96) as u64)
    }
}

impl fmt::Display for GpuSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} SMs, {}, {} @ {})",
            self.name, self.sms, self.bf16_peak, self.memory_capacity, self.memory_bandwidth
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::presets;
    use crate::units::Bytes;

    #[test]
    fn usable_memory_reserves_overhead() {
        let a100 = presets::a100_40gb();
        assert!(a100.usable_memory() < a100.memory_capacity);
        assert!(a100.fits(Bytes::from_gib(30.0)));
        assert!(!a100.fits(Bytes::from_gib(39.0)));
    }

    #[test]
    fn h100_outclasses_a100() {
        let a100 = presets::a100_40gb();
        let h100 = presets::h100_80gb();
        assert!(h100.bf16_peak.as_f64() > a100.bf16_peak.as_f64());
        assert!(h100.memory_bandwidth.as_f64() > a100.memory_bandwidth.as_f64());
        assert!(
            h100.host_link.effective_bandwidth().as_f64()
                > a100.host_link.effective_bandwidth().as_f64()
        );
    }
}
