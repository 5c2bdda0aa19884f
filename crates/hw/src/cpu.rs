//! CPU server descriptions (Table I of the paper).

use crate::cache::CacheHierarchy;
use crate::interconnect::LinkSpec;
use crate::memory::MemoryDeviceSpec;
use crate::topology::Topology;
use crate::units::{Bytes, FlopsPerSec, GbPerSec, Hertz};
use std::fmt;

/// CPU microarchitecture generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuGeneration {
    /// 3rd-gen Xeon Scalable (Ice Lake) — AVX-512 only.
    IceLake,
    /// 4th-gen Xeon Scalable Max (Sapphire Rapids) — AVX-512 + AMX + HBM.
    SapphireRapids,
}

impl fmt::Display for CpuGeneration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CpuGeneration::IceLake => "Ice Lake",
            CpuGeneration::SapphireRapids => "Sapphire Rapids",
        };
        f.write_str(s)
    }
}

/// The matrix/vector execution engine a kernel is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeEngine {
    /// 512-bit vector FMA pipes.
    Avx512,
    /// AMX tile matrix-multiply unit.
    Amx,
}

impl fmt::Display for ComputeEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ComputeEngine::Avx512 => "AVX-512",
            ComputeEngine::Amx => "AMX",
        };
        f.write_str(s)
    }
}

/// A CPU server specification (one row of Table I).
///
/// Peak compute numbers are *per socket* BF16 throughputs, matching how
/// Table I reports them; per-core peaks are derived by dividing by the core
/// count so that core-count sweeps (Fig. 14/16) scale compute naturally.
///
/// # Examples
///
/// ```
/// use llmsim_hw::presets;
/// use llmsim_hw::cpu::ComputeEngine;
///
/// let spr = presets::spr_max_9468();
/// assert!(spr.has_amx());
/// let amx = spr.peak_flops(ComputeEngine::Amx, 48);
/// let avx = spr.peak_flops(ComputeEngine::Avx512, 48);
/// assert!(amx.as_tflops() > 8.0 * avx.as_tflops());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Marketing name, e.g. "Xeon 4th Max 9468".
    pub name: String,
    /// Microarchitecture generation.
    pub generation: CpuGeneration,
    /// Nominal core frequency.
    pub frequency: Hertz,
    /// Socket/core topology.
    pub topology: Topology,
    /// Cache hierarchy (per socket).
    pub caches: CacheHierarchy,
    /// Peak BF16 throughput of the AVX-512 pipes, per socket.
    pub avx512_bf16_per_socket: FlopsPerSec,
    /// Peak BF16 throughput of the AMX TMUL units, per socket
    /// (`None` on parts without AMX).
    pub amx_bf16_per_socket: Option<FlopsPerSec>,
    /// DDR memory pool.
    pub ddr: MemoryDeviceSpec,
    /// On-package HBM, if present.
    pub hbm: Option<MemoryDeviceSpec>,
    /// Socket-to-socket UPI link.
    pub upi: LinkSpec,
}

impl CpuSpec {
    /// Whether this part has AMX tile units.
    #[must_use]
    pub fn has_amx(&self) -> bool {
        self.amx_bf16_per_socket.is_some()
    }

    /// Whether this part has on-package HBM.
    #[must_use]
    pub fn has_hbm(&self) -> bool {
        self.hbm.is_some()
    }

    /// The fastest engine available for BF16 GEMM on this part.
    #[must_use]
    pub fn best_engine(&self) -> ComputeEngine {
        if self.has_amx() {
            ComputeEngine::Amx
        } else {
            ComputeEngine::Avx512
        }
    }

    /// Per-socket peak BF16 throughput of `engine`.
    ///
    /// # Panics
    ///
    /// Panics if `engine` is [`ComputeEngine::Amx`] on a part without AMX.
    #[must_use]
    pub fn engine_peak_per_socket(&self, engine: ComputeEngine) -> FlopsPerSec {
        match engine {
            ComputeEngine::Avx512 => self.avx512_bf16_per_socket,
            ComputeEngine::Amx => self
                .amx_bf16_per_socket
                .unwrap_or_else(|| panic!("{} has no AMX units", self.name)),
        }
    }

    /// Peak BF16 throughput of `engine` when running on `cores` cores.
    ///
    /// Compute scales linearly with cores (every core owns its own vector
    /// pipes / TMUL), saturating at the machine total.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds the machine, or if `engine` is
    /// unavailable.
    #[must_use]
    pub fn peak_flops(&self, engine: ComputeEngine, cores: u32) -> FlopsPerSec {
        assert!(cores > 0, "need at least one core");
        assert!(
            cores <= self.topology.total_cores(),
            "{} has only {} cores",
            self.name,
            self.topology.total_cores()
        );
        let per_core = self.engine_peak_per_socket(engine).as_f64()
            / f64::from(self.topology.cores_per_socket);
        FlopsPerSec::new(per_core * f64::from(cores))
    }

    /// Total memory capacity (DDR + HBM) across the machine.
    #[must_use]
    pub fn total_memory_capacity(&self) -> Bytes {
        let hbm = self.hbm.as_ref().map_or(Bytes::ZERO, |h| h.capacity);
        self.ddr.capacity + hbm
    }

    /// The best per-socket DRAM bandwidth available (HBM if present, else DDR).
    #[must_use]
    pub fn best_bandwidth_per_socket(&self) -> GbPerSec {
        self.hbm
            .as_ref()
            .map_or(self.ddr.bandwidth_per_socket, |h| h.bandwidth_per_socket)
    }
}

impl fmt::Display for CpuSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} x {} cores @ {})",
            self.name,
            self.generation,
            self.topology.sockets,
            self.topology.cores_per_socket,
            self.frequency
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::cpu::ComputeEngine;
    use crate::presets;

    #[test]
    fn icl_has_no_amx_or_hbm() {
        let icl = presets::icl_8352y();
        assert!(!icl.has_amx());
        assert!(!icl.has_hbm());
        assert_eq!(icl.best_engine(), ComputeEngine::Avx512);
    }

    #[test]
    #[should_panic(expected = "no AMX")]
    fn amx_peak_on_icl_panics() {
        let icl = presets::icl_8352y();
        let _ = icl.engine_peak_per_socket(ComputeEngine::Amx);
    }

    #[test]
    fn peak_scales_linearly_with_cores() {
        let spr = presets::spr_max_9468();
        let p12 = spr.peak_flops(ComputeEngine::Amx, 12).as_f64();
        let p48 = spr.peak_flops(ComputeEngine::Amx, 48).as_f64();
        let p96 = spr.peak_flops(ComputeEngine::Amx, 96).as_f64();
        assert!((p48 / p12 - 4.0).abs() < 1e-9);
        assert!((p96 / p48 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn best_bandwidth_prefers_hbm() {
        let spr = presets::spr_max_9468();
        let icl = presets::icl_8352y();
        assert!(spr.best_bandwidth_per_socket().as_f64() > 500.0);
        assert!(icl.best_bandwidth_per_socket().as_f64() < 200.0);
    }
}
