//! NUMA topology: sockets, clustering modes, and HBM memory modes.
//!
//! Mirrors §II-E of the paper: SPR Max servers expose three HBM memory modes
//! (HBM-only / Flat / Cache) and two clustering modes (Quadrant / SNC-4); the
//! paper evaluates the four combinations reachable with DDR5 installed.

use std::fmt;

/// Intra-socket clustering mode of a Sapphire Rapids Max socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClusteringMode {
    /// Quadrant mode: the socket appears as a single NUMA node.
    #[default]
    Quadrant,
    /// Sub-NUMA Clustering: the socket is split into four sub-NUMA domains.
    Snc4,
}

impl ClusteringMode {
    /// Number of sub-NUMA domains the socket is divided into.
    #[must_use]
    pub fn domains(self) -> u32 {
        match self {
            ClusteringMode::Quadrant => 1,
            ClusteringMode::Snc4 => 4,
        }
    }
}

impl fmt::Display for ClusteringMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ClusteringMode::Quadrant => "quad",
            ClusteringMode::Snc4 => "snc",
        };
        f.write_str(s)
    }
}

/// How on-package HBM is exposed to software.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemoryMode {
    /// HBM is a transparent memory-side cache in front of DDR.
    #[default]
    Cache,
    /// HBM and DDR are separate NUMA nodes; software manages placement
    /// (the paper allocates HBM-first and spills to DDR past 64 GB/socket).
    Flat,
    /// Only HBM is used; capacity is limited to the HBM size.
    HbmOnly,
}

impl fmt::Display for MemoryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemoryMode::Cache => "cache",
            MemoryMode::Flat => "flat",
            MemoryMode::HbmOnly => "hbm-only",
        };
        f.write_str(s)
    }
}

/// A complete server NUMA configuration: clustering × memory mode, as swept
/// in Fig. 13 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NumaConfig {
    /// Clustering mode of each socket.
    pub clustering: ClusteringMode,
    /// HBM exposure mode.
    pub memory: MemoryMode,
}

impl NumaConfig {
    /// `quad_cache` — Quadrant clustering, HBM as cache (Fig. 13 baseline).
    pub const QUAD_CACHE: NumaConfig = NumaConfig {
        clustering: ClusteringMode::Quadrant,
        memory: MemoryMode::Cache,
    };
    /// `quad_flat` — Quadrant clustering, HBM flat (the paper's best config).
    pub const QUAD_FLAT: NumaConfig = NumaConfig {
        clustering: ClusteringMode::Quadrant,
        memory: MemoryMode::Flat,
    };
    /// `snc_cache` — SNC-4 clustering, HBM as cache.
    pub const SNC_CACHE: NumaConfig = NumaConfig {
        clustering: ClusteringMode::Snc4,
        memory: MemoryMode::Cache,
    };
    /// `snc_flat` — SNC-4 clustering, HBM flat.
    pub const SNC_FLAT: NumaConfig = NumaConfig {
        clustering: ClusteringMode::Snc4,
        memory: MemoryMode::Flat,
    };

    /// The four configurations evaluated in Fig. 13, in the paper's order.
    pub const PAPER_SWEEP: [NumaConfig; 4] = [
        Self::QUAD_CACHE,
        Self::QUAD_FLAT,
        Self::SNC_CACHE,
        Self::SNC_FLAT,
    ];

    /// Creates a configuration from its parts.
    #[must_use]
    pub fn new(clustering: ClusteringMode, memory: MemoryMode) -> Self {
        NumaConfig { clustering, memory }
    }
}

impl fmt::Display for NumaConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_{}", self.clustering, self.memory)
    }
}

/// Socket-level topology of a server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Number of CPU sockets.
    pub sockets: u32,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
}

impl Topology {
    /// Creates a topology.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    #[must_use]
    pub fn new(sockets: u32, cores_per_socket: u32) -> Self {
        assert!(sockets > 0, "need at least one socket");
        assert!(cores_per_socket > 0, "need at least one core per socket");
        Topology {
            sockets,
            cores_per_socket,
        }
    }

    /// Total physical core count.
    #[must_use]
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// How many sockets a run spanning `cores` cores touches (cores are
    /// filled socket-by-socket, as `numactl` binding does in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds the machine.
    #[must_use]
    pub fn sockets_spanned(&self, cores: u32) -> u32 {
        assert!(cores > 0, "need at least one core");
        assert!(
            cores <= self.total_cores(),
            "machine has only {} cores",
            self.total_cores()
        );
        cores.div_ceil(self.cores_per_socket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sweep_order_and_names() {
        let names: Vec<String> = NumaConfig::PAPER_SWEEP
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(names, ["quad_cache", "quad_flat", "snc_cache", "snc_flat"]);
    }

    #[test]
    fn clustering_domains() {
        assert_eq!(ClusteringMode::Quadrant.domains(), 1);
        assert_eq!(ClusteringMode::Snc4.domains(), 4);
    }

    #[test]
    fn sockets_spanned_fills_socket_first() {
        let t = Topology::new(2, 48);
        assert_eq!(t.total_cores(), 96);
        assert_eq!(t.sockets_spanned(12), 1);
        assert_eq!(t.sockets_spanned(48), 1);
        assert_eq!(t.sockets_spanned(49), 2);
        assert_eq!(t.sockets_spanned(96), 2);
    }

    #[test]
    #[should_panic(expected = "machine has only")]
    fn oversubscribed_cores_panic() {
        let _ = Topology::new(2, 48).sockets_spanned(97);
    }

    #[test]
    fn default_is_snc_default_per_paper() {
        // The paper notes SNC-4 is the hardware default but evaluates
        // quad_cache as the Fig. 13 normalization baseline; our Default is
        // the Fig. 13 baseline.
        assert_eq!(NumaConfig::default(), NumaConfig::QUAD_CACHE);
    }
}
