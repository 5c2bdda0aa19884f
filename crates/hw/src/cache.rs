//! Cache-hierarchy descriptions.

use crate::units::Bytes;
use std::fmt;

/// Cache level in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheLevel {
    /// Per-core L1 data cache.
    L1d,
    /// Per-core L2.
    L2,
    /// Shared last-level cache (per socket).
    L3,
}

impl fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CacheLevel::L1d => "L1d",
            CacheLevel::L2 => "L2",
            CacheLevel::L3 => "L3",
        };
        f.write_str(s)
    }
}

/// Geometry of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSpec {
    /// Which level this describes.
    pub level: CacheLevel,
    /// Capacity. Per-core for [`CacheLevel::L1d`]/[`CacheLevel::L2`],
    /// per-socket for [`CacheLevel::L3`].
    pub capacity: Bytes,
    /// Associativity (ways).
    pub ways: u32,
    /// Cache line size in bytes (64 on every machine in the paper).
    pub line_bytes: u32,
    /// Whether the capacity is shared across the socket (true for L3).
    pub shared: bool,
}

impl CacheSpec {
    /// Creates a cache level description.
    ///
    /// # Panics
    ///
    /// Panics if `ways` or `line_bytes` is zero, if `line_bytes` is not a
    /// power of two, or if the capacity is not divisible into `ways` sets of
    /// whole lines.
    #[must_use]
    pub fn new(level: CacheLevel, capacity: Bytes, ways: u32, line_bytes: u32) -> Self {
        assert!(ways > 0, "cache must have at least one way");
        assert!(
            line_bytes > 0 && line_bytes.is_power_of_two(),
            "line size must be a power of two, got {line_bytes}"
        );
        let lines = capacity.get() / u64::from(line_bytes);
        assert!(
            lines > 0 && lines.is_multiple_of(u64::from(ways)),
            "capacity must divide into ways of whole lines"
        );
        CacheSpec {
            level,
            capacity,
            ways,
            line_bytes,
            shared: level == CacheLevel::L3,
        }
    }

    /// Number of cache lines.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.capacity.get() / u64::from(self.line_bytes)
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.lines() / u64::from(self.ways)
    }
}

impl fmt::Display for CacheSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}-way", self.level, self.capacity, self.ways)
    }
}

/// The full cache hierarchy of a CPU socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheHierarchy {
    /// Per-core L1 data cache.
    pub l1d: CacheSpec,
    /// Per-core L2 cache.
    pub l2: CacheSpec,
    /// Shared per-socket L3 cache.
    pub l3: CacheSpec,
}

impl CacheHierarchy {
    /// Creates a hierarchy from the three levels.
    ///
    /// # Panics
    ///
    /// Panics if the levels are not strictly increasing in capacity or the
    /// specs are tagged with the wrong [`CacheLevel`].
    #[must_use]
    pub fn new(l1d: CacheSpec, l2: CacheSpec, l3: CacheSpec) -> Self {
        assert_eq!(l1d.level, CacheLevel::L1d);
        assert_eq!(l2.level, CacheLevel::L2);
        assert_eq!(l3.level, CacheLevel::L3);
        assert!(l1d.capacity < l2.capacity, "L1 must be smaller than L2");
        assert!(
            l2.capacity < l3.capacity,
            "L2 (per core) must be smaller than L3 (per socket)"
        );
        CacheHierarchy { l1d, l2, l3 }
    }

    /// Total on-chip cache capacity visible to `cores` cores on one socket.
    #[must_use]
    pub fn total_capacity(&self, cores: u32) -> Bytes {
        Bytes::new(
            (self.l1d.capacity.get() + self.l2.capacity.get()) * u64::from(cores)
                + self.l3.capacity.get(),
        )
    }

    /// The cache spec for a given level.
    #[must_use]
    pub fn level(&self, level: CacheLevel) -> &CacheSpec {
        match level {
            CacheLevel::L1d => &self.l1d,
            CacheLevel::L2 => &self.l2,
            CacheLevel::L3 => &self.l3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spr_hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(
            CacheSpec::new(CacheLevel::L1d, Bytes::from_kib(48), 12, 64),
            CacheSpec::new(CacheLevel::L2, Bytes::from_mib(2), 16, 64),
            CacheSpec::new(CacheLevel::L3, Bytes::from_mib(105), 15, 64),
        )
    }

    #[test]
    fn geometry_derivation() {
        let h = spr_hierarchy();
        assert_eq!(h.l1d.lines(), 48 * 1024 / 64);
        assert_eq!(h.l1d.sets(), 48 * 1024 / 64 / 12);
        assert_eq!(h.level(CacheLevel::L2).capacity, Bytes::from_mib(2));
    }

    #[test]
    fn total_capacity_counts_private_caches_per_core() {
        let h = spr_hierarchy();
        let total = h.total_capacity(48);
        let expect = (48 * 1024 + 2 * 1024 * 1024) * 48 + 105 * 1024 * 1024;
        assert_eq!(total.get(), expect);
    }

    #[test]
    #[should_panic(expected = "L1 must be smaller")]
    fn inverted_hierarchy_panics() {
        let _ = CacheHierarchy::new(
            CacheSpec::new(CacheLevel::L1d, Bytes::from_mib(4), 8, 64),
            CacheSpec::new(CacheLevel::L2, Bytes::from_mib(2), 16, 64),
            CacheSpec::new(CacheLevel::L3, Bytes::from_mib(105), 15, 64),
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = CacheSpec::new(CacheLevel::L1d, Bytes::from_kib(48), 12, 48);
    }
}
