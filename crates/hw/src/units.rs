//! Strongly-typed physical units used throughout the simulator.
//!
//! The performance model mixes quantities with very different magnitudes
//! (bytes, FLOPs, seconds, bandwidths). Newtypes keep them from being
//! accidentally mixed ([C-NEWTYPE]) while staying `Copy` and cheap.
//!
//! # Examples
//!
//! ```
//! use llmsim_hw::units::{Bytes, GbPerSec, Seconds};
//!
//! let traffic = Bytes::from_gib(2.0);
//! let bw = GbPerSec::new(100.0);
//! let t: Seconds = bw.transfer_time(traffic);
//! assert!(t.as_f64() > 0.02 && t.as_f64() < 0.022);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration in seconds, stored as `f64`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// A zero-length duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[must_use]
    pub fn new(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative: {s}"
        );
        Seconds(s)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Seconds::new(ms / 1e3)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Seconds::new(us / 1e6)
    }

    /// Creates a duration from nanoseconds.
    #[must_use]
    pub fn from_nanos(ns: f64) -> Self {
        Seconds::new(ns / 1e9)
    }

    /// The raw value in seconds.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// The value in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The value in microseconds.
    #[must_use]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }

    /// Multiplies the duration by a dimensionless factor.
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative or not finite.
    #[must_use]
    pub fn scale(self, k: f64) -> Seconds {
        Seconds::new(self.0 * k)
    }

    /// Saturating subtraction: returns zero rather than a negative duration.
    #[must_use]
    pub fn saturating_sub(self, other: Seconds) -> Seconds {
        Seconds((self.0 - other.0).max(0.0))
    }

    /// Dimensionless ratio of two durations.
    ///
    /// Returns 0 when `other` is zero (useful for "fraction of total" math on
    /// degenerate zero-length runs).
    #[must_use]
    pub fn ratio(self, other: Seconds) -> f64 {
        if other.0 == 0.0 {
            0.0
        } else {
            self.0 / other.0
        }
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds::new(self.0 - rhs.0)
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::ZERO, Add::add)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3} ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3} us", self.0 * 1e6)
        }
    }
}

/// A byte count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count.
    #[must_use]
    pub const fn new(b: u64) -> Self {
        Bytes(b)
    }

    /// Creates a byte count from kibibytes (1024 B).
    #[must_use]
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib * 1024)
    }

    /// Creates a byte count from mebibytes.
    #[must_use]
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib * 1024 * 1024)
    }

    /// Creates a byte count from (possibly fractional) gibibytes.
    ///
    /// # Panics
    ///
    /// Panics if `gib` is negative or not finite.
    #[must_use]
    pub fn from_gib(gib: f64) -> Self {
        assert!(
            gib.is_finite() && gib >= 0.0,
            "byte count must be non-negative: {gib}"
        );
        Bytes((gib * 1024.0 * 1024.0 * 1024.0) as u64)
    }

    /// The raw byte count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The value as an `f64` (for bandwidth math).
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// The value in gibibytes.
    #[must_use]
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// The value in mebibytes.
    #[must_use]
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Saturating subtraction.
    #[must_use]
    pub const fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(other.0))
    }

    /// Returns the smaller of two byte counts.
    #[must_use]
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }

    /// Returns the larger of two byte counts.
    #[must_use]
    pub fn max(self, other: Bytes) -> Bytes {
        Bytes(self.0.max(other.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} GiB", self.as_gib())
        } else if b >= 1024.0 * 1024.0 {
            write!(f, "{:.2} MiB", self.as_mib())
        } else if b >= 1024.0 {
            write!(f, "{:.2} KiB", b / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A floating-point-operation count.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Flops(f64);

impl Flops {
    /// Zero FLOPs.
    pub const ZERO: Flops = Flops(0.0);

    /// Creates a FLOP count.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative or not finite.
    #[must_use]
    pub fn new(f: f64) -> Self {
        assert!(
            f.is_finite() && f >= 0.0,
            "flop count must be non-negative: {f}"
        );
        Flops(f)
    }

    /// The raw value.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// The value in TFLOPs (1e12).
    #[must_use]
    pub fn as_tflops(self) -> f64 {
        self.0 / 1e12
    }

    /// The value in GFLOPs (1e9).
    #[must_use]
    pub fn as_gflops(self) -> f64 {
        self.0 / 1e9
    }
}

impl Add for Flops {
    type Output = Flops;
    fn add(self, rhs: Flops) -> Flops {
        Flops(self.0 + rhs.0)
    }
}

impl AddAssign for Flops {
    fn add_assign(&mut self, rhs: Flops) {
        self.0 += rhs.0;
    }
}

impl Sum for Flops {
    fn sum<I: Iterator<Item = Flops>>(iter: I) -> Flops {
        iter.fold(Flops::ZERO, Add::add)
    }
}

impl fmt::Display for Flops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e12 {
            write!(f, "{:.3} TFLOP", self.as_tflops())
        } else if self.0 >= 1e9 {
            write!(f, "{:.3} GFLOP", self.as_gflops())
        } else {
            write!(f, "{:.0} FLOP", self.0)
        }
    }
}

/// Compute rate in FLOP/s.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct FlopsPerSec(f64);

impl FlopsPerSec {
    /// Creates a compute rate from raw FLOP/s.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative or not finite.
    #[must_use]
    pub fn new(f: f64) -> Self {
        assert!(
            f.is_finite() && f >= 0.0,
            "compute rate must be non-negative: {f}"
        );
        FlopsPerSec(f)
    }

    /// Creates a compute rate from TFLOP/s.
    #[must_use]
    pub fn from_tflops(t: f64) -> Self {
        FlopsPerSec::new(t * 1e12)
    }

    /// The raw value in FLOP/s.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// The value in TFLOP/s.
    #[must_use]
    pub fn as_tflops(self) -> f64 {
        self.0 / 1e12
    }

    /// Time to execute `work` at this rate.
    ///
    /// Returns [`Seconds::ZERO`] when the rate is zero and the work is zero;
    /// panics if the rate is zero with non-zero work.
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero while `work` is non-zero.
    #[must_use]
    pub fn execution_time(self, work: Flops) -> Seconds {
        if work.as_f64() == 0.0 {
            return Seconds::ZERO;
        }
        assert!(self.0 > 0.0, "cannot execute non-zero work at zero FLOP/s");
        Seconds::new(work.as_f64() / self.0)
    }

    /// Scales the rate by a dimensionless efficiency factor.
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative or not finite.
    #[must_use]
    pub fn scale(self, k: f64) -> FlopsPerSec {
        FlopsPerSec::new(self.0 * k)
    }
}

impl fmt::Display for FlopsPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} TFLOP/s", self.as_tflops())
    }
}

/// Bandwidth in decimal gigabytes per second (1 GB = 1e9 B), matching how the
/// paper and vendor datasheets quote memory and interconnect bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct GbPerSec(f64);

impl GbPerSec {
    /// Creates a bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is negative or not finite.
    #[must_use]
    pub fn new(gbps: f64) -> Self {
        assert!(
            gbps.is_finite() && gbps >= 0.0,
            "bandwidth must be non-negative: {gbps}"
        );
        GbPerSec(gbps)
    }

    /// The raw value in GB/s.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// The value in bytes per second.
    #[must_use]
    pub fn bytes_per_sec(self) -> f64 {
        self.0 * 1e9
    }

    /// Time to move `data` at this bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is zero while `data` is non-zero.
    #[must_use]
    pub fn transfer_time(self, data: Bytes) -> Seconds {
        if data == Bytes::ZERO {
            return Seconds::ZERO;
        }
        assert!(self.0 > 0.0, "cannot move non-zero data at zero bandwidth");
        Seconds::new(data.as_f64() / self.bytes_per_sec())
    }

    /// Scales the bandwidth by a dimensionless efficiency factor.
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative or not finite.
    #[must_use]
    pub fn scale(self, k: f64) -> GbPerSec {
        GbPerSec::new(self.0 * k)
    }

    /// Returns the smaller of two bandwidths.
    #[must_use]
    pub fn min(self, other: GbPerSec) -> GbPerSec {
        GbPerSec(self.0.min(other.0))
    }
}

impl Add for GbPerSec {
    type Output = GbPerSec;
    fn add(self, rhs: GbPerSec) -> GbPerSec {
        GbPerSec(self.0 + rhs.0)
    }
}

impl fmt::Display for GbPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GB/s", self.0)
    }
}

/// A clock frequency in hertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Hertz(f64);

impl Hertz {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is negative or not finite.
    #[must_use]
    pub fn new(hz: f64) -> Self {
        assert!(
            hz.is_finite() && hz >= 0.0,
            "frequency must be non-negative: {hz}"
        );
        Hertz(hz)
    }

    /// Creates a frequency from gigahertz.
    #[must_use]
    pub fn from_ghz(ghz: f64) -> Self {
        Hertz::new(ghz * 1e9)
    }

    /// The raw value in Hz.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// The value in GHz.
    #[must_use]
    pub fn as_ghz(self) -> f64 {
        self.0 / 1e9
    }

    /// Duration of `cycles` clock cycles at this frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero while `cycles` is non-zero.
    #[must_use]
    pub fn cycles_to_time(self, cycles: u64) -> Seconds {
        if cycles == 0 {
            return Seconds::ZERO;
        }
        assert!(self.0 > 0.0, "cannot time cycles at zero frequency");
        Seconds::new(cycles as f64 / self.0)
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GHz", self.as_ghz())
    }
}

impl Div<FlopsPerSec> for Flops {
    type Output = Seconds;
    fn div(self, rate: FlopsPerSec) -> Seconds {
        rate.execution_time(self)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact float assertions are deliberate: determinism is bit-level
mod tests {
    use super::*;

    #[test]
    fn seconds_display_picks_unit() {
        assert_eq!(Seconds::new(2.0).to_string(), "2.000 s");
        assert_eq!(Seconds::from_millis(1.5).to_string(), "1.500 ms");
        assert_eq!(Seconds::from_micros(12.0).to_string(), "12.000 us");
    }

    #[test]
    fn seconds_arithmetic() {
        let a = Seconds::new(1.0) + Seconds::new(0.5);
        assert_eq!(a.as_f64(), 1.5);
        assert_eq!(a.saturating_sub(Seconds::new(2.0)), Seconds::ZERO);
        assert_eq!(Seconds::new(3.0).ratio(Seconds::new(1.5)), 2.0);
        assert_eq!(Seconds::new(3.0).ratio(Seconds::ZERO), 0.0);
        let total: Seconds = [Seconds::new(1.0), Seconds::new(2.0)].into_iter().sum();
        assert_eq!(total.as_f64(), 3.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn seconds_rejects_negative() {
        let _ = Seconds::new(-1.0);
    }

    #[test]
    fn bytes_conversions() {
        assert_eq!(Bytes::from_kib(1).get(), 1024);
        assert_eq!(Bytes::from_mib(1).get(), 1024 * 1024);
        assert_eq!(Bytes::from_gib(2.0).as_gib(), 2.0);
        assert_eq!(Bytes::new(512).to_string(), "512 B");
        assert_eq!(Bytes::from_mib(3).to_string(), "3.00 MiB");
    }

    #[test]
    fn bytes_saturating_sub_floors_at_zero() {
        assert_eq!(Bytes::new(5).saturating_sub(Bytes::new(9)), Bytes::ZERO);
        assert_eq!(Bytes::new(9).saturating_sub(Bytes::new(5)), Bytes::new(4));
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = GbPerSec::new(100.0);
        let t = bw.transfer_time(Bytes::new(100_000_000_000));
        assert!((t.as_f64() - 1.0).abs() < 1e-12);
        assert_eq!(bw.transfer_time(Bytes::ZERO), Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn zero_bandwidth_nonzero_data_panics() {
        let _ = GbPerSec::new(0.0).transfer_time(Bytes::new(1));
    }

    #[test]
    fn flops_rate_execution_time() {
        let rate = FlopsPerSec::from_tflops(2.0);
        let t = rate.execution_time(Flops::new(4e12));
        assert!((t.as_f64() - 2.0).abs() < 1e-12);
        // Division operator sugar.
        let t2 = Flops::new(4e12) / rate;
        assert_eq!(t, t2);
    }

    #[test]
    fn hertz_cycles() {
        let f = Hertz::from_ghz(2.0);
        assert!((f.cycles_to_time(2_000_000_000).as_f64() - 1.0).abs() < 1e-12);
        assert_eq!(f.cycles_to_time(0), Seconds::ZERO);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!format!("{}", Flops::new(5e9)).is_empty());
        assert!(!format!("{}", FlopsPerSec::from_tflops(1.0)).is_empty());
        assert!(!format!("{}", GbPerSec::new(10.0)).is_empty());
        assert!(!format!("{}", Hertz::from_ghz(2.1)).is_empty());
    }
}
