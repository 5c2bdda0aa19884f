//! List-price data for cost-efficiency analysis.
//!
//! Footnote 1 of the paper: "using the listing price of each processor as a
//! proxy shows that Intel MAX 9468 is 3x cheaper than NVIDIA H100-80GB".
//! These are the public list prices the paper's citations point at
//! (Intel ARK recommended customer pricing; Tom's Hardware for the GPUs).

use std::fmt;

/// A processor list price in US dollars.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct UsDollars(f64);

impl UsDollars {
    /// Creates a price.
    ///
    /// # Panics
    ///
    /// Panics if `usd` is not positive and finite.
    #[must_use]
    pub fn new(usd: f64) -> Self {
        assert!(
            usd.is_finite() && usd > 0.0,
            "price must be positive: {usd}"
        );
        UsDollars(usd)
    }

    /// The raw dollar amount.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Price ratio `self / other`.
    #[must_use]
    pub fn ratio(self, other: UsDollars) -> f64 {
        self.0 / other.0
    }
}

impl fmt::Display for UsDollars {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.0}", self.0)
    }
}

/// Intel Xeon Max 9468 recommended customer price (Intel ARK, 2023).
#[must_use]
pub fn spr_max_9468_price() -> UsDollars {
    UsDollars::new(12_980.0)
}

/// Intel Xeon Platinum 8352Y recommended customer price (Intel ARK).
#[must_use]
pub fn icl_8352y_price() -> UsDollars {
    UsDollars::new(3_450.0)
}

/// NVIDIA A100-40GB street price (2023-era, per the paper's citations).
#[must_use]
pub fn a100_40gb_price() -> UsDollars {
    UsDollars::new(15_000.0)
}

/// NVIDIA H100-80GB street price (Tom's Hardware, cited as ref. \[41\]:
/// "cost up to four times more than AMD's competing MI300X ... beyond
/// $40,000").
#[must_use]
pub fn h100_80gb_price() -> UsDollars {
    UsDollars::new(40_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footnote_1_three_x_ratio() {
        // Footnote 1: the Max 9468 is ~3x cheaper than an H100-80GB.
        let ratio = h100_80gb_price().ratio(spr_max_9468_price());
        assert!((2.5..3.5).contains(&ratio), "{ratio}");
    }

    #[test]
    fn display_formats_dollars() {
        assert_eq!(spr_max_9468_price().to_string(), "$12980");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_price_rejected() {
        let _ = UsDollars::new(0.0);
    }
}
