//! Board-power specifications and a simple utilization-scaled energy model
//! (supports the cost/efficiency discussion around footnote 1 and the
//! power-management work the paper cites as \[43\]).

use crate::units::Seconds;
use std::fmt;

/// Power envelope of one processor (or processor pair for 2S servers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSpec {
    /// Thermal design power in watts (whole package set in use).
    pub tdp_watts: f64,
    /// Fraction of TDP drawn when idle (uncore, HBM refresh, fans).
    pub idle_fraction: f64,
}

impl PowerSpec {
    /// Creates a power spec.
    ///
    /// # Panics
    ///
    /// Panics if `tdp_watts` is not positive or `idle_fraction` outside
    /// `[0, 1]`.
    #[must_use]
    pub fn new(tdp_watts: f64, idle_fraction: f64) -> Self {
        assert!(tdp_watts > 0.0, "TDP must be positive: {tdp_watts}");
        assert!(
            (0.0..=1.0).contains(&idle_fraction),
            "idle fraction must be a fraction"
        );
        PowerSpec {
            tdp_watts,
            idle_fraction,
        }
    }

    /// Average power at a given utilization (linear between idle and TDP —
    /// the standard first-order server model).
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]`.
    #[must_use]
    pub fn average_watts(&self, utilization: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization must be a fraction"
        );
        self.tdp_watts * (self.idle_fraction + (1.0 - self.idle_fraction) * utilization)
    }

    /// Energy in joules for a run of `duration` at `utilization`.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]`.
    #[must_use]
    pub fn energy_joules(&self, duration: Seconds, utilization: f64) -> f64 {
        self.average_watts(utilization) * duration.as_f64()
    }
}

impl fmt::Display for PowerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} W TDP ({:.0}% idle)",
            self.tdp_watts,
            self.idle_fraction * 100.0
        )
    }
}

/// One Xeon Max 9468 socket: 350 W TDP; HBM refresh keeps idle high.
#[must_use]
pub fn spr_max_9468_socket() -> PowerSpec {
    PowerSpec::new(350.0, 0.35)
}

/// One Xeon 8352Y socket: 205 W TDP.
#[must_use]
pub fn icl_8352y_socket() -> PowerSpec {
    PowerSpec::new(205.0, 0.30)
}

/// A100-40GB board power (SXM/PCIe envelope): 400 W.
#[must_use]
pub fn a100_40gb_board() -> PowerSpec {
    PowerSpec::new(400.0, 0.15)
}

/// H100-80GB board power: 700 W.
#[must_use]
pub fn h100_80gb_board() -> PowerSpec {
    PowerSpec::new(700.0, 0.15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_scales_with_time_and_utilization() {
        let p = spr_max_9468_socket();
        let e_low = p.energy_joules(Seconds::new(10.0), 0.2);
        let e_high = p.energy_joules(Seconds::new(10.0), 0.9);
        assert!(e_high > e_low);
        let e_double = p.energy_joules(Seconds::new(20.0), 0.2);
        assert!((e_double - 2.0 * e_low).abs() < 1e-9);
    }

    #[test]
    fn idle_floor_holds() {
        let p = h100_80gb_board();
        assert!((p.average_watts(0.0) - 700.0 * 0.15).abs() < 1e-9);
        assert!((p.average_watts(1.0) - 700.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn bad_utilization_panics() {
        let _ = spr_max_9468_socket().average_watts(1.5);
    }
}
