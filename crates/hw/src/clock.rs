//! Clock-domain arithmetic (the paper's design runs at 233 MHz).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A cycle count in some clock domain.
#[derive(
    Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Saturating subtraction.
    pub fn saturating_sub(self, o: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(o.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;

    fn add(self, o: Cycles) -> Cycles {
        Cycles(self.0 + o.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, o: Cycles) {
        self.0 += o.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;

    fn sub(self, o: Cycles) -> Cycles {
        Cycles(self.0 - o.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A clock domain with a fixed frequency.
///
/// ```
/// use icgmm_hw::{ClockDomain, Cycles};
/// let clk = ClockDomain::paper_233mhz();
/// // 699 cycles at 233 MHz ≈ 3 µs (the paper's GMM inference latency).
/// assert!((clk.cycles_to_us(Cycles(699)) - 3.0).abs() < 0.01);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClockDomain {
    /// Frequency in MHz.
    pub mhz: f64,
}

impl ClockDomain {
    /// The paper's 233 MHz Alveo U50 deployment clock.
    pub fn paper_233mhz() -> Self {
        ClockDomain { mhz: 233.0 }
    }

    /// Creates a clock domain.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not finite and positive.
    pub fn new(mhz: f64) -> Self {
        assert!(mhz.is_finite() && mhz > 0.0, "frequency must be positive");
        ClockDomain { mhz }
    }

    /// Converts cycles to microseconds.
    pub fn cycles_to_us(&self, c: Cycles) -> f64 {
        c.0 as f64 / self.mhz
    }
}

impl Default for ClockDomain {
    fn default() -> Self {
        ClockDomain::paper_233mhz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let clk = ClockDomain::paper_233mhz();
        // 75 µs (an SSD read) is a whole number of 233 MHz cycles.
        assert!((clk.cycles_to_us(Cycles(17_475)) - 75.0).abs() < 1e-9);
        assert_eq!(clk.cycles_to_us(Cycles::ZERO), 0.0);
    }

    #[test]
    fn cycle_arithmetic() {
        let a = Cycles(10) + Cycles(5);
        assert_eq!(a, Cycles(15));
        assert_eq!(a - Cycles(5), Cycles(10));
        assert_eq!(Cycles(3).saturating_sub(Cycles(9)), Cycles::ZERO);
        let mut b = Cycles(1);
        b += Cycles(2);
        assert_eq!(b, Cycles(3));
        assert_eq!(b.to_string(), "3 cycles");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_panics() {
        let _ = ClockDomain::new(0.0);
    }
}
