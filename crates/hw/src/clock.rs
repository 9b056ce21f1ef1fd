//! Clock-domain arithmetic (the paper's design runs at 233 MHz).

use serde::{Deserialize, Serialize};
use std::ops::Add;

/// A cycle count in some clock domain.
#[derive(
    Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Cycles(pub u64);

impl Add for Cycles {
    type Output = Cycles;

    fn add(self, o: Cycles) -> Cycles {
        Cycles(self.0 + o.0)
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
        assert_eq!(clk.cycles_to_us(Cycles(0)), 0.0);
    }

    #[test]
    fn cycle_arithmetic() {
        assert_eq!(Cycles(10) + Cycles(5), Cycles(15));
    }
}
