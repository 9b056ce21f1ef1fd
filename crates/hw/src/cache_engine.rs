//! Cache-control-engine timing model (paper §4.2).
//!
//! The hardware decodes the set index, bursts the set's tags + GMM scores
//! from HBM into an on-board buffer, compares all tags *in parallel*
//! (1 cycle, vs. `ways` cycles sequentially), and on a hit moves the data
//! HBM→host. The paper measures ≈1 µs end-to-end for a hit at 233 MHz;
//! the defaults below decompose that figure.

use crate::clock::{ClockDomain, Cycles};
use serde::{Deserialize, Serialize};

/// Timing parameters of the cache control engine.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CacheEngineModel {
    /// Request decode + set-index extraction.
    pub decode_cycles: u64,
    /// HBM burst of the set's tag/score entries into the on-board buffer.
    pub tag_fetch_cycles: u64,
    /// Tag comparison (1 with the partitioned parallel compare).
    pub compare_cycles: u64,
    /// Data movement + response on a hit (dominates the 1 µs hit time).
    pub hit_data_cycles: u64,
    /// Tag/score write-back after an insertion or eviction decision.
    pub update_cycles: u64,
    /// Clock domain.
    pub clock: ClockDomain,
}

impl CacheEngineModel {
    /// Calibrated to the paper's ≈1 µs measured hit time at 233 MHz
    /// (233 cycles total).
    pub fn paper_default() -> Self {
        CacheEngineModel {
            decode_cycles: 4,
            tag_fetch_cycles: 48,
            compare_cycles: 1,
            hit_data_cycles: 180,
            update_cycles: 8,
            clock: ClockDomain::paper_233mhz(),
        }
    }

    /// Cycles to determine hit/miss (decode + fetch + compare).
    pub fn lookup_cycles(&self) -> Cycles {
        Cycles(self.decode_cycles + self.tag_fetch_cycles + self.compare_cycles)
    }

    /// End-to-end hit latency in cycles.
    pub fn hit_cycles(&self) -> Cycles {
        self.lookup_cycles() + Cycles(self.hit_data_cycles)
    }

    /// End-to-end hit latency in µs (the paper's 1 µs).
    pub fn hit_us(&self) -> f64 {
        self.clock.cycles_to_us(self.hit_cycles())
    }

    /// Overhead cycles a miss spends in the engine besides the SSD/GMM
    /// work (lookup + tag/score update).
    pub fn miss_overhead_cycles(&self) -> Cycles {
        self.lookup_cycles() + Cycles(self.update_cycles)
    }

    /// Miss overhead in µs.
    pub fn miss_overhead_us(&self) -> f64 {
        self.clock.cycles_to_us(self.miss_overhead_cycles())
    }
}

impl Default for CacheEngineModel {
    fn default() -> Self {
        CacheEngineModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_time_is_one_us() {
        let m = CacheEngineModel::paper_default();
        assert_eq!(m.hit_cycles(), Cycles(233));
        assert!((m.hit_us() - 1.0).abs() < 0.01, "{}", m.hit_us());
    }

    #[test]
    fn miss_overhead_is_small_vs_ssd() {
        let m = CacheEngineModel::paper_default();
        // Engine-side miss overhead must be tiny next to a 75 µs SSD read.
        assert!(m.miss_overhead_us() < 1.0);
    }
}
