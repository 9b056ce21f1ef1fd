//! FPGA cost model for the LSTM policy engine (paper Table 2, LSTM row).
//!
//! BRAM follows from parameter and activation storage; DSP is the design's
//! multiplier budget; latency follows from the MAC count, the DSP budget
//! and an *effective efficiency* — the fraction of peak MAC throughput the
//! synthesized design actually sustains. The paper's measured 46.3 ms for
//! the 3×128/seq-32 baseline implies an efficiency well below 1 % (the
//! recurrent dependency serializes timesteps and gates, and weights stream
//! from BRAM), which [`LstmCostModel::paper_calibrated`] encodes. Even a
//! hypothetical 100 %-efficient LSTM (`efficiency = 1.0`) remains ~100×
//! slower than the GMM engine. Table 2 in the `fidelity` bin prints the
//! calibrated model beside the GMM engine's.

use crate::network::LstmArch;
use serde::{Deserialize, Serialize};

/// A Table 2-style resource/latency row.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FpgaCost {
    /// 36 Kb BRAM tiles.
    pub bram_36k: u32,
    /// DSP48 slices.
    pub dsp: u32,
    /// Look-up tables.
    pub lut: u32,
    /// Flip-flops.
    pub ff: u32,
    /// End-to-end inference latency, µs.
    pub latency_us: f64,
}

/// Cost model parameters for an LSTM engine.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LstmCostModel {
    /// Clock frequency (the paper's design runs at 233 MHz).
    pub clock_mhz: f64,
    /// DSP multipliers allocated to the engine.
    pub dsp_budget: u32,
    /// Sustained fraction of peak MAC throughput (0, 1].
    pub efficiency: f64,
    /// Bytes per parameter (f32 ⇒ 4).
    pub bytes_per_param: u32,
    /// LUTs charged per DSP lane (datapath + control), calibrated.
    pub lut_per_dsp: u32,
    /// Base LUTs (FIFOs, AXI, FSMs), calibrated.
    pub lut_base: u32,
    /// FFs per DSP lane (pipeline registers), calibrated.
    pub ff_per_dsp: u32,
    /// Base FFs, calibrated.
    pub ff_base: u32,
}

/// Usable bytes in one 36 Kb BRAM tile.
const BRAM_BYTES: u64 = 4608;

impl LstmCostModel {
    /// Constants calibrated so the paper's 3×128/seq-32 baseline reproduces
    /// Table 2's LSTM row (339 BRAM / 145 DSP / 85 k LUT / 104 k FF /
    /// 46.3 ms at 233 MHz).
    pub fn paper_calibrated() -> Self {
        LstmCostModel {
            clock_mhz: 233.0,
            dsp_budget: 145,
            // 10.5 M MACs / (145 DSP × 233 MHz × e) = 46.3 ms ⇒ e ≈ 0.0067.
            efficiency: 0.0067,
            bytes_per_param: 4,
            lut_per_dsp: 400,
            lut_base: 27_000,
            ff_per_dsp: 500,
            ff_base: 31_000,
        }
    }

    /// Estimates the Table 2 row for an architecture.
    ///
    /// # Errors
    ///
    /// Names the first of `efficiency`, `clock_mhz` and `dsp_budget` that
    /// is not finite and positive — the latency divides by their product.
    pub fn estimate(&self, arch: &LstmArch) -> Result<FpgaCost, String> {
        for (what, v) in [
            ("lstm.efficiency", self.efficiency),
            ("lstm.clock_mhz", self.clock_mhz),
            ("lstm.dsp_budget", f64::from(self.dsp_budget)),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{what} must be finite and > 0, got {v}"));
            }
        }
        let param_bytes = arch.param_count() as u64 * u64::from(self.bytes_per_param);
        // Activations: h and c per layer, plus the seq_len input buffer.
        let act_bytes = (2 * arch.layers * arch.hidden
            + arch.seq_len * arch.input
            + arch.seq_len * arch.hidden) as u64
            * 4;
        // I/O & double-buffering overhead tiles (FIFOs, weight prefetch).
        let overhead_tiles = 32u64;
        let bram =
            param_bytes.div_ceil(BRAM_BYTES) + act_bytes.div_ceil(BRAM_BYTES) + overhead_tiles;

        let macs = arch.macs_per_inference() as f64;
        let peak_macs_per_us = f64::from(self.dsp_budget) * self.clock_mhz;
        let latency_us = macs / (peak_macs_per_us * self.efficiency);

        Ok(FpgaCost {
            bram_36k: bram as u32,
            dsp: self.dsp_budget,
            lut: self.lut_base + self.lut_per_dsp * self.dsp_budget,
            ff: self.ff_base + self.ff_per_dsp * self.dsp_budget,
            latency_us,
        })
    }
}

impl Default for LstmCostModel {
    fn default() -> Self {
        LstmCostModel::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_reproduces_table2_row() {
        let cost = LstmCostModel::paper_calibrated()
            .estimate(&LstmArch::paper_baseline())
            .unwrap();
        // Latency within 10% of 46.3 ms.
        assert!(
            (cost.latency_us - 46_300.0).abs() < 4_600.0,
            "latency {} µs",
            cost.latency_us
        );
        // BRAM within 20% of 339.
        assert!(
            (f64::from(cost.bram_36k) - 339.0).abs() < 68.0,
            "bram {}",
            cost.bram_36k
        );
        assert_eq!(cost.dsp, 145);
        assert!(
            (f64::from(cost.lut) - 85_029.0).abs() < 8_500.0,
            "lut {}",
            cost.lut
        );
        assert!(
            (f64::from(cost.ff) - 103_561.0).abs() < 10_400.0,
            "ff {}",
            cost.ff
        );
    }

    #[test]
    fn even_perfect_efficiency_is_far_slower_than_gmm() {
        let ideal = LstmCostModel {
            efficiency: 1.0,
            ..LstmCostModel::paper_calibrated()
        };
        let cost = ideal.estimate(&LstmArch::paper_baseline()).unwrap();
        // The GMM engine finishes in 3 µs; a perfect LSTM still needs >100×.
        assert!(cost.latency_us > 3.0 * 100.0, "{}", cost.latency_us);
    }

    #[test]
    fn smaller_models_cost_less() {
        let model = LstmCostModel::paper_calibrated();
        let big = model.estimate(&LstmArch::paper_baseline()).unwrap();
        let small = model
            .estimate(&LstmArch {
                layers: 1,
                hidden: 32,
                input: 2,
                seq_len: 8,
            })
            .unwrap();
        assert!(small.bram_36k < big.bram_36k);
        assert!(small.latency_us < big.latency_us);
    }

    #[test]
    fn estimate_names_each_rate_that_is_not_positive() {
        // (the field named, efficiency, clock_mhz, dsp_budget)
        let bad = [
            ("lstm.efficiency", 0.0, 233.0, 145),
            ("lstm.efficiency", -0.5, 233.0, 145),
            ("lstm.efficiency", f64::NAN, 233.0, 145),
            ("lstm.clock_mhz", 0.0067, 0.0, 145),
            ("lstm.clock_mhz", 0.0067, f64::INFINITY, 145),
            ("lstm.dsp_budget", 0.0067, 233.0, 0),
        ];
        for (field, efficiency, clock_mhz, dsp_budget) in bad {
            let model = LstmCostModel {
                efficiency,
                clock_mhz,
                dsp_budget,
                ..LstmCostModel::paper_calibrated()
            };
            let err = model.estimate(&LstmArch::paper_baseline()).unwrap_err();
            assert!(err.contains(field), "{model:?}: {err}");
        }
    }
}
