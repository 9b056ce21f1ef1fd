//! FPGA resource model for the GMM policy engine (paper Table 2, GMM row,
//! and §5.1: "only 190 (14 %) BRAM and 117 (2 %) DSP consumption" for the
//! whole ICGMM system).
//!
//! First-principles storage accounting (weight buffer, exp LUT, tag/score
//! set buffer) drives BRAM; the DSP/LUT/FF figures combine a datapath
//! decomposition with per-unit constants calibrated against Table 2's GMM
//! row {BRAM 8, DSP 113, LUT 58 353, FF 152 583}. What the model is *for*
//! is scaling: how resources move with K, LUT-table size and pipeline
//! depth — the area side of a choice of K, whose accuracy side is the
//! `fidelity` bin's K sweep.

use serde::{Deserialize, Serialize};

/// A Table 2-style resource row (see also `icgmm_lstm::FpgaCost` for the
/// LSTM side).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceEstimate {
    /// 36 Kb BRAM tiles.
    pub bram_36k: u32,
    /// DSP48 slices.
    pub dsp: u32,
    /// Look-up tables.
    pub lut: u32,
    /// Flip-flops.
    pub ff: u32,
}

/// Resource model for the GMM engine.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GmmResourceModel {
    /// Mixture components.
    pub k: usize,
    /// Bytes per stored parameter word (the hardware packs to 32 bits).
    pub bytes_per_word: u32,
    /// exp LUT entries.
    pub exp_lut_entries: u32,
    /// Pipeline depth (drives FF count — the deep II=1 pipeline is why the
    /// GMM row has *more* FFs than the LSTM row despite far less memory).
    pub pipeline_depth: u32,
    /// Fixed-point multipliers in the datapath (quadratic form, exp
    /// interpolation, coefficient scaling).
    pub datapath_mults: u32,
    /// DSP48 slices per 32×32 fixed multiplier.
    pub dsp_per_mult: u32,
    /// DSPs for address generation and control.
    pub control_dsp: u32,
    /// LUTs per DSP lane, calibrated.
    pub lut_per_dsp: u32,
    /// Base LUTs (FIFOs, control FSMs), calibrated.
    pub lut_base: u32,
    /// FFs per pipeline stage (datapath width × registers), calibrated.
    pub ff_per_stage: u32,
    /// Base FFs, calibrated.
    pub ff_base: u32,
}

/// Usable bytes in one 36 Kb BRAM tile.
const BRAM_BYTES: u32 = 4608;

impl GmmResourceModel {
    /// Calibrated to Table 2's GMM row for K = 256.
    pub fn paper_k256() -> Self {
        GmmResourceModel {
            k: 256,
            bytes_per_word: 4,
            exp_lut_entries: 4096,
            pipeline_depth: 444,
            datapath_mults: 25,
            dsp_per_mult: 4,
            control_dsp: 13,
            lut_per_dsp: 295,
            lut_base: 25_000,
            ff_per_stage: 330,
            ff_base: 6_000,
        }
    }

    /// Same constants, different K.
    pub fn with_k(k: usize) -> Self {
        GmmResourceModel {
            k,
            ..GmmResourceModel::paper_k256()
        }
    }

    /// Weight-buffer bytes: 6 words per component (μ×2, Σ⁻¹×3 packed as
    /// 3 words, coefficient).
    pub fn weight_buffer_bytes(&self) -> u32 {
        self.k as u32 * 6 * self.bytes_per_word
    }

    /// exp-LUT bytes.
    pub fn exp_lut_bytes(&self) -> u32 {
        self.exp_lut_entries * self.bytes_per_word
    }

    /// Estimates the Table 2 row.
    pub fn estimate(&self) -> ResourceEstimate {
        // Storage: weights + exp LUT + one set's tag/score buffer + spare.
        let tag_score_buffer = 1u32; // one tile: 8 ways × (tag + score)
        let bram = self.weight_buffer_bytes().div_ceil(BRAM_BYTES)
            + self.exp_lut_bytes().div_ceil(BRAM_BYTES)
            + tag_score_buffer
            + 1; // FIFO spare
        let dsp = self.datapath_mults * self.dsp_per_mult + self.control_dsp;
        ResourceEstimate {
            bram_36k: bram,
            dsp,
            lut: self.lut_base + self.lut_per_dsp * dsp,
            ff: self.ff_base + self.ff_per_stage * self.pipeline_depth,
        }
    }
}

impl Default for GmmResourceModel {
    fn default() -> Self {
        GmmResourceModel::paper_k256()
    }
}

/// Paper Table 2 reference rows, for side-by-side printing.
pub mod table2 {
    use super::ResourceEstimate;

    /// Published GMM row.
    pub const GMM: ResourceEstimate = ResourceEstimate {
        bram_36k: 8,
        dsp: 113,
        lut: 58_353,
        ff: 152_583,
    };

    /// Published LSTM row.
    pub const LSTM: ResourceEstimate = ResourceEstimate {
        bram_36k: 339,
        dsp: 145,
        lut: 85_029,
        ff: 103_561,
    };

    /// Published latency figures, µs.
    pub const GMM_LATENCY_US: f64 = 3.0;
    /// Published LSTM latency, µs (46.3 ms).
    pub const LSTM_LATENCY_US: f64 = 46_300.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k256_estimate_matches_table2_row() {
        let est = GmmResourceModel::paper_k256().estimate();
        let want = table2::GMM;
        assert_eq!(est.dsp, want.dsp);
        // BRAM within 2 tiles, LUT/FF within 10%.
        assert!(
            (i64::from(est.bram_36k) - i64::from(want.bram_36k)).abs() <= 2,
            "bram {}",
            est.bram_36k
        );
        assert!(
            (f64::from(est.lut) - f64::from(want.lut)).abs() < 0.1 * f64::from(want.lut),
            "lut {}",
            est.lut
        );
        assert!(
            (f64::from(est.ff) - f64::from(want.ff)).abs() < 0.1 * f64::from(want.ff),
            "ff {}",
            est.ff
        );
    }

    #[test]
    fn gmm_uses_a_fraction_of_lstm_bram() {
        let gmm = GmmResourceModel::paper_k256().estimate();
        // The paper's headline: ~2% of the LSTM's on-chip memory.
        assert!(
            f64::from(gmm.bram_36k) / f64::from(table2::LSTM.bram_36k) < 0.05,
            "ratio {}",
            f64::from(gmm.bram_36k) / f64::from(table2::LSTM.bram_36k)
        );
    }

    #[test]
    fn bram_scales_with_k() {
        let small = GmmResourceModel::with_k(64).estimate();
        let big = GmmResourceModel::with_k(4096).estimate();
        assert!(small.bram_36k < big.bram_36k);
        // DSP is K-independent (one pipelined PE).
        assert_eq!(small.dsp, big.dsp);
    }

    #[test]
    fn weight_buffer_matches_fixedgmm_accounting() {
        // 256 comps × 6 words × 4 B = 6 KiB.
        assert_eq!(GmmResourceModel::paper_k256().weight_buffer_bytes(), 6_144);
    }
}
