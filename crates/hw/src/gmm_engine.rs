//! Pipelined GMM policy-engine model (paper §4.1).
//!
//! The hardware evaluates the `K` Gaussian terms through one deep pipeline
//! with initiation interval II = 1 — a new Gaussian enters every cycle —
//! and a shift-register accumulator resolves the score-sum dependency, so
//!
//! `latency = pipeline_depth + (K − 1) · II` cycles.
//!
//! The paper measures 3 µs end-to-end at 233 MHz with K = 256; with II = 1
//! that implies a ~444-cycle pipeline depth (trace decode, fixed-point
//! quadratic form, LUT exp with interpolation, scaling, accumulation and
//! FIFO hand-off), which is the calibrated default here.

use crate::clock::{ClockDomain, Cycles};
use serde::{Deserialize, Serialize};

/// Timing parameters of the GMM processing element.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GmmEngineModel {
    /// Mixture components evaluated per inference.
    pub k: usize,
    /// Initiation interval of the Gaussian pipeline (cycles per component).
    pub ii: u64,
    /// Pipeline depth in cycles (fill latency).
    pub pipeline_depth: u64,
    /// Clock domain.
    pub clock: ClockDomain,
}

impl GmmEngineModel {
    /// Calibrated to the paper's measurement: K = 256, II = 1, 233 MHz,
    /// ≈3 µs per inference.
    pub fn paper_k256() -> Self {
        GmmEngineModel {
            k: 256,
            ii: 1,
            pipeline_depth: 444,
            clock: ClockDomain::paper_233mhz(),
        }
    }

    /// Same pipeline, different component count.
    pub fn with_k(k: usize) -> Self {
        GmmEngineModel {
            k,
            ..GmmEngineModel::paper_k256()
        }
    }

    /// Inference latency in cycles.
    pub fn latency_cycles(&self) -> Cycles {
        Cycles(self.pipeline_depth + (self.k.saturating_sub(1)) as u64 * self.ii)
    }

    /// Inference latency in µs.
    pub fn latency_us(&self) -> f64 {
        self.clock.cycles_to_us(self.latency_cycles())
    }
}

impl Default for GmmEngineModel {
    fn default() -> Self {
        GmmEngineModel::paper_k256()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_latency_is_three_us() {
        let m = GmmEngineModel::paper_k256();
        assert_eq!(m.latency_cycles(), Cycles(444 + 255));
        assert!((m.latency_us() - 3.0).abs() < 0.01, "{}", m.latency_us());
    }

    #[test]
    fn latency_scales_with_k() {
        let k64 = GmmEngineModel::with_k(64);
        let k256 = GmmEngineModel::with_k(256);
        let k1024 = GmmEngineModel::with_k(1024);
        assert!(k64.latency_us() < k256.latency_us());
        assert!(k256.latency_us() < k1024.latency_us());
        // Marginal cost is II = 1 cycle per extra component.
        assert_eq!(
            k1024.latency_cycles().0 - k256.latency_cycles().0,
            1024 - 256
        );
    }
}
