//! Stacked LSTM network with a scalar regression head — the paper's
//! baseline policy engine (3 layers, hidden = 128, sequence length = 32).

use crate::cell::{CellState, LstmCell};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Architecture of the LSTM baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LstmArch {
    /// Number of stacked layers.
    pub layers: usize,
    /// Hidden size per layer.
    pub hidden: usize,
    /// Input feature dimension per timestep.
    pub input: usize,
    /// Input sequence length.
    pub seq_len: usize,
}

impl LstmArch {
    /// The paper's Table 2 baseline: 3 layers, hidden 128, sequence 32.
    /// Inputs are the 2-D `(page, time)` features.
    pub fn paper_baseline() -> Self {
        LstmArch {
            layers: 3,
            hidden: 128,
            input: 2,
            seq_len: 32,
        }
    }

    /// Trainable parameter count (cells + head).
    pub fn param_count(&self) -> usize {
        let mut total = 0;
        for l in 0..self.layers {
            let input = if l == 0 { self.input } else { self.hidden };
            total += 4 * self.hidden * (input + self.hidden) + 4 * self.hidden;
        }
        total + self.hidden + 1 // head
    }

    /// Multiply-accumulate operations per inference (all timesteps).
    pub fn macs_per_inference(&self) -> u64 {
        let mut per_step = 0u64;
        for l in 0..self.layers {
            let input = if l == 0 { self.input } else { self.hidden };
            per_step += 4 * self.hidden as u64 * (input as u64 + self.hidden as u64);
        }
        per_step * self.seq_len as u64 + self.hidden as u64
    }
}

/// The stacked network.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LstmNetwork {
    arch: LstmArch,
    cells: Vec<LstmCell>,
    head_w: Vec<f32>,
    head_b: f32,
}

impl LstmNetwork {
    /// Builds a randomly initialized network.
    pub fn new<R: Rng + ?Sized>(arch: LstmArch, rng: &mut R) -> Self {
        let cells = (0..arch.layers)
            .map(|l| {
                let input = if l == 0 { arch.input } else { arch.hidden };
                LstmCell::new(input, arch.hidden, rng)
            })
            .collect();
        let mut head_w = vec![0.0f32; arch.hidden];
        for w in &mut head_w {
            let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen();
            *w = ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32 * 0.05;
        }
        LstmNetwork {
            arch,
            cells,
            head_w,
            head_b: 0.0,
        }
    }

    /// The architecture.
    pub fn arch(&self) -> LstmArch {
        self.arch
    }

    /// Trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.cells.iter().map(LstmCell::param_count).sum::<usize>() + self.head_w.len() + 1
    }

    /// Scores a sequence of feature vectors (`seq.len()` should equal
    /// `arch.seq_len`, but any non-empty length works): every timestep
    /// runs up the layer stack, and the head reads the top layer's final
    /// hidden vector.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence or wrong feature width.
    pub fn forward(&self, seq: &[Vec<f32>]) -> f32 {
        assert!(!seq.is_empty(), "sequence must be non-empty");
        let mut states: Vec<CellState> = self
            .cells
            .iter()
            .map(|c| CellState::zeros(c.hidden()))
            .collect();
        for x in seq {
            assert_eq!(x.len(), self.arch.input, "feature width mismatch");
            let mut input: &[f32] = x;
            for (cell, state) in self.cells.iter().zip(&mut states) {
                *state = cell.forward(input, state);
                input = &state.h;
            }
        }
        let last_h = &states.last().expect("at least one layer").h;
        self.head_w
            .iter()
            .zip(last_h)
            .map(|(w, h)| w * h)
            .sum::<f32>()
            + self.head_b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_arch_dimensions() {
        let a = LstmArch::paper_baseline();
        assert_eq!(a.layers, 3);
        assert_eq!(a.hidden, 128);
        assert_eq!(a.seq_len, 32);
        // 4h(in+h)+4h per layer: 66_560+512, then 2 × (131_072+512), +head.
        assert_eq!(a.param_count(), 66_560 + 512 + 2 * (131_072 + 512) + 129);
        // 32 steps × (66,560 + 2 × 131,072) MACs + head = ~10.5 M.
        assert_eq!(a.macs_per_inference(), 32 * 328_704 + 128);
    }

    #[test]
    fn forward_is_deterministic_and_finite() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = LstmNetwork::new(
            LstmArch {
                layers: 2,
                hidden: 8,
                input: 2,
                seq_len: 4,
            },
            &mut rng,
        );
        let seq: Vec<Vec<f32>> = (0..4).map(|t| vec![t as f32 * 0.1, 0.5]).collect();
        let a = net.forward(&seq);
        let b = net.forward(&seq);
        assert_eq!(a, b);
        assert!(a.is_finite());
    }

    /// The cache-free loop is the arithmetic of the BPTT-caching forward
    /// pass it replaced, in the same order: both outputs were recorded from
    /// that implementation (on the repository benchmark's probe input)
    /// before it was deleted.
    #[test]
    fn forward_is_bit_identical_to_the_recorded_outputs() {
        let probe: Vec<Vec<f32>> = (0..32).map(|t| vec![t as f32 * 0.01, 0.5]).collect();
        let small = LstmArch {
            layers: 1,
            hidden: 8,
            input: 2,
            seq_len: 32,
        };
        for (arch, bits) in [
            (LstmArch::paper_baseline(), 0xbd3a_6f66_u32), // -0.045516394
            (small, 0xbb39_3cfb),                          // -0.0028265107
        ] {
            let net = LstmNetwork::new(arch, &mut StdRng::seed_from_u64(1));
            assert_eq!(net.arch(), arch);
            assert_eq!(net.param_count(), arch.param_count());
            let out = net.forward(&probe);
            assert_eq!(out.to_bits(), bits, "{arch:?}: {out}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sequence_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = LstmNetwork::new(
            LstmArch {
                layers: 1,
                hidden: 2,
                input: 2,
                seq_len: 2,
            },
            &mut rng,
        );
        let _ = net.forward(&[]);
    }
}
