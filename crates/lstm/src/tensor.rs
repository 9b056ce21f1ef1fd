//! Minimal dense linear algebra for the LSTM baseline (row-major f32).
//!
//! Deliberately dependency-free: the LSTM exists only as the paper's
//! Table 2 comparison baseline, and a matrix type that is one product
//! keeps the MAC count transparent for the FPGA cost model.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A row-major `rows × cols` matrix of `f32`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Gaussian-initialized matrix with standard deviation `scale`
    /// (Box–Muller; `rand_distr` is outside the approved dependency set).
    pub fn randn<R: Rng + ?Sized>(rows: usize, cols: usize, scale: f32, rng: &mut R) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for v in &mut m.data {
            let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            *v = (z as f32) * scale;
        }
        m
    }

    /// Raw data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// `out += M · x`.
    ///
    /// # Panics
    ///
    /// Panics when dimensions disagree.
    pub fn matvec_acc(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec: x length");
        assert_eq!(out.len(), self.rows, "matvec: out length");
        for (row, o) in self.data.chunks_exact(self.cols).zip(out.iter_mut()) {
            let mut acc = 0.0f32;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *o += acc;
        }
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matvec_matches_manual() {
        let mut m = Matrix::zeros(2, 3);
        m.data.copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = vec![0.0; 2];
        m.matvec_acc(&[1.0, 0.5, -1.0], &mut out);
        assert_eq!(out, vec![1.0 + 1.0 - 3.0, 4.0 + 2.5 - 6.0]);
        // It accumulates: a second product lands on top of the first.
        m.matvec_acc(&[1.0, 0.0, 0.0], &mut out);
        assert_eq!(out, vec![0.0, 4.5]);
    }

    #[test]
    fn randn_has_expected_spread() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::randn(50, 50, 0.1, &mut rng);
        let mean: f32 = m.data().iter().sum::<f32>() / m.len() as f32;
        let var: f32 = m
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / m.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.1).abs() < 0.02, "std {}", var.sqrt());
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }

    #[test]
    #[should_panic(expected = "matvec")]
    fn dimension_mismatch_panics() {
        let m = Matrix::zeros(2, 3);
        let mut out = vec![0.0; 2];
        m.matvec_acc(&[1.0], &mut out);
    }
}
