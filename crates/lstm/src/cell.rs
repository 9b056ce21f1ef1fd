//! One LSTM cell (a single layer's recurrence), forward only.

use crate::tensor::{sigmoid, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// LSTM cell: gates `i, f, g, o` packed in that order along the 4h axis.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LstmCell {
    /// Input weights, `4h × input`.
    wx: Matrix,
    /// Recurrent weights, `4h × h`.
    wh: Matrix,
    /// Bias, length `4h`.
    b: Vec<f32>,
    hidden: usize,
    input: usize,
}

/// Hidden/cell state of one layer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellState {
    /// Hidden vector `h` (length = hidden size).
    pub h: Vec<f32>,
    /// Cell vector `c` (length = hidden size).
    pub c: Vec<f32>,
}

impl CellState {
    /// Zero state for a hidden size.
    pub fn zeros(hidden: usize) -> Self {
        CellState {
            h: vec![0.0; hidden],
            c: vec![0.0; hidden],
        }
    }
}

impl LstmCell {
    /// Creates a cell with Gaussian weights (std `0.08`) and the customary
    /// forget-gate bias of 1.
    pub fn new<R: Rng + ?Sized>(input: usize, hidden: usize, rng: &mut R) -> Self {
        let mut b = vec![0.0f32; 4 * hidden];
        for v in &mut b[hidden..2 * hidden] {
            *v = 1.0; // forget-gate bias
        }
        LstmCell {
            wx: Matrix::randn(4 * hidden, input, 0.08, rng),
            wh: Matrix::randn(4 * hidden, hidden, 0.08, rng),
            b,
            hidden,
            input,
        }
    }

    /// Hidden size.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input size.
    pub fn input(&self) -> usize {
        self.input
    }

    /// Trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.wx.len() + self.wh.len() + self.b.len()
    }

    /// One timestep: the state after feeding `x` in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or the state sizes disagree with the cell dimensions.
    pub fn forward(&self, x: &[f32], state: &CellState) -> CellState {
        assert_eq!(x.len(), self.input, "input size mismatch");
        assert_eq!(state.h.len(), self.hidden, "state size mismatch");
        let h = self.hidden;
        let mut z = self.b.clone();
        self.wx.matvec_acc(x, &mut z);
        self.wh.matvec_acc(&state.h, &mut z);

        let mut next = CellState::zeros(h);
        for j in 0..h {
            let (i, f) = (sigmoid(z[j]), sigmoid(z[h + j]));
            let (g, o) = (z[2 * h + j].tanh(), sigmoid(z[3 * h + j]));
            next.c[j] = f * state.c[j] + i * g;
            next.h[j] = o * next.c[j].tanh();
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes_and_determinism() {
        let mut rng = StdRng::seed_from_u64(3);
        let cell = LstmCell::new(2, 4, &mut rng);
        let s0 = CellState::zeros(4);
        let s1 = cell.forward(&[0.5, -0.2], &s0);
        assert_eq!(s1.h.len(), 4);
        assert_eq!(s1.c.len(), 4);
        assert_eq!(s1, cell.forward(&[0.5, -0.2], &s0));
        assert_eq!((cell.input(), cell.hidden()), (2, 4));
        assert_eq!(cell.param_count(), 4 * 4 * 2 + 4 * 4 * 4 + 16);
    }

    #[test]
    fn outputs_are_bounded() {
        let mut rng = StdRng::seed_from_u64(4);
        let cell = LstmCell::new(2, 8, &mut rng);
        let mut s = CellState::zeros(8);
        for t in 0..100 {
            let x = [(t as f32).sin() * 10.0, (t as f32).cos() * 10.0];
            s = cell.forward(&x, &s);
            assert!(s.h.iter().all(|v| v.abs() <= 1.0), "h out of range");
        }
    }
}
