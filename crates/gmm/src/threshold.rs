//! Admission-threshold calibration.
//!
//! The paper caches a missed page only when its GMM score clears "a certain
//! threshold" (§3.2) but does not publish the value. We make the choice
//! explicit and reproducible: the threshold is a weighted quantile of the
//! scores that the trained model assigns to its own training cells. A
//! quantile of `q` means roughly the lowest-scoring `q` fraction of request
//! mass would be bypassed.

use crate::model::Gmm;
use serde::{Deserialize, Serialize};

/// Threshold selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ThresholdConfig {
    /// Quantile of training-cell scores used as the admission threshold,
    /// in `[0, 1)`. `0` admits everything.
    pub quantile: f64,
}

impl Default for ThresholdConfig {
    fn default() -> Self {
        // A conservative default: under heavy access skew a few percent of
        // request mass already covers every page beyond cache reach, and
        // over-filtering multiplies misses on pages with genuine reuse.
        // Per-benchmark calibrated values live in `icgmm::benchmarks`.
        ThresholdConfig { quantile: 0.05 }
    }
}

/// Weighted quantile (lower interpolation) of `values` with non-negative
/// `weights` (`weights` empty ⇒ uniform).
///
/// # Panics
///
/// Panics when `q` is outside `[0, 1]`, when `values` is empty, or when a
/// non-empty `weights` has a different length.
pub fn weighted_quantile(values: &[f64], weights: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    assert!(!values.is_empty(), "cannot take quantile of empty data");
    assert!(
        weights.is_empty() || weights.len() == values.len(),
        "weights must be empty or match values"
    );
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite scores"));
    let w_at = |i: usize| if weights.is_empty() { 1.0 } else { weights[i] };
    let total: f64 = (0..values.len()).map(w_at).sum();
    let target = q * total;
    let mut acc = 0.0;
    for &i in &idx {
        acc += w_at(i);
        if acc >= target {
            return values[i];
        }
    }
    values[*idx.last().expect("non-empty")]
}

/// Scores every training cell under `gmm` and returns the calibrated
/// admission threshold.
///
/// # Panics
///
/// Propagates the panics of [`weighted_quantile`].
pub fn calibrate_threshold(gmm: &Gmm, xs: &[[f64; 2]], ws: &[f64], cfg: &ThresholdConfig) -> f64 {
    if cfg.quantile <= 0.0 {
        return 0.0; // admit everything
    }
    // Calibration scores every training cell (up to millions): split the
    // batch across worker threads.
    let mut scores = vec![0.0; xs.len()];
    gmm.scorer().score_batch_parallel(xs, &mut scores, 0);
    weighted_quantile(&scores, ws, cfg.quantile.min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{Gaussian2, Mat2};

    #[test]
    fn unweighted_quantiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(weighted_quantile(&v, &[], 0.0), 1.0);
        assert_eq!(weighted_quantile(&v, &[], 0.2), 1.0);
        assert_eq!(weighted_quantile(&v, &[], 0.5), 3.0);
        assert_eq!(weighted_quantile(&v, &[], 1.0), 5.0);
    }

    #[test]
    fn weights_shift_the_quantile() {
        let v = [1.0, 2.0, 3.0];
        // Nearly all mass on 3.0 ⇒ median is 3.0.
        assert_eq!(weighted_quantile(&v, &[0.01, 0.01, 10.0], 0.5), 3.0);
        // Nearly all mass on 1.0 ⇒ median is 1.0.
        assert_eq!(weighted_quantile(&v, &[10.0, 0.01, 0.01], 0.5), 1.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_quantile_panics() {
        let _ = weighted_quantile(&[1.0], &[], 1.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_values_panic() {
        let _ = weighted_quantile(&[], &[], 0.5);
    }

    #[test]
    fn calibrate_splits_hot_and_cold() {
        let gmm = Gmm::new(
            vec![1.0],
            vec![Gaussian2::new([0.0, 0.0], Mat2::scaled_identity(1.0)).unwrap()],
        )
        .unwrap();
        // 80% of cells near the mean (hot), 20% far (cold).
        let mut xs = vec![[0.0, 0.0]; 80];
        xs.extend(vec![[6.0, 6.0]; 20]);
        let thr = calibrate_threshold(&gmm, &xs, &[], &ThresholdConfig { quantile: 0.25 });
        // The threshold should separate the far cells from the near cells.
        assert!(gmm.score([0.0, 0.0]) >= thr);
        assert!(gmm.score([6.0, 6.0]) <= thr);
    }

    #[test]
    fn zero_quantile_admits_everything() {
        let gmm = Gmm::new(
            vec![1.0],
            vec![Gaussian2::new([0.0, 0.0], Mat2::scaled_identity(1.0)).unwrap()],
        )
        .unwrap();
        let thr = calibrate_threshold(&gmm, &[[0.0, 0.0]], &[], &ThresholdConfig { quantile: 0.0 });
        assert_eq!(thr, 0.0);
    }
}
