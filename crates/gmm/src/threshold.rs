//! Admission-threshold calibration.
//!
//! The paper caches a missed page only when its GMM score clears "a certain
//! threshold" (§3.2) but does not publish the value. We make the choice
//! explicit and reproducible: the threshold is a weighted quantile of the
//! scores that the trained model assigns to its own training cells. A
//! quantile of `q` means roughly the lowest-scoring `q` fraction of request
//! mass would be bypassed.

use crate::error::GmmError;
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
/// `weights` (`weights` empty ⇒ uniform). Values are ordered by
/// [`f64::total_cmp`], so a NaN sorts above +∞ instead of aborting the
/// sort.
///
/// # Errors
///
/// [`GmmError::InvalidParam`] when `q` is outside `[0, 1]`,
/// [`GmmError::EmptyInput`] when `values` is empty and
/// [`GmmError::InvalidWeights`] when a non-empty `weights` has a different
/// length.
pub fn weighted_quantile(values: &[f64], weights: &[f64], q: f64) -> Result<f64, GmmError> {
    if !(0.0..=1.0).contains(&q) {
        return Err(GmmError::InvalidParam(format!(
            "quantile must be in [0, 1], got {q}"
        )));
    }
    if values.is_empty() {
        return Err(GmmError::EmptyInput);
    }
    if !weights.is_empty() && weights.len() != values.len() {
        return Err(GmmError::InvalidWeights(format!(
            "{} weights for {} values",
            weights.len(),
            values.len()
        )));
    }
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let w_at = |i: usize| if weights.is_empty() { 1.0 } else { weights[i] };
    let total: f64 = (0..values.len()).map(w_at).sum();
    let target = q * total;
    let mut acc = 0.0;
    for &i in &idx {
        acc += w_at(i);
        if acc >= target {
            return Ok(values[i]);
        }
    }
    Ok(values[idx[idx.len() - 1]])
}

/// Scores every training cell under `gmm` and returns the calibrated
/// admission threshold.
///
/// # Errors
///
/// Those of [`weighted_quantile`]: no cells, or a weight per cell missing.
pub fn calibrate_threshold(
    gmm: &Gmm,
    xs: &[[f64; 2]],
    ws: &[f64],
    cfg: &ThresholdConfig,
) -> Result<f64, GmmError> {
    if cfg.quantile <= 0.0 {
        return Ok(0.0); // admit everything
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

    fn unit_gmm() -> Gmm {
        Gmm::new(
            vec![1.0],
            vec![Gaussian2::new([0.0, 0.0], Mat2::scaled_identity(1.0)).unwrap()],
        )
        .unwrap()
    }

    #[test]
    fn unweighted_quantiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(weighted_quantile(&v, &[], 0.0), Ok(1.0));
        assert_eq!(weighted_quantile(&v, &[], 0.2), Ok(1.0));
        assert_eq!(weighted_quantile(&v, &[], 0.5), Ok(3.0));
        assert_eq!(weighted_quantile(&v, &[], 1.0), Ok(5.0));
    }

    #[test]
    fn weights_shift_the_quantile() {
        let v = [1.0, 2.0, 3.0];
        // Nearly all mass on 3.0 ⇒ median is 3.0.
        assert_eq!(weighted_quantile(&v, &[0.01, 0.01, 10.0], 0.5), Ok(3.0));
        // Nearly all mass on 1.0 ⇒ median is 1.0.
        assert_eq!(weighted_quantile(&v, &[10.0, 0.01, 0.01], 0.5), Ok(1.0));
    }

    #[test]
    fn out_of_range_quantile_is_a_typed_error() {
        for q in [1.5, -0.1, f64::NAN, f64::INFINITY] {
            let err = weighted_quantile(&[1.0], &[], q);
            assert!(matches!(err, Err(GmmError::InvalidParam(_))), "q = {q}");
        }
    }

    #[test]
    fn empty_or_mismatched_input_is_a_typed_error() {
        assert_eq!(weighted_quantile(&[], &[], 0.5), Err(GmmError::EmptyInput));
        let mismatch = weighted_quantile(&[1.0, 2.0], &[1.0], 0.5);
        assert!(matches!(mismatch, Err(GmmError::InvalidWeights(_))));
        // The public calibration over no training cells.
        let cfg = ThresholdConfig { quantile: 0.05 };
        let none = calibrate_threshold(&unit_gmm(), &[], &[], &cfg);
        assert_eq!(none, Err(GmmError::EmptyInput));
    }

    /// A NaN score sorts above every number (`total_cmp`) instead of
    /// aborting the sort: low quantiles still read the finite scores, and a
    /// NaN feature reaches calibration as a value, not a panic.
    #[test]
    fn a_nan_score_is_ordered_not_a_panic() {
        let v = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(weighted_quantile(&v, &[], 0.5), Ok(2.0));
        assert!(weighted_quantile(&v, &[], 1.0).unwrap().is_nan());
        let cfg = ThresholdConfig { quantile: 0.25 };
        let xs = [[0.0, 0.0], [f64::NAN, 0.0], [3.0, 3.0], [1.0, 1.0]];
        assert!(calibrate_threshold(&unit_gmm(), &xs, &[], &cfg).is_ok());
    }

    #[test]
    fn calibrate_splits_hot_and_cold() {
        let gmm = unit_gmm();
        // 80% of cells near the mean (hot), 20% far (cold).
        let mut xs = vec![[0.0, 0.0]; 80];
        xs.extend(vec![[6.0, 6.0]; 20]);
        let thr = calibrate_threshold(&gmm, &xs, &[], &ThresholdConfig { quantile: 0.25 });
        let thr = thr.unwrap();
        // The threshold should separate the far cells from the near cells.
        assert!(gmm.score([0.0, 0.0]) >= thr);
        assert!(gmm.score([6.0, 6.0]) <= thr);
    }

    #[test]
    fn zero_quantile_admits_everything() {
        let cfg = ThresholdConfig { quantile: 0.0 };
        let thr = calibrate_threshold(&unit_gmm(), &[[0.0, 0.0]], &[], &cfg);
        assert_eq!(thr, Ok(0.0));
    }
}
