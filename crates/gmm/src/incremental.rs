//! Incremental (online) EM over persisted sufficient statistics.
//!
//! The batch trainer ([`crate::EmTrainer`]) recomputes its sufficient
//! statistics from scratch every iteration; a drift-triggered refit that
//! re-ran it cold would pay `max_iters` full E/M passes over the buffer.
//! [`IncrementalEm`] instead keeps the per-component statistics *between*
//! refits, exponentially decays them (`scale(decay)`), folds in one
//! E-step pass over the new observation batch, and runs a single M-step.
//! One refit therefore costs one E/M pass — the classic
//! sufficient-statistics recursion of incremental EM (Neal & Hinton) —
//! while the geometric decay window lets the mixture track workload
//! drift without forgetting everything it knew.
//!
//! The E-step is the batch trainer's [`crate::em::e_step`] — the scoring
//! kernel itself ([`crate::GmmScorer::unit_terms_into`]), vectorised
//! across components, so a K = 256 refit costs about one and a half
//! scoring passes over the buffer — and the M-step is byte-for-byte the batch
//! trainer's [`crate::em::m_step`], so a refit is deterministic from the
//! trainer's construction seed and the batch contents.

use crate::em::{e_step, m_step, total_weight, EmConfig, SuffStats};
use crate::error::GmmError;
use crate::gaussian::{Gaussian2, Mat2, Vec2};
use crate::model::Gmm;
use crate::scorer::GmmScorer;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Online EM state: decayed sufficient statistics plus current parameters.
///
/// ```
/// use icgmm_gmm::{EmConfig, EmTrainer, IncrementalEm};
/// let xs: Vec<[f64; 2]> = (0..64).map(|i| [i as f64 * 0.1, (i % 7) as f64]).collect();
/// let cfg = EmConfig { k: 4, max_iters: 10, ..Default::default() };
/// let (gmm, _) = EmTrainer::new(cfg)?.fit(&xs, &[])?;
/// let mut inc = IncrementalEm::new(&gmm, cfg, 0.5)?;
/// let refit = inc.refit(&xs, &[])?;
/// assert_eq!(refit.k(), 4);
/// # Ok::<(), icgmm_gmm::GmmError>(())
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalEm {
    cfg: EmConfig,
    decay: f64,
    stats: SuffStats,
    total_w: f64,
    weights: Vec<f64>,
    means: Vec<Vec2>,
    covs: Vec<Mat2>,
    rng: StdRng,
    refits: u64,
    last_batch_mll: f64,
}

impl IncrementalEm {
    /// Seeds the incremental state from an offline-trained mixture.
    ///
    /// `decay` is the per-refit forgetting factor applied to the
    /// accumulated sufficient statistics (effective window ≈
    /// `batch / (1 - decay)` observations); `1.0` never forgets.
    ///
    /// # Errors
    ///
    /// Returns [`GmmError::InvalidParam`] when the configuration fails
    /// [`EmConfig::validate`], when `decay` is not finite in `(0, 1]`,
    /// or when `reg_covar` is not strictly positive — the incremental
    /// path refits from small reservoir batches where a component can
    /// collapse onto few points, so the unregularized `reg_covar == 0`
    /// the batch trainer tolerates is rejected here.
    pub fn new(gmm: &Gmm, cfg: EmConfig, decay: f64) -> Result<Self, GmmError> {
        cfg.validate()?;
        if !(decay.is_finite() && decay > 0.0 && decay <= 1.0) {
            return Err(GmmError::InvalidParam(
                "decay must be finite in (0, 1]".into(),
            ));
        }
        if !(cfg.reg_covar.is_finite() && cfg.reg_covar > 0.0) {
            return Err(GmmError::InvalidParam(
                "incremental refits require reg_covar > 0".into(),
            ));
        }
        let k = gmm.k();
        Ok(IncrementalEm {
            cfg,
            decay,
            stats: SuffStats::zeros(k),
            total_w: 0.0,
            weights: gmm.weights().to_vec(),
            means: gmm.components().iter().map(|c| c.mean()).collect(),
            covs: gmm.components().iter().map(|c| c.cov()).collect(),
            rng: StdRng::seed_from_u64(cfg.seed),
            refits: 0,
            last_batch_mll: f64::NEG_INFINITY,
        })
    }

    /// One incremental refit: decay the persisted statistics, fold in an
    /// E-step over `xs` (weights `ws`, empty ⇒ uniform), run one M-step,
    /// and return the updated mixture.
    ///
    /// # Errors
    ///
    /// Returns [`GmmError::EmptyInput`] for an empty/zero-weight batch,
    /// [`GmmError::InvalidParam`] for a non-finite or negative weight or a
    /// weight list that is neither empty nor one per sample (the persisted
    /// statistics are untouched either way), and propagates covariance
    /// failures from rebuilding the mixture.
    pub fn refit(&mut self, xs: &[Vec2], ws: &[f64]) -> Result<Gmm, GmmError> {
        let batch_w = total_weight(xs, ws)?;
        let scorer = GmmScorer::from_params(&self.weights, &self.means, &self.covs)?;
        let batch = e_step(&scorer, xs, ws, self.cfg.threads);
        self.last_batch_mll = batch.loglik / batch_w;

        self.stats.scale(self.decay);
        self.total_w *= self.decay;
        self.stats.merge(&batch);
        self.total_w += batch_w;

        let global = crate::init::global_cov(xs, ws);
        m_step(
            &self.stats,
            xs,
            self.total_w,
            self.cfg.reg_covar,
            global,
            &mut self.rng,
            &mut self.weights,
            &mut self.means,
            &mut self.covs,
        );
        self.refits += 1;

        let components: Result<Vec<Gaussian2>, GmmError> = self
            .means
            .iter()
            .zip(&self.covs)
            .enumerate()
            .map(|(i, (m, c))| {
                Gaussian2::new(*m, *c).map_err(|_| GmmError::SingularCovariance { component: i })
            })
            .collect();
        Gmm::new(self.weights.clone(), components?)
    }

    /// Mean log-likelihood of the most recent batch under the *pre-refit*
    /// parameters (the E-step's likelihood), or `-inf` before any refit.
    pub fn last_batch_mll(&self) -> f64 {
        self.last_batch_mll
    }

    /// Refits performed since construction.
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Component count carried by the incremental state.
    pub fn k(&self) -> usize {
        self.weights.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::EmTrainer;

    fn cluster(center: [f64; 2], n: usize, salt: u64) -> Vec<Vec2> {
        (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt);
                let dx = ((h % 1000) as f64 / 1000.0 - 0.5) * 0.6;
                let dy = (((h >> 10) % 1000) as f64 / 1000.0 - 0.5) * 0.6;
                [center[0] + dx, center[1] + dy]
            })
            .collect()
    }

    fn fit_base(xs: &[Vec2], k: usize) -> (Gmm, EmConfig) {
        let cfg = EmConfig {
            k,
            max_iters: 30,
            threads: 1,
            ..Default::default()
        };
        let (gmm, _) = EmTrainer::new(cfg).unwrap().fit(xs, &[]).unwrap();
        (gmm, cfg)
    }

    #[test]
    fn invalid_decay_and_reg_covar_are_rejected() {
        let xs = cluster([0.0, 0.0], 64, 1);
        let (gmm, cfg) = fit_base(&xs, 2);
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                IncrementalEm::new(&gmm, cfg, bad),
                Err(GmmError::InvalidParam(_))
            ));
        }
        let zero_reg = EmConfig {
            reg_covar: 0.0,
            ..cfg
        };
        assert!(matches!(
            IncrementalEm::new(&gmm, zero_reg, 1.0),
            Err(GmmError::InvalidParam(_))
        ));
        // The batch validator still accepts reg_covar == 0 (documented).
        assert!(zero_reg.validate().is_ok());
        assert!(IncrementalEm::new(&gmm, cfg, 1.0).is_ok());
    }

    #[test]
    fn empty_batch_is_an_error() {
        let xs = cluster([0.0, 0.0], 64, 2);
        let (gmm, cfg) = fit_base(&xs, 2);
        let mut inc = IncrementalEm::new(&gmm, cfg, 0.7).unwrap();
        assert_eq!(inc.refit(&[], &[]).unwrap_err(), GmmError::EmptyInput);
        let one = [[1.0, 1.0]];
        assert_eq!(inc.refit(&one, &[0.0]).unwrap_err(), GmmError::EmptyInput);
        assert_eq!(inc.refits(), 0);
    }

    #[test]
    fn hostile_weights_are_rejected_before_the_state_moves() {
        let xs = cluster([0.0, 0.0], 64, 2);
        let (gmm, cfg) = fit_base(&xs, 2);
        let mut inc = IncrementalEm::new(&gmm, cfg, 0.7).unwrap();
        let batch = [[0.1, 0.1], [0.2, -0.1], [-0.1, 0.0]];
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            assert!(
                matches!(
                    inc.refit(&batch, &[1.0, 1.0, bad]),
                    Err(GmmError::InvalidParam(_))
                ),
                "weight {bad}"
            );
        }
        assert_eq!(inc.refits(), 0);
        // A weight list that is neither empty nor one per sample is a typed
        // error, not a panic — one short, one long, one for an empty batch.
        for ws in [&[1.0, 1.0][..], &[1.0; 4][..]] {
            match inc.refit(&batch, ws) {
                Err(GmmError::InvalidParam(msg)) => assert!(msg.contains("weights"), "{msg}"),
                other => panic!("{} weights: expected InvalidParam, got {other:?}", ws.len()),
            }
        }
        assert!(matches!(
            inc.refit(&[], &[1.0]),
            Err(GmmError::InvalidParam(_))
        ));
        assert_eq!(inc.refits(), 0);
        // The rejected batches left no trace: the next refit equals a
        // fresh trainer's first.
        let mut fresh = IncrementalEm::new(&gmm, cfg, 0.7).unwrap();
        let (a, b) = (inc.refit(&xs, &[]).unwrap(), fresh.refit(&xs, &[]).unwrap());
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.components(), b.components());
    }

    #[test]
    fn refit_tracks_a_shifted_cluster() {
        // Train on data near (-3, 0), then feed batches near (3, 2): the
        // refit mixture must score the new region far better than the
        // static one does.
        let old = cluster([-3.0, 0.0], 256, 3);
        let (gmm, cfg) = fit_base(&old, 2);
        let mut inc = IncrementalEm::new(&gmm, cfg, 0.5).unwrap();
        let new = cluster([3.0, 2.0], 256, 4);
        let mut refit = None;
        for _ in 0..6 {
            refit = Some(inc.refit(&new, &[]).unwrap());
        }
        let refit = refit.unwrap();
        assert_eq!(inc.refits(), 6);
        assert!(inc.last_batch_mll().is_finite());
        let probe = [3.0, 2.0];
        assert!(
            refit.log_density(probe) > gmm.log_density(probe) + 1.0,
            "refit {} vs static {}",
            refit.log_density(probe),
            gmm.log_density(probe)
        );
    }

    #[test]
    fn refits_are_deterministic_from_seed() {
        let old = cluster([-1.0, 1.0], 128, 5);
        let (gmm, cfg) = fit_base(&old, 3);
        let new = cluster([2.0, -1.0], 128, 6);
        let run = || {
            let mut inc = IncrementalEm::new(&gmm, cfg, 0.8).unwrap();
            let mut last = None;
            for _ in 0..4 {
                last = Some(inc.refit(&new, &[]).unwrap());
            }
            last.unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.components(), b.components());
    }

    #[test]
    fn decay_one_accumulates_without_forgetting() {
        // With decay = 1.0 two refits on the same batch keep total weight
        // growing and the model stable on stationary data.
        let xs = cluster([0.5, 0.5], 200, 7);
        let (gmm, cfg) = fit_base(&xs, 2);
        let mut inc = IncrementalEm::new(&gmm, cfg, 1.0).unwrap();
        let r1 = inc.refit(&xs, &[]).unwrap();
        let r2 = inc.refit(&xs, &[]).unwrap();
        let l1 = r1.mean_log_likelihood(&xs, &[]);
        let l2 = r2.mean_log_likelihood(&xs, &[]);
        assert!((l1 - l2).abs() < 0.05, "l1={l1} l2={l2}");
    }
}
