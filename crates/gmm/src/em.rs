//! Expectation-Maximization training (paper §3.3).
//!
//! Full-covariance weighted EM with log-sum-exp responsibilities, k-means++
//! initialization, covariance regularization, empty-component re-seeding,
//! and a scoped-thread-parallel E-step (the paper trains offline on millions of
//! trace cells; the parallel E-step keeps K = 256 practical on a laptop).
//! The E-step *is* the scoring kernel: each sample's terms come from
//! [`GmmScorer::unit_terms_into`] — vectorised across components, the
//! polynomial `exp` and lane-strided sum of online inference — and land in
//! structure-of-arrays statistics ([`SuffStats`]), so it allocates nothing
//! per sample and a point's training log-likelihood equals its inference
//! log-density bit for bit.
//!
//! Convergence follows the paper: after each iteration the change in the
//! (weighted mean) log-likelihood is compared against a threshold.

use crate::error::GmmError;
use crate::gaussian::{Gaussian2, Mat2, Vec2};
use crate::init::init_params;
use crate::model::Gmm;
use crate::scorer::GmmScorer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::thread;

/// EM hyper-parameters. `k = 256` is the paper's component count.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EmConfig {
    /// Number of mixture components `K`.
    pub k: usize,
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence threshold on the change in mean log-likelihood.
    pub tol: f64,
    /// Diagonal regularization added to every covariance at each M-step.
    pub reg_covar: f64,
    /// RNG seed (initialization and empty-component re-seeding).
    pub seed: u64,
    /// E-step worker threads; `0` selects the available parallelism. A
    /// fit uses at most two: the batch splits into two halves, whatever
    /// the count, so the model does not depend on the host's cores.
    pub threads: usize,
}

impl Default for EmConfig {
    fn default() -> Self {
        EmConfig {
            k: 256,
            max_iters: 60,
            tol: 1e-4,
            reg_covar: 1e-6,
            seed: 0x0D0C_5EED,
            threads: 0,
        }
    }
}

impl EmConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GmmError::InvalidParam`] when `k == 0`, `max_iters == 0`,
    /// or tolerances are non-positive/non-finite.
    pub fn validate(&self) -> Result<(), GmmError> {
        if self.k == 0 {
            return Err(GmmError::InvalidParam("k must be >= 1".into()));
        }
        if self.max_iters == 0 {
            return Err(GmmError::InvalidParam("max_iters must be >= 1".into()));
        }
        if !(self.tol.is_finite() && self.tol > 0.0) {
            return Err(GmmError::InvalidParam("tol must be finite and > 0".into()));
        }
        if !(self.reg_covar.is_finite() && self.reg_covar >= 0.0) {
            return Err(GmmError::InvalidParam(
                "reg_covar must be finite and >= 0".into(),
            ));
        }
        Ok(())
    }
}

/// Outcome of an EM fit.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EmReport {
    /// Iterations actually executed.
    pub iterations: usize,
    /// Whether the tolerance was reached before `max_iters`.
    pub converged: bool,
    /// Mean log-likelihood after each iteration (non-decreasing up to
    /// regularization/re-seeding effects).
    pub log_likelihood: Vec<f64>,
}

/// Trains a [`Gmm`] on weighted 2-D samples.
///
/// ```
/// use icgmm_gmm::{EmConfig, EmTrainer};
/// let xs = vec![[0.0, 0.0], [0.1, 0.1], [5.0, 5.0], [5.1, 4.9]];
/// let trainer = EmTrainer::new(EmConfig { k: 2, ..Default::default() })?;
/// let (gmm, report) = trainer.fit(&xs, &[])?;
/// assert_eq!(gmm.k(), 2);
/// assert!(report.iterations >= 1);
/// # Ok::<(), icgmm_gmm::GmmError>(())
/// ```
#[derive(Clone, Debug)]
pub struct EmTrainer {
    cfg: EmConfig,
}

/// Per-component sufficient statistics gathered by the E-step
/// ([`e_step`]), one K-length column per moment so the accumulation runs
/// unit-stride across components. `r_ij = w_i · p(j | x_i)` throughout.
///
/// The batch trainer treats them as E-step scratch; the incremental
/// trainer ([`crate::incremental::IncrementalEm`]) persists and decays
/// them between refits.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SuffStats {
    /// `Σ_i r_ij` — the responsibility mass of component `j`.
    pub nk: Vec<f64>,
    /// `Σ_i r_ij · x_i`.
    pub sx0: Vec<f64>,
    /// `Σ_i r_ij · y_i`.
    pub sx1: Vec<f64>,
    /// `Σ_i r_ij · x_i²`.
    pub sxx: Vec<f64>,
    /// `Σ_i r_ij · x_i y_i`.
    pub sxy: Vec<f64>,
    /// `Σ_i r_ij · y_i²`.
    pub syy: Vec<f64>,
    /// `Σ_i w_i · ln G(x_i)` — the weighted log-likelihood of the batch.
    pub loglik: f64,
}

impl SuffStats {
    pub(crate) fn zeros(k: usize) -> Self {
        SuffStats {
            nk: vec![0.0; k],
            sx0: vec![0.0; k],
            sx1: vec![0.0; k],
            sxx: vec![0.0; k],
            sxy: vec![0.0; k],
            syy: vec![0.0; k],
            loglik: 0.0,
        }
    }

    fn columns(&self) -> [&[f64]; 6] {
        [
            &self.nk, &self.sx0, &self.sx1, &self.sxx, &self.sxy, &self.syy,
        ]
    }

    fn columns_mut(&mut self) -> [&mut [f64]; 6] {
        [
            &mut self.nk,
            &mut self.sx0,
            &mut self.sx1,
            &mut self.sxx,
            &mut self.sxy,
            &mut self.syy,
        ]
    }

    pub(crate) fn merge(&mut self, other: &SuffStats) {
        for (col, add) in self.columns_mut().into_iter().zip(other.columns()) {
            for (c, a) in col.iter_mut().zip(add) {
                *c += a;
            }
        }
        self.loglik += other.loglik;
    }

    /// Exponentially decays the accumulated statistics: the incremental
    /// trainer ages out stale evidence before merging a new batch, so
    /// the effective sample window is geometric with factor `decay`.
    pub(crate) fn scale(&mut self, decay: f64) {
        for col in self.columns_mut() {
            for c in col.iter_mut() {
                *c *= decay;
            }
        }
        self.loglik *= decay;
    }
}

/// Validates sample weights at the training entry points and returns the
/// total weight (`ws` empty ⇒ one per sample).
///
/// # Errors
///
/// [`GmmError::InvalidParam`] for a weight list that is neither empty nor
/// one per sample, and for a NaN, infinite or negative weight —
/// `total <= 0.0` is false for NaN, so an unchecked one would surface
/// iterations later as a misleading singular covariance —
/// and [`GmmError::EmptyInput`] for no samples or zero total weight.
pub(crate) fn total_weight(xs: &[Vec2], ws: &[f64]) -> Result<f64, GmmError> {
    if !ws.is_empty() && ws.len() != xs.len() {
        return Err(GmmError::InvalidParam(format!(
            "{} weights for {} samples; weights must be empty or one per sample",
            ws.len(),
            xs.len()
        )));
    }
    if let Some(i) = ws.iter().position(|w| !(w.is_finite() && *w >= 0.0)) {
        return Err(GmmError::InvalidParam(format!(
            "sample weight {i} is {}; weights must be finite and >= 0",
            ws[i]
        )));
    }
    let total: f64 = if ws.is_empty() {
        xs.len() as f64
    } else {
        ws.iter().sum()
    };
    if xs.is_empty() || total <= 0.0 {
        return Err(GmmError::EmptyInput);
    }
    Ok(total)
}

/// E-step over a slice, accumulating sufficient statistics into `stats`
/// **in the scorer's slot order** ([`e_step`] un-permutes once per call).
///
/// Each sample's unit terms come from the scoring kernel
/// ([`GmmScorer::unit_terms_into`]); the responsibility-weighted moments
/// then land in the SoA columns in one branch-free unit-stride loop the
/// compiler vectorises across components. The loop stays dense on
/// purpose — skipping all-zero lane groups here measured slower than six
/// multiply-adds on zeros — and needs no select against subnormal
/// products: a unit term is exactly 0 or ≥ e⁻⁴⁴, so `r` and its moments
/// stay normal. `terms` is a per-worker scratch of length K; samples no
/// component reaches (non-finite input) are skipped.
fn accumulate(
    scorer: &GmmScorer,
    xs: &[Vec2],
    ws: &[f64],
    offset: usize,
    stats: &mut SuffStats,
    terms: &mut [f64],
) {
    let k = terms.len();
    let (nk, sx0, sx1) = (&mut stats.nk[..k], &mut stats.sx0[..k], &mut stats.sx1[..k]);
    let (sxx, sxy, syy) = (
        &mut stats.sxx[..k],
        &mut stats.sxy[..k],
        &mut stats.syy[..k],
    );
    for (i, x) in xs.iter().enumerate() {
        let w = if ws.is_empty() { 1.0 } else { ws[offset + i] };
        let (m, sum) = scorer.unit_terms_into(*x, terms);
        if !m.is_finite() {
            continue;
        }
        stats.loglik += w * (m + sum.ln());
        let scale = w / sum;
        let (x0, x1) = (x[0], x[1]);
        let (xx, xy, yy) = (x0 * x0, x0 * x1, x1 * x1);
        for j in 0..k {
            let r = terms[j] * scale;
            nk[j] += r;
            sx0[j] += r * x0;
            sx1[j] += r * x1;
            sxx[j] += r * xx;
            sxy[j] += r * xy;
            syy[j] += r * yy;
        }
    }
}

/// Moves slot-ordered statistics into component order (`order[slot]` is
/// the component at `slot`); `scratch` is the idle K-length term scratch.
fn to_component_order(stats: &mut SuffStats, order: &[usize], scratch: &mut [f64]) {
    for col in stats.columns_mut() {
        scratch.copy_from_slice(col);
        for (&component, &v) in order.iter().zip(scratch.iter()) {
            col[component] = v;
        }
    }
}

impl EmTrainer {
    /// Creates a trainer after validating the configuration.
    ///
    /// # Errors
    ///
    /// See [`EmConfig::validate`].
    pub fn new(cfg: EmConfig) -> Result<Self, GmmError> {
        cfg.validate()?;
        Ok(EmTrainer { cfg })
    }

    /// The configuration in use.
    pub fn config(&self) -> &EmConfig {
        &self.cfg
    }

    /// Fits a mixture to weighted samples (`ws` empty ⇒ uniform weights).
    ///
    /// # Errors
    ///
    /// Returns [`GmmError::EmptyInput`] for empty/zero-weight data,
    /// [`GmmError::InvalidParam`] for a non-finite or negative weight or a
    /// weight list that is neither empty nor one per sample, and
    /// propagates covariance failures (which regularization makes rare).
    pub fn fit(&self, xs: &[Vec2], ws: &[f64]) -> Result<(Gmm, EmReport), GmmError> {
        let total_w = total_weight(xs, ws)?;
        let k = self.cfg.k.min(xs.len());
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let (mut weights, mut means, mut covs) =
            init_params(xs, ws, k, self.cfg.reg_covar.max(1e-9), &mut rng);

        let mut history = Vec::with_capacity(self.cfg.max_iters);
        let mut converged = false;
        let mut iterations = 0;
        let mut prev_mll = f64::NEG_INFINITY;
        // Starved components re-seed on the data's own covariance.
        let global = crate::init::global_cov(xs, ws);

        for _ in 0..self.cfg.max_iters {
            iterations += 1;
            let scorer = GmmScorer::from_params(&weights, &means, &covs)?;
            let stats = e_step(&scorer, xs, ws, self.cfg.threads);

            m_step(
                &stats,
                xs,
                total_w,
                self.cfg.reg_covar.max(1e-9),
                global,
                &mut rng,
                &mut weights,
                &mut means,
                &mut covs,
            );

            let mll = stats.loglik / total_w;
            history.push(mll);
            if (mll - prev_mll).abs() < self.cfg.tol {
                converged = true;
                break;
            }
            prev_mll = mll;
        }

        let components: Result<Vec<Gaussian2>, GmmError> = means
            .iter()
            .zip(&covs)
            .enumerate()
            .map(|(i, (m, c))| {
                Gaussian2::new(*m, *c).map_err(|_| GmmError::SingularCovariance { component: i })
            })
            .collect();
        let gmm = Gmm::new(weights, components?)?;
        Ok((
            gmm,
            EmReport {
                iterations,
                converged,
                log_likelihood: history,
            },
        ))
    }
}

use rand::Rng;

/// M-step: recomputes `weights`/`means`/`covs` from the sufficient
/// statistics and renormalizes the weights. Starved components re-seed on
/// a random data point, drawing from `rng` in ascending component order.
///
/// Serial on purpose: an update is ~11 ns per component (3 µs at K = 256),
/// far below a thread handoff — splitting the components across workers
/// measured slower at every K from 16 to 65 536.
#[allow(clippy::too_many_arguments)]
pub(crate) fn m_step(
    stats: &SuffStats,
    xs: &[Vec2],
    total_w: f64,
    reg_covar: f64,
    global: Mat2,
    rng: &mut StdRng,
    weights: &mut [f64],
    means: &mut [Vec2],
    covs: &mut [Mat2],
) {
    for j in 0..weights.len() {
        let nk = stats.nk[j];
        if nk <= 1e-10 {
            // Re-seed a starved component on a random data point.
            means[j] = xs[rng.gen_range(0..xs.len())];
            covs[j] = global;
            weights[j] = 1.0 / total_w;
            continue;
        }
        weights[j] = nk / total_w;
        let mv = [stats.sx0[j] / nk, stats.sx1[j] / nk];
        means[j] = mv;
        let cov = Mat2::new(
            (stats.sxx[j] / nk - mv[0] * mv[0]).max(0.0) + reg_covar,
            stats.sxy[j] / nk - mv[0] * mv[1],
            (stats.syy[j] / nk - mv[1] * mv[1]).max(0.0) + reg_covar,
        );
        covs[j] = if cov.is_spd() {
            cov
        } else {
            Mat2::new(cov.xx, 0.0, cov.yy)
        };
    }
    let wsum: f64 = weights.iter().sum();
    for w in weights.iter_mut() {
        *w /= wsum;
    }
}

/// Fewest samples worth splitting across E-step workers. Re-measured on
/// the vectorised kernel (2 vCPUs, two workers vs one): at 4 096 samples
/// the split wins at every component count (1.35× / 1.18× / 1.59× at
/// K = 16 / 64 / 256), at 2 048 it is a wash (1.09× / 0.90× / 1.52×), at
/// 1 024 it loses below K = 256 (0.75× / 0.82× / 1.26×).
const PARALLEL_ESTEP_MIN: usize = 4_096;

/// One E-step: the sufficient statistics of `xs` (weights `ws`, empty ⇒
/// one per sample) under `scorer`. A batch of at least
/// `PARALLEL_ESTEP_MIN` samples is summed in two halves merged in order —
/// on two workers unless `threads` is 1 (`0` selects the available
/// parallelism) — so the sums are the same at every `threads`. Samples no
/// component reaches (non-finite input) contribute nothing. The halves
/// accumulate in the scorer's slot order; the columns returned are in
/// component order, un-permuted once here.
///
/// # Panics
///
/// Panics if `ws` is non-empty and `ws.len() != xs.len()`.
pub fn e_step(scorer: &GmmScorer, xs: &[Vec2], ws: &[f64], threads: usize) -> SuffStats {
    assert!(
        ws.is_empty() || ws.len() == xs.len(),
        "weights must be empty or match samples"
    );
    let k = scorer.k();
    let mut stats = SuffStats::zeros(k);
    let mut terms = vec![0.0f64; k];
    let len = xs.len();
    let mid = if len < PARALLEL_ESTEP_MIN {
        len
    } else {
        len.div_ceil(2)
    };
    let part = |lo: usize, hi: usize, terms: &mut [f64]| {
        let mut sums = SuffStats::zeros(k);
        accumulate(scorer, &xs[lo..hi], ws, lo, &mut sums, terms);
        sums
    };
    let serial = mid == len
        || match threads {
            0 => !thread::available_parallelism().is_ok_and(|n| n.get() > 1),
            t => t == 1,
        };
    if serial {
        // An accumulator starts at +0.0 and never becomes -0.0, so the
        // first half summed straight into `stats` has the bits of
        // `zeros + half`.
        accumulate(scorer, &xs[..mid], ws, 0, &mut stats, &mut terms);
        if mid < len {
            stats.merge(&part(mid, len, &mut terms));
        }
    } else {
        // Each worker sums into statistics it allocated itself: summing
        // one half into this thread's `stats` read ≈ 1.4× slower (16 000
        // points, K = 256: 11.8–16.8 against 8.4–12.5 ms).
        // (`crossbeam` stays in this crate's manifest, unused, until the
        // benchmark PR prunes it with the lockfile — ROADMAP item 2d.)
        let halves = thread::scope(|scope| {
            let run = |lo, hi| scope.spawn(move || part(lo, hi, &mut vec![0.0f64; k]));
            [run(0, mid), run(mid, len)].map(|h| h.join().expect("E-step worker panicked"))
        });
        for half in &halves {
            stats.merge(half);
        }
    }
    to_component_order(&mut stats, scorer.slot_components(), &mut terms);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn synth_mixture(n: usize, seed: u64) -> Vec<Vec2> {
        // Ground truth: 2 well-separated Gaussians, weights 0.75/0.25.
        let g = Gmm::new(
            vec![0.75, 0.25],
            vec![
                Gaussian2::new([-4.0, 0.0], Mat2::new(0.5, 0.1, 0.3)).unwrap(),
                Gaussian2::new([4.0, 2.0], Mat2::new(0.4, -0.05, 0.6)).unwrap(),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| g.sample(&mut rng)).collect()
    }

    #[test]
    fn config_validation() {
        assert!(EmConfig::default().validate().is_ok());
        assert!(EmConfig {
            k: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EmConfig {
            max_iters: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EmConfig {
            tol: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EmConfig {
            reg_covar: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EmTrainer::new(EmConfig {
            k: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn recovers_two_component_mixture() {
        let xs = synth_mixture(4_000, 7);
        let trainer = EmTrainer::new(EmConfig {
            k: 2,
            max_iters: 100,
            tol: 1e-7,
            ..Default::default()
        })
        .unwrap();
        let (gmm, report) = trainer.fit(&xs, &[]).unwrap();
        assert!(report.converged, "EM did not converge");
        // Recover weights within 3%.
        let mut w: Vec<f64> = gmm.weights().to_vec();
        w.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((w[0] - 0.25).abs() < 0.03, "weights {w:?}");
        // Means near ±4.
        let found_left = gmm
            .components()
            .iter()
            .any(|c| (c.mean()[0] + 4.0).abs() < 0.3);
        let found_right = gmm
            .components()
            .iter()
            .any(|c| (c.mean()[0] - 4.0).abs() < 0.3);
        assert!(found_left && found_right);
    }

    #[test]
    fn log_likelihood_is_monotone_nondecreasing() {
        let xs = synth_mixture(2_000, 8);
        let trainer = EmTrainer::new(EmConfig {
            k: 4,
            max_iters: 30,
            tol: 1e-12, // force full run
            ..Default::default()
        })
        .unwrap();
        let (_, report) = trainer.fit(&xs, &[]).unwrap();
        for pair in report.log_likelihood.windows(2) {
            assert!(
                pair[1] >= pair[0] - 1e-6,
                "log-likelihood decreased: {} -> {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn weighted_fit_equals_expanded_fit() {
        // Duplicate-count weights must match an expanded multiset.
        let base: Vec<Vec2> = vec![[0.0, 0.0], [1.0, 1.0], [8.0, 8.0]];
        let ws = [3.0, 1.0, 2.0];
        let mut expanded = Vec::new();
        for (x, &w) in base.iter().zip(&ws) {
            for _ in 0..w as usize {
                expanded.push(*x);
            }
        }
        let cfg = EmConfig {
            k: 2,
            max_iters: 50,
            seed: 3,
            ..Default::default()
        };
        let (g1, _) = EmTrainer::new(cfg).unwrap().fit(&base, &ws).unwrap();
        let (g2, _) = EmTrainer::new(cfg).unwrap().fit(&expanded, &[]).unwrap();
        // Same mean log-likelihood on the expanded set (models equivalent).
        let l1 = g1.mean_log_likelihood(&expanded, &[]);
        let l2 = g2.mean_log_likelihood(&expanded, &[]);
        assert!((l1 - l2).abs() < 0.05, "l1={l1} l2={l2}");
    }

    #[test]
    fn empty_input_is_an_error() {
        let trainer = EmTrainer::new(EmConfig::default()).unwrap();
        assert_eq!(trainer.fit(&[], &[]).unwrap_err(), GmmError::EmptyInput);
        let xs = [[1.0, 1.0]];
        assert_eq!(trainer.fit(&xs, &[0.0]).unwrap_err(), GmmError::EmptyInput);
    }

    #[test]
    fn hostile_weights_are_rejected_up_front() {
        // `total <= 0.0` is false for NaN: these used to train and fail
        // later, if at all, as a singular covariance.
        let trainer = EmTrainer::new(EmConfig {
            k: 2,
            ..Default::default()
        })
        .unwrap();
        let xs = [[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]];
        for bad in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            let err = trainer.fit(&xs, &[1.0, bad, 2.0]).unwrap_err();
            assert!(
                matches!(&err, GmmError::InvalidParam(msg) if msg.contains("weight 1")),
                "weight {bad}: {err:?}"
            );
        }
        assert!(trainer.fit(&xs, &[1.0, 0.0, 2.0]).is_ok());
    }

    #[test]
    fn k_is_clamped_to_sample_count() {
        let xs = vec![[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]];
        let trainer = EmTrainer::new(EmConfig {
            k: 64,
            max_iters: 5,
            ..Default::default()
        })
        .unwrap();
        let (gmm, _) = trainer.fit(&xs, &[]).unwrap();
        assert!(gmm.k() <= 3);
    }

    #[test]
    fn parallel_and_serial_estep_agree() {
        let xs = synth_mixture(6_000, 9);
        let mk = |threads| {
            EmTrainer::new(EmConfig {
                k: 3,
                max_iters: 8,
                tol: 1e-12,
                threads,
                seed: 42,
                ..Default::default()
            })
            .unwrap()
            .fit(&xs, &[])
            .unwrap()
        };
        let (_, r1) = mk(1);
        let (_, r4) = mk(4);
        for (a, b) in r1.log_likelihood.iter().zip(&r4.log_likelihood) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn fit_is_bit_identical_at_every_thread_count() {
        // Above `PARALLEL_ESTEP_MIN`, so every E-step is split in two.
        let xs = synth_mixture(6_001, 10);
        let ws: Vec<f64> = (0..xs.len()).map(|i| 1.0 + (i % 3) as f64).collect();
        let fit = |threads| {
            let cfg = EmConfig {
                k: 8,
                max_iters: 12,
                threads,
                ..Default::default()
            };
            let (gmm, report) = EmTrainer::new(cfg).unwrap().fit(&xs, &ws).unwrap();
            let mut bits: Vec<u64> = gmm.weights().iter().map(|w| w.to_bits()).collect();
            for c in gmm.components() {
                let (m, s) = (c.mean(), c.cov());
                bits.extend([m[0], m[1], s.xx, s.xy, s.yy].map(f64::to_bits));
            }
            let mll: Vec<u64> = report.log_likelihood.iter().map(|l| l.to_bits()).collect();
            (bits, mll, report)
        };
        let one = fit(1);
        for threads in [0, 2, 3] {
            assert_eq!(fit(threads), one, "threads = {threads}");
        }
    }

    #[test]
    fn degenerate_duplicate_data_survives() {
        let xs = vec![[5.0, 5.0]; 100];
        let trainer = EmTrainer::new(EmConfig {
            k: 3,
            max_iters: 10,
            ..Default::default()
        })
        .unwrap();
        let (gmm, _) = trainer.fit(&xs, &[]).unwrap();
        assert!(gmm.density([5.0, 5.0]).is_finite());
        assert!(gmm.density([5.0, 5.0]) > gmm.density([100.0, 100.0]));
    }
}
