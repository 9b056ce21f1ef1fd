//! # icgmm-gmm
//!
//! Two-dimensional Gaussian Mixture Model for the ICGMM reproduction
//! (DAC 2024): the paper's cache policy engine models the joint
//! distribution of `(page index, transformed timestamp)` with a `K`-component
//! mixture (Eq. 1–3), trained offline with Expectation-Maximization (§3.3),
//! and uses the mixture density as an access-frequency score for cache
//! admission and eviction decisions.
//!
//! * [`Gaussian2`]/[`Mat2`] — exact 2-D Gaussian components;
//! * [`Gmm`] — the mixture: density/score, responsibilities, sampling;
//! * [`GmmScorer`] — the allocation-free structure-of-arrays scoring
//!   kernel behind every hot path (single points, batches, the E-step);
//! * [`EmTrainer`]/[`EmConfig`] — weighted EM with k-means++ init and a
//!   scoped-thread-parallel E-step ([`e_step`] → [`SuffStats`]) that runs on
//!   the scoring kernel itself, vectorised across components;
//! * [`IncrementalEm`] — online refits over decayed sufficient
//!   statistics: one E/M pass per refit instead of a cold `fit`;
//! * [`StandardScaler`] — the affine feature map stored with the model;
//! * [`calibrate_threshold`] — quantile-based admission threshold;
//! * [`fixed`] — the fixed-point (FPGA-style) inference datapath.
//!
//! ## Example
//!
//! ```
//! use icgmm_gmm::{EmConfig, EmTrainer, StandardScaler};
//!
//! // Two clusters of (page, time) cells.
//! let mut cells = vec![];
//! for i in 0..50 {
//!     cells.push([1000.0 + i as f64, 10.0]);
//!     cells.push([9000.0 + i as f64, 90.0]);
//! }
//! let scaler = StandardScaler::fit(&cells, &[]);
//! scaler.transform_all(&mut cells);
//!
//! let trainer = EmTrainer::new(EmConfig { k: 2, ..Default::default() })?;
//! let (gmm, report) = trainer.fit(&cells, &[])?;
//! assert!(report.iterations >= 1);
//! // In-distribution cells score higher than out-of-distribution ones.
//! let hot = gmm.score(scaler.transform([1025.0, 10.0]));
//! let cold = gmm.score(scaler.transform([5000.0, 50.0]));
//! assert!(hot > cold);
//! # Ok::<(), icgmm_gmm::GmmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod em;
mod error;
mod gaussian;
mod incremental;
mod init;
mod model;
mod scaler;
mod threshold;

pub mod fixed;
pub mod scorer;

pub use em::{e_step, EmConfig, EmReport, EmTrainer, SuffStats};
pub use error::GmmError;
pub use gaussian::{Gaussian2, Mat2, Vec2};
pub use incremental::IncrementalEm;
pub use model::Gmm;
pub use scaler::StandardScaler;
pub use scorer::{GmmScorer, TimeSlice};
pub use threshold::{calibrate_threshold, weighted_quantile};

use rand::Rng;
use std::sync::OnceLock;

/// The host's core count, read once per process: the query parses cgroup
/// files and allocates on every call (≈ 13 µs and ≈ 0.5 KiB).
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Standard-normal draw shared by sampling helpers (Box–Muller).
pub(crate) fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}
