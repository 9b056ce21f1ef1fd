//! The static-vs-adaptive experiment axis.

use crate::config::PolicyMode;
use crate::error::IcgmmError;
use crate::system::{Icgmm, RunReport};
use serde::{Deserialize, Serialize};

/// One static-vs-adaptive measurement: the same trace, the same offline
/// model, replayed once with the scorer frozen at generation 0 and once
/// with the online refit loop armed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdaptComparison {
    /// The static-scorer arm.
    pub static_run: RunReport,
    /// The adaptive arm ([`crate::IcgmmConfig::adapt`] armed).
    pub adaptive_run: RunReport,
}

impl AdaptComparison {
    /// Miss-rate improvement of the adaptive arm, in percentage points
    /// (positive = adaptation won).
    pub fn miss_improvement_pts(&self) -> f64 {
        self.static_run.miss_rate_pct() - self.adaptive_run.miss_rate_pct()
    }
}

/// The static-vs-adaptive experiment axis: fit **once** on the first
/// `train_prefix` records (the whole trace when 0), install the same
/// offline model in both arms, then replay the full trace with the scorer
/// frozen (adapt plan emptied) and with `config.adapt` armed. Training on
/// a prefix is the drift scenario — later workload phases are unseen at
/// fit time, so the static model goes stale and the refit loop has
/// something to repair.
///
/// # Errors
///
/// [`IcgmmError::Config`] when `config.adapt` is empty (there would be no
/// adaptive arm) and the usual training/replay errors.
pub fn run_static_vs_adaptive(
    trace: &icgmm_trace::Trace,
    config: crate::IcgmmConfig,
    mode: PolicyMode,
    train_prefix: usize,
) -> Result<AdaptComparison, IcgmmError> {
    if config.adapt.is_empty() {
        return Err(IcgmmError::Config(
            "static-vs-adaptive needs an armed adapt plan".into(),
        ));
    }
    let static_config = crate::IcgmmConfig {
        adapt: icgmm_cache::AdaptPlan::empty(),
        ..config
    };
    let prefix = (train_prefix > 0 && train_prefix < trace.len())
        .then(|| icgmm_trace::Trace::from_records(trace.records()[..train_prefix].to_vec()));
    let mut static_sys = Icgmm::new(static_config)?;
    static_sys.fit(prefix.as_ref().unwrap_or(trace))?;
    let mut adaptive_sys = Icgmm::new(config)?;
    adaptive_sys.set_model(static_sys.model().expect("just fitted").clone());
    Ok(AdaptComparison {
        static_run: static_sys.run(trace, mode)?,
        adaptive_run: adaptive_sys.run(trace, mode)?,
    })
}
