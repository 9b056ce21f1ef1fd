//! The static-vs-adaptive experiment axis.

use crate::config::PolicyMode;
use crate::error::IcgmmError;
use crate::system::{Icgmm, RunReport};
use serde::{Deserialize, Serialize};

/// One `(benchmark, mode)` measurement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Policy mode.
    pub mode: PolicyMode,
    /// Miss rate, %.
    pub miss_pct: f64,
    /// Average access latency, µs.
    pub avg_us: f64,
    /// Bypassed misses.
    pub bypasses: u64,
    /// Dirty evictions (each costs a 900 µs write-back on TLC).
    pub dirty_evictions: u64,
    /// Total evaluated requests.
    pub requests: u64,
    /// Fault-injection and degradation counters (all-zero without an
    /// armed [`crate::IcgmmConfig::fault`] plan).
    pub fault: icgmm_cache::FaultStats,
    /// Online-adaptation counters (all-zero without an armed
    /// [`crate::IcgmmConfig::adapt`] plan).
    pub adapt: icgmm_cache::AdaptStats,
}

impl ExperimentResult {
    fn from_run(benchmark: &str, run: &RunReport) -> Self {
        ExperimentResult {
            benchmark: benchmark.to_string(),
            mode: run.mode,
            miss_pct: run.miss_rate_pct(),
            avg_us: run.avg_us(),
            bypasses: run.sim.stats.bypasses(),
            dirty_evictions: run.sim.stats.dirty_evictions,
            requests: run.sim.stats.accesses(),
            fault: run.sim.fault,
            adapt: run.sim.adapt,
        }
    }
}

/// One static-vs-adaptive measurement: the same trace, the same offline
/// model, replayed once with the scorer frozen at generation 0 and once
/// with the online refit loop armed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdaptComparison {
    /// The static-scorer arm.
    pub static_run: ExperimentResult,
    /// The adaptive arm ([`crate::IcgmmConfig::adapt`] armed).
    pub adaptive_run: ExperimentResult,
}

impl AdaptComparison {
    /// Miss-rate improvement of the adaptive arm, in percentage points
    /// (positive = adaptation won).
    pub fn miss_improvement_pts(&self) -> f64 {
        self.static_run.miss_pct - self.adaptive_run.miss_pct
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
    name: &str,
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
    let mut trainer_sys = Icgmm::new(static_config)?;
    let model = if train_prefix > 0 && train_prefix < trace.len() {
        let prefix = icgmm_trace::Trace::from_records(trace.records()[..train_prefix].to_vec());
        trainer_sys.fit(&prefix)?;
        trainer_sys.model().expect("just fitted").clone()
    } else {
        trainer_sys.fit(trace)?;
        trainer_sys.model().expect("just fitted").clone()
    };

    let mut static_sys = Icgmm::new(static_config)?;
    static_sys.set_model(model.clone());
    let static_run = static_sys.run(trace, mode)?;

    let mut adaptive_sys = Icgmm::new(config)?;
    adaptive_sys.set_model(model);
    let adaptive_run = adaptive_sys.run(trace, mode)?;

    Ok(AdaptComparison {
        static_run: ExperimentResult::from_run(name, &static_run),
        adaptive_run: ExperimentResult::from_run(name, &adaptive_run),
    })
}
