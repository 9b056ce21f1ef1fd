//! Experiment runner: one benchmark × policy modes, and the
//! static-vs-adaptive axis.

use crate::benchmarks::BenchmarkSpec;
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

/// Runs one benchmark through the given modes under `config`
/// (`spec.config()` is its default; cache-size sweeps, reduced-K quick
/// runs and fixed-point ablations pass their own), generating and fitting
/// once, then simulating each mode.
///
/// # Errors
///
/// Propagates configuration/training errors.
pub fn run_benchmark_with(
    spec: &BenchmarkSpec,
    config: crate::IcgmmConfig,
    modes: &[PolicyMode],
) -> Result<Vec<ExperimentResult>, IcgmmError> {
    let workload = spec.workload();
    let trace = workload.generate(spec.requests, spec.seed);
    let mut sys = Icgmm::new(config)?;
    if modes.iter().any(|m| m.uses_gmm()) {
        sys.fit(&trace)?;
    }
    let mut out = Vec::with_capacity(modes.len());
    for &mode in modes {
        let run = sys.run(&trace, mode)?;
        out.push(ExperimentResult::from_run(workload.name(), &run));
    }
    Ok(out)
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

/// Extracts the result for `(benchmark, mode)` from a result set.
pub fn find<'a>(
    results: &'a [ExperimentResult],
    benchmark: &str,
    mode: PolicyMode,
) -> Option<&'a ExperimentResult> {
    results
        .iter()
        .find(|r| r.benchmark == benchmark && r.mode == mode)
}

/// The best (lowest-miss) GMM mode result for a benchmark, mirroring the
/// paper's Fig. 6 "pick the best strategy" presentation.
pub fn best_gmm<'a>(
    results: &'a [ExperimentResult],
    benchmark: &str,
) -> Option<&'a ExperimentResult> {
    results
        .iter()
        .filter(|r| r.benchmark == benchmark && r.mode.uses_gmm())
        .min_by(|a, b| a.miss_pct.partial_cmp(&b.miss_pct).expect("finite rates"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use icgmm_trace::synth::WorkloadKind;

    fn tiny_spec(kind: WorkloadKind) -> BenchmarkSpec {
        BenchmarkSpec {
            kind,
            requests: 20_000,
            seed: 5,
            admission_quantile: 0.2,
        }
    }

    /// Small EM settings so tests stay fast in debug builds.
    fn tiny_config() -> crate::IcgmmConfig {
        crate::IcgmmConfig {
            em: icgmm_gmm::EmConfig {
                k: 8,
                max_iters: 10,
                ..Default::default()
            },
            max_train_cells: 5_000,
            ..Default::default()
        }
    }

    #[test]
    fn run_benchmark_produces_one_row_per_mode() {
        // Score-free modes skip training entirely — fast at any K.
        let mut spec = tiny_spec(WorkloadKind::Memtier);
        spec.requests = 10_000;
        let modes = [PolicyMode::Lru, PolicyMode::Fifo];
        let results = run_benchmark_with(&spec, spec.config(), &modes).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.benchmark == "memtier"));
        assert!(results.iter().all(|r| r.requests > 0));
    }

    #[test]
    fn find_and_best_gmm_helpers() {
        let results = vec![
            ExperimentResult {
                benchmark: "x".into(),
                mode: PolicyMode::Lru,
                miss_pct: 5.0,
                avg_us: 4.0,
                bypasses: 0,
                dirty_evictions: 0,
                requests: 100,
                fault: icgmm_cache::FaultStats::default(),
                adapt: icgmm_cache::AdaptStats::default(),
            },
            ExperimentResult {
                benchmark: "x".into(),
                mode: PolicyMode::GmmCachingOnly,
                miss_pct: 4.0,
                avg_us: 3.5,
                bypasses: 5,
                dirty_evictions: 0,
                requests: 100,
                fault: icgmm_cache::FaultStats::default(),
                adapt: icgmm_cache::AdaptStats::default(),
            },
            ExperimentResult {
                benchmark: "x".into(),
                mode: PolicyMode::GmmCachingEviction,
                miss_pct: 3.0,
                avg_us: 3.0,
                bypasses: 9,
                dirty_evictions: 0,
                requests: 100,
                fault: icgmm_cache::FaultStats::default(),
                adapt: icgmm_cache::AdaptStats::default(),
            },
        ];
        assert_eq!(find(&results, "x", PolicyMode::Lru).unwrap().miss_pct, 5.0);
        assert!(find(&results, "y", PolicyMode::Lru).is_none());
        assert_eq!(
            best_gmm(&results, "x").unwrap().mode,
            PolicyMode::GmmCachingEviction
        );
    }

    #[test]
    fn gmm_modes_in_suite_trigger_training() {
        let mut spec = tiny_spec(WorkloadKind::Memtier);
        spec.requests = 10_000;
        let results = run_benchmark_with(
            &spec,
            tiny_config(),
            &[PolicyMode::Lru, PolicyMode::GmmEvictionOnly],
        )
        .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].mode, PolicyMode::GmmEvictionOnly);
    }
}
