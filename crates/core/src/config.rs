//! End-to-end system configuration and the four policy modes of Fig. 6.

use crate::error::IcgmmError;
use icgmm_cache::{AdaptPlan, CacheConfig, FaultPlan, LatencyModel};
use icgmm_gmm::EmConfig;
use icgmm_trace::PreprocessConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which cache policy drives the run.
///
/// `Lru` and `Belady` are score-free; the three `Gmm*` modes are the
/// paper's smart caching/eviction strategies (Fig. 6 compares `Lru` against
/// all three).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyMode {
    /// Classic LRU (the paper's baseline).
    Lru,
    /// Belady's offline-optimal eviction (upper bound, not in the paper).
    Belady,
    /// GMM admission filter + LRU eviction ("GMM caching-only").
    GmmCachingOnly,
    /// Always-admit + GMM-score eviction ("GMM eviction-only").
    GmmEvictionOnly,
    /// GMM admission + GMM eviction ("GMM caching-eviction").
    GmmCachingEviction,
}

impl PolicyMode {
    /// The four bars of the paper's Fig. 6, in order.
    pub fn fig6_modes() -> [PolicyMode; 4] {
        [
            PolicyMode::Lru,
            PolicyMode::GmmCachingOnly,
            PolicyMode::GmmEvictionOnly,
            PolicyMode::GmmCachingEviction,
        ]
    }

    /// `true` when the mode needs a trained policy engine.
    pub fn uses_gmm(self) -> bool {
        matches!(
            self,
            PolicyMode::GmmCachingOnly
                | PolicyMode::GmmEvictionOnly
                | PolicyMode::GmmCachingEviction
        )
    }
}

impl fmt::Display for PolicyMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PolicyMode::Lru => "lru",
            PolicyMode::Belady => "belady",
            PolicyMode::GmmCachingOnly => "gmm-caching",
            PolicyMode::GmmEvictionOnly => "gmm-eviction",
            PolicyMode::GmmCachingEviction => "gmm-both",
        };
        f.write_str(s)
    }
}

/// Full system configuration. Defaults reproduce the paper's deployment:
/// 64 MiB / 4 KiB / 8-way cache, K = 256, `len_window` 32,
/// `len_access_shot` 10 000, TLC SSD latencies, admission quantile 0.05
/// (per-benchmark calibrated values live in [`crate::benchmarks`]).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct IcgmmConfig {
    /// DRAM-cache geometry.
    pub cache: CacheConfig,
    /// Trace preprocessing (trim + Algorithm 1).
    pub preprocess: PreprocessConfig,
    /// EM training settings.
    pub em: EmConfig,
    /// The admission threshold is this weighted quantile of the training
    /// cells' scores ([`crate::Icgmm::calibrate`]), in `[0, 1)`; `0` admits all.
    pub admission_quantile: f64,
    /// Latency constants for the analytic model.
    pub latency: LatencyModel,
    /// Training cells are subsampled to at most this many (keeps K = 256
    /// EM laptop-fast; weighted subsampling preserves the distribution).
    pub max_train_cells: usize,
    /// Evaluate policy decisions on the fixed-point (FPGA) datapath
    /// instead of f64 (slower but bit-faithful to the hardware).
    pub fixed_point_inference: bool,
    /// Writes are admitted regardless of score (see the cache crate's
    /// `ThresholdAdmit` docs for the rationale).
    pub admit_writes_always: bool,
    /// Shard count of [`crate::Icgmm::run_sharded`]: the set-associative
    /// cache is partitioned by set index into this many independent shards
    /// replayed on scoped threads (each with its own policy state and
    /// scorer clone on the global Algorithm 1 clock). Results are bit-identical to the single-threaded
    /// [`crate::Icgmm::run`] at any value — sharding is pure host-side
    /// parallelism. `1` (the default) replays single-threaded.
    pub sim_shards: usize,
    /// Client (submitter) thread count of [`crate::Icgmm::serve`]: how
    /// many threads feed the serving front-end's per-shard ingestion
    /// queues. Clients beyond `sim_shards` would own no shard and are
    /// capped away at serve time. Results are bit-identical at any value —
    /// concurrency is pure timing.
    pub serve_clients: usize,
    /// Bound of every serving ingestion and outcome queue
    /// ([`crate::Icgmm::serve`]). Small depths exercise backpressure
    /// (submission blocks, the wait lands in the admission-latency
    /// percentiles); large depths amortize hand-off cost. Results are
    /// bit-identical at any value.
    pub serve_queue_depth: usize,
    /// Deterministic fault-injection plan spanning the whole replay stack —
    /// `run`, `run_sharded`, `serve` and `run_dataflow` alike, with the
    /// same report at every shard count: scorer faults (non-finite scores,
    /// engine outages), device faults (SSD failures, retries, tail-latency
    /// spikes, charged to each faulted miss's modeled time) and
    /// shard-worker panics. The empty default arms nothing and leaves every
    /// run bit-identical to a fault-free build.
    pub fault: FaultPlan,
    /// Online-adaptation plan: per-shard reservoir sampling of the replay
    /// stream, a drift detector over windowed mean log-likelihood, and
    /// incremental EM refits published by an atomic scorer swap. The
    /// empty default (`check_interval == 0`) arms nothing — disabled runs
    /// are bit-identical to a build without the adaptation code — and an
    /// armed plan keeps every run deterministic from
    /// `(trace seed, adapt.seed)` at any shard count.
    pub adapt: AdaptPlan,
}

impl Default for IcgmmConfig {
    fn default() -> Self {
        IcgmmConfig {
            cache: CacheConfig::paper_default(),
            preprocess: PreprocessConfig::default(),
            em: EmConfig::default(),
            // Conservative: under heavy access skew a few percent of
            // request mass already covers every page beyond cache reach,
            // and over-filtering multiplies misses on pages with genuine
            // reuse.
            admission_quantile: 0.05,
            latency: LatencyModel::paper_tlc(),
            max_train_cells: 120_000,
            fixed_point_inference: false,
            admit_writes_always: true,
            sim_shards: 1,
            serve_clients: 1,
            serve_queue_depth: 256,
            fault: FaultPlan::empty(),
            adapt: AdaptPlan::empty(),
        }
    }
}

impl IcgmmConfig {
    /// Validates all nested configuration.
    ///
    /// # Errors
    ///
    /// Returns [`IcgmmError::Config`] describing the first problem found.
    pub fn validate(&self) -> Result<(), IcgmmError> {
        self.cache
            .validate()
            .map_err(|e| IcgmmError::Config(e.to_string()))?;
        self.preprocess.validate().map_err(IcgmmError::Config)?;
        self.em
            .validate()
            .map_err(|e| IcgmmError::Config(e.to_string()))?;
        if self.max_train_cells == 0 {
            return Err(IcgmmError::Config("max_train_cells must be >= 1".into()));
        }
        if !(0.0..1.0).contains(&self.admission_quantile) {
            return Err(IcgmmError::Config(
                "admission_quantile must be in [0, 1)".into(),
            ));
        }
        if self.sim_shards == 0 {
            // More shards than sets is legal (the excess shards idle), so
            // only zero is rejected here.
            return Err(IcgmmError::Config("sim_shards must be >= 1".into()));
        }
        if self.serve_clients == 0 {
            return Err(IcgmmError::Config("serve_clients must be >= 1".into()));
        }
        if self.serve_queue_depth == 0 {
            return Err(IcgmmError::Config("serve_queue_depth must be >= 1".into()));
        }
        self.latency.validate().map_err(IcgmmError::Config)?;
        self.fault.validate().map_err(IcgmmError::Config)?;
        self.adapt.validate().map_err(IcgmmError::Config)?;
        if !self.adapt.is_empty() {
            if self.fixed_point_inference {
                // Refits retrain the f64 mixture; the quantized FPGA tables
                // are frozen at fit time and cannot follow a swap.
                return Err(IcgmmError::Config(
                    "online adaptation requires the f64 datapath \
                     (disable fixed_point_inference)"
                        .into(),
                ));
            }
            if self.em.reg_covar <= 0.0 {
                // The incremental trainer refuses reg_covar == 0 (a single
                // E/M pass over a small reservoir degenerates without it).
                return Err(IcgmmError::Config(
                    "online adaptation requires em.reg_covar > 0".into(),
                ));
            }
        }
        Ok(())
    }

    /// Benchmark façade — imported by `icgmm_bench`; deleted by the
    /// benchmark PR that retires the `cache.batch.*` probes. There is no
    /// batcher left to parameterise.
    #[doc(hidden)]
    pub fn spec_params(&self) -> icgmm_cache::SpecParams {
        icgmm_cache::SpecParams {}
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_paper_shaped() {
        let c = IcgmmConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.cache.num_sets(), 2048);
        assert_eq!(c.em.k, 256);
        assert_eq!(c.preprocess.len_window, 32);
        assert_eq!(c.latency.ssd_read_us, 75.0);
    }

    #[test]
    fn validation_flags_each_field() {
        let mut c = IcgmmConfig {
            max_train_cells: 0,
            ..Default::default()
        };
        assert!(matches!(c.validate(), Err(IcgmmError::Config(_))));
        c = IcgmmConfig::default();
        c.admission_quantile = 1.5;
        assert!(c.validate().is_err());
        c = IcgmmConfig::default();
        c.em.k = 0;
        assert!(c.validate().is_err());
        c = IcgmmConfig::default();
        c.cache.ways = 0;
        assert!(c.validate().is_err());
        c = IcgmmConfig::default();
        c.sim_shards = 0;
        assert!(c.validate().is_err());
        c = IcgmmConfig::default();
        c.serve_clients = 0;
        assert!(c.validate().is_err());
        c = IcgmmConfig::default();
        c.serve_queue_depth = 0;
        assert!(c.validate().is_err());
        c = IcgmmConfig::default();
        c.fault.scorer_nan_per_mille = 1001;
        assert!(c.validate().is_err());
        c = IcgmmConfig::default();
        c.fault.scorer_outage_len = u32::MAX;
        assert!(c.validate().is_err());
        // Every SSD command would walk ~4·10⁹ attempts: refused, by name.
        c = IcgmmConfig::default();
        c.fault.device_fail_per_mille = 1000;
        c.fault.device_retry_limit = u32::MAX;
        let err = crate::Icgmm::new(c).unwrap_err().to_string();
        assert!(err.contains("fault.device_retry_limit"), "{err}");
        c = IcgmmConfig::default();
        c.latency.ssd_write_us = f64::NAN;
        assert!(c.validate().is_err());
        // Device time is counted in attoseconds: a latency or fault
        // constant must fit `u64` of them, refused by name through `new`.
        let max = largest_admitted_us();
        for huge in [1e300, f64::MAX, max.next_up()] {
            c = IcgmmConfig::default();
            c.latency.ssd_read_us = huge;
            let err = crate::Icgmm::new(c).unwrap_err();
            assert!(matches!(&err, IcgmmError::Config(m) if m.contains("latency.ssd_read_us")));
            c = IcgmmConfig::default();
            c.fault.device_timeout_us = huge;
            let err = crate::Icgmm::new(c).unwrap_err();
            assert!(matches!(&err, IcgmmError::Config(m) if m.contains("fault.device_timeout_us")));
        }
        c = IcgmmConfig::default();
        (c.latency.ssd_write_us, c.fault.device_backoff_us) = (max, max);
        assert!(crate::Icgmm::new(c).is_ok());
    }

    /// The largest µs constant whose attoseconds fit `u64`.
    pub(crate) fn largest_admitted_us() -> f64 {
        let mut us = 2f64.powi(64) / 1e12;
        while icgmm_cache::attos(us) >= 1 << 64 {
            us = us.next_down();
        }
        us
    }

    #[test]
    fn serve_defaults_are_single_client_deep_queue() {
        let c = IcgmmConfig::default();
        assert_eq!(c.serve_clients, 1);
        assert_eq!(c.serve_queue_depth, 256);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn chaos_fault_plans_validate_and_defaults_are_empty() {
        let c = IcgmmConfig::default();
        assert!(c.fault.is_empty());
        let chaotic = IcgmmConfig {
            fault: FaultPlan::chaos(42),
            ..Default::default()
        };
        assert!(chaotic.validate().is_ok());
    }

    #[test]
    fn adapt_plans_validate_and_defaults_are_empty() {
        let c = IcgmmConfig::default();
        assert!(c.adapt.is_empty());
        let adaptive = IcgmmConfig {
            adapt: AdaptPlan::drifty(42),
            ..Default::default()
        };
        assert!(adaptive.validate().is_ok());
        // The refit loop retrains the f64 mixture only.
        let fixed = IcgmmConfig {
            adapt: AdaptPlan::drifty(42),
            fixed_point_inference: true,
            ..Default::default()
        };
        assert!(matches!(fixed.validate(), Err(IcgmmError::Config(_))));
        // Incremental refits need a strictly positive covariance floor.
        let mut degenerate = IcgmmConfig {
            adapt: AdaptPlan::drifty(42),
            ..Default::default()
        };
        degenerate.em.reg_covar = 0.0;
        assert!(degenerate.validate().is_err());
        // The same reg_covar is fine while adaptation stays off.
        degenerate.adapt = AdaptPlan::empty();
        assert!(degenerate.validate().is_ok());
    }

    #[test]
    fn shard_counts_above_the_set_count_are_valid() {
        // Excess shards simply idle; only zero is rejected.
        let c = IcgmmConfig {
            sim_shards: 100_000,
            ..Default::default()
        };
        assert!(c.validate().is_ok());
        assert_eq!(IcgmmConfig::default().sim_shards, 1);
    }

    #[test]
    fn fig6_modes_are_the_paper_four() {
        let m = PolicyMode::fig6_modes();
        assert_eq!(m[0], PolicyMode::Lru);
        assert!(!m[0].uses_gmm());
        assert!(m[1].uses_gmm() && m[2].uses_gmm() && m[3].uses_gmm());
        assert_eq!(m[3].to_string(), "gmm-both");
    }
}
