//! The seven calibrated benchmark presets of the paper's evaluation
//! (§5.1), with the published Fig. 6 / Table 1 reference numbers for
//! side-by-side reporting.

use crate::config::IcgmmConfig;
use icgmm_trace::synth::{Workload, WorkloadKind};
use serde::{Deserialize, Serialize};

/// One benchmark of the paper's suite: workload kind, request budget, seed
/// and the per-benchmark admission quantile.
///
/// The paper does not publish its threshold; the quantile here is the
/// reproduction's per-benchmark calibration knob (swept on `stream` by the
/// `fidelity` bin, which records it in `FIDELITY.json`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkSpec {
    /// Which workload model.
    pub kind: WorkloadKind,
    /// Requests to generate.
    pub requests: usize,
    /// Generator seed.
    pub seed: u64,
    /// Admission-threshold quantile for the GMM caching modes.
    pub admission_quantile: f64,
}

impl BenchmarkSpec {
    /// The paper's seven benchmarks at full scale (~1.2 M requests each;
    /// trimming leaves ~840 k evaluated requests).
    pub fn paper_suite() -> Vec<BenchmarkSpec> {
        Self::suite_with_requests(1_200_000)
    }

    /// A reduced suite for quick runs and CI (~200 k requests).
    pub fn quick_suite() -> Vec<BenchmarkSpec> {
        Self::suite_with_requests(200_000)
    }

    /// The suite at an arbitrary request budget.
    pub fn suite_with_requests(requests: usize) -> Vec<BenchmarkSpec> {
        WorkloadKind::all()
            .into_iter()
            .map(|kind| BenchmarkSpec {
                kind,
                requests,
                seed: 0x1C6_0D00 ^ kind_seed(kind),
                admission_quantile: default_quantile(kind),
            })
            .collect()
    }

    /// Builds the workload generator.
    pub fn workload(&self) -> Box<dyn Workload + Send + Sync> {
        self.kind.default_workload()
    }

    /// System configuration for this benchmark (paper defaults plus the
    /// per-benchmark quantile).
    pub fn config(&self) -> IcgmmConfig {
        IcgmmConfig {
            admission_quantile: self.admission_quantile,
            ..IcgmmConfig::default()
        }
    }
}

/// Deterministic per-kind seed component.
fn kind_seed(kind: WorkloadKind) -> u64 {
    match kind {
        WorkloadKind::Parsec => 11,
        WorkloadKind::Memtier => 22,
        WorkloadKind::Hashmap => 33,
        WorkloadKind::Heap => 44,
        WorkloadKind::Sysbench => 55,
        WorkloadKind::Dlrm => 66,
        WorkloadKind::Stream => 77,
    }
}

/// Per-benchmark admission quantile, set by hand: the `fidelity` bin's
/// `stream` sweep, recorded in `FIDELITY.json`, is the one measured record
/// of how the quantile moves a row.
///
/// These are *mass* quantiles of training-cell scores. Under heavy Zipf
/// skew a few percent of request mass already covers every page beyond
/// cache reach, so the skewed workloads use small values; dlrm's mild skew
/// spreads mass widely and tolerates aggressive filtering.
fn default_quantile(kind: WorkloadKind) -> f64 {
    match kind {
        // Mostly-resident working set: admit nearly everything.
        WorkloadKind::Parsec => 0.01,
        // Heavy Zipf tails: bypass only the deep tail (a few percent of
        // request mass already covers every beyond-cache page).
        WorkloadKind::Memtier => 0.015,
        WorkloadKind::Hashmap => 0.01,
        WorkloadKind::Sysbench => 0.015,
        // Mild skew over a huge footprint: filter aggressively.
        WorkloadKind::Dlrm => 0.35,
        // Heap: sift-down reads siblings on the page it just missed on, so
        // any bypass multiplies misses — admission disabled.
        WorkloadKind::Heap => 0.0,
        // Sequential sweeps have intra-sweep reuse (8 touches per page):
        // bypassing scan pages multiplies their misses, so admit almost
        // everything and let score-eviction pin the hot region.
        WorkloadKind::Stream => 0.02,
    }
}

/// Published reference numbers for one benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PaperNumbers {
    /// LRU miss rate, % (Fig. 6).
    pub lru_miss_pct: f64,
    /// Best GMM miss rate, % (Fig. 6, dashed bars).
    pub gmm_miss_pct: f64,
    /// LRU average access time, µs (Table 1).
    pub lru_avg_us: f64,
    /// GMM average access time, µs (Table 1).
    pub gmm_avg_us: f64,
    /// Published reduction, % (Table 1).
    pub reduction_pct: f64,
}

/// Fig. 6 / Table 1 reference values, in the paper's benchmark order.
pub fn paper_numbers(kind: WorkloadKind) -> PaperNumbers {
    match kind {
        WorkloadKind::Parsec => PaperNumbers {
            lru_miss_pct: 1.47,
            gmm_miss_pct: 1.15,
            lru_avg_us: 3.92,
            gmm_avg_us: 3.29,
            reduction_pct: 16.23,
        },
        WorkloadKind::Memtier => PaperNumbers {
            lru_miss_pct: 2.67,
            gmm_miss_pct: 1.48,
            lru_avg_us: 2.98,
            gmm_avg_us: 2.09,
            reduction_pct: 29.87,
        },
        WorkloadKind::Hashmap => PaperNumbers {
            lru_miss_pct: 2.10,
            gmm_miss_pct: 1.23,
            lru_avg_us: 18.10,
            gmm_avg_us: 11.02,
            reduction_pct: 39.14,
        },
        WorkloadKind::Heap => PaperNumbers {
            lru_miss_pct: 2.08,
            gmm_miss_pct: 1.54,
            lru_avg_us: 16.48,
            gmm_avg_us: 12.46,
            reduction_pct: 24.39,
        },
        WorkloadKind::Sysbench => PaperNumbers {
            lru_miss_pct: 3.87,
            gmm_miss_pct: 2.58,
            lru_avg_us: 3.87,
            gmm_avg_us: 2.91,
            reduction_pct: 24.79,
        },
        WorkloadKind::Dlrm => PaperNumbers {
            lru_miss_pct: 36.78,
            gmm_miss_pct: 30.64,
            lru_avg_us: 70.65,
            gmm_avg_us: 58.43,
            reduction_pct: 17.30,
        },
        WorkloadKind::Stream => PaperNumbers {
            lru_miss_pct: 13.45,
            gmm_miss_pct: 11.09,
            lru_avg_us: 156.39,
            gmm_avg_us: 125.71,
            reduction_pct: 19.62,
        },
    }
}

/// Which strategy the paper found best per benchmark (Fig. 6 dashed bars).
pub fn paper_best_strategy(kind: WorkloadKind) -> crate::PolicyMode {
    match kind {
        WorkloadKind::Parsec | WorkloadKind::Heap => crate::PolicyMode::GmmEvictionOnly,
        _ => crate::PolicyMode::GmmCachingEviction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_seven() {
        let suite = BenchmarkSpec::paper_suite();
        assert_eq!(suite.len(), 7);
        let kinds: Vec<_> = suite.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, WorkloadKind::all().to_vec());
        assert!(suite.iter().all(|s| s.requests == 1_200_000));
        // Distinct seeds.
        let mut seeds: Vec<_> = suite.iter().map(|s| s.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 7);
    }

    #[test]
    fn configs_are_valid() {
        for s in BenchmarkSpec::quick_suite() {
            assert!(s.config().validate().is_ok(), "{}", s.kind);
            assert!((0.0..1.0).contains(&s.admission_quantile));
        }
    }

    #[test]
    fn paper_numbers_are_internally_consistent() {
        for kind in WorkloadKind::all() {
            let p = paper_numbers(kind);
            assert!(p.gmm_miss_pct < p.lru_miss_pct, "{kind}");
            assert!(p.gmm_avg_us < p.lru_avg_us, "{kind}");
            let computed = (1.0 - p.gmm_avg_us / p.lru_avg_us) * 100.0;
            assert!(
                (computed - p.reduction_pct).abs() < 0.6,
                "{kind}: reduction {computed} vs published {}",
                p.reduction_pct
            );
        }
    }

    #[test]
    fn best_strategy_matches_fig6() {
        use crate::PolicyMode;
        assert_eq!(
            paper_best_strategy(WorkloadKind::Parsec),
            PolicyMode::GmmEvictionOnly
        );
        assert_eq!(
            paper_best_strategy(WorkloadKind::Heap),
            PolicyMode::GmmEvictionOnly
        );
        assert_eq!(
            paper_best_strategy(WorkloadKind::Dlrm),
            PolicyMode::GmmCachingEviction
        );
    }

    #[test]
    fn workload_builds_and_generates() {
        let spec = BenchmarkSpec {
            kind: WorkloadKind::Stream,
            requests: 1_000,
            seed: 9,
            admission_quantile: 0.5,
        };
        let t = spec.workload().generate(spec.requests, spec.seed);
        assert_eq!(t.len(), 1_000);
    }
}
