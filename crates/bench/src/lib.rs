//! # icgmm-bench
//!
//! Harness support for regenerating every table and figure of the ICGMM
//! paper. The binaries in `src/bin/` print the paper's published values
//! next to this reproduction's measurements:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig2` | Fig. 2 — spatial/temporal access distributions |
//! | `fig6` | Fig. 6 — miss rates of LRU vs the three GMM strategies |
//! | `table1` | Table 1 — average SSD access time, LRU vs GMM |
//! | `table2` | Table 2 — resources & latency, LSTM vs GMM |
//! | `fig5_dataflow` | Fig. 5/§4.3 — dataflow overlap evidence |
//! | `ablation` | extension — threshold/K/shot/SSD/cache sweeps |
//!
//! Pass `--quick` to any binary for a reduced-size run (~200 k requests,
//! K = 64); default runs use the paper-scale presets (~1.2 M requests,
//! K = 256) and take minutes.

use icgmm::benchmarks::BenchmarkSpec;
use icgmm::{GmmPolicyEngine, IcgmmConfig, TrainedModel};
use icgmm_gmm::{EmConfig, Gaussian2, Gmm, Mat2, StandardScaler};
use icgmm_trace::{PreprocessConfig, TraceRecord, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Harness scale selected on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale run (~1.2 M requests, K = 256).
    Full,
    /// Reduced run for smoke tests (~200 k requests, K = 64).
    Quick,
}

impl Scale {
    /// Parses process arguments (`--quick` selects [`Scale::Quick`]).
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick" || a == "-q") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// The benchmark suite at this scale. `--requests N` overrides the
    /// per-benchmark request budget on either scale.
    pub fn suite(self) -> Vec<BenchmarkSpec> {
        let base = match self {
            Scale::Full => BenchmarkSpec::paper_suite(),
            Scale::Quick => BenchmarkSpec::quick_suite(),
        };
        match arg_value("--requests") {
            Some(n) => base
                .into_iter()
                .map(|mut s| {
                    s.requests = n as usize;
                    s
                })
                .collect(),
            None => base,
        }
    }

    /// System configuration for a spec at this scale (quick runs shrink K
    /// and the training-cell budget; `--k N` overrides K on either scale).
    pub fn config(self, spec: &BenchmarkSpec) -> IcgmmConfig {
        let base = spec.config();
        let mut cfg = match self {
            Scale::Full => base,
            Scale::Quick => IcgmmConfig {
                em: EmConfig {
                    k: 64,
                    max_iters: 30,
                    ..base.em
                },
                max_train_cells: 40_000,
                ..base
            },
        };
        if let Some(k) = arg_value("--k") {
            cfg.em.k = k as usize;
        }
        cfg
    }
}

/// Parses `--flag value` from the process arguments.
fn arg_value(flag: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// A hand-built K-component policy engine (no EM) for replay-timing
/// scenarios: components spread over the standardized feature square,
/// pages `0..span` mapped onto it, and a `−∞` threshold so admission
/// never bypasses (no bypass noise in the timing).
pub fn hand_engine(k: usize, span: usize) -> GmmPolicyEngine {
    let comps: Vec<Gaussian2> = (0..k)
        .map(|i| {
            let t = i as f64 / k as f64;
            Gaussian2::new(
                [t * 10.0 - 5.0, (t * std::f64::consts::TAU).sin()],
                Mat2::new(0.05 + t * 0.1, 0.01, 0.08),
            )
            .expect("valid component")
        })
        .collect();
    let model = TrainedModel {
        scaler: StandardScaler::fit(&[[0.0, 0.0], [span as f64, 256.0]], &[1.0, 1.0]),
        gmm: Gmm::new(vec![1.0 / k as f64; k], comps).expect("valid mixture"),
        threshold: f64::NEG_INFINITY,
    };
    let pre = PreprocessConfig {
        len_window: 32,
        len_access_shot: 10_000,
        ..Default::default()
    };
    GmmPolicyEngine::new(&model, &pre, false).expect("engine builds")
}

/// Sequential scan over `n` distinct pages: 100 % miss — the pure miss
/// window, every request triggers a policy-engine inference.
pub fn scan_trace(n: usize) -> Vec<TraceRecord> {
    (0..n as u64).map(|p| TraceRecord::read(p << 12)).collect()
}

/// `n` Zipf(0.9)-skewed reads over 4096 pages: realistic hit/miss
/// interleaving.
pub fn zipf_trace(n: usize) -> Vec<TraceRecord> {
    let zipf = Zipf::new(4096, 0.9).expect("valid zipf");
    let mut rng = StdRng::seed_from_u64(1234);
    (0..n)
        .map(|_| TraceRecord::read((zipf.sample(&mut rng) - 1) << 12))
        .collect()
}

/// Prints a section header in the style all binaries share.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_shrinks_k() {
        let spec = &BenchmarkSpec::quick_suite()[0];
        let full = Scale::Full.config(spec);
        let quick = Scale::Quick.config(spec);
        assert_eq!(full.em.k, 256);
        assert_eq!(quick.em.k, 64);
        assert!(quick.max_train_cells < full.max_train_cells);
        // The per-benchmark quantile survives scaling.
        assert_eq!(full.threshold.quantile, quick.threshold.quantile);
    }

    #[test]
    fn suites_have_seven_benchmarks() {
        assert_eq!(Scale::Full.suite().len(), 7);
        assert_eq!(Scale::Quick.suite().len(), 7);
    }
}
