//! # icgmm-bench
//!
//! Harness support for regenerating every table and figure of the ICGMM
//! paper. The binaries in `src/bin/` print the paper's published values
//! next to this reproduction's measurements:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig2` | Fig. 2 — spatial/temporal access distributions |
//! | `fidelity` | §5 from one replay per (benchmark, mode): Fig. 6 miss rates with the compulsory floor and MIN, Table 1 average SSD access time, Table 2's modeled rows, Fig. 5's dataflow overlap |
//! | `ablation` | extension — threshold/K/shot/SSD/cache sweeps |
//!
//! Pass `--quick` to any binary for a reduced-size run (~200 k requests,
//! K = 64); default runs use the paper-scale presets (~1.2 M requests,
//! K = 256) and take minutes. `--requests N` and `--k N` override either
//! scale; a value that is not a positive integer is refused.

use icgmm::benchmarks::BenchmarkSpec;
use icgmm::{Icgmm, IcgmmConfig, IcgmmError, PolicyMode, RunReport};
use icgmm_gmm::EmConfig;
use std::collections::HashSet;

/// Harness scale selected on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale run (~1.2 M requests, K = 256).
    Full,
    /// Reduced run for smoke tests (~200 k requests, K = 64).
    ///
    /// At 200 k requests the miss rate is bound by compulsory misses: the
    /// floor is within 0.01 pt of LRU on `parsec`, `memtier`, `hashmap`,
    /// `heap` and `sysbench` (2.89 / 2.90, 2.90 / 2.90, 3.56 / 3.56,
    /// 5.01 / 5.01, 4.55 / 4.55 %). A quick run therefore smoke-tests a
    /// binary and cannot show a policy effect.
    Quick,
}

impl Scale {
    /// Parses process arguments (`--quick` selects [`Scale::Quick`]),
    /// refusing a bad `--requests` / `--k` before the binary prints a line.
    pub fn from_args() -> Scale {
        arg_value("--requests");
        arg_value("--k");
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

/// Reads `--flag N` from the process arguments. A flag whose value is
/// missing, not an integer or zero prints the usage and exits non-zero:
/// falling back to the default would run a different experiment than the
/// one asked for.
fn arg_value(flag: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, flag).unwrap_or_else(|err| {
        eprintln!("{err}\nusage: <bin> [--quick] [--requests N] [--k N]");
        std::process::exit(2)
    })
}

/// `Ok(None)` when `flag` is absent, `Ok(Some(n))` for `flag n` with
/// `n ≥ 1`, and an error naming the flag otherwise.
fn parse_flag(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1).map(|v| v.parse::<u64>()) {
        Some(Ok(n)) if n > 0 => Ok(Some(n)),
        _ => Err(format!("{flag} takes a positive integer")),
    }
}

/// One benchmark's share of the paper's evaluation (§5): the trace
/// generated and the model fitted once, LRU, the three GMM modes and
/// eviction-only MIN replayed once each, and the compulsory floor counted
/// off the same trace. Table 1 and Fig. 5 are costings of these counters
/// (`LatencyModel::total_us` of a run's `CacheStats`), not further
/// replays.
#[derive(Clone, Debug)]
pub struct Fidelity {
    /// The benchmark.
    pub spec: BenchmarkSpec,
    /// LRU and the three GMM modes, in [`PolicyMode::fig6_modes`] order.
    pub fig6: Vec<RunReport>,
    /// [`PolicyMode::Belady`]: eviction-only MIN, always admitting.
    pub min: RunReport,
    /// Measured requests whose page the replayed trace has not touched
    /// before: a miss under every policy, clairvoyant included.
    pub floor_misses: u64,
}

impl Fidelity {
    /// Generates `spec`'s trace, fits `config`'s model on it and replays
    /// the four Fig. 6 modes and MIN.
    ///
    /// # Errors
    ///
    /// Configuration, training and replay errors of [`Icgmm`].
    pub fn run(spec: &BenchmarkSpec, config: IcgmmConfig) -> Result<Fidelity, IcgmmError> {
        let trace = spec.workload().generate(spec.requests, spec.seed);
        let mut sys = Icgmm::new(config)?;
        sys.fit(&trace)?;
        let fig6 = PolicyMode::fig6_modes()
            .into_iter()
            .map(|mode| sys.run(&trace, mode))
            .collect::<Result<_, _>>()?;
        let min = sys.run(&trace, PolicyMode::Belady)?;
        let (start, end) = config.preprocess.kept_range(trace.len());
        let mut seen = HashSet::new();
        let floor_misses = trace.records()[..end]
            .iter()
            .enumerate()
            .filter(|&(i, r)| seen.insert(r.page().raw()) && i >= start)
            .count() as u64;
        Ok(Fidelity {
            spec: *spec,
            fig6,
            min,
            floor_misses,
        })
    }

    /// The LRU baseline.
    pub fn lru(&self) -> &RunReport {
        &self.fig6[0]
    }

    /// The lowest-miss GMM mode, the paper's Fig. 6 "best strategy"; a tie
    /// goes to the mode listed first.
    pub fn best_gmm(&self) -> &RunReport {
        self.fig6[1..]
            .iter()
            .min_by(|a, b| a.miss_rate_pct().total_cmp(&b.miss_rate_pct()))
            .expect("three GMM modes")
    }

    /// The compulsory floor, % of measured requests (Fig. 6 units).
    pub fn floor_pct(&self) -> f64 {
        match self.lru().sim.stats.accesses() {
            0 => 0.0,
            n => self.floor_misses as f64 / n as f64 * 100.0,
        }
    }

    /// The relations that hold by construction and are broken here:
    /// floor ≤ MIN ≤ LRU, and floor ≤ every GMM mode. Empty when sound.
    pub fn broken_relations(&self) -> Vec<String> {
        // `(name, misses)` pairs, each required to satisfy lower ≤ upper.
        let named = |r: &RunReport| (r.mode.to_string(), r.sim.stats.misses());
        let (floor, min) = (("floor".to_string(), self.floor_misses), named(&self.min));
        let mut bounds = vec![(floor.clone(), min.clone()), (min, named(self.lru()))];
        bounds.extend(self.fig6[1..].iter().map(|r| (floor.clone(), named(r))));
        bounds
            .into_iter()
            .filter(|(lower, upper)| lower.1 > upper.1)
            .map(|((lo, m), (hi, n))| format!("{}: {lo} {m} > {hi} {n} misses", self.spec.kind))
            .collect()
    }
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

    #[test]
    fn scale_flags_take_positive_integers_only() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let parse = |v: &[&str]| parse_flag(&args(v), "--requests");
        assert_eq!(parse(&["bin", "--quick"]), Ok(None));
        assert_eq!(parse(&["bin", "--requests", "30000"]), Ok(Some(30_000)));
        for bad in [
            &["bin", "--requests", "30k"][..],
            &["bin", "--requests", "0"],
            &["bin", "--requests", "-5"],
            &["bin", "--requests"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("--requests"), "{err}");
        }
    }

    /// Every benchmark of the suite at a scale a debug build affords:
    /// one fit, five replays, the floor counted — and the relations that
    /// hold by construction hold.
    #[test]
    fn fidelity_relations_hold_on_all_seven() {
        for mut spec in BenchmarkSpec::quick_suite() {
            spec.requests = 30_000;
            let base = spec.config();
            let config = IcgmmConfig {
                em: EmConfig { k: 8, ..base.em },
                max_train_cells: 5_000,
                ..base
            };
            let r = Fidelity::run(&spec, config).expect("benchmark runs");
            let modes: Vec<PolicyMode> = r.fig6.iter().map(|run| run.mode).collect();
            assert_eq!(modes, PolicyMode::fig6_modes());
            assert_eq!(r.min.mode, PolicyMode::Belady);
            assert!(
                r.floor_misses > 0,
                "{}: a cold cache has first touches",
                spec.kind
            );
            assert!(r.best_gmm().mode.uses_gmm());
            assert_eq!(r.broken_relations(), Vec::<String>::new(), "{}", spec.kind);
            // The floor and MIN are never above LRU, in Fig. 6 units too.
            assert!(r.floor_pct() <= r.min.miss_rate_pct());
            assert!(r.min.miss_rate_pct() <= r.lru().miss_rate_pct());
        }
    }
}
