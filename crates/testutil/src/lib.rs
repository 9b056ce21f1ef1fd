//! Shared fixtures for the workspace's differential test suites.
//!
//! Every bit-identity suite in this repository — dataflow vs analytic
//! replay (`crates/hw/tests/dataflow_equivalence.rs`), single-threaded vs
//! sharded replay (`crates/cache/tests/shard_equivalence.rs`,
//! `tests/shard_differential.rs`), served vs offline replay
//! (`crates/serve/tests/serve_equivalence.rs`) and the real-engine
//! integration tests (`tests/end_to_end.rs`,
//! `tests/hardware_consistency.rs`) — exercises the same grid:
//! Zipf-skewed traces over a conflict-heavy small cache × the eviction
//! policies × the admission policies × the score-source shapes. These
//! builders are that grid's single source of truth; suites differ only in
//! which front-ends they pit against each other.
//!
//! A dev-dependency-only crate: it never appears in a production
//! dependency graph (the dev-dependency cycle back into `icgmm-cache` is
//! the standard Cargo pattern for shared test support).

use icgmm_cache::{
    AccessCtx, AdmissionPolicy, AlwaysAdmit, BeladyPolicy, CacheConfig, ConstantScore,
    EvictionPolicy, FaultPlan, FaultyScore, FifoPolicy, FnScore, GmmScorePolicy, LatencyModel,
    LfuPolicy, LruPolicy, RandomPolicy, ScoreSource, ThresholdAdmit,
};
use icgmm_trace::{TraceRecord, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The eviction-policy grid every differential suite sweeps.
pub const EVICTIONS: [&str; 6] = ["lru", "fifo", "lfu", "belady", "gmm-score", "random"];

/// The admission-policy grid.
pub const ADMISSIONS: [&str; 2] = ["always", "threshold"];

/// The score-source shapes.
pub const SCORES: [&str; 3] = ["none", "constant", "fn"];

/// Score sources that are never to be trusted (outside the [`SCORES`]
/// grid): an engine that only ever says NaN, and a healthy one behind a
/// permanent outage. Under either, every policy stack is LRU.
pub const UNTRUSTED_SCORES: [&str; 2] = ["nan", "outage"];

/// The paper's three GMM stacks as `(eviction, admission)` names:
/// eviction-only, caching-only, caching + eviction.
pub const GMM_STACKS: [(&str, &str); 3] = [
    ("gmm-score", "always"),
    ("lru", "threshold"),
    ("gmm-score", "threshold"),
];

/// The conflict-heavy small cache the equivalence suites run against:
/// 32 blocks, 4-way — small enough that Zipf traces conflict constantly,
/// the regime where shard merging is hard.
pub fn small_cfg() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 32 * 4096,
        block_bytes: 4096,
        ways: 4,
    }
}

/// The latency model a differential case runs under, drawn from its seed:
/// the paper's integer-µs constants (under which modeled time adds up
/// exactly in any order) on even seeds, the non-integer model `icgmm-hw`
/// derives from its engines' cycle counts (under which an order-sensitive
/// total would differ between front-ends) on odd ones.
pub fn latency_for(seed: u64) -> LatencyModel {
    if seed.is_multiple_of(2) {
        LatencyModel::paper_tlc()
    } else {
        icgmm::hw::DataflowConfig::default().latency()
    }
}

/// A Zipf-skewed read/write trace over a compact page space (small enough
/// that sets conflict constantly).
pub fn zipf_trace(seed: u64, n: usize, pages: u64, skew: f64, write_pct: u8) -> Vec<TraceRecord> {
    let zipf = Zipf::new(pages, skew).expect("valid zipf");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let page = zipf.sample(&mut rng) - 1;
            if rng.gen_range(0u8..100) < write_pct {
                TraceRecord::write(page << 12)
            } else {
                TraceRecord::read(page << 12)
            }
        })
        .collect()
}

/// A mixed random/strided conflict trace (the real-engine integration
/// suites' workload): enough re-access for hits, enough churn for
/// constant eviction pressure.
pub fn conflict_trace(n: usize, pages: u64, seed: u64) -> Vec<TraceRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let page = if i % 4 == 0 {
                rng.gen_range(0..pages)
            } else {
                (i as u64 * 13 + 7) % pages
            };
            if i % 11 == 0 {
                TraceRecord::write(page << 12)
            } else {
                TraceRecord::read(page << 12)
            }
        })
        .collect()
}

/// An eviction policy that panics on its first victim choice — in a shard
/// worker *and* in the supervisor's re-replay: the genuine, recurring
/// policy bug the fault-recovery suites feed the engines.
struct PoisonPolicy(LruPolicy);

impl EvictionPolicy for PoisonPolicy {
    fn name(&self) -> &str {
        "poison"
    }
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        self.0.on_hit(set, way, ctx);
    }
    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        self.0.on_insert(set, way, ctx);
    }
    fn choose_victim(&mut self, _set: usize, _ways: usize, _ctx: &AccessCtx) -> usize {
        panic!("poisoned victim choice");
    }
}

/// Builds the named eviction policy sized for `cfg`. Belady's oracle is
/// built from `records` — pass exactly the record sequence the policy
/// will replay (its positions are the sequence numbers the simulator
/// presents). `"poison"` (outside the [`EVICTIONS`] grid) panics on its
/// first victim choice.
pub fn eviction_for(
    name: &str,
    cfg: CacheConfig,
    records: &[TraceRecord],
) -> Box<dyn EvictionPolicy + Send> {
    let (sets, ways) = (cfg.num_sets(), cfg.ways);
    match name {
        "lru" => Box::new(LruPolicy::new(sets, ways)),
        "fifo" => Box::new(FifoPolicy::new(sets, ways)),
        "lfu" => Box::new(LfuPolicy::new(sets, ways)),
        "belady" => Box::new(BeladyPolicy::from_records(records, sets, ways)),
        "gmm-score" => Box::new(GmmScorePolicy::new(sets, ways)),
        "random" => Box::new(RandomPolicy::new(0xDECADE, sets)),
        "poison" => Box::new(PoisonPolicy(LruPolicy::new(sets, ways))),
        other => panic!("unknown eviction {other}"),
    }
}

/// Builds the named admission policy (`threshold` admits on score ≥ 0.5,
/// which the `fn` score source straddles constantly).
pub fn admission_for(name: &str) -> Box<dyn AdmissionPolicy + Send> {
    match name {
        "always" => Box::new(AlwaysAdmit),
        "threshold" => Box::new(ThresholdAdmit::new(0.5)),
        other => panic!("unknown admission {other}"),
    }
}

/// Builds the named score source.
///
/// `"fn"` produces deterministic per-`(page, position)` pseudo-random scores:
/// roughly half fall under the 0.5 admission threshold, so the threshold
/// policy bypasses constantly. `"nan"` and `"outage"` are the
/// [`UNTRUSTED_SCORES`].
pub fn score_for(name: &str) -> Option<Box<dyn ScoreSource + Send>> {
    match name {
        "none" => None,
        "constant" => Some(Box::new(ConstantScore(0.75))),
        "fn" => Some(Box::new(FnScore::new(|page, pos| {
            let h = (page ^ 0x9E37_79B9)
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(pos);
            (h >> 32) as f64 / u32::MAX as f64
        }))),
        "nan" => Some(Box::new(FnScore::new(|_, _| f64::NAN))),
        "outage" => {
            let plan = FaultPlan {
                scorer_outage_per_mille: 1000,
                ..FaultPlan::empty()
            };
            Some(Box::new(FaultyScore::new(score_for("fn")?, plan)))
        }
        other => panic!("unknown score {other}"),
    }
}

/// A score source that counts the scores it hands out: the inference
/// count of a replay that reports none of its own (the two-slice
/// `simulate_streaming_with_warmup`), to hold `scores_consumed` against.
pub struct CountingScore(pub Box<dyn ScoreSource + Send>, pub u64);

impl ScoreSource for CountingScore {
    fn score(&mut self, record: &TraceRecord, pos: u64) -> f64 {
        self.1 += 1;
        self.0.score(record, pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_cover_the_grids() {
        let cfg = small_cfg();
        let trace = zipf_trace(1, 200, 64, 0.9, 20);
        for e in EVICTIONS {
            assert_eq!(eviction_for(e, cfg, &trace).name(), e);
        }
        for a in ADMISSIONS {
            let _ = admission_for(a);
        }
        assert!(score_for("none").is_none());
        assert!(score_for("constant").is_some());
        assert!(score_for("fn").is_some());
        for name in UNTRUSTED_SCORES {
            let mut s = score_for(name).expect("a source");
            assert!(s.score(&TraceRecord::read(0x5000), 3).is_nan(), "{name}");
        }
    }

    #[test]
    fn latency_grid_has_an_integer_and_a_non_integer_model() {
        assert_eq!(latency_for(4), LatencyModel::paper_tlc());
        let derived = latency_for(7);
        assert!(derived.validate().is_ok());
        assert!(derived.miss_overhead_us.fract() != 0.0);
    }

    #[test]
    fn traces_are_deterministic() {
        assert_eq!(
            zipf_trace(7, 300, 64, 0.9, 10),
            zipf_trace(7, 300, 64, 0.9, 10)
        );
        assert_eq!(conflict_trace(300, 96, 3), conflict_trace(300, 96, 3));
        assert_ne!(
            zipf_trace(7, 300, 64, 0.9, 10),
            zipf_trace(8, 300, 64, 0.9, 10)
        );
    }
}
