//! Differential property suite for the sharded replay engine: the merged
//! [`ShardedSimulator`] report is **bit-identical** to the single-threaded
//! simulator for every shard count in {1, 2, 4, 8}, across the eviction ×
//! admission × score grid (minus `random`, whose global RNG stream is not
//! shard-reproducible and which the engine refuses above one shard), with
//! random warm-up splits.

use icgmm_cache::{
    simulate_streaming_with_warmup, AlwaysAdmit, CacheConfig, FnScore, LatencyModel, LruPolicy,
    RandomPolicy, ScoreSource, SetAssocCache, ShardCtx, ShardPolicies, ShardRunError,
    ShardedSimulator, SimReport, ThresholdAdmit,
};
use icgmm_testutil::{
    admission_for, eviction_for, score_for, small_cfg, zipf_trace, ADMISSIONS, SHARDABLE_EVICTIONS,
};
use icgmm_trace::TraceRecord;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One sharded run over the grid fixtures.
fn run_sharded(
    shards: usize,
    eviction: &str,
    admission: &str,
    score: &str,
    trace: &[TraceRecord],
    warmup_len: usize,
) -> SimReport {
    let cfg = small_cfg();
    let lat = LatencyModel::paper_tlc();
    let (warm, meas) = trace.split_at(warmup_len);
    ShardedSimulator::new(shards)
        .run(
            warm,
            meas,
            cfg,
            &|ctx| {
                // Belady's oracle must see this shard's subsequence. The
                // fixture API takes a slice, so gather the indexed views
                // (test-only copy; the engine itself never materializes).
                let recs: Vec<TraceRecord> = ctx
                    .warmup
                    .iter()
                    .chain(ctx.measured.iter())
                    .copied()
                    .collect();
                ShardPolicies {
                    admission: admission_for(admission),
                    eviction: eviction_for(eviction, cfg, &recs),
                    score: score_for(score),
                }
            },
            &lat,
            Some(64),
        )
        .expect("valid geometry")
        .sim
}

/// The single-threaded reference: the streaming loop.
fn reference(
    eviction: &str,
    admission: &str,
    score: &str,
    trace: &[TraceRecord],
    warmup_len: usize,
) -> SimReport {
    let cfg = small_cfg();
    let lat = LatencyModel::paper_tlc();
    let (warm, meas) = trace.split_at(warmup_len);

    let mut c = SetAssocCache::new(cfg).unwrap();
    let mut ev = eviction_for(eviction, cfg, trace);
    let mut ad = admission_for(admission);
    let mut sc = score_for(score);
    simulate_streaming_with_warmup(
        warm,
        meas,
        &mut c,
        ad.as_mut(),
        ev.as_mut(),
        sc.as_deref_mut().map(|s| s as &mut dyn ScoreSource),
        &lat,
        Some(64),
    )
}

proptest! {
    /// Sharded replay == single-threaded replay, bit for bit (stats,
    /// `total_us`, `avg_us`, miss series), for every shard count ×
    /// eviction × admission × score combination over random Zipf traces
    /// with random warm-up splits.
    #[test]
    fn sharded_replay_matches_single_threaded(
        params in (0u64..1_000_000, 300usize..1200, 24u64..160, (60u64..140), 0u8..45)
    ) {
        let (seed, n, pages, skew_pct, write_pct) = params;
        let skew = skew_pct as f64 / 100.0;
        let trace = zipf_trace(seed, n, pages, skew, write_pct);
        let warmup_len = (seed as usize) % (n / 2);
        for eviction in SHARDABLE_EVICTIONS {
            for admission in ADMISSIONS {
                for score in ["none", "constant", "fn"] {
                    let reference = reference(eviction, admission, score, &trace, warmup_len);
                    for shards in SHARD_COUNTS {
                        let sim =
                            run_sharded(shards, eviction, admission, score, &trace, warmup_len);
                        prop_assert_eq!(
                            &reference,
                            &sim,
                            "{}/{}/{} diverged at {} shards (seed {}, n {})",
                            eviction, admission, score, shards, seed, n
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    /// Every record carries its global trace position: over an all-miss
    /// trace (distinct pages, so every record is scored) the shards'
    /// position-reading sources see, between them, exactly `0..n` — each
    /// position once, with its own record's page — at every shard count,
    /// wherever the warm-up split falls.
    #[test]
    fn score_sources_see_each_global_position_once(
        params in (0u64..1_000_000, 100usize..800)
    ) {
        let (seed, n) = params;
        // An odd multiplier is a bijection on u64: the pages are distinct.
        let page_at = |pos: u64| (pos + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 12;
        let trace: Vec<TraceRecord> =
            (0..n as u64).map(|pos| TraceRecord::read(page_at(pos) << 12)).collect();
        let (warm, meas) = trace.split_at(seed as usize % n);
        let cfg = small_cfg();
        for shards in SHARD_COUNTS {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let make = |_: &ShardCtx<'_>| {
                let seen = Arc::clone(&seen);
                ShardPolicies {
                    admission: Box::new(AlwaysAdmit),
                    eviction: Box::new(LruPolicy::new(cfg.num_sets(), cfg.ways)),
                    score: Some(Box::new(FnScore::new(move |page, pos| {
                        seen.lock().unwrap().push((pos, page));
                        0.5
                    }))),
                }
            };
            let rep = ShardedSimulator::new(shards)
                .run(warm, meas, cfg, &make, &LatencyModel::paper_tlc(), None)
                .unwrap();
            prop_assert_eq!(rep.scores_consumed, n as u64);
            let mut seen = std::mem::take(&mut *seen.lock().unwrap());
            seen.sort_unstable();
            let want: Vec<(u64, u64)> = (0..n as u64).map(|pos| (pos, page_at(pos))).collect();
            prop_assert_eq!(seen, want, "{} shards (seed {}, n {})", shards, seed, n);
        }
    }
}

proptest! {
    /// Sharded replay is deterministic: the same inputs and shard count
    /// produce identical reports on every run (thread scheduling must be
    /// invisible).
    #[test]
    fn sharded_replay_is_deterministic(
        params in (0u64..1_000_000, 300usize..900, 24u64..160)
    ) {
        let (seed, n, pages) = params;
        let trace = zipf_trace(seed, n, pages, 0.9, 20);
        let warmup_len = n / 5;
        for shards in [2usize, 8] {
            let a = run_sharded(shards, "gmm-score", "threshold", "fn", &trace, warmup_len);
            let b = run_sharded(shards, "gmm-score", "threshold", "fn", &trace, warmup_len);
            prop_assert_eq!(&a, &b, "report not deterministic at {} shards", shards);
        }
    }
}

// ---------------------------------------------------------------------
// API-surface behaviors of the sharded engine.
// ---------------------------------------------------------------------

fn mixed_trace(n: usize) -> Vec<TraceRecord> {
    (0..n as u64)
        .map(|i| {
            let page = (i * 13 + (i / 40) % 9) % 96;
            if i % 7 == 0 {
                TraceRecord::write(page << 12)
            } else {
                TraceRecord::read(page << 12)
            }
        })
        .collect()
}

fn lru_policies(cfg: CacheConfig) -> ShardPolicies {
    ShardPolicies {
        admission: Box::new(ThresholdAdmit::new(0.4)),
        eviction: Box::new(LruPolicy::new(cfg.num_sets(), cfg.ways)),
        score: Some(Box::new(FnScore::new(|page, seq| {
            ((page * 37 + seq) % 101) as f64 / 101.0
        }))),
    }
}

#[test]
fn auto_routed_sharded_report_is_bit_identical_to_streaming_reference() {
    let cfg = small_cfg();
    let trace = mixed_trace(3_000);
    let (warm, meas) = trace.split_at(700);
    let lat = LatencyModel::paper_tlc();

    let mut c = SetAssocCache::new(cfg).unwrap();
    let mut pol = lru_policies(cfg);
    let reference = simulate_streaming_with_warmup(
        warm,
        meas,
        &mut c,
        pol.admission.as_mut(),
        pol.eviction.as_mut(),
        pol.score.as_deref_mut().map(|s| s as &mut dyn ScoreSource),
        &lat,
        Some(128),
    );

    for shards in [1usize, 2, 3, 4, 8] {
        let sim = ShardedSimulator::new(shards);
        let rep = sim
            .run(warm, meas, cfg, &|_ctx| lru_policies(cfg), &lat, Some(128))
            .unwrap();
        assert_eq!(reference, rep.sim, "{shards} shards");
        assert_eq!(rep.per_shard.len(), shards);
    }
}

#[test]
fn scores_consumed_counts_scored_misses() {
    let cfg = small_cfg();
    let trace = mixed_trace(1_000);
    let sim = ShardedSimulator::new(4);
    let rep = sim
        .run(
            &[],
            &trace,
            cfg,
            &|_ctx| lru_policies(cfg),
            &LatencyModel::paper_tlc(),
            None,
        )
        .unwrap();
    // One consumed score per miss.
    assert_eq!(rep.scores_consumed, rep.sim.stats.misses());
}

#[test]
fn empty_shards_are_tolerated() {
    // More shards than sets: the high shards see no records.
    let cfg = CacheConfig {
        capacity_bytes: 2 * 2 * 4096,
        block_bytes: 4096,
        ways: 2,
    };
    assert_eq!(cfg.num_sets(), 2);
    let trace = mixed_trace(200);
    let sim = ShardedSimulator::new(6);
    let rep = sim
        .run(
            &[],
            &trace,
            cfg,
            &|_ctx| ShardPolicies {
                admission: Box::new(AlwaysAdmit),
                eviction: Box::new(LruPolicy::new(cfg.num_sets(), cfg.ways)),
                score: None,
            },
            &LatencyModel::paper_tlc(),
            None,
        )
        .unwrap();
    assert_eq!(rep.sim.stats.accesses(), 200);
    assert_eq!(rep.per_shard[2].stats.accesses(), 0);
}

#[test]
fn random_eviction_is_refused_above_one_shard() {
    let cfg = small_cfg();
    let trace = mixed_trace(100);
    let err = ShardedSimulator::new(2)
        .run(
            &[],
            &trace,
            cfg,
            &|_ctx| ShardPolicies {
                admission: Box::new(AlwaysAdmit),
                eviction: Box::new(RandomPolicy::new(7)),
                score: None,
            },
            &LatencyModel::paper_tlc(),
            None,
        )
        .expect_err("random eviction must be refused above one shard");
    match err {
        ShardRunError::Contract { shard: 0, message } => {
            assert!(message.contains("not shard-deterministic"), "{message}");
        }
        other => panic!("expected a contract refusal from shard 0, got {other:?}"),
    }
}

#[test]
fn random_eviction_is_fine_at_one_shard() {
    let cfg = small_cfg();
    let trace = mixed_trace(500);
    let rep = ShardedSimulator::new(1)
        .run(
            &[],
            &trace,
            cfg,
            &|_ctx| ShardPolicies {
                admission: Box::new(AlwaysAdmit),
                eviction: Box::new(RandomPolicy::new(7)),
                score: None,
            },
            &LatencyModel::paper_tlc(),
            None,
        )
        .unwrap();
    let mut c = SetAssocCache::new(cfg).unwrap();
    let reference = simulate_streaming_with_warmup(
        &[],
        &trace,
        &mut c,
        &mut AlwaysAdmit,
        &mut RandomPolicy::new(7),
        None,
        &LatencyModel::paper_tlc(),
        None,
    );
    assert_eq!(reference, rep.sim);
}

/// Policy construction runs on the shard workers, not the calling
/// thread — the parallel-setup half of the zero-copy fan-out. (The
/// bit-identity of the resulting reports is what the whole grid above
/// checks; this pins down *where* the construction happened.)
#[test]
fn make_shard_runs_on_worker_threads() {
    let cfg = small_cfg();
    let trace = mixed_trace(400);
    let caller = std::thread::current().id();
    let seen = std::sync::Mutex::new(Vec::new());
    let rep = ShardedSimulator::new(4)
        .run(
            &[],
            &trace,
            cfg,
            &|ctx| {
                seen.lock()
                    .unwrap()
                    .push((ctx.shard, std::thread::current().id()));
                ShardPolicies {
                    admission: Box::new(AlwaysAdmit),
                    eviction: Box::new(LruPolicy::new(cfg.num_sets(), cfg.ways)),
                    score: None,
                }
            },
            &LatencyModel::paper_tlc(),
            None,
        )
        .unwrap();
    assert_eq!(rep.sim.stats.accesses(), 400);
    let seen = seen.into_inner().unwrap();
    assert_eq!(seen.len(), 4, "one construction per shard");
    assert!(
        seen.iter().all(|&(_, id)| id != caller),
        "make_shard must run on the worker threads"
    );
}

/// Deterministic spot check on an adversarial bypass-storm fixture:
/// constant admission bypasses inside every shard, still bit-identical
/// after the merge at every shard count.
#[test]
fn divergence_heavy_trace_merges_bit_identical() {
    let trace = {
        use rand::Rng as _;
        use rand::SeedableRng as _;
        let mut t = Vec::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for i in 0..6_000u64 {
            let page = if i % 5 == 0 {
                rng.gen_range(0u64..120)
            } else {
                (i * 7 + (i / 48) % 13) % 120
            };
            if i % 9 == 0 {
                t.push(TraceRecord::write(page << 12));
            } else {
                t.push(TraceRecord::read(page << 12));
            }
        }
        t
    };
    let reference = reference("gmm-score", "threshold", "fn", &trace, 1_000);
    assert!(reference.stats.bypasses() > 0, "the fixture must bypass");
    for shards in SHARD_COUNTS {
        let sim = run_sharded(shards, "gmm-score", "threshold", "fn", &trace, 1_000);
        assert_eq!(reference, sim, "{shards} shards");
    }
}
