//! Property tests: the speculative miss-window batcher is bit-identical to
//! the streaming simulator over random Zipf traces × every eviction policy
//! × every admission policy × every score-source shape, warm-up included —
//! plus a deterministic adversarial trace that forces heavy speculation
//! rollback.

use icgmm_cache::{
    simulate_streaming_with_warmup, FnScore, LatencyModel, LruPolicy, PreferBatching, ScoreSource,
    SetAssocCache, ThresholdAdmit, WindowedSimulator,
};
use icgmm_testutil::{
    admission_for, eviction_for, score_for, small_cfg, speculating_score_for, zipf_trace,
    ADMISSIONS, EVICTIONS, SCORES,
};
use icgmm_trace::TraceRecord;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[allow(clippy::too_many_arguments)]
fn run_pair(
    eviction: &str,
    admission: &str,
    score: &str,
    trace: &[TraceRecord],
    warmup_len: usize,
    window: usize,
) -> (
    icgmm_cache::SimReport,
    icgmm_cache::SimReport,
    icgmm_cache::SpecStats,
) {
    let cfg = small_cfg();
    let lat = LatencyModel::paper_tlc();
    let (warm, meas) = trace.split_at(warmup_len);

    let mut c1 = SetAssocCache::new(cfg).unwrap();
    let mut ev1 = eviction_for(eviction, cfg, trace);
    let mut ad1 = admission_for(admission);
    let mut sc1 = score_for(score);
    let streaming = simulate_streaming_with_warmup(
        warm,
        meas,
        &mut c1,
        ad1.as_mut(),
        ev1.as_mut(),
        sc1.as_deref_mut().map(|s| s as &mut dyn ScoreSource),
        &lat,
        Some(64),
    );

    let mut c2 = SetAssocCache::new(cfg).unwrap();
    let mut ev2 = eviction_for(eviction, cfg, trace);
    let mut ad2 = admission_for(admission);
    let mut sc2 = speculating_score_for(score);
    let mut wsim = WindowedSimulator::new(window);
    let batched = wsim.run(
        warm,
        meas,
        &mut c2,
        ad2.as_mut(),
        ev2.as_mut(),
        sc2.as_deref_mut().map(|s| s as &mut dyn ScoreSource),
        &lat,
        Some(64),
    );
    (streaming, batched, *wsim.spec_stats())
}

proptest! {
    /// Bit-identical `SimReport`s (stats, `total_us`, miss series) for
    /// every eviction × admission × score combination over random Zipf
    /// traces with a random warm-up split and a random speculation window.
    #[test]
    fn batched_simulation_matches_streaming(
        params in (0u64..1_000_000, 300usize..1200, 24u64..160, (60u64..140), 0u8..45, 1usize..1500)
    ) {
        let (seed, n, pages, skew_pct, write_pct, window) = params;
        let skew = skew_pct as f64 / 100.0;
        let trace = zipf_trace(seed, n, pages, skew, write_pct);
        let warmup_len = (seed as usize) % (n / 2);
        for eviction in EVICTIONS {
            for admission in ADMISSIONS {
                for score in SCORES {
                    let (streaming, batched, spec) =
                        run_pair(eviction, admission, score, &trace, warmup_len, window);
                    prop_assert_eq!(
                        &streaming,
                        &batched,
                        "{}/{}/{} diverged (seed {}, n {}, window {})",
                        eviction, admission, score, seed, n, window
                    );
                    // The exactness invariant (batch.rs module docs):
                    // every stale predicted hit — possible only downstream
                    // of a tolerated bypass — takes one synchronous
                    // fallback score, unless a densely scored window
                    // already holds the positionally exact score.
                    prop_assert!(spec.sync_scores <= spec.pred_hit_missed);
                }
            }
        }
    }
}

proptest! {
    /// The policy-aware shadow predicts victims *exactly* for the
    /// policies that expose a model — LRU (recency), FIFO (insertion
    /// order), LFU (frequency) and gmm-score (stored scores) — so on
    /// bypass-free traces (always-admit: no phantoms can poison the
    /// shadow) speculation must not diverge at all: no victim mismatch,
    /// no hit/miss misclassification, no synchronous fallback scoring.
    #[test]
    fn predictable_policies_never_diverge_without_bypasses(
        params in (0u64..1_000_000, 300usize..1200, 24u64..160, (60u64..140), 0u8..45, 1usize..1500)
    ) {
        let (seed, n, pages, skew_pct, write_pct, window) = params;
        let skew = skew_pct as f64 / 100.0;
        let trace = zipf_trace(seed, n, pages, skew, write_pct);
        let warmup_len = (seed as usize) % (n / 2);
        for eviction in ["lru", "fifo", "lfu", "gmm-score"] {
            for score in ["constant", "fn"] {
                let (streaming, batched, spec) =
                    run_pair(eviction, "always", score, &trace, warmup_len, window);
                prop_assert_eq!(&streaming, &batched, "{}/{}", eviction, score);
                prop_assert_eq!(
                    spec.divergences(), 0,
                    "{}/{} diverged without bypasses (seed {}, window {}): {:?}",
                    eviction, score, seed, window, spec
                );
                prop_assert_eq!(spec.victim_divergences, 0);
                prop_assert_eq!(spec.sync_scores, 0);
                // Run splits (the stored-score within-window dependency)
                // are a gmm-score-only mechanism.
                if eviction != "gmm-score" {
                    prop_assert_eq!(spec.run_splits, 0, "{} split: {:?}", eviction, spec);
                }
            }
        }
    }
}

/// Adversarial rollback torture: GMM-score eviction + a threshold
/// admission fed pseudo-random scores (constant bypass divergences) over
/// a working set slightly larger than the cache. Every bypass leaves a
/// phantom whose stored score the shadow must conservatively forget, so
/// even the policy-aware victim model keeps mispredicting around the
/// phantoms — speculation must diverge in every way we count, and the
/// replay must still be bit-identical.
#[test]
fn divergence_heavy_adversarial_trace_is_bit_identical() {
    // 120 pages rotating over a 32-page cache: miss-heavy enough that the
    // mode probe keeps speculating, with constant conflict and frequent
    // re-access of pages whose residency the shadow mispredicts.
    let mut trace = Vec::new();
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..6_000u64 {
        let page = if i % 5 == 0 {
            rng.gen_range(0u64..120)
        } else {
            (i * 7 + (i / 48) % 13) % 120
        };
        if i % 9 == 0 {
            trace.push(TraceRecord::write(page << 12));
        } else {
            trace.push(TraceRecord::read(page << 12));
        }
    }

    let mut stale_replays = 0;
    for window in [64usize, 512, 4096] {
        let (streaming, batched, spec) =
            run_pair("gmm-score", "threshold", "fn", &trace, 1_000, window);
        assert_eq!(streaming, batched, "window {window}");
        assert!(
            spec.divergences() > 50,
            "expected heavy rollback at window {window}: {spec:?}"
        );
        assert!(spec.victim_divergences > 0, "window {window}: {spec:?}");
        assert!(spec.admission_divergences > 0, "window {window}: {spec:?}");
        // The adaptive depth must have backed off under this storm
        // (except at the shrink floor itself, where there is no room).
        if window > icgmm_cache::MIN_SPEC_WINDOW {
            assert!(spec.window_shrinks > 0, "window {window}: {spec:?}");
        }
        // …and recovery still lands batched scores after every cut.
        assert!(spec.batched_scores > 0, "window {window}: {spec:?}");
        // Exactness invariant: every stale predicted hit pairs with one
        // synchronous fallback score — except in densely scored windows,
        // which already hold the positionally exact score.
        assert!(
            spec.sync_scores <= spec.pred_hit_missed,
            "window {window}: {spec:?}"
        );
        stale_replays += spec.pred_miss_hit + spec.pred_hit_missed;
    }
    // Stale predictions (downstream of tolerated bypasses and divergent
    // run tails) must actually reach replay somewhere in this storm.
    assert!(stale_replays > 0);
}

/// The streaming and batched entry points agree for the public defaults
/// too (`simulate` routes by `ScoreSource::prefers_batching`; either
/// route must produce the same report).
#[test]
fn public_simulate_matches_streaming_reference() {
    let trace = zipf_trace(42, 4_000, 96, 0.9, 20);
    let cfg = small_cfg();
    let lat = LatencyModel::paper_tlc();

    let mut c1 = SetAssocCache::new(cfg).unwrap();
    let mut ev1 = LruPolicy::new(cfg.num_sets(), cfg.ways);
    let mut sc1 = FnScore::new(|p, s| ((p * 31 + s) % 97) as f64 / 97.0);
    let mut ad1 = ThresholdAdmit::new(0.3);
    let streaming = icgmm_cache::simulate_streaming(
        &trace,
        &mut c1,
        &mut ad1,
        &mut ev1,
        Some(&mut sc1),
        &lat,
        None,
    );

    let mut c2 = SetAssocCache::new(cfg).unwrap();
    let mut ev2 = LruPolicy::new(cfg.num_sets(), cfg.ways);
    let mut sc2 = FnScore::new(|p, s| ((p * 31 + s) % 97) as f64 / 97.0);
    let mut ad2 = ThresholdAdmit::new(0.3);
    let defaulted = icgmm_cache::simulate(
        &trace,
        &mut c2,
        &mut ad2,
        &mut ev2,
        Some(&mut sc2),
        &lat,
        None,
    );
    assert_eq!(streaming, defaulted);

    // …and a source that does prefer batching takes the other route.
    let mut c3 = SetAssocCache::new(cfg).unwrap();
    let mut ev3 = LruPolicy::new(cfg.num_sets(), cfg.ways);
    let mut sc3 = PreferBatching(FnScore::new(|p, s| ((p * 31 + s) % 97) as f64 / 97.0));
    let mut ad3 = ThresholdAdmit::new(0.3);
    let speculated = icgmm_cache::simulate(
        &trace,
        &mut c3,
        &mut ad3,
        &mut ev3,
        Some(&mut sc3),
        &lat,
        None,
    );
    assert_eq!(streaming, speculated);
}
