//! Fault-armed behaviour of the replay stack: injected faults are
//! deterministic functions of `(plan seed, trace seed)` — device faults
//! of position, the same at every shard count — an untrusted score reaches
//! the policies as no score, the block it inserts is re-scored at the next
//! trusted eviction in its set, and recovery paths keep the replay
//! accounting intact.

use icgmm_cache::{
    micros, simulate, simulate_streaming_with_warmup, AccessOutcome, Evict, FaultPlan, FaultyScore,
    FnScore, GmmScorePolicy, LatencyModel, Policy, ScoreSource, SetAssocCache, ShardPolicies,
    ShardRunError, ShardedReport, ShardedSimulator, ThresholdAdmit,
};
use icgmm_testutil::{conflict_trace, policy_for, score_for, small_cfg, zipf_trace, CountingScore};
use icgmm_trace::{PageIndex, TraceRecord};
use proptest::prelude::*;

/// The GMM arm's stored score at `(set, way)`, `None` while unscored.
fn stored(policy: &Policy, set: usize, way: usize) -> Option<f64> {
    match &policy.evict {
        Evict::GmmScore(p) => p.stored_score(set, way),
        other => panic!("not the GMM arm: {other:?}"),
    }
}

/// A non-finite score never reaches the policy — so none is ever stored
/// and none can pin a block: `access_scored` asks for the raw value once
/// and shows the admission filter, the victim choice and the insert `None`
/// in its place.
#[test]
fn non_finite_stored_scores_never_corrupt_victim_selection() {
    // One set, one way: every miss after the first also picks a victim.
    // A threshold of 0 that exempts no write bypasses a score below it —
    // -3.5 and, had they arrived as scores, NaN and -∞ — and admits a
    // missing one.
    let cfg = icgmm_cache::CacheConfig::new(4096, 4096, 1).unwrap();
    let mut cache = SetAssocCache::new(cfg).unwrap();
    let filter = ThresholdAdmit {
        threshold: 0.0,
        admit_writes_always: false,
    };
    let mut policy = Policy::new(Some(filter), GmmScorePolicy::new(1, 1));
    let raws = [0.25, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.5];
    let mut admitted = Vec::new();
    for (seq, raw) in raws.into_iter().enumerate() {
        let r = TraceRecord::read((seq as u64) << 12);
        let mut asked = 0;
        let score = |_| {
            asked += 1;
            Some(raw)
        };
        let outcome = cache.access_scored(&r, seq as u64, score, &mut policy);
        assert!(!outcome.is_hit());
        assert_eq!(asked, 1, "a miss asks for its score once");
        if let AccessOutcome::MissInserted { evicted, .. } = outcome {
            assert_eq!(
                evicted.is_some(),
                seq > 0,
                "the first miss fills the empty way"
            );
            admitted.push(stored(&policy, 0, 0));
        }
    }
    // Admitted as unscored misses, stored as no score; -3.5 bypassed.
    assert_eq!(admitted, [Some(0.25), None, None, None]);

    // An unscored miss is admitted by the threshold filter, evicts by
    // recency and leaves its block unscored — for NaN, +∞ and -∞ alike.
    for raw in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let cfg = icgmm_cache::CacheConfig::new(2 * 4096, 4096, 2).unwrap();
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let mut policy = Policy::new(Some(ThresholdAdmit::new(0.5)), GmmScorePolicy::new(1, 2));
        let mut miss = |policy: &mut Policy, page: u64, raw: f64| {
            let r = TraceRecord::read(page << 12);
            match cache.access_scored(&r, page, |_| Some(raw), policy) {
                AccessOutcome::MissInserted { way, .. } => way,
                other => panic!("expected an admitted miss, got {other:?}"),
            }
        };
        miss(&mut policy, 0, 0.6); // way 0: lower score, least recent
        miss(&mut policy, 1, 0.9); // way 1: higher score, most recent
        miss(&mut policy, 2, 0.7); // scored: the lowest score (way 0) goes
        assert_eq!(
            miss(&mut policy, 3, raw),
            1,
            "unscored {raw}: the least recent"
        );
        assert_eq!(stored(&policy, 0, 1), None, "nothing non-finite is stored");
        // Scores are back: the unscored block is re-scored (0.8 here),
        // then the lowest stored score goes.
        assert_eq!(miss(&mut policy, 4, 0.8), 0, "re-scored {raw}");
        assert_eq!(stored(&policy, 0, 1), Some(0.8));
    }
}

/// A score source that deterministically emits NaN / ±Inf alongside
/// ordinary values.
fn non_finite_score() -> FnScore<impl FnMut(u64, u64) -> f64> {
    FnScore::new(|page, seq| {
        let h = (page ^ 0xA5A5_5A5A)
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(seq);
        match h % 7 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => (h >> 32) as f64 / u32::MAX as f64,
        }
    })
}

proptest! {
    /// Satellite: an engine that emits NaN/±Inf never panics the replay
    /// stack, never corrupts accounting (stats stay balanced because the
    /// simulator asserts internally), and two replays of the poisoned
    /// score stream agree bit-for-bit.
    #[test]
    fn non_finite_engine_scores_replay_identically_and_never_panic(
        params in (0u64..1_000_000, 400usize..1000, 24u64..120, 60u64..140)
    ) {
        let (seed, n, pages, skew_pct) = params;
        let cfg = small_cfg();
        let lat = LatencyModel::paper_tlc();
        let trace = zipf_trace(seed, n, pages, skew_pct as f64 / 100.0, 25);
        let (warm, meas) = trace.split_at(n / 4);
        let (sets, ways) = (cfg.num_sets(), cfg.ways);

        let replay = || {
            let mut cache = SetAssocCache::new(cfg).unwrap();
            let mut ev = GmmScorePolicy::new(sets, ways);
            let mut ad = ThresholdAdmit::new(0.5);
            let mut sc = non_finite_score();
            simulate_streaming_with_warmup(
                warm, meas, &mut cache, &mut ad, &mut ev,
                Some(&mut sc as &mut dyn ScoreSource),
                &lat, Some(64),
            )
        };
        let first = replay();
        prop_assert_eq!(&first, &replay(), "poisoned scores broke replay determinism");
        prop_assert_eq!(first.stats.accesses(), meas.len() as u64);
    }
}

fn sharded_run(plan: FaultPlan, shards: usize, trace: &[TraceRecord]) -> ShardedReport {
    let cfg = small_cfg();
    let lat = LatencyModel::paper_tlc();
    ShardedSimulator::new(shards)
        .with_faults(plan)
        .run(
            trace,
            trace.len() / 4,
            cfg,
            &|ctx| {
                let recs: Vec<TraceRecord> = ctx.records().copied().collect();
                ShardPolicies {
                    policy: policy_for("gmm-score", "threshold", cfg, &recs),
                    score: score_for("fn"),
                }
            },
            &lat,
            Some(64),
        )
        .expect("armed shards recover, they never error")
}

proptest! {
    /// Fault-laden sharded replay is a pure function of
    /// `(plan seed, trace seed)`: re-running the same chaos plan at any
    /// shard count reproduces the report — including every fault
    /// counter — bit for bit.
    #[test]
    fn fault_laden_sharded_replay_is_deterministic_from_seeds(
        params in (0u64..1_000_000, 0u64..1_000_000, 500usize..1200, 24u64..120)
    ) {
        let (plan_seed, trace_seed, n, pages) = params;
        let trace = zipf_trace(trace_seed, n, pages, 0.9, 20);
        let plan = FaultPlan::chaos(plan_seed);
        for shards in [1usize, 2, 4, 8] {
            let a = sharded_run(plan, shards, &trace);
            let b = sharded_run(plan, shards, &trace);
            prop_assert_eq!(&a.sim, &b.sim, "non-deterministic at {} shards", shards);
            prop_assert_eq!(a.sim.fault, b.sim.fault);
        }
    }
}

proptest! {
    /// Device faults are a function of position: with a device-armed plan
    /// (shard panics armed too), the report at 2, 4 and 8 shards is the
    /// one-shard report once the panic counters are scrubbed. The faults
    /// are charged (device counters > 0, `total_us` above the unarmed
    /// run's by exactly what they added to the faulted requests) and touch
    /// modeled time only (`stats` and the miss series are the unarmed
    /// run's).
    #[test]
    fn device_faults_are_a_function_of_position_at_every_shard_count(
        params in (0u64..1_000_000, 0u64..1_000_000, 500usize..1200, 24u64..120)
    ) {
        let (plan_seed, trace_seed, n, pages) = params;
        let trace = zipf_trace(trace_seed, n, pages, 0.9, 20);
        let plan = FaultPlan {
            device_fail_per_mille: 150,
            device_spike_per_mille: 100,
            ..FaultPlan::chaos(plan_seed)
        };
        let scrubbed = |shards| {
            let mut sim = sharded_run(plan, shards, &trace).sim;
            (sim.fault.shard_panics, sim.fault.shard_recoveries) = (0, 0);
            sim
        };
        let one = scrubbed(1);
        for shards in [2usize, 4, 8] {
            prop_assert_eq!(&scrubbed(shards), &one, "diverged at {} shards", shards);
        }
        let unarmed = sharded_run(FaultPlan::empty(), 1, &trace).sim;
        prop_assert!(one.fault.device_failures + one.fault.device_spikes > 0);
        prop_assert!(one.fault.device_fault_as > 0);
        prop_assert_eq!(&one.stats, &unarmed.stats);
        prop_assert_eq!(&one.miss_series, &unarmed.miss_series);
        prop_assert!(one.total_us > unarmed.total_us);
        prop_assert_eq!(one.total_us, unarmed.total_us + micros(one.fault.device_request_as));
    }
}

/// An armed panic point fires in every shard worker (1000‰), the
/// supervisor re-replays each lost shard, and the summed accounting is
/// identical to an undisturbed run — the only trace the faults leave is
/// the panic/recovery counters. One shard replays inline on the calling
/// thread (the geometry `Icgmm::run` is) and recovers the same way.
#[test]
fn armed_shard_panics_recover_with_identical_accounting() {
    let trace = zipf_trace(11, 1200, 96, 0.9, 25);
    for shards in [1usize, 4] {
        let clean = sharded_run(FaultPlan::empty(), shards, &trace);
        let armed = sharded_run(
            FaultPlan {
                seed: 7,
                shard_panic_per_mille: 1000,
                ..FaultPlan::empty()
            },
            shards,
            &trace,
        );
        let fault = armed.sim.fault;
        assert_eq!(fault.shard_panics, shards as u64, "every shard panics");
        assert_eq!(fault.shard_panics, fault.shard_recoveries);
        let mut scrubbed = armed.sim.clone();
        scrubbed.fault = clean.sim.fault;
        assert_eq!(
            scrubbed, clean.sim,
            "recovery changed the replay accounting at {shards} shards"
        );
    }
}

/// Satellite: a panic the fault plan did *not* arm (a genuine bug in the
/// score stack that recurs on re-replay) surfaces as the typed
/// [`ShardRunError::ShardFailed`] instead of aborting the process.
#[test]
fn unrecoverable_worker_panics_surface_as_typed_errors() {
    let cfg = small_cfg();
    let lat = LatencyModel::paper_tlc();
    let trace = conflict_trace(600, 256, 3);
    let err = ShardedSimulator::new(2)
        .run(
            &trace,
            100,
            cfg,
            &|_ctx| ShardPolicies {
                policy: Policy::lru(cfg.num_sets(), cfg.ways),
                score: score_for("poison"),
            },
            &lat,
            None,
        )
        .expect_err("a recurring panic must become an error");
    match err {
        ShardRunError::ShardFailed { message, .. } => {
            assert!(message.contains("poisoned score"), "got: {message}");
        }
        other => panic!("expected ShardFailed, got {other:?}"),
    }
}

/// A block inserted by an untrusted miss is re-scored at the next miss
/// with a trusted score that must evict from its set — at that miss's
/// position, before the victim is ranked — and not by an untrusted miss
/// in between. A replay whose every score is trusted asks for the misses'
/// scores only.
#[test]
fn an_unscored_block_is_rescored_at_the_next_trusted_eviction_in_its_set() {
    // One set of two ways; positions 2 and 3 score NaN, every other
    // position scores the page number.
    let cfg = icgmm_cache::CacheConfig::new(2 * 4096, 4096, 2).unwrap();
    let trace: Vec<TraceRecord> = (10..15u64).map(|p| TraceRecord::read(p << 12)).collect();
    let replay = |nan_at: &'static [u64]| {
        let inner = FnScore::new(|page, pos| {
            if nan_at.contains(&pos) {
                f64::NAN
            } else {
                page as f64
            }
        });
        let mut score = CountingScore(Box::new(inner), Vec::new());
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let mut policy = Policy::new(None, GmmScorePolicy::new(1, 2));
        let lat = LatencyModel::paper_tlc();
        simulate(
            &trace,
            &mut cache,
            &mut policy,
            Some(&mut score),
            &lat,
            None,
        );
        (score.1, cache)
    };
    // 10 and 11 fill the set; 12 and 13 evict them by recency, unscored
    // (13's miss re-scores nothing); 14's trusted miss re-scores 12 and
    // 13 at its own position 4, and 12 — the lower score — goes.
    let (asked, cache) = replay(&[2, 3]);
    let want = [
        (10, 0),
        (11, 1),
        (12, 2),
        (13, 3),
        (14, 4),
        (12, 4),
        (13, 4),
    ];
    assert_eq!(asked, want);
    let cached = |p| cache.contains(PageIndex::new(p));
    assert!(!cached(12) && cached(13) && cached(14));
    // A clean replay makes no re-score call.
    let (asked, _) = replay(&[]);
    assert_eq!(asked, [(10, 0), (11, 1), (12, 2), (13, 3), (14, 4)]);
}

fn assert_stored_scores_finite(policy: &Policy, cfg: icgmm_cache::CacheConfig) {
    for set in 0..cfg.num_sets() {
        for way in 0..cfg.ways {
            let s = stored(policy, set, way);
            assert!(
                s.is_none_or(f64::is_finite),
                "stored score {s:?} at ({set}, {way})"
            );
        }
    }
}

proptest! {
    /// After any replay under any scorer-fault plan — over an engine that
    /// emits NaN / ±Inf on its own, too — no stored score is non-finite.
    #[test]
    fn no_stored_score_is_ever_non_finite(
        params in (0u64..1_000_000, 400usize..1000, 24u64..120),
        plan in (0u64..1_000_000, 0u16..1001, 0u16..41, 1u32..97),
        poisoned_engine in any::<bool>(),
    ) {
        let (seed, n, pages) = params;
        let (plan_seed, nan_pm, outage_pm, outage_len) = plan;
        let plan = FaultPlan {
            seed: plan_seed,
            scorer_nan_per_mille: nan_pm,
            scorer_outage_per_mille: outage_pm,
            scorer_outage_len: outage_len,
            ..FaultPlan::empty()
        };
        prop_assert!(plan.validate().is_ok());
        let cfg = small_cfg();
        let trace = zipf_trace(seed, n, pages, 0.9, 20);
        let inner: Box<dyn ScoreSource + Send> = if poisoned_engine {
            Box::new(non_finite_score())
        } else {
            score_for("fn").expect("fn score")
        };
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let mut policy = policy_for("gmm-score", "threshold", cfg, &trace);
        let mut sc = FaultyScore::new(inner, plan);
        let report = simulate(
            &trace, &mut cache, &mut policy,
            Some(&mut sc as &mut dyn ScoreSource),
            &LatencyModel::paper_tlc(), None,
        );
        prop_assert_eq!(report.stats.accesses(), n as u64);
        assert_stored_scores_finite(&policy, cfg);
    }
}
