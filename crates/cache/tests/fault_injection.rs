//! Fault-armed behaviour of the replay stack: injected faults are
//! deterministic functions of `(plan seed, trace seed)`, every rung of
//! the degradation ladder fires and is counted, and recovery paths keep
//! the replay accounting intact.

use icgmm_cache::{
    simulate_streaming_with_warmup, AccessCtx, AdaptStats, EvictionPolicy, FailoverAdmission,
    FailoverEviction, FaultPlan, FaultStats, FaultyScore, FnScore, GmmScorePolicy, LatencyModel,
    LruPolicy, ScoreSource, ScorerHealth, SetAssocCache, ShardPolicies, ShardRunError,
    ShardedReport, ShardedSimulator, ThresholdAdmit,
};
use icgmm_testutil::{
    admission_for, conflict_trace, eviction_for, score_for, small_cfg, zipf_trace,
};
use icgmm_trace::{Op, PageIndex, TraceRecord};
use proptest::prelude::*;

fn ctx(seq: u64, score: Option<f64>) -> AccessCtx {
    AccessCtx {
        page: PageIndex::new(0),
        op: Op::Read,
        seq,
        score,
    }
}

/// Satellite: non-finite scores flow through [`GmmScorePolicy`] without
/// corrupting victim selection. The strict `<` scan means a NaN-keyed way
/// can never displace a finite-keyed one, and an all-NaN set falls back
/// to way 0.
#[test]
fn non_finite_stored_scores_never_corrupt_victim_selection() {
    let mut p = GmmScorePolicy::new(1, 4);
    for (way, s) in [f64::NAN, 0.5, 0.2, f64::NAN].into_iter().enumerate() {
        p.on_insert(0, way, &ctx(way as u64, Some(s)));
    }
    // Lowest *finite* score wins; the NaN ways are skipped by strict `<`.
    assert_eq!(p.choose_victim(0, 4, &ctx(10, None)), 2);

    // +Inf loses to any finite score; -Inf beats everything.
    let mut p = GmmScorePolicy::new(1, 4);
    for (way, s) in [f64::INFINITY, 9.0, f64::NEG_INFINITY, 3.0]
        .into_iter()
        .enumerate()
    {
        p.on_insert(0, way, &ctx(way as u64, Some(s)));
    }
    assert_eq!(p.choose_victim(0, 4, &ctx(10, None)), 2);

    // All-NaN set: the scan never advances past the initial candidate.
    let mut p = GmmScorePolicy::new(1, 4);
    for way in 0..4 {
        p.on_insert(0, way, &ctx(way as u64, Some(f64::NAN)));
    }
    assert_eq!(p.choose_victim(0, 4, &ctx(10, None)), 0);
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
    let (warm, meas) = trace.split_at(trace.len() / 4);
    ShardedSimulator::new(shards)
        .with_faults(plan)
        .run(
            warm,
            meas,
            cfg,
            &|ctx| {
                let recs: Vec<TraceRecord> = ctx
                    .warmup
                    .iter()
                    .chain(ctx.measured.iter())
                    .copied()
                    .collect();
                ShardPolicies {
                    admission: admission_for("threshold"),
                    eviction: eviction_for("gmm-score", cfg, &recs),
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

/// Satellite: a panic the fault plan did *not* arm (a genuine policy bug
/// that recurs on re-replay) surfaces as the typed
/// [`ShardRunError::ShardFailed`] instead of aborting the process.
#[test]
fn unrecoverable_worker_panics_surface_as_typed_errors() {
    let cfg = small_cfg();
    let lat = LatencyModel::paper_tlc();
    let trace = conflict_trace(600, 256, 3);
    let (warm, meas) = trace.split_at(100);
    let err = ShardedSimulator::new(2)
        .run(
            warm,
            meas,
            cfg,
            &|_ctx| ShardPolicies {
                admission: admission_for("always"),
                eviction: eviction_for("poison", cfg, &[]),
                score: None,
            },
            &lat,
            None,
        )
        .expect_err("a recurring panic must become an error");
    match err {
        ShardRunError::ShardFailed { message, .. } => {
            assert!(message.contains("poisoned victim choice"), "got: {message}");
        }
        other => panic!("expected ShardFailed, got {other:?}"),
    }
}

/// Monitor rungs: a scorer spewing non-finite values demotes gmm-score
/// eviction to LRU and threshold admission to always-admit after the
/// configured streak, serves degraded decisions (counted), and
/// re-promotes once the scorer recovers — all deterministically.
#[test]
fn scorer_health_monitor_demotes_serves_degraded_and_repromotes() {
    let run = || {
        let cfg = small_cfg();
        let lat = LatencyModel::paper_tlc();
        let trace = conflict_trace(3_000, 512, 23);
        let (warm, meas) = trace.split_at(500);
        let plan = FaultPlan {
            seed: 41,
            scorer_nan_per_mille: 350,
            scorer_demote_after: 3,
            scorer_promote_after: 4,
            ..FaultPlan::empty()
        };
        let health = ScorerHealth::new(&plan);
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let mut ev = FailoverEviction::new(
            eviction_for("gmm-score", cfg, &trace),
            Box::new(LruPolicy::new(cfg.num_sets(), cfg.ways)),
            health.clone(),
        );
        let mut ad = FailoverAdmission::new(admission_for("threshold"), health.clone());
        let mut sc = FaultyScore::new(score_for("fn").expect("fn score"), plan, Some(health));
        let report = simulate_streaming_with_warmup(
            warm,
            meas,
            &mut cache,
            &mut ad,
            &mut ev,
            Some(&mut sc as &mut dyn ScoreSource),
            &lat,
            Some(64),
        );
        let (mut fault, mut adapt) = (FaultStats::default(), AdaptStats::default());
        sc.telemetry(&mut fault, &mut adapt);
        (report, fault)
    };

    let (report, fault) = run();
    assert!(fault.scorer_nan_injected > 0, "plan injected nothing");
    assert!(fault.scorer_demotions >= 1, "monitor never demoted");
    assert!(fault.scorer_repromotions >= 1, "monitor never re-promoted");
    assert!(fault.degraded_scores > 0, "no degraded scores served");
    assert!(
        fault.degraded_victims > 0,
        "LRU fallback never chose a victim"
    );
    assert!(
        fault.degraded_admits > 0,
        "always-admit fallback never admitted"
    );
    assert_eq!(report.stats.accesses(), 2_500);

    let (report2, fault2) = run();
    assert_eq!(report, report2, "degraded replay must be deterministic");
    assert_eq!(fault, fault2, "degradation counters must be deterministic");
}
