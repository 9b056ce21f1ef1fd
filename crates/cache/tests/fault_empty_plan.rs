//! The fault framework's zero-cost guarantee: an **empty** [`FaultPlan`]
//! is bit-identical to today's engines. Two layers are proven over the
//! eviction × admission × score × shard grid:
//!
//! * arming the sharded engine with an empty plan changes nothing — the
//!   merged report (stats, timing, names, fault block) equals the plain
//!   engine's, for every shard count;
//! * the wrappers themselves are transparent when disarmed — a fully
//!   wrapped stack ([`FaultyScore`] + [`FailoverEviction`] +
//!   [`FailoverAdmission`] on an empty plan) replays to the same
//!   accounting as the bare policies.

use icgmm_cache::{
    simulate_streaming_with_warmup, AdaptStats, FailoverAdmission, FailoverEviction, FaultPlan,
    FaultStats, FaultyScore, LatencyModel, LruPolicy, ScoreSource, ScorerHealth, ShardPolicies,
    ShardedSimulator, SimReport,
};
use icgmm_testutil::{
    admission_for, eviction_for, latency_for, score_for, small_cfg, zipf_trace, ADMISSIONS, SCORES,
    SHARDABLE_EVICTIONS,
};
use icgmm_trace::TraceRecord;
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[allow(clippy::too_many_arguments)]
fn run_sharded(
    fault: Option<FaultPlan>,
    shards: usize,
    eviction: &str,
    admission: &str,
    score: &str,
    trace: &[TraceRecord],
    warmup_len: usize,
    lat: &LatencyModel,
) -> SimReport {
    let cfg = small_cfg();
    let (warm, meas) = trace.split_at(warmup_len);
    let mut sim = ShardedSimulator::new(shards);
    if let Some(p) = fault {
        sim = sim.with_faults(p);
    }
    sim.run(
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
                admission: admission_for(admission),
                eviction: eviction_for(eviction, cfg, &recs),
                score: score_for(score),
            }
        },
        lat,
        Some(64),
    )
    .expect("valid geometry")
    .sim
}

proptest! {
    /// `with_faults(FaultPlan::empty())` is invisible: for every grid
    /// combination and shard count, the armed-but-empty engine's report is
    /// bit-identical to the plain engine's, and its fault block is clean —
    /// the latency model drawn from {`paper_tlc`, the cycle-derived one}.
    #[test]
    fn empty_plan_sharded_replay_is_bit_identical(
        params in (0u64..1_000_000, 400usize..1000, 24u64..160, 60u64..140, 0u8..45)
    ) {
        let (seed, n, pages, skew_pct, write_pct) = params;
        let trace = zipf_trace(seed, n, pages, skew_pct as f64 / 100.0, write_pct);
        let warmup_len = (seed as usize) % (n / 2);
        let lat = &latency_for(seed);
        for eviction in SHARDABLE_EVICTIONS {
            for admission in ADMISSIONS {
                for score in SCORES {
                    for shards in SHARD_COUNTS {
                        let plain = run_sharded(
                            None, shards, eviction, admission, score, &trace, warmup_len, lat,
                        );
                        let armed = run_sharded(
                            Some(FaultPlan::empty()),
                            shards, eviction, admission, score, &trace, warmup_len, lat,
                        );
                        prop_assert!(armed.fault.is_clean());
                        prop_assert_eq!(
                            &plain, &armed,
                            "{}/{}/{} diverged under an empty plan at {} shards",
                            eviction, admission, score, shards
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    /// The wrappers are transparent while disarmed: scores pass through
    /// [`FaultyScore`] unmodified and both failover shims keep routing to
    /// their primaries, so the wrapped stack's accounting equals the bare
    /// stack's (policy names differ by construction — `failover(...)` —
    /// so the comparison is field-wise minus the names).
    #[test]
    fn disarmed_wrappers_are_transparent(
        params in (0u64..1_000_000, 400usize..1000, 24u64..120)
    ) {
        let (seed, n, pages) = params;
        let cfg = small_cfg();
        let lat = latency_for(seed);
        let trace = zipf_trace(seed, n, pages, 0.9, 20);
        let (warm, meas) = trace.split_at(n / 4);
        let (sets, ways) = (cfg.num_sets(), cfg.ways);

        let mut c1 = icgmm_cache::SetAssocCache::new(cfg).unwrap();
        let mut ev1 = eviction_for("gmm-score", cfg, &trace);
        let mut ad1 = admission_for("threshold");
        let mut sc1 = score_for("fn");
        let bare = simulate_streaming_with_warmup(
            warm, meas, &mut c1, ad1.as_mut(), ev1.as_mut(),
            sc1.as_deref_mut().map(|s| s as &mut dyn ScoreSource),
            &lat, Some(64),
        );

        let plan = FaultPlan::empty();
        let health = ScorerHealth::new(&plan);
        let mut c2 = icgmm_cache::SetAssocCache::new(cfg).unwrap();
        let mut ev2 = FailoverEviction::new(
            eviction_for("gmm-score", cfg, &trace),
            Box::new(LruPolicy::new(sets, ways)),
            health.clone(),
        );
        let mut ad2 = FailoverAdmission::new(admission_for("threshold"), health.clone());
        let mut sc2 = FaultyScore::new(score_for("fn").expect("fn score"), plan, Some(health));
        let wrapped = simulate_streaming_with_warmup(
            warm, meas, &mut c2, &mut ad2, &mut ev2,
            Some(&mut sc2 as &mut dyn ScoreSource),
            &lat, Some(64),
        );

        let (mut fault, mut adapt) = (FaultStats::default(), AdaptStats::default());
        sc2.telemetry(&mut fault, &mut adapt);
        prop_assert!(fault.is_clean(), "disarmed wrappers recorded faults");
        prop_assert_eq!(&bare.stats, &wrapped.stats);
        prop_assert_eq!(bare.total_us, wrapped.total_us);
        prop_assert_eq!(bare.avg_us, wrapped.avg_us);
        prop_assert_eq!(&bare.miss_series, &wrapped.miss_series);
        prop_assert_eq!(wrapped.eviction, "failover(gmm-score->lru)");
        prop_assert_eq!(wrapped.admission, "failover(gmm-threshold->always)");
    }
}
