//! The fault framework's zero-cost guarantee: an **empty** [`FaultPlan`]
//! is bit-identical to today's engines. Two layers are proven over the
//! eviction × admission × score × shard grid:
//!
//! * arming the sharded engine with an empty plan changes nothing — the
//!   merged report (stats, timing, names, fault block) equals the plain
//!   engine's, for every shard count;
//! * the one wrapper is itself transparent when disarmed — a stack whose
//!   scores pass through [`FaultyScore`] on an empty plan replays to the
//!   same report as the bare stack.

use icgmm_cache::{
    simulate_streaming_with_warmup, AdaptStats, FaultPlan, FaultStats, FaultyScore, LatencyModel,
    ScoreSource, ShardPolicies, ShardedSimulator, SimReport,
};
use icgmm_testutil::{
    admission_for, eviction_for, latency_for, score_for, small_cfg, zipf_trace, ADMISSIONS,
    EVICTIONS, SCORES,
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
    let mut sim = ShardedSimulator::new(shards);
    if let Some(p) = fault {
        sim = sim.with_faults(p);
    }
    sim.run(
        trace,
        warmup_len,
        cfg,
        &|ctx| {
            let recs: Vec<TraceRecord> = ctx.records().copied().collect();
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
        for eviction in EVICTIONS {
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
    /// The wrapper is transparent while disarmed: scores pass through
    /// [`FaultyScore`] unmodified and its monitor never degrades, so the
    /// wrapped stack's report equals the bare stack's, names included (no
    /// policy is ever wrapped).
    #[test]
    fn disarmed_wrappers_are_transparent(
        params in (0u64..1_000_000, 400usize..1000, 24u64..120)
    ) {
        let (seed, n, pages) = params;
        let cfg = small_cfg();
        let lat = latency_for(seed);
        let trace = zipf_trace(seed, n, pages, 0.9, 20);
        let (warm, meas) = trace.split_at(n / 4);

        let replay = |score: &mut dyn ScoreSource| {
            let mut cache = icgmm_cache::SetAssocCache::new(cfg).unwrap();
            let mut ev = eviction_for("gmm-score", cfg, &trace);
            let mut ad = admission_for("threshold");
            simulate_streaming_with_warmup(
                warm, meas, &mut cache, ad.as_mut(), ev.as_mut(), Some(score), &lat, Some(64),
            )
        };
        let bare = replay(&mut score_for("fn").expect("fn score"));
        let mut wrapped = FaultyScore::new(score_for("fn").expect("fn score"), FaultPlan::empty());
        prop_assert_eq!(&bare, &replay(&mut wrapped));

        let (mut fault, mut adapt) = (FaultStats::default(), AdaptStats::default());
        wrapped.telemetry(&mut fault, &mut adapt);
        prop_assert!(fault.is_clean(), "a disarmed wrapper recorded faults");
    }
}
