//! Differential property suite for the serving front-end: a served trace
//! reports **bit-identically** to the offline sharded replay (and hence to
//! the single-threaded simulator) for every shard count in {1, 2, 4, 8} ×
//! client count × queue depth, under the paper's integer-µs latency
//! constants and the non-integer cycle-derived model, with and without
//! device faults — plus "a never-trusted scorer serves as LRU", the
//! backpressure property, and transparent recovery from armed worker
//! panics. The input is one slice and one boundary: wherever
//! `measured_from` falls in `[0, n]`, a served session equals the frozen
//! two-slice replay of the same split, and a boundary past the end is a
//! typed refusal.

use icgmm_cache::{
    simulate_streaming_with_warmup, FaultPlan, LatencyModel, ScoreSource, SetAssocCache, ShardCtx,
    ShardPolicies, ShardRunError, ShardedSimulator, SimReport,
};
use icgmm_serve::{CacheServer, ServeConfig, ServeError, ServeReport};
use icgmm_testutil::{
    conflict_trace, latency_for, policy_for, score_for, small_cfg, zipf_trace, CountingScore,
    GMM_STACKS, UNTRUSTED_SCORES,
};
use icgmm_trace::TraceRecord;
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Serves the trace through a [`CacheServer`] over the grid fixtures,
/// under the paper's latency constants.
fn serve(
    cfg: ServeConfig,
    eviction: &str,
    admission: &str,
    score: &str,
    trace: &[TraceRecord],
    warmup_len: usize,
) -> Result<ServeReport, ServeError> {
    let lat = LatencyModel::paper_tlc();
    serve_under(&lat, cfg, eviction, admission, score, trace, warmup_len)
}

/// [`serve`] under an explicit latency model.
fn serve_under(
    lat: &LatencyModel,
    cfg: ServeConfig,
    eviction: &str,
    admission: &str,
    score: &str,
    trace: &[TraceRecord],
    warmup_len: usize,
) -> Result<ServeReport, ServeError> {
    let cache_cfg = small_cfg();
    CacheServer::new(cfg)?.serve(
        trace,
        warmup_len,
        cache_cfg,
        &|ctx| {
            // Belady's oracle must see this shard's subsequence.
            let recs: Vec<TraceRecord> = ctx.records().copied().collect();
            ShardPolicies {
                policy: policy_for(eviction, admission, cache_cfg, &recs),
                score: score_for(score),
            }
        },
        lat,
        Some(64),
    )
}

/// The offline reference: [`ShardedSimulator`] over the same inputs.
fn offline(
    shards: usize,
    eviction: &str,
    admission: &str,
    score: &str,
    trace: &[TraceRecord],
    warmup_len: usize,
) -> (SimReport, u64) {
    let (plan, lat) = (FaultPlan::empty(), LatencyModel::paper_tlc());
    offline_with(
        plan, &lat, shards, eviction, admission, score, trace, warmup_len,
    )
}

/// [`offline`] with a fault plan armed (shard-worker panic points, device
/// faults), under an explicit latency model.
#[allow(clippy::too_many_arguments)]
fn offline_with(
    plan: FaultPlan,
    lat: &LatencyModel,
    shards: usize,
    eviction: &str,
    admission: &str,
    score: &str,
    trace: &[TraceRecord],
    warmup_len: usize,
) -> (SimReport, u64) {
    let cache_cfg = small_cfg();
    let rep = ShardedSimulator::new(shards)
        .with_faults(plan)
        .run(
            trace,
            warmup_len,
            cache_cfg,
            &|ctx| {
                let recs: Vec<TraceRecord> = ctx.records().copied().collect();
                ShardPolicies {
                    policy: policy_for(eviction, admission, cache_cfg, &recs),
                    score: score_for(score),
                }
            },
            lat,
            Some(64),
        )
        .expect("valid geometry");
    (rep.sim, rep.scores_consumed)
}

proptest! {
    /// Served report == offline sharded replay, bit for bit, across
    /// {score-free LRU, Belady oracle, scored GMM-threshold} × every shard
    /// count × varying client counts and queue depths over random Zipf
    /// traces, the latency model drawn from {`paper_tlc`, the cycle-derived
    /// one} and, independently, device faults armed or not.
    #[test]
    fn served_stream_matches_offline_replay(
        params in (0u64..1_000_000, 300usize..1000, 24u64..160, 60u64..140, 0u8..45)
    ) {
        let (seed, n, pages, skew_pct, write_pct) = params;
        let trace = zipf_trace(seed, n, pages, skew_pct as f64 / 100.0, write_pct);
        let warmup_len = (seed as usize) % (n / 2);
        let lat = &latency_for(seed);
        let plan = if seed & 2 == 0 {
            FaultPlan::empty()
        } else {
            FaultPlan {
                seed,
                device_fail_per_mille: 150,
                device_spike_per_mille: 100,
                ..FaultPlan::empty()
            }
        };
        let grid = [
            ("lru", "always", "none"),
            ("belady", "always", "none"),
            ("gmm-score", "threshold", "fn"),
        ];
        for (i, (eviction, admission, score)) in grid.into_iter().enumerate() {
            for shards in SHARD_COUNTS {
                let (reference, ref_scores) = offline_with(
                    plan, lat, shards, eviction, admission, score, &trace, warmup_len,
                );
                // Vary the serving-only knobs with the case seed: they
                // must never show up in the merged report.
                let clients = 1 + (seed as usize + shards + i) % 3;
                let queue_depth = [1, 2, 7, 64][(seed as usize + shards) % 4];
                let rep = serve_under(
                    lat,
                    ServeConfig {
                        shards,
                        clients,
                        queue_depth,
                        fault: plan,
                    },
                    eviction, admission, score, &trace, warmup_len,
                ).expect("serving succeeds");
                prop_assert_eq!(
                    &rep.sim, &reference,
                    "serving changed the report: {} shards, {} clients, depth {}, {:?}",
                    shards, clients, queue_depth, plan
                );
                prop_assert_eq!(rep.scores_consumed, ref_scores);
                prop_assert_eq!(rep.requests as usize, n);
                prop_assert_eq!(rep.sheds, 0);
                if plan.device_armed() && rep.sim.stats.misses() >= 64 {
                    prop_assert!(rep.sim.fault.device_request_as > 0, "the plan must fire");
                }
            }
        }
    }

    /// A scorer that is never trusted *is* LRU, served: under an engine
    /// that only says NaN and under a permanent outage, each of the paper's
    /// three GMM stacks serves the counts, modeled time and miss series of
    /// the offline score-free LRU replay, at 1, 2
    /// and 4 shards over Zipf and conflict traces.
    #[test]
    fn an_untrusted_scorer_serves_as_lru(
        params in (0u64..1_000_000, 300usize..1000, 24u64..160, 60u64..140, 0u8..45)
    ) {
        let (seed, n, pages, skew_pct, write_pct) = params;
        let warmup_len = (seed as usize) % (n / 2);
        let lat = &latency_for(seed);
        for trace in [
            zipf_trace(seed, n, pages, skew_pct as f64 / 100.0, write_pct),
            conflict_trace(n, pages * 4, seed),
        ] {
            let (lru, _) = offline_with(
                FaultPlan::empty(), lat, 1, "lru", "always", "none", &trace, warmup_len,
            );
            for (i, score) in UNTRUSTED_SCORES.into_iter().enumerate() {
                for (eviction, admission) in GMM_STACKS {
                    for shards in [1usize, 2, 4] {
                        let cfg = ServeConfig {
                            shards,
                            clients: 1 + (seed as usize + shards + i) % 3,
                            queue_depth: [1, 2, 7, 64][(seed as usize + shards) % 4],
                            ..ServeConfig::default()
                        };
                        let rep = serve_under(
                            lat, cfg, eviction, admission, score, &trace, warmup_len,
                        ).expect("serving succeeds");
                        let what = format!(
                            "{eviction}/{admission}/{score} at {shards} shards (seed {seed}, n {n})"
                        );
                        prop_assert_eq!(&rep.sim.stats, &lru.stats, "{}", &what);
                        prop_assert_eq!(rep.sim.total_us, lru.total_us, "{}", &what);
                        prop_assert_eq!(&rep.sim.miss_series, &lru.miss_series, "{}", &what);
                        prop_assert!(rep.scores_consumed >= lru.stats.misses(), "{}", &what);
                    }
                }
            }
        }
    }

    /// The boundary is one number: for split points `m` across `[0, n]`,
    /// both ends included, serving `(records, m)` at 1, 2 and 4 shards
    /// reports — and consumes scores — bit-identically to the frozen
    /// two-slice replay of `records[..m]`, `records[m..]`.
    #[test]
    fn any_split_point_serves_as_the_frozen_two_slice_replay(
        params in (0u64..1_000_000, 0usize..600, 24u64..160)
    ) {
        let (seed, n, pages) = params;
        let trace = zipf_trace(seed, n, pages, 0.9, 20);
        let lat = &latency_for(seed);
        let cfg = small_cfg();
        for m in [0, n, seed as usize % (n + 1)] {
            for (eviction, admission, score) in
                [("belady", "always", "none"), ("gmm-score", "threshold", "fn")]
            {
                let mut c = SetAssocCache::new(cfg).unwrap();
                let mut pol = policy_for(eviction, admission, cfg, &trace);
                let mut sc = score_for(score).map(|s| CountingScore(s, 0));
                let reference = simulate_streaming_with_warmup(
                    &trace[..m], &trace[m..], &mut c, &mut pol.admit, &mut pol.evict,
                    sc.as_mut().map(|s| s as &mut dyn ScoreSource), lat, Some(64),
                );
                let consumed = sc.map_or(0, |s| s.1);
                for shards in [1usize, 2, 4] {
                    let serve_cfg = ServeConfig {
                        shards,
                        clients: 1 + (seed as usize + shards) % 3,
                        queue_depth: [1, 2, 7, 64][(seed as usize + shards) % 4],
                        ..ServeConfig::default()
                    };
                    let rep = serve_under(lat, serve_cfg, eviction, admission, score, &trace, m)
                        .expect("serving succeeds");
                    let what = format!("{eviction}/{score} split at {m} of {n}, {shards} shards");
                    prop_assert_eq!(&rep.sim, &reference, "{}", &what);
                    prop_assert_eq!(rep.scores_consumed, consumed, "{}", &what);
                }
            }
        }
    }

    /// Armed shard-worker panics are recovered transparently: the report
    /// is still bit-identical to the undisturbed offline replay, and the
    /// fault telemetry shows every panic matched by a recovery — the same
    /// panics and recoveries, fault block included, as the offline engine
    /// under the same armed plan (one lifecycle behind both).
    #[test]
    fn worker_deaths_are_recovered_bit_identically(
        params in (0u64..1_000_000, 200usize..600, 24u64..96)
    ) {
        let (seed, n, pages) = params;
        let trace = zipf_trace(seed, n, pages, 0.4, 25);
        let warmup_len = n / 4;
        let plan = FaultPlan {
            seed,
            shard_panic_per_mille: 1000, // every shard dies once
            ..FaultPlan::default()
        };
        let lat = &latency_for(seed);
        for (eviction, admission, score) in
            [("lru", "always", "none"), ("gmm-score", "threshold", "fn")]
        {
            let (reference, ref_scores) = offline_with(
                FaultPlan::empty(), lat, 4, eviction, admission, score, &trace, warmup_len,
            );
            let rep = serve_under(
                lat,
                ServeConfig {
                    shards: 4,
                    clients: 2,
                    queue_depth: 4,
                    fault: plan,
                },
                eviction, admission, score, &trace, warmup_len,
            ).expect("recovery masks every armed panic");
            prop_assert_eq!(&rep.sim.stats, &reference.stats);
            prop_assert_eq!(rep.sim.total_us, reference.total_us);
            prop_assert_eq!(&rep.sim.miss_series, &reference.miss_series);
            prop_assert_eq!(rep.scores_consumed, ref_scores);
            prop_assert!(rep.sim.fault.shard_panics > 0, "plan must fire");
            prop_assert_eq!(rep.sim.fault.shard_panics, rep.sim.fault.shard_recoveries);
            let (armed, armed_scores) =
                offline_with(plan, lat, 4, eviction, admission, score, &trace, warmup_len);
            prop_assert_eq!(&rep.sim, &armed, "served vs offline under the same armed plan");
            prop_assert_eq!(rep.scores_consumed, armed_scores);
        }
    }
}

/// Wide-geometry interleave stress for the per-shard transport buffers: a
/// sequential scan routes consecutive records to consecutive shards, so
/// every per-shard client buffer is non-empty almost always and tiny
/// queue depths force constant blocking sends — the regime where, while a
/// merger consumed outcomes in global order, a mis-ordered flush would
/// deadlock (this test hanging). Nothing waits on global order any more;
/// the test stays as the transport's stress, and a lost or misrouted
/// record would fail the workers' arrival check (a panic). More shards
/// than clients makes each client juggle several buffers at once.
#[test]
fn interleaved_scan_ordered_flush_is_deadlock_free_and_exact() {
    let n = 2000u64;
    let scan: Vec<TraceRecord> = (0..n).map(|i| TraceRecord::read((i % 509) << 12)).collect();
    let warmup_len = 250;
    for shards in [4usize, 8] {
        for clients in [1usize, 2, 3] {
            for queue_depth in [1usize, 2, 7] {
                let (reference, _) = offline(shards, "lru", "always", "none", &scan, warmup_len);
                let rep = serve(
                    ServeConfig {
                        shards,
                        clients,
                        queue_depth,
                        ..ServeConfig::default()
                    },
                    "lru",
                    "always",
                    "none",
                    &scan,
                    warmup_len,
                )
                .expect("serving succeeds");
                assert_eq!(
                    rep.sim, reference,
                    "scan diverged at {shards} shards, {clients} clients, depth {queue_depth}"
                );
                assert_eq!(rep.sheds, 0);
            }
        }
    }
}

/// Backpressure: behind depth-1 queues the clients block on their
/// workers constantly — nobody sheds, nothing changes.
#[test]
fn blocking_backpressure_serves_exactly() {
    let trace = zipf_trace(11, 300, 32, 0.2, 15);
    let rep = serve(
        ServeConfig {
            shards: 2,
            clients: 2,
            queue_depth: 1,
            ..ServeConfig::default()
        },
        "gmm-score",
        "threshold",
        "fn",
        &trace,
        75,
    )
    .expect("serving succeeds");
    let (reference, _) = offline(2, "gmm-score", "threshold", "fn", &trace, 75);
    assert_eq!(rep.sim, reference);
    assert_eq!(rep.sheds, 0);
}

/// A boundary past the end of the trace is the offline engine's typed
/// refusal, raised before any worker exists — never clamped into range.
#[test]
fn a_boundary_past_the_end_is_a_typed_error() {
    let trace = zipf_trace(3, 200, 32, 0.2, 15);
    let refused = |_: &ShardCtx<'_>| -> ShardPolicies {
        panic!("no shard may be built for a refused session")
    };
    for shards in [1usize, 2, 4] {
        let server = CacheServer::new(ServeConfig {
            shards,
            ..ServeConfig::default()
        })
        .unwrap();
        let lat = LatencyModel::paper_tlc();
        let err = server
            .serve(&trace, 201, small_cfg(), &refused, &lat, None)
            .err();
        let want = ShardRunError::MeasuredPastEnd {
            measured_from: 201,
            records: 200,
        };
        assert_eq!(err, Some(ServeError::Shard(want)), "{shards} shards");
    }
}

/// A panic the fault plan did *not* arm — a genuine policy bug that
/// recurs on re-replay — surfaces from a served session as the offline
/// engine's own typed [`ShardRunError::ShardFailed`], carrying the
/// worker's payload and the re-replay's, and the session still shuts down
/// cleanly (every client and worker joins, or this test hangs).
#[test]
fn unrecoverable_worker_panics_surface_as_typed_errors() {
    let trace = zipf_trace(13, 600, 256, 0.2, 10);
    let err = serve(
        ServeConfig {
            shards: 2,
            clients: 2,
            queue_depth: 4,
            ..ServeConfig::default()
        },
        "lru",
        "always",
        "poison",
        &trace,
        100,
    )
    .expect_err("a recurring panic must become an error");
    match err {
        ServeError::Shard(ShardRunError::ShardFailed { message, .. }) => {
            assert!(
                message.contains("worker panicked (poisoned score)")
                    && message.contains("re-replay panicked too (poisoned score)"),
                "both payloads must be reported, got: {message}"
            );
        }
        other => panic!("expected ShardFailed, got {other:?}"),
    }
}
