//! Differential property suite for the sharded replay engine: the summed
//! [`ShardedSimulator`] report is **bit-identical** to the single-threaded
//! simulator for every shard count in {1, 2, 4, 8}, and at two shards under
//! an arbitrary odd mask, across the eviction ×
//! admission × score grid, with random warm-up splits — under the paper's
//! integer-µs latency constants and under the non-integer model `icgmm-hw`
//! derives, where an order-sensitive total would differ between shard
//! counts.
//!
//! Both sides of that comparison derive `total_us` from their counters, so
//! a second property holds them against an oracle that does not: modeled
//! time added up request by request in trace order, and the miss series
//! kept by a sequential window counter (what the replay loop did before
//! accounting became a sum). A third uses the oracle "no score" makes
//! available: a scorer that is never trusted is LRU, at every shard count.
//!
//! The input shape is one slice and one boundary: wherever `measured_from`
//! falls in `[0, n]`, the sharded replay of `(records, measured_from)`
//! equals the frozen two-slice replay of the same split, each shard's
//! `ShardCtx::records` is exactly what it replays, and a boundary past the
//! end is a typed refusal.

use icgmm_cache::{
    simulate_streaming_observed_with_warmup, simulate_streaming_with_warmup, CacheConfig,
    FaultPlan, FnScore, LatencyModel, LruPolicy, Policy, ReplayEvent, ReplayObserver, ScoreSource,
    SetAssocCache, ShardCtx, ShardPartition, ShardPolicies, ShardRunError, ShardSupervisor,
    ShardedReport, ShardedSimulator, SimReport, ThresholdAdmit,
};
use icgmm_testutil::{
    conflict_trace, latency_for, policy_for, score_for, small_cfg, zipf_trace, CountingScore,
    ADMISSIONS, EVICTIONS, GMM_STACKS, UNTRUSTED_SCORES,
};
use icgmm_trace::TraceRecord;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The miss-series window every grid run asks for.
const WINDOW: u64 = 64;

/// One sharded run over the grid fixtures: the summed report.
fn run_sharded(
    shards: usize,
    eviction: &str,
    admission: &str,
    score: &str,
    trace: &[TraceRecord],
    warmup_len: usize,
    lat: &LatencyModel,
) -> SimReport {
    run_sharded_full(shards, eviction, admission, score, trace, warmup_len, lat).sim
}

/// [`run_sharded`] with the engine's whole report.
fn run_sharded_full(
    shards: usize,
    eviction: &str,
    admission: &str,
    score: &str,
    trace: &[TraceRecord],
    warmup_len: usize,
    lat: &LatencyModel,
) -> ShardedReport {
    let engine = ShardedSimulator::new(shards);
    run_on(&engine, eviction, admission, score, trace, warmup_len, lat)
}

/// [`run_sharded_full`] on `engine`.
fn run_on(
    engine: &ShardedSimulator,
    eviction: &str,
    admission: &str,
    score: &str,
    trace: &[TraceRecord],
    warmup_len: usize,
    lat: &LatencyModel,
) -> ShardedReport {
    let cfg = small_cfg();
    engine
        .run(
            trace,
            warmup_len,
            cfg,
            &|ctx| {
                // Belady's oracle must see this shard's subsequence. The
                // fixture API takes a slice, so gather it (test-only copy;
                // the engine itself never materializes).
                let recs: Vec<TraceRecord> = ctx.records().copied().collect();
                ShardPolicies {
                    policy: policy_for(eviction, admission, cfg, &recs),
                    score: score_for(score),
                }
            },
            lat,
            Some(WINDOW),
        )
        .expect("valid geometry")
}

/// The single-threaded reference: the streaming loop.
fn reference(
    eviction: &str,
    admission: &str,
    score: &str,
    trace: &[TraceRecord],
    warmup_len: usize,
    lat: &LatencyModel,
) -> SimReport {
    reference_observed(eviction, admission, score, trace, warmup_len, lat, None)
}

/// [`reference`], optionally with an observer on its event stream.
fn reference_observed(
    eviction: &str,
    admission: &str,
    score: &str,
    trace: &[TraceRecord],
    warmup_len: usize,
    lat: &LatencyModel,
    observer: Option<&mut dyn ReplayObserver>,
) -> SimReport {
    let cfg = small_cfg();
    let (warm, meas) = trace.split_at(warmup_len);

    let mut c = SetAssocCache::new(cfg).unwrap();
    let mut pol = policy_for(eviction, admission, cfg, trace);
    let mut sc = score_for(score);
    let (c, ad, ev) = (&mut c, &mut pol.admit, &mut pol.evict);
    let sc = sc.as_deref_mut().map(|s| s as &mut dyn ScoreSource);
    match observer {
        None => simulate_streaming_with_warmup(warm, meas, c, ad, ev, sc, lat, Some(WINDOW)),
        Some(obs) => simulate_streaming_observed_with_warmup(
            warm,
            meas,
            c,
            ad,
            ev,
            sc,
            lat,
            Some(WINDOW),
            obs,
        ),
    }
}

/// The oracle that can see order: what the replay loop kept before
/// accounting became a sum — modeled time as a running `f64` sum of
/// [`LatencyModel::request_us`] in trace order, and the miss series as a
/// sequential window counter emitting a rate every [`WINDOW`] measured
/// requests.
struct InOrderOracle {
    lat: LatencyModel,
    warmup_len: u64,
    total_us: f64,
    in_window: u64,
    misses_in_window: u64,
    rates: Vec<f64>,
}

impl ReplayObserver for InOrderOracle {
    fn on_record(&mut self, ev: &ReplayEvent<'_>) {
        if ev.seq < self.warmup_len {
            return;
        }
        self.total_us += self.lat.request_us(ev.record.op(), ev.outcome);
        self.in_window += 1;
        self.misses_in_window += u64::from(!ev.outcome.is_hit());
        if self.in_window == WINDOW {
            self.rates
                .push(self.misses_in_window as f64 / WINDOW as f64);
            (self.in_window, self.misses_in_window) = (0, 0);
        }
    }
}

/// The latency models the oracle property sweeps: the three integer-µs
/// presets (bit-equality demanded), the cycle-derived dataflow model, and
/// a finite non-integer model drawn from the seed, overlap on or off.
fn oracle_models(seed: u64) -> Vec<(LatencyModel, bool)> {
    let unit = |shift: u32| ((seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) % 4_096) as f64;
    let random = LatencyModel {
        hit_us: 0.05 + unit(8) / 1_000.0,
        miss_overhead_us: unit(20) / 7_000.0,
        ssd_read_us: 0.5 + unit(32) / 19.0,
        ssd_write_us: 1.0 + unit(44) / 1.7,
        policy_engine_us: 0.3 + unit(52) / 45.0,
        overlap_policy_with_ssd: seed.is_multiple_of(2),
    };
    assert!(random.validate().is_ok());
    vec![
        (LatencyModel::paper_tlc(), true),
        (LatencyModel::low_latency_ssd(), true),
        (LatencyModel::qlc_ssd(), true),
        (latency_for(1), false),
        (random, false),
    ]
}

proptest! {
    /// Sharded replay == single-threaded replay, bit for bit (stats,
    /// `total_us`, `avg_us`, miss series), for every shard count ×
    /// eviction × admission × score combination over random Zipf traces
    /// with random warm-up splits, the latency model drawn from
    /// {`paper_tlc`, the cycle-derived one} — and on two shards routed by
    /// an arbitrary odd mask instead of `set mod 2`.
    #[test]
    fn sharded_replay_matches_single_threaded(
        params in (0u64..1_000_000, 300usize..1200, 24u64..160, (60u64..140), 0u8..45),
        half_mask in 0usize..64,
    ) {
        let (seed, n, pages, skew_pct, write_pct) = params;
        let skew = skew_pct as f64 / 100.0;
        let trace = zipf_trace(seed, n, pages, skew, write_pct);
        let warmup_len = (seed as usize) % (n / 2);
        let lat = &latency_for(seed);
        let mask = 2 * half_mask + 1;
        let masked = ShardedSimulator::partitioned(ShardPartition::masked(&small_cfg(), mask).unwrap());
        for eviction in EVICTIONS {
            for admission in ADMISSIONS {
                for score in ["none", "constant", "fn"] {
                    let reference = reference(eviction, admission, score, &trace, warmup_len, lat);
                    for shards in SHARD_COUNTS {
                        let sim = run_sharded(
                            shards, eviction, admission, score, &trace, warmup_len, lat,
                        );
                        prop_assert_eq!(
                            &reference,
                            &sim,
                            "{}/{}/{} diverged at {} shards (seed {}, n {})",
                            eviction, admission, score, shards, seed, n
                        );
                    }
                    let sim = run_on(&masked, eviction, admission, score, &trace, warmup_len, lat).sim;
                    prop_assert_eq!(
                        &reference,
                        &sim,
                        "{}/{}/{} diverged under mask {} (seed {}, n {})",
                        eviction, admission, score, mask, seed, n
                    );
                }
            }
        }
    }
}

proptest! {
    /// The counted report against the in-order oracle, for every shard
    /// count × eviction × admission × score combination × latency model:
    /// integer stats and the miss series equal, `total_us` bit-equal under
    /// the three integer presets — whatever order the shards counted in —
    /// and within `n · 2⁻⁵²` relative under the non-integer models, where
    /// the *oracle's* running sum rounds once per request and the closed
    /// form does not.
    #[test]
    fn counted_reports_equal_the_in_order_oracle(
        params in (0u64..1_000_000, 300usize..900, 24u64..160, (60u64..140), 0u8..45)
    ) {
        let (seed, n, pages, skew_pct, write_pct) = params;
        let trace = zipf_trace(seed, n, pages, skew_pct as f64 / 100.0, write_pct);
        let warmup_len = (seed as usize) % (n / 2);
        let measured = (n - warmup_len) as f64;
        // Every eviction × admission × score cell per case, each under one
        // of the five models — which one rotates with the cell and the
        // seed, so every (cell, model) pair comes up across cases.
        let models = oracle_models(seed);
        let mut cell = seed as usize;
        for eviction in EVICTIONS {
            for admission in ADMISSIONS {
                for score in ["none", "constant", "fn"] {
                    cell += 1;
                    let (lat, exact) = models[cell % models.len()];
                    let mut oracle = InOrderOracle {
                        lat,
                        warmup_len: warmup_len as u64,
                        total_us: 0.0,
                        in_window: 0,
                        misses_in_window: 0,
                        rates: Vec::new(),
                    };
                    let inline = reference_observed(
                        eviction, admission, score, &trace, warmup_len, &lat, Some(&mut oracle),
                    );
                    for shards in SHARD_COUNTS {
                        let sim = run_sharded(
                            shards, eviction, admission, score, &trace, warmup_len, &lat,
                        );
                        let what = format!(
                            "{eviction}/{admission}/{score} at {shards} shards under {lat:?} \
                             (seed {seed}, n {n})"
                        );
                        prop_assert_eq!(&sim, &inline, "{}", &what);
                        let series = sim.miss_series.as_ref().expect("a series was asked for");
                        prop_assert_eq!(&series.rates(), &oracle.rates, "{}", &what);
                        if exact {
                            prop_assert_eq!(sim.total_us, oracle.total_us, "{}", &what);
                        } else {
                            let bound = measured * f64::EPSILON * oracle.total_us;
                            prop_assert!(
                                (sim.total_us - oracle.total_us).abs() <= bound,
                                "{}: total_us {} vs in-order {}",
                                &what, sim.total_us, oracle.total_us
                            );
                        }
                        prop_assert_eq!(sim.avg_us, sim.total_us / measured, "{}", &what);
                    }
                }
            }
        }
    }
}

proptest! {
    /// A scorer that is never trusted *is* LRU: under an engine that only
    /// says NaN, and under a healthy one behind a permanent outage, each of
    /// the paper's three GMM stacks counts, costs and windows its misses
    /// exactly as score-free LRU does with no engine at all —
    /// over Zipf and conflict traces, at 1, 2 and 4 shards — while every
    /// miss still counts as one inference.
    #[test]
    fn an_untrusted_scorer_is_lru(
        params in (0u64..1_000_000, 300usize..1200, 24u64..160, (60u64..140), 0u8..45)
    ) {
        let (seed, n, pages, skew_pct, write_pct) = params;
        let warmup_len = (seed as usize) % (n / 2);
        let lat = &latency_for(seed);
        for trace in [
            zipf_trace(seed, n, pages, skew_pct as f64 / 100.0, write_pct),
            conflict_trace(n, pages * 4, seed),
        ] {
            let lru = reference("lru", "always", "none", &trace, warmup_len, lat);
            // One inference per miss, warm-up included: what LRU consumes
            // of an engine it ignores.
            let misses = run_sharded_full(1, "lru", "always", "constant", &trace, warmup_len, lat)
                .scores_consumed;
            for score in UNTRUSTED_SCORES {
                for (eviction, admission) in GMM_STACKS {
                    for shards in [1usize, 2, 4] {
                        let rep = run_sharded_full(
                            shards, eviction, admission, score, &trace, warmup_len, lat,
                        );
                        let what = format!(
                            "{eviction}/{admission}/{score} at {shards} shards (seed {seed}, n {n})"
                        );
                        prop_assert_eq!(&rep.sim.stats, &lru.stats, "{}", &what);
                        prop_assert_eq!(rep.sim.total_us, lru.total_us, "{}", &what);
                        prop_assert_eq!(&rep.sim.miss_series, &lru.miss_series, "{}", &what);
                        prop_assert_eq!(rep.scores_consumed, misses, "{}", &what);
                        prop_assert_eq!(
                            rep.sim.fault.scorer_outage_scores,
                            if score == "outage" { rep.scores_consumed } else { 0 },
                            "{}", &what
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
        let page_at = |pos: u64| (pos + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13;
        let trace: Vec<TraceRecord> =
            (0..n as u64).map(|pos| TraceRecord::read(page_at(pos) << 12)).collect();
        let measured_from = seed as usize % n;
        let cfg = small_cfg();
        for shards in SHARD_COUNTS {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let make = |_: &ShardCtx<'_>| {
                let seen = Arc::clone(&seen);
                ShardPolicies {
                    policy: Policy::lru(cfg.num_sets(), cfg.ways),
                    score: Some(Box::new(FnScore::new(move |page, pos| {
                        seen.lock().unwrap().push((pos, page));
                        0.5
                    }))),
                }
            };
            let rep = ShardedSimulator::new(shards)
                .run(&trace, measured_from, cfg, &make, &LatencyModel::paper_tlc(), None)
                .unwrap();
            prop_assert_eq!(rep.scores_consumed, n as u64);
            let mut seen = std::mem::take(&mut *seen.lock().unwrap());
            seen.sort_unstable();
            let want: Vec<(u64, u64)> = (0..n as u64).map(|pos| (pos, page_at(pos))).collect();
            prop_assert_eq!(seen, want, "{} shards (seed {}, n {})", shards, seed, n);
        }
    }
}

/// A score source that logs every `(position, record)` its
/// shard asks it to score — under an admit-nothing policy every record
/// misses, so that is every record the shard replays, in order.
struct Tap(Arc<Mutex<Vec<(u64, TraceRecord)>>>);

impl ScoreSource for Tap {
    fn score(&mut self, record: &TraceRecord, pos: u64) -> f64 {
        self.0.lock().unwrap().push((pos, *record));
        0.5
    }
}

proptest! {
    /// The boundary is one number: for split points `m` across `[0, n]`,
    /// both ends included, the sharded replay of `(records, m)` at 1, 2 and
    /// 4 shards reports — and consumes scores — bit-identically to the
    /// frozen two-slice replay of `records[..m]`, `records[m..]`, across the
    /// eviction × admission grid with and without a score source.
    #[test]
    fn any_split_point_matches_the_frozen_two_slice_replay(
        params in (0u64..1_000_000, 0usize..600, 24u64..160)
    ) {
        let (seed, n, pages) = params;
        let trace = zipf_trace(seed, n, pages, 0.9, 20);
        let lat = &latency_for(seed);
        let cfg = small_cfg();
        for m in [0, n, seed as usize % (n + 1)] {
            for eviction in EVICTIONS {
                for admission in ADMISSIONS {
                    for score in ["none", "fn"] {
                        let mut c = SetAssocCache::new(cfg).unwrap();
                        let mut pol = policy_for(eviction, admission, cfg, &trace);
                        let mut sc = score_for(score).map(|s| CountingScore(s, 0));
                        let reference = simulate_streaming_with_warmup(
                            &trace[..m], &trace[m..], &mut c, &mut pol.admit, &mut pol.evict,
                            sc.as_mut().map(|s| s as &mut dyn ScoreSource), lat, Some(WINDOW),
                        );
                        let consumed = sc.map_or(0, |s| s.1);
                        for shards in [1usize, 2, 4] {
                            let rep = run_sharded_full(
                                shards, eviction, admission, score, &trace, m, lat,
                            );
                            let what = format!(
                                "{eviction}/{admission}/{score} split at {m} of {n}, {shards} shards"
                            );
                            prop_assert_eq!(&rep.sim, &reference, "{}", &what);
                            prop_assert_eq!(rep.scores_consumed, consumed, "{}", &what);
                        }
                    }
                }
            }
        }
    }

    /// `ShardCtx::records` is exactly what its shard replays: the records
    /// `make_shard` is shown equal, in order, the records the shard's score
    /// source is then asked to score (nothing is admitted, so every record
    /// misses), and between them the shards score every position of the
    /// trace once, each with its own record.
    #[test]
    fn shard_ctx_records_are_what_the_shard_replays(
        params in (0u64..1_000_000, 0usize..400, 24u64..160)
    ) {
        let (seed, n, pages) = params;
        let trace = zipf_trace(seed, n, pages, 0.9, 20);
        let cfg = small_cfg();
        for shards in SHARD_COUNTS {
            let built = Mutex::new(Vec::new());
            let make = |ctx: &ShardCtx<'_>| {
                let seen = Arc::new(Mutex::new(Vec::new()));
                let shown: Vec<TraceRecord> = ctx.records().copied().collect();
                built.lock().unwrap().push((ctx.shard, shown, Arc::clone(&seen)));
                let admit_nothing = ThresholdAdmit {
                    threshold: f64::INFINITY,
                    admit_writes_always: false,
                };
                ShardPolicies {
                    policy: Policy::new(Some(admit_nothing), LruPolicy::new(cfg.num_sets(), cfg.ways)),
                    score: Some(Box::new(Tap(seen))),
                }
            };
            let measured_from = seed as usize % (n + 1);
            let lat = LatencyModel::paper_tlc();
            ShardedSimulator::new(shards)
                .run(&trace, measured_from, cfg, &make, &lat, None)
                .unwrap();
            let built = built.into_inner().unwrap();
            prop_assert_eq!(built.len(), shards);
            let mut positions = Vec::new();
            for (shard, shown, seen) in &built {
                let seen = seen.lock().unwrap();
                let replayed: Vec<TraceRecord> = seen.iter().map(|&(_, r)| r).collect();
                prop_assert_eq!(shown, &replayed, "shard {} of {}", shard, shards);
                for &(pos, r) in seen.iter() {
                    prop_assert_eq!(r, trace[pos as usize]);
                    positions.push(pos);
                }
            }
            positions.sort_unstable();
            prop_assert_eq!(positions, (0..n as u64).collect::<Vec<_>>());
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
        let lat = &latency_for(seed);
        for shards in [2usize, 8] {
            let a = run_sharded(shards, "gmm-score", "threshold", "fn", &trace, warmup_len, lat);
            let b = run_sharded(shards, "gmm-score", "threshold", "fn", &trace, warmup_len, lat);
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
    let evict = LruPolicy::new(cfg.num_sets(), cfg.ways);
    ShardPolicies {
        policy: Policy::new(Some(ThresholdAdmit::new(0.4)), evict),
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
        &mut pol.policy.admit,
        &mut pol.policy.evict,
        pol.score.as_deref_mut().map(|s| s as &mut dyn ScoreSource),
        &lat,
        Some(128),
    );

    for shards in [1usize, 2, 3, 4, 8] {
        let sim = ShardedSimulator::new(shards);
        let rep = sim
            .run(&trace, 700, cfg, &|_ctx| lru_policies(cfg), &lat, Some(128))
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
            &trace,
            0,
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
            &trace,
            0,
            cfg,
            &|_ctx| ShardPolicies {
                policy: Policy::lru(cfg.num_sets(), cfg.ways),
                score: None,
            },
            &LatencyModel::paper_tlc(),
            None,
        )
        .unwrap();
    assert_eq!(rep.sim.stats.accesses(), 200);
    assert_eq!(rep.per_shard[2].stats.accesses(), 0);
}

/// A boundary past the end of the trace is a typed refusal — at every
/// shard count and at the supervisor itself — before any shard is built;
/// the end itself is a valid boundary (everything is warm-up).
#[test]
fn a_boundary_past_the_end_is_a_typed_error() {
    let cfg = small_cfg();
    let trace = mixed_trace(100);
    let lat = LatencyModel::paper_tlc();
    let refused =
        |_: &ShardCtx<'_>| -> ShardPolicies { panic!("no shard may be built for a refused run") };
    for measured_from in [101, usize::MAX] {
        let want = Some(ShardRunError::MeasuredPastEnd {
            measured_from,
            records: 100,
        });
        for shards in [1usize, 2, 4] {
            let run =
                ShardedSimulator::new(shards).run(&trace, measured_from, cfg, &refused, &lat, None);
            assert_eq!(run.err(), want, "{shards} shards");
        }
        for shards in [1usize, 2] {
            let plan = FaultPlan::empty();
            let sup = ShardSupervisor::new(
                cfg,
                &lat,
                &refused,
                plan,
                shards,
                &trace,
                measured_from,
                None,
            );
            assert_eq!(sup.err(), want);
        }
    }
    let msg = ShardRunError::MeasuredPastEnd {
        measured_from: 101,
        records: 100,
    }
    .to_string();
    assert!(
        msg.contains("measured_from 101") && msg.contains("100 records"),
        "{msg}"
    );
    let all_warm = ShardedSimulator::new(2)
        .run(&trace, 100, cfg, &|_ctx| lru_policies(cfg), &lat, None)
        .unwrap();
    assert_eq!(all_warm.sim.stats.accesses(), 0);
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
            &trace,
            0,
            cfg,
            &|ctx| {
                seen.lock()
                    .unwrap()
                    .push((ctx.shard, std::thread::current().id()));
                ShardPolicies {
                    policy: Policy::lru(cfg.num_sets(), cfg.ways),
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
/// after the sum at every shard count, under both latency models.
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
    for lat in [latency_for(0), latency_for(1)] {
        let reference = reference("gmm-score", "threshold", "fn", &trace, 1_000, &lat);
        assert!(reference.stats.bypasses() > 0, "the fixture must bypass");
        for shards in SHARD_COUNTS {
            let sim = run_sharded(shards, "gmm-score", "threshold", "fn", &trace, 1_000, &lat);
            assert_eq!(reference, sim, "{shards} shards");
        }
    }
}
