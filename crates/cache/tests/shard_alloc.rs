//! Allocation accounting for the sharded fan-out (the zero-copy claim,
//! measured).
//!
//! Historically `ShardedSimulator::run` materialized per-shard
//! `Vec<TraceRecord>` copies of the warmup and measured phases plus a
//! per-record `Vec<u64>` gap list — ~`size_of::<TraceRecord>() + 8`
//! bytes of routing state per trace record — and later per-shard `u32`
//! position lists, ~4 bytes per record. A [`ShardPartition`] is now the
//! routing rule itself (`set mod S`, or at two shards the parity of
//! `set & mask`): each shard walks the caller's slice through it, so
//! routing a trace allocates nothing at all. This test pins that with a
//! counting global allocator, so a regression back to stored routing state
//! fails loudly rather than silently growing the serving path's memory
//! traffic.
//!
//! A shard holds only its own sets: at S = 2 its tag store and policy
//! state cost half of a one-shard replay's (until they did, every shard
//! built the whole geometry, +0.7–0.9 MiB of `peak_rss_mb` per extra shard
//! at the paper's 2 048 × 8).
//!
//! The same goes for the run behind the fan-out. A shard counts; it keeps
//! nothing per record — no outcome buffer for a merge to re-walk (what
//! made an S = 8 run of this fixture allocate 28.3 B/record, measured at
//! the last commit that replayed accounting in global order: 4 B of index
//! plus a 24-byte `AccessOutcome` for every record; 4.24 B/record while the
//! index lists lasted). The whole-run bound below holds a sharded replay to
//! per-shard constants, and its eight shards' state to one geometry's.
//!
//! One `#[test]` per binary: the byte counter is process-global, and a
//! sibling test running concurrently would perturb the delta.

mod support;

use icgmm_cache::{
    CacheConfig, FaultPlan, LatencyModel, Policy, SetAssocCache, ShardCtx, ShardPartition,
    ShardPolicies, ShardSupervisor, ShardedSimulator,
};
use icgmm_trace::TraceRecord;
use support::allocated_by;

#[test]
fn fanout_routing_allocates_nothing() {
    const N: usize = 200_000;
    const SHARDS: usize = 8;
    let cfg = CacheConfig {
        capacity_bytes: 256 * 4096,
        block_bytes: 4096,
        ways: 4,
    };
    // Page stride > 1 so every shard owns a non-trivial slice.
    let trace: Vec<TraceRecord> = (0..N as u64)
        .map(|i| TraceRecord::read((i.wrapping_mul(2654435761) % 4096) << 12))
        .collect();
    let lat = LatencyModel::paper_tlc();
    let make = |ctx: &ShardCtx<'_>| ShardPolicies {
        policy: Policy::lru(ctx.rows(), cfg.ways),
        score: None,
    };

    // Routing: the supervisor building the rule, and every shard's walk
    // over the whole trace.
    let ((shards, routed), bytes) = allocated_by(|| {
        let plan = FaultPlan::empty();
        let sup = ShardSupervisor::new(cfg, &lat, &make, plan, SHARDS, &trace, 0, None).unwrap();
        let routed: Vec<usize> = (0..SHARDS).map(|s| sup.ctx(s).walk().count()).collect();
        (sup.partition().shards(), routed)
    });
    // Every record is routed exactly once, and every shard owns some.
    assert_eq!(routed.iter().sum::<usize>(), N);
    assert!(routed.iter().all(|&n| n > 0), "{routed:?}");
    assert_eq!(shards, SHARDS);
    // The only allocation is the test's own `routed` vector.
    let counts_bytes = SHARDS * std::mem::size_of::<usize>();
    assert!(
        bytes <= counts_bytes,
        "routing {N} records allocated {bytes} B — routing state is stored again"
    );

    // A shard's state: the tag store and LRU stamps of `ceil(sets / S)`
    // rows. At S = 2 that is half the one-shard replay's, give or take the
    // one 64-byte line each store over-allocates to align its rows.
    let state = |shards: usize| {
        let rows = ShardPartition::new(shards, &cfg).unwrap().rows();
        let (state, bytes) = allocated_by(|| {
            let cache = SetAssocCache::sharded(cfg, shards).unwrap();
            (cache, Policy::lru(rows, cfg.ways))
        });
        drop(state);
        bytes
    };
    let (one, half) = (state(1), state(2));
    assert!(
        (one..=one + 64).contains(&(2 * half)),
        "a two-shard store and policy allocated {half} B, one shard's {one} B"
    );

    // The whole run, next to its routing: an S = 8 LRU replay of the same
    // fixture allocates what does not grow with the trace — eight caches
    // of an eighth of the sets each, their policy state, thread
    // bookkeeping, the reports — and nothing per record. Its shards' state
    // adds up to one geometry's, so it allocates no more than the
    // one-shard run of the same trace plus a constant per extra shard.
    let run = |shards: usize| {
        allocated_by(|| {
            ShardedSimulator::new(shards)
                .run(&trace, N / 4, cfg, &make, &lat, None)
                .unwrap()
        })
    };
    let (report, run_bytes) = run(SHARDS);
    let (_, inline_bytes) = run(1);
    assert_eq!(report.sim.stats.accesses() as usize, N - N / 4);
    assert!(
        run_bytes < N,
        "an {SHARDS}-shard replay allocated {run_bytes} B over {N} records \
         ({:.2} B/record) — something is stored per record again",
        run_bytes as f64 / N as f64
    );
    // A spawned worker, its report and its store's alignment line: 1.6–1.7
    // KiB a shard on this fixture, against the 4.3 KiB of tag store and
    // policy a whole-geometry shard would add on top.
    const PER_SHARD: usize = 2_048;
    assert!(
        run_bytes <= inline_bytes + (SHARDS - 1) * PER_SHARD,
        "an {SHARDS}-shard replay allocated {run_bytes} B, the one-shard replay \
         {inline_bytes} B: its shards hold more than their own sets"
    );
    println!(
        "sharded run: {run_bytes} B, {:.2} B/record; one shard {inline_bytes} B; \
         state of one shard {one} B, of one of two {half} B",
        run_bytes as f64 / N as f64
    );
}
