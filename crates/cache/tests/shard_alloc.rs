//! Allocation accounting for the sharded fan-out (the zero-copy claim,
//! measured).
//!
//! Historically `ShardedSimulator::run` materialized per-shard
//! `Vec<TraceRecord>` copies of the warmup and measured phases plus a
//! per-record `Vec<u64>` gap list — ~`size_of::<TraceRecord>() + 8`
//! bytes of routing state per trace record. [`ShardPartition::build`]
//! replaces all of that with per-shard `u32` index lists over the
//! caller's slices: ~4 bytes per record, independent of the record
//! size, with gaps derived from consecutive index entries at replay
//! time. This test pins the fan-out's allocation footprint with a
//! counting global allocator so a regression back to record copying
//! fails loudly rather than silently doubling the serving path's
//! memory traffic.
//!
//! The same goes for the run behind the fan-out. A shard counts; it keeps
//! nothing per record — no outcome buffer for a merge to re-walk (what
//! made an S = 8 run of this fixture allocate 28.3 B/record, measured at
//! the last commit that replayed accounting in global order: 4 B of index
//! plus a 24-byte `AccessOutcome` for every record; 4.24 B/record now).
//! The whole-run bound below holds a sharded replay to the index entries
//! plus per-shard constants.
//!
//! One `#[test]` per binary: the byte counter is process-global, and a
//! sibling test running concurrently would perturb the delta.

mod support;

use icgmm_cache::{
    AlwaysAdmit, CacheConfig, LatencyModel, LruPolicy, ShardPartition, ShardPolicies,
    ShardedSimulator,
};
use icgmm_trace::TraceRecord;
use support::allocated_by;

#[test]
fn fanout_routing_state_is_four_bytes_per_record() {
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
    let (warmup, measured) = trace.split_at(N / 4);

    let (part, bytes) =
        allocated_by(|| ShardPartition::build(SHARDS, &cfg, warmup, measured).unwrap());

    // Every record is routed exactly once.
    let routed: usize = (0..SHARDS).map(|s| part.positions(s).len()).sum();
    assert_eq!(routed, N);

    // The floor: each routed record costs one u32 index entry, and the
    // two-pass build sizes the per-shard lists exactly.
    let index_bytes = N * std::mem::size_of::<u32>();
    assert!(
        bytes >= index_bytes,
        "partition under-counts: {bytes} B for {index_bytes} B of index entries"
    );
    // The ceiling: index entries plus small per-shard bookkeeping (the
    // counts pass and the Vec spine) — nowhere near a record copy. Slack
    // of 1 B/record covers allocator rounding of the 2×SHARDS vectors.
    assert!(
        bytes <= index_bytes + N,
        "fan-out allocated {bytes} B; index lists alone need {index_bytes} B — \
         routing state is no longer ~4 B/record"
    );
    // And the claim that names the test: far below one record copy per
    // routed record (the pre-index fan-out paid size_of::<TraceRecord>()
    // + 8 gap bytes for each).
    let record_copy_bytes = N * std::mem::size_of::<TraceRecord>();
    assert!(
        bytes < record_copy_bytes / 2,
        "fan-out allocated {bytes} B, within 2x of full record copies \
         ({record_copy_bytes} B) — the zero-copy representation regressed"
    );

    // The whole run, next to its routing: an S = 8 LRU replay of the same
    // fixture allocates the index entries (4 B/record) plus what does not
    // grow with the trace — eight small caches, their policy state, thread
    // bookkeeping, the reports — and nothing per record on top.
    let (report, run_bytes) = allocated_by(|| {
        ShardedSimulator::new(SHARDS)
            .run(
                &trace,
                N / 4,
                cfg,
                &|_ctx| ShardPolicies {
                    admission: Box::new(AlwaysAdmit),
                    eviction: Box::new(LruPolicy::new(cfg.num_sets(), cfg.ways)),
                    score: None,
                },
                &LatencyModel::paper_tlc(),
                None,
            )
            .unwrap()
    });
    assert_eq!(report.sim.stats.accesses() as usize, measured.len());
    assert!(
        run_bytes < 8 * N,
        "an {SHARDS}-shard replay allocated {run_bytes} B over {N} records \
         ({:.1} B/record) — something is buffered per record again",
        run_bytes as f64 / N as f64
    );
    println!(
        "sharded run: {run_bytes} B, {:.2} B/record",
        run_bytes as f64 / N as f64
    );
}
