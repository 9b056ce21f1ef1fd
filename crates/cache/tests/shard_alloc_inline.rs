//! Allocation accounting for the inline one-shard geometry.
//!
//! `ShardedSimulator::new(1)` is what the single-threaded front-ends run
//! on, so it must not pay fan-out machinery it cannot use: no routing (the
//! one shard walks the whole slice), and — like every shard count —
//! nothing buffered per record. This test
//! pins its allocation footprint to the plain simulator's plus a small
//! constant, so a regression back to `O(records)` buffering fails loudly.
//!
//! One `#[test]` per binary (see `support`).

mod support;

use icgmm_cache::{
    simulate_streaming_with_warmup, LatencyModel, SetAssocCache, ShardPolicies, ShardedSimulator,
};
use icgmm_testutil::{admission_for, eviction_for, score_for, small_cfg};
use icgmm_trace::TraceRecord;
use support::allocated_by;

#[test]
fn one_shard_replay_allocates_nothing_per_record() {
    const N: usize = 200_000;
    // What one report, one policy set and the result vectors may cost on
    // top of the plain simulator — three orders of magnitude below the
    // 800 kB a per-record `u32` of routing would add.
    const SLACK: usize = 4096;
    let cfg = small_cfg();
    let lat = LatencyModel::paper_tlc();
    let trace: Vec<TraceRecord> = (0..N as u64)
        .map(|i| TraceRecord::read((i.wrapping_mul(2654435761) % 4096) << 12))
        .collect();
    let (warmup, measured) = trace.split_at(N / 4);

    for (eviction, admission, score) in
        [("lru", "always", "none"), ("gmm-score", "threshold", "fn")]
    {
        let (plain, plain_bytes) = allocated_by(|| {
            let mut cache = SetAssocCache::new(cfg).unwrap();
            let mut adm = admission_for(admission);
            let mut ev = eviction_for(eviction, cfg, &[]);
            let mut sc = score_for(score);
            simulate_streaming_with_warmup(
                warmup,
                measured,
                &mut cache,
                adm.as_mut(),
                ev.as_mut(),
                sc.as_deref_mut().map(|s| s as _),
                &lat,
                None,
            )
        });
        let (sharded, sharded_bytes) = allocated_by(|| {
            ShardedSimulator::new(1)
                .run(
                    &trace,
                    N / 4,
                    cfg,
                    &|_ctx| ShardPolicies {
                        admission: admission_for(admission),
                        eviction: eviction_for(eviction, cfg, &[]),
                        score: score_for(score),
                    },
                    &lat,
                    None,
                )
                .unwrap()
        });
        assert_eq!(sharded.sim, plain, "{eviction}/{admission}/{score}");
        assert!(
            sharded_bytes <= plain_bytes + SLACK,
            "{eviction}/{admission}/{score}: one-shard replay allocated {sharded_bytes} B against \
             the plain simulator's {plain_bytes} B over {N} records — per-record buffering is back"
        );
    }
}
