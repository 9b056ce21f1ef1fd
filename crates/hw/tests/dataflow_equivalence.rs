//! Property tests: the batched dataflow replay (speculative miss-window
//! batcher under the cycle-approximate timing model) produces a
//! `DataflowReport` bit-identical to the streaming reference — functional
//! counters *and* every timing field (`makespan_us`, `avg_request_us`,
//! `avg_queue_us`, `gmm_busy_us`, `overlap_saved_us`, SSD stats, loader
//! stalls) — over random Zipf traces × eviction policies × admission
//! policies × score-source shapes, warm-up splits and overlap on/off
//! included. Only the host-side `spec` telemetry may differ.

use icgmm_cache::{ScoreSource, SpecParams};
use icgmm_hw::{
    run_dataflow_batched_with_warmup, run_dataflow_streaming_with_warmup, DataflowConfig,
    DataflowReport,
};
use icgmm_testutil::{
    admission_for, eviction_for, score_for, small_cfg, speculating_score_for, zipf_trace,
    ADMISSIONS, EVICTIONS, SCORES,
};
use icgmm_trace::TraceRecord;
use proptest::prelude::*;

/// Runs the streaming and batched dataflow replays over the same inputs.
#[allow(clippy::too_many_arguments)]
fn run_pair(
    eviction: &str,
    admission: &str,
    score: &str,
    trace: &[TraceRecord],
    warmup_len: usize,
    window: usize,
    overlap: bool,
) -> (DataflowReport, DataflowReport) {
    let cfg = small_cfg();
    let df_cfg = DataflowConfig {
        overlap_policy_with_ssd: overlap,
        ..Default::default()
    };
    let (warm, meas) = trace.split_at(warmup_len);

    let mut ev1 = eviction_for(eviction, cfg, trace);
    let mut ad1 = admission_for(admission);
    let mut sc1 = score_for(score);
    let streaming = run_dataflow_streaming_with_warmup(
        warm,
        meas,
        cfg,
        ad1.as_mut(),
        ev1.as_mut(),
        sc1.as_deref_mut().map(|s| s as &mut dyn ScoreSource),
        &df_cfg,
    )
    .expect("valid geometry");

    let mut ev2 = eviction_for(eviction, cfg, trace);
    let mut ad2 = admission_for(admission);
    let mut sc2 = speculating_score_for(score);
    let batched = run_dataflow_batched_with_warmup(
        warm,
        meas,
        cfg,
        ad2.as_mut(),
        ev2.as_mut(),
        sc2.as_deref_mut().map(|s| s as &mut dyn ScoreSource),
        &df_cfg,
        SpecParams::with_window(window),
    )
    .expect("valid geometry");
    (streaming, batched)
}

proptest! {
    /// Bit-identical `DataflowReport`s — stats *and* every timing field —
    /// for every eviction × admission × score combination over random
    /// Zipf traces with a random warm-up split, a random speculation
    /// window, and overlap on/off.
    #[test]
    fn batched_dataflow_matches_streaming(
        params in (0u64..1_000_000, 300usize..1000, 24u64..160, (60u64..140), 0u8..45, 1usize..1500)
    ) {
        let (seed, n, pages, skew_pct, write_pct, window) = params;
        let skew = skew_pct as f64 / 100.0;
        let trace = zipf_trace(seed, n, pages, skew, write_pct);
        let warmup_len = (seed as usize) % (n / 2);
        let overlap = seed % 2 == 0;
        for eviction in EVICTIONS {
            for admission in ADMISSIONS {
                for score in SCORES {
                    let (streaming, mut batched) =
                        run_pair(eviction, admission, score, &trace, warmup_len, window, overlap);
                    prop_assert!(streaming.spec.is_none());
                    // Score-free runs never speculate (the batcher
                    // delegates to streaming), so they report no telemetry.
                    prop_assert_eq!(batched.spec.is_some(), score != "none");
                    batched.spec = None;
                    prop_assert_eq!(
                        &streaming,
                        &batched,
                        "{}/{}/{} diverged (seed {}, n {}, window {}, overlap {})",
                        eviction, admission, score, seed, n, window, overlap
                    );
                }
            }
        }
    }
}

/// Deterministic spot check on an all-miss scan: every timing field of the
/// batched replay is bit-equal (`to_bits`) to streaming, and the batcher
/// actually batched (the scan is the regime the CI perf gate tracks).
#[test]
fn all_miss_scan_is_bit_equal_and_actually_batches() {
    let trace: Vec<TraceRecord> = (0..4_096u64).map(|p| TraceRecord::read(p << 12)).collect();
    let (streaming, batched) = run_pair("lru", "always", "fn", &trace, 512, 1024, true);
    let spec = batched.spec.expect("batched replay reports telemetry");
    assert!(spec.batched_scores > 0, "{spec:?}");
    assert_eq!(spec.divergences(), 0, "{spec:?}");
    for (name, a, b) in [
        ("makespan_us", streaming.makespan_us, batched.makespan_us),
        (
            "avg_request_us",
            streaming.avg_request_us,
            batched.avg_request_us,
        ),
        ("avg_queue_us", streaming.avg_queue_us, batched.avg_queue_us),
        ("gmm_busy_us", streaming.gmm_busy_us, batched.gmm_busy_us),
        (
            "overlap_saved_us",
            streaming.overlap_saved_us,
            batched.overlap_saved_us,
        ),
        ("ssd.busy_us", streaming.ssd.busy_us, batched.ssd.busy_us),
        (
            "ssd.queue_wait_us",
            streaming.ssd.queue_wait_us,
            batched.ssd.queue_wait_us,
        ),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{name}: {a} vs {b}");
    }
    assert_eq!(streaming.stats, batched.stats);
    assert_eq!(streaming.loader_stalls, batched.loader_stalls);
    assert_eq!(streaming.ssd.reads, batched.ssd.reads);
    assert_eq!(streaming.ssd.writes, batched.ssd.writes);
}
