//! Property tests: the dataflow replay (the cycle-approximate timing model
//! hanging off the streaming loop's replay-event stream) never alters the
//! functional replay — its `stats` equal the analytic simulator's over
//! random Zipf traces × eviction policies × admission policies ×
//! score-source shapes, warm-up splits and overlap on/off included — and
//! the whole `DataflowReport`, every timing field included, reproduces
//! bit for bit.

use icgmm_cache::{simulate_streaming_with_warmup, LatencyModel, ScoreSource, SetAssocCache};
use icgmm_hw::{run_dataflow_with_warmup, DataflowConfig, DataflowReport};
use icgmm_testutil::{
    admission_for, eviction_for, score_for, small_cfg, zipf_trace, ADMISSIONS, EVICTIONS, SCORES,
};
use icgmm_trace::TraceRecord;
use proptest::prelude::*;

fn run_dataflow(
    eviction: &str,
    admission: &str,
    score: &str,
    trace: &[TraceRecord],
    warmup_len: usize,
    overlap: bool,
) -> DataflowReport {
    let cfg = small_cfg();
    let df_cfg = DataflowConfig {
        overlap_policy_with_ssd: overlap,
        ..Default::default()
    };
    let (warm, meas) = trace.split_at(warmup_len);
    let mut ev = eviction_for(eviction, cfg, trace);
    let mut ad = admission_for(admission);
    let mut sc = score_for(score);
    run_dataflow_with_warmup(
        warm,
        meas,
        cfg,
        ad.as_mut(),
        ev.as_mut(),
        sc.as_deref_mut().map(|s| s as &mut dyn ScoreSource),
        &df_cfg,
    )
    .expect("valid geometry")
}

proptest! {
    /// Dataflow `stats` == analytic `stats`, and a second dataflow run is
    /// bit-identical in every field, for every eviction × admission ×
    /// score combination over random Zipf traces with a random warm-up
    /// split and overlap on/off.
    #[test]
    fn dataflow_replay_matches_analytic_stats_and_reproduces(
        params in (0u64..1_000_000, 300usize..1000, 24u64..160, (60u64..140), 0u8..45)
    ) {
        let (seed, n, pages, skew_pct, write_pct) = params;
        let skew = skew_pct as f64 / 100.0;
        let trace = zipf_trace(seed, n, pages, skew, write_pct);
        let warmup_len = (seed as usize) % (n / 2);
        let overlap = seed % 2 == 0;
        let cfg = small_cfg();
        let (warm, meas) = trace.split_at(warmup_len);
        for eviction in EVICTIONS {
            for admission in ADMISSIONS {
                for score in SCORES {
                    let dataflow =
                        run_dataflow(eviction, admission, score, &trace, warmup_len, overlap);
                    let mut cache = SetAssocCache::new(cfg).unwrap();
                    let mut ev = eviction_for(eviction, cfg, &trace);
                    let mut ad = admission_for(admission);
                    let mut sc = score_for(score);
                    let analytic = simulate_streaming_with_warmup(
                        warm,
                        meas,
                        &mut cache,
                        ad.as_mut(),
                        ev.as_mut(),
                        sc.as_deref_mut().map(|s| s as &mut dyn ScoreSource),
                        &LatencyModel::paper_tlc(),
                        None,
                    );
                    prop_assert_eq!(
                        &dataflow.stats,
                        &analytic.stats,
                        "{}/{}/{} diverged (seed {}, n {}, overlap {})",
                        eviction, admission, score, seed, n, overlap
                    );
                    let again =
                        run_dataflow(eviction, admission, score, &trace, warmup_len, overlap);
                    prop_assert_eq!(&dataflow, &again);
                }
            }
        }
    }
}
