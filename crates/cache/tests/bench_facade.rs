//! Tier-1 stand-in for the out-of-workspace benchmark's façade check:
//! `icgmm_bench` still drives `WindowedSimulator` and compares its
//! `SpecStats`, so a regression of that shell must fail `cargo test`, not
//! only the benchmark build. Deleted together with the façade.

use icgmm_cache::{
    simulate_streaming_with_warmup, GmmScorePolicy, LatencyModel, ScoreSource, SetAssocCache,
    SimReport, SpecParams, SpecStats, ThresholdAdmit, WindowedSimulator,
};
use icgmm_testutil::{score_for, small_cfg, zipf_trace};

#[test]
fn windowed_facade_is_the_streaming_replay_with_zero_telemetry() {
    let cfg = small_cfg();
    let lat = LatencyModel::paper_tlc();
    let trace = zipf_trace(5, 4_000, 96, 0.9, 20);
    let (warm, meas) = trace.split_at(800);
    let replay = |wsim: Option<&mut WindowedSimulator>| -> SimReport {
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let mut ev = GmmScorePolicy::new(cfg.num_sets(), cfg.ways);
        let mut ad = ThresholdAdmit::new(0.5);
        let mut sc = score_for("fn");
        let score = sc.as_deref_mut().map(|s| s as &mut dyn ScoreSource);
        match wsim {
            Some(w) => w.run(
                warm,
                meas,
                &mut cache,
                &mut ad,
                &mut ev,
                score,
                &lat,
                Some(64),
            ),
            None => simulate_streaming_with_warmup(
                warm,
                meas,
                &mut cache,
                &mut ad,
                &mut ev,
                score,
                &lat,
                Some(64),
            ),
        }
    };
    let mut wsim = WindowedSimulator::with_params(SpecParams::default());
    let windowed = replay(Some(&mut wsim));
    assert!(windowed.stats.misses() > 0 && windowed.stats.bypasses() > 0);
    assert_eq!(windowed, replay(None));
    assert_eq!(*wsim.spec_stats(), SpecStats::default());
    assert_eq!(wsim.spec_stats().divergences(), 0);
}
