//! Integration tests: the batched dataflow replay driven by the *real*
//! trained GMM policy engine (f64 and fixed-point datapaths, wrapped to
//! prefer batching) produces a `DataflowReport` bit-identical — stats and
//! every timing field — to the streaming dataflow reference, and
//! `Icgmm::run_dataflow` — which streams by default — *is* that reference.

use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_cache::{
    CacheConfig, GmmScorePolicy, PreferBatching, ScoreSource, SpecParams, ThresholdAdmit,
};
use icgmm_gmm::EmConfig;
use icgmm_hw::{
    run_dataflow_batched_with_warmup, run_dataflow_streaming_with_warmup, DataflowConfig,
};
use icgmm_testutil::{conflict_trace, hand_engine};
use icgmm_trace::synth::WorkloadKind;
use icgmm_trace::{PreprocessConfig, TraceRecord};

#[test]
fn gmm_engine_batched_dataflow_is_bit_identical_both_datapaths() {
    let cfg = CacheConfig {
        capacity_bytes: 64 * 4096,
        block_bytes: 4096,
        ways: 8,
    };
    let trace = conflict_trace(8_000, 160, 21);
    let (warm, meas) = trace.split_at(1_600);

    for fixed in [false, true] {
        for overlap in [true, false] {
            let df_cfg = DataflowConfig {
                overlap_policy_with_ssd: overlap,
                ..Default::default()
            };
            // The paper's gmm-both stack: threshold admission +
            // stored-score eviction — the combination that exercises run
            // splits, bypass phantoms and rollback under the timer.
            let mut ev1 = GmmScorePolicy::new(cfg.num_sets(), cfg.ways);
            let mut ad1 = ThresholdAdmit::new(-6.0);
            let mut e1 = hand_engine(64, fixed);
            let streaming = run_dataflow_streaming_with_warmup(
                warm,
                meas,
                cfg,
                &mut ad1,
                &mut ev1,
                Some(&mut e1 as &mut dyn ScoreSource),
                &df_cfg,
            )
            .unwrap();

            let mut ev2 = GmmScorePolicy::new(cfg.num_sets(), cfg.ways);
            let mut ad2 = ThresholdAdmit::new(-6.0);
            let mut e2 = PreferBatching(hand_engine(64, fixed));
            let batched = run_dataflow_batched_with_warmup(
                warm,
                meas,
                cfg,
                &mut ad2,
                &mut ev2,
                Some(&mut e2 as &mut dyn ScoreSource),
                &df_cfg,
                SpecParams::with_window(512),
            )
            .unwrap();

            let spec = batched.spec.expect("batched replay reports telemetry");
            assert!(
                spec.batched_scores > 0,
                "fixed={fixed} overlap={overlap}: {spec:?}"
            );
            let mut stripped = batched.clone();
            stripped.spec = None;
            assert_eq!(streaming, stripped, "fixed={fixed} overlap={overlap}");

            // The Algorithm 1 clock advanced identically on both engines:
            // the next observation scores bit-equal.
            let probe = TraceRecord::read(99 << 12);
            e1.observe(&probe);
            e2.observe(&probe);
            assert_eq!(
                e1.score_current().to_bits(),
                e2.score_current().to_bits(),
                "fixed={fixed} overlap={overlap}"
            );
        }
    }
}

#[test]
fn system_dataflow_default_matches_explicit_streaming_replay() {
    // `Icgmm::run_dataflow` must equal a hand-driven streaming dataflow
    // replay of the same trained model and policies — timing fields
    // included, and (the engine no longer prefers batching at any K) with
    // no speculation telemetry of its own.
    let cfg = IcgmmConfig {
        cache: CacheConfig {
            capacity_bytes: 128 * 4096,
            block_bytes: 4096,
            ways: 8,
        },
        em: EmConfig {
            k: 64,
            max_iters: 8,
            ..Default::default()
        },
        preprocess: PreprocessConfig {
            len_window: 32,
            len_access_shot: 1_000,
            ..Default::default()
        },
        max_train_cells: 5_000,
        ..Default::default()
    };
    let trace = WorkloadKind::Memtier
        .default_workload()
        .generate(30_000, 17);
    let mut sys = Icgmm::new(cfg).unwrap();
    sys.fit(&trace).unwrap();
    let df_cfg = DataflowConfig::default();
    let run = sys
        .run_dataflow(&trace, PolicyMode::GmmCachingEviction, &df_cfg)
        .unwrap();
    assert!(run.spec.is_none(), "the default path must not speculate");

    // Hand-driven streaming dataflow reference with an identical stack.
    let (start, end) = cfg.preprocess.kept_range(trace.len());
    let (warm, meas) = (&trace.records()[..start], &trace.records()[start..end]);
    let mut ev = GmmScorePolicy::new(cfg.cache.num_sets(), cfg.cache.ways);
    let mut ad = ThresholdAdmit::new(sys.model().unwrap().threshold);
    let mut eng = sys.policy_engine().unwrap();
    let streaming = run_dataflow_streaming_with_warmup(
        warm,
        meas,
        cfg.cache,
        &mut ad,
        &mut ev,
        Some(&mut eng as &mut dyn ScoreSource),
        &df_cfg,
    )
    .unwrap();
    assert_eq!(streaming, run);
}
