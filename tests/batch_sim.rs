//! Integration tests: the speculative miss-window batcher driven by the
//! *real* trained policy engine (f64 and fixed-point datapaths, wrapped
//! to prefer batching) is bit-identical to the streaming simulator, and
//! the end-to-end system — which streams by default — agrees with both.

use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_cache::{
    simulate_streaming_with_warmup, AlwaysAdmit, CacheConfig, GmmScorePolicy, LatencyModel,
    PreferBatching, ScoreSource, SetAssocCache, ThresholdAdmit, WindowedSimulator,
};
use icgmm_gmm::EmConfig;
use icgmm_testutil::{conflict_trace, hand_engine};
use icgmm_trace::synth::WorkloadKind;
use icgmm_trace::{PreprocessConfig, TraceRecord};

#[test]
fn gmm_engine_batched_replay_is_bit_identical_both_datapaths() {
    let cfg = CacheConfig {
        capacity_bytes: 64 * 4096,
        block_bytes: 4096,
        ways: 8,
    };
    let lat = LatencyModel::paper_tlc();
    let trace = conflict_trace(8_000, 160, 21);
    let (warm, meas) = trace.split_at(1_600);

    for fixed in [false, true] {
        let mut c1 = SetAssocCache::new(cfg).unwrap();
        let mut ev1 = GmmScorePolicy::new(cfg.num_sets(), cfg.ways);
        let mut ad1 = ThresholdAdmit::new(-6.0);
        let mut e1 = hand_engine(24, fixed);
        let streaming = simulate_streaming_with_warmup(
            warm,
            meas,
            &mut c1,
            &mut ad1,
            &mut ev1,
            Some(&mut e1 as &mut dyn ScoreSource),
            &lat,
            Some(256),
        );

        let mut c2 = SetAssocCache::new(cfg).unwrap();
        let mut ev2 = GmmScorePolicy::new(cfg.num_sets(), cfg.ways);
        let mut ad2 = ThresholdAdmit::new(-6.0);
        let mut e2 = PreferBatching(hand_engine(24, fixed));
        let mut wsim = WindowedSimulator::new(512);
        let batched = wsim.run(
            warm,
            meas,
            &mut c2,
            &mut ad2,
            &mut ev2,
            Some(&mut e2 as &mut dyn ScoreSource),
            &lat,
            Some(256),
        );

        assert_eq!(streaming, batched, "fixed_point={fixed}");
        let spec = wsim.spec_stats();
        assert!(spec.batched_scores > 0, "fixed_point={fixed}: {spec:?}");
        // The Algorithm 1 clock advanced identically on both engines: the
        // next observation scores bit-equal.
        let probe = TraceRecord::read(99 << 12);
        e1.observe(&probe);
        e2.observe(&probe);
        assert_eq!(
            e1.score_current().to_bits(),
            e2.score_current().to_bits(),
            "fixed_point={fixed}"
        );
    }
}

#[test]
fn gmm_eviction_only_mode_speculates_without_victim_divergence() {
    // The paper's GmmEvictionOnly mode: always-admit + stored-score
    // eviction, driven by the real policy engine. With no admission
    // bypasses there are no phantoms, so the policy-aware shadow must
    // predict every stored-score victim exactly — zero divergence of any
    // kind across the whole replay, at full batching.
    let cfg = CacheConfig {
        capacity_bytes: 64 * 4096,
        block_bytes: 4096,
        ways: 8,
    };
    let lat = LatencyModel::paper_tlc();
    let trace = conflict_trace(8_000, 160, 33);
    let (warm, meas) = trace.split_at(1_600);

    for fixed in [false, true] {
        let mut c1 = SetAssocCache::new(cfg).unwrap();
        let mut ev1 = GmmScorePolicy::new(cfg.num_sets(), cfg.ways);
        let mut e1 = hand_engine(24, fixed);
        let streaming = simulate_streaming_with_warmup(
            warm,
            meas,
            &mut c1,
            &mut AlwaysAdmit,
            &mut ev1,
            Some(&mut e1 as &mut dyn ScoreSource),
            &lat,
            None,
        );

        let mut c2 = SetAssocCache::new(cfg).unwrap();
        let mut ev2 = GmmScorePolicy::new(cfg.num_sets(), cfg.ways);
        let mut e2 = PreferBatching(hand_engine(24, fixed));
        let mut wsim = WindowedSimulator::new(1024);
        let batched = wsim.run(
            warm,
            meas,
            &mut c2,
            &mut AlwaysAdmit,
            &mut ev2,
            Some(&mut e2 as &mut dyn ScoreSource),
            &lat,
            None,
        );

        assert_eq!(streaming, batched, "fixed_point={fixed}");
        let spec = wsim.spec_stats();
        assert_eq!(spec.divergences(), 0, "fixed_point={fixed}: {spec:?}");
        assert_eq!(spec.victim_divergences, 0, "fixed_point={fixed}: {spec:?}");
        assert!(spec.batched_scores > 0, "fixed_point={fixed}: {spec:?}");
    }
}

#[test]
fn system_default_path_matches_explicit_streaming_replay() {
    // `Icgmm::run` must agree with a hand-driven streaming replay of the
    // same trained model and policies — and, since the engine no longer
    // prefers batching at any K, it must *be* a streaming replay: no
    // speculation telemetry, one inference per scored miss.
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
    let run = sys.run(&trace, PolicyMode::GmmCachingEviction).unwrap();

    // Hand-driven streaming reference with an identical engine stack.
    let (start, end) = cfg.preprocess.kept_range(trace.len());
    let (warm, meas) = (&trace.records()[..start], &trace.records()[start..end]);
    let mut cache = SetAssocCache::new(cfg.cache).unwrap();
    let mut ev = GmmScorePolicy::new(cfg.cache.num_sets(), cfg.cache.ways);
    let mut ad = ThresholdAdmit::new(sys.model().unwrap().threshold);
    let mut eng = sys.policy_engine().unwrap();
    let streaming = simulate_streaming_with_warmup(
        warm,
        meas,
        &mut cache,
        &mut ad,
        &mut ev,
        Some(&mut eng as &mut dyn ScoreSource),
        &cfg.latency,
        None,
    );
    assert_eq!(run.sim, streaming);
    assert!(run.spec.is_none(), "the default path must not speculate");
    assert_eq!(run.gmm_inferences, eng.scores_computed());
}
