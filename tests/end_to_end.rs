//! Cross-crate integration tests: the full trace → train → simulate
//! pipeline, exercised the way the benchmark harness uses it.

use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_cache::{
    simulate_streaming_with_warmup, CacheConfig, GmmScorePolicy, ScoreSource, SetAssocCache,
    ThresholdAdmit,
};
use icgmm_gmm::EmConfig;
use icgmm_trace::synth::{StreamWorkload, Workload, WorkloadKind};
use icgmm_trace::PreprocessConfig;

/// Small-but-real configuration: trains in a couple of seconds in debug.
fn test_config() -> IcgmmConfig {
    IcgmmConfig {
        em: EmConfig {
            k: 16,
            max_iters: 25,
            ..Default::default()
        },
        max_train_cells: 15_000,
        ..IcgmmConfig::default()
    }
}

#[test]
fn gmm_beats_lru_on_dlrm_like_skew() {
    // dlrm is the paper's biggest win (36.78% → 30.64%); at reduced scale
    // the gap persists. K must be large enough to resolve 8 embedding
    // tables (a few components per table).
    let trace = WorkloadKind::Dlrm.default_workload().generate(200_000, 21);
    let mut sys = Icgmm::new(IcgmmConfig {
        em: EmConfig {
            k: 48,
            max_iters: 30,
            ..Default::default()
        },
        max_train_cells: 30_000,
        admission_quantile: 0.35,
        ..IcgmmConfig::default()
    })
    .expect("valid config");
    sys.fit(&trace).expect("training succeeds");
    let lru = sys.run(&trace, PolicyMode::Lru).expect("lru runs");
    let gmm = sys
        .run(&trace, PolicyMode::GmmEvictionOnly)
        .expect("gmm runs");
    assert!(
        gmm.miss_rate_pct() < lru.miss_rate_pct(),
        "gmm {:.2}% !< lru {:.2}%",
        gmm.miss_rate_pct(),
        lru.miss_rate_pct()
    );
    // Latency tracks the miss-rate win; allow a small write-back margin at
    // this reduced scale (the full-scale Table 1 run shows a clear win).
    assert!(
        gmm.avg_us() < lru.avg_us() * 1.05,
        "gmm {:.2} µs vs lru {:.2} µs",
        gmm.avg_us(),
        lru.avg_us()
    );
}

#[test]
fn gmm_eviction_tracks_lru_on_a_stream() {
    // At full scale score-eviction beats LRU on stream (pinning the hot
    // region); at this reduced scale we assert the weaker invariant that
    // it never does materially worse.
    let workload = StreamWorkload::default();
    let trace = workload.generate(200_000, 22);
    let mut sys = Icgmm::new(IcgmmConfig {
        em: EmConfig {
            k: 48,
            max_iters: 30,
            ..Default::default()
        },
        max_train_cells: 30_000,
        admission_quantile: 0.02,
        ..IcgmmConfig::default()
    })
    .expect("valid config");
    sys.fit(&trace).expect("training succeeds");
    let lru = sys.run(&trace, PolicyMode::Lru).expect("lru runs");
    let gmm = sys
        .run(&trace, PolicyMode::GmmEvictionOnly)
        .expect("gmm runs");
    // 200k requests cover barely one kernel sweep, so the cyclic reuse the
    // policy exploits at full scale is mostly absent here; assert the
    // no-catastrophe invariant (the fig6 harness shows the full-scale win).
    assert!(
        gmm.miss_rate_pct() <= lru.miss_rate_pct() + 1.0,
        "gmm {:.2}% vs lru {:.2}%",
        gmm.miss_rate_pct(),
        lru.miss_rate_pct()
    );
}

#[test]
fn all_seven_workloads_run_every_fig6_mode() {
    for kind in WorkloadKind::all() {
        let trace = kind.default_workload().generate(30_000, 5);
        let mut sys = Icgmm::new(IcgmmConfig {
            em: EmConfig {
                k: 8,
                max_iters: 10,
                ..Default::default()
            },
            max_train_cells: 4_000,
            ..IcgmmConfig::default()
        })
        .expect("valid config");
        sys.fit(&trace).expect("training succeeds");
        for mode in PolicyMode::fig6_modes() {
            let run = sys.run(&trace, mode).unwrap_or_else(|e| {
                panic!("{kind}/{mode} failed: {e}");
            });
            assert!(run.sim.stats.accesses() > 0, "{kind}/{mode} ran nothing");
            assert!(
                run.miss_rate_pct() <= 100.0 && run.miss_rate_pct() >= 0.0,
                "{kind}/{mode} nonsense miss rate"
            );
            assert!(run.avg_us() >= 1.0, "{kind}/{mode} below hit latency");
        }
    }
}

#[test]
fn training_is_deterministic_given_seeds() {
    let trace = WorkloadKind::Memtier.default_workload().generate(40_000, 8);
    let mk = || {
        let mut sys = Icgmm::new(test_config()).expect("valid config");
        sys.fit(&trace).expect("training succeeds");
        let run = sys
            .run(&trace, PolicyMode::GmmCachingEviction)
            .expect("run succeeds");
        (
            sys.model().expect("trained").threshold,
            run.miss_rate_pct(),
            run.sim.stats,
        )
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.0, b.0, "thresholds differ across identical fits");
    assert_eq!(a.1, b.1, "miss rates differ across identical fits");
    assert_eq!(a.2, b.2, "stats differ across identical fits");
}

#[test]
fn trained_model_transfers_between_systems() {
    // A model trained in one system can be installed in another (the
    // "one-time loading from HBM" deployment story).
    let trace = WorkloadKind::Sysbench
        .default_workload()
        .generate(40_000, 9);
    let mut trainer = Icgmm::new(test_config()).expect("valid config");
    trainer.fit(&trace).expect("training succeeds");
    let model = trainer.model().expect("trained").clone();

    let mut deployed = Icgmm::new(test_config()).expect("valid config");
    deployed.set_model(model);
    let run = deployed
        .run(&trace, PolicyMode::GmmCachingEviction)
        .expect("deployed model runs");
    let original = trainer
        .run(&trace, PolicyMode::GmmCachingEviction)
        .expect("original runs");
    assert_eq!(run.sim.stats, original.sim.stats);
}

#[test]
fn smaller_cache_monotonically_hurts_lru() {
    let trace = WorkloadKind::Memtier
        .default_workload()
        .generate(60_000, 10);
    let run_with_capacity = |mib: u64| {
        let cfg = IcgmmConfig {
            cache: CacheConfig {
                capacity_bytes: mib * 1024 * 1024,
                ..CacheConfig::paper_default()
            },
            ..test_config()
        };
        let sys = Icgmm::new(cfg).expect("valid config");
        sys.run(&trace, PolicyMode::Lru)
            .expect("run succeeds")
            .miss_rate_pct()
    };
    let big = run_with_capacity(64);
    let small = run_with_capacity(4);
    assert!(
        small >= big,
        "4 MiB cache misses ({small:.2}%) must be >= 64 MiB ({big:.2}%)"
    );
}

#[test]
fn preprocessing_respects_paper_defaults_end_to_end() {
    let cfg = IcgmmConfig::default();
    assert_eq!(cfg.preprocess, PreprocessConfig::default());
    let trace = WorkloadKind::Parsec.default_workload().generate(10_000, 1);
    let sys = Icgmm::new(test_config()).expect("valid config");
    // 20% warm-up + 10% tail trimmed ⇒ 70% measured.
    let run = sys.run(&trace, PolicyMode::Lru).expect("run succeeds");
    assert_eq!(run.sim.stats.accesses(), 7_000);
}

#[test]
fn system_default_path_matches_explicit_streaming_replay() {
    // `Icgmm::run` must agree with a hand-driven streaming replay of the
    // same trained model and policies: the assembly behind the front-end
    // adds nothing to the loop — one inference per scored miss.
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
    assert_eq!(run.gmm_inferences, eng.scores_computed());
}
