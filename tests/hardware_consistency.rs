//! Integration tests tying the hardware model to the analytic simulator
//! and to the paper's published hardware numbers.

use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_cache::{
    simulate_streaming_with_warmup, CacheConfig, GmmScorePolicy, LatencyModel, ScoreSource,
    SetAssocCache, SimReport, ThresholdAdmit,
};
use icgmm_gmm::EmConfig;
use icgmm_hw::{
    table2, CacheEngineModel, DataflowConfig, DataflowReport, GmmEngineModel, GmmResourceModel,
    SsdProfile,
};
use icgmm_lstm::{LstmArch, LstmCostModel};
use icgmm_trace::synth::WorkloadKind;
use icgmm_trace::PreprocessConfig;

fn test_config() -> IcgmmConfig {
    IcgmmConfig {
        em: EmConfig {
            k: 16,
            max_iters: 20,
            ..Default::default()
        },
        max_train_cells: 10_000,
        ..IcgmmConfig::default()
    }
}

#[test]
fn paper_latency_constants_line_up() {
    // The three numbers the paper measures on-board (§5.3).
    assert!((CacheEngineModel::paper_default().hit_us() - 1.0).abs() < 0.01);
    assert!((GmmEngineModel::paper_k256().latency_us() - 3.0).abs() < 0.01);
    let ssd = SsdProfile::tlc();
    assert_eq!(ssd.read_us, 75.0);
    assert_eq!(ssd.write_us, 900.0);
    // GMM inference must overlap entirely with any SSD access.
    assert!(GmmEngineModel::paper_k256().latency_us() < ssd.read_us);
}

#[test]
fn table2_gap_exceeds_ten_thousand_x() {
    let gmm_us = GmmEngineModel::paper_k256().latency_us();
    let lstm_us = LstmCostModel::paper_calibrated()
        .estimate(&LstmArch::paper_baseline())
        .unwrap()
        .latency_us;
    let gain = lstm_us / gmm_us;
    assert!(gain > 10_000.0, "latency gain only {gain:.0}x");
    // And the published ratio is ~15,433x; our model should be within 2x.
    let published = table2::LSTM_LATENCY_US / table2::GMM_LATENCY_US;
    assert!(
        gain > published / 2.0 && gain < published * 2.0,
        "gain {gain:.0}x vs published {published:.0}x"
    );
}

#[test]
fn resource_models_reproduce_table2_rows() {
    let gmm = GmmResourceModel::paper_k256().estimate();
    assert_eq!(gmm.dsp, table2::GMM.dsp);
    assert!((i64::from(gmm.bram_36k) - i64::from(table2::GMM.bram_36k)).abs() <= 2);

    let lstm = LstmCostModel::paper_calibrated()
        .estimate(&LstmArch::paper_baseline())
        .unwrap();
    assert_eq!(lstm.dsp, table2::LSTM.dsp);
    // BRAM ratio is the paper's headline "~2% of on-chip memory".
    let ratio = f64::from(gmm.bram_36k) / f64::from(lstm.bram_36k);
    assert!(ratio < 0.06, "GMM/LSTM BRAM ratio {ratio:.3}");
}

#[test]
fn dataflow_model_matches_analytic_model_end_to_end() {
    let trace = WorkloadKind::Memtier
        .default_workload()
        .generate(60_000, 31);
    let mut sys = Icgmm::new(test_config()).expect("valid config");
    sys.fit(&trace).expect("training succeeds");

    for mode in [PolicyMode::Lru, PolicyMode::GmmCachingEviction] {
        let analytic = sys.run(&trace, mode).expect("analytic run");
        let dataflow = sys
            .run_dataflow(&trace, mode, &DataflowConfig::default())
            .expect("dataflow run");
        assert_eq!(
            analytic.sim.stats, dataflow.stats,
            "{mode}: functional behaviour diverged between models"
        );
        // The paper's SSD constants fold the engine's lookup + tag update
        // in; the cycle-level model charges them per miss — nothing else
        // separates the two averages.
        let overhead_us = dataflow.stats.misses() as f64
            * CacheEngineModel::paper_default().miss_overhead_us()
            / dataflow.stats.accesses() as f64;
        assert!(
            (dataflow.avg_request_us - analytic.avg_us() - overhead_us).abs() < 1e-9,
            "{mode}: dataflow {} µs vs analytic {} µs + {overhead_us}",
            dataflow.avg_request_us,
            analytic.avg_us()
        );
    }
}

#[test]
fn disabling_overlap_costs_exactly_the_policy_latency_per_miss() {
    let trace = WorkloadKind::Stream.default_workload().generate(60_000, 32);
    let mut sys = Icgmm::new(test_config()).expect("valid config");
    sys.fit(&trace).expect("training succeeds");

    let run = |overlap| {
        sys.run_dataflow(
            &trace,
            PolicyMode::GmmCachingEviction,
            &DataflowConfig {
                overlap_policy_with_ssd: overlap,
                ..Default::default()
            },
        )
        .expect("dataflow run")
    };
    let with = run(true);
    let without = run(false);
    let misses = with.stats.misses() as f64;
    let measured_gap =
        (without.avg_request_us - with.avg_request_us) * with.stats.accesses() as f64;
    let expected_gap = misses * GmmEngineModel::paper_k256().latency_us();
    assert!(
        (measured_gap - expected_gap).abs() < expected_gap * 1e-9,
        "total gap {measured_gap} µs vs expected {expected_gap} µs"
    );
    assert!((with.overlap_saved_us - expected_gap).abs() < expected_gap * 1e-12);
}

/// Modeled time is `LatencyModel::total_us` of a run's counters, so one
/// replay's counters re-costed under another latency model equal a replay
/// under that model, bit for bit — which is why Table 1 and Fig. 5 are
/// costings of Fig. 6's runs, not replays of their own. The fault plan is
/// empty: an armed device fault adds `FaultStats::device_request_us`,
/// which was rolled under the replay's own latency model, so a faulted
/// run's counters do not re-cost.
#[test]
fn recosting_a_runs_counters_equals_replaying_under_the_model() {
    let trace = WorkloadKind::Stream.default_workload().generate(60_000, 34);
    let mut sys = Icgmm::new(test_config()).expect("valid config");
    assert!(sys.config().fault.is_empty());
    sys.fit(&trace).expect("training succeeds");
    let mode = PolicyMode::GmmCachingEviction;
    let run = sys.run(&trace, mode).expect("analytic run");
    let recost = |latency: &LatencyModel| {
        let s = &run.sim;
        SimReport::from_counts(
            s.stats,
            s.miss_series.clone(),
            s.fault,
            latency,
            &s.eviction,
            &s.admission,
        )
    };

    for overlap_policy_with_ssd in [true, false] {
        let df = DataflowConfig {
            overlap_policy_with_ssd,
            ..Default::default()
        };
        let replayed = sys.run_dataflow(&trace, mode, &df).expect("dataflow run");
        let recosted = DataflowReport::from_sim(&recost(&df.latency()), &df);
        assert_eq!(
            recosted.makespan_us.to_bits(),
            replayed.makespan_us.to_bits()
        );
        assert_eq!(recosted, replayed, "overlap {overlap_policy_with_ssd}");
    }

    let qlc = LatencyModel::qlc_ssd();
    let replayed = sys.run_with_latency(&trace, mode, &qlc).expect("qlc run");
    let recosted = recost(&qlc);
    assert_eq!(recosted.total_us.to_bits(), replayed.sim.total_us.to_bits());
    assert_eq!(recosted, replayed.sim);
}

#[test]
fn fixed_point_and_f64_policies_agree_on_outcome() {
    let trace = WorkloadKind::Dlrm.default_workload().generate(80_000, 33);
    let mut f64_sys = Icgmm::new(test_config()).expect("valid config");
    f64_sys.fit(&trace).expect("training succeeds");
    let mut fx_sys = Icgmm::new(IcgmmConfig {
        fixed_point_inference: true,
        ..test_config()
    })
    .expect("valid config");
    fx_sys.fit(&trace).expect("training succeeds");

    let a = f64_sys
        .run(&trace, PolicyMode::GmmCachingEviction)
        .expect("f64 run");
    let b = fx_sys
        .run(&trace, PolicyMode::GmmCachingEviction)
        .expect("fixed run");
    assert!(
        (a.miss_rate_pct() - b.miss_rate_pct()).abs() < 1.0,
        "f64 {:.2}% vs fixed {:.2}%",
        a.miss_rate_pct(),
        b.miss_rate_pct()
    );
}

#[test]
fn system_dataflow_default_matches_explicit_streaming_replay() {
    // `Icgmm::run_dataflow` must equal a hand-driven dataflow replay of
    // the same trained model and policies — timing fields included.
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

    // Hand-driven dataflow reference with an identical stack.
    let (start, end) = cfg.preprocess.kept_range(trace.len());
    let mut ev = GmmScorePolicy::new(cfg.cache.num_sets(), cfg.cache.ways);
    let mut ad = ThresholdAdmit::new(sys.model().unwrap().threshold);
    let mut eng = sys.policy_engine().unwrap();
    let mut cache = SetAssocCache::new(cfg.cache).unwrap();
    let records = trace.records();
    let replay = simulate_streaming_with_warmup(
        &records[..start],
        &records[start..end],
        &mut cache,
        &mut ad,
        &mut ev,
        Some(&mut eng as &mut dyn ScoreSource),
        &df_cfg.latency(),
        None,
    );
    let streaming = DataflowReport::from_sim(&replay, &df_cfg);
    assert_eq!(streaming, run);
}
