//! Model lifecycle integration tests: save/load round-trips through the
//! text format, deployment into a fresh system, `fit` against the
//! `f64`-cell, index-shuffle subsample it replaced, and `calibrate` against
//! `fit` at the same quantile.

use icgmm::persist::{load_model, save_model};
use icgmm::{FitSummary, Icgmm, IcgmmConfig, IcgmmError, PolicyMode, TrainedModel};
use icgmm_gmm::{calibrate_threshold, EmConfig, EmTrainer, StandardScaler};
use icgmm_trace::synth::WorkloadKind;
use icgmm_trace::{extract_weighted_cells_range, Trace, WeightedSample};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn test_config() -> IcgmmConfig {
    IcgmmConfig {
        em: EmConfig {
            k: 12,
            max_iters: 20,
            ..Default::default()
        },
        max_train_cells: 8_000,
        ..IcgmmConfig::default()
    }
}

#[test]
fn saved_model_reproduces_simulation_exactly() {
    let trace = WorkloadKind::Memtier
        .default_workload()
        .generate(50_000, 41);
    let mut sys = Icgmm::new(test_config()).expect("valid config");
    sys.fit(&trace).expect("training succeeds");

    // Serialize to the text format and back.
    let mut buf = Vec::new();
    save_model(sys.model().expect("trained"), &mut buf).expect("save succeeds");
    let loaded = load_model(buf.as_slice()).expect("load succeeds");
    assert_eq!(&loaded, sys.model().expect("trained"));

    // A fresh system with the loaded model simulates identically.
    let mut deployed = Icgmm::new(test_config()).expect("valid config");
    deployed.set_model(loaded);
    let a = sys
        .run(&trace, PolicyMode::GmmCachingEviction)
        .expect("original run");
    let b = deployed
        .run(&trace, PolicyMode::GmmCachingEviction)
        .expect("deployed run");
    assert_eq!(a.sim.stats, b.sim.stats);
    assert_eq!(a.avg_us(), b.avg_us());
}

#[test]
fn model_file_is_humanly_inspectable() {
    let trace = WorkloadKind::Parsec.default_workload().generate(30_000, 42);
    let mut sys = Icgmm::new(test_config()).expect("valid config");
    sys.fit(&trace).expect("training succeeds");
    let mut buf = Vec::new();
    save_model(sys.model().expect("trained"), &mut buf).expect("save succeeds");
    let text = String::from_utf8(buf).expect("model file is UTF-8");
    assert!(text.starts_with("icgmm-model v1"));
    assert!(text.contains("threshold "));
    // One `comp` line per mixture component.
    let comps = text.lines().filter(|l| l.starts_with("comp ")).count();
    assert_eq!(comps, sys.model().expect("trained").gmm.k());
}

/// `fit` as it was before its cells were compact: `f64` cells, a shuffled
/// index over all of them truncated to `max_train_cells`, then the same
/// scaler, EM and calibration. The `f64` cells are the façade's, which
/// `crates/trace/tests/cells_differential.rs` holds to a `HashMap` oracle.
fn index_shuffle_fit(trace: &Trace, cfg: &IcgmmConfig) -> (TrainedModel, FitSummary) {
    let (start, end) = cfg.preprocess.kept_range(trace.len());
    let cells = extract_weighted_cells_range(trace.records(), &cfg.preprocess, start, end);
    let mut rng = StdRng::seed_from_u64(cfg.em.seed ^ 0x5EED_CE11);
    let sampled: Vec<&WeightedSample> = if cells.len() > cfg.max_train_cells {
        let mut idx: Vec<usize> = (0..cells.len()).collect();
        idx.shuffle(&mut rng);
        idx.truncate(cfg.max_train_cells);
        idx.into_iter().map(|i| &cells[i]).collect()
    } else {
        cells.iter().collect()
    };
    let mut xs: Vec<[f64; 2]> = sampled.iter().map(|c| [c.page, c.time]).collect();
    let ws: Vec<f64> = sampled.iter().map(|c| c.weight).collect();
    let scaler = StandardScaler::fit(&xs, &ws);
    scaler.transform_all(&mut xs);
    let (gmm, em) = EmTrainer::new(cfg.em).unwrap().fit(&xs, &ws).unwrap();
    let threshold = calibrate_threshold(&gmm, &xs, &ws, cfg.admission_quantile).unwrap();
    let summary = FitSummary {
        records_used: end - start,
        cells_total: cells.len(),
        cells_trained: xs.len(),
        em,
    };
    (
        TrainedModel {
            scaler,
            gmm,
            threshold,
        },
        summary,
    )
}

/// A model and summary as text that differs whenever a bit does (`{:?}`
/// prints every finite `f64` in its shortest round-trip form).
fn fingerprint(model: &TrainedModel, fit: &FitSummary) -> String {
    format!(
        "{:?} {:?} {:?} {:x} {fit:?}",
        model.scaler,
        model.gmm.weights(),
        model.gmm.components(),
        model.threshold.to_bits()
    )
}

#[test]
fn fit_equals_the_index_shuffle_subsample_bit_for_bit() {
    let trace = WorkloadKind::Memtier
        .default_workload()
        .generate(20_000, 43);
    for seed in [1, 2] {
        for (max_train_cells, subsampled) in [(2_000, true), (1_000_000, false)] {
            let mut cfg = test_config();
            cfg.em.seed = seed;
            cfg.max_train_cells = max_train_cells;
            let mut sys = Icgmm::new(cfg).expect("valid config");
            let fit = sys.fit(&trace).expect("training succeeds").clone();
            let (want_model, want_fit) = index_shuffle_fit(&trace, &cfg);
            assert_eq!(fit.cells_trained, fit.cells_total.min(max_train_cells));
            assert_eq!(fit.cells_total > max_train_cells, subsampled, "{fit:?}");
            assert_eq!(
                fingerprint(sys.model().expect("trained"), &fit),
                fingerprint(&want_model, &want_fit),
                "seed {seed}, max_train_cells {max_train_cells}"
            );
        }
    }
}

#[test]
fn calibrate_after_fit_equals_fit_at_the_quantile_bit_for_bit() {
    let trace = WorkloadKind::Memtier
        .default_workload()
        .generate(20_000, 44);
    let mut trained = Icgmm::new(test_config()).expect("valid config");
    let fit = trained.fit(&trace).expect("training succeeds").clone();
    for q in [0.0, 0.02, 0.35, 0.8] {
        let cfg = IcgmmConfig {
            admission_quantile: q,
            ..test_config()
        };
        let mut fitted = Icgmm::new(cfg).expect("valid config");
        let want_fit = fitted.fit(&trace).expect("training succeeds").clone();
        let mut calibrated = Icgmm::new(cfg).expect("valid config");
        calibrated.set_model(trained.model().expect("trained").clone());
        let threshold = calibrated.calibrate(&trace).expect("calibration succeeds");
        let model = calibrated.model().expect("installed");
        assert_eq!(threshold.to_bits(), model.threshold.to_bits(), "q = {q}");
        assert_eq!(
            fingerprint(model, &fit),
            fingerprint(fitted.model().expect("trained"), &want_fit),
            "q = {q}"
        );
    }
}

#[test]
fn calibrate_needs_a_model_and_a_kept_range() {
    let trace = WorkloadKind::Memtier
        .default_workload()
        .generate(20_000, 45);
    let mut sys = Icgmm::new(test_config()).expect("valid config");
    assert!(matches!(sys.calibrate(&trace), Err(IcgmmError::NotFitted)));
    sys.fit(&trace).expect("training succeeds");
    let before = sys.model().expect("trained").clone();
    assert!(matches!(
        sys.calibrate(&Trace::new()),
        Err(IcgmmError::EmptyTrace)
    ));
    assert_eq!(
        sys.model(),
        Some(&before),
        "a refused calibration keeps the model"
    );
}

/// Quantile 0 calibrates the threshold to 0, below every score, so
/// `gmm-both` admits every miss and replays as `gmm-eviction` — the stand-in
/// the `fidelity` bin's quantile sweep takes for its quantile-0 row.
#[test]
fn gmm_both_at_quantile_zero_replays_as_gmm_eviction() {
    let trace = WorkloadKind::Stream.default_workload().generate(60_000, 46);
    let mut sys = Icgmm::new(test_config()).expect("valid config");
    sys.fit(&trace).expect("training succeeds");
    let mut zero = Icgmm::new(IcgmmConfig {
        admission_quantile: 0.0,
        ..test_config()
    })
    .expect("valid config");
    zero.set_model(sys.model().expect("trained").clone());
    assert_eq!(zero.calibrate(&trace).expect("calibration succeeds"), 0.0);
    let both = zero
        .run(&trace, PolicyMode::GmmCachingEviction)
        .expect("run");
    let eviction = sys.run(&trace, PolicyMode::GmmEvictionOnly).expect("run");
    assert_eq!(both.sim.stats, eviction.sim.stats);
    assert_eq!(both.gmm_inferences, eviction.gmm_inferences);
    assert!(both.sim.stats.bypasses() == 0 && both.gmm_inferences > 0);
}
