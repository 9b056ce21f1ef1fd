//! Model lifecycle integration tests: save/load round-trips through the
//! text format and deployment into a fresh system.

use icgmm::persist::{load_model, save_model};
use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_gmm::EmConfig;
use icgmm_trace::synth::WorkloadKind;

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
