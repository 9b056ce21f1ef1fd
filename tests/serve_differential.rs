//! End-to-end differential tests for the serving front-end:
//! `Icgmm::serve` driven by the *real* trained GMM policy engine over the
//! multi-tenant synthetic workload reports bit-identically to both
//! the single-threaded `Icgmm::run` and the offline sharded
//! `Icgmm::run_sharded`, for every serving geometry (shards × clients ×
//! queue depth) — concurrency buys throughput, never decisions.

use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_cache::CacheConfig;
use icgmm_gmm::EmConfig;
use icgmm_trace::synth::{MultiTenantWorkload, Workload};
use icgmm_trace::PreprocessConfig;

/// The pooled-deployment scenario: 12 tenants with Zipf-skewed working
/// sets interleaving on one device, under constant cross-tenant pressure.
fn tenant_trace(n: usize, seed: u64) -> icgmm_trace::Trace {
    MultiTenantWorkload {
        tenants: 12,
        pages_per_tenant: 3_000,
        ..Default::default()
    }
    .generate(n, seed)
}

/// A config that trains in milliseconds (K = 64).
fn serve_cfg() -> IcgmmConfig {
    IcgmmConfig {
        cache: CacheConfig {
            capacity_bytes: 512 * 4096,
            block_bytes: 4096,
            ways: 8,
        },
        em: EmConfig {
            k: 64,
            max_iters: 15,
            ..Default::default()
        },
        preprocess: PreprocessConfig {
            len_window: 32,
            len_access_shot: 1_000,
            ..Default::default()
        },
        max_train_cells: 20_000,
        ..Default::default()
    }
}

#[test]
fn served_reports_match_offline_replay_real_engine() {
    let trace = tenant_trace(24_000, 7);
    let base = serve_cfg();
    let mut reference_sys = Icgmm::new(base).unwrap();
    reference_sys.fit(&trace).unwrap();
    let model = reference_sys.model().expect("fitted").clone();

    for mode in [
        PolicyMode::Lru,
        PolicyMode::Belady,
        PolicyMode::GmmCachingEviction,
    ] {
        let reference = reference_sys.run(&trace, mode).unwrap();
        // Serving-only knobs must never show up in the merged report:
        // single worker, many clients over few shards, deep sharding
        // with depth-1 queues (permanent backpressure).
        for (shards, clients, depth) in [(1, 1, 64), (2, 3, 8), (4, 2, 1)] {
            let mut cfg = base;
            cfg.sim_shards = shards;
            cfg.serve_clients = clients;
            cfg.serve_queue_depth = depth;
            let mut sys = Icgmm::new(cfg).unwrap();
            sys.set_model(model.clone());

            let served = sys.serve(&trace, mode).unwrap();
            assert_eq!(
                served.sim, reference.sim,
                "{mode} diverged from single-threaded at {shards} shards / \
                 {clients} clients / depth {depth}"
            );
            let sharded = sys.run_sharded(&trace, mode).unwrap();
            assert_eq!(
                served.sim, sharded.sim,
                "{mode} diverged from offline sharded replay at {shards} shards"
            );

            assert!(served.requests > 0);
            assert_eq!(served.shards, shards);
            assert_eq!(served.clients, clients.min(shards));
            assert_eq!(served.sheds, 0, "a client blocks, it never sheds");
            assert!(served.requests_per_sec > 0.0);
            assert!(served.wall_us > 0.0);
            assert!(served.admission_p50_us <= served.admission_p99_us);
            if mode == PolicyMode::GmmCachingEviction {
                assert!(served.scores_consumed > 0);
                assert_eq!(
                    served.scores_consumed, sharded.gmm_inferences,
                    "serving computes exactly what the replay consumes"
                );
            }
        }
    }
}

#[test]
fn serving_is_deterministic_across_repeat_runs() {
    let trace = tenant_trace(20_000, 99);
    let mut cfg = serve_cfg();
    cfg.sim_shards = 4;
    cfg.serve_clients = 2;
    cfg.serve_queue_depth = 16;
    let mut sys = Icgmm::new(cfg).unwrap();
    sys.fit(&trace).unwrap();
    let a = sys.serve(&trace, PolicyMode::GmmCachingEviction).unwrap();
    let b = sys.serve(&trace, PolicyMode::GmmCachingEviction).unwrap();
    // Timing fields differ run to run; every semantic field must not.
    assert_eq!(a.sim, b.sim, "thread scheduling leaked into the report");
    assert_eq!(a.scores_consumed, b.scores_consumed);
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.sheds, b.sheds);
}
