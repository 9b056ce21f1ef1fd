//! End-to-end differential tests for sharded replay: `Icgmm::run_sharded`
//! driven by the *real* trained GMM policy engine (f64 and fixed-point
//! datapaths) over the multi-tenant synthetic workload is bit-identical to
//! the single-threaded `Icgmm::run` at every shard count, and the
//! multi-tenant workload itself replays deterministically from its seed.

use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_cache::CacheConfig;
use icgmm_gmm::EmConfig;
use icgmm_trace::synth::{MultiTenantWorkload, Workload};
use icgmm_trace::PreprocessConfig;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The pooled-deployment scenario: 12 tenants with Zipf-skewed working
/// sets interleaving on one device, sized so the cache is under constant
/// cross-tenant pressure.
fn tenant_trace(n: usize, seed: u64) -> icgmm_trace::Trace {
    MultiTenantWorkload {
        tenants: 12,
        pages_per_tenant: 3_000,
        ..Default::default()
    }
    .generate(n, seed)
}

/// A config that trains in milliseconds (K = 64).
fn shard_cfg(fixed_point: bool) -> IcgmmConfig {
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
        fixed_point_inference: fixed_point,
        ..Default::default()
    }
}

#[test]
fn multi_tenant_workload_is_deterministic_from_seed() {
    let a = tenant_trace(30_000, 42);
    let b = tenant_trace(30_000, 42);
    assert_eq!(a, b, "same seed must reproduce the trace exactly");
    assert_ne!(a, tenant_trace(30_000, 43), "seed must matter");

    // ...and so must the full train + replay pipeline on top of it.
    let mut s1 = Icgmm::new(shard_cfg(false)).unwrap();
    let mut s2 = Icgmm::new(shard_cfg(false)).unwrap();
    s1.fit(&a).unwrap();
    s2.fit(&b).unwrap();
    let r1 = s1.run(&a, PolicyMode::GmmCachingEviction).unwrap();
    let r2 = s2.run(&b, PolicyMode::GmmCachingEviction).unwrap();
    assert_eq!(r1, r2);
}

#[test]
fn sharded_replay_matches_single_threaded_real_engine_both_datapaths() {
    let trace = tenant_trace(40_000, 7);
    for fixed in [false, true] {
        let base = shard_cfg(fixed);
        let mut reference_sys = Icgmm::new(base).unwrap();
        reference_sys.fit(&trace).unwrap();
        let model = reference_sys.model().expect("fitted").clone();

        for mode in [
            PolicyMode::GmmCachingOnly,
            PolicyMode::GmmEvictionOnly,
            PolicyMode::GmmCachingEviction,
        ] {
            let reference = reference_sys.run(&trace, mode).unwrap();
            for shards in SHARD_COUNTS {
                let mut cfg = base;
                cfg.sim_shards = shards;
                let mut sys = Icgmm::new(cfg).unwrap();
                sys.set_model(model.clone());
                let sharded = sys.run_sharded(&trace, mode).unwrap();
                assert_eq!(
                    reference.sim, sharded.sim,
                    "fixed={fixed}, {mode} diverged at {shards} shards"
                );
                // Shards score exactly the misses they replay, so the
                // inference count is shard-count invariant too.
                assert_eq!(
                    reference.gmm_inferences, sharded.gmm_inferences,
                    "fixed={fixed}, {mode} at {shards} shards"
                );
            }
        }
    }
}

#[test]
fn sharded_replay_is_deterministic_across_repeat_runs() {
    let trace = tenant_trace(30_000, 99);
    let mut cfg = shard_cfg(false);
    cfg.sim_shards = 4;
    let mut sys = Icgmm::new(cfg).unwrap();
    sys.fit(&trace).unwrap();
    let a = sys
        .run_sharded(&trace, PolicyMode::GmmCachingEviction)
        .unwrap();
    let b = sys
        .run_sharded(&trace, PolicyMode::GmmCachingEviction)
        .unwrap();
    assert_eq!(a, b, "thread scheduling leaked into the report");
}
