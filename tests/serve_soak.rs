//! Chaos soak for the serving front-end: the concurrent service survives
//! a seeded mixed-fault storm — scorer corruption, engine outages,
//! shard-worker panics mid-service and device faults all armed at once,
//! under multi-tenant cache pressure — with zero aborts, and the
//! semantic half of the report reproduces bit-for-bit across repeat
//! serves despite nondeterministic queue timing.

use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_cache::{CacheConfig, FaultPlan};
use icgmm_gmm::EmConfig;
use icgmm_trace::synth::{MultiTenantWorkload, Workload};
use icgmm_trace::PreprocessConfig;

/// Cross-tenant cache pressure keeps miss (and therefore scoring)
/// traffic high enough for every armed fault class to actually fire.
fn tenant_trace(n: usize, seed: u64) -> icgmm_trace::Trace {
    MultiTenantWorkload {
        tenants: 12,
        pages_per_tenant: 3_000,
        ..Default::default()
    }
    .generate(n, seed)
}

/// Fast-training config at K = 64, serving over `shards` workers fed by
/// 3 clients through deliberately shallow queues (constant backpressure).
fn soak_cfg(fault: FaultPlan, shards: usize) -> IcgmmConfig {
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
        sim_shards: shards,
        serve_clients: 3,
        serve_queue_depth: 8,
        fault,
        ..Default::default()
    }
}

#[test]
fn chaos_soak_serving_never_aborts_and_reproduces() {
    let trace = tenant_trace(30_000, 42);
    let mut sys = Icgmm::new(soak_cfg(FaultPlan::chaos(1234), 4)).unwrap();
    sys.fit(&trace).unwrap();

    // Zero aborts: armed worker panics are recovered by the supervisor
    // mid-service, so the chaos serve returns Ok.
    let a = sys.serve(&trace, PolicyMode::GmmCachingEviction).unwrap();
    assert!(a.sim.fault.injected() > 0, "chaos plan injected nothing");
    assert!(
        a.sim.fault.shard_panics > 0,
        "500‰ arming should panic some of 4 workers"
    );
    assert_eq!(
        a.sim.fault.shard_panics, a.sim.fault.shard_recoveries,
        "every armed panic must be recovered"
    );
    assert!(a.sim.stats.accesses() > 0);
    assert!(a.requests > 0);
    assert!(a.requests_per_sec > 0.0);

    // Queue timing and scheduling vary run to run; the
    // semantic half of the report must not.
    let b = sys.serve(&trace, PolicyMode::GmmCachingEviction).unwrap();
    assert_eq!(a.sim, b.sim, "served chaos replay must reproduce");
    assert_eq!(a.scores_consumed, b.scores_consumed);
    assert_eq!(a.sheds, b.sheds, "a client blocks, it never sheds");
}

#[test]
fn worker_panics_leave_served_results_untouched_real_engine() {
    let trace = tenant_trace(20_000, 9);
    let base = soak_cfg(FaultPlan::empty(), 4);
    let mut clean_sys = Icgmm::new(base).unwrap();
    clean_sys.fit(&trace).unwrap();
    let model = clean_sys.model().expect("fitted").clone();
    let clean = clean_sys
        .serve(&trace, PolicyMode::GmmCachingEviction)
        .unwrap();
    assert_eq!(clean.sim.fault.shard_panics, 0);

    // Kill every worker once, mid-service.
    let panicky = FaultPlan {
        seed: 5,
        shard_panic_per_mille: 1000,
        ..FaultPlan::empty()
    };
    let mut sys = Icgmm::new(soak_cfg(panicky, 4)).unwrap();
    sys.set_model(model);
    let served = sys.serve(&trace, PolicyMode::GmmCachingEviction).unwrap();
    assert_eq!(served.sim.fault.shard_panics, 4, "1000‰ kills all four");
    assert_eq!(served.sim.fault.shard_recoveries, 4);
    assert_eq!(
        served.sim.stats, clean.sim.stats,
        "recovery must reproduce the undisturbed outcomes"
    );
    assert_eq!(served.sim.total_us, clean.sim.total_us);
    assert_eq!(served.scores_consumed, clean.scores_consumed);
}
