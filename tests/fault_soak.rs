//! Chaos soak: the full train + replay pipeline survives a seeded
//! mixed-fault storm — scorer corruption, engine outages, shard-worker
//! panics, device failures and divergence storms all armed at once — with
//! zero aborts, and both the replay accounting and every fault counter
//! reproduce bit-for-bit from `(plan seed, trace seed)`.

use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_cache::{CacheConfig, FaultPlan};
use icgmm_gmm::EmConfig;
use icgmm_hw::DataflowConfig;
use icgmm_trace::synth::{MultiTenantWorkload, Workload};
use icgmm_trace::PreprocessConfig;

/// Cross-tenant cache pressure keeps miss (and therefore scoring/SSD)
/// traffic high enough for every armed fault class to actually fire.
fn tenant_trace(n: usize, seed: u64) -> icgmm_trace::Trace {
    MultiTenantWorkload {
        tenants: 12,
        pages_per_tenant: 3_000,
        ..Default::default()
    }
    .generate(n, seed)
}

/// Fast-training config at K = 64.
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
        fault,
        ..Default::default()
    }
}

#[test]
fn chaos_soak_sharded_replay_never_aborts_and_reproduces() {
    let trace = tenant_trace(30_000, 42);
    let mut sys = Icgmm::new(soak_cfg(FaultPlan::chaos(1234), 4)).unwrap();
    sys.fit(&trace).unwrap();

    // Zero aborts: armed shard panics are recovered by the supervisor, so
    // the chaos run returns Ok rather than propagating a failure.
    let a = sys
        .run_sharded(&trace, PolicyMode::GmmCachingEviction)
        .unwrap();
    assert!(a.sim.fault.injected() > 0, "chaos plan injected nothing");
    assert!(
        a.sim.fault.shard_panics > 0,
        "500‰ arming should panic some of 4 shards"
    );
    assert_eq!(
        a.sim.fault.shard_panics, a.sim.fault.shard_recoveries,
        "every armed panic must be recovered"
    );
    assert!(a.sim.stats.accesses() > 0);

    let b = sys
        .run_sharded(&trace, PolicyMode::GmmCachingEviction)
        .unwrap();
    assert_eq!(a, b, "chaos replay must reproduce from its seeds");
}

#[test]
fn chaos_soak_single_threaded_replay_reproduces() {
    let trace = tenant_trace(30_000, 42);
    let plan = FaultPlan {
        // Aggressive scorer corruption so the monitor rung engages.
        scorer_nan_per_mille: 200,
        scorer_outage_per_mille: 5,
        scorer_outage_len: 64,
        scorer_demote_after: 4,
        scorer_promote_after: 16,
        ..FaultPlan::chaos(77)
    };
    let mut sys = Icgmm::new(soak_cfg(plan, 1)).unwrap();
    sys.fit(&trace).unwrap();

    let a = sys.run(&trace, PolicyMode::GmmCachingEviction).unwrap();
    assert!(a.sim.fault.scorer_nan_injected > 0, "no scores corrupted");
    assert!(
        a.sim.fault.scorer_demotions > 0,
        "monitor rung never engaged"
    );
    assert!(a.sim.fault.degraded_victims > 0, "LRU fallback never used");
    assert!(
        a.sim.fault.degraded_admits > 0,
        "always-admit fallback never used"
    );

    let b = sys.run(&trace, PolicyMode::GmmCachingEviction).unwrap();
    assert_eq!(a, b, "fault-armed replay must reproduce from its seeds");
}

#[test]
fn config_fault_plan_propagates_into_the_dataflow_model() {
    let trace = tenant_trace(20_000, 9);
    let plan = FaultPlan {
        device_fail_per_mille: 100,
        device_spike_per_mille: 60,
        ..FaultPlan::empty()
    };
    // The DataflowConfig carries no plan of its own; the system-level
    // IcgmmConfig::fault must reach the SSD emulator.
    let sys = Icgmm::new(soak_cfg(plan, 1)).unwrap();
    let a = sys
        .run_dataflow(&trace, PolicyMode::Lru, &DataflowConfig::default())
        .unwrap();
    assert!(
        a.fault.device_failures + a.fault.device_spikes > 0,
        "IcgmmConfig::fault never reached the device model"
    );
    assert!(a.fault.device_fault_us > 0.0);

    let b = sys
        .run_dataflow(&trace, PolicyMode::Lru, &DataflowConfig::default())
        .unwrap();
    assert_eq!(a, b, "device-fault timing must be deterministic");
}
