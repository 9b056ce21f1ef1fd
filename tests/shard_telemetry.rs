//! A shard returns what it counted: the fault and adaptation blocks of a
//! report are plain per-shard values, read once after a shard's last
//! record. Fault blocks are summed in shard order; every shard's
//! adaptation block is the whole slice's, reported once.
//!
//! * A worker that dies takes its counters with it — offline and
//!   mid-service alike — so a run in which every shard's first attempt
//!   panics reports exactly what an undisturbed run reports, plus the
//!   supervisor's panic / recovery counts.
//! * `ShardedReport::per_shard[i].fault` are real per-shard numbers, and
//!   they add up to the merged report's; every `per_shard[i].adapt` is
//!   the merged report's.

use std::sync::OnceLock;
use std::thread::{self, Scope};

use icgmm::{
    AdaptPlan, AdaptiveEngine, GmmPolicyEngine, Icgmm, IcgmmConfig, PolicyMode, TrainedModel,
};
use icgmm_cache::{
    CacheConfig, FaultPlan, FaultStats, FaultyScore, GmmScorePolicy, Policy, ShardPolicies,
    ShardedSimulator, SimReport, ThresholdAdmit,
};
use icgmm_gmm::EmConfig;
use icgmm_trace::synth::{MultiTenantWorkload, Workload};
use icgmm_trace::{PreprocessConfig, Trace, TraceRecord};

const MODE: PolicyMode = PolicyMode::GmmCachingEviction;

/// Scorer faults, the health monitor and drift-chasing adaptation all
/// armed, on a config that trains in milliseconds (K = 64).
fn cfg(fault: FaultPlan, shards: usize) -> IcgmmConfig {
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
        adapt: AdaptPlan::drifty(7),
        ..Default::default()
    }
}

/// Fast phase rotation (a tenant's hot window advances every ~1.5k of its
/// own requests) under a model fitted on the first third only, so the
/// drift detector has something to find; trace and model built once.
fn fixture() -> &'static (Trace, TrainedModel) {
    static FIXTURE: OnceLock<(Trace, TrainedModel)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let trace = MultiTenantWorkload {
            tenants: 12,
            pages_per_tenant: 3_000,
            phase_len: 1_500,
            ..Default::default()
        }
        .generate(30_000, 42);
        let prefix = Trace::from_records(trace.records()[..trace.len() / 3].to_vec());
        let mut sys = Icgmm::new(cfg(FaultPlan::empty(), 1)).unwrap();
        sys.fit(&prefix).unwrap();
        let model = sys.model().expect("fitted").clone();
        (trace, model)
    })
}

fn system(fault: FaultPlan, shards: usize) -> Icgmm {
    let mut sys = Icgmm::new(cfg(fault, shards)).unwrap();
    sys.set_model(fixture().1.clone());
    sys
}

/// Scorer corruption heavy enough for the ladder to demote and re-promote
/// on every shard; `shard_panic_per_mille` decides whether each shard's
/// first attempt dies.
fn ladder_plan(shard_panic_per_mille: u16) -> FaultPlan {
    FaultPlan {
        seed: 77,
        scorer_nan_per_mille: 200,
        scorer_outage_per_mille: 5,
        scorer_outage_len: 64,
        scorer_demote_after: 4,
        scorer_promote_after: 16,
        shard_panic_per_mille,
        ..FaultPlan::empty()
    }
}

/// `armed` equals `clean` in every field but the supervisor's two
/// counters, which say every one of `shards` shards died once and came
/// back; and neither telemetry block is vacuous.
fn assert_only_the_supervisor_noticed(armed: &SimReport, clean: &SimReport, shards: usize) {
    assert_eq!(armed.fault.shard_panics, shards as u64, "every shard dies");
    assert_eq!(armed.fault.shard_recoveries, shards as u64);
    let mut scrubbed = armed.clone();
    scrubbed.fault.shard_panics = 0;
    scrubbed.fault.shard_recoveries = 0;
    assert_eq!(&scrubbed, clean, "a dead attempt left counters behind");
    assert!(clean.fault.scorer_nan_injected > 0, "{:?}", clean.fault);
    assert!(clean.fault.scorer_demotions > 0, "{:?}", clean.fault);
    assert!(clean.fault.degraded_scores > 0, "{:?}", clean.fault);
    assert!(clean.adapt.checks > 0, "{:?}", clean.adapt);
    assert!(clean.adapt.refits > 0, "{:?}", clean.adapt);
}

#[test]
fn a_dead_attempt_takes_its_counters_with_it_offline() {
    let (trace, _) = fixture();
    for shards in [1usize, 2, 4] {
        let clean = system(ladder_plan(0), shards).run_sharded(trace, MODE);
        let armed = system(ladder_plan(1000), shards).run_sharded(trace, MODE);
        assert_only_the_supervisor_noticed(&armed.unwrap().sim, &clean.unwrap().sim, shards);
    }
}

/// Served at 4 shards × 3 clients through 8-record queues, so a worker has
/// shipped the outcomes before its panic point when it dies: the delivered
/// prefix stays merged, the counters behind it do not.
#[test]
fn a_dead_worker_takes_its_counters_with_it_mid_service() {
    let (trace, _) = fixture();
    let clean = system(ladder_plan(0), 4).serve(trace, MODE).unwrap();
    let armed = system(ladder_plan(1000), 4).serve(trace, MODE).unwrap();
    assert_only_the_supervisor_noticed(&armed.sim, &clean.sim, 4);
    assert_eq!(armed.scores_consumed, clean.scores_consumed);
    // Serving and the offline engine count the same things.
    let offline = system(ladder_plan(0), 4).run_sharded(trace, MODE);
    assert_eq!(clean.sim, offline.unwrap().sim);
}

/// The stack `Icgmm` assembles for every shard, built by hand so the
/// engine's `ShardedReport` (which `RunReport` does not carry) can be
/// inspected: the shard's refit producer walks the whole of `records` —
/// the replayed slice — into `scope`.
fn make_shard<'s>(
    cfg: &IcgmmConfig,
    scope: &'s Scope<'s, '_>,
    records: &'s [TraceRecord],
) -> ShardPolicies {
    let (_, model) = fixture();
    let (sets, ways) = (cfg.cache.num_sets(), cfg.cache.ways);
    let engine = GmmPolicyEngine::new(model, &cfg.preprocess, false).unwrap();
    let walk = (0..).zip(records);
    let adaptive = AdaptiveEngine::spawn(scope, engine, &model.gmm, cfg.em, cfg.adapt, walk);
    ShardPolicies {
        policy: Policy::new(
            Some(ThresholdAdmit {
                threshold: model.threshold,
                admit_writes_always: cfg.admit_writes_always,
            }),
            GmmScorePolicy::new(sets, ways),
        ),
        score: Some(Box::new(FaultyScore::new(adaptive.unwrap(), cfg.fault))),
    }
}

#[test]
fn per_shard_blocks_are_real_and_add_up_to_the_merged_report() {
    let (trace, _) = fixture();
    for shards in [1usize, 4] {
        let cfg = cfg(FaultPlan::chaos(1234), shards);
        let (start, end) = cfg.preprocess.kept_range(trace.len());
        let records = &trace.records()[..end];
        let rep = thread::scope(|scope| {
            ShardedSimulator::new(shards).with_faults(cfg.fault).run(
                records,
                start,
                cfg.cache,
                &|_| make_shard(&cfg, scope, records),
                &cfg.latency,
                None,
            )
        })
        .unwrap();

        let mut fault = FaultStats::default();
        for shard in &rep.per_shard {
            assert_eq!(
                shard.fault.shard_panics, 0,
                "the supervisor's, not a shard's"
            );
            fault.merge(&shard.fault);
            assert_eq!(shard.adapt, rep.sim.adapt, "{shards} shards");
        }
        fault.shard_panics = rep.sim.fault.shard_panics;
        fault.shard_recoveries = rep.sim.fault.shard_recoveries;
        assert_eq!(fault, rep.sim.fault, "{shards} shards");
        assert_eq!(fault.shard_panics, fault.shard_recoveries);
        assert!(rep.sim.adapt.checks > 0);

        let busy = |f: fn(&SimReport) -> bool| rep.per_shard.iter().filter(|s| f(s)).count();
        assert!(busy(|s| !s.fault.is_clean()) >= shards.min(2));

        // And the hand-built stack is the one `Icgmm` assembles.
        let sys = system(cfg.fault, shards).run_sharded(trace, MODE).unwrap();
        assert_eq!(sys.sim, rep.sim, "{shards} shards");
    }
}
