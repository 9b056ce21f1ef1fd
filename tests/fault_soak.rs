//! Chaos soak: the full train + replay pipeline survives a seeded
//! mixed-fault storm — scorer corruption, engine outages, shard-worker
//! panics, device failures and divergence storms all armed at once — with
//! zero aborts, and both the replay accounting and every fault counter
//! reproduce bit-for-bit from `(plan seed, trace seed)`.

use icgmm::benchmarks::BenchmarkSpec;
use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_cache::{CacheConfig, FaultPlan};
use icgmm_gmm::EmConfig;
use icgmm_hw::DataflowConfig;
use icgmm_trace::synth::{
    DlrmWorkload, MultiTenantWorkload, StreamWorkload, Workload, WorkloadKind,
};
use icgmm_trace::{PreprocessConfig, Trace};

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
        // Aggressive scorer corruption: many blocks go in unscored.
        scorer_nan_per_mille: 200,
        scorer_outage_per_mille: 5,
        scorer_outage_len: 64,
        ..FaultPlan::chaos(77)
    };
    let mut sys = Icgmm::new(soak_cfg(plan, 1)).unwrap();
    sys.fit(&trace).unwrap();

    let a = sys.run(&trace, PolicyMode::GmmCachingEviction).unwrap();
    assert!(a.sim.fault.scorer_nan_injected > 0, "no scores corrupted");
    assert!(a.sim.fault.scorer_outage_scores > 0, "no outage");

    let b = sys.run(&trace, PolicyMode::GmmCachingEviction).unwrap();
    assert_eq!(a, b, "fault-armed replay must reproduce from its seeds");
}

/// The device-fault row: `IcgmmConfig::fault`'s device faults reach every
/// front-end, as a function of position. Under `latency =
/// DataflowConfig::default().latency()`, `run`, `run_sharded` at four
/// shards and `serve` report one `SimReport`, whose `total_us` is
/// `run_dataflow`'s makespan bit for bit and whose fault block is
/// `run_dataflow`'s; the stats are the unarmed run's, and the modeled time
/// is longer.
#[test]
fn config_fault_plan_propagates_into_the_dataflow_model() {
    let trace = tenant_trace(20_000, 9);
    let plan = FaultPlan {
        device_fail_per_mille: 100,
        device_spike_per_mille: 60,
        ..FaultPlan::empty()
    };
    let df = DataflowConfig::default();
    let system = |fault, shards| {
        let cfg = IcgmmConfig {
            latency: df.latency(),
            serve_clients: 2,
            ..soak_cfg(fault, shards)
        };
        Icgmm::new(cfg).unwrap()
    };
    let sys = system(plan, 1);
    let a = sys.run_dataflow(&trace, PolicyMode::Lru, &df).unwrap();
    assert!(
        a.fault.device_failures + a.fault.device_spikes > 0,
        "IcgmmConfig::fault never reached the device model"
    );
    assert!(a.fault.device_fault_as > 0);
    let b = sys.run_dataflow(&trace, PolicyMode::Lru, &df).unwrap();
    assert_eq!(a, b, "device-fault timing must be deterministic");

    let run = sys.run(&trace, PolicyMode::Lru).unwrap().sim;
    let four = system(plan, 4);
    assert_eq!(four.run_sharded(&trace, PolicyMode::Lru).unwrap().sim, run);
    assert_eq!(four.serve(&trace, PolicyMode::Lru).unwrap().sim, run);
    assert_eq!(run.total_us, a.makespan_us);
    assert_eq!((run.stats, run.fault), (a.stats, a.fault));
    let unarmed = system(FaultPlan::empty(), 1);
    let unarmed = unarmed.run(&trace, PolicyMode::Lru).unwrap().sim;
    assert_eq!(unarmed.stats, run.stats);
    assert!(run.total_us > unarmed.total_us);
}

/// `stream` and `dlrm` at [`BenchmarkSpec::quick_suite`]'s budget and seeds
/// (200 k requests), shrunk to match — footprint and cache divided by
/// `scale`, K = 64 fitted on 20 k cells — so that 30 ‰ of corrupted scores
/// reach the same share of the cache's blocks as at the paper's scale.
fn scaled(kind: WorkloadKind, scale: u64) -> (Trace, IcgmmConfig) {
    let spec = BenchmarkSpec::quick_suite()
        .into_iter()
        .find(|s| s.kind == kind)
        .expect("the suite covers every kind");
    let workload: Box<dyn Workload> = match kind {
        WorkloadKind::Stream => {
            let d = StreamWorkload::default();
            Box::new(StreamWorkload {
                array_pages: d.array_pages / scale,
                hot_pages: d.hot_pages / scale,
                ..d
            })
        }
        WorkloadKind::Dlrm => {
            let d = DlrmWorkload::default();
            Box::new(DlrmWorkload {
                rows_per_table: d.rows_per_table / scale,
                mlp_pages: d.mlp_pages / scale,
                phase_len_samples: d.phase_len_samples / scale as usize,
                ..d
            })
        }
        other => panic!("no scaled form of {other}"),
    };
    let paper = spec.config();
    let cfg = IcgmmConfig {
        cache: CacheConfig {
            capacity_bytes: paper.cache.capacity_bytes / scale,
            ..paper.cache
        },
        em: EmConfig { k: 64, ..paper.em },
        max_train_cells: 20_000,
        ..paper
    };
    (workload.generate(spec.requests, spec.seed), cfg)
}

/// Corrupted scores cost what they touch and no more. With 3 % of scores
/// flipped to NaN / ±Inf, gmm-eviction keeps at least three quarters of
/// its miss-rate gain over LRU (a corrupted score decides one request by
/// recency, and the block it inserts is re-scored at the next trusted
/// eviction in its set; stored as it came, it pinned a block for the rest
/// of the run, and the pins piled up); under the chaos preset's scorer
/// faults — the flips plus 64-position outages — it keeps at least half.
///
/// Measured (miss %: LRU, clean, flips, chaos):
/// `stream` ÷ 4 — 14.42, 12.93, 13.05 (8 % of the gain lost), 13.27
/// (77 % kept); `dlrm` ÷ 8 — 40.27, 33.68, 33.76 (1 %), 36.77 (53 %
/// kept). With non-finite scores stored as they came: `stream` 13.97 (70 %
/// lost) and 14.59 under chaos, `dlrm` 38.01 (66 % lost) and 39.88. With
/// unscored blocks stored as score 0 and never re-scored, flips read
/// 13.13 and 33.79 (13 % and 2 % lost); a health monitor that distrusted
/// the engine after 8 bad scores in a row read LRU under chaos (0 % kept).
#[test]
fn corrupted_scores_cost_a_fraction_of_the_gain_and_chaos_keeps_half_of_it() {
    for (name, scale) in [(WorkloadKind::Stream, 4), (WorkloadKind::Dlrm, 8)] {
        let (trace, cfg) = scaled(name, scale);
        let mut sys = Icgmm::new(cfg).unwrap();
        sys.fit(&trace).unwrap();
        let model = sys.model().expect("fitted").clone();
        let miss_pct = |fault: FaultPlan, mode: PolicyMode| {
            let mut sys = Icgmm::new(IcgmmConfig { fault, ..cfg }).unwrap();
            sys.set_model(model.clone());
            sys.run(&trace, mode).unwrap().miss_rate_pct()
        };
        let flips = FaultPlan {
            seed: 1,
            scorer_nan_per_mille: 30,
            ..FaultPlan::empty()
        };
        let chaos_scorer = FaultPlan {
            device_fail_per_mille: 0,
            device_spike_per_mille: 0,
            shard_panic_per_mille: 0,
            ..FaultPlan::chaos(1)
        };
        let lru = miss_pct(FaultPlan::empty(), PolicyMode::Lru);
        let clean = miss_pct(FaultPlan::empty(), PolicyMode::GmmEvictionOnly);
        let flipped = miss_pct(flips, PolicyMode::GmmEvictionOnly);
        let chaos = miss_pct(chaos_scorer, PolicyMode::GmmEvictionOnly);
        println!(
            "{name} / {scale}: lru {lru:.2} clean {clean:.2} flips {flipped:.2} chaos {chaos:.2}"
        );

        let gain = lru - clean;
        assert!(
            gain > 0.5,
            "{name}: no gain to lose ({lru:.2} → {clean:.2})"
        );
        assert!(
            flipped - clean <= gain / 4.0,
            "{name}: 30 ‰ flips lost {:.0} % of the gain ({clean:.2} → {flipped:.2}, LRU {lru:.2})",
            100.0 * (flipped - clean) / gain
        );
        assert!(
            lru - chaos >= gain / 2.0,
            "{name}: chaos kept {:.0} % of the gain ({clean:.2} → {chaos:.2}, LRU {lru:.2})",
            100.0 * (lru - chaos) / gain
        );
    }
}
