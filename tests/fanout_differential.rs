//! `Icgmm::run` and `Icgmm::run_dataflow` pick their own shard count: a
//! replay whose report cannot depend on it, over a slice two shards split
//! evenly enough, fans out to two shards on a multi-core host; any other
//! keeps one shard. Either way the report is `run_sharded`'s at
//! `sim_shards = 1`, bit for bit — for every policy mode, Belady's MIN
//! included, under scorer faults, and under device faults and an armed
//! shard panic point, which keep one shard.

use icgmm::{AdaptPlan, Icgmm, IcgmmConfig, PolicyMode, TrainedModel};
use icgmm_cache::{CacheConfig, FaultPlan, LatencyModel};
use icgmm_gmm::EmConfig;
use icgmm_hw::{DataflowConfig, DataflowReport};
use icgmm_trace::synth::{MultiTenantWorkload, Workload};
use icgmm_trace::{PreprocessConfig, Trace, TraceRecord};
use std::sync::OnceLock;

const MODES: [PolicyMode; 5] = [
    PolicyMode::Lru,
    PolicyMode::Belady,
    PolicyMode::GmmCachingOnly,
    PolicyMode::GmmEvictionOnly,
    PolicyMode::GmmCachingEviction,
];

/// Long enough to fan out, under cross-tenant cache pressure so misses —
/// and with them scores and device faults — are plentiful.
fn fixture() -> &'static (Trace, TrainedModel) {
    static FIXTURE: OnceLock<(Trace, TrainedModel)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let trace = MultiTenantWorkload {
            tenants: 12,
            pages_per_tenant: 3_000,
            ..Default::default()
        }
        .generate(80_000, 23);
        // Even enough for every mode to fan out: LRU's bound is 5 / 8.
        let set = |r: &TraceRecord| {
            cfg(FaultPlan::empty(), AdaptPlan::empty(), 1)
                .cache
                .set_of(r.page())
        };
        let odd = trace.records().iter().filter(|r| set(r) % 2 == 1).count();
        assert!(8 * odd.max(trace.len() - odd) <= 5 * trace.len(), "{odd}");
        let mut sys = Icgmm::new(cfg(FaultPlan::empty(), AdaptPlan::empty(), 1)).unwrap();
        sys.fit(&trace).unwrap();
        let model = sys.model().expect("fitted").clone();
        (trace, model)
    })
}

fn cfg(fault: FaultPlan, adapt: AdaptPlan, sim_shards: usize) -> IcgmmConfig {
    IcgmmConfig {
        cache: CacheConfig {
            capacity_bytes: 512 * 4096,
            block_bytes: 4096,
            ways: 8,
        },
        em: EmConfig {
            k: 32,
            max_iters: 10,
            ..Default::default()
        },
        preprocess: PreprocessConfig {
            len_window: 32,
            len_access_shot: 1_000,
            ..Default::default()
        },
        max_train_cells: 10_000,
        sim_shards,
        fault,
        adapt,
        ..Default::default()
    }
}

fn system(cfg: IcgmmConfig) -> Icgmm {
    let mut sys = Icgmm::new(cfg).unwrap();
    sys.set_model(fixture().1.clone());
    sys
}

/// Scorer faults are rolled by trace position, so they leave the report
/// independent of the shard count. Device faults are too, but the time
/// they add is a sum of `f64`s in replay order, and the panic point is
/// per shard, so arming either keeps `run` on one shard.
fn faults(device_per_mille: u16, shard_panic_per_mille: u16) -> FaultPlan {
    FaultPlan {
        seed: 31,
        device_fail_per_mille: device_per_mille,
        device_spike_per_mille: device_per_mille / 2,
        scorer_nan_per_mille: 50,
        shard_panic_per_mille,
        ..FaultPlan::empty()
    }
}

#[test]
fn run_and_dataflow_report_what_one_shard_does() {
    let trace = &fixture().0;
    let df = DataflowConfig::default();
    for (device, panics) in [(0, 0), (100, 0), (100, 1000)] {
        let plan = faults(device, panics);
        let sys = system(cfg(plan, AdaptPlan::empty(), 1));
        // One shard's replay under the dataflow latency, for `run_dataflow`.
        let timed = system(IcgmmConfig {
            latency: df.latency(),
            ..cfg(plan, AdaptPlan::empty(), 1)
        });
        for mode in MODES {
            let one = sys.run_sharded(trace, mode).unwrap();
            let what = format!("{mode}, device {device}, panics {panics}");
            assert_eq!(sys.run(trace, mode).unwrap(), one, "{what}");
            assert_eq!(one.sim.fault.device_failures > 0, device > 0, "{what}");
            if mode.uses_gmm() {
                assert!(one.sim.fault.scorer_nan_injected > 0, "{what}");
            }
            // 1000‰ kills every shard once: one panic is one shard.
            assert_eq!(one.sim.fault.shard_panics, u64::from(panics > 0), "{what}");
            let want = DataflowReport::from_sim(&timed.run_sharded(trace, mode).unwrap().sim, &df);
            let got = sys.run_dataflow(trace, mode, &df).unwrap();
            assert_eq!(got, want, "{what} dataflow");
        }
    }
}

/// Under command times no `f64` holds exactly, the order device time is
/// summed in shows in the last bits: two shards report another
/// `total_us` than one, so device faults must keep `run` on one shard.
#[test]
fn device_time_under_inexact_latencies_keeps_one_shard() {
    let trace = &fixture().0;
    let latency = LatencyModel {
        ssd_read_us: 7.3,
        ssd_write_us: 90.7,
        ..LatencyModel::paper_tlc()
    };
    let plan = FaultPlan {
        device_backoff_us: 0.1,
        ..faults(100, 0)
    };
    let sys = system(cfg(plan, AdaptPlan::empty(), 1));
    let timed = |shards| {
        system(IcgmmConfig {
            latency,
            ..cfg(plan, AdaptPlan::empty(), shards)
        })
    };
    let (one, two) = (timed(1), timed(2));
    let mut differ = 0;
    for mode in MODES {
        let want = one.run_sharded(trace, mode).unwrap();
        assert_eq!(
            sys.run_with_latency(trace, mode, &latency).unwrap(),
            want,
            "{mode}"
        );
        assert_eq!(one.run(trace, mode).unwrap(), want, "{mode}");
        let split = two.run_sharded(trace, mode).unwrap();
        assert_eq!(split.sim.stats, want.sim.stats, "{mode}");
        differ += usize::from(split.sim.total_us != want.sim.total_us);
    }
    assert!(differ > 0, "every mode summed device time to the same bits");
}

#[test]
fn per_shard_state_keeps_run_on_one_shard() {
    let trace = &fixture().0;
    let adapt = AdaptPlan {
        check_interval: 4_096,
        ..AdaptPlan::drifty(5)
    };
    let monitor = FaultPlan {
        seed: 9,
        scorer_nan_per_mille: 200,
        scorer_demote_after: 4,
        scorer_promote_after: 16,
        ..FaultPlan::empty()
    };
    for mode in [PolicyMode::GmmEvictionOnly, PolicyMode::GmmCachingEviction] {
        let armed = system(cfg(FaultPlan::empty(), adapt, 1));
        let one = armed.run_sharded(trace, mode).unwrap();
        let run = armed.run(trace, mode).unwrap();
        assert_eq!(run, one, "{mode} under an adaptation plan");
        assert!(one.sim.adapt.checks > 0, "{mode}: the plan never checked");
        // Every shard checks every boundary: two shards count each twice.
        let two = system(cfg(FaultPlan::empty(), adapt, 2));
        let two = two.run_sharded(trace, mode).unwrap();
        assert_eq!(two.sim.adapt.checks, 2 * one.sim.adapt.checks, "{mode}");

        let watched = system(cfg(monitor, AdaptPlan::empty(), 1));
        let one = watched.run_sharded(trace, mode).unwrap();
        assert!(one.sim.fault.scorer_demotions > 0, "{mode}: monitor idle");
        assert_eq!(watched.run(trace, mode).unwrap(), one, "{mode} monitored");
    }
    // A mode without an engine has no per-shard state to keep: LRU under
    // the same armed plan fans out and still reports one shard's replay.
    let lru = system(cfg(monitor, adapt, 1));
    let one = lru.run_sharded(trace, PolicyMode::Lru).unwrap();
    assert_eq!(lru.run(trace, PolicyMode::Lru).unwrap(), one);
    assert!(one.sim.adapt.checks == 0 && one.sim.fault.is_clean());
}
