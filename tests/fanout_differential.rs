//! `Icgmm::run` and `Icgmm::run_dataflow` pick their own shard count: a
//! replay whose report cannot depend on it, over a slice two shards split
//! evenly enough under the mask a sample chose, fans out to two shards on a
//! multi-core host; any other keeps one shard. Either way the report is
//! `run_sharded`'s at `sim_shards = 1`, bit for bit — for every policy
//! mode, Belady's MIN included, under scorer and device faults, which fan
//! out, over a trace whose hot sets `set mod 2` would put on one shard, and
//! under an armed shard panic point, which keeps one shard.

use icgmm::{AdaptPlan, Icgmm, IcgmmConfig, PolicyMode, TrainedModel};
use icgmm_cache::{CacheConfig, FaultPlan, LatencyModel};
use icgmm_gmm::EmConfig;
use icgmm_hw::{DataflowConfig, DataflowReport, SsdProfile};
use icgmm_trace::synth::{MultiTenantWorkload, Workload};
use icgmm_trace::{PreprocessConfig, Trace, TraceRecord};
use std::sync::OnceLock;
use std::thread;

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

/// The fixture's trace with 44 % of its records moved onto four hot even
/// sets (0, 2, 4, 6 of 64; twelve pages each, so they conflict in eight
/// ways): `set mod 2` puts about 72 % of it on shard 0, past every fan-out
/// bound, while a mask with bit 1 set splits the hot sets two and two.
fn hot_sets() -> &'static Trace {
    static HOT: OnceLock<Trace> = OnceLock::new();
    HOT.get_or_init(|| {
        let records = fixture().0.records().iter().enumerate().map(|(i, r)| {
            if i % 25 >= 11 {
                return *r;
            }
            let (set, tag) = (2 * (i % 4) as u64, (i / 4 % 12) as u64);
            TraceRecord::new(r.op(), (tag * 64 + set) << 12)
        });
        Trace::from_records(records.collect())
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

/// Scorer and device faults are rolled by trace position, and device time
/// is summed in whole attoseconds, so they leave the report independent of
/// the shard count. The panic point is per shard, so arming it keeps `run`
/// on one shard.
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

#[test]
fn hot_sets_fan_out_on_a_sampled_mask_and_report_what_one_shard_does() {
    let trace = hot_sets();
    let plan = faults(0, 0);
    let sys = system(cfg(plan, AdaptPlan::empty(), 1));
    let sets = sys.config().cache;
    let even = (trace.records().iter())
        .filter(|r| sets.set_of(r.page()).is_multiple_of(2))
        .count();
    assert!(
        10 * even >= 7 * trace.len(),
        "set mod 2: {even} of {}",
        trace.len()
    );
    let df = DataflowConfig::default();
    let timed = system(IcgmmConfig {
        latency: df.latency(),
        ..cfg(plan, AdaptPlan::empty(), 1)
    });
    let two = thread::available_parallelism().map_or(1, |n| n.get().min(2));
    for mode in MODES {
        // LRU included: its 5 / 8 bound holds under the sampled mask.
        let part = sys.replay_partition(trace, mode).unwrap();
        assert_eq!(part.shards(), two, "{mode}");
        if two == 2 {
            assert_ne!(part.mask(), Some(1), "{mode}: the sample chose set mod 2");
        }
        let one = sys.run_sharded(trace, mode).unwrap();
        assert_eq!(sys.run(trace, mode).unwrap(), one, "{mode}");
        if mode.uses_gmm() {
            assert!(one.sim.fault.scorer_nan_injected > 0, "{mode}");
        }
        let want = DataflowReport::from_sim(&timed.run_sharded(trace, mode).unwrap().sim, &df);
        assert_eq!(
            sys.run_dataflow(trace, mode, &df).unwrap(),
            want,
            "{mode} dataflow"
        );
    }
}

/// Under command times no `f64` holds exactly, an `f64` sum in replay
/// order would show the order in its last bits. Device time is summed in
/// whole attoseconds instead, so `run`, `run_with_latency` and
/// `run_dataflow` fan out, and at 1 and 2 shards every mode reports the
/// same device time, to the bit.
#[test]
fn device_time_under_inexact_latencies_is_the_same_at_every_shard_count() {
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
    let df = DataflowConfig {
        ssd: SsdProfile {
            name: "inexact".into(),
            read_us: 7.3,
            write_us: 90.7,
        },
        ..DataflowConfig::default()
    };
    let dataflow_timed = |shards| {
        system(IcgmmConfig {
            latency: df.latency(),
            ..cfg(plan, AdaptPlan::empty(), shards)
        })
    };
    let cores = thread::available_parallelism().map_or(1, |n| n.get().min(2));
    for mode in MODES {
        assert_eq!(sys.replay_partition(trace, mode).unwrap().shards(), cores);
        let want = one.run_sharded(trace, mode).unwrap();
        assert!(want.sim.fault.device_request_as > 0, "{mode}");
        assert_eq!(two.run_sharded(trace, mode).unwrap(), want, "{mode}");
        assert_eq!(
            sys.run_with_latency(trace, mode, &latency).unwrap(),
            want,
            "{mode}"
        );
        assert_eq!(one.run(trace, mode).unwrap(), want, "{mode}");
        let got = sys.run_dataflow(trace, mode, &df).unwrap();
        for shards in [1, 2] {
            let sim = dataflow_timed(shards).run_sharded(trace, mode).unwrap().sim;
            let want = DataflowReport::from_sim(&sim, &df);
            assert_eq!(got, want, "{mode} dataflow at {shards} shards");
        }
    }
}

/// An adaptation plan keeps `run` on one shard, for cost only: every
/// shard's refit producer walks the whole slice, so two shards report what
/// one does, with no boundary counted twice.
#[test]
fn per_shard_state_keeps_run_on_one_shard() {
    let trace = &fixture().0;
    let adapt = AdaptPlan {
        check_interval: 4_096,
        ..AdaptPlan::drifty(5)
    };
    for mode in [PolicyMode::GmmEvictionOnly, PolicyMode::GmmCachingEviction] {
        let armed = system(cfg(FaultPlan::empty(), adapt, 1));
        assert_eq!(armed.replay_partition(trace, mode).unwrap().shards(), 1);
        let one = armed.run_sharded(trace, mode).unwrap();
        let run = armed.run(trace, mode).unwrap();
        assert_eq!(run, one, "{mode} under an adaptation plan");
        assert!(one.sim.adapt.checks > 0, "{mode}: the plan never checked");
        let two = system(cfg(FaultPlan::empty(), adapt, 2));
        assert_eq!(two.run_sharded(trace, mode).unwrap(), one, "{mode}");
    }
    // A mode without an engine has no per-shard state to keep: LRU under
    // the same plan fans out and still reports one shard's replay.
    let lru = system(cfg(scorer_outages(), adapt, 1));
    let one = lru.run_sharded(trace, PolicyMode::Lru).unwrap();
    assert_eq!(lru.run(trace, PolicyMode::Lru).unwrap(), one);
    assert!(one.sim.adapt.checks == 0 && one.sim.fault.is_clean());
}

/// Flips and outages heavy enough that many sets hold unscored blocks.
fn scorer_outages() -> FaultPlan {
    FaultPlan {
        seed: 9,
        scorer_nan_per_mille: 200,
        scorer_outage_per_mille: 5,
        scorer_outage_len: 64,
        ..FaultPlan::empty()
    }
}

/// Under scorer faults a block inserted without a trusted score is
/// re-scored at the next trusted eviction in its set, at that eviction's
/// position, where every fault roll repeats the trusted miss's: nothing
/// about it depends on the shard count. So `run` fans out, and equals
/// `run_sharded` at 1, 2 and 4 shards and `serve`, re-scores counted.
#[test]
fn scorer_faults_fan_out_and_report_what_one_shard_does() {
    let trace = &fixture().0;
    let cores = thread::available_parallelism().map_or(1, |n| n.get().min(2));
    for mode in [PolicyMode::GmmEvictionOnly, PolicyMode::GmmCachingEviction] {
        let sys = system(cfg(scorer_outages(), AdaptPlan::empty(), 1));
        assert_eq!(sys.replay_partition(trace, mode).unwrap().shards(), cores);
        let one = sys.run_sharded(trace, mode).unwrap();
        let fault = one.sim.fault;
        assert!(fault.scorer_nan_injected > 0 && fault.scorer_outage_scores > 0);
        // More inferences than the warm-up's records and the measured
        // misses together: blocks were re-scored.
        let warmup = sys.config().preprocess.kept_range(trace.len()).0 as u64;
        assert!(
            one.gmm_inferences > warmup + one.sim.stats.misses(),
            "{mode}"
        );
        assert_eq!(sys.run(trace, mode).unwrap(), one, "{mode}");
        for shards in [2, 4] {
            let sharded = system(cfg(scorer_outages(), AdaptPlan::empty(), shards));
            assert_eq!(sharded.run_sharded(trace, mode).unwrap(), one, "{mode}");
            let served = sharded.serve(trace, mode).unwrap();
            assert_eq!(served.sim, one.sim, "{mode} served at {shards} shards");
            assert_eq!(served.scores_consumed, one.gmm_inferences, "{mode}");
        }
    }
}
