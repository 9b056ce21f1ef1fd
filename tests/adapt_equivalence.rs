//! End-to-end equivalence and determinism properties for online
//! adaptation: the refit loop running ahead of the replay on its own
//! thread reports exactly what the inline loop it replaced reports (kept
//! here as the oracle); an armed plan whose drift trigger is held off
//! (`drift_drop = +inf`) replays bit-identically to the static scorer at
//! every shard count and GMM policy mode; and an adaptive run is one
//! function of `(trace seed, adapt seed)`: offline and served, at 1, 2
//! and 4 shards, it reports what `Icgmm::run` reports on one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use icgmm::experiment::run_static_vs_adaptive;
use icgmm::serve::{CacheServer, ServeConfig};
use icgmm::{AdaptPlan, GmmPolicyEngine, Icgmm, IcgmmConfig, PolicyMode, TrainedModel};
use icgmm_cache::{
    CacheConfig, FaultPlan, GmmScorePolicy, Policy, ShardCtx, ShardPolicies, ShardedSimulator,
    ThresholdAdmit,
};
use icgmm_gmm::EmConfig;
use icgmm_trace::synth::{MultiTenantWorkload, Workload};
use icgmm_trace::{PreprocessConfig, Trace, TraceRecord};
use proptest::prelude::*;

/// The adaptation loop as it ran before it moved off the replay thread:
/// `score` and `telemetry` advance a walk over the whole replayed slice
/// on the replay thread, running every drift check — and every refit —
/// before buffering the record that reaches the check's boundary. A copy
/// of the loop in `crates/core/src/online.rs`, not a caller of it: the
/// single-threaded oracle the pipelined engine is held to.
mod inline_oracle {
    use icgmm::GmmPolicyEngine;
    use icgmm_cache::{
        AdaptPlan, AdaptStats, DriftDetector, FaultStats, ObsSample, RecentRing, Reservoir,
        ScoreSource, REFIT_DECAY, RESERVOIR_CAPACITY,
    };
    use icgmm_gmm::{EmConfig, Gmm, IncrementalEm, Vec2};
    use icgmm_trace::{PreprocessConfig, TimestampTransformer, TraceRecord};

    const MIN_REFIT_SAMPLES: usize = 8;

    /// The slice's records with their global positions, in order.
    pub type Walk = Box<dyn Iterator<Item = (u64, &'static TraceRecord)> + Send>;

    fn salt(seed: u64, sub: u64, stream: u64) -> u64 {
        let mut z = seed
            .wrapping_add(sub.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub struct InlineAdaptive {
        engine: GmmPolicyEngine,
        clock: TimestampTransformer,
        trainer: IncrementalEm,
        check_interval: u64,
        reservoir: Reservoir,
        ring: RecentRing,
        detector: DriftDetector,
        reservoir_salt: u64,
        stats: AdaptStats,
        next_check: u64,
        /// What is left of the slice's walk.
        walk: Walk,
    }

    impl InlineAdaptive {
        pub fn new(
            engine: GmmPolicyEngine,
            gmm: &Gmm,
            em: EmConfig,
            plan: AdaptPlan,
            preprocess: &PreprocessConfig,
            walk: Walk,
        ) -> Self {
            let trainer_cfg = EmConfig {
                seed: salt(plan.seed, 0, 1),
                ..em
            };
            let reservoir_salt = salt(plan.seed, 0, 2);
            InlineAdaptive {
                engine,
                clock: TimestampTransformer::from_config(preprocess),
                trainer: IncrementalEm::new(gmm, trainer_cfg, REFIT_DECAY).unwrap(),
                check_interval: plan.check_interval,
                reservoir: Reservoir::new(salt(reservoir_salt, 0, 0), RESERVOIR_CAPACITY),
                ring: RecentRing::default(),
                detector: DriftDetector::new(&plan),
                reservoir_salt,
                stats: AdaptStats::default(),
                next_check: plan.check_interval,
                walk,
            }
        }

        /// Runs the checks and buffers the records of the walk through
        /// position `until`.
        fn catch_up(&mut self, until: u64) {
            while let Some((pos, record)) = self.walk.next() {
                while pos >= self.next_check {
                    self.run_check(pos);
                    self.next_check += self.check_interval;
                }
                let s = ObsSample {
                    page: record.page().raw(),
                    pos,
                };
                self.reservoir.offer(s);
                self.ring.push(s);
                if pos >= until {
                    return;
                }
            }
        }

        fn features(&self, samples: &[ObsSample]) -> Vec<Vec2> {
            let feature = |s: &ObsSample| {
                let ts = self.clock.at(s.pos);
                self.engine.scaler().transform([s.page as f64, ts as f64])
            };
            samples.iter().map(feature).collect()
        }

        fn run_check(&mut self, pos: u64) {
            self.stats.checks += 1;
            if self.ring.is_empty() {
                return;
            }
            let zs = self.features(self.ring.samples());
            let mut ld = vec![0.0; zs.len()];
            self.engine.scorer().log_density_batch(&zs, &mut ld);
            self.stats.evals += ld.len() as u64;
            let mll = ld.iter().sum::<f64>() / ld.len() as f64;
            if self.detector.observe(mll) {
                self.stats.drifts += 1;
                self.try_refit(pos);
            }
        }

        fn try_refit(&mut self, pos: u64) {
            if self.reservoir.len() < MIN_REFIT_SAMPLES {
                self.stats.refit_failures += 1;
                return;
            }
            let xs = self.features(self.reservoir.samples());
            match self.trainer.refit(&xs, &[]) {
                Ok(gmm) => {
                    self.engine.swap_scorer(gmm.scorer().clone());
                    self.stats.refits += 1;
                    self.stats.swaps += 1;
                    self.stats.generation += 1;
                    self.stats.last_swap_pos = pos;
                    self.reservoir
                        .restart(salt(self.reservoir_salt, self.stats.generation, 0));
                }
                Err(_) => self.stats.refit_failures += 1,
            }
        }
    }

    impl ScoreSource for InlineAdaptive {
        fn score(&mut self, record: &TraceRecord, pos: u64) -> f64 {
            self.catch_up(pos);
            self.engine.score(record, pos)
        }

        fn telemetry(&mut self, _fault: &mut FaultStats, adapt: &mut AdaptStats) {
            self.catch_up(u64::MAX);
            *adapt = self.stats;
        }
    }
}

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

const GMM_MODES: [PolicyMode; 3] = [
    PolicyMode::GmmCachingOnly,
    PolicyMode::GmmEvictionOnly,
    PolicyMode::GmmCachingEviction,
];

/// The pooled-deployment scenario with *fast* phase rotation: each
/// tenant's hot window advances every ~1.5k of its own requests, so a
/// 30k-record trace crosses many popularity phases and a sensitive
/// detector has real drift to find.
fn rotating_trace(n: usize, seed: u64) -> Trace {
    MultiTenantWorkload {
        tenants: 12,
        pages_per_tenant: 3_000,
        phase_len: 1_500,
        ..Default::default()
    }
    .generate(n, seed)
}

/// A config that trains in milliseconds (K = 64).
fn adapt_cfg() -> IcgmmConfig {
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

/// Trace + model trained once and shared across every test and proptest
/// case — replays are cheap, EM is not.
fn fixture() -> &'static (Trace, TrainedModel) {
    static FIXTURE: OnceLock<(Trace, TrainedModel)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let trace = rotating_trace(30_000, 42);
        let mut sys = Icgmm::new(adapt_cfg()).unwrap();
        sys.fit(&trace).unwrap();
        let model = sys.model().expect("fitted").clone();
        (trace, model)
    })
}

/// A model fitted on the first third of the fixture trace only, so the
/// detector has drift to chase (on the whole-trace model it rarely fires).
fn prefix_model() -> &'static TrainedModel {
    static MODEL: OnceLock<TrainedModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let (trace, _) = fixture();
        let prefix = Trace::from_records(trace.records()[..trace.len() / 3].to_vec());
        let mut sys = Icgmm::new(adapt_cfg()).unwrap();
        sys.fit(&prefix).unwrap();
        sys.model().expect("fitted").clone()
    })
}

/// The stack `Icgmm` assembles for `gmm-caching-eviction` under a plan that
/// arms no scorer fault, with the inline loop in place of the pipelined one,
/// walking the whole of `records` (the replayed slice) whatever the shard.
fn oracle_stack(
    cfg: &IcgmmConfig,
    model: &TrainedModel,
    records: &'static [TraceRecord],
) -> ShardPolicies {
    let engine = GmmPolicyEngine::new(model, &cfg.preprocess, false).unwrap();
    let (em, plan, pre) = (cfg.em, cfg.adapt, &cfg.preprocess);
    let walk = Box::new((0..).zip(records));
    let inline = inline_oracle::InlineAdaptive::new(engine, &model.gmm, em, plan, pre, walk);
    let threshold = ThresholdAdmit {
        threshold: model.threshold,
        admit_writes_always: cfg.admit_writes_always,
    };
    let evict = GmmScorePolicy::new(cfg.cache.num_sets(), cfg.cache.ways);
    ShardPolicies {
        policy: Policy::new(Some(threshold), evict),
        score: Some(Box::new(inline)),
    }
}

fn system_with(plan: AdaptPlan, shards: usize) -> Icgmm {
    let (_, model) = fixture();
    let mut cfg = adapt_cfg();
    cfg.adapt = plan;
    cfg.sim_shards = shards;
    let mut sys = Icgmm::new(cfg).unwrap();
    sys.set_model(model.clone());
    sys
}

/// An armed plan whose detector can never fire: checks run, buffers
/// fill, the scorer never swaps.
fn held_off(seed: u64) -> AdaptPlan {
    AdaptPlan {
        drift_drop: f64::INFINITY,
        check_interval: 2_048,
        ..AdaptPlan::drifty(seed)
    }
}

#[test]
fn empty_plan_runs_leave_adapt_telemetry_clean() {
    let (trace, _) = fixture();
    let sys = system_with(AdaptPlan::empty(), 2);
    let rep = sys
        .run_sharded(trace, PolicyMode::GmmCachingEviction)
        .unwrap();
    assert!(
        rep.sim.adapt.is_clean(),
        "an empty plan must never touch the adaptation loop: {:?}",
        rep.sim.adapt
    );
}

#[test]
fn held_off_trigger_is_bit_identical_to_static_across_shards_and_modes() {
    let (trace, _) = fixture();
    for mode in GMM_MODES {
        let reference_sys = system_with(AdaptPlan::empty(), 1);
        let reference = reference_sys.run(trace, mode).unwrap();
        assert!(reference.sim.adapt.is_clean());

        for shards in SHARD_COUNTS {
            let sys = system_with(held_off(9), shards);
            let adaptive = if shards == 1 {
                sys.run(trace, mode).unwrap()
            } else {
                sys.run_sharded(trace, mode).unwrap()
            };
            assert!(
                adaptive.sim.adapt.checks > 0,
                "{mode} at {shards} shards: the armed plan must actually check"
            );
            assert_eq!(
                adaptive.sim.adapt.swaps, 0,
                "{mode} at {shards} shards: +inf drift_drop must hold refits off"
            );
            assert_eq!(adaptive.sim.adapt.refits, 0);

            // Modulo its own telemetry the adaptive run is the static run.
            let mut scrubbed = adaptive.sim.clone();
            scrubbed.adapt = Default::default();
            assert_eq!(
                scrubbed, reference.sim,
                "{mode} at {shards} shards: held-off adaptation changed decisions"
            );
            if shards == 1 {
                assert_eq!(
                    adaptive.gmm_inferences, reference.gmm_inferences,
                    "{mode}: drift checks must not inflate the inference count"
                );
            }
        }
    }
}

#[test]
fn adaptive_serving_matches_offline_sharded_replay() {
    // The prefix model, so refits happen and every count has real
    // decisions to agree on.
    let (trace, _) = fixture();
    let mode = PolicyMode::GmmCachingEviction;
    let system = |shards, serve_clients, serve_queue_depth| {
        let mut sys = Icgmm::new(IcgmmConfig {
            adapt: AdaptPlan::drifty(7),
            sim_shards: shards,
            serve_clients,
            serve_queue_depth,
            ..adapt_cfg()
        })
        .unwrap();
        sys.set_model(prefix_model().clone());
        sys
    };
    let one = system(1, 1, 64).run(trace, mode).unwrap();
    assert!(one.sim.adapt.refits > 0, "no refit: {:?}", one.sim.adapt);
    for (shards, clients, depth) in [(1, 1, 64), (2, 3, 8), (4, 2, 1)] {
        let sys = system(shards, clients, depth);
        let served = sys.serve(trace, mode).unwrap();
        let sharded = sys.run_sharded(trace, mode).unwrap();
        assert_eq!(
            served.sim, sharded.sim,
            "adaptive serve diverged from offline replay at {shards} shards / \
             {clients} clients / depth {depth}"
        );
        // Every shard's producer walks the whole slice: the report is the
        // one-shard run's, with no boundary counted twice.
        assert_eq!(sharded, one, "{shards} shards");
    }
}

#[test]
fn static_vs_adaptive_repairs_drift_on_the_rotating_workload() {
    let (trace, _) = fixture();
    let mut cfg = adapt_cfg();
    cfg.adapt = AdaptPlan::drifty(3);
    let cmp = run_static_vs_adaptive(trace, cfg, PolicyMode::GmmCachingEviction, trace.len() / 3)
        .unwrap();
    assert!(
        cmp.static_run.sim.adapt.is_clean(),
        "the static arm never adapts"
    );
    assert!(
        cmp.adaptive_run.sim.adapt.swaps > 0,
        "the rotating workload must trip the detector: {:?}",
        cmp.adaptive_run.sim.adapt
    );
    assert_eq!(
        cmp.adaptive_run.sim.adapt.swaps,
        cmp.adaptive_run.sim.adapt.refits
    );
    assert!(cmp.miss_improvement_pts().is_finite());
}

/// The dataflow front-end replays the frozen model: an armed plan that
/// demonstrably changes `run`'s decisions leaves `run_dataflow` equal to
/// the static arm. (The model is fitted on a prefix so there is drift to
/// chase — on the shared whole-trace model the detector never fires.)
#[test]
fn dataflow_ignores_an_armed_plan_and_replays_the_frozen_model() {
    let (trace, _) = fixture();
    let mode = PolicyMode::GmmCachingEviction;
    let prefix = Trace::from_records(trace.records()[..trace.len() / 3].to_vec());
    let mut frozen = Icgmm::new(adapt_cfg()).unwrap();
    frozen.fit(&prefix).unwrap();
    let mut armed = Icgmm::new(IcgmmConfig {
        adapt: AdaptPlan::drifty(3),
        ..adapt_cfg()
    })
    .unwrap();
    armed.set_model(frozen.model().expect("fitted").clone());

    let static_run = frozen.run(trace, mode).unwrap();
    let adaptive_run = armed.run(trace, mode).unwrap();
    assert!(adaptive_run.sim.adapt.swaps > 0, "the plan must be live");
    assert_ne!(adaptive_run.sim.stats, static_run.sim.stats);

    let dataflow = armed
        .run_dataflow(trace, mode, &icgmm::hw::DataflowConfig::default())
        .unwrap();
    assert_eq!(dataflow.stats, static_run.sim.stats);
}

/// Modeled dataflow time is a latency model like any other, so it rides
/// every front-end — live refits included, the combination `run_dataflow`
/// cannot express: with `latency = DataflowConfig::default().latency()`
/// and an armed plan, `run` ≡ `run_sharded` ≡ `serve` at one shard and at
/// four, each average above the analytic one by the engine's miss
/// overhead per miss; with the plan cleared, `run`'s average *is*
/// `run_dataflow`'s.
#[test]
fn dataflow_latency_rides_every_front_end_under_live_refits() {
    let (trace, _) = fixture();
    let mode = PolicyMode::GmmCachingEviction;
    let df_cfg = icgmm::hw::DataflowConfig::default();
    let prefix = Trace::from_records(trace.records()[..trace.len() / 3].to_vec());
    let mut frozen = Icgmm::new(adapt_cfg()).unwrap();
    frozen.fit(&prefix).unwrap();
    let system = |adapt: AdaptPlan, latency, shards: usize| {
        let mut sys = Icgmm::new(IcgmmConfig {
            adapt,
            latency,
            sim_shards: shards,
            serve_clients: 2,
            ..adapt_cfg()
        })
        .unwrap();
        sys.set_model(frozen.model().expect("fitted").clone());
        sys
    };

    for shards in [1, 4] {
        let sys = system(AdaptPlan::drifty(3), df_cfg.latency(), shards);
        let sharded = sys.run_sharded(trace, mode).unwrap();
        assert!(sharded.sim.adapt.swaps > 0, "the plan must be live");
        assert_eq!(sys.serve(trace, mode).unwrap().sim, sharded.sim);
        assert_eq!(sys.run(trace, mode).unwrap(), sharded);
        let analytic = system(AdaptPlan::drifty(3), adapt_cfg().latency, shards)
            .run_sharded(trace, mode)
            .unwrap();
        assert_eq!(analytic.sim.stats, sharded.sim.stats);
        let stats = &sharded.sim.stats;
        let overhead = stats.misses() as f64 * df_cfg.latency().miss_overhead_us;
        assert!(
            (sharded.avg_us() - analytic.avg_us() - overhead / stats.accesses() as f64).abs()
                < 1e-9
        );
    }

    let sys = system(AdaptPlan::empty(), df_cfg.latency(), 1);
    let dataflow = sys.run_dataflow(trace, mode, &df_cfg).unwrap();
    let run = sys.run(trace, mode).unwrap();
    assert_eq!(run.sim.stats, dataflow.stats);
    assert_eq!(run.avg_us(), dataflow.avg_request_us);
    assert_eq!(run.sim.total_us, dataflow.makespan_us);
}

proptest! {
    /// The pipelined loop is the inline loop moved off the replay thread:
    /// against the oracle it reports the same `SimReport` — adaptation
    /// block included — and the same inference count, at 1, 2 and 4
    /// shards, offline and served, with every shard's first attempt dying
    /// or none; and apart from the supervisor's panic counts that report is
    /// `run`'s on one shard. A dead attempt's producer must exit when its receiver
    /// drops and the recovery spawns a fresh one; a producer that kept
    /// going would leave the run hanging on a full hand-off. The seed is
    /// drawn; the twelve grid points take turns, so each is run at any
    /// case count of 12 or more.
    #[test]
    fn pipelined_adaptation_equals_the_inline_oracle(adapt_seed in any::<u64>()) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let point = CASE.fetch_add(1, Ordering::Relaxed) % 12;
        let (shards, served, panics) = ([1usize, 2, 4][point % 3], point / 3 % 2 == 1, point >= 6);
        let (trace, _) = fixture();
        let model = prefix_model();
        let fault = FaultPlan {
            seed: adapt_seed ^ 0x5EED,
            shard_panic_per_mille: if panics { 1000 } else { 0 },
            ..FaultPlan::empty()
        };
        let (clients, queue_depth) = (2, 8);
        let cfg = IcgmmConfig {
            adapt: AdaptPlan::drifty(adapt_seed),
            fault,
            sim_shards: shards,
            serve_clients: clients,
            serve_queue_depth: queue_depth,
            ..adapt_cfg()
        };
        let mut sys = Icgmm::new(cfg).unwrap();
        sys.set_model(model.clone());
        let mode = PolicyMode::GmmCachingEviction;
        let (start, end) = cfg.preprocess.kept_range(trace.len());
        let records = &trace.records()[..end];
        let oracle_shard = |_: &ShardCtx<'_>| oracle_stack(&cfg, model, records);
        let ((sim, scores), (want, want_scores)) = if served {
            let got = sys.serve(trace, mode).unwrap();
            let server = CacheServer::new(ServeConfig { shards, clients, queue_depth, fault });
            let want = server
                .unwrap()
                .serve(records, start, cfg.cache, &oracle_shard, &cfg.latency, None)
                .unwrap();
            ((got.sim, got.scores_consumed), (want.sim, want.scores_consumed))
        } else {
            let got = sys.run_sharded(trace, mode).unwrap();
            let want = ShardedSimulator::new(shards)
                .with_faults(fault)
                .run(records, start, cfg.cache, &oracle_shard, &cfg.latency, None)
                .unwrap();
            ((got.sim, got.gmm_inferences), (want.sim, want.scores_consumed))
        };
        prop_assert!(want.adapt.refits > 0, "the oracle must refit: {:?}", want.adapt);
        let died = if panics { shards as u64 } else { 0 };
        prop_assert_eq!(want.fault.shard_recoveries, died);
        prop_assert_eq!(&sim.adapt, &want.adapt, "{} shards, served {}", shards, served);
        prop_assert_eq!(&sim, &want, "{} shards, served {}", shards, served);
        prop_assert_eq!(scores, want_scores);
        let mut one = Icgmm::new(IcgmmConfig { fault: FaultPlan::empty(), ..cfg }).unwrap();
        one.set_model(model.clone());
        let one = one.run(trace, mode).unwrap();
        let mut scrubbed = sim;
        (scrubbed.fault.shard_panics, scrubbed.fault.shard_recoveries) = (0, 0);
        prop_assert_eq!(&scrubbed, &one.sim, "{} shards, served {}", shards, served);
        prop_assert_eq!(scores, one.gmm_inferences);
    }

    /// An adaptive run is a pure function of `(trace seed, adapt seed)`,
    /// the same at every shard count: a sharded run is identical to the
    /// one-shard `run` down to the adaptation counters, and so is a rerun.
    #[test]
    fn adaptive_runs_are_deterministic_from_seeds(
        adapt_seed in any::<u64>(),
        shard_ix in 0usize..SHARD_COUNTS.len(),
        mode_ix in 0usize..GMM_MODES.len(),
    ) {
        let (trace, _) = fixture();
        let shards = SHARD_COUNTS[shard_ix];
        let mode = GMM_MODES[mode_ix];
        let sys = system_with(AdaptPlan::drifty(adapt_seed), shards);
        let a = sys.run_sharded(trace, mode).unwrap();
        let b = sys.run(trace, mode).unwrap();
        prop_assert_eq!(
            &a, &b,
            "adaptive replay at {} shards is not the one-shard run ({:?})",
            shards, mode
        );
        prop_assert_eq!(&sys.run_sharded(trace, mode).unwrap(), &a, "a rerun differs");
        prop_assert!(a.sim.adapt.checks > 0);
    }
}
