//! Online GMM adaptation under workload drift: the [`AdaptiveEngine`].
//!
//! This is the GMM-aware half of the online refit loop (the model-agnostic
//! substrate — plan, telemetry, reservoir, ring, detector — lives in
//! `icgmm_cache::adapt`). An [`AdaptiveEngine`] wraps a
//! [`GmmPolicyEngine`] and, at fixed *global trace positions* (multiples
//! of [`icgmm_cache::AdaptPlan::check_interval`]):
//!
//! 1. evaluates the windowed mean log-likelihood of the most recent
//!    observations under the live scorer (a direct table read — the
//!    engine's inference counters are untouched),
//! 2. feeds it to the [`icgmm_cache::DriftDetector`], and
//! 3. on a declared drift, refits from the seeded reservoir buffer via
//!    [`icgmm_gmm::IncrementalEm`] (one E/M pass, not a cold fit) and
//!    publishes the new mixture with [`GmmPolicyEngine::swap_scorer`].
//!    Only the publication is cheap (an `Arc` pointer swap): the check and
//!    the refit before it run inline on the replay thread, which waits for
//!    them (≈ 1.4 ms per K = 256 refit, 158 of them on `tenants_drift`).
//!
//! ## Determinism
//!
//! Every record carries its global trace position, and the engine keeps
//! no clock of its own: checks fire immediately before the first observed
//! record whose position reaches the next `check_interval` boundary, and a
//! buffered sample's timestamp is Algorithm 1 of the position it was
//! observed at. Swap points therefore depend only on global positions.
//! Consequences, all property-enforced in `tests/adapt_equivalence.rs`:
//!
//! * an adaptive run is a pure function of `(trace seed, adapt seed)` at
//!   every shard count (shards partition the record stream, so the
//!   per-shard buffers — and therefore the refits — legitimately differ
//!   *across* shard counts, never across reruns);
//! * serving and offline sharded replay stay bit-identical at equal
//!   shard counts;
//! * with the drift trigger held off (`drift_drop = ∞`) the scored
//!   values are bit-identical to a static-scorer run.
//!
//! The admission threshold stays fixed across refits: it was calibrated
//! against the offline score distribution, and re-calibrating it online
//! would couple admission decisions to the reservoir contents — the
//! score *ordering* is what drift repair needs.

use icgmm_cache::{
    AdaptPlan, AdaptStats, DriftDetector, FaultStats, ObsSample, RecentRing, Reservoir,
    ScoreSource, RESERVOIR_CAPACITY,
};
use icgmm_gmm::{EmConfig, Gmm, GmmError, IncrementalEm, Vec2};
use icgmm_trace::TraceRecord;

use crate::engine::GmmPolicyEngine;

/// Fewest reservoir samples worth refitting from; smaller buffers count a
/// refit failure and keep the live generation.
const MIN_REFIT_SAMPLES: usize = 8;

/// Stateless per-shard stream derivation, so the trainer and reservoir
/// draw from disjoint, reproducible streams of one `(adapt seed, shard)`
/// pair (same finalizer construction as the cache crate's fault rolls).
fn salt(seed: u64, shard: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(shard.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`GmmPolicyEngine`] wrapped with the drift-triggered online refit
/// loop. Implements [`ScoreSource`] with the exact same observation
/// contract, so it drops into every replay front-end (offline, sharded,
/// served) the plain engine does.
#[derive(Debug)]
pub struct AdaptiveEngine {
    engine: GmmPolicyEngine,
    trainer: IncrementalEm,
    check_interval: u64,
    reservoir: Reservoir,
    ring: RecentRing,
    detector: DriftDetector,
    /// Base of the per-generation reservoir seed stream (stream 2 of the
    /// `(adapt seed, shard)` pair; generation g restarts on sub-stream g).
    reservoir_salt: u64,
    stats: AdaptStats,
    /// Next check boundary: checks fire before observing a record whose
    /// global position has reached it.
    next_check: u64,
    /// Feature / log-density scratch of the drift check and the refit,
    /// kept across checks so neither allocates per firing.
    features: Vec<Vec2>,
    log_densities: Vec<f64>,
}

impl AdaptiveEngine {
    /// Wraps `engine` with the refit loop described by `plan`.
    ///
    /// `gmm` seeds the incremental trainer (the offline-trained mixture —
    /// generation 0); `em` supplies the M-step hyper-parameters. The
    /// trainer is pinned to one E-step thread so refits are deterministic
    /// whatever the host's parallelism. `shard` salts the plan seed so
    /// each shard's reservoir and re-seed stream are independent.
    ///
    /// # Errors
    ///
    /// Propagates [`IncrementalEm::new`] validation failures (`plan` and
    /// the `reg_covar > 0` requirement are also checked earlier, by
    /// [`crate::IcgmmConfig::validate`]).
    pub fn new(
        engine: GmmPolicyEngine,
        gmm: &Gmm,
        em: EmConfig,
        plan: AdaptPlan,
        shard: u64,
    ) -> Result<Self, GmmError> {
        debug_assert!(!plan.is_empty(), "callers skip wrapping for empty plans");
        let trainer_cfg = EmConfig {
            seed: salt(plan.seed, shard, 1),
            threads: 1,
            ..em
        };
        let trainer = IncrementalEm::new(gmm, trainer_cfg, plan.decay)?;
        let reservoir_salt = salt(plan.seed, shard, 2);
        Ok(AdaptiveEngine {
            engine,
            trainer,
            check_interval: plan.check_interval,
            reservoir: Reservoir::new(salt(reservoir_salt, 0, 0), RESERVOIR_CAPACITY),
            ring: RecentRing::new(plan.recent_window),
            detector: DriftDetector::new(&plan),
            reservoir_salt,
            stats: AdaptStats::default(),
            next_check: plan.check_interval,
            features: Vec::new(),
            log_densities: Vec::new(),
        })
    }

    /// Policy-engine inferences performed so far (drift-check likelihood
    /// evaluations are counted separately, in [`AdaptStats::evals`]).
    pub fn scores_computed(&self) -> u64 {
        self.engine.scores_computed()
    }

    /// The adaptation telemetry accumulated so far (what
    /// [`ScoreSource::telemetry`] hands a replay's report).
    pub fn stats(&self) -> AdaptStats {
        self.stats
    }

    /// The wrapped engine (live scorer generation included).
    pub fn inner(&self) -> &GmmPolicyEngine {
        &self.engine
    }

    /// Standardized feature vector of one buffered sample: its timestamp
    /// is Algorithm 1 of the position it was observed at — no raw-feature
    /// buffering.
    fn feature(&self, s: &ObsSample) -> Vec2 {
        let ts = self.engine.timestamp_at(s.pos);
        self.engine.scaler().transform([s.page as f64, ts as f64])
    }

    /// Overwrites `out` (the `self.features` scratch, taken by the caller
    /// for the duration) with the features of `samples`.
    fn fill_features(&self, samples: &[ObsSample], out: &mut Vec<Vec2>) {
        out.clear();
        out.extend(samples.iter().map(|s| self.feature(s)));
    }

    fn buffer(&mut self, page: u64, pos: u64) {
        let s = ObsSample { page, pos };
        self.reservoir.offer(s);
        self.ring.push(s);
    }

    /// Fires every check whose boundary `pos` has reached. Called before
    /// observing the record at `pos`, so swap points land between records
    /// at deterministic global positions.
    fn checkpoint(&mut self, pos: u64) {
        while pos >= self.next_check {
            self.run_check(pos);
            self.next_check += self.check_interval;
        }
    }

    fn run_check(&mut self, pos: u64) {
        self.stats.checks += 1;
        if !self.ring.is_empty() {
            // The likelihood window is scored by the kernel replay itself
            // scores with, so a check costs one window's worth of miss
            // scores per interval.
            let mut zs = std::mem::take(&mut self.features);
            self.fill_features(self.ring.samples(), &mut zs);
            let ld = &mut self.log_densities;
            ld.resize(zs.len(), 0.0);
            self.engine.scorer().log_density_batch(&zs, ld);
            self.stats.evals += ld.len() as u64;
            let mll = ld.iter().sum::<f64>() / ld.len() as f64;
            self.features = zs;
            if self.detector.observe(mll) {
                self.stats.drifts += 1;
                self.try_refit(pos);
            }
        }
    }

    fn try_refit(&mut self, pos: u64) {
        if self.reservoir.len() < MIN_REFIT_SAMPLES {
            self.stats.refit_failures += 1;
            return;
        }
        let mut xs = std::mem::take(&mut self.features);
        self.fill_features(self.reservoir.samples(), &mut xs);
        let refit = self.trainer.refit(&xs, &[]);
        self.features = xs;
        match refit {
            Ok(gmm) => {
                self.engine.swap_scorer(gmm.scorer().clone());
                self.stats.refits += 1;
                self.stats.swaps += 1;
                self.stats.generation += 1;
                self.stats.last_swap_pos = pos;
                // Restart sampling for the new generation: the next refit
                // trains on post-swap observations only, so consecutive
                // refits chase the *current* phase instead of a uniform
                // sample of all history (recency across generations,
                // uniformity within one).
                self.reservoir
                    .restart(salt(self.reservoir_salt, self.stats.generation, 0));
            }
            Err(_) => {
                // Degenerate buffer or singular refit: the previous
                // generation stays live — graceful degradation, counted.
                self.stats.refit_failures += 1;
            }
        }
    }
}

impl ScoreSource for AdaptiveEngine {
    fn observe(&mut self, record: &TraceRecord, pos: u64) {
        self.checkpoint(pos);
        self.buffer(record.page().raw(), pos);
        self.engine.observe(record, pos);
    }

    fn score_current(&mut self) -> f64 {
        self.engine.score_current()
    }

    fn shardable(&self) -> bool {
        self.engine.shardable()
    }

    fn telemetry(&self, _fault: &mut FaultStats, adapt: &mut AdaptStats) {
        adapt.merge(&self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TrainedModel;
    use icgmm_gmm::{EmTrainer, StandardScaler};
    use icgmm_trace::PreprocessConfig;

    fn trained(k: usize, seed: u64) -> (TrainedModel, EmConfig) {
        let xs: Vec<Vec2> = (0..512)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
                [(h % 1_000) as f64, ((h >> 12) % 64) as f64]
            })
            .collect();
        let ws: Vec<f64> = vec![1.0; xs.len()];
        let scaler = StandardScaler::fit(&xs, &ws);
        let mut z = xs;
        scaler.transform_all(&mut z);
        let cfg = EmConfig {
            k,
            max_iters: 15,
            threads: 1,
            ..Default::default()
        };
        let (gmm, _) = EmTrainer::new(cfg).unwrap().fit(&z, &[]).unwrap();
        (
            TrainedModel {
                scaler,
                gmm,
                threshold: 0.0,
            },
            cfg,
        )
    }

    fn pre() -> PreprocessConfig {
        PreprocessConfig {
            len_window: 8,
            len_access_shot: 1_000,
            ..Default::default()
        }
    }

    fn adaptive(plan: AdaptPlan, shard: u64) -> AdaptiveEngine {
        let (model, em) = trained(4, 7);
        let engine = GmmPolicyEngine::new(&model, &pre(), false).unwrap();
        AdaptiveEngine::new(engine, &model.gmm, em, plan, shard).unwrap()
    }

    fn record(i: u64) -> TraceRecord {
        TraceRecord::read(((i * 13) % 4_096) << 12)
    }

    #[test]
    fn held_off_trigger_scores_bit_identically_to_the_plain_engine() {
        // drift_drop = ∞: checks run, buffers fill, refits never fire —
        // every score must equal the static engine's.
        let plan = AdaptPlan {
            check_interval: 64,
            drift_drop: f64::INFINITY,
            ..AdaptPlan::drifty(3)
        };
        let (model, em) = trained(4, 7);
        let mut plain = GmmPolicyEngine::new(&model, &pre(), false).unwrap();
        let engine = GmmPolicyEngine::new(&model, &pre(), false).unwrap();
        let mut adaptive = AdaptiveEngine::new(engine, &model.gmm, em, plan, 0).unwrap();
        let records: Vec<TraceRecord> = (0..500).map(record).collect();
        for (pos, r) in (0u64..).zip(&records) {
            plain.observe(r, pos);
            adaptive.observe(r, pos);
            let (want, got) = (plain.score_current(), adaptive.score_current());
            assert_eq!(want.to_bits(), got.to_bits());
        }
        let stats = adaptive.stats();
        assert!(stats.checks > 0, "checks must have run");
        assert_eq!(stats.swaps, 0, "held-off trigger must never swap");
        assert_eq!(stats.refits, 0);
        assert!(stats.evals > 0);
    }

    #[test]
    fn window_chunking_does_not_move_check_boundaries() {
        // The same record stream scored at every record, at none of the
        // records of every other chunk (hits observe without scoring), and
        // in ragged chunks must produce identical stats and identical
        // scores wherever two runs both scored — checks are position-pure.
        let plan = AdaptPlan {
            check_interval: 100,
            drift_drop: 0.05,
            cooldown_checks: 0,
            ..AdaptPlan::drifty(11)
        };
        let records: Vec<TraceRecord> = (0..900)
            .map(|i| {
                if i < 450 {
                    record(i)
                } else {
                    // Phase change: disjoint page range drives drift.
                    TraceRecord::read((200_000 + (i * 17) % 4_096) << 12)
                }
            })
            .collect();
        let run = |chunks: &[usize]| {
            let mut eng = adaptive(plan, 0);
            let mut scores = Vec::with_capacity(records.len());
            let (mut at, mut ci) = (0usize, 0usize);
            while at < records.len() {
                let take = chunks[ci % chunks.len()].min(records.len() - at);
                for (pos, r) in records.iter().enumerate().skip(at).take(take) {
                    eng.observe(r, pos as u64);
                    scores.push((ci % 2 == 0).then(|| eng.score_current().to_bits()));
                }
                at += take;
                ci += 1;
            }
            (scores, eng.stats())
        };
        let (s1, t1) = run(&[records.len()]);
        let (s2, t2) = run(&[1]);
        let (s3, t3) = run(&[7, 64, 3, 255]);
        assert!(t1.checks > 0);
        assert_eq!(t1, t2, "scoring every other record moved a check boundary");
        assert_eq!(t1, t3, "ragged chunking moved a check boundary");
        for i in 0..records.len() {
            assert!(s2[i].is_none_or(|s| s1[i] == Some(s)), "score {i}");
            assert!(s3[i].is_none_or(|s| s1[i] == Some(s)), "score {i}");
        }
    }

    #[test]
    fn drift_triggers_refit_and_publishes_generations() {
        let plan = AdaptPlan {
            check_interval: 100,
            drift_drop: 0.05,
            cooldown_checks: 0,
            recent_window: 64,
            ..AdaptPlan::drifty(5)
        };
        let mut eng = adaptive(plan, 0);
        // Stable phase matching the training distribution, then a hard
        // phase change into a far-away page region.
        for i in 0..400 {
            eng.observe(&record(i), i);
            let _ = eng.score_current();
        }
        for i in 0..2_000u64 {
            eng.observe(
                &TraceRecord::read((500_000 + (i * 31) % 2_048) << 12),
                400 + i,
            );
            let _ = eng.score_current();
        }
        let stats = eng.stats();
        assert!(stats.checks >= 20);
        assert!(stats.drifts > 0, "phase change must register as drift");
        assert!(stats.swaps > 0, "drift must publish a new generation");
        assert_eq!(stats.swaps, stats.refits);
        assert_eq!(stats.generation, stats.swaps);
        assert!(stats.last_swap_pos > 0);
        // A replay's report gets the same block through the hook.
        let (mut fault, mut adapt) = (FaultStats::default(), AdaptStats::default());
        eng.telemetry(&mut fault, &mut adapt);
        assert_eq!(adapt, stats);
        assert!(fault.is_clean());
    }

    #[test]
    fn runs_are_deterministic_from_the_adapt_seed() {
        let plan = AdaptPlan {
            check_interval: 128,
            drift_drop: 0.05,
            cooldown_checks: 0,
            ..AdaptPlan::drifty(21)
        };
        let run = |shard: u64| {
            let mut eng = adaptive(plan, shard);
            let records: Vec<TraceRecord> = (0..1_500)
                .map(|i| {
                    if i < 700 {
                        record(i)
                    } else {
                        TraceRecord::read((300_000 + (i * 11) % 1_024) << 12)
                    }
                })
                .collect();
            let out: Vec<f64> = (0u64..)
                .zip(&records)
                .map(|(pos, r)| {
                    eng.observe(r, pos);
                    eng.score_current()
                })
                .collect();
            (out, eng.stats())
        };
        let (s1, t1) = run(0);
        let (s2, t2) = run(0);
        assert_eq!(t1, t2);
        assert_eq!(s1.len(), s2.len());
        for (a, b) in s1.iter().zip(&s2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A different shard salt draws a different reservoir stream.
        let (_, t3) = run(1);
        assert_eq!(t1.checks, t3.checks, "check positions are shard-salt-free");
    }

    #[test]
    fn gapped_observations_track_global_positions() {
        // Two-shard split of one global stream: each shard sees half the
        // records, each at its global position, and check boundaries land
        // at global positions — the shard observing records past a
        // boundary checks there, whatever its local record count.
        let plan = AdaptPlan {
            check_interval: 200,
            drift_drop: f64::INFINITY,
            ..AdaptPlan::drifty(2)
        };
        let records: Vec<TraceRecord> = (0..1_000).map(record).collect();
        let mut eng = adaptive(plan, 0);
        // This "shard" owns the even positions.
        for (pos, r) in records.iter().enumerate().step_by(2) {
            eng.observe(r, pos as u64);
        }
        // 500 own records over 999 global positions: boundaries at
        // 200/400/600/800 all fire (the final position, 998, < 1000).
        assert_eq!(eng.stats().checks, 4);
    }
}
