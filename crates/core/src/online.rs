//! Online GMM adaptation under workload drift: the [`AdaptiveEngine`] and
//! the refit producer that runs ahead of it.
//!
//! This is the GMM-aware half of the online refit loop (the model-agnostic
//! substrate — plan, telemetry, reservoir, ring, detector — lives in
//! `icgmm_cache::adapt`). At fixed *global trace positions* (multiples of
//! [`icgmm_cache::AdaptPlan::check_interval`]) the loop:
//!
//! 1. evaluates the windowed mean log-likelihood of the most recent
//!    observations under the live scorer (a direct table read — the
//!    engine's inference counters are untouched),
//! 2. feeds it to the [`icgmm_cache::DriftDetector`], and
//! 3. on a declared drift, refits from the seeded reservoir buffer via
//!    [`icgmm_gmm::IncrementalEm`] (one E/M pass, not a cold fit) and
//!    publishes the new mixture.
//!
//! ## Training runs off the datapath
//!
//! As on the paper's engine, whose weight buffer is loaded and never
//! trained in place, the loop reads no cache outcome: its buffers see
//! every record of the replayed slice, hits included, and a miss's score
//! feeds nothing back. So it runs on a thread of its own — a *producer*
//! ([`AdaptiveEngine::spawn`]) walking the slice's `(position, record)`
//! stream straight off the trace, which sends one decision per check
//! boundary — its cumulative [`AdaptStats`] and, when the check published
//! a generation, that generation's scorer — and, after its last record,
//! the end of its walk. The [`AdaptiveEngine`] the replay scores misses
//! through *follows*: before scoring a miss it takes the decision of every
//! boundary at or below the miss's position (a scorer swap is an `Arc`
//! pointer swap), and it blocks only when the producer has not decided one
//! of them yet. Hits never reach it, so the decisions of boundaries
//! crossed only by hits are taken at [`ScoreSource::telemetry`], after the
//! replay's last record, up to the end-of-walk message. Drift checks (256
//! scores of the recent ring each, through the producer's own
//! [`icgmm_gmm::TimeSlice`]) and refits (≈ 1.4 ms each at K = 256, 158 on
//! `tenants_drift`) stall the replay only when they fall behind it.
//!
//! ## Determinism
//!
//! Every record carries its global trace position, and neither half keeps
//! a clock of its own: a check fires immediately before the first record
//! whose position reaches the next `check_interval` boundary, and a
//! buffered sample's timestamp is Algorithm 1 of the position it was
//! buffered at. Every shard's producer walks the whole slice under the
//! same seed streams, whatever shard its follower scores for, so every
//! follower takes the decisions a one-shard replay takes: each miss is
//! scored by the generation live at its position, and every shard reports
//! the same block — every boundary of the slice — however far ahead its
//! producer ran. Consequences, all property-enforced in
//! `tests/adapt_equivalence.rs`:
//!
//! * an adaptive run equals the inline loop's (kept there as the oracle),
//!   offline and served, recovered shard panics included;
//! * an adaptive run is a pure function of `(trace seed, adapt seed)`,
//!   the same at 1, 2 and 4 shards, offline and served;
//! * with the drift trigger held off (`drift_drop = ∞`) the scored
//!   values are bit-identical to a static-scorer run.
//!
//! The price is one producer per shard, each walking every record: on
//! `tenants_drift` (1.2 M records, 2 vCPUs) two shards took 1.15–1.5× one
//! shard's time, so `Icgmm::run` keeps an adaptive GMM replay on one
//! shard.
//!
//! The admission threshold stays fixed across refits: it was calibrated
//! against the offline score distribution, and re-calibrating it online
//! would couple admission decisions to the reservoir contents — the
//! score *ordering* is what drift repair needs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender};
use std::thread::Scope;

use icgmm_cache::{
    AdaptPlan, AdaptStats, DriftDetector, FaultStats, ObsSample, RecentRing, Reservoir,
    ScoreSource, REFIT_DECAY, RESERVOIR_CAPACITY,
};
use icgmm_gmm::{EmConfig, Gmm, GmmError, GmmScorer, IncrementalEm, TimeSlice, Vec2};
use icgmm_trace::TraceRecord;

use crate::engine::GmmPolicyEngine;

/// Fewest reservoir samples worth refitting from; smaller buffers count a
/// refit failure and keep the live generation.
const MIN_REFIT_SAMPLES: usize = 8;

/// Check boundaries the producer may decide ahead of the replay — the
/// bound of the hand-off. A memory decision, not a tuning knob: a queued
/// decision can hold a generation the follower has not swapped in yet, and
/// the producer thread's allocator arena keeps what it held. On
/// `tenants_drift` (2-vCPU Xeon, seed 1, the inline loop at 12.4 cu) depths
/// 8 / 256 / 1 024 read `replay_cost_x` 9.1 / 8.1 / 8.1 cu for 0.5 / 1.4 /
/// 10.3 MiB more peak RSS.
const HANDOFF_DEPTH: usize = 256;

/// Stateless stream derivation, so the trainer and the reservoir draw
/// from disjoint, reproducible streams of the adapt seed, and each
/// generation's reservoir from a sub-stream of its own (same finalizer
/// construction as the cache crate's fault rolls).
fn salt(seed: u64, sub: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(sub.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the producer hands the follower.
enum Handoff {
    /// What it decided at one check boundary: its counters once the check
    /// ran (cumulative), and the generation the check published, when it
    /// refitted.
    Decision {
        stats: AdaptStats,
        scorer: Option<GmmScorer>,
    },
    /// Its walk ended: every boundary the walk reached is decided.
    WalkEnd,
}

/// The refit loop: drift checks, the reservoir and the trainer, run over
/// the replayed slice's record stream on a thread of its own.
struct Producer {
    /// The live generation (what checks score with) and the feature map.
    engine: GmmPolicyEngine,
    trainer: IncrementalEm,
    check_interval: u64,
    reservoir: Reservoir,
    ring: RecentRing,
    detector: DriftDetector,
    /// Base of the per-generation reservoir seed stream (stream 2 of the
    /// adapt seed; generation g restarts on sub-stream g).
    reservoir_salt: u64,
    stats: AdaptStats,
    /// Next check boundary: checks fire before buffering a record whose
    /// global position has reached it.
    next_check: u64,
    /// Feature scratch of the drift check and the refit, kept across
    /// checks so neither allocates per firing.
    features: Vec<Vec2>,
    /// The drift check's time slice: the ring holds runs of samples from
    /// one Algorithm 1 window, which share the time halves of a score.
    slice: TimeSlice,
}

impl Producer {
    /// See [`AdaptiveEngine::spawn`].
    fn new(
        engine: GmmPolicyEngine,
        gmm: &Gmm,
        em: EmConfig,
        plan: AdaptPlan,
    ) -> Result<Self, GmmError> {
        let trainer_cfg = EmConfig {
            seed: salt(plan.seed, 0, 1),
            ..em
        };
        let trainer = IncrementalEm::new(gmm, trainer_cfg, REFIT_DECAY)?;
        let reservoir_salt = salt(plan.seed, 0, 2);
        Ok(Producer {
            engine,
            trainer,
            check_interval: plan.check_interval,
            reservoir: Reservoir::new(salt(reservoir_salt, 0, 0), RESERVOIR_CAPACITY),
            ring: RecentRing::default(),
            detector: DriftDetector::new(&plan),
            reservoir_salt,
            stats: AdaptStats::default(),
            next_check: plan.check_interval,
            features: Vec::new(),
            slice: TimeSlice::default(),
        })
    }

    /// Walks the slice's records, deciding every boundary before buffering
    /// the record that reaches it, then says the walk ended — unless the
    /// follower is gone first (its replay attempt died or was refused).
    fn run<'r>(
        mut self,
        walk: impl Iterator<Item = (u64, &'r TraceRecord)>,
        handoff: &SyncSender<Handoff>,
    ) {
        for (pos, record) in walk {
            if self.checkpoint(pos, handoff).is_err() {
                return;
            }
            self.buffer(record.page().raw(), pos);
        }
        let _ = handoff.send(Handoff::WalkEnd);
    }

    /// Standardized feature vector of one buffered sample: its timestamp
    /// is Algorithm 1 of the position it was buffered at — no raw-feature
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

    /// Decides every check whose boundary `pos` has reached and hands each
    /// decision over, blocking while the hand-off is full. Fails once the
    /// follower hung up.
    fn checkpoint(
        &mut self,
        pos: u64,
        handoff: &SyncSender<Handoff>,
    ) -> Result<(), SendError<Handoff>> {
        while pos >= self.next_check {
            let scorer = self.run_check(pos);
            self.next_check += self.check_interval;
            let stats = self.stats;
            handoff.send(Handoff::Decision { stats, scorer })?;
        }
        Ok(())
    }

    /// One drift check; the generation it published, if it refitted.
    fn run_check(&mut self, pos: u64) -> Option<GmmScorer> {
        self.stats.checks += 1;
        if self.ring.is_empty() {
            return None;
        }
        // The likelihood window is scored by the kernel replay itself
        // scores with, through the producer's own time slice: the ring's
        // 256 samples come in runs from one Algorithm 1 window each, so
        // most scores pay the page halves only — the same bits, summed in
        // the same order, as `log_density_batch` over the ring.
        let mut zs = std::mem::take(&mut self.features);
        self.fill_features(self.ring.samples(), &mut zs);
        let scorer = self.engine.scorer();
        let lls = zs
            .iter()
            .map(|z| scorer.log_density_in(*z, &mut self.slice));
        let mll = lls.sum::<f64>() / zs.len() as f64;
        self.stats.evals += zs.len() as u64;
        self.features = zs;
        if !self.detector.observe(mll) {
            return None;
        }
        self.stats.drifts += 1;
        self.try_refit(pos)
    }

    fn try_refit(&mut self, pos: u64) -> Option<GmmScorer> {
        if self.reservoir.len() < MIN_REFIT_SAMPLES {
            self.stats.refit_failures += 1;
            return None;
        }
        let mut xs = std::mem::take(&mut self.features);
        self.fill_features(self.reservoir.samples(), &mut xs);
        let refit = self.trainer.refit(&xs, &[]);
        self.features = xs;
        match refit {
            Ok(gmm) => {
                let scorer = gmm.scorer().clone();
                self.engine.swap_scorer(scorer.clone());
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
                Some(scorer)
            }
            Err(_) => {
                // Degenerate buffer or singular refit: the previous
                // generation stays live — graceful degradation, counted.
                self.stats.refit_failures += 1;
                None
            }
        }
    }
}

/// A [`GmmPolicyEngine`] following the drift-triggered online refit loop
/// that runs ahead of it on its own thread (see the module docs).
/// Implements [`ScoreSource`], so it drops into every replay front-end
/// (offline, sharded, served) the plain engine does. Its refits learn
/// from every record of the replayed slice, whichever shard it scores
/// misses for, so an adaptive run is the same at every shard count.
#[derive(Debug)]
pub struct AdaptiveEngine {
    engine: GmmPolicyEngine,
    decisions: Receiver<Handoff>,
    check_interval: u64,
    /// Next check boundary: its decision is taken before scoring a miss
    /// whose global position has reached it.
    next_check: u64,
    /// The counters of the last decision taken.
    stats: AdaptStats,
}

impl AdaptiveEngine {
    /// Wraps `engine` with the refit loop described by `plan` and spawns
    /// the loop's producer into `scope`, over `walk`: every record of the
    /// replayed slice, hits and other shards' records included, with its
    /// global position, in order — the same walk for every shard.
    ///
    /// `gmm` seeds the incremental trainer (the offline-trained mixture —
    /// generation 0); `em` supplies the M-step hyper-parameters.
    ///
    /// The producer exits when its walk ends or when this engine is
    /// dropped. A panic on the producer is caught there and reaches the
    /// replay as a panic in [`ScoreSource::score`] or
    /// [`ScoreSource::telemetry`] at the first boundary the producer did
    /// not decide — the shard's death, which the shard supervisor recovers
    /// or reports — never through `scope`; so does a walk that ends before
    /// a miss the replay scores. Drop the engine, or take its telemetry,
    /// before `scope` ends: a live engine that stopped following leaves its
    /// producer blocked on a full hand-off.
    ///
    /// # Errors
    ///
    /// Propagates [`IncrementalEm::new`] validation failures (`plan` and
    /// the `reg_covar > 0` requirement are also checked earlier, by
    /// [`crate::IcgmmConfig::validate`]); nothing is spawned then.
    pub fn spawn<'scope, 'r: 'scope>(
        scope: &'scope Scope<'scope, '_>,
        engine: GmmPolicyEngine,
        gmm: &Gmm,
        em: EmConfig,
        plan: AdaptPlan,
        walk: impl Iterator<Item = (u64, &'r TraceRecord)> + Send + 'scope,
    ) -> Result<Self, GmmError> {
        debug_assert!(!plan.is_empty(), "callers skip wrapping for empty plans");
        let producer = Producer::new(engine.clone(), gmm, em, plan)?;
        let (handoff, decisions) = sync_channel(HANDOFF_DEPTH);
        scope.spawn(move || {
            // Dropping `handoff` on the way out, however the producer
            // ended, is what tells the follower; a panic stops here.
            let _ = catch_unwind(AssertUnwindSafe(|| producer.run(walk, &handoff)));
        });
        Ok(AdaptiveEngine {
            engine,
            decisions,
            check_interval: plan.check_interval,
            next_check: plan.check_interval,
            stats: AdaptStats::default(),
        })
    }

    /// Takes the producer's next message, waiting for it: applies a
    /// decision and returns `true`, or returns `false` at the end of its
    /// walk.
    #[cold]
    fn take(&mut self) -> bool {
        match self.decisions.recv() {
            Ok(Handoff::Decision { stats, scorer }) => {
                self.stats = stats;
                if let Some(scorer) = scorer {
                    self.engine.swap_scorer(scorer);
                }
                self.next_check += self.check_interval;
                true
            }
            Ok(Handoff::WalkEnd) => false,
            Err(_) => self.gone(),
        }
    }

    /// The shard's death: the producer is gone before deciding the next
    /// boundary — it panicked, or its walk ended short of the replay's.
    fn gone(&self) -> ! {
        panic!(
            "the adaptation producer is gone before deciding the check at position {}",
            self.next_check
        );
    }
}

impl ScoreSource for AdaptiveEngine {
    /// Takes the decision of every boundary at or below `pos` first.
    fn score(&mut self, record: &TraceRecord, pos: u64) -> f64 {
        while pos >= self.next_check {
            if !self.take() {
                self.gone();
            }
        }
        self.engine.score(record, pos)
    }

    /// Takes the decisions of the boundaries past the last miss — crossed
    /// by hits only — up to the end of the producer's walk, then reports
    /// the slice's block.
    fn telemetry(&mut self, _fault: &mut FaultStats, adapt: &mut AdaptStats) {
        while self.take() {}
        *adapt = self.stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TrainedModel;
    use icgmm_gmm::{EmTrainer, StandardScaler};
    use icgmm_trace::PreprocessConfig;
    use std::thread;

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

    /// An engine whose producer walks `walk` — the records the test's
    /// replay walks, with their positions.
    fn adaptive<'s, 'r: 's>(
        scope: &'s Scope<'s, '_>,
        plan: AdaptPlan,
        walk: impl Iterator<Item = (u64, &'r TraceRecord)> + Send + 's,
    ) -> AdaptiveEngine {
        let (model, em) = trained(4, 7);
        let engine = GmmPolicyEngine::new(&model, &pre(), false).unwrap();
        AdaptiveEngine::spawn(scope, engine, &model.gmm, em, plan, walk).unwrap()
    }

    /// The whole of `records`, at positions `0..`.
    fn all(records: &[TraceRecord]) -> impl Iterator<Item = (u64, &TraceRecord)> + Send {
        (0u64..).zip(records)
    }

    fn record(i: u64) -> TraceRecord {
        TraceRecord::read(((i * 13) % 4_096) << 12)
    }

    /// What a replay's report gets from the engine after its last record.
    fn telemetry(eng: &mut AdaptiveEngine) -> AdaptStats {
        let (mut fault, mut adapt) = (FaultStats::default(), AdaptStats::default());
        eng.telemetry(&mut fault, &mut adapt);
        assert!(fault.is_clean());
        adapt
    }

    /// A stable phase matching the training distribution, then (from
    /// position 450) a disjoint page range that drives drift.
    fn phase_change() -> Vec<TraceRecord> {
        (0..900)
            .map(|i| {
                if i < 450 {
                    record(i)
                } else {
                    TraceRecord::read((200_000 + (i * 17) % 4_096) << 12)
                }
            })
            .collect()
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
        let (model, _) = trained(4, 7);
        let mut plain = GmmPolicyEngine::new(&model, &pre(), false).unwrap();
        let records: Vec<TraceRecord> = (0..500).map(record).collect();
        let stats = thread::scope(|s| {
            let mut adaptive = adaptive(s, plan, all(&records));
            for (pos, r) in all(&records) {
                let (want, got) = (plain.score(r, pos), adaptive.score(r, pos));
                assert_eq!(want.to_bits(), got.to_bits());
            }
            telemetry(&mut adaptive)
        });
        assert!(stats.checks > 0, "checks must have run");
        assert_eq!(stats.swaps, 0, "held-off trigger must never swap");
        assert_eq!(stats.refits, 0);
        assert!(stats.evals > 0);
    }

    #[test]
    fn window_chunking_does_not_move_check_boundaries() {
        // The same record stream scored at every record, at the records of
        // every other chunk only (the rest hit and are never scored), and
        // in ragged chunks must produce identical stats after telemetry and
        // identical scores wherever two runs both scored — checks are
        // position-pure.
        let plan = AdaptPlan {
            check_interval: 100,
            drift_drop: 0.05,
            ..AdaptPlan::drifty(11)
        };
        let records = phase_change();
        let run = |chunks: &[usize]| {
            thread::scope(|s| {
                let mut eng = adaptive(s, plan, all(&records));
                let mut scores = Vec::with_capacity(records.len());
                let (mut at, mut ci) = (0usize, 0usize);
                while at < records.len() {
                    let take = chunks[ci % chunks.len()].min(records.len() - at);
                    for (pos, r) in all(&records).skip(at).take(take) {
                        scores.push((ci % 2 == 0).then(|| eng.score(r, pos).to_bits()));
                    }
                    at += take;
                    ci += 1;
                }
                (scores, telemetry(&mut eng))
            })
        };
        let (s1, t1) = run(&[records.len()]);
        let (s2, t2) = run(&[1]);
        let (s3, t3) = run(&[7, 64, 3, 255]);
        assert!(t1.checks > 0);
        assert!(t1.swaps > 0, "the phase change must be chased");
        assert_eq!(t1, t2, "scoring every other record moved a check boundary");
        assert_eq!(t1, t3, "ragged chunking moved a check boundary");
        for i in 0..records.len() {
            assert!(s2[i].is_none_or(|s| s1[i] == Some(s)), "score {i}");
            assert!(s3[i].is_none_or(|s| s1[i] == Some(s)), "score {i}");
        }
    }

    #[test]
    fn boundaries_crossed_only_by_hits_are_reported_at_telemetry() {
        // The last miss is at position 299; the boundaries 300–800 — the
        // phase change's refits among them — are crossed by hits only, and
        // the report still holds every one up to the walk's last position.
        let plan = AdaptPlan {
            check_interval: 100,
            drift_drop: 0.05,
            ..AdaptPlan::drifty(11)
        };
        let records = phase_change();
        let run = |last_miss: u64| {
            thread::scope(|s| {
                let mut eng = adaptive(s, plan, all(&records));
                for (pos, r) in all(&records).take_while(|&(pos, _)| pos <= last_miss) {
                    eng.score(r, pos);
                }
                assert_eq!(eng.stats.checks, last_miss / 100, "taken while scoring");
                telemetry(&mut eng)
            })
        };
        let (early, every) = (run(299), run(899));
        assert_eq!(early.checks, 8, "boundaries 100..=800");
        assert!(
            early.last_swap_pos > 299,
            "refits past the last miss are reported"
        );
        assert_eq!(early, every);
    }

    #[test]
    fn drift_triggers_refit_and_publishes_generations() {
        let plan = AdaptPlan {
            check_interval: 100,
            drift_drop: 0.05,
            ..AdaptPlan::drifty(5)
        };
        // Stable phase matching the training distribution, then a hard
        // phase change into a far-away page region.
        let records: Vec<TraceRecord> = (0..400)
            .map(record)
            .chain((0..2_000u64).map(|i| TraceRecord::read((500_000 + (i * 31) % 2_048) << 12)))
            .collect();
        thread::scope(|s| {
            let mut eng = adaptive(s, plan, all(&records));
            for (pos, r) in all(&records) {
                eng.score(r, pos);
            }
            // A replay's report gets the block through the hook.
            let stats = telemetry(&mut eng);
            assert!(stats.checks >= 20);
            assert!(stats.drifts > 0, "phase change must register as drift");
            assert!(stats.swaps > 0, "drift must publish a new generation");
            assert_eq!(stats.swaps, stats.refits);
            assert_eq!(stats.generation, stats.swaps);
            assert!(stats.last_swap_pos > 0);
        });
    }

    #[test]
    fn runs_are_deterministic_from_the_adapt_seed() {
        let plan = AdaptPlan {
            check_interval: 128,
            drift_drop: 0.05,
            ..AdaptPlan::drifty(21)
        };
        let records: Vec<TraceRecord> = (0..1_500)
            .map(|i| {
                if i < 700 {
                    record(i)
                } else {
                    TraceRecord::read((300_000 + (i * 11) % 1_024) << 12)
                }
            })
            .collect();
        let run = || {
            thread::scope(|s| {
                let mut eng = adaptive(s, plan, all(&records));
                let out: Vec<f64> = all(&records).map(|(pos, r)| eng.score(r, pos)).collect();
                (out, telemetry(&mut eng))
            })
        };
        let (s1, t1) = run();
        let (s2, t2) = run();
        assert_eq!(t1, t2);
        assert!(t1.refits > 0, "the phase change must be chased");
        assert_eq!(s1.len(), s2.len());
        for (a, b) in s1.iter().zip(&s2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn gapped_observations_track_global_positions() {
        // A walk with gaps — every other position of one global stream —
        // lands check boundaries at global positions: the engine scoring
        // records past a boundary checks there, whatever its local count.
        let plan = AdaptPlan {
            check_interval: 200,
            drift_drop: f64::INFINITY,
            ..AdaptPlan::drifty(2)
        };
        let records: Vec<TraceRecord> = (0..1_000).map(record).collect();
        let evens = || all(&records).step_by(2);
        let stats = thread::scope(|s| {
            let mut eng = adaptive(s, plan, evens());
            for (pos, r) in evens() {
                eng.score(r, pos);
            }
            telemetry(&mut eng)
        });
        // 500 own records over 999 global positions: boundaries at
        // 200/400/600/800 all fire (the final position, 998, < 1000).
        assert_eq!(stats.checks, 4);
    }

    #[test]
    fn a_dropped_follower_releases_its_producer() {
        // Far more boundaries than the hand-off holds: a producer that
        // kept going after its follower was dropped would block the scope
        // forever on a full queue.
        let plan = AdaptPlan {
            check_interval: 8,
            drift_drop: f64::INFINITY,
            ..AdaptPlan::drifty(4)
        };
        let records: Vec<TraceRecord> = (0..(HANDOFF_DEPTH as u64 * 64)).map(record).collect();
        thread::scope(|s| {
            let mut eng = adaptive(s, plan, all(&records));
            for (pos, r) in all(&records).take(100) {
                eng.score(r, pos);
            }
            assert_eq!(eng.stats.checks, 12);
        });
    }

    #[test]
    fn a_producer_panic_is_the_followers_panic_and_never_the_scopes() {
        // The walk dies under the producer at position 350: boundaries
        // 100–300 were decided and reach the follower; 400 never is, and
        // scoring past it panics on the replay's side, while the scope
        // itself returns normally.
        let plan = AdaptPlan {
            check_interval: 100,
            drift_drop: f64::INFINITY,
            ..AdaptPlan::drifty(6)
        };
        let records: Vec<TraceRecord> = (0..1_000).map(record).collect();
        let hostile = all(&records).inspect(|&(pos, _)| assert!(pos < 350, "hostile walk"));
        let (checks, died) = thread::scope(|s| {
            let mut eng = adaptive(s, plan, hostile);
            for (pos, r) in all(&records).take(400) {
                eng.score(r, pos);
            }
            let checks = eng.stats.checks;
            let died = catch_unwind(AssertUnwindSafe(|| {
                for (pos, r) in all(&records).skip(400) {
                    eng.score(r, pos);
                }
            }));
            (checks, died)
        });
        assert_eq!(checks, 3);
        let payload = died.expect_err("the follower must not outlive its producer");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(msg.contains("check at position 400"), "{msg}");
    }

    #[test]
    fn a_producer_dead_after_the_last_miss_panics_at_telemetry() {
        // The last miss is at position 299; the walk dies under the
        // producer at 650, after it decided boundary 600. The replay's
        // telemetry takes 300–600 and then names 700, the boundary nobody
        // decided — a shard's death, not a short report.
        let plan = AdaptPlan {
            check_interval: 100,
            drift_drop: f64::INFINITY,
            ..AdaptPlan::drifty(6)
        };
        let records: Vec<TraceRecord> = (0..1_000).map(record).collect();
        let hostile = all(&records).inspect(|&(pos, _)| assert!(pos < 650, "hostile walk"));
        let (checks, died) = thread::scope(|s| {
            let mut eng = adaptive(s, plan, hostile);
            for (pos, r) in all(&records).take(300) {
                eng.score(r, pos);
            }
            let died = catch_unwind(AssertUnwindSafe(|| telemetry(&mut eng)));
            (eng.stats.checks, died)
        });
        assert_eq!(checks, 6, "every decided boundary was taken");
        let payload = died.expect_err("a dead producer must not pass for a finished walk");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(msg.contains("check at position 700"), "{msg}");
    }
}
