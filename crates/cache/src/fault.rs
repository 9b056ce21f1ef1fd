//! Deterministic fault injection and the graceful-degradation ladder.
//!
//! The paper's ICGMM sits between a learned model and real flash devices,
//! neither of which is perfect in deployment: scoring engines emit
//! non-finite values or stall, SSD commands fail and exhibit heavy tail
//! latencies, and replay workers can die. This module provides the
//! substrate the whole workspace uses to rehearse those failures
//! *deterministically*:
//!
//! * [`FaultPlan`] — a seeded, `Copy` description of which faults to arm
//!   (scorer, device, shard) and how the degradation ladder responds
//!   (the scorer health monitor). An empty plan
//!   injects nothing and arms nothing; callers skip all wrapping in that
//!   case, so empty-plan runs take exactly the fault-free code paths and
//!   stay bit-identical to them (property-enforced by
//!   `tests/fault_empty_plan.rs`).
//! * [`FaultStats`] — the observability block carried on `SimReport`,
//!   `DataflowReport` and `ExperimentResult`: injected / retried /
//!   degraded / recovered counters plus modeled time lost to faults.
//! * [`FaultyScore`] — a [`ScoreSource`] wrapper that corrupts scores at
//!   plan-rolled positions (NaN/±Inf flips, outage windows) and feeds the
//!   scorer health monitor.
//! * [`ScorerHealth`] / [`FailoverEviction`] / [`FailoverAdmission`] —
//!   the gmm-score→LRU and threshold→always-admit rungs of the ladder.
//!
//! Counters are plain fields of whoever increments them: the injector
//! counts its injections, the health monitor — the one object a shard's
//! three ladder rungs share — counts the ladder's transitions and degraded
//! decisions, `icgmm-hw`'s device-fault observer its device faults, the
//! shard supervisor its panics and recoveries. Whoever replayed a shard reads them once, after
//! the shard's last record, through [`ScoreSource::telemetry`]; an attempt
//! that died takes its counters with it.
//!
//! Every injection decision is a pure hash of `(plan seed, stream, trace
//! position)` — no RNG state, no wall clock — so fault-laden runs are
//! reproducible from `(plan seed, trace seed)`, independent of thread
//! interleaving, and (for position-keyed scorer faults) of shard count.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use icgmm_trace::TraceRecord;
use serde::{Deserialize, Serialize};

use crate::adapt::AdaptStats;
use crate::policy::{AccessCtx, AdmissionPolicy, EvictionPolicy};
use crate::score::ScoreSource;

/// Decision streams, so the same position can roll independently for each
/// fault class.
const STREAM_SCORER_NAN: u64 = 1;
const STREAM_SCORER_OUTAGE: u64 = 2;
const STREAM_DEVICE_FAIL: u64 = 3;
const STREAM_DEVICE_SPIKE: u64 = 4;
const STREAM_SHARD_PANIC: u64 = 5;
const STREAM_SHARD_PANIC_AT: u64 = 6;

/// Stateless fault-decision hash: a splitmix64-style finalizer over
/// `(seed, stream, a, b)`. Identical inputs give identical rolls on every
/// platform, thread and run — the backbone of plan determinism.
pub(crate) fn fault_roll(seed: u64, stream: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        ^ stream.rotate_left(32)
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Latency multiplier of an SSD tail-latency spike
/// ([`FaultPlan::device_spike_per_mille`]), read by the `icgmm-hw` device
/// emulator.
pub const DEVICE_SPIKE_MULT: f64 = 8.0;

/// `true` when `roll` lands inside a per-mille probability.
pub(crate) fn roll_hits(roll: u64, per_mille: u16) -> bool {
    per_mille > 0 && roll % 1000 < per_mille as u64
}

/// A seeded, config-driven fault-injection plan plus degradation knobs.
///
/// The default plan is *empty*: every injection rate is zero and every
/// ladder rung disarmed. Callers must check [`FaultPlan::is_empty`] and
/// skip all wrapping for empty plans — that is what makes the empty-plan
/// bit-identity property hold by construction rather than by luck.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every injection decision (independent of the trace seed).
    pub seed: u64,
    /// Per-mille probability that a scored position's score is flipped to
    /// a non-finite value (NaN / +Inf / -Inf, chosen by the same roll).
    pub scorer_nan_per_mille: u16,
    /// Per-mille probability that a position *starts* a scoring-engine
    /// outage; every score requested within [`FaultPlan::scorer_outage_len`]
    /// positions of an outage start returns NaN (engine unavailable).
    pub scorer_outage_per_mille: u16,
    /// Length of a scorer outage, in trace positions.
    pub scorer_outage_len: u32,
    /// Per-mille probability that an SSD command attempt fails and must be
    /// retried with exponential backoff.
    pub device_fail_per_mille: u16,
    /// Per-mille probability of a tail-latency spike on an SSD command
    /// (the command takes [`DEVICE_SPIKE_MULT`] times its nominal latency).
    pub device_spike_per_mille: u16,
    /// Retries before an SSD command is abandoned as timed out.
    pub device_retry_limit: u32,
    /// Base retry backoff in modeled µs; attempt `k` waits `2^k` times this.
    pub device_backoff_us: f64,
    /// Extra modeled µs charged when a command exhausts its retries (the
    /// host-side timeout before the op is abandoned).
    pub device_timeout_us: f64,
    /// Per-mille probability (rolled once per shard) that a shard worker
    /// panics mid-replay at a plan-chosen record.
    pub shard_panic_per_mille: u16,
    /// Consecutive non-finite scores before the scorer health monitor
    /// demotes gmm-score eviction to LRU and threshold admission to
    /// always-admit. Zero disarms the monitor.
    pub scorer_demote_after: u32,
    /// Consecutive finite scores (while degraded) before re-promotion.
    pub scorer_promote_after: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            scorer_nan_per_mille: 0,
            scorer_outage_per_mille: 0,
            scorer_outage_len: 16,
            device_fail_per_mille: 0,
            device_spike_per_mille: 0,
            device_retry_limit: 3,
            device_backoff_us: 50.0,
            device_timeout_us: 1_000.0,
            shard_panic_per_mille: 0,
            scorer_demote_after: 0,
            scorer_promote_after: 64,
        }
    }
}

impl FaultPlan {
    /// An empty plan: nothing injected, nothing armed.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// A mixed-fault chaos preset used by the soak suites: every fault
    /// class armed at soak-friendly rates, every ladder rung armed.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            scorer_nan_per_mille: 30,
            scorer_outage_per_mille: 5,
            scorer_outage_len: 64,
            device_fail_per_mille: 20,
            device_spike_per_mille: 50,
            shard_panic_per_mille: 500,
            scorer_demote_after: 8,
            scorer_promote_after: 64,
            ..FaultPlan::default()
        }
    }

    /// Whether the plan injects nothing and arms no ladder rung — the
    /// "today's engines, untouched" configuration.
    pub fn is_empty(&self) -> bool {
        !self.scorer_armed() && !self.device_armed() && !self.shard_armed() && !self.monitor_armed()
    }

    /// Scorer faults armed (non-finite flips or outages)?
    pub fn scorer_armed(&self) -> bool {
        self.scorer_nan_per_mille > 0 || self.scorer_outage_per_mille > 0
    }

    /// Device faults armed (command failures or tail spikes)?
    pub fn device_armed(&self) -> bool {
        self.device_fail_per_mille > 0 || self.device_spike_per_mille > 0
    }

    /// Shard-worker panic points armed?
    pub fn shard_armed(&self) -> bool {
        self.shard_panic_per_mille > 0
    }

    /// Scorer health monitor (gmm-score→LRU, threshold→always) armed?
    pub fn monitor_armed(&self) -> bool {
        self.scorer_demote_after > 0
    }

    /// Validates the plan, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        for (what, pm) in [
            ("fault.scorer_nan_per_mille", self.scorer_nan_per_mille),
            (
                "fault.scorer_outage_per_mille",
                self.scorer_outage_per_mille,
            ),
            ("fault.device_fail_per_mille", self.device_fail_per_mille),
            ("fault.device_spike_per_mille", self.device_spike_per_mille),
            ("fault.shard_panic_per_mille", self.shard_panic_per_mille),
        ] {
            if pm > 1000 {
                return Err(format!("{what} must be <= 1000, got {pm}"));
            }
        }
        if self.scorer_outage_per_mille > 0 && self.scorer_outage_len == 0 {
            return Err("fault.scorer_outage_len must be >= 1 when outages are armed".into());
        }
        if !self.device_backoff_us.is_finite() || self.device_backoff_us < 0.0 {
            return Err(format!(
                "fault.device_backoff_us must be finite and >= 0, got {}",
                self.device_backoff_us
            ));
        }
        if !self.device_timeout_us.is_finite() || self.device_timeout_us < 0.0 {
            return Err(format!(
                "fault.device_timeout_us must be finite and >= 0, got {}",
                self.device_timeout_us
            ));
        }
        if self.scorer_demote_after > 0 && self.scorer_promote_after == 0 {
            return Err(
                "fault.scorer_promote_after must be >= 1 when the health monitor is armed".into(),
            );
        }
        Ok(())
    }

    /// The record index (within a shard's warm-up + measured subtrace) at
    /// which the plan arms a panic point for `shard`, if any. One roll per
    /// shard decides *whether*, a second decides *where*.
    pub fn shard_panic_point(&self, shard: usize, shard_records: usize) -> Option<u64> {
        if self.shard_panic_per_mille == 0 || shard_records == 0 {
            return None;
        }
        let arm = fault_roll(self.seed, STREAM_SHARD_PANIC, shard as u64, 0);
        if !roll_hits(arm, self.shard_panic_per_mille) {
            return None;
        }
        Some(fault_roll(self.seed, STREAM_SHARD_PANIC_AT, shard as u64, 0) % shard_records as u64)
    }

    /// Whether the SSD command numbered `op_index` fails on `attempt`
    /// (each attempt rolls independently, so retries can succeed). Used by
    /// the `icgmm-hw` device emulator.
    pub fn device_attempt_fails(&self, op_index: u64, attempt: u32) -> bool {
        roll_hits(
            fault_roll(self.seed, STREAM_DEVICE_FAIL, op_index, attempt as u64),
            self.device_fail_per_mille,
        )
    }

    /// Whether the SSD command numbered `op_index` suffers a tail-latency
    /// spike. Used by the `icgmm-hw` device emulator.
    pub fn device_spikes(&self, op_index: u64) -> bool {
        roll_hits(
            fault_roll(self.seed, STREAM_DEVICE_SPIKE, op_index, 0),
            self.device_spike_per_mille,
        )
    }
}

/// Fault-injection and degradation counters for one run.
///
/// Carried on `SimReport`, `DataflowReport` and `ExperimentResult`. Every
/// shard's own report holds the shard's block; a sharded or served report
/// is their sum in shard order plus the supervisor's panic / recovery
/// counts, so it is as deterministic as a single-threaded one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Scores flipped to NaN/±Inf by the plan.
    pub scorer_nan_injected: u64,
    /// Scores swallowed by a scoring-engine outage (returned NaN).
    pub scorer_outage_scores: u64,
    /// SSD command attempts that failed.
    pub device_failures: u64,
    /// SSD command retries performed.
    pub device_retries: u64,
    /// SSD commands abandoned after exhausting their retries.
    pub device_timeouts: u64,
    /// SSD commands hit by a tail-latency spike.
    pub device_spikes: u64,
    /// Modeled µs charged beyond nominal device latency (spikes, retries,
    /// backoff, timeouts).
    pub device_fault_us: f64,
    /// Shard workers that panicked.
    pub shard_panics: u64,
    /// Panicked shards successfully re-replayed by the supervisor.
    pub shard_recoveries: u64,
    /// Scorer health-monitor demotions (gmm-score→LRU, threshold→always).
    pub scorer_demotions: u64,
    /// Scorer health-monitor re-promotions back to the primary policies.
    pub scorer_repromotions: u64,
    /// Scores served while the scorer was degraded.
    pub degraded_scores: u64,
    /// Victim choices delegated to the fallback (LRU) while degraded.
    pub degraded_victims: u64,
    /// Admissions forced to always-admit while degraded.
    pub degraded_admits: u64,
}

impl FaultStats {
    /// Accumulates `other` into `self` (used by the sharded sum and by
    /// callers combining scorer and device stats into one block).
    pub fn merge(&mut self, other: &FaultStats) {
        self.scorer_nan_injected += other.scorer_nan_injected;
        self.scorer_outage_scores += other.scorer_outage_scores;
        self.device_failures += other.device_failures;
        self.device_retries += other.device_retries;
        self.device_timeouts += other.device_timeouts;
        self.device_spikes += other.device_spikes;
        self.device_fault_us += other.device_fault_us;
        self.shard_panics += other.shard_panics;
        self.shard_recoveries += other.shard_recoveries;
        self.scorer_demotions += other.scorer_demotions;
        self.scorer_repromotions += other.scorer_repromotions;
        self.degraded_scores += other.degraded_scores;
        self.degraded_victims += other.degraded_victims;
        self.degraded_admits += other.degraded_admits;
    }

    /// Total faults injected (scorer + device + shard), before degradation.
    pub fn injected(&self) -> u64 {
        self.scorer_nan_injected
            + self.scorer_outage_scores
            + self.device_failures
            + self.device_spikes
            + self.shard_panics
    }

    /// `true` when no fault was injected and no rung engaged — the block an
    /// empty plan must produce.
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// The scorer health monitor: tracks consecutive non-finite scores and
/// drives the gmm-score→LRU / threshold→always-admit degradation rungs
/// with hysteresis (demote after `scorer_demote_after` bad scores,
/// re-promote after `scorer_promote_after` good ones).
///
/// One instance per replay thread (sharded runs build one per shard), so
/// transitions are a pure function of that thread's score stream and the
/// run stays deterministic. It is the one object the shard's three rungs
/// ([`FaultyScore`], [`FailoverEviction`], [`FailoverAdmission`]) share,
/// so it also keeps the ladder's five counters
/// ([`ScorerHealth::telemetry`]).
#[derive(Debug)]
pub struct ScorerHealth {
    demote_after: u32,
    promote_after: u32,
    degraded: AtomicBool,
    bad_streak: AtomicU32,
    good_streak: AtomicU32,
    demotions: AtomicU64,
    repromotions: AtomicU64,
    degraded_scores: AtomicU64,
    degraded_victims: AtomicU64,
    degraded_admits: AtomicU64,
}

impl ScorerHealth {
    /// A monitor armed per `plan` (disarmed monitors never degrade).
    pub fn new(plan: &FaultPlan) -> Arc<Self> {
        Arc::new(ScorerHealth {
            demote_after: plan.scorer_demote_after,
            promote_after: plan.scorer_promote_after.max(1),
            degraded: AtomicBool::new(false),
            bad_streak: AtomicU32::new(0),
            good_streak: AtomicU32::new(0),
            demotions: AtomicU64::new(0),
            repromotions: AtomicU64::new(0),
            degraded_scores: AtomicU64::new(0),
            degraded_victims: AtomicU64::new(0),
            degraded_admits: AtomicU64::new(0),
        })
    }

    /// Whether the ladder is currently in its degraded rung.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Adds the ladder's counters — transitions, and the scores, victim
    /// choices and admissions served while degraded — to `fault`.
    pub fn telemetry(&self, fault: &mut FaultStats) {
        fault.scorer_demotions += self.demotions.load(Ordering::Relaxed);
        fault.scorer_repromotions += self.repromotions.load(Ordering::Relaxed);
        fault.degraded_scores += self.degraded_scores.load(Ordering::Relaxed);
        fault.degraded_victims += self.degraded_victims.load(Ordering::Relaxed);
        fault.degraded_admits += self.degraded_admits.load(Ordering::Relaxed);
    }

    /// Feeds one score observation (finite or not) into the monitor,
    /// counting demotions and re-promotions.
    pub fn observe(&self, finite: bool) {
        if self.demote_after == 0 {
            return;
        }
        if finite {
            self.bad_streak.store(0, Ordering::Relaxed);
            if self.is_degraded() {
                let good = self.good_streak.load(Ordering::Relaxed) + 1;
                if good >= self.promote_after {
                    self.degraded.store(false, Ordering::Relaxed);
                    self.good_streak.store(0, Ordering::Relaxed);
                    self.repromotions.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.good_streak.store(good, Ordering::Relaxed);
                }
            }
        } else {
            self.good_streak.store(0, Ordering::Relaxed);
            if !self.is_degraded() {
                let bad = self.bad_streak.load(Ordering::Relaxed) + 1;
                if bad >= self.demote_after {
                    self.degraded.store(true, Ordering::Relaxed);
                    self.bad_streak.store(0, Ordering::Relaxed);
                    self.demotions.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.bad_streak.store(bad, Ordering::Relaxed);
                }
            }
        }
    }
}

/// A [`ScoreSource`] wrapper that injects plan-rolled scorer faults and
/// feeds the health monitor.
///
/// Every injection decision is keyed on the observed record's *global
/// trace position* — identical at every shard count.
pub struct FaultyScore<S: ScoreSource> {
    inner: S,
    plan: FaultPlan,
    health: Option<Arc<ScorerHealth>>,
    /// Position of the most recently observed record.
    pos: u64,
    nan_injected: u64,
    outage_scores: u64,
}

impl<S: ScoreSource> FaultyScore<S> {
    /// Wraps `inner`, injecting per `plan` and (when `health` is given)
    /// feeding every emitted score into the monitor — which also catches
    /// genuine non-finite scores the inner engine produces on its own.
    pub fn new(inner: S, plan: FaultPlan, health: Option<Arc<ScorerHealth>>) -> Self {
        FaultyScore {
            inner,
            plan,
            health,
            pos: 0,
            nan_injected: 0,
            outage_scores: 0,
        }
    }

    /// The wrapped source (e.g. to read its inference counters after a
    /// run).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Whether any outage window covers position `seq`: an outage starting
    /// at any of the previous `scorer_outage_len` positions is still in
    /// force.
    fn outage_active(&self, seq: u64) -> bool {
        if self.plan.scorer_outage_per_mille == 0 {
            return false;
        }
        let len = u64::from(self.plan.scorer_outage_len.max(1));
        let lo = seq.saturating_sub(len - 1);
        (lo..=seq).any(|s| {
            roll_hits(
                fault_roll(self.plan.seed, STREAM_SCORER_OUTAGE, s, 0),
                self.plan.scorer_outage_per_mille,
            )
        })
    }

    /// Applies the plan to the score produced at trace position `seq`.
    fn corrupt(&mut self, seq: u64, raw: f64) -> f64 {
        let mut v = raw;
        if self.outage_active(seq) {
            v = f64::NAN;
            self.outage_scores += 1;
        } else {
            let roll = fault_roll(self.plan.seed, STREAM_SCORER_NAN, seq, 0);
            if roll_hits(roll, self.plan.scorer_nan_per_mille) {
                v = match (roll >> 32) % 3 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => f64::NEG_INFINITY,
                };
                self.nan_injected += 1;
            }
        }
        if let Some(h) = &self.health {
            h.observe(v.is_finite());
            if h.is_degraded() {
                h.degraded_scores.fetch_add(1, Ordering::Relaxed);
            }
        }
        v
    }
}

impl<S: ScoreSource> ScoreSource for FaultyScore<S> {
    fn observe(&mut self, record: &TraceRecord, pos: u64) {
        self.inner.observe(record, pos);
        self.pos = pos;
    }

    fn score_current(&mut self) -> f64 {
        let raw = self.inner.score_current();
        self.corrupt(self.pos, raw)
    }

    fn shardable(&self) -> bool {
        self.inner.shardable()
    }

    fn telemetry(&self, fault: &mut FaultStats, adapt: &mut AdaptStats) {
        self.inner.telemetry(fault, adapt);
        fault.scorer_nan_injected += self.nan_injected;
        fault.scorer_outage_scores += self.outage_scores;
        if let Some(h) = &self.health {
            h.telemetry(fault);
        }
    }
}

/// The gmm-score→LRU rung: routes victim choices to a fallback policy
/// while the scorer is degraded.
///
/// Both policies' replacement metadata is kept warm on every hit and
/// insert, so a mid-run demotion hands the fallback a fully-populated
/// view instead of cold state.
pub struct FailoverEviction {
    primary: Box<dyn EvictionPolicy + Send>,
    fallback: Box<dyn EvictionPolicy + Send>,
    health: Arc<ScorerHealth>,
    name: String,
}

impl FailoverEviction {
    /// Wraps `primary` with `fallback` engaged while `health` is degraded.
    pub fn new(
        primary: Box<dyn EvictionPolicy + Send>,
        fallback: Box<dyn EvictionPolicy + Send>,
        health: Arc<ScorerHealth>,
    ) -> Self {
        let name = format!("failover({}->{})", primary.name(), fallback.name());
        FailoverEviction {
            primary,
            fallback,
            health,
            name,
        }
    }
}

impl EvictionPolicy for FailoverEviction {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        self.primary.on_hit(set, way, ctx);
        self.fallback.on_hit(set, way, ctx);
    }

    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        self.primary.on_insert(set, way, ctx);
        self.fallback.on_insert(set, way, ctx);
    }

    fn choose_victim(&mut self, set: usize, ways: usize, ctx: &AccessCtx) -> usize {
        if self.health.is_degraded() {
            self.health.degraded_victims.fetch_add(1, Ordering::Relaxed);
            self.fallback.choose_victim(set, ways, ctx)
        } else {
            self.primary.choose_victim(set, ways, ctx)
        }
    }

    fn shard_deterministic(&self) -> bool {
        self.primary.shard_deterministic() && self.fallback.shard_deterministic()
    }
}

/// The threshold→always-admit rung: admits every miss while the scorer is
/// degraded (a cache that cannot trust its scores must not bypass on
/// them), delegating to the primary filter otherwise.
pub struct FailoverAdmission {
    primary: Box<dyn AdmissionPolicy + Send>,
    health: Arc<ScorerHealth>,
    name: String,
}

impl FailoverAdmission {
    /// Wraps `primary` with always-admit engaged while `health` is
    /// degraded.
    pub fn new(primary: Box<dyn AdmissionPolicy + Send>, health: Arc<ScorerHealth>) -> Self {
        let name = format!("failover({}->always)", primary.name());
        FailoverAdmission {
            primary,
            health,
            name,
        }
    }
}

impl AdmissionPolicy for FailoverAdmission {
    fn name(&self) -> &str {
        &self.name
    }

    fn should_admit(&mut self, ctx: &AccessCtx) -> bool {
        if self.health.is_degraded() {
            self.health.degraded_admits.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            self.primary.should_admit(ctx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{LruPolicy, ThresholdAdmit};
    use crate::score::ConstantScore;
    use icgmm_trace::Op;

    /// The ladder's counters, read the way a replay reads them.
    fn ladder(h: &ScorerHealth) -> FaultStats {
        let mut fault = FaultStats::default();
        h.telemetry(&mut fault);
        fault
    }

    #[test]
    fn default_plan_is_empty_and_valid() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        assert!(p.validate().is_ok());
        assert_eq!(p, FaultPlan::empty());
    }

    #[test]
    fn chaos_plan_arms_every_class_and_validates() {
        let p = FaultPlan::chaos(7);
        assert!(!p.is_empty());
        assert!(p.scorer_armed() && p.device_armed() && p.shard_armed());
        assert!(p.monitor_armed());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_each_bad_knob() {
        let bad = [
            FaultPlan {
                scorer_nan_per_mille: 1001,
                ..FaultPlan::default()
            },
            FaultPlan {
                scorer_outage_per_mille: 5,
                scorer_outage_len: 0,
                ..FaultPlan::default()
            },
            FaultPlan {
                device_backoff_us: -1.0,
                ..FaultPlan::default()
            },
            FaultPlan {
                device_timeout_us: f64::INFINITY,
                ..FaultPlan::default()
            },
            FaultPlan {
                scorer_demote_after: 4,
                scorer_promote_after: 0,
                ..FaultPlan::default()
            },
        ];
        for p in bad {
            assert!(p.validate().is_err(), "{p:?} should be invalid");
        }
    }

    #[test]
    fn rolls_are_deterministic_and_seed_sensitive() {
        assert_eq!(fault_roll(1, 2, 3, 4), fault_roll(1, 2, 3, 4));
        assert_ne!(fault_roll(1, 2, 3, 4), fault_roll(2, 2, 3, 4));
        assert_ne!(fault_roll(1, 2, 3, 4), fault_roll(1, 3, 3, 4));
        assert_ne!(fault_roll(1, 2, 3, 4), fault_roll(1, 2, 4, 4));
    }

    #[test]
    fn shard_panic_point_is_deterministic_and_rate_gated() {
        let p = FaultPlan {
            shard_panic_per_mille: 1000,
            ..FaultPlan::default()
        };
        for shard in 0..8 {
            let a = p.shard_panic_point(shard, 100);
            assert_eq!(a, p.shard_panic_point(shard, 100));
            assert!(a.is_some_and(|at| at < 100));
        }
        let off = FaultPlan::default();
        assert_eq!(off.shard_panic_point(0, 100), None);
        assert_eq!(p.shard_panic_point(0, 0), None);
    }

    #[test]
    fn faulty_score_injects_at_stable_positions() {
        let plan = FaultPlan {
            seed: 11,
            scorer_nan_per_mille: 200,
            ..FaultPlan::default()
        };
        let run = |mut s: FaultyScore<ConstantScore>| -> Vec<bool> {
            (0..200u64)
                .map(|i| {
                    s.observe(&TraceRecord::read(i << 12), i);
                    !s.score_current().is_finite()
                })
                .collect()
        };
        let a = run(FaultyScore::new(ConstantScore(0.5), plan, None));
        let b = run(FaultyScore::new(ConstantScore(0.5), plan, None));
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "rate 200/1000 over 200 rolls injects");
        assert!(!a.iter().all(|&x| x), "and leaves some scores intact");
    }

    #[test]
    fn faulty_score_window_matches_streaming_positions() {
        let plan = FaultPlan {
            seed: 3,
            scorer_nan_per_mille: 300,
            ..FaultPlan::default()
        };
        // A shard's clone observes only its own positions and must corrupt
        // exactly the scores the whole-stream source corrupts there.
        let record = |pos: u64| TraceRecord::read(pos << 12);
        let mut whole = FaultyScore::new(Box::new(ConstantScore(0.5)), plan, None);
        let expected: Vec<f64> = (0..64u64)
            .map(|pos| {
                whole.observe(&record(pos), pos);
                whole.score_current()
            })
            .collect();
        let mut shard = FaultyScore::new(Box::new(ConstantScore(0.5)), plan, None);
        for pos in (1..64u64).step_by(3) {
            shard.observe(&record(pos), pos);
            let (e, o) = (expected[pos as usize], shard.score_current());
            assert!(e == o || (e.is_nan() && o.is_nan()), "{e} vs {o}");
        }
        assert!(expected.iter().any(|e| !e.is_finite()));
    }

    #[test]
    fn health_monitor_demotes_and_repromotes_with_hysteresis() {
        let plan = FaultPlan {
            scorer_demote_after: 3,
            scorer_promote_after: 2,
            ..FaultPlan::default()
        };
        let h = ScorerHealth::new(&plan);
        h.observe(false);
        h.observe(false);
        assert!(!h.is_degraded(), "two bad scores are below the threshold");
        h.observe(false);
        assert!(h.is_degraded(), "third consecutive bad score demotes");
        h.observe(true);
        assert!(h.is_degraded(), "one good score is below re-promotion");
        h.observe(true);
        assert!(
            !h.is_degraded(),
            "second consecutive good score re-promotes"
        );
        let s = ladder(&h);
        assert_eq!(s.scorer_demotions, 1);
        assert_eq!(s.scorer_repromotions, 1);
    }

    #[test]
    fn failover_eviction_routes_by_health() {
        let plan = FaultPlan {
            scorer_demote_after: 1,
            scorer_promote_after: 1,
            ..FaultPlan::default()
        };
        let h = ScorerHealth::new(&plan);
        let mut ev = FailoverEviction::new(
            Box::new(crate::policy::GmmScorePolicy::new(1, 2)),
            Box::new(LruPolicy::new(1, 2)),
            Arc::clone(&h),
        );
        assert_eq!(ev.name(), "failover(gmm-score->lru)");
        // Way 0 scored high but stale; way 1 scored low but recent.
        let ctx = |page: u64, seq: u64, score: f64| AccessCtx {
            page: icgmm_trace::PageIndex::new(page),
            op: Op::Read,
            seq,
            score: Some(score),
        };
        ev.on_insert(0, 0, &ctx(1, 0, 9.0));
        ev.on_insert(0, 1, &ctx(2, 1, 1.0));
        assert_eq!(
            ev.choose_victim(0, 2, &ctx(3, 2, 5.0)),
            1,
            "healthy: gmm-score evicts the lowest stored score"
        );
        h.observe(false);
        assert!(h.is_degraded());
        assert_eq!(
            ev.choose_victim(0, 2, &ctx(3, 3, 5.0)),
            0,
            "degraded: LRU evicts the least-recently-used way"
        );
        assert_eq!(ladder(&h).degraded_victims, 1);
    }

    #[test]
    fn failover_admission_always_admits_while_degraded() {
        let plan = FaultPlan {
            scorer_demote_after: 1,
            scorer_promote_after: 1,
            ..FaultPlan::default()
        };
        let h = ScorerHealth::new(&plan);
        let mut adm = FailoverAdmission::new(Box::new(ThresholdAdmit::new(0.5)), Arc::clone(&h));
        assert_eq!(adm.name(), "failover(gmm-threshold->always)");
        let low = AccessCtx {
            page: icgmm_trace::PageIndex::new(1),
            op: Op::Read,
            seq: 0,
            score: Some(0.1),
        };
        assert!(!adm.should_admit(&low), "healthy: threshold bypasses");
        h.observe(false);
        assert!(adm.should_admit(&low), "degraded: always admits");
        assert_eq!(ladder(&h).degraded_admits, 1);
    }

    #[test]
    fn fault_stats_merge_adds_everything() {
        let mut a = FaultStats {
            scorer_nan_injected: 1,
            device_retries: 2,
            shard_panics: 3,
            device_fault_us: 1.5,
            ..FaultStats::default()
        };
        let b = FaultStats {
            scorer_nan_injected: 10,
            device_retries: 20,
            shard_recoveries: 30,
            degraded_scores: 40,
            device_fault_us: 2.5,
            ..FaultStats::default()
        };
        a.merge(&b);
        assert_eq!(a.scorer_nan_injected, 11);
        assert_eq!(a.device_retries, 22);
        assert_eq!(a.shard_panics, 3);
        assert_eq!(a.shard_recoveries, 30);
        assert_eq!(a.degraded_scores, 40);
        assert_eq!(a.device_fault_us, 4.0);
        assert!(!a.is_clean());
        assert!(FaultStats::default().is_clean());
        assert!(a.injected() >= 11);
    }
}
