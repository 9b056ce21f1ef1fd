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
//! * [`FaultStats`] — the observability block carried on `SimReport`
//!   (and, through it, `RunReport` and `ServeReport`) and
//!   `DataflowReport`: injected / retried / degraded / recovered counters
//!   plus modeled time lost to faults.
//! * [`FaultyScore`] — a [`ScoreSource`] wrapper that corrupts the scores
//!   of misses at plan-rolled positions (NaN/±Inf flips, outage windows)
//!   and owns the scorer health monitor, [`ScorerHealth`]. Each miss is
//!   scored with its own position, so the wrapper keeps no clock and sees
//!   no hit.
//!
//! # The ladder is "no score"
//!
//! A score that cannot be trusted is not a score, and a miss without a
//! score is something every policy already decides: threshold admission
//! admits it, gmm-score eviction picks its victim by recency and stores
//! score 0 for the block ([`AccessCtx::score`](crate::AccessCtx::score) is
//! `None`). So degradation is a value, not a second policy stack, and it
//! has two rungs:
//!
//! * **per request** — a non-finite score never reaches a policy
//!   ([`crate::SetAssocCache::access_scored`] hands it on as `None`),
//!   whether a plan injected it or the engine produced it, and whether or
//!   not a monitor is armed. That request is decided the way LRU would.
//! * **per streak** — the monitor, once armed, stops trusting *finite*
//!   scores too after `scorer_demote_after` consecutive bad ones: while it
//!   is degraded [`FaultyScore`] answers every miss with no score (NaN),
//!   still scoring underneath, and trusts the engine again after
//!   `scorer_promote_after` consecutive good ones.
//!
//! Counters are plain fields of whoever increments them: the injector
//! counts its injections, its monitor the ladder's transitions and the
//! scores it withheld, the shard supervisor its panics and recoveries, and
//! the replay loop's accounting step the device faults of every measured
//! miss ([`FaultPlan::device_command_us`]) — for whichever front-end fed
//! it the record: `run`, `run_sharded`, `serve` and `run_dataflow` alike.
//! Whoever replayed a shard reads them once, after the shard's last
//! record ([`ScoreSource::telemetry`] for the score stack's); an attempt
//! that died takes its counters with it.
//!
//! Every injection decision is a pure hash of `(plan seed, stream, trace
//! position)` — no RNG state, no wall clock — so fault-laden runs are
//! reproducible from `(plan seed, trace seed)`, independent of thread
//! interleaving and of shard count. (A device fault is keyed by its
//! request's position and the command's index within the request.)

use icgmm_trace::TraceRecord;
use serde::{Deserialize, Serialize};

use crate::adapt::AdaptStats;
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
/// ([`FaultPlan::device_spike_per_mille`]).
const DEVICE_SPIKE_MULT: f64 = 8.0;

/// Longest scorer outage a plan may ask for ([`FaultPlan::scorer_outage_len`]):
/// every scored miss rolls once per position of the window behind it, so
/// the length is a per-score cost and has to be bounded.
const MAX_SCORER_OUTAGE_LEN: u32 = 65_536;

/// Most retries a plan may ask for ([`FaultPlan::device_retry_limit`]):
/// every SSD command may walk the whole ladder, so the limit is a
/// per-miss cost, and the backoff doubles per attempt.
const MAX_DEVICE_RETRY_LIMIT: u32 = 16;

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
    /// Length of a scorer outage, in trace positions (at most 65 536).
    pub scorer_outage_len: u32,
    /// Per-mille probability that an SSD command attempt fails and must be
    /// retried with exponential backoff.
    pub device_fail_per_mille: u16,
    /// Per-mille probability of a tail-latency spike on an SSD command
    /// (the command takes 8 times its nominal latency).
    pub device_spike_per_mille: u16,
    /// Retries before an SSD command is abandoned as timed out (at most 16).
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
    /// stops trusting the engine — every miss then goes unscored
    /// (always admitted, evicted by recency). Zero disarms the monitor;
    /// a single non-finite score is withheld from the policy either way.
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
    /// class armed at soak-friendly rates, the health monitor armed.
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

    /// Whether the plan injects nothing and arms no monitor — the
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

    /// Scorer health monitor (distrust the engine after a bad streak) armed?
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
        if self.scorer_outage_len > MAX_SCORER_OUTAGE_LEN {
            return Err(format!(
                "fault.scorer_outage_len must be <= {MAX_SCORER_OUTAGE_LEN}, got {}",
                self.scorer_outage_len
            ));
        }
        if self.device_retry_limit > MAX_DEVICE_RETRY_LIMIT {
            return Err(format!(
                "fault.device_retry_limit must be <= {MAX_DEVICE_RETRY_LIMIT}, got {}",
                self.device_retry_limit
            ));
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

    /// Service time of SSD command `cmd` — 0 for the fetch or the bypassed
    /// access, 1 for the dirty write-back — of the request at trace
    /// position `pos`, whose nominal latency is `nominal`: a spike roll
    /// scales the attempt latency once, then each failed attempt (each
    /// rolls independently, so retries can succeed) adds its exponential
    /// backoff until one succeeds or the retry limit turns into the
    /// host-side timeout. Counts what it injects in `stats`, the time
    /// beyond `nominal` in [`FaultStats::device_fault_us`]. Every roll is a
    /// pure hash of `(plan seed, pos, cmd)`, so a command's faulted time is
    /// the same at every shard count and on every front-end.
    pub fn device_command_us(
        &self,
        pos: u64,
        cmd: u64,
        nominal: f64,
        stats: &mut FaultStats,
    ) -> f64 {
        let key = 2 * pos + cmd;
        let mut attempt_us = nominal;
        let spike = fault_roll(self.seed, STREAM_DEVICE_SPIKE, key, 0);
        if roll_hits(spike, self.device_spike_per_mille) {
            attempt_us *= DEVICE_SPIKE_MULT;
            stats.device_spikes += 1;
        }
        let mut total = 0.0;
        let mut attempt: u32 = 0;
        loop {
            total += attempt_us;
            let fail = fault_roll(self.seed, STREAM_DEVICE_FAIL, key, u64::from(attempt));
            if !roll_hits(fail, self.device_fail_per_mille) {
                break;
            }
            stats.device_failures += 1;
            if attempt >= self.device_retry_limit {
                stats.device_timeouts += 1;
                total += self.device_timeout_us;
                break;
            }
            total += self.device_backoff_us * f64::powi(2.0, attempt as i32);
            stats.device_retries += 1;
            attempt += 1;
        }
        stats.device_fault_us += total - nominal;
        total
    }
}

/// Fault-injection and degradation counters for one run.
///
/// Carried on `SimReport` (and, through it, `RunReport` and `ServeReport`)
/// and `DataflowReport`. Every shard's own report holds the shard's
/// block; a sharded or served report is their sum in shard order plus the
/// supervisor's panic / recovery counts, so it is as deterministic as a
/// single-threaded one.
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
    /// Modeled request µs the device faults added: over the faulted
    /// misses, inference ∥ SSD (or one after the other, without overlap)
    /// under the faulted SSD time minus under the nominal one. `SimReport::
    /// total_us` is `LatencyModel::total_us` of the stats plus this. It is
    /// its own sum, not a difference of totals: it leaves out the engine
    /// overhead, so it is integer-valued under integer device constants and
    /// adds up to the same value at every shard count.
    pub device_request_us: f64,
    /// Shard workers that panicked.
    pub shard_panics: u64,
    /// Panicked shards successfully re-replayed by the supervisor.
    pub shard_recoveries: u64,
    /// Scorer health-monitor demotions (the engine stops being trusted).
    pub scorer_demotions: u64,
    /// Scorer health-monitor re-promotions (the engine is trusted again).
    pub scorer_repromotions: u64,
    /// Misses decided without a score because the monitor was degraded —
    /// each one admitted and its victim chosen by recency. Non-finite
    /// scores withheld outside a degraded stretch are the injection
    /// counters above.
    pub degraded_scores: u64,
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
        self.device_request_us += other.device_request_us;
        self.shard_panics += other.shard_panics;
        self.shard_recoveries += other.shard_recoveries;
        self.scorer_demotions += other.scorer_demotions;
        self.scorer_repromotions += other.scorer_repromotions;
        self.degraded_scores += other.degraded_scores;
    }

    /// Total faults injected (scorer + device + shard), before degradation.
    pub fn injected(&self) -> u64 {
        self.scorer_nan_injected
            + self.scorer_outage_scores
            + self.device_failures
            + self.device_spikes
            + self.shard_panics
    }

    /// `true` when no fault was injected and nothing degraded — the block an
    /// empty plan must produce.
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// The scorer health monitor: tracks consecutive non-finite scores and
/// decides, with hysteresis, whether the engine is trusted at all (demote
/// after `scorer_demote_after` bad scores, re-promote after
/// `scorer_promote_after` good ones). A disarmed monitor
/// (`scorer_demote_after == 0`) never degrades.
///
/// A plain value owned by the one [`FaultyScore`] of a replay thread
/// (sharded runs build one per shard), so transitions are a pure function
/// of that thread's score stream and the run stays deterministic. It keeps
/// the ladder's three counters ([`ScorerHealth::telemetry`]).
#[derive(Debug)]
pub struct ScorerHealth {
    demote_after: u32,
    promote_after: u32,
    degraded: bool,
    /// Length of the current run of bad scores (healthy) or good ones
    /// (degraded).
    streak: u32,
    demotions: u64,
    repromotions: u64,
    degraded_scores: u64,
}

impl ScorerHealth {
    /// A monitor armed per `plan`.
    pub fn new(plan: &FaultPlan) -> Self {
        ScorerHealth {
            demote_after: plan.scorer_demote_after,
            promote_after: plan.scorer_promote_after,
            degraded: false,
            streak: 0,
            demotions: 0,
            repromotions: 0,
            degraded_scores: 0,
        }
    }

    /// Whether the engine is currently not trusted.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Adds the ladder's counters — transitions, and the scores withheld
    /// while degraded — to `fault`.
    pub fn telemetry(&self, fault: &mut FaultStats) {
        fault.scorer_demotions += self.demotions;
        fault.scorer_repromotions += self.repromotions;
        fault.degraded_scores += self.degraded_scores;
    }

    /// Feeds one score observation (finite or not) into the monitor,
    /// counting demotions, re-promotions and — when the monitor is
    /// degraded once it has seen the score — the score as withheld.
    pub fn observe(&mut self, finite: bool) {
        if self.demote_after == 0 {
            return;
        }
        // Healthy, a bad score extends the streak; degraded, a good one.
        if finite == self.degraded {
            self.streak += 1;
            let limit = if self.degraded {
                self.promote_after
            } else {
                self.demote_after
            };
            if self.streak >= limit {
                self.degraded = !self.degraded;
                self.streak = 0;
                if self.degraded {
                    self.demotions += 1;
                } else {
                    self.repromotions += 1;
                }
            }
        } else {
            self.streak = 0;
        }
        self.degraded_scores += u64::from(self.degraded);
    }
}

/// A [`ScoreSource`] wrapper that injects plan-rolled scorer faults and
/// runs the health monitor over what comes out — which also catches
/// genuine non-finite scores the inner engine produces on its own.
///
/// While the monitor is degraded the wrapper answers every miss with no
/// score (NaN, which the cache hands the policy as
/// [`AccessCtx::score`](crate::AccessCtx::score)` = None`); it still
/// scores underneath, so the re-promotion streak runs.
///
/// Every injection decision is keyed on the scored miss's *global trace
/// position* — identical at every shard count. The armed monitor is not:
/// its streaks run over its own shard's misses, so a monitored run is
/// deterministic for a given shard count but differs between them.
pub struct FaultyScore<S: ScoreSource> {
    inner: S,
    plan: FaultPlan,
    health: ScorerHealth,
    nan_injected: u64,
    outage_scores: u64,
}

impl<S: ScoreSource> FaultyScore<S> {
    /// Wraps `inner`, injecting and monitoring per `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultyScore {
            inner,
            plan,
            health: ScorerHealth::new(&plan),
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
        self.health.observe(v.is_finite());
        if self.health.is_degraded() {
            return f64::NAN;
        }
        v
    }
}

impl<S: ScoreSource> ScoreSource for FaultyScore<S> {
    fn score(&mut self, record: &TraceRecord, pos: u64) -> f64 {
        let raw = self.inner.score(record, pos);
        self.corrupt(pos, raw)
    }

    fn telemetry(&mut self, fault: &mut FaultStats, adapt: &mut AdaptStats) {
        self.inner.telemetry(fault, adapt);
        fault.scorer_nan_injected += self.nan_injected;
        fault.scorer_outage_scores += self.outage_scores;
        self.health.telemetry(fault);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::ConstantScore;

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
                scorer_outage_per_mille: 1,
                scorer_outage_len: u32::MAX,
                ..FaultPlan::default()
            },
            FaultPlan {
                device_fail_per_mille: 1000,
                device_retry_limit: u32::MAX,
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
        // The outage bound names its knob; the bound itself is accepted.
        let long = |len| FaultPlan {
            scorer_outage_len: len,
            ..FaultPlan::chaos(1)
        };
        let err = long(MAX_SCORER_OUTAGE_LEN + 1).validate().unwrap_err();
        assert!(err.contains("fault.scorer_outage_len"), "{err}");
        assert!(long(MAX_SCORER_OUTAGE_LEN).validate().is_ok());
        // So does the retry bound.
        let retries = |limit| FaultPlan {
            device_retry_limit: limit,
            ..FaultPlan::chaos(1)
        };
        let err = retries(MAX_DEVICE_RETRY_LIMIT + 1).validate().unwrap_err();
        assert!(err.contains("fault.device_retry_limit"), "{err}");
        assert!(retries(MAX_DEVICE_RETRY_LIMIT).validate().is_ok());
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
                .map(|i| !s.score(&TraceRecord::read(i << 12), i).is_finite())
                .collect()
        };
        let a = run(FaultyScore::new(ConstantScore(0.5), plan));
        let b = run(FaultyScore::new(ConstantScore(0.5), plan));
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
        // A shard's clone scores only its own positions and must corrupt
        // exactly the scores the whole-stream source corrupts there.
        let record = |pos: u64| TraceRecord::read(pos << 12);
        let mut whole = FaultyScore::new(Box::new(ConstantScore(0.5)), plan);
        let expected: Vec<f64> = (0..64u64)
            .map(|pos| whole.score(&record(pos), pos))
            .collect();
        let mut shard = FaultyScore::new(Box::new(ConstantScore(0.5)), plan);
        for pos in (1..64u64).step_by(3) {
            let (e, o) = (expected[pos as usize], shard.score(&record(pos), pos));
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
        let mut h = ScorerHealth::new(&plan);
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
        assert_eq!(s.degraded_scores, 2, "the demoting score and the next");
    }

    #[test]
    fn a_broken_streak_starts_over_and_a_disarmed_monitor_never_degrades() {
        let plan = FaultPlan {
            scorer_demote_after: 2,
            scorer_promote_after: 2,
            ..FaultPlan::default()
        };
        let mut h = ScorerHealth::new(&plan);
        for finite in [false, true, false, true] {
            h.observe(finite);
            assert!(!h.is_degraded(), "isolated bad scores never make a streak");
        }
        h.observe(false);
        h.observe(false);
        for finite in [true, false, true] {
            h.observe(finite);
            assert!(h.is_degraded(), "isolated good scores never re-promote");
        }
        h.observe(true);
        assert!(!h.is_degraded());

        let mut off = ScorerHealth::new(&FaultPlan::default());
        (0..100).for_each(|_| off.observe(false));
        assert!(!off.is_degraded());
        assert!(ladder(&off).is_clean());
    }

    /// While degraded the wrapper answers "no score" — finite scores
    /// included — but keeps scoring underneath, so the streak of good
    /// scores it withholds is what re-promotes it.
    #[test]
    fn degraded_faulty_score_withholds_finite_scores_until_repromoted() {
        let plan = FaultPlan {
            scorer_demote_after: 2,
            scorer_promote_after: 3,
            ..FaultPlan::default()
        };
        // Positions 0 and 1 score NaN on their own; the engine is fine after.
        let inner = crate::score::FnScore::new(|_, pos| if pos < 2 { f64::NAN } else { 0.5 });
        let mut s = FaultyScore::new(inner, plan);
        let scores: Vec<f64> = (0..8u64)
            .map(|pos| s.score(&TraceRecord::read(pos << 12), pos))
            .collect();
        let withheld: Vec<bool> = scores.iter().map(|v| v.is_nan()).collect();
        // 0, 1: bad (1 demotes). 2, 3: good but withheld. 4: third good
        // score re-promotes and is served.
        assert_eq!(
            withheld,
            [true, true, true, true, false, false, false, false]
        );
        let (mut fault, mut adapt) = (FaultStats::default(), AdaptStats::default());
        s.telemetry(&mut fault, &mut adapt);
        assert_eq!(fault.scorer_demotions, 1);
        assert_eq!(fault.scorer_repromotions, 1);
        assert_eq!(fault.degraded_scores, 3, "positions 1, 2 and 3");
        assert_eq!(fault.injected(), 0, "the plan injected nothing");
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
            device_request_us: 2.0,
            ..FaultStats::default()
        };
        a.merge(&b);
        assert_eq!(a.device_request_us, 2.0);
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
