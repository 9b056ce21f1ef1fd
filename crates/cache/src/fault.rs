//! Deterministic fault injection and graceful degradation.
//!
//! The paper's ICGMM sits between a learned model and real flash devices,
//! neither of which is perfect in deployment: scoring engines emit
//! non-finite values or stall, SSD commands fail and exhibit heavy tail
//! latencies, and replay workers can die. This module provides the
//! substrate the whole workspace uses to rehearse those failures
//! *deterministically*:
//!
//! * [`FaultPlan`] — a seeded, `Copy` description of which faults to arm
//!   (scorer, device, shard). An empty plan injects nothing; callers skip
//!   all wrapping in that case, so empty-plan runs take exactly the
//!   fault-free code paths and stay bit-identical to them
//!   (property-enforced by `tests/fault_empty_plan.rs`).
//! * [`FaultStats`] — the observability block carried on `SimReport`
//!   (and, through it, `RunReport` and `ServeReport`) and
//!   `DataflowReport`: injected / retried / recovered counters
//!   plus modeled time lost to faults.
//! * [`FaultyScore`] — a [`ScoreSource`] wrapper that corrupts the scores
//!   of misses at plan-rolled positions (NaN/±Inf flips, outage windows).
//!   Each miss is scored with its own position, so the wrapper keeps no
//!   clock and sees no hit.
//!
//! # Degradation is "no score"
//!
//! A score that cannot be trusted is not a score, and a miss without a
//! score is something every policy already decides
//! ([`AccessCtx::score`](crate::AccessCtx::score) is `None`): threshold
//! admission admits it, gmm-score eviction picks its victim by recency and
//! leaves the block it inserts unscored. A non-finite score never reaches
//! a policy ([`crate::SetAssocCache::access_scored`] hands it on as
//! `None`), whether a plan injected it or the engine produced it, so that
//! request is decided the way LRU would. The next miss with a trusted
//! score that must evict from the block's set re-scores it first, at that
//! miss's position ([`crate::GmmScorePolicy`]). A scorer fault is rolled
//! by position, so the re-score rolls as that trusted miss did: an outage
//! or a flip costs the requests it hits and no more. So degradation is a
//! value, not a second policy stack, and no state of it crosses a
//! request: a scorer-faulted report is the same at every shard count.
//!
//! Counters are plain fields of whoever increments them: the injector
//! counts its injections, the shard supervisor its panics and recoveries, and
//! the replay loop's accounting step the device faults of every measured
//! miss ([`FaultPlan::device_command_as`]) — for whichever front-end fed
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

use icgmm_trace::PageIndex;
use serde::{Deserialize, Serialize};

use crate::adapt::AdaptStats;
use crate::latency::{attos, check_us};
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

/// A seeded, config-driven fault-injection plan.
///
/// The default plan is *empty*: every injection rate is zero. Callers
/// must check [`FaultPlan::is_empty`] and skip all wrapping for empty
/// plans — that is what makes the empty-plan bit-identity property hold
/// by construction rather than by luck.
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
        }
    }
}

impl FaultPlan {
    /// An empty plan: nothing injected, nothing armed.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// A mixed-fault chaos preset used by the soak suites: every fault
    /// class armed at soak-friendly rates.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            scorer_nan_per_mille: 30,
            scorer_outage_per_mille: 5,
            scorer_outage_len: 64,
            device_fail_per_mille: 20,
            device_spike_per_mille: 50,
            shard_panic_per_mille: 500,
            ..FaultPlan::default()
        }
    }

    /// Whether the plan injects nothing — the "today's engines,
    /// untouched" configuration.
    pub fn is_empty(&self) -> bool {
        !self.scorer_armed() && !self.device_armed() && !self.shard_armed()
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
        check_us("fault.device_backoff_us", self.device_backoff_us)?;
        check_us("fault.device_timeout_us", self.device_timeout_us)?;
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
    /// position `pos`, whose nominal latency is `nominal_us`, in whole
    /// attoseconds: a spike roll scales the attempt latency once, then each
    /// failed attempt (each rolls independently, so retries can succeed)
    /// adds its exponential backoff until one succeeds or the retry limit
    /// turns into the host-side timeout, and the sum is rounded once.
    /// Counts what it injects in `stats`, the time beyond `nominal_us` in
    /// [`FaultStats::device_fault_as`]. Every roll is a pure hash of `(plan
    /// seed, pos, cmd)`, so a command's faulted time is the same at every
    /// shard count and on every front-end. Under validated constants (each
    /// below 2^64 as) it is below 2^81 as: 17 attempts spiked 8×, a backoff
    /// factor of at most 2^16 − 1, the timeout.
    pub fn device_command_as(
        &self,
        pos: u64,
        cmd: u64,
        nominal_us: f64,
        stats: &mut FaultStats,
    ) -> u128 {
        let key = 2 * pos + cmd;
        let mut attempt_us = nominal_us;
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
        let total = attos(total);
        add_as(&mut stats.device_fault_as, total - attos(nominal_us));
        total
    }
}

/// Adds `t` attoseconds to one of a run's device-time sums: checked, so
/// past 2^47 worst-case commands (2^81 as each, see
/// [`FaultPlan::device_command_as`]) it stops the replay rather than wrap.
pub(crate) fn add_as(sum: &mut u128, t: u128) {
    *sum = sum.checked_add(t).expect("device time past 2^128 as");
}

/// Fault-injection and recovery counters for one run.
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
    /// Modeled time charged beyond nominal device latency (spikes,
    /// retries, backoff, timeouts): each command's faulted time rounded
    /// once to whole attoseconds, minus its nominal time rounded the same
    /// way. An integer sum, so the same in any order and at every shard
    /// count; [`crate::micros`] reads it in µs. Not picoseconds: they put a
    /// miss whose faulted SSD time crosses the inference time up to 1 ps
    /// off the dataflow timeline (7 × 10⁻¹¹ relative at K = 20 000), so
    /// every constant stays below 2^64 as (18.4 s) instead. `u128`: see
    /// [`FaultPlan::device_command_as`].
    pub device_fault_as: u128,
    /// Modeled request time the device faults added, in attoseconds: over
    /// the faulted misses, inference ∥ SSD (or one after the other, without
    /// overlap) under the faulted SSD time minus under the nominal one.
    /// `SimReport::total_us` is `LatencyModel::total_us` of the stats plus
    /// this in µs. Its own integer sum, not a difference of totals.
    pub device_request_as: u128,
    /// Shard workers that panicked.
    pub shard_panics: u64,
    /// Panicked shards successfully re-replayed by the supervisor.
    pub shard_recoveries: u64,
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
        add_as(&mut self.device_fault_as, other.device_fault_as);
        add_as(&mut self.device_request_as, other.device_request_as);
        self.shard_panics += other.shard_panics;
        self.shard_recoveries += other.shard_recoveries;
    }

    /// Total faults injected (scorer + device + shard).
    pub fn injected(&self) -> u64 {
        self.scorer_nan_injected
            + self.scorer_outage_scores
            + self.device_failures
            + self.device_spikes
            + self.shard_panics
    }

    /// `true` when no fault was injected and nothing recovered — the block
    /// an empty plan must produce.
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// A [`ScoreSource`] wrapper that injects plan-rolled scorer faults: an
/// injected score is non-finite, which the cache hands the policy as
/// [`AccessCtx::score`](crate::AccessCtx::score)` = None`, as it does a
/// genuine non-finite score of the inner engine.
///
/// Every injection decision is keyed on the scored *global trace
/// position* — identical at every shard count, and for every page scored
/// there: a miss's blocks re-scored at its position roll as it did.
pub struct FaultyScore<S: ScoreSource> {
    inner: S,
    plan: FaultPlan,
    nan_injected: u64,
    outage_scores: u64,
}

impl<S: ScoreSource> FaultyScore<S> {
    /// Wraps `inner`, injecting per `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultyScore {
            inner,
            plan,
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
        v
    }
}

impl<S: ScoreSource> ScoreSource for FaultyScore<S> {
    fn score(&mut self, page: PageIndex, pos: u64) -> f64 {
        let raw = self.inner.score(page, pos);
        self.corrupt(pos, raw)
    }

    fn telemetry(&mut self, fault: &mut FaultStats, adapt: &mut AdaptStats) {
        self.inner.telemetry(fault, adapt);
        fault.scorer_nan_injected += self.nan_injected;
        fault.scorer_outage_scores += self.outage_scores;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::micros;
    use crate::score::ConstantScore;

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
        ];
        for p in bad {
            assert!(p.validate().is_err(), "{p:?} should be invalid");
        }
        // Device times are summed in attoseconds: each constant must fit
        // `u64` of them, up to and including the largest such value.
        let max = crate::latency::tests::largest_admitted_us();
        let timed = |backoff, timeout| FaultPlan {
            device_backoff_us: backoff,
            device_timeout_us: timeout,
            ..FaultPlan::chaos(1)
        };
        for huge in [1e300, f64::MAX, max.next_up()] {
            let err = timed(huge, 0.0).validate().unwrap_err();
            assert!(err.contains("fault.device_backoff_us"), "{err}");
            let err = timed(0.0, huge).validate().unwrap_err();
            assert!(err.contains("fault.device_timeout_us"), "{err}");
        }
        assert!(timed(max, max).validate().is_ok());
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

    /// The worst command a validated plan can charge — every attempt
    /// spiked and failed, the longest ladder, every constant at its
    /// largest — stays below the 2^81 as the sums are sized for.
    #[test]
    fn the_worst_validated_command_is_below_2_pow_81_as() {
        let max = crate::latency::tests::largest_admitted_us();
        let plan = FaultPlan {
            device_fail_per_mille: 1000,
            device_spike_per_mille: 1000,
            device_retry_limit: MAX_DEVICE_RETRY_LIMIT,
            device_backoff_us: max,
            device_timeout_us: max,
            ..FaultPlan::default()
        };
        assert!(plan.validate().is_ok());
        let mut stats = FaultStats::default();
        let t = plan.device_command_as(0, 0, max, &mut stats);
        assert!(t < 1 << 81, "{t}");
        assert!(t > 1 << 80, "{t}: the ladder is as long as the bound says");
        assert_eq!(stats.device_timeouts, 1);
        assert_eq!(stats.device_fault_as, t - attos(max));
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
                .map(|i| !s.score(PageIndex::new(i), i).is_finite())
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
        let mut whole = FaultyScore::new(Box::new(ConstantScore(0.5)), plan);
        let expected: Vec<f64> = (0..64u64)
            .map(|pos| whole.score(PageIndex::new(pos), pos))
            .collect();
        let mut shard = FaultyScore::new(Box::new(ConstantScore(0.5)), plan);
        for pos in (1..64u64).step_by(3) {
            let (e, o) = (
                expected[pos as usize],
                shard.score(PageIndex::new(pos), pos),
            );
            assert!(e == o || (e.is_nan() && o.is_nan()), "{e} vs {o}");
        }
        assert!(expected.iter().any(|e| !e.is_finite()));
    }

    #[test]
    fn fault_stats_merge_adds_everything() {
        let mut a = FaultStats {
            scorer_nan_injected: 1,
            device_retries: 2,
            shard_panics: 3,
            device_fault_as: attos(1.5),
            ..FaultStats::default()
        };
        let b = FaultStats {
            scorer_nan_injected: 10,
            device_retries: 20,
            shard_recoveries: 30,
            device_fault_as: attos(2.5),
            device_request_as: attos(2.0),
            ..FaultStats::default()
        };
        a.merge(&b);
        assert_eq!(micros(a.device_request_as), 2.0);
        assert_eq!(a.scorer_nan_injected, 11);
        assert_eq!(a.device_retries, 22);
        assert_eq!(a.shard_panics, 3);
        assert_eq!(a.shard_recoveries, 30);
        assert_eq!(
            (a.device_fault_as, micros(a.device_fault_as)),
            (attos(4.0), 4.0)
        );
        assert!(!a.is_clean());
        assert!(FaultStats::default().is_clean());
        assert!(a.injected() >= 11);
    }
}
