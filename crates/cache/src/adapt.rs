//! Online-adaptation substrate: plan, telemetry, and the model-agnostic
//! building blocks of the drift-triggered refit loop.
//!
//! The GMM-aware adaptive engine lives in `icgmm-core` (this crate is
//! deliberately model-agnostic); what lives here is everything the cache
//! and serving layers need to carry:
//!
//! * [`AdaptPlan`] — a seeded, `Copy` description of the online loop:
//!   how often to check for drift and how far the likelihood must fall to
//!   count as drift (how fast a refit forgets is [`REFIT_DECAY`], the
//!   same for every plan). An empty plan (the default) checks nothing and
//!   buffers nothing; callers skip all wrapping in that case, so
//!   adaptation-off runs take exactly the static code paths and stay
//!   bit-identical to them — the same by-construction discipline as
//!   [`crate::FaultPlan`].
//! * [`AdaptStats`] — the observability block carried on
//!   [`crate::SimReport`] (and, through it, `RunReport` and
//!   `ServeReport`): checks / drifts / refits / swaps counters plus
//!   the scorer generation and the global position of the last swap. A
//!   shard's adaptive engine keeps its own block as a plain field and
//!   hands it over through [`crate::ScoreSource::telemetry`] once the
//!   shard has replayed. Every shard's engine learns from the whole
//!   slice, so the shards' blocks are one, and a sharded report carries
//!   it once.
//! * [`Reservoir`] — a seeded Algorithm-R reservoir over observed
//!   `(page, position)` samples: the refit training buffer. Replacement
//!   decisions reuse the stateless fault-roll hash, so the buffer
//!   contents are a pure function of `(seed, observation sequence)`.
//! * [`RecentRing`] — a ring of the 256 most recent samples: the
//!   drift-evaluation window.
//! * [`DriftDetector`] — a trailing EWMA baseline over the windowed mean
//!   log-likelihood, firing when the current window drops more than
//!   `drift_drop` nats below the baseline; the check after a firing
//!   re-seeds the baseline against the new model.

use serde::{Deserialize, Serialize};

use crate::fault::fault_roll;

/// Decision stream for reservoir replacement rolls (disjoint from the
/// fault streams by construction — those use 1..=6).
const STREAM_RESERVOIR: u64 = 16;

/// Capacity of the refit reservoir buffer, in samples.
pub const RESERVOIR_CAPACITY: usize = 2_048;

/// Per-refit forgetting factor for the incremental trainer's sufficient
/// statistics: a stale generation is forgotten in two refits (tuned with
/// [`AdaptPlan::drifty`]).
pub const REFIT_DECAY: f64 = 0.3;

/// EWMA factor of the drift detector's trailing baseline (the weight of
/// the newest check).
const BASELINE_ALPHA: f64 = 0.2;

/// Recent observations evaluated per drift check (the likelihood window).
const RECENT_WINDOW: usize = 256;

/// A seeded, config-driven online-adaptation plan.
///
/// The default plan is *empty*: `check_interval == 0` disables the whole
/// loop. Callers must check [`AdaptPlan::is_empty`] and skip all wrapping
/// for empty plans — that is what makes the adaptation-off bit-identity
/// property hold by construction rather than by luck.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdaptPlan {
    /// Seed for reservoir sampling (independent of the trace seed; the
    /// pair `(trace seed, adapt seed)` fully determines an adaptive run).
    pub seed: u64,
    /// Global trace positions between drift checks; `0` disables
    /// adaptation entirely.
    pub check_interval: u64,
    /// Drift threshold in nats: a check fires a refit when the windowed
    /// mean log-likelihood falls more than this below the trailing
    /// baseline. `f64::INFINITY` holds the trigger off (buffers fill,
    /// checks run, refits never fire — the held-off equivalence property).
    pub drift_drop: f64,
    /// Benchmark façade — read by `icgmm_bench`'s incremental-refit probe
    /// and deleted by the benchmark PR that retires it. Both constructors
    /// set it to [`REFIT_DECAY`]; the adaptation loop ignores it and
    /// refits with the constant.
    #[doc(hidden)]
    pub decay: f64,
}

impl Default for AdaptPlan {
    fn default() -> Self {
        AdaptPlan {
            seed: 0,
            check_interval: 0,
            drift_drop: 0.5,
            decay: REFIT_DECAY,
        }
    }
}

impl AdaptPlan {
    /// An empty plan: no checks, no buffering, no refits.
    pub fn empty() -> Self {
        AdaptPlan::default()
    }

    /// A drift-chasing preset used by the equivalence suites and the
    /// static-vs-adaptive experiment: frequent checks, a sensitive
    /// threshold and a short memory. Tuned on the footprint-migration
    /// scenario (`tests/adapt_miss_rates.rs`): checks every 1k positions react within
    /// one reservoir turnover of a phase change, and [`REFIT_DECAY`]
    /// forgets a stale generation in two refits; halving the interval
    /// again starts refitting on drift-free workloads (over-triggering),
    /// and 4× the interval reacts too slowly to matter.
    pub fn drifty(seed: u64) -> Self {
        AdaptPlan {
            seed,
            check_interval: 1_024,
            drift_drop: 0.5,
            decay: REFIT_DECAY,
        }
    }

    /// Whether the plan disables adaptation — the configuration whose
    /// runs must be bit-identical to a static-scorer replay.
    pub fn is_empty(&self) -> bool {
        self.check_interval == 0
    }

    /// Validates the plan, returning the first problem found. An empty
    /// plan is always valid; the remaining knobs are only checked when
    /// the loop is armed.
    pub fn validate(&self) -> Result<(), String> {
        if self.is_empty() {
            return Ok(());
        }
        if self.drift_drop.is_nan() || self.drift_drop <= 0.0 {
            return Err(format!(
                "adapt.drift_drop must be > 0 (+inf holds the trigger off), got {}",
                self.drift_drop
            ));
        }
        Ok(())
    }
}

/// Online-adaptation counters for one run.
///
/// Carried on [`crate::SimReport`]. The refit loop walks the whole
/// replayed slice on every shard, so every shard reports the same block
/// and a sharded report carries it once ([`crate::ShardSupervisor::merge`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AdaptStats {
    /// Drift checks performed.
    pub checks: u64,
    /// Checks whose detector fired (drift declared).
    pub drifts: u64,
    /// Incremental refits completed successfully.
    pub refits: u64,
    /// Refit attempts that failed (degenerate buffer, singular model) —
    /// the previous scorer generation stays live.
    pub refit_failures: u64,
    /// Scorer generations published (atomic table swaps).
    pub swaps: u64,
    /// Observations evaluated by drift checks (likelihood-window scores;
    /// these never touch the policy engine's inference counters).
    pub evals: u64,
    /// Highest scorer generation live at the end of the run (0 = the
    /// offline-trained model, never swapped).
    pub generation: u64,
    /// Global trace position of the last swap (0 when none happened).
    pub last_swap_pos: u64,
}

impl AdaptStats {
    /// `true` when no check ran and no refit fired — the block an empty
    /// plan must produce.
    pub fn is_clean(&self) -> bool {
        *self == AdaptStats::default()
    }
}

/// One buffered observation: the page accessed and its global trace
/// position (the Algorithm 1 clock value is reconstructed from the
/// position at refit time, so the buffer stays 16 bytes per sample).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsSample {
    /// Raw page index of the access.
    pub page: u64,
    /// Global trace position (warm-up ⧺ measured) of the access.
    pub pos: u64,
}

/// Seeded Algorithm-R reservoir over [`ObsSample`]s: every observation
/// seen so far has equal probability of being in the buffer, and the
/// buffer contents are a pure function of `(seed, observation sequence)`
/// — no RNG state, each replacement decision is one stateless hash of
/// the observation's ordinal.
#[derive(Clone, Debug)]
pub struct Reservoir {
    seed: u64,
    cap: usize,
    seen: u64,
    buf: Vec<ObsSample>,
}

impl Reservoir {
    /// An empty reservoir holding at most `cap` samples.
    pub fn new(seed: u64, cap: usize) -> Self {
        Reservoir {
            seed,
            cap,
            seen: 0,
            buf: Vec::with_capacity(cap.min(4_096)),
        }
    }

    /// Offers one observation; the classic Algorithm-R accept/replace
    /// decision keeps the buffer a uniform sample of everything offered.
    pub fn offer(&mut self, s: ObsSample) {
        let i = self.seen;
        self.seen += 1;
        if self.buf.len() < self.cap {
            self.buf.push(s);
            return;
        }
        let j = fault_roll(self.seed, STREAM_RESERVOIR, i, 0) % (i + 1);
        if (j as usize) < self.cap {
            self.buf[j as usize] = s;
        }
    }

    /// Empties the buffer and rebases the sampling stream on `seed`.
    ///
    /// Called after a scorer swap: within one generation the reservoir is
    /// a uniform sample, and restarting it at each swap makes successive
    /// refits train on post-swap observations only — recency *across*
    /// generations, uniformity *within* one. Re-seeding (rather than
    /// reusing the old seed with `seen` reset) keeps replacement rolls
    /// independent between generations.
    pub fn restart(&mut self, seed: u64) {
        self.seed = seed;
        self.seen = 0;
        self.buf.clear();
    }

    /// The buffered samples (insertion/replacement order, deterministic).
    pub fn samples(&self) -> &[ObsSample] {
        &self.buf
    }

    /// Observations offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Buffered sample count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been buffered yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Fixed-capacity ring of the most recent [`ObsSample`]s — the drift
/// check's likelihood window, the last 256 samples.
#[derive(Clone, Debug)]
pub struct RecentRing {
    cap: usize,
    next: usize,
    buf: Vec<ObsSample>,
}

impl Default for RecentRing {
    fn default() -> Self {
        RecentRing::with_capacity(RECENT_WINDOW)
    }
}

impl RecentRing {
    /// An empty ring holding the last `cap` samples.
    fn with_capacity(cap: usize) -> Self {
        RecentRing {
            cap,
            next: 0,
            buf: Vec::with_capacity(cap),
        }
    }

    /// Pushes one sample, overwriting the oldest once full.
    pub fn push(&mut self, s: ObsSample) {
        if self.buf.len() < self.cap {
            self.buf.push(s);
        } else {
            self.buf[self.next] = s;
        }
        self.next += 1;
        if self.next >= self.cap {
            self.next = 0;
        }
    }

    /// The buffered samples in storage order (deterministic; evaluation
    /// order does not matter to the mean and is identical run to run).
    pub fn samples(&self) -> &[ObsSample] {
        &self.buf
    }

    /// Buffered sample count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been buffered yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Windowed-likelihood drift detector with a trailing EWMA baseline.
///
/// The first check seeds the baseline; later checks fire when the
/// windowed mean log-likelihood drops more than `drift_drop` nats below
/// it. A firing resets the baseline, so the next check — the first one
/// scored by the refitted model — re-seeds it and cannot fire.
#[derive(Clone, Debug)]
pub struct DriftDetector {
    drift_drop: f64,
    baseline: Option<f64>,
}

impl DriftDetector {
    /// A detector configured from `plan`.
    pub fn new(plan: &AdaptPlan) -> Self {
        DriftDetector {
            drift_drop: plan.drift_drop,
            baseline: None,
        }
    }

    /// Feeds one check's windowed mean log-likelihood; `true` means drift
    /// (the caller should refit). With `drift_drop == f64::INFINITY` this
    /// never returns `true` — the comparison `inf > inf` used for a
    /// `-inf` likelihood against a finite baseline is false too.
    pub fn observe(&mut self, mll: f64) -> bool {
        let Some(b) = self.baseline else {
            self.baseline = Some(mll);
            return false;
        };
        if b - mll > self.drift_drop {
            self.baseline = None;
            return true;
        }
        self.baseline = Some(b + BASELINE_ALPHA * (mll - b));
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty_and_valid() {
        let p = AdaptPlan::default();
        assert!(p.is_empty());
        assert!(p.validate().is_ok());
        assert_eq!(p, AdaptPlan::empty());
    }

    #[test]
    fn drifty_plan_is_armed_and_valid() {
        let p = AdaptPlan::drifty(9);
        assert!(!p.is_empty());
        assert!(p.validate().is_ok());
        assert_eq!(p.seed, 9);
    }

    #[test]
    fn validate_rejects_each_bad_knob_only_when_armed() {
        let armed = AdaptPlan::drifty(0);
        let bad = [
            AdaptPlan {
                drift_drop: 0.0,
                ..armed
            },
            AdaptPlan {
                drift_drop: f64::NAN,
                ..armed
            },
        ];
        for p in bad {
            assert!(p.validate().is_err(), "{p:?} should be invalid");
            // The same knobs are ignored while the plan is disabled.
            let off = AdaptPlan {
                check_interval: 0,
                ..p
            };
            assert!(off.validate().is_ok(), "{off:?} disabled should be valid");
        }
        // +inf drift_drop is the documented hold-off configuration.
        assert!(AdaptPlan {
            drift_drop: f64::INFINITY,
            ..armed
        }
        .validate()
        .is_ok());
    }

    fn obs(i: u64) -> ObsSample {
        ObsSample {
            page: i * 7,
            pos: i,
        }
    }

    #[test]
    fn reservoir_is_deterministic_and_bounded() {
        let run = |seed: u64| {
            let mut r = Reservoir::new(seed, 16);
            for i in 0..1_000 {
                r.offer(obs(i));
            }
            assert_eq!(r.len(), 16);
            assert_eq!(r.seen(), 1_000);
            r.samples().to_vec()
        };
        assert_eq!(run(5), run(5), "same seed, same buffer");
        assert_ne!(run(5), run(6), "different seed, different buffer");
        // Below capacity the buffer holds everything offered, in order.
        let mut small = Reservoir::new(0, 64);
        for i in 0..10 {
            small.offer(obs(i));
        }
        assert_eq!(small.len(), 10);
        assert!(!small.is_empty());
        assert_eq!(small.samples()[3], obs(3));
    }

    #[test]
    fn reservoir_restart_forgets_and_rebases_the_stream() {
        let mut r = Reservoir::new(5, 16);
        for i in 0..1_000 {
            r.offer(obs(i));
        }
        r.restart(6);
        assert!(r.is_empty());
        assert_eq!(r.seen(), 0);
        for i in 1_000..2_000 {
            r.offer(obs(i));
        }
        // Post-restart contents match a fresh reservoir fed the same
        // stream — the old generation leaves no trace.
        let mut fresh = Reservoir::new(6, 16);
        for i in 1_000..2_000 {
            fresh.offer(obs(i));
        }
        assert_eq!(r.samples(), fresh.samples());
        assert!(r.samples().iter().all(|s| s.pos >= 1_000));
    }

    #[test]
    fn reservoir_replacement_keeps_late_samples_reachable() {
        // Uniformity smoke test: offer 10k samples into a 64-slot buffer;
        // a healthy reservoir must retain samples from the late half of
        // the stream (a broken one that stops replacing would not).
        let mut r = Reservoir::new(42, 64);
        for i in 0..10_000 {
            r.offer(obs(i));
        }
        assert!(r.samples().iter().any(|s| s.pos >= 5_000));
        assert!(r.samples().iter().any(|s| s.pos < 5_000) || r.len() < 64);
    }

    #[test]
    fn recent_ring_overwrites_oldest() {
        let mut ring = RecentRing::with_capacity(4);
        assert!(ring.is_empty());
        for i in 0..6 {
            ring.push(obs(i));
        }
        assert_eq!(ring.len(), 4);
        let positions: Vec<u64> = ring.samples().iter().map(|s| s.pos).collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 3, 4, 5], "keeps exactly the last 4");
    }

    #[test]
    fn detector_fires_on_drop_and_reseeds_after_firing() {
        let plan = AdaptPlan {
            drift_drop: 1.0,
            ..AdaptPlan::drifty(0)
        };
        let mut d = DriftDetector::new(&plan);
        assert!(!d.observe(-2.0), "first check seeds the baseline");
        assert!(!d.observe(-2.5), "within threshold: tracks");
        assert!(d.observe(-5.0), "drop > 1 nat below baseline fires");
        // The next check re-seeds the baseline, however far it fell.
        assert!(!d.observe(-9.0));
        // Baseline has re-seeded at -9; a similar value does not fire...
        assert!(!d.observe(-9.2));
        // ...but a fresh collapse does.
        assert!(d.observe(-30.0));
    }

    #[test]
    fn infinite_drop_never_fires() {
        let plan = AdaptPlan {
            drift_drop: f64::INFINITY,
            ..AdaptPlan::drifty(0)
        };
        let mut d = DriftDetector::new(&plan);
        assert!(!d.observe(0.0));
        for mll in [-1e6, f64::NEG_INFINITY, -1e300] {
            assert!(!d.observe(mll), "held-off detector fired on {mll}");
        }
    }
}
