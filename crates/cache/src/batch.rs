//! Speculative miss-window batching: the simulator-side consumer of
//! [`ScoreSource::score_window`].
//!
//! The streaming simulator scores every miss one at a time because the
//! admission decision needs the score synchronously. When this module was
//! written the batched scoring kernel was 4–5× cheaper per point than the
//! single-point path, and *speculation* was how a replay got at that
//! kernel. **That gap is gone**: the single-point GMM kernel now
//! vectorises across components and costs ≈ 1.4× the batched one per
//! score (0.55 vs 0.40 µs at K = 256), while speculation spends
//! ≈ 240 ns per *request* on the shadow and scores up to 2.7× more
//! positions than misses consume — so no production score source
//! [`ScoreSource::prefers_batching`] any more, and
//! [`WindowedSimulator`] hands a source that does not straight to the
//! streaming loop. What follows describes the speculative path as it runs
//! for a source that *does* prefer batching (today: only sources wrapped
//! in [`crate::PreferBatching`] — the differential suites, the `ablation`
//! bin and the archived `*_batched` benchmark cases); the module is kept
//! until the repository benchmark's `cache.batch.*` probes are retired.
//!
//! Speculation works like this:
//!
//! 1. **Classify.** Requests are classified into predicted hits and
//!    predicted misses against a *shadow* of the cache tag state
//!    (snapshotted when speculation starts, then kept in lock-step
//!    incrementally: clean windows speculate exactly, divergent ones are
//!    repaired through an undo log in `O(window)` — never an `O(cache)`
//!    copy per window), advanced speculatively with an admit-all,
//!    invalid-way-first victim model. The victim model is *policy-aware*:
//!    the eviction policy names how it ranks victims through
//!    [`EvictionPolicy::shadow_victim_model`], and the shadow carries the
//!    per-slot metadata each model needs — recency for LRU, insertion
//!    order for FIFO, hit counts for LFU, and stored scores (with the LRU
//!    tie-break) for the paper's GMM score-table eviction.
//! 2. **Prefetch.** Each maximal run of predicted misses is pushed through
//!    [`ScoreSource::score_window`] in one batched call; predicted hits in
//!    between are observed individually (the Algorithm 1 clock counts every
//!    request, hits included, so observation order must match the trace
//!    exactly — this is why a window with interleaved hits batches per
//!    miss-run rather than in a single call). Stored-score victim
//!    prediction closes a loop here: a victim choice may depend on the
//!    score of a block inserted *earlier in the same run*, whose score is
//!    exactly what the pending prefetch will produce. Classification then
//!    **splits the run** at that record ([`SpecStats::run_splits`]), lets
//!    the prefetch land (filling the speculated inserts' shadow scores with
//!    the very values the real policy will store), and resumes with the
//!    dependency resolved — so even back-to-back conflict misses under
//!    `gmm-score` eviction speculate exactly, at a batch granularity of
//!    roughly one set-conflict round trip.
//!
//!    When the previous window's replay was miss-heavy (≥ 1-in-
//!    [`DENSE_MISS_FRACTION_DIV`] records missed), the next window is
//!    scored **densely** instead: one batched call covers the *whole*
//!    window upfront, predicted hits included — exactly how the hardware
//!    pipeline streams a full window through the scoring engine. A hit's
//!    score the streaming path would never compute costs one batched
//!    point, so the trade wins whenever the miss fraction clears the
//!    batched/single-point kernel cost ratio (≈ 0.22 when the threshold
//!    was derived; ≈ 0.7 for the GMM engine now, which is why that engine
//!    no longer speculates at all); it also hands classification
//!    every score before it starts (no pending scores, no run splits) and
//!    turns stale-predicted-hit fallbacks into free positional lookups.
//!    Scores are pure functions of observation position, so the extra
//!    points change nothing downstream; a cut in a dense window leaves an
//!    already-observed scored overhang that the following windows consume
//!    (they stay dense until it drains — those records must not be
//!    re-observed).
//! 3. **Replay.** Classification and replay are interleaved per run: as
//!    soon as a run's type flips (or a split forces it), the pending run is
//!    replayed through the *real* cache and policies, consuming prefetched
//!    scores at actual misses. Scores depend only on observation position,
//!    never on the hit/miss outcome, so every prefetched score is
//!    bit-identical to what the streaming path would have computed at the
//!    same position — and the replay's ground truth (every inserted
//!    block's score, insertion time, hit count) feeds the shadow metadata
//!    that classifies the *next* run.
//! 4. **Diverge & recover.** Every mismatch between a replayed outcome
//!    and the speculation is detected and counted — none is silent:
//!    * an **admission bypass** where an insert was speculated is
//!      *tolerated*: the window continues at full depth (this is the
//!      common divergence under the paper's threshold filter, and the one
//!      worth keeping cheap), leaving the speculated page in the shadow
//!      as a **phantom**. A phantom's stored-score metadata is dropped to
//!      *unknown* (the slot really holds an older block whose score the
//!      shadow can no longer vouch for), so score-ranked victim prediction
//!      stays conservative around it. Every decision the phantom could
//!      skew is still verified record-by-record at replay, and the first
//!      cut it causes heals it (`apply_real` writes ground truth back);
//!    * every other mismatch — a predicted hit that missed, a predicted
//!      miss that hit, an unpredicted eviction victim — **cuts** the
//!      window: the undo log rolls the shadow (tags *and* per-slot policy
//!      metadata) back along its own timeline to the divergent record, the
//!      real outcomes replayed since are re-applied, and speculation
//!      restarts from the divergent point. A predicted hit that actually
//!      misses falls back to a synchronous
//!      [`ScoreSource::score_current`] (its observation just happened, so
//!      the clock is exactly right — bit-identical to streaming).
//!
//! # Why this stays exact
//!
//! Replay never trusts a prediction: every record's hit/miss status comes
//! from the *real* cache lookup, every admission/eviction decision runs
//! through the *real* policies, and every score consumed is positionally
//! exact (scores depend only on observation order, which speculation
//! never changes). Predictions only decide what gets *prefetched* — a
//! stale predicted hit that misses takes the synchronous fallback (one
//! [`SpecStats::sync_scores`] per [`SpecStats::pred_hit_missed`], always
//! equal), a stale predicted miss that hits wastes one prefetched score.
//! The shadow is thus a performance artifact, not a correctness one:
//! phantoms degrade prediction quality, never results.
//!
//! # The policy-aware shadow and what still diverges
//!
//! Earlier revisions predicted victims with a hardcoded LRU model, so
//! `gmm-score` eviction — whose victims are ranked by stored score —
//! diverged on essentially every conflict miss, the adaptive depth
//! collapsed to its floor, and the paper's GmmEvictionOnly /
//! GmmCachingEviction modes lost batching exactly on the miss-heavy traces
//! where it matters. The policy-aware shadow removes that storm: the
//! replay already learns every inserted block's score, so victims among
//! previously-replayed blocks are fully predictable, and within-window
//! insertions are covered by run splitting (step 2). What remains
//! divergence-prone is attributed per cause in [`SpecStats`]:
//! admission bypasses (tolerated, [`SpecStats::admission_divergences`]),
//! hit/miss misclassification downstream of phantoms
//! ([`SpecStats::class_divergences`]), and victim mismatches
//! ([`SpecStats::victim_divergences`]) — now only from genuinely
//! unpredictable policies (Random, Belady keep the default recency model
//! and simply cut) or from sets whose metadata a phantom or a warm,
//! never-observed block has poisoned.
//!
//! # Adaptive depth and the mode probe
//!
//! A cut discards the rest of the pending run's classification, so
//! divergence-heavy phases (bypass storms under a tight admission filter,
//! Random/Belady victims) would waste lookahead on every cut. The
//! simulator therefore halves its effective window after a divergent
//! window and doubles it after a clean one (clamped to
//! [`SpecParams::min_window`, `SpecParams::window`]), so divergence-heavy
//! phases degrade gracefully toward streaming while predictable phases
//! ride the full configured depth.
//!
//! Batching also cannot pay for itself when there is almost nothing to
//! batch: a window whose replay misses fewer than 1-in-
//! [`SpecParams::stream_miss_fraction_div`] records flips the simulator
//! into plain streaming for [`STREAM_SPAN_WINDOWS`] windows' worth of
//! requests, after which it re-snapshots the shadow and probes speculation
//! again. Hit-dominated phases thus run at streaming speed (no lookahead
//! at all), miss-heavy phases ride the batched kernel, and the probe cost
//! is one classification pass per span. Streaming spans still feed the
//! per-slot policy metadata (each outcome and consumed score is applied as
//! ground truth), so speculation resumes with a warm victim model.
//!
//! The result is bit-identical to [`crate::simulate_streaming_with_warmup`]
//! — enforced by the property tests in `tests/batch_equivalence.rs` across
//! all policy pairs, which additionally pin *zero* victim divergence for
//! the predictable policies (LRU, FIFO, LFU, gmm-score) on bypass-free
//! traces — while miss-heavy windows ride the batched kernel.

use crate::cache::{AccessOutcome, BlockState, SetAssocCache};
use crate::fault::FaultStats;
use crate::latency::LatencyModel;
use crate::policy::{AdmissionPolicy, EvictionPolicy, ShadowVictimModel};
use crate::score::ScoreSource;
use crate::sim::{
    simulate_streaming_impl, streaming_step, Accounting, ReplayObserver, ScoreOrigin, SimReport,
};
use crate::view::RecordsRef;
use icgmm_trace::{PageIndex, TraceRecord};
use serde::{Deserialize, Serialize};

/// Default speculation window, in requests.
///
/// Large enough that a miss-heavy window amortizes one shadow sync and one
/// batched scoring call over thousands of requests; small enough that a
/// divergence (which discards the rest of the window's speculation) stays
/// cheap.
pub const DEFAULT_SPEC_WINDOW: usize = 4096;

/// Default floor of the adaptive window shrink (see the module docs):
/// after a divergence the effective window halves, but never below this
/// (or below the configured window, if smaller). Kept small: in a
/// divergence storm batching is lost regardless, so the floor mostly
/// bounds how much lookahead classification each cut can waste.
pub const MIN_SPEC_WINDOW: usize = 16;

/// Default hit-dominance threshold of the mode probe: a speculative window
/// whose replay misses fewer than 1-in-8 records flips the simulator into
/// plain streaming (scoring so few misses cannot repay per-request
/// lookahead), for [`STREAM_SPAN_WINDOWS`] × window records before probing
/// again.
///
/// Derived against a 4.5× batched/single-point kernel gap that no longer
/// exists for the GMM engine (see the module docs); it now only tunes
/// speculation over [`crate::PreferBatching`]-wrapped sources.
pub const STREAM_MISS_FRACTION_DIV: usize = 8;

/// How many windows' worth of *observed evidence* each streaming span
/// covers before the simulator re-snapshots the shadow and probes
/// speculation again (the span is proportional to the window that
/// triggered it, so thin evidence cannot disable batching for long).
pub const STREAM_SPAN_WINDOWS: usize = 8;

/// Minimum records a window must have replayed (cleanly) before its miss
/// fraction is trusted as a mode-probe signal; windows shorter than this
/// (post-divergence shrink remnants, phase-boundary tails) never flip the
/// simulator into streaming.
pub const MIN_PROBE_EVIDENCE: usize = 256;

/// Dense-scoring threshold: a speculation window is scored *densely* (the
/// whole window — predicted hits included — in one batched call, before
/// classification) when the previous window's replay missed at least
/// 1-in-this-many records. Scoring a hit the streaming path would skip
/// costs one batched-kernel point, so dense mode wins whenever the miss
/// fraction clears roughly the batched/single-point cost ratio; below it,
/// per-miss-run sparse prefetching wins. Results are identical either way
/// — scores are pure functions of observation position.
///
/// 1-in-4 was derived from a cost ratio of ≈ 0.22 (a batched point ~5×
/// cheaper than a single-point score). That gap no longer exists for the
/// GMM engine (ratio ≈ 0.7, see the module docs), which therefore does not
/// speculate at all; the divisor is left as derived and only tunes
/// speculation over [`crate::PreferBatching`]-wrapped sources.
pub const DENSE_MISS_FRACTION_DIV: usize = 4;

/// Tuning knobs of the speculative batcher. Results are bit-identical to
/// streaming at *any* setting — these trade lookahead cost against
/// batching opportunity, nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecParams {
    /// Speculation depth `W`, in requests (the cap of the adaptive
    /// window). Must be `>= 1`.
    pub window: usize,
    /// Floor of the adaptive shrink: after a divergent window the
    /// effective depth halves, but never below `min(min_window, window)`.
    /// Must be `>= 1`.
    pub min_window: usize,
    /// Mode-probe hit-dominance divisor: a cleanly replayed window whose
    /// misses × this value stay below its length flips the simulator into
    /// plain streaming for a span (larger values stream less readily).
    /// Must be `>= 1`.
    pub stream_miss_fraction_div: usize,
}

impl Default for SpecParams {
    fn default() -> Self {
        SpecParams {
            window: DEFAULT_SPEC_WINDOW,
            min_window: MIN_SPEC_WINDOW,
            stream_miss_fraction_div: STREAM_MISS_FRACTION_DIV,
        }
    }
}

impl SpecParams {
    /// `SpecParams` with the default floor and probe threshold.
    pub fn with_window(window: usize) -> Self {
        SpecParams {
            window,
            ..SpecParams::default()
        }
    }

    /// Panics with a descriptive message on an invalid parameter set (the
    /// config-level validation in `icgmm-core` reports the same conditions
    /// as recoverable errors before they can reach this point).
    fn assert_valid(&self) {
        assert!(self.window > 0, "speculation window must be >= 1");
        assert!(self.min_window > 0, "speculation window floor must be >= 1");
        assert!(
            self.stream_miss_fraction_div > 0,
            "stream_miss_fraction_div must be >= 1"
        );
    }
}

/// Speculation telemetry for one [`WindowedSimulator::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecStats {
    /// Speculation windows launched (including restarts after divergence).
    pub windows: u64,
    /// Batched [`ScoreSource::score_window`] calls issued.
    pub batch_calls: u64,
    /// Scores prefetched through the batched calls.
    pub batched_scores: u64,
    /// Synchronous [`ScoreSource::score_current`] fallbacks — one per
    /// [`SpecStats::pred_hit_missed`] *in sparsely scored windows* (the
    /// only stale predicted hits are pages a tolerated bypass left wrongly
    /// resident in the shadow); densely scored windows already hold the
    /// positionally exact score and need no fallback, so `sync_scores <=
    /// pred_hit_missed` overall (see the exactness invariant, module
    /// docs).
    pub sync_scores: u64,
    /// Predicted hit, replay missed (falls back to a synchronous score
    /// with the clock exactly at the record — bit-identical).
    pub pred_hit_missed: u64,
    /// Predicted miss, replay hit — a stale prediction downstream of a
    /// divergence; its prefetched score goes unused.
    pub pred_miss_hit: u64,
    /// Speculated an insertion, the admission policy bypassed — tolerated
    /// without cutting the window (the speculated page stays in the
    /// shadow as a *phantom* until a real outcome heals it; see the
    /// module docs).
    pub admission_divergences: u64,
    /// Insertion confirmed but the real eviction victim differed from the
    /// shadow's prediction. With the policy-aware victim models this is
    /// zero for LRU/FIFO/LFU/gmm-score on bypass-free traces (property-
    /// tested); residual counts attribute to phantoms, warm-start blocks
    /// the shadow never observed, or unpredictable policies
    /// (Random/Belady).
    pub victim_divergences: u64,
    /// Batched miss runs cut short by classification because a stored-
    /// score victim decision depended on a score still being prefetched
    /// (the within-window dependency of the policy-aware shadow). Each
    /// split costs one smaller batch call, never a divergence. Densely
    /// scored windows never split — every score is prefetched before
    /// classification begins.
    pub run_splits: u64,
    /// Windows scored densely (the whole window in one batched call,
    /// predicted hits included — see [`DENSE_MISS_FRACTION_DIV`]).
    /// [`SpecStats::batched_scores`] counts those hit-position scores too,
    /// mirroring the hardware pipeline streaming a full window through
    /// the scoring engine.
    pub dense_windows: u64,
    /// Times the adaptive depth halved after a divergent window.
    pub window_shrinks: u64,
    /// Records processed in plain streaming mode (hit-dominated phases,
    /// where lookahead cannot pay for itself — see the mode probe).
    pub streamed_records: u64,
    /// Scores computed synchronously inside streaming spans.
    pub streamed_scores: u64,
}

impl SpecStats {
    /// Total divergence events.
    pub fn divergences(&self) -> u64 {
        self.class_divergences() + self.admission_divergences + self.victim_divergences
    }

    /// Hit/miss misclassification divergences (predicted hit that missed
    /// plus predicted miss that hit) — the residue of tolerated phantoms.
    pub fn class_divergences(&self) -> u64 {
        self.pred_hit_missed + self.pred_miss_hit
    }

    /// Total scores this run computed through any path — batched
    /// prefetches (speculated extras included), synchronous fallbacks and
    /// streaming-span scores. Matches the policy engine's own inference
    /// counter for batched runs.
    pub fn scores_computed(&self) -> u64 {
        self.batched_scores + self.sync_scores + self.streamed_scores
    }

    /// Field-wise accumulation of another run's telemetry — the
    /// deterministic merge used by [`crate::ShardedSimulator`] (shards are
    /// summed in shard-index order; all counters are integers, so the
    /// merged value is independent of thread scheduling).
    pub fn merge(&mut self, other: &SpecStats) {
        self.windows += other.windows;
        self.batch_calls += other.batch_calls;
        self.batched_scores += other.batched_scores;
        self.sync_scores += other.sync_scores;
        self.pred_hit_missed += other.pred_hit_missed;
        self.pred_miss_hit += other.pred_miss_hit;
        self.admission_divergences += other.admission_divergences;
        self.victim_divergences += other.victim_divergences;
        self.run_splits += other.run_splits;
        self.dense_windows += other.dense_windows;
        self.window_shrinks += other.window_shrinks;
        self.streamed_records += other.streamed_records;
        self.streamed_scores += other.streamed_scores;
    }

    /// Fraction of scores that were produced by batched calls.
    pub fn batched_fraction(&self) -> f64 {
        let total = self.batched_scores + self.sync_scores + self.streamed_scores;
        if total == 0 {
            0.0
        } else {
            self.batched_scores as f64 / total as f64
        }
    }
}

/// Per-record speculation outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pred {
    /// The shadow found the page resident.
    Hit,
    /// The shadow missed; an admit was speculated into `slot` (the flat
    /// tag-array index), evicting `evicts` (the page the shadow displaced,
    /// `None` when an invalid way absorbed the insert).
    Miss {
        slot: usize,
        evicts: Option<PageIndex>,
    },
}

/// One record's classification attempt.
enum Classified {
    /// Classified (and the speculated transition applied to the shadow).
    Pred(Pred),
    /// Not classified: the record touches a slot whose stored score the
    /// pending miss run has not prefetched yet. The caller must flush
    /// (prefetch + replay) the pending run — which fills those scores
    /// with the exact values the real policy will store — and retry.
    /// Guaranteed to make progress: pending scores exist only while a
    /// classified-but-unreplayed miss run does. Flushing *before* the
    /// record is classified also keeps a crucial undo-log invariant: no
    /// entry ever snapshots a [`ScoreState::Pending`] slot, so a rollback
    /// can never resurrect a pending marker whose fill already landed.
    /// `split` is `true` only when the flush cuts a miss run short (a
    /// victim decision mid-run); a predicted hit on a pending slot would
    /// have ended the run anyway and is not counted as a split.
    NeedFlush {
        /// Whether this flush split a miss run that would otherwise have
        /// continued (telemetry: [`SpecStats::run_splits`]).
        split: bool,
    },
}

/// How much the shadow knows about a slot's stored score (the metadata
/// behind [`ShadowVictimModel::StoredScore`] prediction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum ScoreState {
    /// No reliable score: a warm-start block the shadow never saw
    /// inserted, or a phantom left by a tolerated bypass. Ranked as
    /// `-inf` in victim prediction — conservative: the slot is claimed
    /// first, and a wrong claim is caught (and healed) at replay.
    #[default]
    Unknown,
    /// Speculated insert whose score the current miss run's prefetch will
    /// produce; blocks score-ranked victim decisions until it lands.
    Pending,
    /// Exact stored score, bit-equal to the real policy's (ground truth
    /// from replay, a streaming span, or a landed prefetch).
    Known,
}

/// Per-slot replacement metadata mirrored by the shadow — the superset
/// every [`ShadowVictimModel`] draws from. Maintained in lock-step with
/// replay (speculatively during classification, from ground truth after
/// cuts and during streaming spans) and rolled back through the undo log
/// together with the tag state.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct SlotMeta {
    /// Last-touch stamp (shadow timeline; ordering matches the real
    /// policies' sequence numbers).
    last: u64,
    /// Insertion stamp (FIFO's rank; hits do not refresh it).
    inserted: u64,
    /// Accesses since insertion (LFU's rank: 1 on insert, +1 per hit).
    freq: u64,
    /// Stored score (gmm-score's rank); meaningful iff `score_state` is
    /// [`ScoreState::Known`].
    score: f64,
    /// Reliability of `score`.
    score_state: ScoreState,
}

/// One reversible shadow mutation, tagged with the window-record index
/// that caused it. Rolling the log back past a divergence restores the
/// shadow — tags *and* per-slot policy metadata — to the exact
/// pre-speculation state in `O(window)`: the full tag array is copied once
/// per [`WindowedSimulator::run`], never per window, so divergence repair
/// stays cheap even on multi-MiB caches.
#[derive(Clone, Copy, Debug)]
struct UndoEntry {
    idx: usize,
    slot: usize,
    block: BlockState,
    meta: SlotMeta,
}

/// The speculative miss-window batching simulator.
///
/// Reusable across runs: internal buffers (shadow tag state, predictions,
/// prefetched scores) are recycled, so a sweep driver can allocate one
/// `WindowedSimulator` and call [`WindowedSimulator::run`] per
/// configuration point.
#[derive(Clone, Debug)]
pub struct WindowedSimulator {
    params: SpecParams,
    model: ShadowVictimModel,
    shadow: Vec<BlockState>,
    meta: Vec<SlotMeta>,
    touch: u64,
    pred: Vec<Pred>,
    scores: Vec<f64>,
    /// For each prefetched score in `scores`, the 1-based ordinal of the
    /// [`ScoreSource::score_window`] call that produced it — the batch
    /// attribution the replay-event stream reports through
    /// [`ScoreOrigin::Batched`]. Maintained in lock-step with `scores`
    /// (filled at prefetch, slid with the dense overhang).
    score_batch: Vec<u64>,
    /// Whether the current window is densely scored (whole window
    /// prefetched upfront, hits included).
    dense: bool,
    /// Scored-ahead overhang: `scores[0..horizon]` hold positionally
    /// exact scores for the next `horizon` records from the current
    /// replay position — the already-observed suffix a cut left behind in
    /// a dense window. While it is non-empty the simulator must keep
    /// scoring densely (those records were observed; re-observing them
    /// would corrupt the Algorithm 1 clock) and may not stream.
    horizon: usize,
    undo: Vec<UndoEntry>,
    /// `(window record index, slot)` of speculated inserts in the current
    /// un-prefetched miss run, awaiting their scores.
    pending_fills: Vec<(usize, usize)>,
    /// Reusable gather scratch for [`ScoreSource::score_window`] calls on
    /// indexed (non-contiguous) record views — `O(window)` bounded, and a
    /// no-op borrow for contiguous slices (see [`RecordsRef::contiguous`]).
    gather: Vec<TraceRecord>,
    outcome_buf: Vec<AccessOutcome>,
    spec: SpecStats,
    /// Armed circuit breaker: `(storm windows, cooldown records)`. `None`
    /// (the default) leaves every code path exactly as without a breaker.
    breaker: Option<(u32, u32)>,
    /// Breaker telemetry of the most recent run (trips, streamed records).
    fault: FaultStats,
    /// Adaptive-mode state carried across chunked continuations
    /// ([`WindowedSimulator::run_observed_from`] with `seq_base > 0`):
    /// the window depth, dense/sparse evidence, any unfinished streaming
    /// span and the breaker's divergence streak. Outcomes are invariant
    /// to all of it (the batcher's mode invariance), but resetting it per
    /// chunk would make a chunked replay re-probe and re-speculate at
    /// every chunk boundary — a hit-dominated trace served in chunks
    /// would pay dense-scoring costs the uninterrupted run never pays.
    cont: ContState,
}

/// See [`WindowedSimulator::cont`].
#[derive(Clone, Copy, Debug)]
struct ContState {
    depth: usize,
    dense_next: bool,
    stream_pending: usize,
    div_streak: u32,
    breaker_cooling: bool,
}

impl ContState {
    fn fresh(params: &SpecParams) -> Self {
        ContState {
            depth: params.window,
            // Dense scoring needs miss-fraction evidence; the first
            // window starts sparse and every window's replay updates the
            // estimate.
            dense_next: false,
            stream_pending: 0,
            div_streak: 0,
            breaker_cooling: false,
        }
    }
}

impl Default for WindowedSimulator {
    fn default() -> Self {
        WindowedSimulator::with_params(SpecParams::default())
    }
}

impl WindowedSimulator {
    /// Creates a simulator speculating `window` requests ahead, with the
    /// default adaptive floor and mode-probe threshold.
    ///
    /// # Panics
    ///
    /// Panics when `window == 0`.
    pub fn new(window: usize) -> Self {
        WindowedSimulator::with_params(SpecParams::with_window(window))
    }

    /// Creates a simulator with explicit [`SpecParams`].
    ///
    /// # Panics
    ///
    /// Panics when any parameter is zero.
    pub fn with_params(params: SpecParams) -> Self {
        params.assert_valid();
        WindowedSimulator {
            cont: ContState::fresh(&params),
            params,
            model: ShadowVictimModel::default(),
            shadow: Vec::new(),
            meta: Vec::new(),
            touch: 0,
            pred: Vec::new(),
            scores: Vec::new(),
            score_batch: Vec::new(),
            dense: false,
            horizon: 0,
            undo: Vec::new(),
            pending_fills: Vec::new(),
            gather: Vec::new(),
            outcome_buf: Vec::new(),
            spec: SpecStats::default(),
            breaker: None,
            fault: FaultStats::default(),
        }
    }

    /// Arms the speculation circuit breaker: after `storm_windows`
    /// consecutive divergent windows the simulator demotes itself to the
    /// streaming loop for `cooldown_records` records (bit-identical by
    /// construction — streaming spans are already part of the engine),
    /// then re-arms speculation. `storm_windows == 0` disarms.
    ///
    /// This is the batched→streaming rung of the degradation ladder: a
    /// divergence storm (e.g. a scorer gone non-finite thrashing victim
    /// predictions) stops burning rollback work and rides the reference
    /// loop until the storm passes.
    pub fn set_breaker(&mut self, storm_windows: u32, cooldown_records: u32) {
        self.breaker = if storm_windows == 0 || cooldown_records == 0 {
            None
        } else {
            Some((storm_windows, cooldown_records))
        };
    }

    /// Breaker telemetry of the most recent [`WindowedSimulator::run`]
    /// (all-zero when the breaker is disarmed or never tripped).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault
    }

    /// The speculation depth `W`.
    pub fn window(&self) -> usize {
        self.params.window
    }

    /// The full parameter set.
    pub fn params(&self) -> &SpecParams {
        &self.params
    }

    /// Telemetry of the most recent [`WindowedSimulator::run`].
    pub fn spec_stats(&self) -> &SpecStats {
        &self.spec
    }

    /// Batched counterpart of [`crate::simulate_streaming_with_warmup`]:
    /// same arguments, bit-identical [`SimReport`].
    ///
    /// Without a score source — or with one that does not
    /// [`ScoreSource::prefers_batching`] — there is nothing worth
    /// batching, so the call delegates to the streaming loop unchanged
    /// (zero speculation overhead, all-zero [`SpecStats`]).
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        warmup: &[TraceRecord],
        measured: &[TraceRecord],
        cache: &mut SetAssocCache,
        admission: &mut dyn AdmissionPolicy,
        eviction: &mut dyn EvictionPolicy,
        score: Option<&mut dyn ScoreSource>,
        latency: &LatencyModel,
        series_window: Option<u64>,
    ) -> SimReport {
        self.run_impl(
            RecordsRef::from_slice(warmup),
            RecordsRef::from_slice(measured),
            0,
            cache,
            admission,
            eviction,
            score,
            latency,
            series_window,
            None,
        )
    }

    /// [`WindowedSimulator::run`] with a [`crate::ReplayObserver`]
    /// receiving the per-record replay-event stream (warm-up events
    /// included, flagged by `seq`; cut and run-split notifications ride
    /// along). Events are emitted from the *verified* replay only — never
    /// from speculation — so the stream an observer sees is bit-identical
    /// to the streaming engine's whenever the reports are. This is the
    /// hook the `icgmm-hw` dataflow model hangs its per-miss timing
    /// accounting on.
    #[allow(clippy::too_many_arguments)]
    pub fn run_observed(
        &mut self,
        warmup: &[TraceRecord],
        measured: &[TraceRecord],
        cache: &mut SetAssocCache,
        admission: &mut dyn AdmissionPolicy,
        eviction: &mut dyn EvictionPolicy,
        score: Option<&mut dyn ScoreSource>,
        latency: &LatencyModel,
        series_window: Option<u64>,
        observer: &mut dyn ReplayObserver,
    ) -> SimReport {
        self.run_impl(
            RecordsRef::from_slice(warmup),
            RecordsRef::from_slice(measured),
            0,
            cache,
            admission,
            eviction,
            score,
            latency,
            series_window,
            Some(observer),
        )
    }

    /// [`WindowedSimulator::run_observed`] over [`RecordsRef`] views — the
    /// zero-copy entry point the sharded engines replay their indexed
    /// subtraces through, in one uninterrupted call (so per-shard
    /// speculation telemetry stays exactly the single-threaded batcher's
    /// at one shard). The speculation machinery is representation-
    /// agnostic; only [`ScoreSource::score_window`] needs contiguity,
    /// which indexed views provide through a reusable `O(window)` gather
    /// buffer.
    #[allow(clippy::too_many_arguments)]
    pub fn run_observed_records(
        &mut self,
        warmup: RecordsRef<'_>,
        measured: RecordsRef<'_>,
        cache: &mut SetAssocCache,
        admission: &mut dyn AdmissionPolicy,
        eviction: &mut dyn EvictionPolicy,
        score: Option<&mut dyn ScoreSource>,
        latency: &LatencyModel,
        series_window: Option<u64>,
        observer: &mut dyn ReplayObserver,
    ) -> SimReport {
        self.run_impl(
            warmup,
            measured,
            0,
            cache,
            admission,
            eviction,
            score,
            latency,
            series_window,
            Some(observer),
        )
    }

    /// [`WindowedSimulator::run_observed`] for *chunked* replay: record
    /// sequence numbers start at `seq_base` instead of zero, and when
    /// `seq_base > 0` the shadow's slot metadata survives from the
    /// previous call — the chunk is treated as the continuation of one
    /// logical run over the same cache and policies. This is the serving
    /// workers' entry point: a shard worker drains its ingestion queue
    /// into chunks and replays each at speculation speed, with recency
    /// stamps, stored-score shadow metadata and the divergence bookkeeping
    /// all continuous across chunk boundaries. Outcomes are bit-identical
    /// to one uninterrupted run whatever the chunking (the batcher's
    /// window-boundary invariance, which chunk boundaries piggyback on);
    /// [`WindowedSimulator::spec_stats`] / `fault_stats` cover the last
    /// chunk only, so accumulate them per call.
    ///
    /// The caller owns phase handling: pass the chunk as `measured` and
    /// re-account outcomes downstream (the returned report covers just
    /// this chunk).
    #[allow(clippy::too_many_arguments)]
    pub fn run_observed_from(
        &mut self,
        seq_base: u64,
        chunk: &[TraceRecord],
        cache: &mut SetAssocCache,
        admission: &mut dyn AdmissionPolicy,
        eviction: &mut dyn EvictionPolicy,
        score: Option<&mut dyn ScoreSource>,
        latency: &LatencyModel,
        observer: &mut dyn ReplayObserver,
    ) -> SimReport {
        self.run_impl(
            RecordsRef::from_slice(&[]),
            RecordsRef::from_slice(chunk),
            seq_base,
            cache,
            admission,
            eviction,
            score,
            latency,
            None,
            Some(observer),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn run_impl(
        &mut self,
        warmup: RecordsRef<'_>,
        measured: RecordsRef<'_>,
        seq_base: u64,
        cache: &mut SetAssocCache,
        admission: &mut dyn AdmissionPolicy,
        eviction: &mut dyn EvictionPolicy,
        score: Option<&mut dyn ScoreSource>,
        latency: &LatencyModel,
        series_window: Option<u64>,
        observer: Option<&mut dyn ReplayObserver>,
    ) -> SimReport {
        self.spec = SpecStats::default();
        self.fault = FaultStats::default();
        // Speculation only pays for a source whose batched kernel is
        // materially cheaper per score than its single-point one — the
        // one signal every default entry point routes on. Any other run
        // (score-free, or a source that does not prefer batching) is the
        // streaming loop, unchanged.
        let score = match score {
            Some(s) if s.prefers_batching() => s,
            score => {
                return simulate_streaming_impl(
                    warmup,
                    measured,
                    seq_base,
                    cache,
                    admission,
                    eviction,
                    score,
                    latency,
                    series_window,
                    observer,
                );
            }
        };

        self.model = eviction.shadow_victim_model();
        let n_blocks = cache.config().num_blocks();
        // A chunked continuation (`seq_base > 0` with matching geometry)
        // keeps the shadow's slot metadata — the stored scores and stamps
        // it learned in earlier chunks still describe the same live cache
        // and policies — and the adaptive-mode state, so a chunk picks up
        // mid-streaming-span or at the learned window depth instead of
        // re-probing from scratch (see [`WindowedSimulator::cont`]).
        // Everything else starts fresh.
        if seq_base == 0 || self.meta.len() != n_blocks {
            self.meta.clear();
            self.meta.resize(n_blocks, SlotMeta::default());
            self.touch = 0;
            self.cont = ContState::fresh(&self.params);
        }
        self.horizon = 0;
        let mut dense_next = self.cont.dense_next;

        let mut acct = Accounting::new(warmup.len(), latency, series_window, observer);

        let n = warmup.len() + measured.len();
        let min_depth = self.params.min_window.min(self.params.window);
        let mut depth = self.cont.depth;
        let mut pos = 0usize;
        // Streaming records left before the next speculation probe, and
        // whether the shadow must be re-snapshotted (on entry, and after
        // every streaming span — the shadow did not see those requests).
        let mut stream_pending = self.cont.stream_pending;
        let mut need_sync = true;
        // Circuit-breaker state: consecutive divergent windows, and whether
        // the current streaming span is a breaker cooldown (vs a mode-probe
        // span).
        let mut div_streak = self.cont.div_streak;
        let mut breaker_cooling = self.cont.breaker_cooling;
        while pos < n {
            // Windows never straddle the warm-up/measured boundary so each
            // batched `score_window` call sees one contiguous slice.
            let (phase, phase_start) = if pos < warmup.len() {
                (warmup, 0)
            } else {
                (measured, warmup.len())
            };
            let local = pos - phase_start;
            if stream_pending > 0 {
                debug_assert_eq!(self.horizon, 0, "cannot stream over observed records");
                let take = stream_pending.min(phase.len() - local);
                self.stream_chunk(
                    phase.slice(local..local + take),
                    seq_base + pos as u64,
                    cache,
                    admission,
                    eviction,
                    score,
                    &mut acct,
                );
                pos += take;
                stream_pending -= take;
                if breaker_cooling {
                    self.fault.breaker_streamed += take as u64;
                }
                if stream_pending == 0 {
                    need_sync = true;
                    breaker_cooling = false;
                }
                continue;
            }
            if need_sync {
                self.shadow.clear();
                self.shadow.extend_from_slice(cache.blocks());
                need_sync = false;
            }
            let end = (local + depth).min(phase.len());
            // A non-empty overhang (records a dense cut already observed)
            // forces dense mode regardless of the miss estimate — their
            // scores are on hand and they must not be re-observed.
            self.dense = dense_next || self.horizon > 0;
            let (consumed, diverged, misses) = self.run_window(
                phase.slice(local..end),
                seq_base + pos as u64,
                cache,
                admission,
                eviction,
                score,
                &mut acct,
            );
            debug_assert!(consumed > 0, "window must make progress");
            pos += consumed;
            // Slide the scored-ahead overhang past the consumed records.
            if self.horizon > 0 {
                debug_assert!(consumed <= self.horizon);
                self.scores.copy_within(consumed..self.horizon, 0);
                self.score_batch.copy_within(consumed..self.horizon, 0);
                self.horizon -= consumed;
            }
            dense_next = misses as usize * DENSE_MISS_FRACTION_DIV >= consumed;
            // Adaptive depth: a cut wasted the rest of the window's
            // classification, so back off; a clean window earns it back.
            if diverged {
                if depth > min_depth {
                    depth = (depth / 2).max(min_depth);
                    self.spec.window_shrinks += 1;
                }
            } else {
                depth = (depth * 2).min(self.params.window);
            }
            // Mode probe: a hit-dominated window pays per-request
            // lookahead to batch almost nothing — switch to plain
            // streaming for a span, then probe again. Only a clean,
            // reasonably deep window counts as evidence, and the span is
            // proportional to it, so one post-shrink 16-record remnant
            // cannot turn batching off for tens of thousands of requests.
            if !diverged
                && self.horizon == 0
                && consumed >= MIN_PROBE_EVIDENCE.min(self.params.window)
                && misses as usize * self.params.stream_miss_fraction_div < consumed
            {
                stream_pending = STREAM_SPAN_WINDOWS * consumed;
            }
            // Circuit breaker: a storm of consecutive divergent windows
            // trips a streaming cooldown. A non-empty overhang blocks
            // streaming (those records were observed), so the streak keeps
            // accumulating and the trip fires once the overhang drains.
            if let Some((storm, cooldown)) = self.breaker {
                if diverged {
                    div_streak += 1;
                    if div_streak >= storm && self.horizon == 0 {
                        self.fault.breaker_trips += 1;
                        stream_pending = cooldown as usize;
                        breaker_cooling = true;
                        div_streak = 0;
                    }
                } else {
                    div_streak = 0;
                }
            }
        }
        self.cont = ContState {
            depth,
            dense_next,
            stream_pending,
            div_streak,
            breaker_cooling,
        };

        acct.into_report(measured.len(), eviction, admission)
    }

    /// Streams `chunk` through the real cache with synchronous scoring —
    /// the plain replay loop, used for hit-dominated spans where
    /// speculation cannot pay for itself. Bit-identical by construction.
    /// Every outcome (and consumed score) is applied to the shadow as
    /// ground truth, so the victim-model metadata stays warm for the next
    /// speculation probe.
    #[allow(clippy::too_many_arguments)]
    fn stream_chunk(
        &mut self,
        chunk: RecordsRef<'_>,
        base: u64,
        cache: &mut SetAssocCache,
        admission: &mut dyn AdmissionPolicy,
        eviction: &mut dyn EvictionPolicy,
        score: &mut dyn ScoreSource,
        acct: &mut Accounting<'_, '_>,
    ) {
        let mut score: Option<&mut dyn ScoreSource> = Some(score);
        for (i, r) in chunk.iter().enumerate() {
            let (outcome, sv) =
                streaming_step(r, base + i as u64, cache, admission, eviction, &mut score);
            let origin = if sv.is_some() {
                self.spec.streamed_scores += 1;
                ScoreOrigin::Streamed
            } else {
                ScoreOrigin::None
            };
            acct.record(base + i as u64, r, &outcome, sv, origin);
            self.apply_real(r, &outcome, sv, cache);
        }
        self.spec.streamed_records += chunk.len() as u64;
    }

    /// Speculates, prefetches and replays one window starting at absolute
    /// request index `base`. Returns how many records were fully replayed
    /// (the whole window, or the prefix up to and including a divergence),
    /// whether the window diverged, and how many replayed records missed
    /// (the mode probe's signal).
    ///
    /// Classification and replay are pipelined per run: records are
    /// classified in trace order, and as soon as the pending run ends —
    /// its type flips, a stored-score dependency splits it, or the window
    /// runs out — it is prefetched (miss runs) and replayed before
    /// classification continues, so the shadow metadata feeding later
    /// victim predictions is as fresh as the replay itself.
    #[allow(clippy::too_many_arguments)]
    fn run_window(
        &mut self,
        win: RecordsRef<'_>,
        base: u64,
        cache: &mut SetAssocCache,
        admission: &mut dyn AdmissionPolicy,
        eviction: &mut dyn EvictionPolicy,
        score: &mut dyn ScoreSource,
        acct: &mut Accounting<'_, '_>,
    ) -> (usize, bool, u64) {
        self.spec.windows += 1;
        let mut misses = 0u64;
        self.undo.clear();
        self.pred.clear();
        self.pending_fills.clear();
        if self.scores.len() < win.len().max(self.horizon) {
            self.scores.resize(win.len().max(self.horizon), 0.0);
            self.score_batch.resize(self.scores.len(), 0);
        }
        if self.dense {
            // Dense window: observe and score everything upfront, hits
            // included — one batched call, and every stored-score victim
            // decision during classification sees its operand immediately
            // (no pending scores, no run splits). Records inside the
            // overhang were already observed by a previous dense window.
            self.spec.dense_windows += 1;
            if self.horizon < win.len() {
                score.score_window(
                    win.slice(self.horizon..win.len())
                        .contiguous(&mut self.gather),
                    &mut self.scores[self.horizon..win.len()],
                );
                self.spec.batch_calls += 1;
                self.spec.batched_scores += (win.len() - self.horizon) as u64;
                self.score_batch[self.horizon..win.len()].fill(self.spec.batch_calls);
                self.horizon = win.len();
            }
        }

        // `k` = replay cursor (records below it are replayed), `pred.len()`
        // = classification cursor. Invariant: `[k, pred.len())` is the
        // pending run, all one type, except possibly its last record (a
        // just-classified run opener that triggered the flush).
        let mut k = 0usize;
        loop {
            let c = self.pred.len();
            if c == win.len() {
                if k < c {
                    if let Err(consumed) = self.replay_run(
                        win,
                        k,
                        c,
                        base,
                        cache,
                        admission,
                        eviction,
                        score,
                        acct,
                        &mut misses,
                    ) {
                        return (consumed, true, misses);
                    }
                }
                return (win.len(), false, misses);
            }
            match self.classify(c, win.get(c), cache) {
                Classified::Pred(p) => {
                    let boundary = c > k
                        && (matches!(self.pred[k], Pred::Miss { .. })
                            != matches!(p, Pred::Miss { .. }));
                    self.pred.push(p);
                    if boundary {
                        if let Err(consumed) = self.replay_run(
                            win,
                            k,
                            c,
                            base,
                            cache,
                            admission,
                            eviction,
                            score,
                            acct,
                            &mut misses,
                        ) {
                            return (consumed, true, misses);
                        }
                        k = c;
                    }
                }
                Classified::NeedFlush { split } => {
                    debug_assert!(
                        c > k && !self.pending_fills.is_empty(),
                        "flush requested with nothing pending"
                    );
                    if split {
                        self.spec.run_splits += 1;
                        acct.run_split(base + c as u64);
                    }
                    if let Err(consumed) = self.replay_run(
                        win,
                        k,
                        c,
                        base,
                        cache,
                        admission,
                        eviction,
                        score,
                        acct,
                        &mut misses,
                    ) {
                        return (consumed, true, misses);
                    }
                    k = c;
                    // `classify(c)` is retried next iteration with the
                    // pending scores now landed.
                }
            }
        }
    }

    /// Prefetches (miss runs) and replays the pending run `win[k..j]`.
    /// `Ok(())` on a clean replay; `Err(consumed)` when a divergence cut
    /// the window after consuming `consumed` records (shadow already
    /// rolled back and re-synced to ground truth).
    #[allow(clippy::too_many_arguments)]
    fn replay_run(
        &mut self,
        win: RecordsRef<'_>,
        k: usize,
        j: usize,
        base: u64,
        cache: &mut SetAssocCache,
        admission: &mut dyn AdmissionPolicy,
        eviction: &mut dyn EvictionPolicy,
        score: &mut dyn ScoreSource,
        acct: &mut Accounting<'_, '_>,
        misses: &mut u64,
    ) -> Result<(), usize> {
        debug_assert!(k < j && j <= win.len());
        if matches!(self.pred[k], Pred::Miss { .. }) {
            self.replay_miss_run(
                win, k, j, base, cache, admission, eviction, score, acct, misses,
            )
        } else {
            self.replay_hit_run(
                win, k, j, base, cache, admission, eviction, score, acct, misses,
            )
        }
    }

    /// Replays a predicted-miss run: one batched prefetch (sparse windows
    /// — dense windows prefetched everything upfront), then per-record
    /// verified replay.
    #[allow(clippy::too_many_arguments)]
    fn replay_miss_run(
        &mut self,
        win: RecordsRef<'_>,
        k: usize,
        j: usize,
        base: u64,
        cache: &mut SetAssocCache,
        admission: &mut dyn AdmissionPolicy,
        eviction: &mut dyn EvictionPolicy,
        score: &mut dyn ScoreSource,
        acct: &mut Accounting<'_, '_>,
        misses: &mut u64,
    ) -> Result<(), usize> {
        if !self.dense {
            score.score_window(
                win.slice(k..j).contiguous(&mut self.gather),
                &mut self.scores[k..j],
            );
            self.spec.batch_calls += 1;
            self.spec.batched_scores += (j - k) as u64;
            self.score_batch[k..j].fill(self.spec.batch_calls);
            // Land the prefetched scores in the shadow metadata of this
            // run's speculated inserts — the exact values the real policy
            // will store on admission, which is what makes later same-set
            // victim predictions exact. Fills belonging to a run opener
            // beyond `j` (its scores are not prefetched yet) stay pending.
            let mut i = 0;
            while i < self.pending_fills.len() {
                let (idx, slot) = self.pending_fills[i];
                if idx < j {
                    self.meta[slot].score = self.scores[idx];
                    self.meta[slot].score_state = ScoreState::Known;
                    self.pending_fills.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }

        let mut first_div: Option<usize> = None;
        for (off, r) in win.slice(k..j).iter().enumerate() {
            let t = k + off;
            let hit = cache.lookup(r.page()).is_some();
            *misses += u64::from(!hit);
            let sv = (!hit).then(|| self.scores[t]);
            let origin = if sv.is_some() {
                ScoreOrigin::Batched {
                    call: self.score_batch[t],
                }
            } else {
                ScoreOrigin::None
            };
            let outcome = cache.access(r, base + t as u64, sv, admission, eviction);
            acct.record(base + t as u64, r, &outcome, sv, origin);
            match first_div {
                None => {
                    let cut = if matches!(outcome, AccessOutcome::MissBypassed) {
                        // Admission divergence: the speculated insert did
                        // not happen, leaving a *phantom* resident in the
                        // shadow. Tolerating it (rather than cutting)
                        // keeps the window — and its batching — alive
                        // under bypass-heavy admission filters; every
                        // decision the phantom could skew is still
                        // verified at replay, and the first cut it causes
                        // clears it (`apply_real` writes the real state).
                        // Its stored-score metadata is dropped to Unknown:
                        // the slot really holds an older block whose score
                        // the shadow can no longer vouch for.
                        self.spec.admission_divergences += 1;
                        if let Pred::Miss { slot, .. } = self.pred[t] {
                            self.meta[slot].score_state = ScoreState::Unknown;
                        }
                        false
                    } else {
                        self.check_miss_divergence(t, &outcome)
                    };
                    if cut {
                        first_div = Some(t);
                        self.outcome_buf.clear();
                        self.outcome_buf.push(outcome);
                    }
                }
                Some(_) => {
                    // Stale prediction in the tail of a divergent run: the
                    // run still replays correctly (observations and scores
                    // are position-exact), the prefetched score just goes
                    // unused. Admission/victim mismatches past the first
                    // event are downstream consequences and are not
                    // re-counted.
                    if outcome.is_hit() {
                        self.spec.pred_miss_hit += 1;
                    }
                    self.outcome_buf.push(outcome);
                }
            }
        }
        if let Some(t0) = first_div {
            // Cut after the already-observed run: roll the shadow back to
            // the divergent record, replay the run tail's *real*
            // transitions (with their consumed scores) onto it, and let
            // the next window re-speculate from that exact state.
            self.roll_back(t0);
            let outcomes = std::mem::take(&mut self.outcome_buf);
            for (off, (r, oc)) in win.slice(t0..j).iter().zip(outcomes.iter()).enumerate() {
                let sv = Some(self.scores[t0 + off]);
                self.apply_real(r, oc, sv, cache);
            }
            self.outcome_buf = outcomes;
            acct.cut(base + t0 as u64);
            return Err(j);
        }
        Ok(())
    }

    /// Replays a predicted-hit run: per-record observation, synchronous
    /// fallback scoring on the (rare) stale prediction.
    #[allow(clippy::too_many_arguments)]
    fn replay_hit_run(
        &mut self,
        win: RecordsRef<'_>,
        k: usize,
        j: usize,
        base: u64,
        cache: &mut SetAssocCache,
        admission: &mut dyn AdmissionPolicy,
        eviction: &mut dyn EvictionPolicy,
        score: &mut dyn ScoreSource,
        acct: &mut Accounting<'_, '_>,
        misses: &mut u64,
    ) -> Result<(), usize> {
        for (off, r) in win.slice(k..j).iter().enumerate() {
            let t = k + off;
            if !self.dense {
                score.observe(r);
            }
            let hit = cache.lookup(r.page()).is_some();
            *misses += u64::from(!hit);
            let (sv, origin) = if hit {
                (None, ScoreOrigin::None)
            } else if self.dense {
                // Divergence: predicted hit actually missed — but the
                // dense prefetch already scored this position, so the
                // rescue is free (and positionally exact by the
                // `score_window` contract).
                (
                    Some(self.scores[t]),
                    ScoreOrigin::Batched {
                        call: self.score_batch[t],
                    },
                )
            } else {
                // Divergence: predicted hit actually missed. The
                // observation above just happened, so the clock is exactly
                // at this record — the synchronous score is bit-identical
                // to the streaming path's.
                self.spec.sync_scores += 1;
                (Some(score.score_current()), ScoreOrigin::SyncFallback)
            };
            let outcome = cache.access(r, base + t as u64, sv, admission, eviction);
            acct.record(base + t as u64, r, &outcome, sv, origin);
            if !hit {
                self.spec.pred_hit_missed += 1;
                // Nothing beyond `t` has been observed yet: undo the
                // speculation from `t` on, evict the phantom reality just
                // disproved (otherwise a hot page the admission filter
                // keeps bypassing would mispredict as a hit on every
                // re-access, forever), apply the real transition, cut, and
                // re-speculate from `t + 1`.
                self.roll_back(t);
                self.shadow_evict(r.page(), cache);
                self.apply_real(r, &outcome, sv, cache);
                acct.cut(base + t as u64);
                return Err(t + 1);
            }
        }
        Ok(())
    }

    /// Classifies window record `idx` against the shadow, applying the
    /// speculated transition (admit-all, invalid-way-first, policy-aware
    /// victim model) and logging it for rollback — or reporting that a
    /// stored-score decision needs the pending run flushed first.
    fn classify(&mut self, idx: usize, r: &TraceRecord, cache: &SetAssocCache) -> Classified {
        let cfg = cache.config();
        let page = r.page();
        let set = cfg.set_of(page);
        let tag = cfg.tag_of(page);
        let ways = cfg.ways;
        let slot0 = set * ways;
        for w in 0..ways {
            let b = self.shadow[slot0 + w];
            if b.valid && b.tag == tag {
                let slot = slot0 + w;
                if matches!(self.model, ShadowVictimModel::StoredScore { .. })
                    && self.meta[slot].score_state == ScoreState::Pending
                {
                    // A hit on a block inserted earlier in the pending
                    // miss run: flush so its score (and any hit bonus on
                    // top of it) lands first — and so the undo log never
                    // snapshots a pending slot (see [`Classified`]).
                    return Classified::NeedFlush { split: false };
                }
                self.touch += 1;
                self.log_undo(idx, slot);
                let m = &mut self.meta[slot];
                m.last = self.touch;
                m.freq = m.freq.saturating_add(1);
                if let ShadowVictimModel::StoredScore { hit_bonus } = self.model {
                    if hit_bonus > 0.0 && m.score_state == ScoreState::Known {
                        m.score *= 1.0 + hit_bonus;
                    }
                }
                return Classified::Pred(Pred::Hit);
            }
        }
        let invalid = (0..ways).find(|&w| !self.shadow[slot0 + w].valid);
        let (way, evicts) = match invalid {
            Some(w) => (w, None),
            None => match self.predict_victim(slot0, ways) {
                Some(w) => (w, Some(cfg.page_of(set, self.shadow[slot0 + w].tag))),
                None => return Classified::NeedFlush { split: true },
            },
        };
        let slot = slot0 + way;
        self.touch += 1;
        self.log_undo(idx, slot);
        self.shadow[slot] = BlockState {
            tag,
            valid: true,
            dirty: false,
        };
        let m = &mut self.meta[slot];
        m.last = self.touch;
        m.inserted = self.touch;
        m.freq = 1;
        if matches!(self.model, ShadowVictimModel::StoredScore { .. }) {
            if self.dense {
                // Dense windows prefetched every position before
                // classification began: the score the real policy will
                // store on admission is already on hand.
                m.score = self.scores[idx];
                m.score_state = ScoreState::Known;
            } else {
                m.score_state = ScoreState::Pending;
                self.pending_fills.push((idx, slot));
            }
        }
        Classified::Pred(Pred::Miss { slot, evicts })
    }

    /// Predicts the victim way of a full set under the active model.
    /// `None` means a stored-score decision depends on a pending prefetch
    /// (the caller flushes and retries).
    fn predict_victim(&self, slot0: usize, ways: usize) -> Option<usize> {
        let metas = &self.meta[slot0..slot0 + ways];
        match self.model {
            ShadowVictimModel::Recency => metas
                .iter()
                .enumerate()
                .min_by_key(|(_, m)| m.last)
                .map(|(w, _)| w),
            ShadowVictimModel::Insertion => metas
                .iter()
                .enumerate()
                .min_by_key(|(_, m)| m.inserted)
                .map(|(w, _)| w),
            ShadowVictimModel::Frequency => metas
                .iter()
                .enumerate()
                .min_by_key(|(_, m)| (m.freq, m.last))
                .map(|(w, _)| w),
            ShadowVictimModel::StoredScore { .. } => {
                if metas.iter().any(|m| m.score_state == ScoreState::Pending) {
                    return None;
                }
                // The real policy's own ranking (shared scan — it cannot
                // drift); unknown scores rank as -inf — conservative, see
                // [`ScoreState`].
                Some(crate::policy::min_by_score_then_recency(metas.iter().map(
                    |m| {
                        let s = if m.score_state == ScoreState::Known {
                            m.score
                        } else {
                            f64::NEG_INFINITY
                        };
                        (s, m.last)
                    },
                )))
            }
        }
    }

    /// Logs the pre-mutation state of `slot` (tag and metadata) under
    /// window record `idx`.
    fn log_undo(&mut self, idx: usize, slot: usize) {
        self.undo.push(UndoEntry {
            idx,
            slot,
            block: self.shadow[slot],
            meta: self.meta[slot],
        });
    }

    /// Undoes every speculative shadow mutation made for window records
    /// `>= from_idx`, in reverse order.
    fn roll_back(&mut self, from_idx: usize) {
        while let Some(e) = self.undo.last() {
            if e.idx < from_idx {
                break;
            }
            let e = self.undo.pop().expect("just peeked");
            self.shadow[e.slot] = e.block;
            self.meta[e.slot] = e.meta;
        }
    }

    /// Drops `page` from the shadow (reality proved it absent). Ground-
    /// truth repair for a phantom left by a tolerated bypass; runs after
    /// a rollback, so no undo logging.
    fn shadow_evict(&mut self, page: PageIndex, cache: &SetAssocCache) {
        let cfg = cache.config();
        let set = cfg.set_of(page);
        let tag = cfg.tag_of(page);
        let slot0 = set * cfg.ways;
        for w in 0..cfg.ways {
            let b = &mut self.shadow[slot0 + w];
            if b.valid && b.tag == tag {
                b.valid = false;
                return;
            }
        }
    }

    /// Applies a *real* replay outcome (and the score it consumed, if any)
    /// to the shadow — used after a rollback to bring it back into
    /// lock-step with the cache, and during streaming spans to keep the
    /// victim-model metadata warm.
    fn apply_real(
        &mut self,
        r: &TraceRecord,
        outcome: &AccessOutcome,
        score: Option<f64>,
        cache: &SetAssocCache,
    ) {
        let cfg = cache.config();
        let page = r.page();
        let set = cfg.set_of(page);
        let slot0 = set * cfg.ways;
        self.touch += 1;
        match outcome {
            AccessOutcome::Hit { way } => {
                let slot = slot0 + way;
                let tag = cfg.tag_of(page);
                // Write the block too (not just recency): the shadow may
                // hold a phantom from a tolerated bypass here, and real
                // outcomes are the ground truth that heals it.
                let tracked = self.shadow[slot].valid && self.shadow[slot].tag == tag;
                let m = &mut self.meta[slot];
                if tracked {
                    m.freq = m.freq.saturating_add(1);
                    if let ShadowVictimModel::StoredScore { hit_bonus } = self.model {
                        if hit_bonus > 0.0 && m.score_state == ScoreState::Known {
                            m.score *= 1.0 + hit_bonus;
                        }
                    }
                } else {
                    // Healing a phantom: the resident block's history
                    // (hit count, stored score) is unknown to the shadow.
                    m.freq = 1;
                    m.score_state = ScoreState::Unknown;
                }
                m.last = self.touch;
                self.shadow[slot] = BlockState {
                    tag,
                    valid: true,
                    dirty: false,
                };
            }
            AccessOutcome::MissInserted { way, .. } => {
                let slot = slot0 + way;
                self.shadow[slot] = BlockState {
                    tag: cfg.tag_of(page),
                    valid: true,
                    dirty: false,
                };
                let m = &mut self.meta[slot];
                m.last = self.touch;
                m.inserted = self.touch;
                m.freq = 1;
                match score {
                    Some(s) => {
                        m.score = s;
                        m.score_state = ScoreState::Known;
                    }
                    None => m.score_state = ScoreState::Unknown,
                }
            }
            AccessOutcome::MissBypassed => {}
        }
    }

    /// Compares a replayed outcome against the speculation for record `t`
    /// of the current window. Returns `true` (and counts the kind) on a
    /// cutting divergence. Bypasses are handled by the replay loop.
    fn check_miss_divergence(&mut self, t: usize, outcome: &AccessOutcome) -> bool {
        let Pred::Miss { evicts, .. } = self.pred[t] else {
            unreachable!("miss-run replay only covers predicted misses");
        };
        match outcome {
            AccessOutcome::Hit { .. } => {
                self.spec.pred_miss_hit += 1;
                true
            }
            AccessOutcome::MissBypassed => {
                unreachable!("bypass divergence is handled by the replay loop")
            }
            AccessOutcome::MissInserted { evicted, .. } => {
                if evicted.map(|e| e.page) != evicts {
                    self.spec.victim_divergences += 1;
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// [`simulate_batched_with_warmup`] without a warm-up phase.
#[allow(clippy::too_many_arguments)]
pub fn simulate_batched(
    records: &[TraceRecord],
    cache: &mut SetAssocCache,
    admission: &mut dyn AdmissionPolicy,
    eviction: &mut dyn EvictionPolicy,
    score: Option<&mut dyn ScoreSource>,
    latency: &LatencyModel,
    series_window: Option<u64>,
) -> SimReport {
    simulate_batched_with_warmup(
        &[],
        records,
        cache,
        admission,
        eviction,
        score,
        latency,
        series_window,
    )
}

/// One-shot speculative batched simulation at [`DEFAULT_SPEC_WINDOW`].
///
/// Bit-identical to [`crate::simulate_streaming_with_warmup`]; this is the
/// path [`crate::simulate_with_warmup`] routes sources that
/// [`ScoreSource::prefers_batching`] through (any other source streams
/// here too — see [`WindowedSimulator::run`]).
#[allow(clippy::too_many_arguments)]
pub fn simulate_batched_with_warmup(
    warmup: &[TraceRecord],
    measured: &[TraceRecord],
    cache: &mut SetAssocCache,
    admission: &mut dyn AdmissionPolicy,
    eviction: &mut dyn EvictionPolicy,
    score: Option<&mut dyn ScoreSource>,
    latency: &LatencyModel,
    series_window: Option<u64>,
) -> SimReport {
    WindowedSimulator::default().run(
        warmup,
        measured,
        cache,
        admission,
        eviction,
        score,
        latency,
        series_window,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::policy::{
        AlwaysAdmit, FifoPolicy, GmmScorePolicy, LfuPolicy, LruPolicy, ThresholdAdmit,
    };
    use crate::score::{ConstantScore, FnScore, PreferBatching};
    use crate::sim::{simulate_streaming, simulate_streaming_with_warmup};

    fn small_cache() -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            capacity_bytes: 16 * 4096,
            block_bytes: 4096,
            ways: 2,
        })
        .unwrap()
    }

    fn mixed_trace(n: usize) -> Vec<TraceRecord> {
        let mut v = Vec::with_capacity(n);
        let mut cold = 500u64;
        for i in 0..n {
            if i % 3 == 0 {
                v.push(TraceRecord::read(((i / 3) as u64 % 8) << 12));
            } else if i % 7 == 0 {
                v.push(TraceRecord::write((cold % 64) << 12));
            } else {
                v.push(TraceRecord::read(cold << 12));
                cold += 1;
            }
        }
        v
    }

    #[test]
    #[should_panic(expected = "speculation window must be >= 1")]
    fn zero_window_panics() {
        let _ = WindowedSimulator::new(0);
    }

    #[test]
    #[should_panic(expected = "speculation window floor must be >= 1")]
    fn zero_floor_panics() {
        let _ = WindowedSimulator::with_params(SpecParams {
            min_window: 0,
            ..SpecParams::default()
        });
    }

    #[test]
    #[should_panic(expected = "stream_miss_fraction_div must be >= 1")]
    fn zero_probe_divisor_panics() {
        let _ = WindowedSimulator::with_params(SpecParams {
            stream_miss_fraction_div: 0,
            ..SpecParams::default()
        });
    }

    #[test]
    fn matches_streaming_with_score_source_across_windows() {
        let trace = mixed_trace(3_000);
        let lat = LatencyModel::paper_tlc();
        for w in [1usize, 3, 64, 4096] {
            let mut c1 = small_cache();
            let mut lru1 = LruPolicy::new(8, 2);
            let mut s1 = FnScore::new(|page, seq| ((page * 37 + seq) % 100) as f64 / 100.0);
            let mut a1 = ThresholdAdmit::new(0.5);
            let streaming = simulate_streaming(
                &trace,
                &mut c1,
                &mut a1,
                &mut lru1,
                Some(&mut s1),
                &lat,
                Some(128),
            );

            let mut c2 = small_cache();
            let mut lru2 = LruPolicy::new(8, 2);
            let mut s2 = PreferBatching(FnScore::new(|page, seq| {
                ((page * 37 + seq) % 100) as f64 / 100.0
            }));
            let mut a2 = ThresholdAdmit::new(0.5);
            let mut sim = WindowedSimulator::new(w);
            let batched = sim.run(
                &[],
                &trace,
                &mut c2,
                &mut a2,
                &mut lru2,
                Some(&mut s2),
                &lat,
                Some(128),
            );
            assert_eq!(streaming, batched, "window {w}");
            assert!(sim.spec_stats().windows > 0);
        }
    }

    #[test]
    fn warmup_boundary_never_straddles_a_window() {
        let trace = mixed_trace(2_000);
        let (warm, meas) = trace.split_at(700);
        let lat = LatencyModel::paper_tlc();

        let mut c1 = small_cache();
        let mut lru1 = LruPolicy::new(8, 2);
        let mut s1 = ConstantScore(1.0);
        let streaming = simulate_streaming_with_warmup(
            warm,
            meas,
            &mut c1,
            &mut AlwaysAdmit,
            &mut lru1,
            Some(&mut s1),
            &lat,
            None,
        );

        let mut c2 = small_cache();
        let mut lru2 = LruPolicy::new(8, 2);
        let mut s2 = PreferBatching(ConstantScore(1.0));
        let batched = simulate_batched_with_warmup(
            warm,
            meas,
            &mut c2,
            &mut AlwaysAdmit,
            &mut lru2,
            Some(&mut s2),
            &lat,
            None,
        );
        assert_eq!(streaming, batched);
    }

    #[test]
    fn score_free_runs_delegate_to_streaming() {
        let trace = mixed_trace(1_000);
        let lat = LatencyModel::paper_tlc();
        let mut c1 = small_cache();
        let mut f1 = FifoPolicy::new(8, 2);
        let streaming =
            simulate_streaming(&trace, &mut c1, &mut AlwaysAdmit, &mut f1, None, &lat, None);
        let mut c2 = small_cache();
        let mut f2 = FifoPolicy::new(8, 2);
        let mut sim = WindowedSimulator::default();
        let batched = sim.run(
            &[],
            &trace,
            &mut c2,
            &mut AlwaysAdmit,
            &mut f2,
            None,
            &lat,
            None,
        );
        assert_eq!(streaming, batched);
        assert_eq!(sim.spec_stats(), &SpecStats::default());
    }

    #[test]
    fn sources_that_do_not_prefer_batching_delegate_to_streaming() {
        // The simulator honours `ScoreSource::prefers_batching` itself: an
        // unwrapped source never speculates — one-shot or chunked (where
        // the streaming loop must carry the chunk's sequence base, or LRU
        // stamps would restart at every chunk).
        let trace = mixed_trace(2_000);
        let lat = LatencyModel::paper_tlc();
        let score = || FnScore::new(|page, seq| ((page * 37 + seq) % 100) as f64 / 100.0);
        let mut c1 = small_cache();
        let mut lru1 = LruPolicy::new(8, 2);
        let streaming = simulate_streaming(
            &trace,
            &mut c1,
            &mut ThresholdAdmit::new(0.5),
            &mut lru1,
            Some(&mut score()),
            &lat,
            None,
        );

        let mut c2 = small_cache();
        let mut lru2 = LruPolicy::new(8, 2);
        let mut sim = WindowedSimulator::new(256);
        let windowed = sim.run(
            &[],
            &trace,
            &mut c2,
            &mut ThresholdAdmit::new(0.5),
            &mut lru2,
            Some(&mut score()),
            &lat,
            None,
        );
        assert_eq!(streaming, windowed);
        assert_eq!(sim.spec_stats(), &SpecStats::default());

        struct Stats(crate::stats::CacheStats);
        impl ReplayObserver for Stats {
            fn on_record(&mut self, ev: &crate::sim::ReplayEvent<'_>) {
                self.0.record(ev.record.op, ev.outcome);
            }
        }
        let mut c3 = small_cache();
        let mut lru3 = LruPolicy::new(8, 2);
        let mut admit = ThresholdAdmit::new(0.5);
        let mut s3 = score();
        let mut seen = Stats(Default::default());
        for (i, chunk) in trace.chunks(300).enumerate() {
            let _ = sim.run_observed_from(
                (i * 300) as u64,
                chunk,
                &mut c3,
                &mut admit,
                &mut lru3,
                Some(&mut s3),
                &lat,
                &mut seen,
            );
            assert_eq!(sim.spec_stats(), &SpecStats::default());
        }
        assert_eq!(seen.0, streaming.stats, "chunked streaming lost its seq");
    }

    #[test]
    fn bypass_heavy_trace_counts_admission_divergences() {
        // Every cold miss scores 0.0 < threshold, so each speculated insert
        // is bypassed by the real admission policy: the speculation must
        // diverge, cut and recover, and still be bit-identical.
        let trace = mixed_trace(2_000);
        let lat = LatencyModel::paper_tlc();
        let mut c1 = small_cache();
        let mut lru1 = LruPolicy::new(8, 2);
        let mut s1 = FnScore::new(|page, _| if page < 8 { 1.0 } else { 0.0 });
        let mut a1 = ThresholdAdmit::new(0.5);
        let streaming = simulate_streaming(
            &trace,
            &mut c1,
            &mut a1,
            &mut lru1,
            Some(&mut s1),
            &lat,
            None,
        );

        let mut c2 = small_cache();
        let mut lru2 = LruPolicy::new(8, 2);
        let mut s2 = PreferBatching(FnScore::new(|page, _| if page < 8 { 1.0 } else { 0.0 }));
        let mut a2 = ThresholdAdmit::new(0.5);
        let mut sim = WindowedSimulator::new(256);
        let batched = sim.run(
            &[],
            &trace,
            &mut c2,
            &mut a2,
            &mut lru2,
            Some(&mut s2),
            &lat,
            None,
        );
        assert_eq!(streaming, batched);
        let spec = sim.spec_stats();
        assert!(spec.admission_divergences > 0, "{spec:?}");
        assert!(spec.divergences() > 0);
    }

    #[test]
    fn hit_heavy_trace_flips_to_streaming_mode() {
        // 8 hot pages fit the cache: after the cold start everything
        // hits, so the mode probe must drop speculation and stream —
        // still bit-identically.
        let trace: Vec<TraceRecord> = (0..6_000u64)
            .map(|i| TraceRecord::read((i % 8) << 12))
            .collect();
        let lat = LatencyModel::paper_tlc();

        let mut c1 = small_cache();
        let mut lru1 = LruPolicy::new(8, 2);
        let mut s1 = FnScore::new(|page, seq| ((page * 37 + seq) % 100) as f64 / 100.0);
        let streaming = simulate_streaming(
            &trace,
            &mut c1,
            &mut ThresholdAdmit::new(0.5),
            &mut lru1,
            Some(&mut s1),
            &lat,
            None,
        );

        let mut c2 = small_cache();
        let mut lru2 = LruPolicy::new(8, 2);
        let mut s2 = PreferBatching(FnScore::new(|page, seq| {
            ((page * 37 + seq) % 100) as f64 / 100.0
        }));
        let mut sim = WindowedSimulator::new(256);
        let batched = sim.run(
            &[],
            &trace,
            &mut c2,
            &mut ThresholdAdmit::new(0.5),
            &mut lru2,
            Some(&mut s2),
            &lat,
            None,
        );
        assert_eq!(streaming, batched);
        let spec = sim.spec_stats();
        assert!(
            spec.streamed_records > 4_000,
            "hit-heavy phases must stream: {spec:?}"
        );
    }

    #[test]
    fn probe_divisor_knob_changes_streaming_eagerness() {
        // Same mixed trace; a divisor of 1 can only stream all-miss-free
        // windows, so far fewer records stream than at the default 8.
        let trace: Vec<TraceRecord> = (0..6_000u64)
            .map(|i| TraceRecord::read((i % 24) << 12))
            .collect();
        let lat = LatencyModel::paper_tlc();
        let mut streamed = Vec::new();
        for div in [1usize, 8] {
            let mut c = small_cache();
            let mut lru = LruPolicy::new(8, 2);
            let mut s = PreferBatching(ConstantScore(1.0));
            let mut sim = WindowedSimulator::with_params(SpecParams {
                window: 256,
                stream_miss_fraction_div: div,
                ..SpecParams::default()
            });
            sim.run(
                &[],
                &trace,
                &mut c,
                &mut AlwaysAdmit,
                &mut lru,
                Some(&mut s),
                &lat,
                None,
            );
            streamed.push(sim.spec_stats().streamed_records);
        }
        assert!(
            streamed[0] <= streamed[1],
            "divisor 1 must stream no more than divisor 8: {streamed:?}"
        );
    }

    #[test]
    fn miss_heavy_trace_batches_nearly_everything() {
        // Cyclic scan through 64 pages in a 16-page cache with LRU: every
        // access misses, speculation never diverges, one batched call per
        // window.
        let trace: Vec<TraceRecord> = (0..4_096u64)
            .map(|i| TraceRecord::read((i % 64) << 12))
            .collect();
        let lat = LatencyModel::paper_tlc();
        let mut c = small_cache();
        let mut lru = LruPolicy::new(8, 2);
        let mut s = PreferBatching(ConstantScore(1.0));
        let mut sim = WindowedSimulator::new(1024);
        let rep = sim.run(
            &[],
            &trace,
            &mut c,
            &mut ThresholdAdmit::new(0.5),
            &mut lru,
            Some(&mut s),
            &lat,
            None,
        );
        assert!(rep.stats.miss_rate() > 0.99);
        let spec = sim.spec_stats();
        assert_eq!(spec.divergences(), 0, "{spec:?}");
        assert_eq!(spec.sync_scores, 0);
        assert_eq!(spec.batch_calls, 4); // 4096 / 1024
        assert!((spec.batched_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gmm_score_scan_speculates_exactly_with_run_splits() {
        // All-miss scan under gmm-score eviction: victims are ranked by
        // stored score, which the policy-aware shadow learns from its own
        // prefetches. Conflict misses whose victim depends on a score
        // still in flight split the run instead of diverging — so the
        // whole scan replays with zero divergence and (once the cache is
        // full) split-bounded batch calls.
        let trace: Vec<TraceRecord> = (0..4_096u64)
            .map(|i| TraceRecord::read((i % 64) << 12))
            .collect();
        let lat = LatencyModel::paper_tlc();

        let mut c1 = small_cache();
        let mut g1 = GmmScorePolicy::new(8, 2);
        let mut s1 = FnScore::new(|page, seq| ((page * 13 + seq * 7) % 101) as f64 / 101.0);
        let streaming = simulate_streaming(
            &trace,
            &mut c1,
            &mut AlwaysAdmit,
            &mut g1,
            Some(&mut s1),
            &lat,
            None,
        );

        let mut c2 = small_cache();
        let mut g2 = GmmScorePolicy::new(8, 2);
        let mut s2 = PreferBatching(FnScore::new(|page, seq| {
            ((page * 13 + seq * 7) % 101) as f64 / 101.0
        }));
        let mut sim = WindowedSimulator::new(1024);
        let batched = sim.run(
            &[],
            &trace,
            &mut c2,
            &mut AlwaysAdmit,
            &mut g2,
            Some(&mut s2),
            &lat,
            None,
        );
        assert_eq!(streaming, batched);
        let spec = sim.spec_stats();
        assert_eq!(spec.divergences(), 0, "{spec:?}");
        assert_eq!(spec.victim_divergences, 0, "{spec:?}");
        assert!(spec.run_splits > 0, "conflict scan must split: {spec:?}");
        assert!((spec.batched_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lfu_and_fifo_scans_speculate_without_divergence() {
        let trace: Vec<TraceRecord> = (0..4_096u64)
            .map(|i| TraceRecord::read((i % 64) << 12))
            .collect();
        let lat = LatencyModel::paper_tlc();
        type MakeEviction = fn() -> Box<dyn EvictionPolicy>;
        let policies: [(&str, MakeEviction); 2] = [
            ("fifo", || Box::new(FifoPolicy::new(8, 2))),
            ("lfu", || Box::new(LfuPolicy::new(8, 2))),
        ];
        for (name, make) in policies {
            let mut c1 = small_cache();
            let mut e1 = make();
            let mut s1 = ConstantScore(0.5);
            let streaming = simulate_streaming(
                &trace,
                &mut c1,
                &mut AlwaysAdmit,
                e1.as_mut(),
                Some(&mut s1),
                &lat,
                None,
            );
            let mut c2 = small_cache();
            let mut e2 = make();
            let mut s2 = PreferBatching(ConstantScore(0.5));
            let mut sim = WindowedSimulator::new(1024);
            let batched = sim.run(
                &[],
                &trace,
                &mut c2,
                &mut AlwaysAdmit,
                e2.as_mut(),
                Some(&mut s2),
                &lat,
                None,
            );
            assert_eq!(streaming, batched, "{name}");
            let spec = sim.spec_stats();
            assert_eq!(spec.divergences(), 0, "{name}: {spec:?}");
            assert_eq!(spec.run_splits, 0, "{name} needs no splits: {spec:?}");
        }
    }

    #[test]
    fn gmm_score_hit_bonus_is_mirrored_by_the_shadow() {
        // With a positive hit bonus the real policy rescales stored scores
        // on every hit; the shadow mirrors the same multiplies, so a
        // bypass-free mixed trace still speculates divergence-free.
        let trace = mixed_trace(3_000);
        let lat = LatencyModel::paper_tlc();

        let mut c1 = small_cache();
        let mut g1 = GmmScorePolicy::with_hit_bonus(8, 2, 0.25);
        let mut s1 = FnScore::new(|page, seq| ((page * 29 + seq * 3) % 89) as f64 / 89.0);
        let streaming = simulate_streaming(
            &trace,
            &mut c1,
            &mut AlwaysAdmit,
            &mut g1,
            Some(&mut s1),
            &lat,
            None,
        );

        let mut c2 = small_cache();
        let mut g2 = GmmScorePolicy::with_hit_bonus(8, 2, 0.25);
        let mut s2 = PreferBatching(FnScore::new(|page, seq| {
            ((page * 29 + seq * 3) % 89) as f64 / 89.0
        }));
        let mut sim = WindowedSimulator::new(512);
        let batched = sim.run(
            &[],
            &trace,
            &mut c2,
            &mut AlwaysAdmit,
            &mut g2,
            Some(&mut s2),
            &lat,
            None,
        );
        assert_eq!(streaming, batched);
        let spec = sim.spec_stats();
        assert_eq!(spec.victim_divergences, 0, "{spec:?}");
        assert_eq!(spec.class_divergences(), 0, "{spec:?}");
    }

    #[test]
    fn chunked_continuation_matches_one_shot_streaming() {
        // The serving workers replay ragged queue-drain chunks through
        // `run_observed_from`: sequence numbers and shadow metadata must
        // be continuous across chunk boundaries, so the outcome stream is
        // bit-identical to one uninterrupted replay.
        use crate::sim::ReplayEvent;
        struct Collect(Vec<AccessOutcome>);
        impl ReplayObserver for Collect {
            fn on_record(&mut self, ev: &ReplayEvent<'_>) {
                self.0.push(*ev.outcome);
            }
        }
        let trace = mixed_trace(3_000);
        let lat = LatencyModel::paper_tlc();

        let mut c1 = small_cache();
        let mut ev1 = GmmScorePolicy::new(8, 2);
        let mut s1 = FnScore::new(|page, seq| ((page * 37 + seq) % 100) as f64 / 100.0);
        let mut a1 = ThresholdAdmit::new(0.4);
        let mut reference = Collect(Vec::new());
        let _ = crate::sim::simulate_streaming_observed_with_warmup(
            &[],
            &trace,
            &mut c1,
            &mut a1,
            &mut ev1,
            Some(&mut s1),
            &lat,
            None,
            &mut reference,
        );

        let mut c2 = small_cache();
        let mut ev2 = GmmScorePolicy::new(8, 2);
        let mut s2 = PreferBatching(FnScore::new(|page, seq| {
            ((page * 37 + seq) % 100) as f64 / 100.0
        }));
        let mut a2 = ThresholdAdmit::new(0.4);
        let mut sim = WindowedSimulator::new(256);
        let mut got = Collect(Vec::new());
        let sizes = [1usize, 7, 64, 513, 300];
        let (mut base, mut k) = (0usize, 0usize);
        while base < trace.len() {
            let take = sizes[k % sizes.len()].min(trace.len() - base);
            k += 1;
            let _ = sim.run_observed_from(
                base as u64,
                &trace[base..base + take],
                &mut c2,
                &mut a2,
                &mut ev2,
                Some(&mut s2),
                &lat,
                &mut got,
            );
            base += take;
        }
        assert_eq!(reference.0, got.0, "chunk boundaries changed outcomes");
    }
}
