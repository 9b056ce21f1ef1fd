//! Sharded multi-tenant replay: the set-associative cache partitioned by
//! set index across scoped threads, bit-identical to the single-threaded
//! simulator by construction.
//!
//! # Why set partitioning is exact
//!
//! Every decision the simulator makes about a request is local to the
//! request's *set*: tag lookup, victim choice and per-block policy
//! metadata never cross a set boundary. Partitioning the sets into `S`
//! disjoint groups (`set mod S`) therefore partitions the trace into `S`
//! subsequences whose replays cannot interact — each shard replays its
//! subsequence against its own tag store and its own policy state and
//! produces, per record, exactly the outcome the single-threaded replay
//! produces at the same global position. Three contracts make the "cannot
//! interact" claim airtight:
//!
//! * **Policies** must rank by the relative order of the events they see
//!   within each set ([`EvictionPolicy::shard_deterministic`]): shard-local
//!   sequence numbers are order-isomorphic to the global ones, so stamps,
//!   counts, stored scores and Belady positions (built from the same shard
//!   subsequence) all rank identically. [`crate::RandomPolicy`] — whose
//!   RNG stream is a global interleaving artifact — reports `false` and is
//!   refused above one shard.
//! * **Scores** are functions of the missed record and its global trace
//!   position — the Algorithm 1 clock, which counts *every* request, is a
//!   closed form of it. A miss is scored with its position
//!   ([`ScoreSource::score`] takes it: the shard's index entry), so a
//!   shard's scorer clone never needs to see a foreign record, or even its
//!   own hits, and a source that scores from the record and its position
//!   alone ([`ScoreSource::shardable`]) scores bit-identically to the
//!   single-threaded stream.
//! * **Accounting is a sum** (argued in `sim.rs`'s module docs): a report
//!   is integer counters — [`CacheStats`], and a [`crate::MissSeries`]
//!   bucketed by each record's *global* position, its shard-index entry —
//!   with modeled time derived from them once. Each shard counts its own
//!   records; the run's report is the shards' counters added up and costed
//!   once ([`ShardSupervisor::merge`], which checks conservation), so it
//!   is bit-identical at every shard count *by arithmetic*, under every
//!   latency model, with no outcome buffered and no record revisited.
//!   `tests/shard_equivalence.rs` holds it against an in-order
//!   per-request oracle across the policy × admission × score grid. Device
//!   faults ride the [`FaultPlan`] the supervisor carries: each shard's
//!   accounting rolls its own measured misses by global position and counts
//!   what they added, one more sum (exact under integer device constants).
//!
//! # Zero-copy fan-out and parallel setup
//!
//! A replay's input is one slice — the whole trace, warm-up ⧺ measured —
//! and `measured_from`, the position measurement starts at; a shard is
//! that slice plus, above one shard, its position list ([`ShardCtx`]). The
//! fan-out never copies the trace. One routing pass builds a
//! [`ShardPartition`] — per-shard ascending lists of `u32` global trace
//! positions, ~4 bytes per record — and each worker walks its list over
//! the caller's slice. An entry is its record's index, scorer-clock
//! position and miss-series position at once, so nothing else is stored
//! per record (`tests/shard_alloc.rs` pins the routing cost, and the whole
//! run's), and only the counting reads `measured_from`.
//! Policy construction (`make_shard` — including full Belady oracle
//! passes over the shard subtrace) and the shard-determinism contract
//! checks run *inside* each worker, in parallel; the supervisor re-runs
//! them on the calling thread only when recovering a dead shard. All of
//! this — the life of a shard — is [`ShardSupervisor`];
//! [`ShardedSimulator::run`] is its offline client at every shard count,
//! `icgmm-serve` its live one.
//!
//! # One shard runs inline
//!
//! At `S = 1` the shard *is* the whole trace, so
//! [`ShardedSimulator::run`] replays it on the calling thread through the
//! same per-shard function the workers use: the whole slice instead of
//! a [`ShardPartition`], no scoped thread and — unless a panic point is
//! armed — no replay observer; its report goes through the same sum, of
//! one term. The supervisor's catch-and-re-replay of a panicked shard
//! stays. This is what lets the single-threaded front-ends *be* the
//! one-shard geometry at no cost (`tests/shard_alloc_inline.rs`).

use crate::adapt::AdaptStats;
use crate::cache::SetAssocCache;
use crate::config::{CacheConfig, CacheConfigError, SetMap};
use crate::fault::{FaultPlan, FaultStats};
use crate::latency::LatencyModel;
use crate::policy::{AdmissionPolicy, EvictionPolicy};
use crate::score::ScoreSource;
use crate::sim::{Accounting, ReplayEvent, ReplayObserver, SimReport};
use crate::stats::{CacheStats, MissSeries};
use icgmm_trace::{PageIndex, TraceRecord};
use std::any::Any;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread;

/// Error from [`ShardedSimulator::run`] and [`ShardSupervisor`] — every
/// replay front-end's refusals of its inputs, and its shard failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardRunError {
    /// Invalid cache geometry.
    Config(CacheConfigError),
    /// A shard count of zero: there is nothing to partition the sets over.
    ZeroShards,
    /// `series_window = Some(0)`: a miss-rate series needs at least one
    /// request per point. Refused before any shard is started.
    ZeroSeriesWindow,
    /// The trace does not fit the `u32` index-based fan-out: a record's
    /// global position would truncate. Raised by
    /// [`ShardPartition::build`] *before* any routing happens — a trace
    /// this long must fail loudly, not route records to the wrong shard.
    TraceTooLong {
        /// Total records (warm-up + measured) the caller presented.
        records: usize,
    },
    /// `measured_from` lies past the end of the trace, so measurement has
    /// no position to start at. Refused before any shard is started, not
    /// clamped.
    MeasuredPastEnd {
        /// The requested first measured position.
        measured_from: usize,
        /// Records the caller presented.
        records: usize,
    },
    /// A shard worker panicked *and* the supervisor's re-replay of that
    /// shard's subtrace panicked too. A lone worker panic (e.g. a
    /// [`FaultPlan`]-armed panic point) is recovered transparently; this
    /// error means the panic reproduced deterministically — a genuine bug,
    /// not an injected fault.
    ShardFailed {
        /// Index of the failing shard.
        shard: usize,
        /// The panic payloads, worker first, then the supervisor replay.
        message: String,
    },
    /// The policies `make_shard` built cannot reproduce the
    /// single-threaded replay above one shard (see the module docs;
    /// checked by [`ShardSupervisor::replay`]).
    Contract {
        /// Index of the first shard (in shard order) that was refused.
        shard: usize,
        /// The refusal, naming the offending policy or score source.
        message: String,
    },
}

impl fmt::Display for ShardRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardRunError::Config(e) => e.fmt(f),
            ShardRunError::ZeroShards => write!(f, "shard count must be >= 1"),
            ShardRunError::ZeroSeriesWindow => write!(f, "series_window must be >= 1"),
            ShardRunError::TraceTooLong { records } => write!(
                f,
                "trace too long for u32 index-based fan-out ({records} records, max {})",
                u32::MAX as u64 + 1
            ),
            ShardRunError::MeasuredPastEnd {
                measured_from,
                records,
            } => write!(
                f,
                "measured_from {measured_from} is past the end of the trace ({records} records)"
            ),
            ShardRunError::ShardFailed { shard, message } => {
                write!(f, "shard {shard} failed: {message}")
            }
            ShardRunError::Contract { shard, message } => {
                write!(f, "shard {shard} refused: {message}")
            }
        }
    }
}

impl Error for ShardRunError {}

impl From<CacheConfigError> for ShardRunError {
    fn from(e: CacheConfigError) -> Self {
        ShardRunError::Config(e)
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// The routing rule of a sharded replay: a page belongs to the shard its
/// set index is congruent to. [`ShardPartition::build`] routes by it, and
/// so does [`ShardCtx::routed`] — one function, so a walk that finds a
/// shard's records without the partition's list finds exactly them.
#[derive(Clone, Copy, Debug)]
struct ShardRoute {
    map: SetMap,
    shards: usize,
}

impl ShardRoute {
    /// `set mod shards`, through the set mapping decoded once.
    #[inline]
    fn shard_of(self, page: PageIndex) -> usize {
        self.map.split(page).0 % self.shards
    }
}

/// The index-based fan-out: for each shard, the ascending list of global
/// trace positions whose sets it owns.
///
/// This is the entire routing cost of a sharded replay — ~4 bytes per
/// record, built in one two-pass sweep (exact-size allocation, no
/// re-growth) — replacing the per-shard `TraceRecord` copies of earlier
/// revisions. An entry is everything a record needs: its index into the
/// trace, its scorer-clock position and its miss-series position.
#[derive(Clone, Debug)]
pub struct ShardPartition {
    route: ShardRoute,
    index: Vec<Vec<u32>>,
}

impl ShardPartition {
    /// Whether a trace of `records` total records (warm-up + measured)
    /// fits the `u32` position index: every global position `0..records`
    /// must be representable, so the limit is `u32::MAX as usize + 1`
    /// records. Pure guard arithmetic — no allocation — so the boundary is
    /// unit-testable without materializing 4 Gi records.
    ///
    /// # Errors
    ///
    /// Returns [`ShardRunError::TraceTooLong`] past the limit.
    pub fn check_capacity(records: usize) -> Result<(), ShardRunError> {
        // The largest stored position is `records - 1`; it must fit u32.
        if records > 0 && u32::try_from(records - 1).is_err() {
            return Err(ShardRunError::TraceTooLong { records });
        }
        Ok(())
    }

    /// Routes every record of `warmup` ⧺ `measured` to its owning shard
    /// (`set mod shards`) and records only its global position. Routing
    /// ignores where the warm-up ends: a caller holding the trace as one
    /// slice passes `&[]` and the slice.
    ///
    /// # Errors
    ///
    /// Returns [`ShardRunError::Config`] for invalid cache geometry (the
    /// set mapping would divide by zero) and
    /// [`ShardRunError::TraceTooLong`] when the trace does not fit
    /// `u32` positions (4 billion records would mean a >64 GiB trace —
    /// far beyond any in-memory replay this engine targets). The check
    /// runs before any routing: silent `as u32` truncation would route
    /// late records to wrong shards and corrupt the replay.
    /// [`ShardRunError::ZeroShards`] when `shards == 0`.
    pub fn build(
        shards: usize,
        cache_cfg: &CacheConfig,
        warmup: &[TraceRecord],
        measured: &[TraceRecord],
    ) -> Result<Self, ShardRunError> {
        let map = SetMap::new(cache_cfg)?;
        if shards == 0 {
            return Err(ShardRunError::ZeroShards);
        }
        let n = warmup.len() + measured.len();
        Self::check_capacity(n)?;
        let mut part = ShardPartition {
            route: ShardRoute { map, shards },
            index: vec![Vec::new(); shards],
        };
        // Two passes: count, then fill exact-capacity lists — the routing
        // allocation is precisely Σ len(shard) × 4 bytes, which the
        // tracking-allocator test asserts.
        let mut counts = vec![0usize; shards];
        for r in warmup.iter().chain(measured) {
            counts[part.shard_of(r.page())] += 1;
        }
        for (list, &c) in part.index.iter_mut().zip(&counts) {
            list.reserve_exact(c);
        }
        for (i, r) in warmup.iter().chain(measured).enumerate() {
            let pos = u32::try_from(i).expect("checked by check_capacity");
            let shard = part.shard_of(r.page());
            part.index[shard].push(pos);
        }
        Ok(part)
    }

    /// The shard owning `page`: its set index modulo the shard count,
    /// through the set mapping decoded once in [`ShardPartition::build`].
    #[inline]
    pub fn shard_of(&self, page: PageIndex) -> usize {
        self.route.shard_of(page)
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.index.len()
    }

    /// The ascending global positions shard `shard` owns.
    pub fn positions(&self, shard: usize) -> &[u32] {
        &self.index[shard]
    }
}

/// One shard of a replay: its index, the shard count and the records it
/// replays — the whole trace, or above one shard the positions its
/// [`ShardPartition`] list names, in trace order. `make_shard` receives
/// it; Belady-style oracles must be built from exactly
/// [`ShardCtx::records`], whose order is the shard-local sequence numbers
/// the replay will present
/// ([`BeladyPolicy::from_pages`](crate::BeladyPolicy::from_pages) over
/// `ctx.records().map(|r| r.page().raw())` builds one without
/// materializing the subtrace).
#[derive(Clone, Copy, Debug)]
pub struct ShardCtx<'a> {
    /// This shard's index in `0..shards`.
    pub shard: usize,
    /// Total shard count.
    pub shards: usize,
    /// The whole trace (warm-up ⧺ measured).
    trace: &'a [TraceRecord],
    /// The positions this shard owns; `None` is the whole trace.
    positions: Option<&'a [u32]>,
    /// The rule that routed them; `None` is the whole trace.
    route: Option<ShardRoute>,
}

impl<'a> ShardCtx<'a> {
    /// The records this shard replays, in order.
    pub fn records(self) -> impl ExactSizeIterator<Item = &'a TraceRecord> {
        self.walk().map(|(_, r)| r)
    }

    /// [`ShardCtx::records`] with their global trace positions: what the
    /// replay loop walks.
    fn walk(self) -> impl ExactSizeIterator<Item = (u64, &'a TraceRecord)> {
        let (trace, positions) = (self.trace, self.positions);
        let n = positions.map_or(trace.len(), <[u32]>::len);
        (0..n).map(move |i| {
            let pos = positions.map_or(i, |p| p[i] as usize);
            (pos as u64, &trace[pos])
        })
    }

    /// The same walk over `records` — the slice the supervisor replays —
    /// found by the routing rule instead of read off the partition's list.
    /// It borrows nothing of the ctx, so it may outlive the partition: a
    /// shard's adaptation producer walks it on a thread of its own.
    pub fn routed<'t>(
        &self,
        records: &'t [TraceRecord],
    ) -> impl Iterator<Item = (u64, &'t TraceRecord)> + Send + 't {
        let (route, shard) = (self.route, self.shard);
        (0u64..)
            .zip(records)
            .filter(move |(_, r)| route.is_none_or(|route| route.shard_of(r.page()) == shard))
    }
}

/// The per-shard replay state a [`ShardedSimulator`] caller provides:
/// fresh policy instances and (for scored runs) a scorer clone. Everything
/// crosses a thread boundary, hence the `Send` bounds.
///
/// Admission policies must be stateless or per-set-deterministic in the
/// same sense as [`EvictionPolicy::shard_deterministic`] (both in-crate
/// admissions are stateless); eviction policies are checked through that
/// method. Score sources must report [`ScoreSource::shardable`] when
/// running above one shard.
pub struct ShardPolicies {
    /// Admission policy instance for this shard.
    pub admission: Box<dyn AdmissionPolicy + Send>,
    /// Eviction policy instance for this shard.
    pub eviction: Box<dyn EvictionPolicy + Send>,
    /// Scorer clone for this shard (`None` for score-free baselines).
    pub score: Option<Box<dyn ScoreSource + Send>>,
}

/// The shard-determinism contract (see the module docs): the refusal
/// message (stable "not shard-deterministic" / "shardable" wording the
/// contract tests match on) when `shards > 1` and the policies cannot
/// reproduce the single-threaded replay.
fn shard_contract(shards: usize, p: &ShardPolicies) -> Result<(), String> {
    if shards <= 1 {
        return Ok(());
    }
    if !p.eviction.shard_deterministic() {
        return Err(format!(
            "eviction policy {:?} is not shard-deterministic: its decisions depend on \
             cross-set interleaving, so set-partitioned replay cannot reproduce the \
             single-threaded run above one shard",
            p.eviction.name()
        ));
    }
    if let Some(score) = &p.score {
        if !score.shardable() {
            return Err("score source reads more than the record and its position \
                 (ScoreSource::shardable is false); sharded replay would change scores"
                .to_string());
        }
    }
    Ok(())
}

/// Result of one sharded replay.
#[derive(Clone, Debug)]
pub struct ShardedReport {
    /// The merged report — bit-identical to
    /// [`crate::simulate_streaming_with_warmup`] over
    /// `records[..measured_from]` and `records[measured_from..]`, for every
    /// shard count.
    pub sim: SimReport,
    /// Replay events that consumed a score — i.e. scored misses, warm-up
    /// included: the policy engine's inference count.
    pub scores_consumed: u64,
    /// Per-shard reports, for load-balance diagnostics — the terms of the
    /// sum: [`ShardedReport::sim`]'s `stats`, `miss_series` (a shard's
    /// holds its share of every window) and `fault` / `adapt` blocks are
    /// theirs added up, plus the supervisor's `shard_panics` /
    /// `shard_recoveries`.
    pub per_shard: Vec<SimReport>,
}

/// The sharded replay engine. Holds only configuration (shard count,
/// fault plan); per-run state lives in a [`ShardSupervisor`] and on the
/// worker threads.
#[derive(Clone, Debug)]
pub struct ShardedSimulator {
    shards: usize,
    fault: FaultPlan,
}

/// What one shard's replay hands back: its own report — what it counted —
/// and how many of its records consumed a score.
type ShardDone = (SimReport, u64);

/// The [`FaultPlan`]'s armed panic point on a shard's replay-event stream:
/// dies at the shard-local record index it holds — after the cache decided
/// that record (and, on a miss, the scorer scored it), before it is
/// counted.
struct PanicPoint(u64);

impl ReplayObserver for PanicPoint {
    fn on_record(&mut self, ev: &ReplayEvent<'_>) {
        if ev.seq == self.0 {
            // resume_unwind skips the panic hook: an armed panic is an
            // expected, supervisor-recovered event, not stderr noise.
            resume_unwind(Box::new(format!(
                "fault-plan armed panic at shard-local record {}",
                ev.seq
            )));
        }
    }
}

/// The life of a shard, for one run: build its policies, check the
/// shard-determinism contract, replay its records with the fault plan's
/// panic point armed — and, when the shard's worker dies, re-replay it
/// once on the supervising thread, count the event, and fail typed if the
/// death reproduces — then add the shards' reports up. The offline engine
/// and the serving front-end (whose workers feed the replay from a queue
/// instead of a slice) are both clients of this one type, so what they
/// refuse, arm, replay, recover, sum and report cannot drift apart. Plain
/// shared data: workers call [`Self::replay`], the supervising thread
/// [`Self::recover`] and [`Self::merge`].
pub struct ShardSupervisor<'a> {
    cache_cfg: CacheConfig,
    latency: LatencyModel,
    make_shard: &'a (dyn Fn(&ShardCtx<'_>) -> ShardPolicies + Sync),
    fault: FaultPlan,
    /// `None` is the inline whole-trace shard.
    part: Option<&'a ShardPartition>,
    records: &'a [TraceRecord],
    measured_from: usize,
    series_window: Option<u64>,
}

impl<'a> ShardSupervisor<'a> {
    /// A supervisor for one run of `part`'s shards over `records` (warm-up
    /// ⧺ measured, measured from position `measured_from` on — the slice
    /// and the `cache_cfg` that `part` was built from:
    /// [`ShardPartition::build`] validated the geometry); `part: None` is
    /// the one whole-trace shard [`ShardedSimulator::run`] replays inline
    /// at `S = 1`. `make_shard` runs on whichever thread replays a
    /// shard; `fault` arms the per-shard panic points and
    /// device faults;
    /// `series_window`, when set, has every shard keep its share of a
    /// per-window miss series.
    ///
    /// # Errors
    ///
    /// [`ShardRunError::ZeroSeriesWindow`] for `series_window = Some(0)`,
    /// [`ShardRunError::MeasuredPastEnd`] for `measured_from >
    /// records.len()`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cache_cfg: CacheConfig,
        latency: &LatencyModel,
        make_shard: &'a (dyn Fn(&ShardCtx<'_>) -> ShardPolicies + Sync),
        fault: FaultPlan,
        part: Option<&'a ShardPartition>,
        records: &'a [TraceRecord],
        measured_from: usize,
        series_window: Option<u64>,
    ) -> Result<Self, ShardRunError> {
        if series_window == Some(0) {
            return Err(ShardRunError::ZeroSeriesWindow);
        }
        if measured_from > records.len() {
            return Err(ShardRunError::MeasuredPastEnd {
                measured_from,
                records: records.len(),
            });
        }
        Ok(ShardSupervisor {
            cache_cfg,
            latency: *latency,
            make_shard,
            fault,
            part,
            records,
            measured_from,
            series_window,
        })
    }

    /// Shard `shard`: the trace and, above one shard, its position list.
    fn ctx(&self, shard: usize) -> ShardCtx<'a> {
        ShardCtx {
            shard,
            shards: self.part.map_or(1, ShardPartition::shards),
            trace: self.records,
            positions: self.part.map(|part| part.positions(shard)),
            route: self.part.map(|part| part.route),
        }
    }

    /// Shard `shard`'s first attempt, over `walk`: its records with their
    /// global trace positions, in trace order — exactly the positions its
    /// [`ShardCtx`] names (offline, the caller's slice walked along the
    /// shard's [`ShardPartition`] list; served, what the worker's queue
    /// delivers). Builds the shard's policies (`make_shard` over its
    /// [`ShardCtx`]), checks the shard-determinism contract and runs the
    /// streaming loop with the fault plan's panic point armed — independent
    /// of every other shard (own cache, policies, scorer clone and
    /// counters), down to the report's `fault` / `adapt` blocks, which are
    /// what this shard counted. Returns the shard's report and how many of
    /// its records consumed a score. A refused shard returns before it
    /// pulls a record from `walk`.
    ///
    /// # Errors
    ///
    /// [`ShardRunError::Contract`] when the policies cannot reproduce the
    /// single-threaded replay above one shard.
    pub fn replay<'r>(
        &self,
        shard: usize,
        walk: impl Iterator<Item = (u64, &'r TraceRecord)>,
    ) -> Result<(SimReport, u64), ShardRunError> {
        let len = self.ctx(shard).records().len();
        self.attempt(shard, self.fault.shard_panic_point(shard, len), walk)
    }

    /// One attempt at shard `shard` (see [`Self::replay`]), dying at
    /// `panic_at` if set; a re-replay, or a shard with no armed point, runs
    /// unobserved.
    fn attempt<'r>(
        &self,
        shard: usize,
        panic_at: Option<u64>,
        walk: impl Iterator<Item = (u64, &'r TraceRecord)>,
    ) -> Result<ShardDone, ShardRunError> {
        let ctx = self.ctx(shard);
        let mut pol = (self.make_shard)(&ctx);
        shard_contract(ctx.shards, &pol)
            .map_err(|message| ShardRunError::Contract { shard, message })?;
        let mut cache = SetAssocCache::new(self.cache_cfg).expect("geometry validated");
        let from = self.measured_from as u64;
        let mut acct = Accounting::new(from, self.series_window, &self.fault, &self.latency);
        let mut point = panic_at.map(PanicPoint);
        acct.observer = point.as_mut().map(|p| p as &mut dyn ReplayObserver);
        let (mut report, scored) = crate::sim::simulate_streaming_impl(
            walk,
            &mut cache,
            pol.admission.as_mut(),
            pol.eviction.as_mut(),
            pol.score.as_deref_mut().map(|s| s as &mut dyn ScoreSource),
            acct,
        );
        if let Some(score) = &mut pol.score {
            score.telemetry(&mut report.fault, &mut report.adapt);
        }
        Ok((report, scored))
    }

    /// Graceful degradation for one shard, given what joining its first
    /// attempt returned. A panicked attempt left nothing behind — its
    /// counters died with it — so the same shard, with fresh policies and
    /// the panic point disarmed, is replayed on the calling thread. The
    /// replay is deterministic, so the outcome is bit-identical to a run
    /// where nothing died; a second panic means the failure reproduces (a
    /// genuine bug, not an injected fault) and is returned as an error
    /// carrying both payloads.
    fn supervise(
        &self,
        shard: usize,
        first: thread::Result<Result<ShardDone, ShardRunError>>,
        fault: &mut FaultStats,
    ) -> Result<ShardDone, ShardRunError> {
        let worker = match first {
            Ok(done) => return done,
            Err(payload) => payload,
        };
        fault.shard_panics += 1;
        let walk = self.ctx(shard).walk();
        match catch_unwind(AssertUnwindSafe(|| self.attempt(shard, None, walk))) {
            Ok(done) => {
                let done = done?;
                fault.shard_recoveries += 1;
                Ok(done)
            }
            Err(p) => Err(ShardRunError::ShardFailed {
                shard,
                message: format!(
                    "worker panicked ({}); supervisor re-replay panicked too ({})",
                    panic_message(worker),
                    panic_message(p)
                ),
            }),
        }
    }

    /// Recovers shard `shard` after its live worker died with panic
    /// payload `worker`: the death and the recovery are counted in `fault`,
    /// and the whole shard is re-replayed offline on the calling thread.
    /// Returns the shard's report and scored count, which stand in for
    /// everything the dead worker had counted.
    ///
    /// # Errors
    ///
    /// [`ShardRunError::ShardFailed`], carrying both panic payloads, when
    /// the re-replay dies too.
    pub fn recover(
        &self,
        shard: usize,
        worker: Box<dyn Any + Send>,
        fault: &mut FaultStats,
    ) -> Result<(SimReport, u64), ShardRunError> {
        self.supervise(shard, Err(worker), fault)
    }

    /// The run's report from its shards' `(report, scored count)`s, in
    /// shard order: counters, series, `fault` / `adapt` blocks and scored
    /// counts added up (on top of `fault`, the supervisor's own panic /
    /// recovery counts), modeled time derived from the summed counters —
    /// the single-threaded report, by the module docs' argument.
    ///
    /// # Panics
    ///
    /// Panics when the shards' accesses do not add up to the measured
    /// records: one was lost, duplicated or counted in the wrong phase on
    /// its way to a shard — a transport bug, not to be papered over by a
    /// plausible-looking report.
    pub fn merge(&self, shards: Vec<(SimReport, u64)>, mut fault: FaultStats) -> ShardedReport {
        let mut stats = CacheStats::default();
        let mut series = self.series_window.map(MissSeries::new);
        let mut adapt = AdaptStats::default();
        let mut scores_consumed = 0;
        for (report, scored) in &shards {
            stats.merge(&report.stats);
            if let (Some(sum), Some(part)) = (series.as_mut(), &report.miss_series) {
                sum.merge(part);
            }
            fault.merge(&report.fault);
            adapt.merge(&report.adapt);
            scores_consumed += scored;
        }
        assert_eq!(
            stats.accesses(),
            (self.records.len() - self.measured_from) as u64,
            "the shards' accesses do not add up to the measured records"
        );
        let (first, _) = shards.first().expect("at least one shard");
        let (eviction, admission) = (&first.eviction, &first.admission);
        let mut sim =
            SimReport::from_counts(stats, series, fault, &self.latency, eviction, admission);
        sim.adapt = adapt;
        ShardedReport {
            sim,
            scores_consumed,
            per_shard: shards.into_iter().map(|(report, _)| report).collect(),
        }
    }
}

impl ShardedSimulator {
    /// Creates a sharded simulator over `shards` set-partitioned shards.
    /// A zero shard count is refused by [`ShardedSimulator::run`] with a
    /// typed error, not here.
    pub fn new(shards: usize) -> Self {
        ShardedSimulator {
            shards,
            fault: FaultPlan::empty(),
        }
    }

    /// Arms a [`FaultPlan`] for this simulator's runs: per-shard panic
    /// points (recovered by the supervisor) and device faults (each
    /// measured miss's SSD commands rolled by position, what they add
    /// counted in the report's fault block and `total_us`). Scorer faults
    /// are the caller's concern — wrap the per-shard scorer clones in
    /// [`crate::FaultyScore`] from `make_shard`. An empty plan is
    /// equivalent to never calling this.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Replays `records` (warm-up ⧺ measured) sharded by set index,
    /// measuring from position `measured_from` on, and returns the summed
    /// report (see the module docs for the bit-identity argument).
    ///
    /// `make_shard` is called once per shard *on that shard's worker
    /// thread* (hence `Fn + Sync` — policy construction, including Belady
    /// oracle builds over the shard subtrace, runs in parallel); the
    /// [`ShardSupervisor`] calls it again on the calling thread only when
    /// recovering a dead shard. Every shard runs the streaming loop of
    /// [`crate::simulate_streaming_with_warmup`]; one shard replays inline
    /// on the calling thread (see the module docs), so a one-shard run
    /// does exactly the single-threaded work.
    ///
    /// # Errors
    ///
    /// Returns [`ShardRunError::Config`] for invalid cache geometry,
    /// [`ShardRunError::ZeroShards`] for a zero shard count,
    /// [`ShardRunError::ZeroSeriesWindow`] for `series_window = Some(0)`,
    /// [`ShardRunError::MeasuredPastEnd`] for `measured_from >
    /// records.len()`, [`ShardRunError::Contract`] when running more than
    /// one shard with
    /// an eviction policy that is not
    /// [`EvictionPolicy::shard_deterministic`] or a score source that is
    /// not [`ScoreSource::shardable`], and [`ShardRunError::ShardFailed`]
    /// when a shard worker panics *and* the supervisor's re-replay of that
    /// shard panics too (a lone worker panic — injected or genuine — is
    /// recovered transparently: the supervisor re-replays the shard's
    /// subtrace on the calling thread and the summed report is
    /// bit-identical to an undisturbed run).
    pub fn run(
        &self,
        records: &[TraceRecord],
        measured_from: usize,
        cache_cfg: CacheConfig,
        make_shard: &(dyn Fn(&ShardCtx<'_>) -> ShardPolicies + Sync),
        latency: &LatencyModel,
        series_window: Option<u64>,
    ) -> Result<ShardedReport, ShardRunError> {
        cache_cfg.validate()?;
        // Zero-copy fan-out: 4 bytes of routing per record — its global
        // position, which the scorer clock and the miss series both read.
        // One shard is the whole trace and needs none.
        let part = match self.shards {
            1 => None,
            s => Some(ShardPartition::build(s, &cache_cfg, &[], records)?),
        };
        let sup = &ShardSupervisor::new(
            cache_cfg,
            latency,
            make_shard,
            self.fault,
            part.as_ref(),
            records,
            measured_from,
            series_window,
        )?;

        // Replay shards on scoped threads; join order — shard-index order
        // — is the only ordering there is. Worker panics are captured at
        // join, never propagated.
        // (`crossbeam` stays in this crate's manifest, unused, until the
        // benchmark PR prunes it with the lockfile — ROADMAP 2d.)
        let replay = |shard| sup.replay(shard, sup.ctx(shard).walk());
        let joined: Vec<thread::Result<Result<ShardDone, ShardRunError>>> = match &part {
            Some(part) => thread::scope(|scope| {
                let handles: Vec<_> = (0..part.shards())
                    .map(|shard| scope.spawn(move || replay(shard)))
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            }),
            None => vec![catch_unwind(AssertUnwindSafe(|| replay(0)))],
        };
        let mut fault = FaultStats::default();
        let mut shards = Vec::with_capacity(joined.len());
        for (shard, first) in joined.into_iter().enumerate() {
            shards.push(sup.supervise(shard, first, &mut fault)?);
        }
        Ok(sup.merge(shards, fault))
    }
}

#[cfg(test)]
mod tests {
    // The behavioral tests for this engine live in the integration suite
    // `tests/shard_equivalence.rs`, where the shared `icgmm-testutil`
    // fixtures are usable (a dev-dependency cycle links testutil against
    // the *library* build, whose types do not unify with this unit-test
    // build's). Only fixture-free construction checks belong here.
    use super::*;

    #[test]
    fn zero_shards_is_a_typed_error_not_a_panic() {
        use crate::policy::{AlwaysAdmit, LruPolicy};
        let cfg = CacheConfig {
            capacity_bytes: 16 * 4096,
            block_bytes: 4096,
            ways: 2,
        };
        let make = |_: &ShardCtx<'_>| ShardPolicies {
            admission: Box::new(AlwaysAdmit),
            eviction: Box::new(LruPolicy::new(cfg.num_sets(), cfg.ways)),
            score: None,
        };
        let trace = [TraceRecord::read(0)];
        let lat = LatencyModel::paper_tlc();
        let run = ShardedSimulator::new(0).run(&trace, 0, cfg, &make, &lat, None);
        assert_eq!(run.err(), Some(ShardRunError::ZeroShards));
        assert_eq!(
            ShardPartition::build(0, &cfg, &[], &trace).err(),
            Some(ShardRunError::ZeroShards)
        );
        assert!(ShardRunError::ZeroShards
            .to_string()
            .contains("shard count"));
        // A zero miss-series window is the caller's bad argument, refused
        // before any shard starts — not a `ShardFailed` blaming shard 0 for
        // the panic it would cause in every replay.
        for shards in [1usize, 2] {
            let run = ShardedSimulator::new(shards).run(&trace, 0, cfg, &make, &lat, Some(0));
            assert_eq!(run.err(), Some(ShardRunError::ZeroSeriesWindow));
        }
        assert!(ShardRunError::ZeroSeriesWindow
            .to_string()
            .contains("series_window"));
    }

    #[test]
    fn partition_splits_phases_and_preserves_order() {
        let cfg = CacheConfig {
            capacity_bytes: 16 * 4096,
            block_bytes: 4096,
            ways: 2,
        };
        // 8 sets, pages p map to set p % 8; 2 shards → shard = set % 2.
        let trace: Vec<TraceRecord> = (0..16u64).map(|p| TraceRecord::read(p << 12)).collect();
        let whole = ShardPartition::build(2, &cfg, &[], &trace).unwrap();
        for split in [0, 6, 16] {
            // Where the warm-up ends does not move a record.
            let (warm, meas) = trace.split_at(split);
            let part = ShardPartition::build(2, &cfg, warm, meas).unwrap();
            for shard in 0..2 {
                assert_eq!(
                    part.positions(shard),
                    whole.positions(shard),
                    "split {split}"
                );
            }
        }
        for shard in 0..2 {
            let idx = whole.positions(shard);
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "ascending order");
            let ctx = ShardCtx {
                shard,
                shards: 2,
                trace: &trace,
                positions: Some(idx),
                route: Some(whole.route),
            };
            assert_eq!(ctx.records().len(), idx.len());
            assert!(ctx.routed(&trace).eq(ctx.walk()), "the rule finds the list");
            for ((pos, r), &i) in ctx.walk().zip(idx) {
                assert_eq!((pos, r), (u64::from(i), &trace[i as usize]));
                assert_eq!(cfg.set_of(r.page()) % 2, shard, "routing by set");
                assert_eq!(whole.shard_of(r.page()), shard);
            }
        }
        let total: usize = (0..2).map(|s| whole.positions(s).len()).sum();
        assert_eq!(total, trace.len());
        let inline = ShardCtx {
            shard: 0,
            shards: 1,
            trace: &trace,
            positions: None,
            route: None,
        };
        assert!(inline.routed(&trace).eq(inline.walk()), "one shard is all");
        assert_eq!(inline.walk().len(), trace.len());
    }

    #[test]
    fn capacity_guard_boundaries() {
        // Pure arithmetic — the limit is checked without allocating the
        // 4 Gi records it describes. Positions are 0-based, so exactly
        // u32::MAX + 1 records (last position u32::MAX) still fit.
        let max = u32::MAX as usize + 1;
        assert_eq!(ShardPartition::check_capacity(0), Ok(()));
        assert_eq!(ShardPartition::check_capacity(1), Ok(()));
        assert_eq!(ShardPartition::check_capacity(max), Ok(()));
        assert_eq!(
            ShardPartition::check_capacity(max + 1),
            Err(ShardRunError::TraceTooLong { records: max + 1 })
        );
        assert_eq!(
            ShardPartition::check_capacity(usize::MAX),
            Err(ShardRunError::TraceTooLong {
                records: usize::MAX
            })
        );
        let msg = ShardRunError::TraceTooLong { records: max + 1 }.to_string();
        assert!(msg.contains("trace too long"), "{msg}");
    }
}
