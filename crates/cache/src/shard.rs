//! Sharded multi-tenant replay: the set-associative cache partitioned by
//! set index across scoped threads, bit-identical to the single-threaded
//! simulator by construction.
//!
//! # Why set partitioning is exact
//!
//! Every decision the simulator makes about a request is local to the
//! request's *set*: tag lookup, victim choice and per-block policy
//! metadata never cross a set boundary. Partitioning the sets into `S`
//! disjoint groups (any [`ShardPartition`]) therefore partitions the trace
//! into `S` subsequences whose replays cannot interact — each shard replays its
//! subsequence against its own tag store and its own policy state and
//! produces, per record, exactly the outcome the single-threaded replay
//! produces at the same global position. Three properties make the
//! "cannot interact" claim airtight:
//!
//! * **The policy** decides from the events it sees within each set:
//!   shard-local sequence numbers are order-isomorphic to the global ones,
//!   so recency stamps, stored scores and Belady positions (built from the
//!   same shard subsequence) all rank identically.
//! * **Scores** are functions of the missed record and its global trace
//!   position — the Algorithm 1 clock, which counts *every* request, is a
//!   closed form of it. A miss is scored with its position
//!   ([`ScoreSource::score`] takes it: the shard's walk carries it), so a
//!   shard's scorer clone never needs to see a foreign record, or even its
//!   own hits, and scores bit-identically to the single-threaded stream
//!   (the trait's precondition; an armed health monitor keeps per-shard
//!   state and is deterministic per shard count only, while an adaptive
//!   engine's refit producer walks the whole slice on every shard, so its
//!   decisions are the one-shard run's).
//! * **Accounting is a sum** (argued in `sim.rs`'s module docs): a report
//!   is integer counters — [`CacheStats`], and a [`crate::MissSeries`]
//!   bucketed by each record's *global* position — with modeled time
//!   derived from them once. Each shard counts its own records; the
//!   run's report is the shards' counters added up and costed
//!   once ([`ShardSupervisor::merge`], which checks conservation), so it
//!   is bit-identical at every shard count *by arithmetic*, under every
//!   latency model, with no outcome buffered and no record revisited.
//!   `tests/shard_equivalence.rs` holds it against an in-order
//!   per-request oracle across the eviction × admission × score grid. Device
//!   faults ride the [`FaultPlan`] the supervisor carries: each shard's
//!   accounting rolls its own measured misses by global position and counts
//!   what they added, one more sum — of whole attoseconds, so exact in any
//!   order. The adaptation block is not a sum: every shard reports the
//!   whole slice's, and the run reports it once.
//!
//! # The partition
//!
//! A [`ShardPartition`] is a rule, not a table: `set mod S`, or at two
//! shards the parity of `set & mask` for one odd mask (`set mod 2` is the
//! mask 1). [`ShardPartition::balanced`] picks the mask that splits a
//! sample of the trace most evenly, from one fast Walsh–Hadamard
//! transform of the sample's per-set counts: entry `m` of the transform is
//! shard 0's share minus shard 1's under mask `m`. Hot sets make `set mod
//! 2` split `memtier` and `hashmap` 72–73 / 27–28; the sampled mask splits
//! them 52 / 48 and 56 / 44.
//!
//! Either rule gives each block of `S` consecutive sets (`2r, 2r + 1` at
//! two shards, since the mask is odd) exactly one set per shard, so a
//! shard holds only its own sets: `ceil(sets / S)` rows of tag store
//! ([`crate::SetAssocCache::sharded`]) and policy state
//! ([`ShardCtx::rows`]), set `s` in row `s / S`.
//!
//! # Zero-copy fan-out and parallel setup
//!
//! A replay's input is one slice — the whole trace, warm-up ⧺ measured —
//! and `measured_from`, the position measurement starts at; a shard is
//! that slice plus, above one shard, its routing rule ([`ShardCtx`]). The
//! fan-out never copies the trace and stores nothing per record: each
//! worker walks the caller's slice through the partition
//! ([`ShardCtx::walk`]), keeping the records its sets own with their
//! global positions — each record's index, scorer-clock position and
//! miss-series position at once. `tests/shard_alloc.rs` pins the routing
//! cost at zero bytes, a shard's state at its share of the sets, and the
//! whole run's; only the counting reads `measured_from`.
//! Policy construction (`make_shard` — including a full Belady oracle
//! pass over the shard subtrace) runs *inside* each worker, in
//! parallel; the supervisor re-runs it on the calling thread only when
//! recovering a dead shard. All of this — the life of a shard — is
//! [`ShardSupervisor`]; [`ShardedSimulator::run`] is its offline client at
//! every shard count, `icgmm-serve` its live one.
//!
//! # One shard runs inline
//!
//! At `S = 1` the shard *is* the whole trace, so
//! [`ShardedSimulator::run`] replays it on the calling thread through the
//! same per-shard function the workers use: the whole slice with no
//! routing, no scoped thread and — unless a panic point is
//! armed — no replay observer; its report goes through the same sum, of
//! one term. The supervisor's catch-and-re-replay of a panicked shard
//! stays. This is what lets a front-end that keeps one shard (`run_sharded`
//! at one shard, a replay that a panic point, a health monitor, its refit
//! producers' cost or its slice keep off the other cores) *be* the
//! one-shard geometry at no cost
//! (`tests/shard_alloc_inline.rs`).

use crate::cache::SetAssocCache;
use crate::config::{CacheConfig, CacheConfigError, SetMap};
use crate::fault::{FaultPlan, FaultStats};
use crate::latency::LatencyModel;
use crate::policy::Policy;
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
}

impl fmt::Display for ShardRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardRunError::Config(e) => e.fmt(f),
            ShardRunError::ZeroShards => write!(f, "shard count must be >= 1"),
            ShardRunError::ZeroSeriesWindow => write!(f, "series_window must be >= 1"),
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
/// set index is congruent to (`set mod shards`), or at two shards to the
/// parity of `set & mask` for an odd mask (see the module docs). This is
/// all a partition is — a few words, `Copy`, nothing per record — so every
/// consumer finds a shard's records by walking the trace through it: the
/// offline replay, the supervisor's re-replay, Belady's oracle
/// ([`ShardCtx::records`]) and serve's clients and workers. A [`ShardSupervisor`] builds `set mod S`
/// for its cache geometry unless handed another (through
/// [`ShardedSimulator::partitioned`]), and hands it out
/// ([`ShardSupervisor::partition`]).
#[derive(Clone, Copy, Debug)]
pub struct ShardPartition {
    map: SetMap,
    shards: usize,
    /// The odd mask a two-shard rule routes by; 1 (`set mod 2`) unless
    /// chosen, unused at other counts.
    mask: usize,
}

/// How a page sample splits between the two shards of a
/// [`ShardPartition::balanced`] rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleSplit {
    /// Pages sampled.
    pub sampled: u64,
    /// Of those, the pages the busier shard owns.
    pub busiest: u64,
}

/// In-place fast Walsh–Hadamard transform of a power-of-two-long slice:
/// afterwards `h[m]` is the sum over `s` of the old `h[s]`, negated where
/// `popcount(s & m)` is odd.
fn fwht(h: &mut [i64]) {
    let mut half = 1;
    while half < h.len() {
        for block in h.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for (a, b) in lo.iter_mut().zip(hi) {
                (*a, *b) = (*a + *b, *a - *b);
            }
        }
        half *= 2;
    }
}

impl ShardPartition {
    /// The rule for `shards` shards over `cache_cfg`'s sets.
    ///
    /// # Errors
    ///
    /// Returns [`ShardRunError::Config`] for invalid cache geometry (the
    /// set mapping would divide by zero) and [`ShardRunError::ZeroShards`]
    /// when `shards == 0`.
    pub fn new(shards: usize, cache_cfg: &CacheConfig) -> Result<Self, ShardRunError> {
        let map = SetMap::new(cache_cfg)?;
        if shards == 0 {
            return Err(ShardRunError::ZeroShards);
        }
        Ok(ShardPartition {
            map,
            shards,
            mask: 1,
        })
    }

    /// The two-shard rule over `cache_cfg`'s sets that routes a set by the
    /// parity of `set & mask`.
    ///
    /// # Errors
    ///
    /// Returns [`ShardRunError::Config`] for invalid cache geometry.
    ///
    /// # Panics
    ///
    /// Panics on an even `mask`: it would put both sets of a pair
    /// `2r, 2r + 1` on one shard, which a shard's row layout rules out.
    pub fn masked(cache_cfg: &CacheConfig, mask: usize) -> Result<Self, ShardRunError> {
        assert!(mask % 2 == 1, "a two-shard mask must be odd, not {mask}");
        Ok(ShardPartition {
            mask,
            ..Self::new(2, cache_cfg)?
        })
    }

    /// The two-shard rule that splits `sample` most evenly, and how it
    /// splits it. The sample's pages are counted per set, padded to a
    /// power of two (at least 2), and put through one fast Walsh–Hadamard
    /// transform: entry `m` is shard 0's count minus shard 1's under mask
    /// `m`, entry 0 the sample size. The odd mask with the smallest
    /// absolute difference wins, ties going to the smaller mask; its busier
    /// shard owns `(h[0] + |h[m]|) / 2` of the sample. At the paper's 2 048
    /// sets that is 11 × 1 024 butterflies and one 16 KiB scratch vector,
    /// freed on return.
    ///
    /// # Errors
    ///
    /// Returns [`ShardRunError::Config`] for invalid cache geometry.
    pub fn balanced(
        cache_cfg: &CacheConfig,
        sample: impl IntoIterator<Item = PageIndex>,
    ) -> Result<(Self, SampleSplit), ShardRunError> {
        let map = SetMap::new(cache_cfg)?;
        let mut h = vec![0i64; map.sets().next_power_of_two().max(2)];
        for page in sample {
            h[map.split(page).0] += 1;
        }
        fwht(&mut h);
        let mask = (1..h.len())
            .step_by(2)
            .min_by_key(|&m| h[m].unsigned_abs())
            .expect("at least one odd mask");
        let split = SampleSplit {
            sampled: h[0] as u64,
            busiest: (h[0].unsigned_abs() + h[mask].unsigned_abs()) / 2,
        };
        Ok((Self::masked(cache_cfg, mask)?, split))
    }

    /// Benchmark façade — timed by `icgmm_bench`
    /// (`cache.shard.partition_ns_per_rec`); deleted by the benchmark PR.
    /// The rule for `shards` shards over `cache_cfg`; it reads no record.
    #[doc(hidden)]
    pub fn build(
        shards: usize,
        cache_cfg: &CacheConfig,
        _warmup: &[TraceRecord],
        _measured: &[TraceRecord],
    ) -> Result<Self, ShardRunError> {
        Self::new(shards, cache_cfg)
    }

    /// The shard owning `page`, through the set mapping decoded once when
    /// the rule was built: at two shards the parity of its set index under
    /// the mask, otherwise the set index modulo the shard count. Every
    /// shard walks the whole trace through this, so neither rule branches
    /// on the page or divides at a power-of-two count: walking 1.2 M
    /// `memtier` records costs each shard 3.6 / 2.1 / 1.7 ns per trace
    /// record at S = 2 / 4 / 8 with a bit mask, against 4.2 / 3.4 / 3.1
    /// with `%` (native, medians of 8 alternating best-of-15 runs; the mask
    /// lower in 7 / 8 / 8 of them).
    #[inline]
    pub fn shard_of(&self, page: PageIndex) -> usize {
        let set = self.map.split(page).0;
        match self.shards {
            2 => (set & self.mask).count_ones() as usize & 1,
            s if s.is_power_of_two() => set & (s - 1),
            s => set % s,
        }
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The odd mask a two-shard rule routes by; `None` at other counts.
    pub fn mask(&self) -> Option<usize> {
        (self.shards == 2).then_some(self.mask)
    }

    /// The rows a shard's tag store and policy state need:
    /// `ceil(sets / shards)`, set `s` in row `s / shards`.
    pub fn rows(&self) -> usize {
        self.map.sets().div_ceil(self.shards)
    }
}

/// One shard of a replay: its index and the records it replays — the
/// whole trace, or above one shard the records its [`ShardPartition`]
/// routes to it, in trace order. `make_shard` receives
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
    /// The whole trace (warm-up ⧺ measured).
    trace: &'a [TraceRecord],
    /// The rule that routes this shard's records.
    part: ShardPartition,
}

impl<'a> ShardCtx<'a> {
    /// Total shard count.
    pub fn shards(&self) -> usize {
        self.part.shards()
    }

    /// The rows this shard's policy state needs ([`ShardPartition::rows`]):
    /// its policy is indexed by row, as its tag store is. A policy sized
    /// for every set also works, and holds rows no record reaches.
    pub fn rows(&self) -> usize {
        self.part.rows()
    }

    /// The records this shard replays, in order.
    pub fn records(self) -> impl Iterator<Item = &'a TraceRecord> {
        self.walk().map(|(_, r)| r)
    }

    /// [`ShardCtx::records`] with their global trace positions: what the
    /// replay loop walks, and what a serve worker checks its arrivals
    /// against.
    pub fn walk(self) -> impl Iterator<Item = (u64, &'a TraceRecord)> + Send + 'a {
        Walk {
            trace: self.trace,
            next: 0,
            rule: (self.shards() > 1).then_some((self.part, self.shard)),
            members: 0,
            base: 0,
        }
    }
}

/// [`ShardCtx::walk`]'s iterator. One shard takes every record untested;
/// above one, `refill` applies the rule 64 records at a time into a bit
/// mask — `members`, bit `i` for each of this shard's records at
/// `base + i` not yet yielded — and `next` takes its lowest bit inline.
/// Measured choices (LRU, ≈ 1.1 M records): a branch per record
/// mispredicts on about every other one at two shards (≈ 5.3 ns per trace
/// record and shard, against ≈ 3.2); the whole search inlined, as a
/// `filter`, cost the one-shard replay ≈ 5 %; with only `refill` out of
/// line the one-shard replay reads level and a two-shard one 5–20 %
/// faster than a call per record (ROADMAP, "Cache simulator").
struct Walk<'t> {
    trace: &'t [TraceRecord],
    /// The first position not yet looked at.
    next: usize,
    /// The partition and this shard; `None` keeps every record.
    rule: Option<(ShardPartition, usize)>,
    members: u64,
    base: usize,
}

impl<'t> Iterator for Walk<'t> {
    type Item = (u64, &'t TraceRecord);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self.rule {
            None => {
                let r = self.trace.get(self.next)?;
                self.next += 1;
                Some(((self.next - 1) as u64, r))
            }
            Some((part, shard)) => {
                if self.members == 0 && !self.refill(part, shard) {
                    return None;
                }
                let pos = self.base + self.members.trailing_zeros() as usize;
                self.members &= self.members - 1;
                Some((pos as u64, &self.trace[pos]))
            }
        }
    }
}

impl Walk<'_> {
    /// Applies the rule to the next blocks of 64 records until one holds
    /// a member of `shard`; `false` at the end of the trace.
    #[inline(never)]
    fn refill(&mut self, part: ShardPartition, shard: usize) -> bool {
        while self.members == 0 {
            let rest = &self.trace[self.next..];
            let block = &rest[..rest.len().min(64)];
            if block.is_empty() {
                return false;
            }
            self.base = self.next;
            self.next += block.len();
            self.members = block.iter().enumerate().fold(0, |m, (i, r)| {
                m | u64::from(part.shard_of(r.page()) == shard) << i
            });
        }
        true
    }
}

/// The per-shard replay state a [`ShardedSimulator`] caller provides: a
/// fresh policy and (for scored runs) a scorer clone. Everything crosses a
/// thread boundary, hence the `Send` bound.
///
/// The policy decides from the request's own set (see the module docs),
/// and the scorer meets [`ScoreSource`]'s precondition, so every shard
/// count replays bit-identically.
pub struct ShardPolicies {
    /// This shard's policy.
    pub policy: Policy,
    /// Scorer clone for this shard (`None` for score-free baselines).
    pub score: Option<Box<dyn ScoreSource + Send>>,
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
    /// holds its share of every window) and `fault` block are theirs added
    /// up, plus the supervisor's `shard_panics` / `shard_recoveries`; its
    /// `adapt` block is each of theirs.
    pub per_shard: Vec<SimReport>,
}

/// The sharded replay engine. Holds only configuration (shard count or
/// partition, fault plan); per-run state lives in a [`ShardSupervisor`]
/// and on the worker threads.
#[derive(Clone, Debug)]
pub struct ShardedSimulator {
    shards: usize,
    /// The rule to route by; `set mod shards` when `None`.
    part: Option<ShardPartition>,
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

/// The life of a shard, for one run: build its policy, replay its
/// records with the fault plan's panic point armed — and, when the
/// shard's worker dies, re-replay it once on the supervising thread,
/// count the event, and fail typed if the death reproduces — then add the
/// shards' reports up. The offline engine
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
    part: ShardPartition,
    records: &'a [TraceRecord],
    measured_from: usize,
    series_window: Option<u64>,
}

impl<'a> ShardSupervisor<'a> {
    /// A supervisor for one run of `shards` shards of `cache_cfg`'s sets
    /// over `records` (warm-up ⧺ measured, measured from position
    /// `measured_from` on); one shard is the whole trace, walked with no
    /// routing. `make_shard` runs on whichever thread replays a shard;
    /// `fault` arms the per-shard panic points and device faults;
    /// `series_window`, when set, has every shard keep its share of a
    /// per-window miss series.
    ///
    /// # Errors
    ///
    /// [`ShardRunError::Config`] for invalid cache geometry,
    /// [`ShardRunError::ZeroShards`] for `shards == 0`,
    /// [`ShardRunError::ZeroSeriesWindow`] for `series_window = Some(0)`,
    /// [`ShardRunError::MeasuredPastEnd`] for `measured_from >
    /// records.len()`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cache_cfg: CacheConfig,
        latency: &LatencyModel,
        make_shard: &'a (dyn Fn(&ShardCtx<'_>) -> ShardPolicies + Sync),
        fault: FaultPlan,
        shards: usize,
        records: &'a [TraceRecord],
        measured_from: usize,
        series_window: Option<u64>,
    ) -> Result<Self, ShardRunError> {
        let part = ShardPartition::new(shards, &cache_cfg)?;
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

    /// The rule the run's shards are routed by.
    pub fn partition(&self) -> ShardPartition {
        self.part
    }

    /// This supervisor with its shards routed by `part`, a rule over the
    /// same geometry and shard count.
    fn routed_by(self, part: ShardPartition) -> Self {
        assert_eq!(
            (part.map, part.shards),
            (self.part.map, self.part.shards),
            "a partition for another geometry"
        );
        ShardSupervisor { part, ..self }
    }

    /// Shard `shard`: the trace and the rule that routes its records.
    pub fn ctx(&self, shard: usize) -> ShardCtx<'a> {
        ShardCtx {
            shard,
            trace: self.records,
            part: self.part,
        }
    }

    /// Shard `shard`'s first attempt, over `walk`: its records with their
    /// global trace positions, in trace order — exactly its
    /// [`ShardCtx::walk`] (offline, that walk itself; served, what the
    /// worker's queue delivers, checked against it). Builds the shard's
    /// policy (`make_shard` over its [`ShardCtx`]) and runs the
    /// streaming loop with the fault plan's panic point armed — independent
    /// of every other shard (own cache, policy, scorer clone and
    /// counters), down to the report's `fault` / `adapt` blocks, which are
    /// what this shard's stack counted. Returns the shard's report and how
    /// many of its records consumed a score.
    pub fn replay<'r>(
        &self,
        shard: usize,
        walk: impl Iterator<Item = (u64, &'r TraceRecord)>,
    ) -> (SimReport, u64) {
        // Arming a panic point needs the shard's length — one more walk,
        // which only an armed plan pays.
        let armed = self.fault.shard_panic_per_mille > 0;
        let len = if armed {
            self.ctx(shard).records().count()
        } else {
            0
        };
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
    ) -> ShardDone {
        let mut pol = (self.make_shard)(&self.ctx(shard));
        let shards = self.part.shards();
        let mut cache = SetAssocCache::sharded(self.cache_cfg, shards).expect("geometry validated");
        let from = self.measured_from as u64;
        let mut acct = Accounting::new(from, self.series_window, &self.fault, &self.latency);
        let mut point = panic_at.map(PanicPoint);
        acct.observer = point.as_mut().map(|p| p as &mut dyn ReplayObserver);
        let (mut report, scored) = crate::sim::simulate_streaming_impl(
            walk,
            &mut cache,
            &mut pol.policy,
            pol.score.as_deref_mut().map(|s| s as &mut dyn ScoreSource),
            acct,
        );
        if let Some(score) = &mut pol.score {
            score.telemetry(&mut report.fault, &mut report.adapt);
        }
        (report, scored)
    }

    /// Graceful degradation for one shard, given what joining its first
    /// attempt returned. A panicked attempt left nothing behind — its
    /// counters died with it — so the same shard, with a fresh policy and
    /// the panic point disarmed, is replayed on the calling thread. The
    /// replay is deterministic, so the outcome is bit-identical to a run
    /// where nothing died; a second panic means the failure reproduces (a
    /// genuine bug, not an injected fault) and is returned as an error
    /// carrying both payloads.
    fn supervise(
        &self,
        shard: usize,
        first: thread::Result<ShardDone>,
        fault: &mut FaultStats,
    ) -> Result<ShardDone, ShardRunError> {
        let worker = match first {
            Ok(done) => return Ok(done),
            Err(payload) => payload,
        };
        fault.shard_panics += 1;
        let walk = self.ctx(shard).walk();
        match catch_unwind(AssertUnwindSafe(|| self.attempt(shard, None, walk))) {
            Ok(done) => {
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
    /// shard order: counters, series, `fault` blocks and scored counts
    /// added up (on top of `fault`, the supervisor's own panic / recovery
    /// counts), modeled time derived from the summed counters — the
    /// single-threaded report, by the module docs' argument — and the
    /// shards' one `adapt` block.
    ///
    /// # Panics
    ///
    /// Panics when the shards' accesses do not add up to the measured
    /// records: one was lost, duplicated or counted in the wrong phase on
    /// its way to a shard — a transport bug, not to be papered over by a
    /// plausible-looking report. Panics, too, when two shards' `adapt`
    /// blocks differ: every shard's refit producer walks the whole slice,
    /// so they are one block, and a second one is a bug.
    pub fn merge(&self, shards: Vec<(SimReport, u64)>, mut fault: FaultStats) -> ShardedReport {
        let mut stats = CacheStats::default();
        let mut series = self.series_window.map(MissSeries::new);
        let mut scores_consumed = 0;
        let (first, _) = shards.first().expect("at least one shard");
        for (report, scored) in &shards {
            stats.merge(&report.stats);
            if let (Some(sum), Some(part)) = (series.as_mut(), &report.miss_series) {
                sum.merge(part);
            }
            fault.merge(&report.fault);
            assert_eq!(report.adapt, first.adapt, "the shards' adapt blocks differ");
            scores_consumed += scored;
        }
        assert_eq!(
            stats.accesses(),
            (self.records.len() - self.measured_from) as u64,
            "the shards' accesses do not add up to the measured records"
        );
        let (eviction, admission) = (&first.eviction, &first.admission);
        let mut sim =
            SimReport::from_counts(stats, series, fault, &self.latency, eviction, admission);
        sim.adapt = first.adapt;
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
            part: None,
            fault: FaultPlan::empty(),
        }
    }

    /// A sharded simulator routed by `part` — e.g. a
    /// [`ShardPartition::balanced`] rule — over `part.shards()` shards.
    /// Every run must pass the geometry `part` was built for; another one
    /// panics.
    pub fn partitioned(part: ShardPartition) -> Self {
        ShardedSimulator {
            part: Some(part),
            ..Self::new(part.shards())
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
    /// thread* (hence `Fn + Sync` — policy construction, including a Belady
    /// oracle build over the shard subtrace, runs in parallel); the
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
    /// records.len()`, and [`ShardRunError::ShardFailed`] when a shard
    /// worker panics *and* the supervisor's re-replay of that shard panics
    /// too (a lone worker panic — injected or genuine — is
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
        // Zero-copy fan-out: each shard walks the caller's slice through
        // the routing rule; nothing is stored per record.
        let sup = ShardSupervisor::new(
            cache_cfg,
            latency,
            make_shard,
            self.fault,
            self.shards,
            records,
            measured_from,
            series_window,
        )?;
        let sup = &match self.part {
            Some(part) => sup.routed_by(part),
            None => sup,
        };

        // Replay shards on scoped threads; join order — shard-index order
        // — is the only ordering there is. Worker panics are captured at
        // join, never propagated.
        // (`crossbeam` stays in this crate's manifest, unused, until the
        // benchmark PR prunes it with the lockfile — ROADMAP 2d.)
        let replay = |shard| sup.replay(shard, sup.ctx(shard).walk());
        let joined: Vec<thread::Result<ShardDone>> = match self.shards {
            1 => vec![catch_unwind(AssertUnwindSafe(|| replay(0)))],
            s => thread::scope(|scope| {
                let handles: Vec<_> = (0..s)
                    .map(|shard| scope.spawn(move || replay(shard)))
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            }),
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
        let cfg = CacheConfig {
            capacity_bytes: 16 * 4096,
            block_bytes: 4096,
            ways: 2,
        };
        let make = |_: &ShardCtx<'_>| ShardPolicies {
            policy: Policy::lru(cfg.num_sets(), cfg.ways),
            score: None,
        };
        let trace = [TraceRecord::read(0)];
        let lat = LatencyModel::paper_tlc();
        let run = ShardedSimulator::new(0).run(&trace, 0, cfg, &make, &lat, None);
        assert_eq!(run.err(), Some(ShardRunError::ZeroShards));
        assert_eq!(
            ShardPartition::new(0, &cfg).err(),
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

    proptest::proptest! {
        /// The one walk. Over random geometries (set counts power of two
        /// and not) and S ∈ {1, 2, 3, 8} — at two shards `set mod 2` or an
        /// arbitrary odd mask — the shards' walks cover every trace
        /// position exactly once, each shard's in ascending order and only
        /// over the sets it owns, which are one set of each block of S
        /// consecutive sets, and one shard walks the whole trace.
        #[test]
        fn every_position_walks_once_in_order(
            sets in 1u64..40,
            ways in 1usize..5,
            s in 0usize..5,
            half_mask in 0usize..64,
            pages in proptest::collection::vec(0u64..512, 0..600),
        ) {
            let shards = [1, 2, 3, 8, 2][s];
            let mask = if s == 4 { 2 * half_mask + 1 } else { 1 };
            let cfg = CacheConfig {
                capacity_bytes: sets * ways as u64 * 4096,
                block_bytes: 4096,
                ways,
            };
            let trace: Vec<TraceRecord> = pages.iter().map(|p| TraceRecord::read(p << 12)).collect();
            let make = |_: &ShardCtx<'_>| -> ShardPolicies { unreachable!("no shard is built") };
            let plan = FaultPlan::empty();
            let lat = LatencyModel::paper_tlc();
            let mut sup = ShardSupervisor::new(cfg, &lat, &make, plan, shards, &trace, 0, None).unwrap();
            if s == 4 {
                sup = sup.routed_by(ShardPartition::masked(&cfg, mask).unwrap());
            }
            let part = sup.partition();
            proptest::prop_assert_eq!(part.rows(), (sets as usize).div_ceil(shards));
            let owner = |set: usize| match shards {
                2 => (set & mask).count_ones() as usize % 2,
                _ => set % shards,
            };
            // Each block of S consecutive sets has one set on every shard.
            for block in (0..sets as usize).step_by(shards) {
                let mut owners: Vec<usize> = (block..sets as usize).take(shards).map(owner).collect();
                owners.sort_unstable();
                owners.dedup();
                proptest::prop_assert_eq!(owners.len(), shards.min(sets as usize - block));
            }
            let mut walked = vec![0u32; trace.len()];
            for shard in 0..shards {
                let ctx = sup.ctx(shard);
                proptest::prop_assert_eq!(ctx.shards(), shards);
                proptest::prop_assert!(ctx.records().eq(ctx.walk().map(|(_, r)| r)));
                let mut last = None;
                for (pos, r) in ctx.walk() {
                    proptest::prop_assert!(last < Some(pos), "{pos} after {last:?}");
                    last = Some(pos);
                    proptest::prop_assert!(std::ptr::eq(r, &trace[pos as usize]));
                    proptest::prop_assert_eq!(owner(cfg.set_of(r.page())), shard);
                    proptest::prop_assert_eq!(part.shard_of(r.page()), shard);
                    walked[pos as usize] += 1;
                }
            }
            proptest::prop_assert!(walked.iter().all(|&n| n == 1), "{walked:?}");
        }
    }

    /// `sets` sets of two 4 KiB ways.
    fn sets_of_two(sets: u64) -> CacheConfig {
        CacheConfig::new(sets * 2 * 4096, 4096, 2).unwrap()
    }

    /// The odd mask a search over every one of them picks for `pages` —
    /// the one whose busier shard owns the fewest, the smaller on a tie —
    /// and that shard's count.
    fn searched(cfg: &CacheConfig, pages: &[PageIndex]) -> (usize, u64) {
        let padded = cfg.num_sets().next_power_of_two().max(2);
        let mut best = (u64::MAX, 0);
        for mask in (1..padded).step_by(2) {
            let mut load = [0u64; 2];
            for &p in pages {
                load[(cfg.set_of(p) & mask).count_ones() as usize % 2] += 1;
            }
            best = best.min((load[0].max(load[1]), mask));
        }
        (best.1, best.0)
    }

    #[test]
    fn the_transform_picks_what_a_search_over_every_odd_mask_picks() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Set counts a power of two and not, down to one set; samples from
        // empty to skewed: half the pages on a few hot ones.
        for sets in [1u64, 2, 3, 6, 8, 12, 37, 64, 100] {
            let cfg = sets_of_two(sets);
            for len in [0usize, 1, 7, 64, 500] {
                let pages: Vec<PageIndex> = (0..len)
                    .map(|_| {
                        let r = next();
                        PageIndex::new(if r % 2 == 0 { r % 5 * 3 } else { r >> 8 })
                    })
                    .collect();
                let (part, split) = ShardPartition::balanced(&cfg, pages.iter().copied()).unwrap();
                let (mask, busiest) = searched(&cfg, &pages);
                let what = format!("{sets} sets, {len} pages");
                assert_eq!(part.mask(), Some(mask), "{what}");
                let sampled = len as u64;
                assert_eq!(split, SampleSplit { sampled, busiest }, "{what}");
                assert_eq!((part.shards(), part.rows()), (2, sets.div_ceil(2) as usize));
            }
        }
        // Ties: sets 0 and 2, equally loaded, split under masks 3 and 7
        // alike (mask 1 puts both on shard 0); the smaller wins. A sample
        // on one set ties every mask: `set mod 2`.
        let cfg = sets_of_two(8);
        for (pages, mask, busiest) in [(&[0u64, 2, 8, 10][..], 3, 2), (&[5, 13, 21], 1, 3)] {
            let pages = pages.iter().map(|&p| PageIndex::new(p));
            let (part, split) = ShardPartition::balanced(&cfg, pages).unwrap();
            assert_eq!((part.mask(), split.busiest), (Some(mask), busiest));
        }
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn an_even_mask_is_refused() {
        let _ = ShardPartition::masked(&sets_of_two(8), 2);
    }
}
