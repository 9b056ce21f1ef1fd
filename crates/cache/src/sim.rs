//! Trace-driven cache simulation: the glue that turns a trace, a policy
//! pair, an optional score source and a latency model into miss rates and
//! average access latency (the quantities of the paper's Fig. 6/Table 1).
//!
//! # Streaming vs speculative batched replay
//!
//! Two interchangeable replay engines produce bit-identical [`SimReport`]s:
//!
//! * [`simulate_streaming`] / [`simulate_streaming_with_warmup`] — the
//!   reference loop: observe each request, score each miss synchronously,
//!   access the cache. One single-point policy-engine inference per miss
//!   — which, since the GMM scorer vectorises that across components, is
//!   also the cheapest way to replay it.
//! * The speculative batcher ([`crate::WindowedSimulator`]) — classifies
//!   the next `W` requests against a shadow of the tag state, prefetches
//!   predicted-miss scores through [`ScoreSource::score_window`] in
//!   batched calls, then replays through the real cache. Any divergence
//!   between speculation and reality (mispredicted hit/miss, admission
//!   bypass, different eviction victim) is detected during replay, counted
//!   in [`crate::SpecStats`], and repaired by re-speculating from the
//!   divergent point — mispredicted misses fall back to the synchronous
//!   [`ScoreSource::score_current`], so results never drift.
//!
//! Both engines additionally expose a **replay-event stream**: a
//! [`ReplayObserver`] passed to [`simulate_streaming_observed_with_warmup`]
//! or [`crate::WindowedSimulator::run_observed`] receives every record's
//! real outcome in trace order — with the consumed score, its
//! [`ScoreOrigin`] (which prefetch batch produced it, or which synchronous
//! path), and cut/run-split notifications — so consumers that attach
//! their own semantics to the replay (the `icgmm-hw` cycle-approximate
//! dataflow timing model) are decoupled from *how* the host computed the
//! outcomes and stay bit-identical across engines for free.
//!
//! [`simulate`] and [`simulate_with_warmup`] are the default entry
//! points: runs whose score source reports
//! [`ScoreSource::prefers_batching`] route through the batcher at
//! [`crate::DEFAULT_SPEC_WINDOW`] (tune the cap via
//! [`crate::WindowedSimulator::new`] — larger `W` amortizes more batching;
//! the *effective* depth adapts on its own, halving after divergent
//! windows and recovering after clean ones); score-free runs and every
//! other source — the GMM policy engine included, whose single-point
//! kernel costs about what its batched one does — use the streaming loop
//! directly. [`crate::WindowedSimulator`] applies the same rule itself.
//! Equivalence across all policy pairs is enforced by property tests
//! (`tests/batch_equivalence.rs`).

use crate::cache::{AccessOutcome, SetAssocCache};
use crate::latency::LatencyModel;
use crate::policy::{AdmissionPolicy, EvictionPolicy};
use crate::score::ScoreSource;
use crate::stats::{CacheStats, MissSeries};
use crate::view::RecordsRef;
use icgmm_trace::TraceRecord;
use serde::{Deserialize, Serialize};

/// Where the score a replayed record consumed came from.
///
/// Part of the replay-event stream (see [`ReplayObserver`]): consumers that
/// attribute host-side inference cost — e.g. the `icgmm-hw` dataflow model
/// attributing batched inference time to the miss that consumed each score —
/// need to know which prefetch batch (if any) produced a score, not just its
/// value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScoreOrigin {
    /// No score was consumed: a hit, or a score-free run.
    None,
    /// Prefetched by a batched [`ScoreSource::score_window`] call; `call`
    /// is the 1-based ordinal of that call within the run (matches
    /// [`crate::SpecStats::batch_calls`] counting).
    Batched {
        /// 1-based ordinal of the producing `score_window` call.
        call: u64,
    },
    /// Synchronous [`ScoreSource::score_current`] fallback on a stale
    /// predicted hit inside a speculation window.
    SyncFallback,
    /// Synchronous score in plain streaming replay (the reference loop or
    /// a batcher streaming span). Score-free runs never consume a score,
    /// so their events always carry [`ScoreOrigin::None`].
    Streamed,
}

/// One replayed record, delivered to a [`ReplayObserver`] in trace order.
///
/// Events cover *every* record — warm-up included (`seq` is the absolute
/// request index, so observers can skip `seq < warmup_len`) — and are
/// emitted exactly once per record regardless of replay engine: the
/// streaming loop emits them inline, the speculative batcher emits them
/// from its verified replay (never from speculation), so the stream is
/// bit-identical between the two engines whenever the reports are.
#[derive(Debug)]
pub struct ReplayEvent<'a> {
    /// Absolute request index (warm-up + measured, 0-based).
    pub seq: u64,
    /// The trace record.
    pub record: &'a TraceRecord,
    /// The real cache outcome (never a speculated one).
    pub outcome: &'a AccessOutcome,
    /// Score consumed by the access (misses of scored runs), if any.
    pub score: Option<f64>,
    /// Which path produced [`ReplayEvent::score`].
    pub origin: ScoreOrigin,
}

/// Consumer of the replay event stream.
///
/// This is the seam between *host replay* (how fast the simulator computes
/// outcomes — streaming single-point scoring vs the speculative batched kernel)
/// and *modeled semantics* (what each outcome means): an observer sees the
/// same per-record stream either way, so anything built on it — the
/// `icgmm-hw` cycle-approximate dataflow timing, custom telemetry — is
/// automatically bit-identical across replay engines.
pub trait ReplayObserver {
    /// One record replayed (trace order, exactly once per record).
    fn on_record(&mut self, ev: &ReplayEvent<'_>);

    /// The speculative batcher cut its window at absolute request index
    /// `seq` (a divergence forced re-speculation there). Telemetry only;
    /// never emitted by the streaming engine.
    fn on_cut(&mut self, seq: u64) {
        let _ = seq;
    }

    /// A predicted-miss run was split at absolute request index `seq`
    /// because a stored-score victim decision depended on a score still
    /// being prefetched. Telemetry only; never emitted by the streaming
    /// engine.
    fn on_run_split(&mut self, seq: u64) {
        let _ = seq;
    }
}

/// Result of one simulation run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Hit/miss/bypass/eviction counters.
    pub stats: CacheStats,
    /// Sum of per-request latency, in µs.
    pub total_us: f64,
    /// Average per-request latency, in µs (the paper's Table 1 metric).
    pub avg_us: f64,
    /// Optional per-window miss-rate series.
    pub miss_series: Option<MissSeries>,
    /// Name of the eviction policy used.
    pub eviction: String,
    /// Name of the admission policy used.
    pub admission: String,
    /// Fault-injection and degradation counters (all-zero on fault-free
    /// runs; filled in by fault-armed callers).
    pub fault: crate::fault::FaultStats,
    /// Online-adaptation counters (all-zero on static runs; filled in by
    /// adapt-armed callers).
    pub adapt: crate::adapt::AdaptStats,
}

impl SimReport {
    /// Miss rate in percent (Fig. 6 units).
    pub fn miss_rate_pct(&self) -> f64 {
        self.stats.miss_rate() * 100.0
    }
}

/// Runs `records` through the cache with the given policies.
///
/// `score` (when provided) is consulted on every request via
/// [`ScoreSource::observe`] and asked for a score only on misses. Pass
/// `None` to run score-free baselines (LRU/FIFO/…).
///
/// `series_window`, when set, collects a per-window miss-rate series.
///
/// Sources whose [`ScoreSource::prefers_batching`] returns `true` ride
/// the speculative miss-window batcher (see the module docs); all others
/// take the streaming loop. The report is bit-identical either way.
pub fn simulate(
    records: &[TraceRecord],
    cache: &mut SetAssocCache,
    admission: &mut dyn AdmissionPolicy,
    eviction: &mut dyn EvictionPolicy,
    score: Option<&mut dyn ScoreSource>,
    latency: &LatencyModel,
    series_window: Option<u64>,
) -> SimReport {
    simulate_with_warmup(
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

/// [`simulate`] preceded by a warm-up phase.
///
/// The paper trims the first 20 % of each trace from *measurement*, but the
/// cache, the policies and the Algorithm 1 clock still experience those
/// requests (the program was running). `warmup` is replayed through the
/// full access path with statistics discarded; `measured` follows with
/// statistics recorded. Sequence numbers are continuous across phases.
///
/// Runs whose score source [`ScoreSource::prefers_batching`] ride the
/// speculative miss-window batcher at the default window; score-free runs
/// and sources that do not use the streaming loop (identical results
/// either way — the routing is purely an economics decision).
#[allow(clippy::too_many_arguments)]
pub fn simulate_with_warmup(
    warmup: &[TraceRecord],
    measured: &[TraceRecord],
    cache: &mut SetAssocCache,
    admission: &mut dyn AdmissionPolicy,
    eviction: &mut dyn EvictionPolicy,
    score: Option<&mut dyn ScoreSource>,
    latency: &LatencyModel,
    series_window: Option<u64>,
) -> SimReport {
    if score.as_ref().is_some_and(|s| s.prefers_batching()) {
        crate::batch::simulate_batched_with_warmup(
            warmup,
            measured,
            cache,
            admission,
            eviction,
            score,
            latency,
            series_window,
        )
    } else {
        simulate_streaming_with_warmup(
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
}

/// [`simulate_streaming_with_warmup`] without a warm-up phase.
pub fn simulate_streaming(
    records: &[TraceRecord],
    cache: &mut SetAssocCache,
    admission: &mut dyn AdmissionPolicy,
    eviction: &mut dyn EvictionPolicy,
    score: Option<&mut dyn ScoreSource>,
    latency: &LatencyModel,
    series_window: Option<u64>,
) -> SimReport {
    simulate_streaming_with_warmup(
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

/// The reference streaming replay loop: one request at a time, misses
/// scored synchronously.
///
/// Kept public as the ground truth the speculative batcher is property-
/// tested against, and as the baseline the default entry points are gated
/// never to lose to (the `sim_batch` criterion group).
#[allow(clippy::too_many_arguments)]
pub fn simulate_streaming_with_warmup(
    warmup: &[TraceRecord],
    measured: &[TraceRecord],
    cache: &mut SetAssocCache,
    admission: &mut dyn AdmissionPolicy,
    eviction: &mut dyn EvictionPolicy,
    score: Option<&mut dyn ScoreSource>,
    latency: &LatencyModel,
    series_window: Option<u64>,
) -> SimReport {
    simulate_streaming_impl(
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

/// [`simulate_streaming_with_warmup`] with a [`ReplayObserver`] receiving
/// the per-record event stream (warm-up events included, flagged by
/// `seq`). This is how the `icgmm-hw` dataflow model drives its timing
/// accounting off the functional replay without duplicating the loop.
#[allow(clippy::too_many_arguments)]
pub fn simulate_streaming_observed_with_warmup(
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
    simulate_streaming_impl(
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

/// [`simulate_streaming_observed_with_warmup`] over [`RecordsRef`] views —
/// the zero-copy entry point the sharded engines replay their indexed
/// subtraces through. The loop itself is representation-agnostic, so an
/// indexed view replays bit-identically to the equivalent copied slice.
#[allow(clippy::too_many_arguments)]
pub fn simulate_streaming_observed_records(
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
    simulate_streaming_impl(
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

/// The streaming loop behind every public streaming entry point.
/// `seq_base` is the absolute index of the first record (non-zero only for
/// the batcher's chunked continuations, which pass no warm-up).
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_streaming_impl(
    warmup: RecordsRef<'_>,
    measured: RecordsRef<'_>,
    seq_base: u64,
    cache: &mut SetAssocCache,
    admission: &mut dyn AdmissionPolicy,
    eviction: &mut dyn EvictionPolicy,
    mut score: Option<&mut dyn ScoreSource>,
    latency: &LatencyModel,
    series_window: Option<u64>,
    observer: Option<&mut dyn ReplayObserver>,
) -> SimReport {
    let mut acct = Accounting::new(warmup.len(), latency, series_window, observer);

    for (i, r) in warmup.iter().chain(measured.iter()).enumerate() {
        let seq = seq_base + i as u64;
        let (outcome, score_val) = streaming_step(r, seq, cache, admission, eviction, &mut score);
        let origin = if score_val.is_some() {
            ScoreOrigin::Streamed
        } else {
            ScoreOrigin::None
        };
        acct.record(seq, r, &outcome, score_val, origin);
    }

    acct.into_report(measured.len(), eviction, admission)
}

/// The canonical streaming replay step — observe, score the miss
/// synchronously, access. One implementation shared by the reference loop,
/// the speculative batcher's streaming spans, the serving shard workers
/// and (through the observed entry points) the `icgmm-hw` dataflow
/// warm-up, so the replay semantics cannot drift between engines: hits
/// bypass the policy engine (the hardware triggers the GMM on miss only),
/// and the score is computed with the Algorithm 1 clock exactly at the
/// record.
#[inline]
pub fn streaming_step(
    r: &TraceRecord,
    seq: u64,
    cache: &mut SetAssocCache,
    admission: &mut dyn AdmissionPolicy,
    eviction: &mut dyn EvictionPolicy,
    score: &mut Option<&mut dyn ScoreSource>,
) -> (AccessOutcome, Option<f64>) {
    if let Some(s) = score.as_deref_mut() {
        s.observe(r);
    }
    let score_val = if cache.lookup(r.page()).is_none() {
        score.as_deref_mut().map(|s| s.score_current())
    } else {
        None
    };
    let outcome = cache.access(r, seq, score_val, admission, eviction);
    (outcome, score_val)
}

/// Measurement bookkeeping shared by the streaming loop and every replay
/// arm of the speculative batcher — one implementation, so the two paths
/// cannot drift apart in what they account.
pub(crate) struct Accounting<'a, 'o> {
    warmup_len: usize,
    stats: CacheStats,
    series: Option<MissSeries>,
    total_us: f64,
    latency: &'a LatencyModel,
    observer: Option<&'o mut dyn ReplayObserver>,
}

impl<'a, 'o> Accounting<'a, 'o> {
    pub(crate) fn new(
        warmup_len: usize,
        latency: &'a LatencyModel,
        series_window: Option<u64>,
        observer: Option<&'o mut dyn ReplayObserver>,
    ) -> Self {
        Accounting {
            warmup_len,
            stats: CacheStats::default(),
            series: series_window.map(MissSeries::new),
            total_us: 0.0,
            latency,
            observer,
        }
    }

    /// Accounts one replayed request (`i` is the absolute request index;
    /// warm-up requests have full side effects and an observer event, but
    /// no statistics).
    pub(crate) fn record(
        &mut self,
        i: u64,
        r: &TraceRecord,
        outcome: &crate::AccessOutcome,
        score: Option<f64>,
        origin: ScoreOrigin,
    ) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_record(&ReplayEvent {
                seq: i,
                record: r,
                outcome,
                score,
                origin,
            });
        }
        if (i as usize) < self.warmup_len {
            return;
        }
        self.stats.record(r.op, outcome);
        self.total_us += self.latency.request_us(r.op, outcome);
        if let Some(ms) = self.series.as_mut() {
            ms.record(!outcome.is_hit());
        }
    }

    /// Forwards a window-cut event to the observer (see
    /// [`ReplayObserver::on_cut`]).
    pub(crate) fn cut(&mut self, seq: u64) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_cut(seq);
        }
    }

    /// Forwards a run-split event to the observer (see
    /// [`ReplayObserver::on_run_split`]).
    pub(crate) fn run_split(&mut self, seq: u64) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_run_split(seq);
        }
    }

    /// Finalizes the run into a [`SimReport`].
    pub(crate) fn into_report(
        self,
        measured_len: usize,
        eviction: &dyn EvictionPolicy,
        admission: &dyn AdmissionPolicy,
    ) -> SimReport {
        self.into_report_named(measured_len, eviction.name(), admission.name())
    }

    /// [`Accounting::into_report`] with the policy names passed directly —
    /// for the sharded merge, where the policies themselves were moved
    /// into the shard workers and only their names travel back.
    pub(crate) fn into_report_named(
        self,
        measured_len: usize,
        eviction: &str,
        admission: &str,
    ) -> SimReport {
        let avg_us = if measured_len == 0 {
            0.0
        } else {
            self.total_us / measured_len as f64
        };
        SimReport {
            stats: self.stats,
            total_us: self.total_us,
            avg_us,
            miss_series: self.series,
            eviction: eviction.to_string(),
            admission: admission.to_string(),
            fault: crate::fault::FaultStats::default(),
            adapt: crate::adapt::AdaptStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::policy::{AlwaysAdmit, LruPolicy, ThresholdAdmit};
    use crate::score::FnScore;
    use icgmm_trace::TraceRecord;

    fn small_cache() -> SetAssocCache {
        // 8 sets × 2 ways = 16 pages.
        SetAssocCache::new(CacheConfig {
            capacity_bytes: 16 * 4096,
            block_bytes: 4096,
            ways: 2,
        })
        .unwrap()
    }

    /// Hot set of 8 pages + an endless cold scan (3 cold per hot access,
    /// enough to flush a 2-way set between hot touches).
    fn scan_polluted_trace(n: usize) -> Vec<TraceRecord> {
        let mut v = Vec::with_capacity(n);
        let mut cold = 1000u64;
        for i in 0..n {
            if i % 4 == 0 {
                v.push(TraceRecord::read(((i / 4) as u64 % 8) << 12));
            } else {
                v.push(TraceRecord::read(cold << 12));
                cold += 1;
            }
        }
        v
    }

    #[test]
    fn admission_filter_beats_always_admit_under_scan() {
        let trace = scan_polluted_trace(4_000);
        let lat = LatencyModel::paper_tlc();

        let mut c1 = small_cache();
        let mut lru1 = LruPolicy::new(8, 2);
        let base = simulate(
            &trace,
            &mut c1,
            &mut AlwaysAdmit,
            &mut lru1,
            None,
            &lat,
            None,
        );

        // Oracle-ish score: hot pages score 1, cold scan pages 0.
        let mut src = FnScore::new(|page, _| if page < 8 { 1.0 } else { 0.0 });
        let mut c2 = small_cache();
        let mut lru2 = LruPolicy::new(8, 2);
        let mut admit = ThresholdAdmit::new(0.5);
        let smart = simulate(
            &trace,
            &mut c2,
            &mut admit,
            &mut lru2,
            Some(&mut src),
            &lat,
            None,
        );

        assert!(
            smart.stats.miss_rate() < base.stats.miss_rate(),
            "smart {} vs base {}",
            smart.stats.miss_rate(),
            base.stats.miss_rate()
        );
        assert!(smart.avg_us < base.avg_us);
        assert!(smart.stats.bypasses() > 0);
        assert_eq!(smart.admission, "gmm-threshold");
        assert_eq!(smart.eviction, "lru");
    }

    #[test]
    fn perfect_locality_is_all_hits_after_warmup() {
        let trace: Vec<TraceRecord> = (0..1000).map(|_| TraceRecord::read(0x3000)).collect();
        let mut c = small_cache();
        let mut lru = LruPolicy::new(8, 2);
        let rep = simulate(
            &trace,
            &mut c,
            &mut AlwaysAdmit,
            &mut lru,
            None,
            &LatencyModel::paper_tlc(),
            None,
        );
        assert_eq!(rep.stats.misses(), 1);
        // avg ≈ 1 µs + one 75 µs miss amortized.
        assert!((rep.avg_us - (999.0 + 75.0) / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn write_heavy_cyclic_trace_pays_writebacks() {
        // 32 pages cycled in a 16-page cache, all writes ⇒ every miss
        // eventually evicts a dirty block.
        let mut trace = Vec::new();
        for rep in 0..20 {
            for p in 0..32u64 {
                let _ = rep;
                trace.push(TraceRecord::write(p << 12));
            }
        }
        let mut c = small_cache();
        let mut lru = LruPolicy::new(8, 2);
        let rep = simulate(
            &trace,
            &mut c,
            &mut AlwaysAdmit,
            &mut lru,
            None,
            &LatencyModel::paper_tlc(),
            None,
        );
        assert!(rep.stats.dirty_evictions > 0);
        // Cyclic pattern through LRU: ~100% miss.
        assert!(rep.stats.miss_rate() > 0.9);
        assert!(rep.avg_us > 900.0, "avg {}", rep.avg_us);
    }

    #[test]
    fn miss_series_is_collected_when_requested() {
        let trace = scan_polluted_trace(1_000);
        let mut c = small_cache();
        let mut lru = LruPolicy::new(8, 2);
        let rep = simulate(
            &trace,
            &mut c,
            &mut AlwaysAdmit,
            &mut lru,
            None,
            &LatencyModel::paper_tlc(),
            Some(100),
        );
        let series = rep.miss_series.unwrap();
        assert_eq!(series.rates.len(), 10);
        assert!(series.rates.iter().all(|r| (0.0..=1.0).contains(r)));
    }

    #[test]
    fn warmup_phase_fills_the_cache_without_counting() {
        // 16 hot pages exactly fill the small cache; warming with them
        // makes the measured phase all-hits.
        let hot: Vec<TraceRecord> = (0..16u64).map(|p| TraceRecord::read(p << 12)).collect();
        let measured: Vec<TraceRecord> = (0..64u64)
            .map(|i| TraceRecord::read((i % 16) << 12))
            .collect();
        let mut c = small_cache();
        let mut lru = LruPolicy::new(8, 2);
        let rep = simulate_with_warmup(
            &hot,
            &measured,
            &mut c,
            &mut AlwaysAdmit,
            &mut lru,
            None,
            &LatencyModel::paper_tlc(),
            None,
        );
        assert_eq!(rep.stats.accesses(), 64, "warm-up must not be counted");
        assert_eq!(rep.stats.misses(), 0, "warm cache should serve all hits");
        assert_eq!(rep.avg_us, 1.0);
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let mut c = small_cache();
        let mut lru = LruPolicy::new(8, 2);
        let rep = simulate(
            &[],
            &mut c,
            &mut AlwaysAdmit,
            &mut lru,
            None,
            &LatencyModel::paper_tlc(),
            None,
        );
        assert_eq!(rep.stats.accesses(), 0);
        assert_eq!(rep.avg_us, 0.0);
    }
}
