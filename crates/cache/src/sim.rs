//! Trace-driven cache simulation: the glue that turns a trace, a
//! [`Policy`], an optional score source and a latency model into miss
//! rates and average access latency (the quantities of the paper's
//! Fig. 6/Table 1).
//!
//! # One replay loop
//!
//! Every entry point — [`simulate`], [`simulate_streaming_with_warmup`],
//! [`simulate_streaming_observed_with_warmup`], the sharded engine's
//! workers and the serving workers, which feed it from their queues
//! ([`crate::ShardSupervisor::replay`]) — runs the
//! same loop: access the cache with each request, and score the request
//! synchronously at its global trace position if it missed (one
//! single-point policy-engine inference, as in the paper's Algorithm 1
//! datapath; an eviction that must rank blocks inserted without a trusted
//! score re-scores them at the same position). A request costs
//! **one tag compare**: the access path decides hit or miss itself and
//! asks for the score only after a miss
//! ([`SetAssocCache::access_scored`]), so nothing looks the page up a
//! second time, and a hit never reaches the score stack. There is no
//! routing decision anywhere.
//!
//! The loop exposes a **replay-event stream**: a [`ReplayObserver`] passed
//! to [`simulate_streaming_observed_with_warmup`] receives every record's
//! real outcome in trace order, so consumers that attach their own
//! semantics to the replay (a shard's armed panic point, a test's
//! reference timeline) never duplicate it.
//!
//! # One input shape
//!
//! The paper trims the first 20 % of a trace from measurement while the
//! cache, the policy and the Algorithm 1 clock still live through it
//! (§3.1), so a replay's input is the whole trace — warm-up ⧺ measured,
//! one contiguous slice — plus `measured_from`, the position measurement
//! starts at. The loop walks `(global position, &record)` pairs: the
//! slice's records a shard's routing rule keeps ([`crate::ShardCtx::walk`];
//! all of them at one shard), or the positions a serving worker's queue
//! delivers. Only the counting reads the boundary. The two-slice entry
//! points feed the same loop the slices chained.
//!
//! # Accounting is a sum
//!
//! The loop counts; it does not keep time. A measured request bumps the
//! integer [`CacheStats`] (and, when a series is asked for, the
//! [`MissSeries`] window its trace position falls in), and the report's
//! `total_us` / `avg_us` are derived once, at the end, from those counters
//! ([`SimReport::from_counts`] → [`LatencyModel::total_us`]): a request's
//! cost is a function of its own `(op, outcome)`, so a run's cost is a
//! function of how many requests had each shape. Nothing in a report
//! depends on the order its requests were accounted in, which is what lets
//! shards merge by adding counters.
//!
//! Device faults are the one per-request addend: with a plan that arms
//! them, `Accounting::record` rolls each measured miss's SSD commands at
//! `(position, command)` ([`crate::FaultPlan::device_command_as`]) and
//! counts what the slower device added to the request, in whole
//! attoseconds, in [`crate::FaultStats::device_request_as`] — an integer
//! counter like the others, converted to µs and added to `total_us` once.

use crate::cache::{AccessOutcome, SetAssocCache};
use crate::fault::{add_as, FaultPlan, FaultStats};
use crate::latency::{attos, micros, LatencyModel};
use crate::policy::{Evict, Policy, ThresholdAdmit};
use crate::score::ScoreSource;
use crate::stats::{CacheStats, MissSeries};
use icgmm_trace::TraceRecord;
use serde::{Deserialize, Serialize};

/// One replayed record, delivered to a [`ReplayObserver`] in trace order.
///
/// Events cover *every* record — warm-up included (`seq` is the absolute
/// request index, so observers can skip `seq < warmup_len`) — and are
/// emitted exactly once per record.
#[derive(Debug)]
pub struct ReplayEvent<'a> {
    /// Absolute request index (warm-up + measured, 0-based).
    pub seq: u64,
    /// The trace record.
    pub record: &'a TraceRecord,
    /// The cache outcome.
    pub outcome: &'a AccessOutcome,
}

/// Consumer of the replay event stream.
///
/// This is the seam between *host replay* (how the simulator computes
/// outcomes) and *modeled semantics* (what each outcome means): anything
/// built on it — a shard's armed panic point, custom telemetry — rides the
/// one replay loop instead of copying it.
pub trait ReplayObserver {
    /// One record replayed (trace order, exactly once per record).
    fn on_record(&mut self, ev: &ReplayEvent<'_>);
}

/// Result of one simulation run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Hit/miss/bypass/eviction counters.
    pub stats: CacheStats,
    /// Sum of per-request latency, in µs: [`LatencyModel::total_us`] of
    /// `stats` plus what device faults added
    /// ([`crate::FaultStats::device_request_as`]).
    pub total_us: f64,
    /// Average per-request latency, in µs (the paper's Table 1 metric):
    /// `total_us` over `stats.accesses()`, 0 for an empty run.
    pub avg_us: f64,
    /// Optional per-window miss-rate series.
    pub miss_series: Option<MissSeries>,
    /// Name of the eviction rule used ([`Policy::eviction_name`]).
    pub eviction: String,
    /// Name of the admission rule used ([`Policy::admission_name`]).
    pub admission: String,
    /// Fault-injection and degradation counters: all-zero from the plain
    /// `simulate*` entry points and on fault-free runs; a shard's report
    /// holds its device faults and what its score stack counted
    /// ([`crate::ScoreSource::telemetry`]), a merged one the shards' sum.
    pub fault: FaultStats,
    /// Online-adaptation counters (all-zero on static runs), filled in the
    /// same way.
    pub adapt: crate::adapt::AdaptStats,
}

impl SimReport {
    /// The report of a run that counted `stats` (and `miss_series`, and
    /// `fault`) under `latency` — the one place modeled time is computed,
    /// for a replay, a shard, a serving worker and the sum of shards alike.
    /// `adapt` starts all-zero.
    pub fn from_counts(
        stats: CacheStats,
        miss_series: Option<MissSeries>,
        fault: FaultStats,
        latency: &LatencyModel,
        eviction: &str,
        admission: &str,
    ) -> Self {
        let total_us = latency.total_us(&stats) + micros(fault.device_request_as);
        let avg_us = match stats.accesses() {
            0 => 0.0,
            n => total_us / n as f64,
        };
        SimReport {
            stats,
            total_us,
            avg_us,
            miss_series,
            eviction: eviction.to_string(),
            admission: admission.to_string(),
            fault,
            adapt: crate::adapt::AdaptStats::default(),
        }
    }

    /// Miss rate in percent (Fig. 6 units).
    pub fn miss_rate_pct(&self) -> f64 {
        self.stats.miss_rate() * 100.0
    }
}

/// Runs `records` through the cache under `policy`.
///
/// `score` (when provided) is asked for a score on misses only
/// ([`ScoreSource::score`]). Pass `None` to run score-free baselines
/// (LRU, Belady's MIN).
///
/// `series_window`, when set, collects a per-window miss-rate series.
pub fn simulate(
    records: &[TraceRecord],
    cache: &mut SetAssocCache,
    policy: &mut Policy,
    score: Option<&mut dyn ScoreSource>,
    latency: &LatencyModel,
    series_window: Option<u64>,
) -> SimReport {
    let plan = FaultPlan::empty();
    let acct = Accounting::new(0, series_window, &plan, latency);
    replay_chained(&[], records, cache, policy, score, acct)
}

/// The streaming loop over `warmup` ⧺ `measured`, numbered from 0.
fn replay_chained(
    warmup: &[TraceRecord],
    measured: &[TraceRecord],
    cache: &mut SetAssocCache,
    policy: &mut Policy,
    score: Option<&mut dyn ScoreSource>,
    acct: Accounting<'_>,
) -> SimReport {
    let records = (0..).zip(warmup.iter().chain(measured));
    simulate_streaming_impl(records, cache, policy, score, acct).0
}

/// The [`Policy`] a benchmark façade's two policy arguments describe — a
/// copy, so the caller's values are left as they were.
pub(crate) fn facade_policy<A, E>(admission: &A, eviction: &E) -> Policy
where
    A: Clone + Into<Option<ThresholdAdmit>>,
    E: Clone + Into<Evict>,
{
    Policy::new(admission.clone().into(), eviction.clone())
}

/// Benchmark façade — called by `icgmm_bench` with a [`ThresholdAdmit`] /
/// [`crate::AlwaysAdmit`] and a [`crate::GmmScorePolicy`] /
/// [`crate::LruPolicy`]; deleted by the benchmark PR (ROADMAP item 2a).
/// [`simulate`] preceded by a warm-up phase, under a copy of the policy
/// the two arguments describe.
///
/// The paper trims the first 20 % of each trace from *measurement*, but the
/// cache, the policy and the Algorithm 1 clock still experience those
/// requests (the program was running). `warmup` is replayed through the
/// full access path with statistics discarded; `measured` follows with
/// statistics recorded. Sequence numbers are continuous across phases:
/// this is the one loop over `warmup` ⧺ `measured` with measurement from
/// `warmup.len()` on.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn simulate_streaming_with_warmup<A, E>(
    warmup: &[TraceRecord],
    measured: &[TraceRecord],
    cache: &mut SetAssocCache,
    admission: &mut A,
    eviction: &mut E,
    score: Option<&mut dyn ScoreSource>,
    latency: &LatencyModel,
    series_window: Option<u64>,
) -> SimReport
where
    A: Clone + Into<Option<ThresholdAdmit>>,
    E: Clone + Into<Evict>,
{
    let plan = FaultPlan::empty();
    let acct = Accounting::new(warmup.len() as u64, series_window, &plan, latency);
    let mut policy = facade_policy(admission, eviction);
    replay_chained(warmup, measured, cache, &mut policy, score, acct)
}

/// Benchmark façade, as [`simulate_streaming_with_warmup`] — with a
/// [`ReplayObserver`] receiving the per-record event stream (warm-up
/// events included, flagged by `seq`): a per-record model riding the
/// functional replay without duplicating the loop.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn simulate_streaming_observed_with_warmup<A, E>(
    warmup: &[TraceRecord],
    measured: &[TraceRecord],
    cache: &mut SetAssocCache,
    admission: &mut A,
    eviction: &mut E,
    score: Option<&mut dyn ScoreSource>,
    latency: &LatencyModel,
    series_window: Option<u64>,
    observer: &mut dyn ReplayObserver,
) -> SimReport
where
    A: Clone + Into<Option<ThresholdAdmit>>,
    E: Clone + Into<Evict>,
{
    let plan = FaultPlan::empty();
    let mut acct = Accounting::new(warmup.len() as u64, series_window, &plan, latency);
    acct.observer = Some(observer);
    let mut policy = facade_policy(admission, eviction);
    replay_chained(warmup, measured, cache, &mut policy, score, acct)
}

/// The streaming loop behind every entry point. `records` walks the
/// replayed records with their global trace positions, ascending — a
/// slice's own indices, a shard's routed walk over the whole trace, or a
/// serving worker's arrivals — and `acct` counts them (it holds the
/// position measurement starts at: the whole trace's warm-up length,
/// however few warm-up records this walk holds). Returns the report and
/// how many scores the source computed (scored misses and re-scored
/// blocks, warm-up included).
pub(crate) fn simulate_streaming_impl<'r>(
    records: impl Iterator<Item = (u64, &'r TraceRecord)>,
    cache: &mut SetAssocCache,
    policy: &mut Policy,
    mut score: Option<&mut dyn ScoreSource>,
    mut acct: Accounting<'_>,
) -> (SimReport, u64) {
    let mut scored = 0u64;

    // `seq` counts the records this loop replays (what the policy ranks
    // by); `pos` is where each one sits in the whole trace (what the score
    // source clocks by). One tag compare decides hit or miss; hits bypass
    // the policy engine (the hardware triggers the GMM on miss only), and a
    // miss — with any block it re-scores — is scored at exactly its
    // record's position.
    for (seq, (pos, r)) in (0..).zip(records) {
        let score_at_pos = |page| {
            let s = score.as_deref_mut()?;
            scored += 1;
            Some(s.score(page, pos))
        };
        let outcome = cache.access_scored(r, seq, score_at_pos, policy);
        acct.record(seq, pos, r, &outcome);
    }

    (
        acct.finish(policy.eviction_name(), policy.admission_name()),
        scored,
    )
}

/// Measurement bookkeeping — the one accounting step of the streaming loop
/// (and of `merge.rs`'s benchmark façade): integer counters, plus the
/// device faults of an armed plan, turned into a report — and into modeled
/// time — once, at the end ([`SimReport::from_counts`]).
pub(crate) struct Accounting<'a> {
    measured_from: u64,
    latency: &'a LatencyModel,
    pub(crate) stats: CacheStats,
    series: Option<MissSeries>,
    /// The plan, when it arms device faults: rolled on every measured miss.
    device: Option<FaultPlan>,
    fault: FaultStats,
    pub(crate) observer: Option<&'a mut dyn ReplayObserver>,
}

impl<'a> Accounting<'a> {
    /// `measured_from` is the global trace position of the first measured
    /// record: everything before it is warm-up. `series_window`, when set,
    /// keeps a per-window miss series; `fault`'s device faults, when
    /// armed, are charged to the measured misses under `latency`.
    pub(crate) fn new(
        measured_from: u64,
        series_window: Option<u64>,
        fault: &FaultPlan,
        latency: &'a LatencyModel,
    ) -> Self {
        Accounting {
            measured_from,
            latency,
            stats: CacheStats::default(),
            series: series_window.map(MissSeries::new),
            device: fault.device_armed().then_some(*fault),
            fault: FaultStats::default(),
            observer: None,
        }
    }

    /// Accounts one replayed request: the `seq`-th this replay saw, at
    /// global trace position `pos`. Warm-up requests have full side effects
    /// and an observer event, but no statistics. Always inlined (see
    /// [`SetAssocCache::access_scored`]).
    #[inline(always)]
    pub(crate) fn record(&mut self, seq: u64, pos: u64, r: &TraceRecord, outcome: &AccessOutcome) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_record(&ReplayEvent {
                seq,
                record: r,
                outcome,
            });
        }
        let Some(measured_pos) = pos.checked_sub(self.measured_from) else {
            return;
        };
        self.stats.record(r.op(), outcome);
        if let Some(ms) = self.series.as_mut() {
            ms.record(measured_pos, !outcome.is_hit());
        }
        if self.device.is_some() && !outcome.is_hit() {
            self.charge_device(pos, r, outcome);
        }
    }

    /// Rolls a measured miss's SSD commands in issue order and counts what
    /// the faulted device added to the request, in attoseconds.
    #[cold]
    #[inline(never)]
    fn charge_device(&mut self, pos: u64, r: &TraceRecord, outcome: &AccessOutcome) {
        let Some(plan) = &self.device else { return };
        let (lat, fault) = (self.latency, &mut self.fault);
        let (mut nominal, mut faulted, mut cmd) = (0, 0, 0);
        lat.split_with(r.op(), outcome, |us| {
            nominal += attos(us);
            faulted += plan.device_command_as(pos, cmd, us, fault);
            cmd += 1;
            us
        });
        let p = attos(lat.policy_engine_us);
        let added = if lat.overlap_policy_with_ssd {
            faulted.max(p) - nominal.max(p)
        } else {
            faulted - nominal
        };
        add_as(&mut fault.device_request_as, added);
    }

    /// The report of everything accounted, under the policy's names.
    pub(crate) fn finish(self, eviction: &str, admission: &str) -> SimReport {
        let (stats, series, fault) = (self.stats, self.series, self.fault);
        SimReport::from_counts(stats, series, fault, self.latency, eviction, admission)
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
        let mut lru1 = Policy::lru(8, 2);
        let base = simulate(&trace, &mut c1, &mut lru1, None, &lat, None);

        // Oracle-ish score: hot pages score 1, cold scan pages 0.
        let mut src = FnScore::new(|page, _| if page < 8 { 1.0 } else { 0.0 });
        let mut c2 = small_cache();
        let mut filtered = Policy::new(Some(ThresholdAdmit::new(0.5)), LruPolicy::new(8, 2));
        let smart = simulate(&trace, &mut c2, &mut filtered, Some(&mut src), &lat, None);

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
        let mut lru = Policy::lru(8, 2);
        let rep = simulate(
            &trace,
            &mut c,
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
        let mut lru = Policy::lru(8, 2);
        let rep = simulate(
            &trace,
            &mut c,
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
        let mut lru = Policy::lru(8, 2);
        let rep = simulate(
            &trace,
            &mut c,
            &mut lru,
            None,
            &LatencyModel::paper_tlc(),
            Some(100),
        );
        let series = rep.miss_series.unwrap();
        assert_eq!(series.rates().len(), 10);
        assert!(series.rates().iter().all(|r| (0.0..=1.0).contains(r)));
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
        let rep = simulate_streaming_with_warmup(
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
        let mut lru = Policy::lru(8, 2);
        let rep = simulate(
            &[],
            &mut c,
            &mut lru,
            None,
            &LatencyModel::paper_tlc(),
            None,
        );
        assert_eq!(rep.stats.accesses(), 0);
        assert_eq!(rep.avg_us, 0.0);
    }
}
