//! Transaction-level model of the full ICGMM dataflow system (paper
//! Fig. 5): trace FIFO → cache control engine → {policy engine ∥ SSD
//! emulator} → response FIFO.
//!
//! The functional behaviour (hits, misses, admissions, evictions) is the
//! same `icgmm-cache` simulator the analytic model uses; this module adds
//! *time*: per-request arrival/start/finish instants under the paper's
//! dataflow rules —
//!
//! * the trace loader prefetches while the cache engine works, limited by
//!   the trace FIFO depth (backpressure);
//! * the engine processes requests in order;
//! * on a miss, GMM inference and the SSD access run **concurrently**
//!   (`overlap_policy_with_ssd`), so the slower of the two — in practice
//!   the SSD — hides the other.
//!
//! Disabling overlap reproduces a naïve sequential design and quantifies
//! exactly what the dataflow architecture buys (the paper's §4.3 claim).
//!
//! # Host replay vs modeled time
//!
//! The timing model is a [`icgmm_cache::ReplayObserver`]
//! ([`DataflowTimer`], private) hanging off the cache crate's
//! replay-event stream: the host computes the outcomes with the one
//! streaming replay loop (a single-point score per miss, exactly the
//! paper's Algorithm 1 datapath), and the observer charges each miss one
//! GMM inference overlapped (or not) with its own SSD access, FIFO
//! backpressure and SSD queueing included.

use crate::cache_engine::CacheEngineModel;
use crate::clock::ClockDomain;
use crate::gmm_engine::GmmEngineModel;
use crate::ssd::{SsdEmulator, SsdProfile, SsdStats};
use icgmm_cache::{
    simulate_streaming_observed_with_warmup, AccessOutcome, AdmissionPolicy, CacheConfig,
    CacheConfigError, CacheStats, EvictionPolicy, FaultPlan, FaultStats, LatencyModel, ReplayEvent,
    ReplayObserver, ScoreSource, SetAssocCache,
};
use icgmm_trace::{Op, TraceRecord};
use serde::{Deserialize, Serialize};

/// Configuration of the dataflow system model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DataflowConfig {
    /// Clock domain (233 MHz in the paper).
    pub clock: ClockDomain,
    /// Trace-FIFO depth (loader lookahead).
    pub trace_fifo_depth: usize,
    /// Cache-control-engine timing.
    pub cache_engine: CacheEngineModel,
    /// GMM policy-engine timing.
    pub gmm_engine: GmmEngineModel,
    /// Emulated storage device.
    pub ssd: SsdProfile,
    /// Run policy inference concurrently with the SSD access (the paper's
    /// dataflow architecture); `false` models a sequential design.
    pub overlap_policy_with_ssd: bool,
    /// Deterministic fault-injection plan. The empty default leaves every
    /// code path — and the report — bit-identical to a fault-free build;
    /// arming device faults makes SSD commands fail/retry/spike on the
    /// modeled timeline.
    pub fault: FaultPlan,
}

impl Default for DataflowConfig {
    fn default() -> Self {
        DataflowConfig {
            clock: ClockDomain::paper_233mhz(),
            trace_fifo_depth: 64,
            cache_engine: CacheEngineModel::paper_default(),
            gmm_engine: GmmEngineModel::paper_k256(),
            ssd: SsdProfile::tlc(),
            overlap_policy_with_ssd: true,
            fault: FaultPlan::empty(),
        }
    }
}

/// Timing + functional results of a dataflow run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DataflowReport {
    /// Functional counters (identical semantics to the analytic simulator).
    pub stats: CacheStats,
    /// Makespan: finish time of the last request, µs.
    pub makespan_us: f64,
    /// Mean service latency (finish − start), µs — the paper's "average
    /// SSD access time" metric: the engine pauses the dataflow per request
    /// (§4.2), so service time is what the on-board measurement reports.
    pub avg_request_us: f64,
    /// Mean time requests spent queued in the trace FIFO before service,
    /// µs (diagnostic; grows when the replay rate outruns the engine).
    pub avg_queue_us: f64,
    /// Total policy-engine busy time, µs.
    pub gmm_busy_us: f64,
    /// SSD emulator statistics.
    pub ssd: SsdStats,
    /// Times the trace loader stalled on a full FIFO.
    pub loader_stalls: u64,
    /// Time saved by overlapping policy inference with SSD access compared
    /// to a sequential design, µs.
    pub overlap_saved_us: f64,
    /// Fault-injection and degradation counters (all-zero without an armed
    /// [`DataflowConfig::fault`] plan): device failures/retries/spikes/
    /// timeouts charged to the modeled timeline.
    pub fault: FaultStats,
}

impl DataflowReport {
    /// SSD utilization over the whole run.
    pub fn ssd_utilization(&self) -> f64 {
        if self.makespan_us == 0.0 {
            0.0
        } else {
            self.ssd.busy_us / self.makespan_us
        }
    }
}

/// Per-record timing accounting of the dataflow model, driven by the
/// replay-event stream: each miss pays one GMM inference overlapped (or
/// not) with its own SSD access.
struct DataflowTimer {
    warmup_len: usize,
    cycle_us: f64,
    hit_us: f64,
    miss_overhead_us: f64,
    gmm_us: f64,
    overlap: bool,
    depth: usize,
    // Ring buffer of the last `depth` finish times (bounded-buffer rule:
    // record i cannot enter the FIFO before record i-depth has left it).
    finish_ring: Vec<f64>,
    idx: usize,
    prev_arrival: f64,
    prev_finish: f64,
    latency_sum: f64,
    queue_sum: f64,
    gmm_busy_us: f64,
    overlap_saved_us: f64,
    loader_stalls: u64,
    ssd: SsdEmulator,
}

impl DataflowTimer {
    fn new(config: &DataflowConfig, warmup_len: usize) -> Self {
        let depth = config.trace_fifo_depth.max(1);
        DataflowTimer {
            warmup_len,
            cycle_us: 1.0 / config.clock.mhz,
            hit_us: config.cache_engine.hit_us(),
            miss_overhead_us: config.cache_engine.miss_overhead_us(),
            gmm_us: config.gmm_engine.latency_us(),
            overlap: config.overlap_policy_with_ssd,
            depth,
            finish_ring: vec![0.0; depth],
            idx: 0,
            prev_arrival: 0.0,
            prev_finish: 0.0,
            latency_sum: 0.0,
            queue_sum: 0.0,
            gmm_busy_us: 0.0,
            overlap_saved_us: 0.0,
            loader_stalls: 0,
            ssd: SsdEmulator::with_faults(config.ssd.clone(), config.fault),
        }
    }

    /// Advances the modeled timeline by one measured request.
    fn step(&mut self, op: Op, outcome: &AccessOutcome) {
        let i = self.idx;
        self.idx += 1;

        // Loader: one record per cycle, gated by FIFO space.
        let fifo_free_at = self.finish_ring[i % self.depth];
        let mut arrival = self.prev_arrival + self.cycle_us;
        if fifo_free_at > arrival {
            arrival = fifo_free_at;
            self.loader_stalls += 1;
        }
        self.prev_arrival = arrival;

        // Engine: in-order service.
        let start = arrival.max(self.prev_finish);
        let finish = match outcome {
            AccessOutcome::Hit { .. } => start + self.hit_us,
            AccessOutcome::MissInserted { evicted, .. } => {
                let t0 = start + self.miss_overhead_us;
                // Page fetch; dirty victims are written back behind it.
                let mut ssd_done = self.ssd.access(t0, Op::Read);
                if let Some(e) = evicted {
                    if e.dirty {
                        ssd_done = self.ssd.access(ssd_done, Op::Write);
                    }
                }
                self.miss_finish(t0, ssd_done)
            }
            AccessOutcome::MissBypassed => {
                let t0 = start + self.miss_overhead_us;
                let ssd_done = self.ssd.access(t0, op);
                self.miss_finish(t0, ssd_done)
            }
        };
        self.latency_sum += finish - start;
        self.queue_sum += start - arrival;
        self.prev_finish = finish;
        self.finish_ring[i % self.depth] = finish;
    }

    /// Completes a miss: the GMM inference runs concurrently with the SSD
    /// access under the dataflow architecture, sequentially otherwise.
    fn miss_finish(&mut self, t0: f64, ssd_done: f64) -> f64 {
        self.gmm_busy_us += self.gmm_us;
        let ssd_time = ssd_done - t0;
        if self.overlap {
            self.overlap_saved_us += self.gmm_us.min(ssd_time);
            t0 + ssd_time.max(self.gmm_us)
        } else {
            t0 + self.gmm_us + ssd_time
        }
    }

    fn into_report(self, stats: CacheStats, n: usize) -> DataflowReport {
        DataflowReport {
            stats,
            makespan_us: self.prev_finish,
            avg_request_us: if n == 0 {
                0.0
            } else {
                self.latency_sum / n as f64
            },
            avg_queue_us: if n == 0 {
                0.0
            } else {
                self.queue_sum / n as f64
            },
            gmm_busy_us: self.gmm_busy_us,
            loader_stalls: self.loader_stalls,
            overlap_saved_us: self.overlap_saved_us,
            fault: *self.ssd.fault_stats(),
            ssd: self.ssd.stats(),
        }
    }
}

impl ReplayObserver for DataflowTimer {
    fn on_record(&mut self, ev: &ReplayEvent<'_>) {
        // Warm-up requests have state effects only: no time is charged
        // (mirrors the analytic simulator's untimed warm-up).
        if (ev.seq as usize) < self.warmup_len {
            return;
        }
        debug_assert_eq!(
            ev.seq as usize - self.warmup_len,
            self.idx,
            "replay events must arrive in trace order, exactly once each"
        );
        self.step(ev.record.op, ev.outcome);
    }
}

/// The latency model handed to the functional replay for its
/// (discarded) [`icgmm_cache::SimReport`] accounting — the dataflow model
/// computes its own timing through [`DataflowTimer`].
fn accounting_latency() -> LatencyModel {
    LatencyModel::paper_tlc()
}

/// Runs the dataflow system over a trace.
///
/// `score` follows the same contract as the analytic simulator: observed on
/// every request, queried only on misses.
///
/// # Errors
///
/// Returns [`CacheConfigError`] for invalid cache geometry.
pub fn run_dataflow(
    records: &[TraceRecord],
    cache_cfg: CacheConfig,
    admission: &mut dyn AdmissionPolicy,
    eviction: &mut dyn EvictionPolicy,
    score: Option<&mut dyn ScoreSource>,
    config: &DataflowConfig,
) -> Result<DataflowReport, CacheConfigError> {
    run_dataflow_with_warmup(&[], records, cache_cfg, admission, eviction, score, config)
}

/// [`run_dataflow`] preceded by an untimed warm-up phase: the cache, the
/// policies and the score source see `warmup` (state effects only); timing
/// and statistics cover `measured` (mirrors the analytic simulator's
/// `simulate_streaming_with_warmup`). The streaming functional loop (one synchronous
/// score per miss) drives the per-miss timing model.
///
/// # Errors
///
/// Returns [`CacheConfigError`] for invalid cache geometry.
#[allow(clippy::too_many_arguments)]
pub fn run_dataflow_with_warmup(
    warmup: &[TraceRecord],
    measured: &[TraceRecord],
    cache_cfg: CacheConfig,
    admission: &mut dyn AdmissionPolicy,
    eviction: &mut dyn EvictionPolicy,
    score: Option<&mut dyn ScoreSource>,
    config: &DataflowConfig,
) -> Result<DataflowReport, CacheConfigError> {
    let mut cache = SetAssocCache::new(cache_cfg)?;
    let mut timer = DataflowTimer::new(config, warmup.len());
    let sim = simulate_streaming_observed_with_warmup(
        warmup,
        measured,
        &mut cache,
        admission,
        eviction,
        score,
        &accounting_latency(),
        None,
        &mut timer,
    );
    Ok(timer.into_report(sim.stats, measured.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use icgmm_cache::{AlwaysAdmit, LatencyModel, LruPolicy, SetAssocCache};

    fn small_cfg() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 16 * 4096,
            block_bytes: 4096,
            ways: 2,
        }
    }

    fn mixed_trace(n: usize) -> Vec<TraceRecord> {
        // Hot pages 0..8 with periodic cold misses.
        (0..n)
            .map(|i| {
                if i % 5 == 4 {
                    TraceRecord::read(((1000 + i as u64) << 12) | 0x40)
                } else {
                    TraceRecord::read(((i as u64 % 8) << 12) | 0x80)
                }
            })
            .collect()
    }

    #[test]
    fn dataflow_agrees_with_analytic_model() {
        let trace = mixed_trace(2_000);
        let cfg = small_cfg();

        let mut lru1 = LruPolicy::new(cfg.num_sets(), cfg.ways);
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let analytic = icgmm_cache::simulate(
            &trace,
            &mut cache,
            &mut AlwaysAdmit,
            &mut lru1,
            None,
            &LatencyModel::paper_tlc(),
            None,
        );

        let mut lru2 = LruPolicy::new(cfg.num_sets(), cfg.ways);
        let df = run_dataflow(
            &trace,
            cfg,
            &mut AlwaysAdmit,
            &mut lru2,
            None,
            &DataflowConfig::default(),
        )
        .unwrap();

        // Identical functional behaviour...
        assert_eq!(df.stats, analytic.stats);
        // ...and average latency within 3% (the dataflow model adds small
        // decode/update overheads the analytic constants fold in).
        let rel = (df.avg_request_us - analytic.avg_us).abs() / analytic.avg_us;
        assert!(
            rel < 0.03,
            "dataflow {} vs analytic {} ({}%)",
            df.avg_request_us,
            analytic.avg_us,
            rel * 100.0
        );
    }

    #[test]
    fn overlap_hides_policy_latency() {
        let trace = mixed_trace(2_000);
        let cfg = small_cfg();
        let run = |overlap: bool| {
            let mut lru = LruPolicy::new(cfg.num_sets(), cfg.ways);
            run_dataflow(
                &trace,
                cfg,
                &mut AlwaysAdmit,
                &mut lru,
                None,
                &DataflowConfig {
                    overlap_policy_with_ssd: overlap,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let with = run(true);
        let without = run(false);
        assert!(with.avg_request_us < without.avg_request_us);
        // Sequential pays the full 3 µs per miss; overlapped hides it all
        // (SSD read is 75 µs > 3 µs).
        let misses = with.stats.misses() as f64;
        let expected_gap = 3.0 * misses / trace.len() as f64;
        let gap = without.avg_request_us - with.avg_request_us;
        assert!(
            (gap - expected_gap).abs() < expected_gap * 0.1 + 0.01,
            "gap {gap} vs expected {expected_gap}"
        );
        assert!(with.overlap_saved_us > 0.0);
        assert_eq!(without.overlap_saved_us, 0.0);
    }

    #[test]
    fn ssd_dominates_makespan_on_miss_heavy_traces() {
        // All-miss streaming trace.
        let trace: Vec<TraceRecord> = (0..500u64).map(|i| TraceRecord::read(i << 12)).collect();
        let cfg = small_cfg();
        let mut lru = LruPolicy::new(cfg.num_sets(), cfg.ways);
        let df = run_dataflow(
            &trace,
            cfg,
            &mut AlwaysAdmit,
            &mut lru,
            None,
            &DataflowConfig::default(),
        )
        .unwrap();
        assert!(df.ssd_utilization() > 0.95, "{}", df.ssd_utilization());
        assert!(df.makespan_us >= df.ssd.busy_us);
    }

    #[test]
    fn empty_trace_reports_zeroes() {
        let cfg = small_cfg();
        let mut lru = LruPolicy::new(cfg.num_sets(), cfg.ways);
        let df = run_dataflow(
            &[],
            cfg,
            &mut AlwaysAdmit,
            &mut lru,
            None,
            &DataflowConfig::default(),
        )
        .unwrap();
        assert_eq!(df.stats.accesses(), 0);
        assert_eq!(df.makespan_us, 0.0);
        assert_eq!(df.avg_request_us, 0.0);
    }

    #[test]
    fn invalid_geometry_is_an_error() {
        let bad = CacheConfig {
            capacity_bytes: 1000,
            block_bytes: 4096,
            ways: 2,
        };
        let mut lru = LruPolicy::new(1, 2);
        assert!(run_dataflow(
            &[],
            bad,
            &mut AlwaysAdmit,
            &mut lru,
            None,
            &DataflowConfig::default()
        )
        .is_err());
    }
}
