//! Transaction-level model of the full ICGMM dataflow system (paper
//! Fig. 5): trace FIFO → cache control engine → {policy engine ∥ SSD
//! emulator} → response FIFO.
//!
//! The functional behaviour (hits, misses, admissions, evictions) is the
//! `icgmm-cache` replay; this module supplies *time*, from the cycle
//! counts of the engines: a hit costs the cache engine's lookup + data
//! move, a miss its lookup + tag update and then GMM inference and the
//! SSD access **concurrently** (`overlap_policy_with_ssd`), so the slower
//! of the two — in practice the SSD — hides the other. Disabling overlap
//! reproduces a naïve sequential design and quantifies exactly what the
//! dataflow architecture buys (the paper's §4.3 claim): the inference
//! latency, once per miss.
//!
//! # Modeled time is a function of the outcome
//!
//! The engine serves requests in order and the SSD emulator pauses the
//! dataflow for each command (§4.2), so one request is in flight at a
//! time. A timeline with a loader, a FIFO and a device busy-until clock
//! adds nothing to that:
//!
//! 1. the loader delivers a record per cycle and every service takes at
//!    least one cycle, so `arrival_i ≤ finish_{i−1}`;
//! 2. in-order service starts at `max(arrival_i, finish_{i−1})`, hence
//!    `start_i = finish_{i−1}`: the engine never idles and the makespan is
//!    the sum of the service times;
//! 3. the previous request finished only after its last SSD command did,
//!    so the device is idle at every issue and nothing ever queues.
//!
//! A request's time therefore depends on its own `(op, outcome)` only,
//! which is what [`icgmm_cache::LatencyModel`] computes:
//! [`DataflowConfig::latency`] derives one from the engines,
//! [`run_dataflow`] is the plain streaming replay under it (set it as
//! `IcgmmConfig::latency` and the sharded, served and adapting front-ends
//! report dataflow time too), and the report's traffic and overlap figures
//! are closed forms of the replay's counters. The timeline this replaced
//! is the oracle of `tests/dataflow_equivalence.rs`. Device faults are the
//! one per-command effect: only with [`FaultPlan::device_armed`] is a
//! replay observer installed, to roll each SSD command's faulted service
//! time by command index and charge what it adds to the miss.

use crate::cache_engine::CacheEngineModel;
use crate::gmm_engine::GmmEngineModel;
use crate::ssd::{faulted_service_us, SsdProfile, SsdStats};
use icgmm_cache::{
    simulate_streaming_observed_with_warmup, simulate_streaming_with_warmup, AdmissionPolicy,
    CacheConfig, CacheStats, EvictionPolicy, FaultPlan, FaultStats, LatencyModel, ReplayEvent,
    ReplayObserver, ScoreSource, SetAssocCache, ShardRunError, SimReport,
};
use icgmm_trace::TraceRecord;
use serde::{Deserialize, Serialize};

/// Configuration of the dataflow system model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DataflowConfig {
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
            cache_engine: CacheEngineModel::paper_default(),
            gmm_engine: GmmEngineModel::paper_k256(),
            ssd: SsdProfile::tlc(),
            overlap_policy_with_ssd: true,
            fault: FaultPlan::empty(),
        }
    }
}

impl DataflowConfig {
    /// The per-request latency model these engines amount to (see the
    /// module docs): cycle counts in, microseconds per `(op, outcome)` out.
    pub fn latency(&self) -> LatencyModel {
        LatencyModel {
            hit_us: self.cache_engine.hit_us(),
            miss_overhead_us: self.cache_engine.miss_overhead_us(),
            ssd_read_us: self.ssd.read_us,
            ssd_write_us: self.ssd.write_us,
            policy_engine_us: self.gmm_engine.latency_us(),
            overlap_policy_with_ssd: self.overlap_policy_with_ssd,
        }
    }
}

/// Timing + functional results of a dataflow run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DataflowReport {
    /// Functional counters (identical semantics to the analytic simulator).
    pub stats: CacheStats,
    /// Makespan: finish time of the last request, µs — the sum of the
    /// service times, since the engine never idles.
    pub makespan_us: f64,
    /// Mean service latency, µs — the paper's "average SSD access time"
    /// metric: the engine pauses the dataflow per request (§4.2), so
    /// service time is what the on-board measurement reports.
    pub avg_request_us: f64,
    /// Benchmark façade — read by `icgmm_bench`
    /// (`hw.dataflow.avg_queue_us`); deleted by the benchmark PR. The
    /// steady-state wait behind a full 64-deep trace FIFO,
    /// 63 × `avg_request_us`.
    #[doc(hidden)]
    pub avg_queue_us: f64,
    /// Total policy-engine busy time, µs (one inference per miss).
    pub gmm_busy_us: f64,
    /// SSD traffic.
    pub ssd: SsdStats,
    /// Benchmark façade — read by `icgmm_bench` (`hw.fifo.loader_stalls`);
    /// deleted by the benchmark PR. A loader that outruns the engine
    /// stalls on every record once its 64-deep FIFO is full: measured
    /// records − 64.
    #[doc(hidden)]
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

    /// Fills the report from a replay under `latency` — every figure is a
    /// closed form of the counters — plus whatever armed device faults
    /// added on top.
    fn new(sim: &SimReport, latency: &LatencyModel, charged: FaultCharge) -> Self {
        let s = &sim.stats;
        let (read_us, write_us) = (latency.ssd_read_us, latency.ssd_write_us);
        let reads = s.read_insertions + s.write_insertions + s.read_bypasses;
        let writes = s.dirty_evictions + s.write_bypasses;
        // Misses by the SSD work they wait on: one read (clean fetch or
        // bypassed read), fetch + write-back, one bypassed write.
        let hidden_us = (reads - s.dirty_evictions) as f64 * latency.hidden_us(read_us)
            + s.dirty_evictions as f64 * latency.hidden_us(read_us + write_us)
            + s.write_bypasses as f64 * latency.hidden_us(write_us);
        let fault = charged.stats;
        let n = s.accesses();
        let makespan_us = sim.total_us + charged.extra_us;
        let avg_request_us = if n == 0 { 0.0 } else { makespan_us / n as f64 };
        DataflowReport {
            stats: *s,
            makespan_us,
            avg_request_us,
            avg_queue_us: 63.0 * avg_request_us,
            gmm_busy_us: s.misses() as f64 * latency.policy_engine_us,
            ssd: SsdStats {
                reads,
                writes,
                busy_us: reads as f64 * read_us + writes as f64 * write_us + fault.device_fault_us,
            },
            loader_stalls: n.saturating_sub(64),
            overlap_saved_us: hidden_us + charged.extra_hidden_us,
            fault,
        }
    }
}

/// What armed device faults added to a run (all-zero without them).
#[derive(Default)]
struct FaultCharge {
    stats: FaultStats,
    /// Σ miss(faulted backend) − miss(nominal backend), µs.
    extra_us: f64,
    /// The same difference of the inference time overlap hides, µs.
    extra_hidden_us: f64,
}

/// Device faults on the modeled timeline: walks each measured miss's SSD
/// commands in issue order, rolls every command's faulted service time by
/// its command index, and accumulates what the slower backend adds to the
/// miss under the run's [`LatencyModel`].
struct DeviceFaults<'a> {
    measured_from: usize,
    latency: &'a LatencyModel,
    plan: FaultPlan,
    commands: u64,
    charged: FaultCharge,
}

impl ReplayObserver for DeviceFaults<'_> {
    fn on_record(&mut self, ev: &ReplayEvent<'_>) {
        // Warm-up requests have state effects only: no time is charged.
        if (ev.seq as usize) < self.measured_from {
            return;
        }
        let lat = self.latency;
        let mut nominal = 0.0;
        let (_, faulted) = lat.split_with(ev.record.op, ev.outcome, |us| {
            nominal += us;
            self.commands += 1;
            faulted_service_us(&self.plan, self.commands - 1, us, &mut self.charged.stats)
        });
        if let Some(faulted) = faulted {
            self.charged.extra_us += lat.miss_us(faulted) - lat.miss_us(nominal);
            self.charged.extra_hidden_us += lat.hidden_us(faulted) - lat.hidden_us(nominal);
        }
    }
}

/// Runs the dataflow system over `records` (warm-up ⧺ measured): the
/// cache, the policies and the score source see every record, timing and
/// statistics cover those from position `measured_from` on. This *is*
/// [`simulate_streaming_with_warmup`] under [`DataflowConfig::latency`].
///
/// `score` follows the same contract as the analytic simulator: observed on
/// every request, queried only on misses.
///
/// # Errors
///
/// [`ShardRunError::Config`] for invalid cache geometry,
/// [`ShardRunError::MeasuredPastEnd`] for `measured_from > records.len()`
/// — the sharded engine's refusals of the same inputs.
pub fn run_dataflow(
    records: &[TraceRecord],
    measured_from: usize,
    cache_cfg: CacheConfig,
    admission: &mut dyn AdmissionPolicy,
    eviction: &mut dyn EvictionPolicy,
    score: Option<&mut dyn ScoreSource>,
    config: &DataflowConfig,
) -> Result<DataflowReport, ShardRunError> {
    let past_end = ShardRunError::MeasuredPastEnd {
        measured_from,
        records: records.len(),
    };
    let (warmup, measured) = records.split_at_checked(measured_from).ok_or(past_end)?;
    let mut cache = SetAssocCache::new(cache_cfg)?;
    let latency = config.latency();
    let mut faults = config.fault.device_armed().then(|| DeviceFaults {
        measured_from,
        latency: &latency,
        plan: config.fault,
        commands: 0,
        charged: FaultCharge::default(),
    });
    let cache = &mut cache;
    let sim = match &mut faults {
        None => simulate_streaming_with_warmup(
            warmup, measured, cache, admission, eviction, score, &latency, None,
        ),
        Some(faults) => simulate_streaming_observed_with_warmup(
            warmup, measured, cache, admission, eviction, score, &latency, None, faults,
        ),
    };
    let charged = faults.map(|f| f.charged).unwrap_or_default();
    Ok(DataflowReport::new(&sim, &latency, charged))
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
            0,
            cfg,
            &mut AlwaysAdmit,
            &mut lru2,
            None,
            &DataflowConfig::default(),
        )
        .unwrap();

        // Identical functional behaviour, and the dataflow average is the
        // analytic one plus the engine's lookup + tag update per miss (233
        // cycles at 233 MHz is the analytic 1 µs hit; the paper's SSD
        // constants fold the miss overhead in).
        assert_eq!(df.stats, analytic.stats);
        let overhead_us = CacheEngineModel::paper_default().miss_overhead_us();
        let expected = df.stats.misses() as f64 * overhead_us / trace.len() as f64;
        assert!(
            (df.avg_request_us - analytic.avg_us - expected).abs() < 1e-9,
            "dataflow {} vs analytic {} + {expected}",
            df.avg_request_us,
            analytic.avg_us,
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
                0,
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
        let gmm_us = GmmEngineModel::paper_k256().latency_us();
        let expected_gap = gmm_us * misses / trace.len() as f64;
        let gap = without.avg_request_us - with.avg_request_us;
        assert!(
            (gap - expected_gap).abs() < 1e-9 * expected_gap,
            "gap {gap} vs expected {expected_gap}"
        );
        assert_eq!(with.overlap_saved_us, misses * gmm_us);
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
            0,
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
            0,
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
        let trace = [TraceRecord::read(0)];
        let run = |cfg, measured_from| {
            let mut lru = LruPolicy::new(8, 2);
            let df = DataflowConfig::default();
            run_dataflow(
                &trace,
                measured_from,
                cfg,
                &mut AlwaysAdmit,
                &mut lru,
                None,
                &df,
            )
            .err()
        };
        assert!(matches!(run(bad, 0), Some(ShardRunError::Config(_))));
        // A warm-up boundary past the end: the sharded engine's refusal.
        let past_end = ShardRunError::MeasuredPastEnd {
            measured_from: 2,
            records: 1,
        };
        assert_eq!(run(small_cfg(), 2), Some(past_end));
        assert_eq!(run(small_cfg(), 1), None, "the end itself is a boundary");
    }
}
