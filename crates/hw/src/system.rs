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
//! [`DataflowConfig::latency`] derives one from the engines, any replay
//! under it is a dataflow run (set it as `IcgmmConfig::latency` and the
//! sharded, served and adapting front-ends report dataflow time too), and
//! [`DataflowReport::from_sim`] turns its counters into the traffic and
//! overlap figures, closed form by closed form. A faulted SSD command only
//! slows its own request too, so device faults are the replay's: its
//! accounting rolls them per measured miss and counts what they add. The
//! timeline this replaced is the oracle of `tests/dataflow_equivalence.rs`.

use crate::cache_engine::CacheEngineModel;
use crate::gmm_engine::GmmEngineModel;
use crate::ssd::{SsdProfile, SsdStats};
use icgmm_cache::{CacheStats, FaultStats, LatencyModel, SimReport};
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
}

impl Default for DataflowConfig {
    fn default() -> Self {
        DataflowConfig {
            cache_engine: CacheEngineModel::paper_default(),
            gmm_engine: GmmEngineModel::paper_k256(),
            ssd: SsdProfile::tlc(),
            overlap_policy_with_ssd: true,
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
    /// The replay's fault-injection and degradation counters (all-zero
    /// without an armed `IcgmmConfig::fault`): device failures, retries,
    /// spikes and timeouts charged to the modeled time, scorer faults,
    /// recovered shard panics.
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

    /// The dataflow report of a replay under `config.latency()` — any
    /// front-end's, device faults included. Every figure is a closed form
    /// of its counters: the makespan is `sim.total_us`, traffic and
    /// overlap count the misses by the SSD work they wait on, plus what
    /// the device faults in `sim.fault` added.
    pub fn from_sim(sim: &SimReport, config: &DataflowConfig) -> Self {
        let latency = config.latency();
        let s = &sim.stats;
        let (read_us, write_us) = (latency.ssd_read_us, latency.ssd_write_us);
        let reads = s.read_insertions + s.write_insertions + s.read_bypasses;
        let writes = s.dirty_evictions + s.write_bypasses;
        // Misses by the SSD work they wait on: one read (clean fetch or
        // bypassed read), fetch + write-back, one bypassed write.
        let hidden_us = (reads - s.dirty_evictions) as f64 * latency.hidden_us(read_us)
            + s.dirty_evictions as f64 * latency.hidden_us(read_us + write_us)
            + s.write_bypasses as f64 * latency.hidden_us(write_us);
        // A faulted miss hides min(f, p) − min(n, p) more inference behind
        // its SSD work: (f − n) − (max(f, p) − max(n, p)), summed.
        let fault = sim.fault;
        let fault_hidden_us = if latency.overlap_policy_with_ssd {
            fault.device_fault_us - fault.device_request_us
        } else {
            0.0
        };
        let n = s.accesses();
        let avg_request_us = if n == 0 { 0.0 } else { sim.total_us / n as f64 };
        DataflowReport {
            stats: *s,
            makespan_us: sim.total_us,
            avg_request_us,
            avg_queue_us: 63.0 * avg_request_us,
            gmm_busy_us: s.misses() as f64 * latency.policy_engine_us,
            ssd: SsdStats {
                reads,
                writes,
                busy_us: reads as f64 * read_us + writes as f64 * write_us + fault.device_fault_us,
            },
            loader_stalls: n.saturating_sub(64),
            overlap_saved_us: hidden_us + fault_hidden_us,
            fault,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icgmm_cache::{
        CacheConfig, Policy, ShardCtx, ShardPolicies, ShardRunError, ShardedSimulator,
    };
    use icgmm_trace::TraceRecord;

    fn small_cfg() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 16 * 4096,
            block_bytes: 4096,
            ways: 2,
        }
    }

    /// The dataflow report of an LRU replay of `trace`, measured from
    /// `measured_from` on, under `config`'s latency model.
    fn run_dataflow(
        trace: &[TraceRecord],
        measured_from: usize,
        cfg: CacheConfig,
        config: &DataflowConfig,
    ) -> Result<DataflowReport, ShardRunError> {
        let make = |_: &ShardCtx<'_>| ShardPolicies {
            policy: Policy::lru(cfg.num_sets(), cfg.ways),
            score: None,
        };
        let latency = config.latency();
        let rep = ShardedSimulator::new(1).run(trace, measured_from, cfg, &make, &latency, None)?;
        Ok(DataflowReport::from_sim(&rep.sim, config))
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

        let mut lru1 = Policy::lru(cfg.num_sets(), cfg.ways);
        let mut cache = icgmm_cache::SetAssocCache::new(cfg).unwrap();
        let analytic = icgmm_cache::simulate(
            &trace,
            &mut cache,
            &mut lru1,
            None,
            &LatencyModel::paper_tlc(),
            None,
        );

        let df = run_dataflow(&trace, 0, cfg, &DataflowConfig::default()).unwrap();

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
            let config = DataflowConfig {
                overlap_policy_with_ssd: overlap,
                ..Default::default()
            };
            run_dataflow(&trace, 0, cfg, &config).unwrap()
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
        let df = run_dataflow(&trace, 0, small_cfg(), &DataflowConfig::default()).unwrap();
        assert!(df.ssd_utilization() > 0.95, "{}", df.ssd_utilization());
        assert!(df.makespan_us >= df.ssd.busy_us);
    }

    #[test]
    fn empty_trace_reports_zeroes() {
        let df = run_dataflow(&[], 0, small_cfg(), &DataflowConfig::default()).unwrap();
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
            run_dataflow(&trace, measured_from, cfg, &DataflowConfig::default()).err()
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
