//! Benchmark façade — imported by `icgmm_bench`; deleted by the benchmark
//! PR that retires the `cache.batch.*` probes.
//!
//! The speculative miss-window batcher that lived here is gone: every
//! replay is the streaming loop. The frozen out-of-workspace harness still
//! names these types, so they survive as a shell over that loop whose
//! telemetry is all-zero by construction. Nothing inside the workspace
//! uses them (one test, `tests/bench_facade.rs`, pins the shell).

use crate::cache::SetAssocCache;
use crate::latency::LatencyModel;
use crate::policy::{Evict, ThresholdAdmit};
use crate::score::ScoreSource;
use crate::sim::{simulate_streaming_with_warmup, SimReport};
use icgmm_trace::TraceRecord;
use serde::{Deserialize, Serialize};

/// Former batcher tuning knobs; nothing is left to tune.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecParams {}

/// Former speculation telemetry; every counter reads zero.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecStats {
    pub windows: u64,
    pub batch_calls: u64,
    pub batched_scores: u64,
    pub sync_scores: u64,
    pub pred_hit_missed: u64,
    pub pred_miss_hit: u64,
    pub admission_divergences: u64,
    pub victim_divergences: u64,
    pub run_splits: u64,
    pub dense_windows: u64,
    pub window_shrinks: u64,
    pub streamed_records: u64,
    pub streamed_scores: u64,
}

impl SpecStats {
    /// Total divergence events.
    pub fn divergences(&self) -> u64 {
        self.pred_hit_missed
            + self.pred_miss_hit
            + self.admission_divergences
            + self.victim_divergences
    }
}

/// [`simulate_streaming_with_warmup`] under the batcher's old name.
#[doc(hidden)]
#[derive(Clone, Debug, Default)]
pub struct WindowedSimulator {
    spec: SpecStats,
}

impl WindowedSimulator {
    /// A simulator; `params` carries nothing.
    pub fn with_params(_params: SpecParams) -> Self {
        WindowedSimulator::default()
    }

    /// Telemetry of the most recent [`WindowedSimulator::run`]: all-zero.
    pub fn spec_stats(&self) -> &SpecStats {
        &self.spec
    }

    /// The streaming replay, argument for argument.
    #[allow(clippy::too_many_arguments)]
    pub fn run<A, E>(
        &mut self,
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
