//! Benchmark façade — `icgmm_bench` reads `ServeReport::overlap`
//! (`serve.overlap_saved_us`); the benchmark PR deletes it (ROADMAP item
//! 2a).
//!
//! It was the per-worker telemetry of a modeled SSD completion queue. The
//! paper's emulator pauses the dataflow for every command (§4.2), so one
//! request is ever in flight and a request's modeled time is a function of
//! its own `(op, outcome)` — `LatencyModel`'s, which every report's
//! `total_us` already sums. Nothing overlaps, so nothing is saved.

use serde::{Deserialize, Serialize};

/// Always-zero overlap figure of a serving session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OverlapStats {
    /// Modeled time saved by overlapping requests: always 0.
    pub overlap_saved_us: f64,
}
