//! Serving configuration and error types.

use std::fmt;

use icgmm_cache::FaultPlan;
use serde::{Deserialize, Serialize};

/// What a client does when its shard's ingestion queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubmitMode {
    /// Block until the queue drains — classic backpressure. No request is
    /// ever dropped; the wait shows up in the admission-latency
    /// percentiles instead.
    #[default]
    Block,
    /// Count a shed, then submit anyway (blocking). The service tracks
    /// how often it *would* have dropped ([`crate::ServeReport::sheds`])
    /// while still replaying every request, so the merged report stays
    /// comparable to the offline reference.
    Shed,
}

/// Configuration of a [`crate::CacheServer`].
///
/// The shard partitioning mirrors [`icgmm_cache::ShardedSimulator`]
/// exactly — a served trace re-accounts bit-identically to the offline
/// sharded replay of the same inputs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Shard (worker thread) count, `>= 1`. Sets are partitioned
    /// `set mod shards`, exactly like the offline sharded replay.
    pub shards: usize,
    /// Client (submitter thread) count, `>= 1`. Shard `s` is owned by
    /// client `s % min(clients, shards)`; clients beyond the shard count
    /// would own nothing and are capped away.
    pub clients: usize,
    /// Bound of every ingestion and outcome queue, `>= 1`. Small depths
    /// exercise backpressure; large depths amortize hand-off cost.
    pub queue_depth: usize,
    /// Full-queue behavior (see [`SubmitMode`]).
    pub submit: SubmitMode,
    /// Deterministic fault plan: shard-worker panic points (supervisor-
    /// recovered), scorer faults and the health monitor all plug in
    /// unchanged from the offline engine.
    pub fault: FaultPlan,
    /// Graceful-shutdown point: stop accepting after this many requests
    /// (warm-up + measured, trace order), then drain and join. The report
    /// equals an offline replay of the truncated trace. `None` serves
    /// everything.
    pub stop_after: Option<u64>,
    /// Depth of each worker's simulated backend-completion queue, `>= 1`:
    /// how many modeled SSD accesses may be in flight before the next
    /// admission decision stalls on the oldest completion. Depth 1
    /// serializes consecutive misses exactly like the inline charge (the
    /// PR 7 behavior — only hit decisions can hide under the lone
    /// in-flight op); deeper queues overlap admission decisions with
    /// in-flight modeled misses and report the saving in
    /// [`crate::OverlapStats`]. Pure telemetry — replay outcomes never
    /// depend on it.
    pub completion_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            clients: 1,
            queue_depth: 256,
            submit: SubmitMode::Block,
            fault: FaultPlan::default(),
            stop_after: None,
            completion_depth: 8,
        }
    }
}

impl ServeConfig {
    /// Validates the thread and queue geometry and the fault plan.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.shards == 0 {
            return Err(ServeError::Config("shard count must be >= 1".into()));
        }
        if self.clients == 0 {
            return Err(ServeError::Config("client count must be >= 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::Config("queue depth must be >= 1".into()));
        }
        if self.completion_depth == 0 {
            return Err(ServeError::Config("completion depth must be >= 1".into()));
        }
        self.fault.validate().map_err(ServeError::Config)?;
        Ok(())
    }
}

/// Serving failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Invalid [`ServeConfig`] or cache geometry.
    Config(String),
    /// The trace does not fit the shard fan-out's `u32` position index
    /// (mirrors [`icgmm_cache::ShardRunError::TraceTooLong`]).
    TraceTooLong {
        /// Total records (warm-up + measured) the caller presented.
        records: usize,
    },
    /// A shard worker died *and* the supervisor's offline re-replay of
    /// its subtrace died too — the one non-recoverable fault class (a
    /// lone worker panic is recovered transparently).
    ShardFailed {
        /// Index of the failed shard.
        shard: usize,
        /// Panic payload description.
        message: String,
    },
    /// The policies `make_shard` built cannot reproduce the
    /// single-threaded replay above one shard (mirrors
    /// [`icgmm_cache::ShardRunError::Contract`]).
    Contract {
        /// Index of the refused shard.
        shard: usize,
        /// The refusal, naming the offending policy or score source.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "invalid serve configuration: {msg}"),
            ServeError::TraceTooLong { records } => write!(
                f,
                "trace too long for u32 index-based fan-out ({records} records)"
            ),
            ServeError::ShardFailed { shard, message } => {
                write!(f, "shard {shard} failed beyond recovery: {message}")
            }
            ServeError::Contract { shard, message } => {
                write!(f, "shard {shard} refused: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_geometry_is_rejected() {
        for cfg in [
            ServeConfig {
                shards: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                clients: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_depth: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                completion_depth: 0,
                ..ServeConfig::default()
            },
        ] {
            assert!(matches!(cfg.validate(), Err(ServeError::Config(_))));
        }
    }

    #[test]
    fn errors_display_their_context() {
        let e = ServeError::ShardFailed {
            shard: 3,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("shard 3"));
        assert!(ServeError::Config("x".into())
            .to_string()
            .contains("invalid"));
    }
}
