//! Serving configuration and error types. The error type adds only the
//! serving configuration's own refusals; everything a shard can fail with
//! is the offline engine's [`ShardRunError`], passed through.

use std::fmt;

use icgmm_cache::{FaultPlan, ShardRunError};
use serde::{Deserialize, Serialize};

/// Configuration of a [`crate::CacheServer`].
///
/// The shard partitioning mirrors [`icgmm_cache::ShardedSimulator`]
/// exactly — a served trace reports bit-identically to the offline
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
    /// Bound of every ingestion queue, in records, `>= 1`. Small depths
    /// exercise backpressure (a client blocks on a full queue; the wait
    /// lands in the admission-latency percentiles); large depths amortize
    /// hand-off cost.
    pub queue_depth: usize,
    /// Deterministic fault plan: shard-worker panic points (supervisor-
    /// recovered), device faults, scorer faults and the health monitor
    /// all plug in unchanged from the offline engine.
    pub fault: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            clients: 1,
            queue_depth: 256,
            fault: FaultPlan::default(),
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
        self.fault.validate().map_err(ServeError::Config)?;
        Ok(())
    }
}

/// Serving failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Invalid [`ServeConfig`].
    Config(String),
    /// The shard lifecycle failed, exactly as it can offline — the
    /// serving front-end runs on [`icgmm_cache::ShardSupervisor`] and
    /// passes its errors through: invalid cache geometry, a zero series
    /// window, a measurement boundary past the end, or a shard whose
    /// worker died *and* whose supervisor re-replay died too (a lone
    /// worker panic is recovered transparently).
    Shard(ShardRunError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "invalid serve configuration: {msg}"),
            ServeError::Shard(e) => e.fmt(f),
        }
    }
}

impl From<ShardRunError> for ServeError {
    fn from(e: ShardRunError) -> Self {
        ServeError::Shard(e)
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
                fault: FaultPlan {
                    scorer_outage_len: u32::MAX,
                    ..FaultPlan::default()
                },
                ..ServeConfig::default()
            },
        ] {
            assert!(matches!(cfg.validate(), Err(ServeError::Config(_))));
        }
    }

    #[test]
    fn errors_display_their_context() {
        // A shard-lifecycle error displays as the offline engine's own.
        let e = ServeError::from(ShardRunError::ZeroShards);
        assert_eq!(e.to_string(), ShardRunError::ZeroShards.to_string());
        assert!(ServeError::Config("x".into())
            .to_string()
            .contains("invalid"));
    }
}
