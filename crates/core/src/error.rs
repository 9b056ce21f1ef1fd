//! Error type of the end-to-end system.

use std::error::Error;
use std::fmt;

/// Errors from configuring, training or running an ICGMM system.
#[derive(Debug)]
pub enum IcgmmError {
    /// Invalid configuration.
    Config(String),
    /// Cache geometry problem.
    Cache(icgmm_cache::CacheConfigError),
    /// GMM training/inference problem.
    Gmm(icgmm_gmm::GmmError),
    /// A GMM-driven mode was requested before [`crate::Icgmm::fit`].
    NotFitted,
    /// The trace was empty after preprocessing.
    EmptyTrace,
    /// A replay shard failed beyond recovery: its worker panicked and the
    /// supervisor's single-threaded re-replay of the same subtrace panicked
    /// too (armed fault-plan panics recover and never reach this).
    ShardFailed {
        /// Index of the failed shard.
        shard: usize,
        /// Panic payloads of the worker and the re-replay.
        message: String,
    },
}

impl fmt::Display for IcgmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IcgmmError::Config(s) => write!(f, "invalid configuration: {s}"),
            IcgmmError::Cache(e) => write!(f, "cache error: {e}"),
            IcgmmError::Gmm(e) => write!(f, "gmm error: {e}"),
            IcgmmError::NotFitted => {
                f.write_str("policy engine not trained: call fit() before a GMM mode")
            }
            IcgmmError::EmptyTrace => f.write_str("trace is empty after preprocessing"),
            IcgmmError::ShardFailed { shard, message } => {
                write!(f, "replay shard {shard} failed: {message}")
            }
        }
    }
}

impl Error for IcgmmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IcgmmError::Cache(e) => Some(e),
            IcgmmError::Gmm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<icgmm_cache::CacheConfigError> for IcgmmError {
    fn from(e: icgmm_cache::CacheConfigError) -> Self {
        IcgmmError::Cache(e)
    }
}

impl From<icgmm_gmm::GmmError> for IcgmmError {
    fn from(e: icgmm_gmm::GmmError) -> Self {
        IcgmmError::Gmm(e)
    }
}

impl From<icgmm_serve::ServeError> for IcgmmError {
    fn from(e: icgmm_serve::ServeError) -> Self {
        match e {
            icgmm_serve::ServeError::Config(msg) => IcgmmError::Config(msg),
            icgmm_serve::ServeError::Shard(e) => e.into(),
        }
    }
}

impl From<icgmm_cache::ShardRunError> for IcgmmError {
    fn from(e: icgmm_cache::ShardRunError) -> Self {
        match e {
            icgmm_cache::ShardRunError::Config(c) => IcgmmError::Cache(c),
            e @ (icgmm_cache::ShardRunError::ZeroShards
            | icgmm_cache::ShardRunError::ZeroSeriesWindow
            | icgmm_cache::ShardRunError::MeasuredPastEnd { .. }) => {
                IcgmmError::Config(e.to_string())
            }
            icgmm_cache::ShardRunError::ShardFailed { shard, message } => {
                IcgmmError::ShardFailed { shard, message }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(IcgmmError::NotFitted.to_string().contains("fit()"));
        assert!(IcgmmError::EmptyTrace.to_string().contains("empty"));
        assert!(IcgmmError::Config("bad".into()).to_string().contains("bad"));
        let e: IcgmmError = icgmm_gmm::GmmError::EmptyInput.into();
        assert!(e.to_string().contains("gmm"));
        assert!(e.source().is_some());
        let s = IcgmmError::ShardFailed {
            shard: 3,
            message: "boom".into(),
        };
        assert!(s.to_string().contains("shard 3") && s.to_string().contains("boom"));
    }

    #[test]
    fn shard_run_errors_convert_losslessly() {
        let e: IcgmmError = icgmm_cache::ShardRunError::ShardFailed {
            shard: 7,
            message: "worker panicked".into(),
        }
        .into();
        assert!(matches!(e, IcgmmError::ShardFailed { shard: 7, .. }));
    }
}
