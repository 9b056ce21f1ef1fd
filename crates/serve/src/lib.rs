//! # icgmm-serve
//!
//! Concurrent cache *service* over the ICGMM reproduction's sharded
//! replay engine: N client threads submit trace positions into bounded
//! per-shard ingestion queues, each shard worker runs the offline shard
//! replay over what its queue delivers — deciding hit/miss/admit/evict as
//! requests arrive and counting what it decides — and the session's report
//! is the workers' counters added up at join; nothing is kept per request.
//!
//! The service inherits the offline engine's headline property: the
//! summed [`ServeReport::sim`] is **bit-identical** to
//! [`icgmm_cache::ShardedSimulator::run`] (and hence to the
//! single-threaded replay) over the same inputs, for every shard count,
//! client count, queue depth and ingestion interleaving. Concurrency
//! buys throughput and costs latency; it never changes a decision.
//!
//! On top of that the service adds what an offline replay cannot
//! measure: explicit backpressure (bounded queues a client blocks on, the
//! wait counted in the admission latency) and a timing surface:
//! requests/sec at saturation plus log-bucketed p50/p99 admission-decision
//! latencies ([`ServeReport`]). A caller that wants only a prefix served
//! passes the prefix. What happens *to a shard* — its policy, the
//! replay loop and its accounting (device faults included),
//! armed panic points, the recovery of a dead worker by offline re-replay,
//! the sum of the shards' reports — is not this crate's: it is
//! [`icgmm_cache::ShardSupervisor`], the offline engine's own, and its
//! errors pass through as [`ServeError::Shard`].
//!
//! ## Example
//!
//! ```
//! use icgmm_cache::{CacheConfig, LatencyModel, Policy, ShardPolicies};
//! use icgmm_serve::{CacheServer, ServeConfig};
//! use icgmm_trace::TraceRecord;
//!
//! let trace: Vec<TraceRecord> = (0..4096u64).map(|i| TraceRecord::read((i % 64) << 12)).collect();
//! let cfg = CacheConfig { capacity_bytes: 32 * 4096, block_bytes: 4096, ways: 4 };
//! let server = CacheServer::new(ServeConfig {
//!     shards: 4,
//!     clients: 2,
//!     queue_depth: 64,
//!     ..ServeConfig::default()
//! })?;
//! // The whole trace, measured from its 1 024th record on.
//! let report = server.serve(
//!     &trace,
//!     1024,
//!     cfg,
//!     &mut |_ctx| ShardPolicies {
//!         policy: Policy::lru(cfg.num_sets(), cfg.ways),
//!         score: None,
//!     },
//!     &LatencyModel::paper_tlc(),
//!     None,
//! )?;
//! assert_eq!(report.requests, 4096);
//! assert_eq!(report.sim.stats.accesses(), 4096 - 1024);
//! assert!(report.requests_per_sec > 0.0);
//! # Ok::<(), icgmm_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod hist;
mod overlap;
mod server;

pub use config::{ServeConfig, ServeError};
pub use hist::LatencyHistogram;
#[doc(hidden)]
pub use overlap::OverlapStats;
pub use server::{CacheServer, ServeReport};
