//! # icgmm-cache
//!
//! Set-associative DRAM-cache simulator for the ICGMM reproduction
//! (DAC 2024). Models the device-side DRAM cache fronting a CXL-attached
//! SSD: 4 KiB blocks (the SSD access granularity), write-allocate with
//! write-back dirty tracking, one policy engine ([`Policy`]: an optional
//! threshold admission filter and LRU, stored-GMM-score or Belady
//! eviction), and the paper's latency constants (1 µs hit, 75 µs SSD
//! read, 900 µs SSD program, 3 µs overlapped GMM inference).
//!
//! The crate is model-agnostic: GMM scores arrive through the
//! [`ScoreSource`] trait, so the LRU baseline, Belady's MIN and the
//! paper's three GMM modes all drive the *same* simulator — that is what
//! makes the paper's Fig. 6 and Table 1 comparisons apples-to-apples.
//!
//! Entry points, all over one replay loop: [`simulate`] (one cache, one
//! thread), [`ShardedSimulator::run`] (set-partitioned, bit-identical at
//! every shard count) and, for front-ends that feed shards themselves,
//! [`ShardSupervisor`] — whose [`ShardSupervisor::replay`] runs a shard
//! over whatever record walk its caller hands it (the serving workers pass
//! their queue's arrivals), recovers a dead shard and adds the shards'
//! reports up. The sharded entry points take the whole trace (warm-up ⧺
//! measured) as one slice plus `measured_from`; a shard is that slice
//! walked through, above one shard, its [`ShardPartition`] — the routing
//! rule `set mod S`, or at two shards the parity of `set & mask` for an odd
//! mask a sample of the trace chose ([`ShardPartition::balanced`]) — and
//! holds only the rows of tag store and policy state its sets need
//! ([`ShardCtx`]). A report is counters; its modeled time
//! is [`LatencyModel::total_us`] of them plus what an armed plan's device
//! faults added ([`SimReport::from_counts`]).
//!
//! ## Example
//!
//! ```
//! use icgmm_cache::{simulate, CacheConfig, LatencyModel, Policy, SetAssocCache};
//! use icgmm_trace::TraceRecord;
//!
//! let cfg = CacheConfig::paper_default();
//! let mut cache = SetAssocCache::new(cfg)?;
//! let mut lru = Policy::lru(cfg.num_sets(), cfg.ways);
//! let trace: Vec<TraceRecord> = (0..100u64).map(|i| TraceRecord::read((i % 10) << 12)).collect();
//! let report = simulate(
//!     &trace,
//!     &mut cache,
//!     &mut lru,
//!     None,
//!     &LatencyModel::paper_tlc(),
//!     None,
//! );
//! assert_eq!(report.stats.misses(), 10); // ten cold misses, then hits
//! # Ok::<(), icgmm_cache::CacheConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapt;
mod batch;
mod cache;
mod config;
mod fault;
mod latency;
mod merge;
mod score;
mod shard;
mod sim;
mod stats;

pub mod policy;

pub use adapt::{
    AdaptPlan, AdaptStats, DriftDetector, ObsSample, RecentRing, Reservoir, REFIT_DECAY,
    RESERVOIR_CAPACITY,
};
#[doc(hidden)]
pub use batch::{SpecParams, SpecStats, WindowedSimulator};
pub use cache::{AccessOutcome, BlockState, Eviction, SetAssocCache};
pub use config::{CacheConfig, CacheConfigError, SetMap};
pub use fault::{FaultPlan, FaultStats, FaultyScore, ScorerHealth};
pub use latency::{attos, micros, LatencyModel};
#[doc(hidden)]
pub use merge::{merge_streams, OutcomeStream, SeqOutcome, StreamingMerge};
#[doc(hidden)]
pub use policy::AlwaysAdmit;
pub use policy::{
    AccessCtx, BeladyPolicy, Evict, GmmScorePolicy, LruPolicy, Policy, ThresholdAdmit,
};
pub use score::{ConstantScore, FnScore, ScoreSource};
pub use shard::{
    SampleSplit, ShardCtx, ShardPartition, ShardPolicies, ShardRunError, ShardSupervisor,
    ShardedReport, ShardedSimulator,
};
pub use sim::{simulate, ReplayEvent, ReplayObserver, SimReport};
#[doc(hidden)]
pub use sim::{simulate_streaming_observed_with_warmup, simulate_streaming_with_warmup};
pub use stats::{CacheStats, MissSeries};
