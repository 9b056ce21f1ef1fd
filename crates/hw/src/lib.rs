//! # icgmm-hw
//!
//! Cycle-approximate hardware model of the ICGMM FPGA prototype (DAC
//! 2024, Fig. 5): the pipelined GMM policy engine, the cache control
//! engine with parallel tag compare, the SSD access-latency emulator, the
//! per-request time of the dataflow architecture they form (see the
//! `system` module), and an FPGA resource model calibrated against the
//! paper's Table 2.
//!
//! The paper's latency numbers come from an emulator *inside* the FPGA
//! (§4.2); this crate reproduces the same measurement methodology in
//! software, down to the 233 MHz clock:
//!
//! * hit ≈ 1 µs ([`CacheEngineModel::hit_us`]),
//! * GMM inference ≈ 3 µs at K = 256 ([`GmmEngineModel::latency_us`]),
//! * TLC SSD 75/900 µs ([`SsdProfile::tlc`]),
//! * overlap of inference with SSD access ([`run_dataflow`]).
//!
//! The emulator pauses the dataflow for each SSD command, so one request
//! is in flight at a time and its modeled time is a function of its own
//! outcome: [`DataflowConfig::latency`] turns the engines' cycle counts
//! into an [`icgmm_cache::LatencyModel`], and [`run_dataflow`] — over the
//! whole trace plus `measured_from`, like every replay — is the cache
//! crate's one streaming replay loop under that model: each miss pays the
//! engine's lookup + update and then one GMM inference overlapped (or not)
//! with its own SSD access.
//! See the `system` module docs for why no queue is modeled.
//!
//! ## Example
//!
//! ```
//! use icgmm_hw::{run_dataflow, DataflowConfig};
//! use icgmm_cache::{AlwaysAdmit, CacheConfig, LruPolicy};
//! use icgmm_trace::TraceRecord;
//!
//! let cfg = CacheConfig { capacity_bytes: 8 * 4096, block_bytes: 4096, ways: 2 };
//! let mut lru = LruPolicy::new(cfg.num_sets(), cfg.ways);
//! let trace: Vec<TraceRecord> = (0..64u64).map(|i| TraceRecord::read((i % 4) << 12)).collect();
//! let report = run_dataflow(&trace, 0, cfg, &mut AlwaysAdmit, &mut lru, None, &DataflowConfig::default())?;
//! assert_eq!(report.stats.misses(), 4);
//! # Ok::<(), icgmm_cache::ShardRunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache_engine;
mod clock;
mod gmm_engine;
mod resources;
mod ssd;
mod system;

pub use cache_engine::CacheEngineModel;
pub use clock::{ClockDomain, Cycles};
pub use gmm_engine::GmmEngineModel;
pub use resources::{table2, GmmResourceModel, ResourceEstimate};
pub use ssd::{faulted_service_us, SsdProfile, SsdStats};
pub use system::{run_dataflow, DataflowConfig, DataflowReport};
