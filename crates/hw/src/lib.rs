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
//! * overlap of inference with SSD access ([`DataflowReport::overlap_saved_us`]).
//!
//! The emulator pauses the dataflow for each SSD command, so one request
//! is in flight at a time and its modeled time is a function of its own
//! outcome: [`DataflowConfig::latency`] turns the engines' cycle counts
//! into an [`icgmm_cache::LatencyModel`], any replay of the cache crate's
//! one streaming loop under that model is a dataflow run — each miss pays
//! the engine's lookup + update and then one GMM inference overlapped (or
//! not) with its own SSD access, device faults included — and
//! [`DataflowReport::from_sim`] reads the SSD traffic, engine busy time
//! and overlap saving off its counters.
//! See the `system` module docs for why no queue is modeled.
//!
//! ## Example
//!
//! ```
//! use icgmm_hw::{DataflowConfig, DataflowReport};
//! use icgmm_cache::{simulate, CacheConfig, Policy, SetAssocCache};
//! use icgmm_trace::TraceRecord;
//!
//! let cfg = CacheConfig { capacity_bytes: 8 * 4096, block_bytes: 4096, ways: 2 };
//! let mut cache = SetAssocCache::new(cfg)?;
//! let mut lru = Policy::lru(cfg.num_sets(), cfg.ways);
//! let trace: Vec<TraceRecord> = (0..64u64).map(|i| TraceRecord::read((i % 4) << 12)).collect();
//! let df = DataflowConfig::default();
//! let sim = simulate(&trace, &mut cache, &mut lru, None, &df.latency(), None);
//! let report = DataflowReport::from_sim(&sim, &df);
//! assert_eq!(report.stats.misses(), 4);
//! assert_eq!(report.makespan_us, sim.total_us);
//! # Ok::<(), icgmm_cache::CacheConfigError>(())
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
pub use ssd::{SsdProfile, SsdStats};
pub use system::{DataflowConfig, DataflowReport};
