//! # icgmm
//!
//! End-to-end reproduction of **ICGMM: CXL-enabled Memory Expansion with
//! Intelligent Caching Using Gaussian Mixture Model** (Chen, Wang, et al.,
//! DAC 2024).
//!
//! ICGMM is a hardware-managed DRAM cache for CXL memory expansion in
//! which an SSD extends the host memory space and a device-side DRAM
//! caches 4 KiB SSD pages. The contribution is a **GMM cache policy
//! engine**: a 2-D Gaussian mixture over `(page index, transformed
//! timestamp)` trained offline with EM, whose density score drives both
//! cache *admission* (bypass low-scoring pages) and *eviction* (evict the
//! lowest stored score).
//!
//! This crate is the facade: [`Icgmm`] wires together the trace substrate
//! (`icgmm-trace`), the mixture model (`icgmm-gmm`), the cache simulator
//! (`icgmm-cache`) and the hardware timing model (`icgmm-hw`);
//! [`benchmarks`] holds the paper's evaluation suite with its published
//! numbers, and [`experiment`] the static-vs-adaptive axis.
//!
//! ## Quickstart
//!
//! ```no_run
//! use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
//! use icgmm_trace::synth::{Workload, WorkloadKind};
//!
//! // 1. A memtier-like trace (key-value store, Zipf-popular keys).
//! let trace = WorkloadKind::Memtier.default_workload().generate(1_200_000, 42);
//!
//! // 2. Train the policy engine offline (paper §3).
//! let mut sys = Icgmm::new(IcgmmConfig::default())?;
//! let fit = sys.fit(&trace)?;
//! println!("EM converged after {} iterations", fit.em.iterations);
//!
//! // 3. Compare LRU against the GMM policy (paper Fig. 6 / Table 1).
//! let lru = sys.run(&trace, PolicyMode::Lru)?;
//! let gmm = sys.run(&trace, PolicyMode::GmmCachingEviction)?;
//! println!(
//!     "miss {:.2}% -> {:.2}%, avg {:.2}us -> {:.2}us",
//!     lru.miss_rate_pct(), gmm.miss_rate_pct(), lru.avg_us(), gmm.avg_us(),
//! );
//! # Ok::<(), icgmm::IcgmmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod error;
mod online;
mod system;

pub mod benchmarks;
pub mod experiment;
pub mod persist;
pub mod report;

pub use config::{IcgmmConfig, PolicyMode};
pub use engine::{GmmPolicyEngine, TrainedModel};
pub use error::IcgmmError;
pub use icgmm_cache::{AdaptPlan, AdaptStats};
pub use icgmm_serve::ServeReport;
pub use online::AdaptiveEngine;
pub use system::{FitSummary, Icgmm, RunReport};

// Re-export the substrate crates so downstream users need one dependency.
pub use icgmm_cache as cache;
pub use icgmm_gmm as gmm;
pub use icgmm_hw as hw;
pub use icgmm_serve as serve;
pub use icgmm_trace as trace;
