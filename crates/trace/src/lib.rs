//! # icgmm-trace
//!
//! Memory-access trace substrate for the ICGMM reproduction (Chen, Wang,
//! et al., *ICGMM: CXL-enabled Memory Expansion with Intelligent Caching
//! Using Gaussian Mixture Model*, DAC 2024).
//!
//! This crate provides everything the paper's pipeline needs *before* the
//! GMM sees data:
//!
//! * [`TraceRecord`]/[`Trace`] — the `(read/write, physical address)`
//!   request stream observed at the CXL device;
//! * [`synth`] — seven synthetic workload models standing in for the
//!   paper's trace benchmarks (`parsec`, `memtier`, `hashmap`, `heap`,
//!   `sysbench`, `dlrm`, `stream`);
//! * `preprocess` — warm-up trimming, page consolidation and the paper's
//!   Algorithm 1 timestamp transformation ([`TimestampTransformer`]);
//! * [`histogram`] — the spatial/temporal distribution views of Fig. 2;
//! * [`io`] — a plain-text trace format for interchange with external
//!   trace-collection tools.
//!
//! ## Example
//!
//! ```
//! use icgmm_trace::synth::{Workload, WorkloadKind};
//! use icgmm_trace::{training_cells, trim, PreprocessConfig};
//!
//! // Generate a small parsec-like trace and prepare GMM training cells.
//! let workload = WorkloadKind::Parsec.default_workload();
//! let trace = workload.generate(10_000, 42);
//! let cfg = PreprocessConfig::default();
//! let cells = training_cells(&trace, &cfg);
//! let mass: u64 = cells.iter().map(|c| u64::from(c.weight)).sum();
//! assert_eq!(mass, trim(&trace, &cfg).len() as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod preprocess;
mod record;
mod trace;
mod zipf;

pub mod histogram;
pub mod io;
pub mod synth;

pub use preprocess::{
    extract_weighted_cells_range, training_cells, trim, PreprocessConfig, TimestampTransformer,
    TrainingCell, WeightedSample,
};
pub use record::{Op, PageIndex, TraceRecord, HOST_ACCESS_BYTES, MAX_PADDR, PAGE_SHIFT, PAGE_SIZE};
pub use trace::{Trace, TraceStats};
pub use zipf::{Zipf, ZipfError};
