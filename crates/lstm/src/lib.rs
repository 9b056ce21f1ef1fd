//! # icgmm-lstm
//!
//! What the ICGMM paper's Table 2 reads of its LSTM baseline: the shape
//! arithmetic of a stacked LSTM ([`LstmArch`]: 3 layers × hidden 128, input
//! sequence 32), a forward pass to time on the host ([`LstmNetwork`]), and
//! an FPGA cost model calibrated against the table's LSTM row
//! ([`LstmCostModel`]). The paper compares the two engines on inference
//! latency and area only — never on miss rate — so there is no trainer and
//! no cache adapter here.
//!
//! The point of this crate is the *comparison*: the GMM scores a page from
//! its current `(page, time)` coordinates alone, while an LSTM must buffer
//! and re-process a 32-step history — hence the >10,000× inference-latency
//! gap and ~40× BRAM gap the paper reports.
//!
//! ## Example
//!
//! ```
//! use icgmm_lstm::{LstmArch, LstmCostModel, LstmNetwork};
//! use rand::SeedableRng;
//!
//! let arch = LstmArch { layers: 1, hidden: 8, input: 2, seq_len: 4 };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let net = LstmNetwork::new(arch, &mut rng);
//! let seq: Vec<Vec<f32>> = (0..4).map(|t| vec![t as f32 * 0.1, 0.0]).collect();
//! assert!(net.forward(&seq).is_finite());
//!
//! // The paper's Table 2 row for the full-size baseline:
//! let cost = LstmCostModel::paper_calibrated().estimate(&LstmArch::paper_baseline())?;
//! assert!(cost.latency_us > 40_000.0); // ~46.3 ms
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod cost;
mod network;
mod tensor;

pub use cell::{CellState, LstmCell};
pub use cost::{FpgaCost, LstmCostModel};
pub use network::{LstmArch, LstmNetwork};
pub use tensor::{sigmoid, Matrix};
