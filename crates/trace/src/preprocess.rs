//! Trace preprocessing for GMM training (paper §3.1 and Algorithm 1).
//!
//! Three steps:
//!
//! 1. **Warm-up trimming** — discard the initial 20 % and final 10 % of the
//!    trace to remove program warm-up and tear-down bias.
//! 2. **Page consolidation** — map 64 B host addresses onto 4 KiB SSD pages
//!    ([`crate::PageIndex`]).
//! 3. **Timestamp transformation** — Algorithm 1: requests are grouped into
//!    *time windows* of `len_window` requests sharing one timestamp; the
//!    timestamp wraps to zero after `len_access_shot` windows (an *access
//!    shot*), which teaches the GMM the periodic structure of the workload.
//!
//! The paper's prose describes an access shot as containing
//! `len_access_shot` *traces*, while its Algorithm 1 resets when
//! `timestamp >= len_access_shot`, i.e. after `len_access_shot` *windows*.
//! We implement Algorithm 1 literally (timestamps live in
//! `[0, len_access_shot)`) and keep both knobs configurable.

use crate::record::TraceRecord;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// Configuration of the preprocessing pipeline.
///
/// Defaults are the paper's choices: trim 20 %/10 %, `len_window = 32`,
/// `len_access_shot = 10_000`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PreprocessConfig {
    /// Fraction of the trace discarded from the front (program warm-up).
    pub warmup_frac: f64,
    /// Fraction of the trace discarded from the back (tear-down).
    pub tail_frac: f64,
    /// Requests per time window (Algorithm 1 `len_window`).
    pub len_window: u32,
    /// Windows per access shot (Algorithm 1 `len_access_shot`).
    pub len_access_shot: u32,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            warmup_frac: 0.20,
            tail_frac: 0.10,
            len_window: 32,
            len_access_shot: 10_000,
        }
    }
}

impl PreprocessConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message when fractions are out of `[0, 1)` or together
    /// exceed 1, or when either Algorithm 1 length is zero.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.warmup_frac) || !(0.0..1.0).contains(&self.tail_frac) {
            return Err("trim fractions must be in [0, 1)".into());
        }
        if self.warmup_frac + self.tail_frac >= 1.0 {
            return Err("trim fractions must leave a non-empty middle".into());
        }
        if self.len_window == 0 || self.len_access_shot == 0 {
            return Err("len_window and len_access_shot must be >= 1".into());
        }
        Ok(())
    }

    /// The record range `[start, end)` kept after trimming a trace of
    /// length `n`; `start <= end <= n` for any fractions (a cut past the
    /// trace saturates, a `NaN` fraction cuts nothing).
    pub fn kept_range(&self, n: usize) -> (usize, usize) {
        let start = ((n as f64 * self.warmup_frac).floor() as usize).min(n);
        let end = n.saturating_sub((n as f64 * self.tail_frac).floor() as usize);
        (start, end.max(start))
    }
}

/// Returns the trimmed middle portion of a trace as a slice
/// (first `warmup_frac` and last `tail_frac` removed).
///
/// ```
/// use icgmm_trace::{PreprocessConfig, Trace, TraceRecord};
/// let t: Trace = (0..100u64).map(|i| TraceRecord::read(i * 64)).collect();
/// let kept = icgmm_trace::trim(&t, &PreprocessConfig::default());
/// assert_eq!(kept.len(), 70);
/// assert_eq!(kept[0].paddr(), 20 * 64);
/// ```
pub fn trim<'a>(trace: &'a Trace, cfg: &PreprocessConfig) -> &'a [TraceRecord] {
    let (start, end) = cfg.kept_range(trace.len());
    &trace.records()[start..end]
}

/// The paper's Algorithm 1 as what it is: a pure function of a request's
/// position in the trace.
///
/// Lines 3–11 of the algorithm keep an `index` / `timestamp` counter pair,
/// but the pair depends on nothing except how many requests came before,
/// so the timestamp of the request at 0-based position `pos` has the closed
/// form `(pos / len_window) mod len_access_shot`. Training (offline pass)
/// and the run-time policy engine evaluate the same function, whoever holds
/// the position.
///
/// ```
/// use icgmm_trace::TimestampTransformer;
/// let t = TimestampTransformer::new(2, 3); // 2 requests/window, 3 windows/shot
/// let ts: Vec<u64> = (0..10).map(|pos| t.at(pos)).collect();
/// assert_eq!(ts, [0, 0, 1, 1, 2, 2, 0, 0, 1, 1]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimestampTransformer {
    len_window: u32,
    len_access_shot: u32,
}

impl TimestampTransformer {
    /// Creates a transformer with the given window and shot lengths.
    ///
    /// # Panics
    ///
    /// If either length is zero. `GmmPolicyEngine::new` refuses zero
    /// lengths before it builds one, and `Icgmm::new` before training.
    pub fn new(len_window: u32, len_access_shot: u32) -> Self {
        assert!(len_window > 0, "len_window must be >= 1");
        assert!(len_access_shot > 0, "len_access_shot must be >= 1");
        TimestampTransformer {
            len_window,
            len_access_shot,
        }
    }

    /// Creates a transformer from a [`PreprocessConfig`].
    pub fn from_config(cfg: &PreprocessConfig) -> Self {
        TimestampTransformer::new(cfg.len_window, cfg.len_access_shot)
    }

    /// Timestamp of the request at 0-based trace position `pos`.
    #[inline]
    pub fn at(&self, pos: u64) -> u64 {
        (pos / u64::from(self.len_window)) % u64::from(self.len_access_shot)
    }
}

/// `records` paired with their timestamps, `records[0]` at position 0.
/// Walks whole windows, so a sequential pass pays Algorithm 1's division
/// once per window, not once per record.
pub(crate) fn timestamped<'a>(
    records: &'a [TraceRecord],
    cfg: &PreprocessConfig,
) -> impl Iterator<Item = (u64, &'a TraceRecord)> {
    let t = TimestampTransformer::from_config(cfg);
    let w = cfg.len_window as usize;
    records.chunks(w).enumerate().flat_map(move |(i, window)| {
        let ts = t.at((i * w) as u64);
        window.iter().map(move |r| (ts, r))
    })
}

/// A `(page index, timestamp)` pair with a multiplicity weight — the GMM
/// training representation of one or more identical trace cells.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WeightedSample {
    /// Page index (feature *P*).
    pub page: f64,
    /// Transformed timestamp (feature *T*).
    pub time: f64,
    /// Number of requests that mapped to this `(page, window)` cell.
    pub weight: f64,
}

/// Extracts per-request GMM input features `[page_index, timestamp]` from a
/// (pre-trimmed) record slice.
pub fn extract_features(records: &[TraceRecord], cfg: &PreprocessConfig) -> Vec<[f64; 2]> {
    timestamped(records, cfg)
        .map(|(ts, r)| [r.page().raw() as f64, ts as f64])
        .collect()
}

/// Deduplicates per-request features into weighted `(page, timestamp)`
/// cells, sorted by page, then timestamp. Weighted EM over them equals EM
/// over the per-request multiset, on 1.06–2.5× fewer points (benchmark
/// workloads, kept 70 %): `tenants_drift` 420 000 requests → 395 506 cells,
/// `dlrm` 840 000 → 537 397, `memtier` → 342 507, `hashmap` → 333 088.
pub fn extract_weighted_cells(
    records: &[TraceRecord],
    cfg: &PreprocessConfig,
) -> Vec<WeightedSample> {
    extract_weighted_cells_range(records, cfg, 0, records.len())
}

/// [`extract_weighted_cells`] over `records[start..end]` with the
/// Algorithm 1 clock running from `records[0]` — how training must see a
/// trimmed trace: the warm-up prefix advances the timestamp (the paper's
/// algorithm counts every request from program start) but contributes no
/// training cells.
///
/// # Panics
///
/// When `start > end`, `end > records.len()` or an Algorithm 1 length is
/// zero. `Icgmm::fit` reaches none: `Icgmm::new` validates the lengths, and
/// the range is `kept_range`'s, which keeps `start <= end <= len`.
pub fn extract_weighted_cells_range(
    records: &[TraceRecord],
    cfg: &PreprocessConfig,
    start: usize,
    end: usize,
) -> Vec<WeightedSample> {
    assert!(start <= end && end <= records.len(), "invalid cell range");
    // Integer key order is `f64` order: pages < 2⁵¹, timestamps < 2³².
    let mut keys = Vec::with_capacity(end - start);
    for (ts, r) in timestamped(&records[..end], cfg).skip(start) {
        keys.push((r.page().raw(), ts));
    }
    keys.sort_unstable();
    keys.chunk_by(|a, b| a == b)
        .map(|run| WeightedSample {
            page: run[0].0 as f64,
            time: run[0].1 as f64,
            weight: run.len() as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;

    #[test]
    fn default_config_matches_paper() {
        let c = PreprocessConfig::default();
        assert_eq!(c.warmup_frac, 0.20);
        assert_eq!(c.tail_frac, 0.10);
        assert_eq!(c.len_window, 32);
        assert_eq!(c.len_access_shot, 10_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = PreprocessConfig {
            warmup_frac: 0.8,
            tail_frac: 0.3,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = PreprocessConfig {
            len_window: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = PreprocessConfig {
            warmup_frac: -0.1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn kept_range_saturates_for_every_fraction() {
        // Rows: tail_frac 0.5, 1.0, 1.5, +∞, NaN. Columns: warmup_frac 0,
        // 0.99, 1.5, +∞. A cut past the trace empties the range; NaN cuts
        // nothing.
        let warmups = [0.0, 0.99, 1.5, f64::INFINITY];
        let table: [(f64, [(usize, usize); 4]); 5] = [
            (0.5, [(0, 50), (99, 99), (100, 100), (100, 100)]),
            (1.0, [(0, 0), (99, 99), (100, 100), (100, 100)]),
            (1.5, [(0, 0), (99, 99), (100, 100), (100, 100)]),
            (f64::INFINITY, [(0, 0), (99, 99), (100, 100), (100, 100)]),
            (f64::NAN, [(0, 100), (99, 100), (100, 100), (100, 100)]),
        ];
        for (tail_frac, row) in table {
            for (warmup_frac, want) in warmups.into_iter().zip(row) {
                let c = PreprocessConfig {
                    warmup_frac,
                    tail_frac,
                    ..Default::default()
                };
                assert_eq!(
                    c.kept_range(100),
                    want,
                    "warmup {warmup_frac}, tail {tail_frac}"
                );
                for n in [0, 1, 7, 1_000_003] {
                    let (start, end) = c.kept_range(n);
                    assert!(start <= end && end <= n, "n {n}: ({start}, {end})");
                }
            }
        }
        // Validated configs keep the plain floor arithmetic.
        assert_eq!(PreprocessConfig::default().kept_range(100), (20, 90));
        assert_eq!(PreprocessConfig::default().kept_range(7), (1, 7));
    }

    #[test]
    fn trim_keeps_the_middle() {
        let t: Trace = (0..10u64).map(|i| TraceRecord::read(i << 12)).collect();
        let cfg = PreprocessConfig::default();
        let kept = trim(&t, &cfg);
        assert_eq!(kept.len(), 7); // drop 2 front, 1 back
        assert_eq!(kept[0].page().raw(), 2);
        assert_eq!(kept.last().unwrap().page().raw(), 8);
    }

    #[test]
    fn trim_of_empty_trace_is_empty() {
        let t = Trace::new();
        assert!(trim(&t, &PreprocessConfig::default()).is_empty());
    }

    #[test]
    fn algorithm1_window_grouping() {
        let tr = TimestampTransformer::new(32, 10_000);
        // First 32 requests share timestamp 0, the next 32 timestamp 1.
        assert!((0..32).all(|pos| tr.at(pos) == 0));
        assert!((32..64).all(|pos| tr.at(pos) == 1));
    }

    #[test]
    fn algorithm1_shot_wraps() {
        let tr = TimestampTransformer::new(1, 4);
        let ts: Vec<u64> = (0..9).map(|pos| tr.at(pos)).collect();
        assert_eq!(ts, [0, 1, 2, 3, 0, 1, 2, 3, 0]);
    }

    #[test]
    #[should_panic(expected = "len_window")]
    fn zero_window_panics() {
        let _ = TimestampTransformer::new(0, 1);
    }

    #[test]
    fn features_pair_page_and_time() {
        let t: Trace = (0..6u64).map(|i| TraceRecord::read(i << 12)).collect();
        let cfg = PreprocessConfig {
            len_window: 2,
            len_access_shot: 100,
            ..Default::default()
        };
        let f = extract_features(t.records(), &cfg);
        assert_eq!(f.len(), 6);
        assert_eq!(f[0], [0.0, 0.0]);
        assert_eq!(f[1], [1.0, 0.0]);
        assert_eq!(f[2], [2.0, 1.0]);
        assert_eq!(f[5], [5.0, 2.0]);
    }

    #[test]
    fn weighted_cells_preserve_total_mass() {
        // Repeated accesses to one page in one window collapse to one cell.
        let t: Trace = (0..8u64).map(|_| TraceRecord::read(0x5000)).collect();
        let cfg = PreprocessConfig {
            len_window: 4,
            len_access_shot: 100,
            ..Default::default()
        };
        let cells = extract_weighted_cells(t.records(), &cfg);
        assert_eq!(cells.len(), 2); // windows 0 and 1
        let total: f64 = cells.iter().map(|c| c.weight).sum();
        assert_eq!(total, 8.0);
        assert!(cells.iter().all(|c| c.page == 5.0));
    }

    #[test]
    fn range_extraction_keeps_the_clock_but_skips_prefix_cells() {
        // Pages 0..6, window = 2. Full extraction sees windows 0,0,1,1,2,2;
        // range (2, 6) must keep those timestamps but drop the prefix.
        let t: Trace = (0..6u64).map(|i| TraceRecord::read(i << 12)).collect();
        let cfg = PreprocessConfig {
            len_window: 2,
            len_access_shot: 100,
            ..Default::default()
        };
        let cells = extract_weighted_cells_range(t.records(), &cfg, 2, 6);
        assert_eq!(cells.len(), 4);
        // Page 2 was in window 1 (not 0): the clock ran over the prefix.
        assert!(cells.iter().any(|c| c.page == 2.0 && c.time == 1.0));
        assert!(cells.iter().all(|c| c.page >= 2.0));
        let total: f64 = cells.iter().map(|c| c.weight).sum();
        assert_eq!(total, 4.0);
    }

    #[test]
    #[should_panic(expected = "range")]
    fn bad_cell_range_panics() {
        let t: Trace = (0..3u64).map(|i| TraceRecord::read(i << 12)).collect();
        let _ = extract_weighted_cells_range(t.records(), &PreprocessConfig::default(), 2, 1);
    }

    #[test]
    fn weighted_cells_are_sorted_deterministically() {
        let t = Trace::from_records(vec![
            TraceRecord::read(0x3000),
            TraceRecord::read(0x1000),
            TraceRecord::read(0x2000),
        ]);
        let cfg = PreprocessConfig {
            len_window: 1,
            len_access_shot: 10,
            ..Default::default()
        };
        let cells = extract_weighted_cells(t.records(), &cfg);
        let pages: Vec<f64> = cells.iter().map(|c| c.page).collect();
        assert_eq!(pages, vec![1.0, 2.0, 3.0]);
    }
}
