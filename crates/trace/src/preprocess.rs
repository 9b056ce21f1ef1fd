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
        // `i * w` is the position of `window[0]`, below `records.len()`,
        // so neither the product nor the widening to `u64` loses bits.
        let ts = t.at((i * w) as u64);
        window.iter().map(move |r| (ts, r))
    })
}

/// One GMM training cell: a `(page index, timestamp)` pair and how many
/// kept requests fell on it, in 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrainingCell {
    /// Page index (feature *P*).
    pub page: u64,
    /// Transformed timestamp (feature *T*).
    pub time: u32,
    /// Number of requests that mapped to this `(page, window)` cell.
    pub weight: u32,
}

const _: () = assert!(std::mem::size_of::<TrainingCell>() == 16);

/// The `(page, timestamp)` cells of a trace's kept range (paper §3.1),
/// sorted; the trimmed warm-up advances the Algorithm 1 clock but adds no
/// cell. Weighted EM over them equals EM over the requests, on 1.06–2.5×
/// fewer points (kept 70 %). On the repository benchmark's seed-0 traces
/// (1.2 M requests; `tenants_drift` fits on its first 600 000):
/// `tenants_drift` 420 000 kept requests → 395 506 cells, `dlrm_miss`
/// 840 000 → 537 466, `memtier_hit` → 342 946, `hashmap_write` → 333 262.
///
/// Built one Algorithm 1 timestamp class at a time: class `t` is every
/// kept window whose timestamp is `t`. A class's pages are sorted in a
/// fixed 32 KiB scratch, one cell per distinct page; a class larger than
/// the scratch leaves one partial cell per page per scratch-full. A
/// counting pass sizes the output exactly, and one sort of the cells with
/// their runs merged folds the partial cells together, so the cells cost
/// 16 bytes each, not per kept record. A run past `u32::MAX` fills its
/// cell to `u32::MAX` and continues in a same-key cell.
pub fn training_cells(trace: &Trace, cfg: &PreprocessConfig) -> Vec<TrainingCell> {
    let (start, end) = cfg.kept_range(trace.len());
    cells_from(&trace.records()[..end], cfg, start)
}

/// Pages sorted at once while a timestamp class is folded into cells.
const CLASS_SCRATCH: usize = 4096;

fn cells_from(records: &[TraceRecord], cfg: &PreprocessConfig, start: usize) -> Vec<TrainingCell> {
    assert!(
        cfg.len_window > 0 && cfg.len_access_shot > 0,
        "Algorithm 1 lengths must be >= 1"
    );
    let mut n = 0;
    for_each_class_cell(records, cfg, start, |_| n += 1);
    let mut cells = Vec::with_capacity(n);
    for_each_class_cell(records, cfg, start, |c| cells.push(c));
    cells.sort_unstable_by_key(|c| (c.page, c.time));
    merge_runs(&mut cells);
    cells
}

/// Calls `emit` once per distinct page of every scratch-full of every
/// timestamp class of `records[start..]`, the clock running from
/// `records[0]`.
fn for_each_class_cell(
    records: &[TraceRecord],
    cfg: &PreprocessConfig,
    start: usize,
    mut emit: impl FnMut(TrainingCell),
) {
    let end = records.len();
    if start >= end {
        return;
    }
    let mut scratch = Vec::with_capacity(CLASS_SCRATCH);
    // A length that does not fit a `usize` is longer than any slice: every
    // record is in window 0, or every window is its own class.
    let len_window = usize::try_from(cfg.len_window).unwrap_or(usize::MAX);
    let shot = usize::try_from(cfg.len_access_shot).unwrap_or(usize::MAX);
    let (first, last) = (start / len_window, (end - 1) / len_window);
    // Each of the first `len_access_shot` kept windows heads one class,
    // which steps on `len_access_shot` windows at a time.
    for head in (first..=last).take(shot) {
        // `head % shot < len_access_shot: u32`, so the narrowing is lossless.
        let time = (head % shot) as u32;
        for w in (head..=last).step_by(shot) {
            // `w <= last`, so `from = w × len_window <= end - 1` cannot
            // overflow, and `to` is clipped by subtraction, not by a sum
            // that could pass `usize::MAX`.
            let from = w * len_window;
            let to = from + len_window.min(end - from);
            for r in &records[from.max(start)..to] {
                if scratch.len() == CLASS_SCRATCH {
                    flush_class(&mut scratch, time, &mut emit);
                }
                scratch.push(r.page().raw());
            }
        }
        flush_class(&mut scratch, time, &mut emit);
    }
}

/// Emits one cell per distinct page in `scratch` and empties it.
fn flush_class(scratch: &mut Vec<u64>, time: u32, emit: &mut impl FnMut(TrainingCell)) {
    scratch.sort_unstable();
    for run in scratch.chunk_by(|a, b| a == b) {
        emit(TrainingCell {
            page: run[0],
            time,
            // A run is at most `CLASS_SCRATCH` pages.
            weight: run.len() as u32,
        });
    }
    scratch.clear();
}

/// Folds each run of equal keys in a sorted buffer into its first cell.
/// A cell full at `u32::MAX` carries the rest of the run into the next
/// same-key cell, so a run splits at the same points however its weight
/// was pre-merged.
fn merge_runs(cells: &mut Vec<TrainingCell>) {
    cells.dedup_by(|next, kept| {
        if (next.page, next.time) != (kept.page, kept.time) {
            return false;
        }
        let moved = next.weight.min(u32::MAX - kept.weight);
        kept.weight += moved;
        next.weight -= moved;
        next.weight == 0
    });
}

/// A [`TrainingCell`] in `f64`s, kept for the benchmark harness.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WeightedSample {
    pub page: f64,
    pub time: f64,
    pub weight: f64,
}

/// The cells of `records[start..end]` (the clock running from `records[0]`)
/// in `f64`s, kept for the benchmark harness. Panics on a bad range.
#[doc(hidden)]
pub fn extract_weighted_cells_range(
    records: &[TraceRecord],
    cfg: &PreprocessConfig,
    start: usize,
    end: usize,
) -> Vec<WeightedSample> {
    assert!(start <= end && end <= records.len(), "invalid cell range");
    cells_from(&records[..end], cfg, start)
        .into_iter()
        .map(|c| WeightedSample {
            page: c.page as f64,
            time: f64::from(c.time),
            weight: f64::from(c.weight),
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

    /// No trimming, `len_window` requests per window, 100 windows per shot.
    fn untrimmed(len_window: u32) -> PreprocessConfig {
        PreprocessConfig {
            warmup_frac: 0.0,
            tail_frac: 0.0,
            len_window,
            len_access_shot: 100,
        }
    }

    fn cell(page: u64, time: u32, weight: u32) -> TrainingCell {
        TrainingCell { page, time, weight }
    }

    #[test]
    fn features_pair_page_and_time() {
        let t: Trace = (0..6u64).map(|i| TraceRecord::read(i << 12)).collect();
        let cells = training_cells(&t, &untrimmed(2));
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0], cell(0, 0, 1));
        assert_eq!(cells[1], cell(1, 0, 1));
        assert_eq!(cells[2], cell(2, 1, 1));
        assert_eq!(cells[5], cell(5, 2, 1));
    }

    #[test]
    fn weighted_cells_preserve_total_mass() {
        // Repeated accesses to one page in one window collapse to one cell.
        let t: Trace = (0..8u64).map(|_| TraceRecord::read(0x5000)).collect();
        let cells = training_cells(&t, &untrimmed(4));
        assert_eq!(cells, [cell(5, 0, 4), cell(5, 1, 4)]); // windows 0 and 1
    }

    #[test]
    fn range_extraction_keeps_the_clock_but_skips_prefix_cells() {
        // Pages 0..10, window = 2, the default trim keeps records 2..9:
        // their timestamps must count the prefix, its cells must not show.
        let t: Trace = (0..10u64).map(|i| TraceRecord::read(i << 12)).collect();
        let cfg = PreprocessConfig {
            len_window: 2,
            len_access_shot: 100,
            ..Default::default()
        };
        let cells = training_cells(&t, &cfg);
        let want: Vec<TrainingCell> = (2..9).map(|p| cell(p, p as u32 / 2, 1)).collect();
        // Page 2 was in window 1 (not 0): the clock ran over the prefix.
        assert_eq!(cells, want);
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
        let cells = training_cells(&t, &untrimmed(1));
        assert_eq!(cells, [cell(1, 1, 1), cell(2, 2, 1), cell(3, 0, 1)]);
    }

    #[test]
    fn a_run_past_u32_max_splits_and_keeps_its_mass() {
        let big = u32::MAX - 1;
        let mut cells = vec![
            cell(7, 3, big),
            cell(7, 3, 1),
            cell(7, 3, 2),
            cell(7, 3, 2),
            cell(8, 0, big),
            cell(8, 0, 2),
            cell(9, 1, big),
            cell(9, 1, 4_096),
        ];
        merge_runs(&mut cells);
        // A cell fills to `u32::MAX` and the rest of its run carries over.
        assert_eq!(
            cells,
            [
                cell(7, 3, u32::MAX),
                cell(7, 3, 4),
                cell(8, 0, u32::MAX),
                cell(8, 0, 1),
                cell(9, 1, u32::MAX),
                cell(9, 1, 4_095),
            ]
        );
        let mass: u64 = cells.iter().map(|c| u64::from(c.weight)).sum();
        assert_eq!(mass, 3 * u64::from(big) + 4_103);

        // Pre-merged or not, a run splits at the same points: `big` then
        // `4 096` is `big` then 4 096 weight-1 cells.
        let mut ones = vec![cell(9, 1, big)];
        ones.extend(std::iter::repeat_n(cell(9, 1, 1), 4_096));
        merge_runs(&mut ones);
        assert_eq!(ones, [cell(9, 1, u32::MAX), cell(9, 1, 4_095)]);
    }
}
