//! Spatial and temporal access-distribution histograms (paper Fig. 2).
//!
//! The paper motivates the 2-D GMM with two views of a trace:
//!
//! * the **spatial distribution** — number of accesses per physical-address
//!   group (a histogram over page index), which empirically looks like a
//!   mixture of Gaussians, and
//! * the **temporal distribution** — which address groups are touched in
//!   which time windows (a page × time heat map), which shows that access
//!   frequency is uneven in time.

use crate::preprocess::{timestamped, PreprocessConfig};
use crate::record::TraceRecord;
use serde::{Deserialize, Serialize};

/// Histogram of access counts over equal-width page-index buckets.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpatialHistogram {
    /// Lowest page index covered (inclusive).
    pub min_page: u64,
    /// Pages per bucket.
    pub bucket_pages: u64,
    /// Access count per bucket.
    pub counts: Vec<u64>,
}

impl SpatialHistogram {
    /// Builds a histogram with `buckets` equal-width buckets spanning the
    /// page range touched by `records`.
    ///
    /// # Panics
    ///
    /// If `buckets == 0`; the callers (`icgmm_bench::Fig2::of`,
    /// `trace_explorer`) pass constants.
    pub fn from_records(records: &[TraceRecord], buckets: usize) -> Self {
        assert!(buckets > 0, "buckets must be >= 1");
        if records.is_empty() {
            return SpatialHistogram {
                min_page: 0,
                bucket_pages: 1,
                counts: vec![0; buckets],
            };
        }
        let mut min_page = u64::MAX;
        let mut max_page = 0u64;
        for r in records {
            let p = r.page().raw();
            min_page = min_page.min(p);
            max_page = max_page.max(p);
        }
        let span = max_page - min_page + 1;
        let bucket_pages = span.div_ceil(buckets as u64).max(1);
        let mut counts = vec![0u64; buckets];
        for r in records {
            let b = ((r.page().raw() - min_page) / bucket_pages) as usize;
            counts[b.min(buckets - 1)] += 1;
        }
        SpatialHistogram {
            min_page,
            bucket_pages,
            counts,
        }
    }

    /// Total number of accesses counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of accesses landing in the `k` most-accessed buckets.
    pub fn top_k_share(&self, k: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut sorted = self.counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = sorted.iter().take(k).sum();
        top as f64 / total as f64
    }

    /// Number of local maxima in the (lightly smoothed) histogram — a crude
    /// count of spatial "Gaussian bumps" used by tests to confirm that
    /// generated workloads are multi-modal as in Fig. 2.
    pub fn mode_count(&self) -> usize {
        let n = self.counts.len();
        if n < 3 {
            return usize::from(self.total() > 0);
        }
        // 3-point moving average to suppress noise.
        let sm: Vec<f64> = (0..n)
            .map(|i| {
                let lo = i.saturating_sub(1);
                let hi = (i + 1).min(n - 1);
                (lo..=hi).map(|j| self.counts[j] as f64).sum::<f64>() / (hi - lo + 1) as f64
            })
            .collect();
        let peak_floor = sm.iter().cloned().fold(0.0f64, f64::max) * 0.05;
        let mut modes = 0;
        for i in 0..n {
            let left_ok = i == 0 || sm[i] >= sm[i - 1];
            let right_ok = i == n - 1 || sm[i] > sm[i + 1];
            if sm[i] > peak_floor && left_ok && right_ok {
                modes += 1;
            }
        }
        modes
    }
}

/// Page × time access heat map (the Fig. 2 right-hand panels).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TemporalHeatmap {
    /// Lowest page index covered.
    pub min_page: u64,
    /// Pages per spatial row.
    pub bucket_pages: u64,
    /// Requests per temporal column (derived from Algorithm 1 windows).
    pub window_per_col: u64,
    /// Row-major counts: `counts[row * cols + col]`.
    pub counts: Vec<u64>,
    /// Number of spatial rows.
    pub rows: usize,
    /// Number of temporal columns.
    pub cols: usize,
}

impl TemporalHeatmap {
    /// Builds a `rows × cols` heat map. Time is measured in Algorithm-1
    /// windows of `cfg.len_window` requests (without the shot wrap, so the
    /// full run is visible as in Fig. 2).
    ///
    /// # Panics
    ///
    /// If `rows`, `cols` or `cfg.len_window` is 0; the callers
    /// (`icgmm_bench::Fig2::of`, `trace_explorer`) pass constants and a
    /// validated config.
    pub fn from_records(
        records: &[TraceRecord],
        cfg: &PreprocessConfig,
        rows: usize,
        cols: usize,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "rows and cols must be >= 1");
        if records.is_empty() {
            return TemporalHeatmap {
                min_page: 0,
                bucket_pages: 1,
                window_per_col: 1,
                counts: vec![0; rows * cols],
                rows,
                cols,
            };
        }
        let mut min_page = u64::MAX;
        let mut max_page = 0u64;
        for r in records {
            let p = r.page().raw();
            min_page = min_page.min(p);
            max_page = max_page.max(p);
        }
        let span = max_page - min_page + 1;
        let bucket_pages = span.div_ceil(rows as u64).max(1);
        let total_windows = (records.len() as u64)
            .div_ceil(u64::from(cfg.len_window))
            .max(1);
        let window_per_col = total_windows.div_ceil(cols as u64).max(1);

        let mut counts = vec![0u64; rows * cols];
        for (i, r) in records.iter().enumerate() {
            let window = i as u64 / u64::from(cfg.len_window);
            let col = ((window / window_per_col) as usize).min(cols - 1);
            let row = (((r.page().raw() - min_page) / bucket_pages) as usize).min(rows - 1);
            counts[row * cols + col] += 1;
        }
        TemporalHeatmap {
            min_page,
            bucket_pages,
            window_per_col,
            counts,
            rows,
            cols,
        }
    }

    /// Count at `(row, col)`.
    ///
    /// # Panics
    ///
    /// When out of range; every caller walks `0..rows` × `0..cols`.
    pub fn at(&self, row: usize, col: usize) -> u64 {
        assert!(
            row < self.rows && col < self.cols,
            "heatmap index out of range"
        );
        self.counts[row * self.cols + col]
    }

    /// Coefficient of variation of per-column activity for the busiest row —
    /// large values mean the hot address range is *unevenly* hot in time,
    /// the paper's argument for adding the temporal feature.
    pub fn busiest_row_cv(&self) -> f64 {
        let mut best_row = 0;
        let mut best_sum = 0u64;
        for r in 0..self.rows {
            let s: u64 = (0..self.cols).map(|c| self.at(r, c)).sum();
            if s > best_sum {
                best_sum = s;
                best_row = r;
            }
        }
        if best_sum == 0 {
            return 0.0;
        }
        self.row_cv(best_row)
    }

    /// Temporal coefficient of variation of one row.
    fn row_cv(&self, row: usize) -> f64 {
        let vals: Vec<f64> = (0..self.cols).map(|c| self.at(row, c) as f64).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
        var.sqrt() / mean
    }

    /// Largest temporal CV among rows carrying at least `min_mass_frac` of
    /// all accesses. The busiest row is often steadily hot; the Fig. 2
    /// unevenness usually lives in the *other* significant rows (phase
    /// rotation, sweeps), which this metric surfaces.
    pub fn max_significant_row_cv(&self, min_mass_frac: f64) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let floor = (total as f64 * min_mass_frac).max(1.0);
        (0..self.rows)
            .filter(|&r| {
                let s: u64 = (0..self.cols).map(|c| self.at(r, c)).sum();
                s as f64 >= floor
            })
            .map(|r| self.row_cv(r))
            .fold(0.0, f64::max)
    }
}

/// Per-window distinct-page counts — a cheap proxy for working-set drift.
pub fn working_set_series(records: &[TraceRecord], cfg: &PreprocessConfig) -> Vec<usize> {
    let mut out = Vec::new();
    let mut current_ts = 0u64;
    let mut set = std::collections::HashSet::new();
    let mut first = true;
    for (ts, r) in timestamped(records, cfg) {
        if first {
            current_ts = ts;
            first = false;
        }
        if ts != current_ts {
            out.push(set.len());
            set.clear();
            current_ts = ts;
        }
        set.insert(r.page());
    }
    if !set.is_empty() {
        out.push(set.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;

    fn bimodal_records() -> Vec<TraceRecord> {
        // Two hot clusters around pages 100 and 900 within [0, 1000).
        let mut v = Vec::new();
        for i in 0..500u64 {
            v.push(TraceRecord::read(((95 + i % 10) << 12) + 8));
            v.push(TraceRecord::read(((895 + i % 10) << 12) + 16));
        }
        v.push(TraceRecord::read(0)); // pin range start
        v.push(TraceRecord::read(999 << 12)); // pin range end
        v
    }

    #[test]
    fn spatial_histogram_counts_everything() {
        let recs = bimodal_records();
        let h = SpatialHistogram::from_records(&recs, 50);
        assert_eq!(h.total(), recs.len() as u64);
        assert_eq!(h.counts.len(), 50);
    }

    #[test]
    fn spatial_histogram_sees_two_modes() {
        let recs = bimodal_records();
        let h = SpatialHistogram::from_records(&recs, 50);
        assert_eq!(h.mode_count(), 2, "expected a bimodal histogram");
        // Each cluster may straddle a bucket boundary, so check top-4.
        assert!(h.top_k_share(4) > 0.9);
    }

    #[test]
    fn empty_inputs_are_harmless() {
        let h = SpatialHistogram::from_records(&[], 8);
        assert_eq!(h.total(), 0);
        assert_eq!(h.top_k_share(3), 0.0);
        let hm = TemporalHeatmap::from_records(&[], &PreprocessConfig::default(), 4, 4);
        assert_eq!(hm.counts.iter().sum::<u64>(), 0);
        assert_eq!(hm.busiest_row_cv(), 0.0);
    }

    #[test]
    fn heatmap_localizes_a_phase_change() {
        // Phase 1 touches low pages, phase 2 high pages.
        let mut recs = Vec::new();
        for i in 0..1000u64 {
            recs.push(TraceRecord::read((i % 16) << 12));
        }
        for i in 0..1000u64 {
            recs.push(TraceRecord::read((1000 + i % 16) << 12));
        }
        let cfg = PreprocessConfig {
            len_window: 10,
            ..Default::default()
        };
        let hm = TemporalHeatmap::from_records(&recs, &cfg, 2, 2);
        // Low pages active only early, high pages only late.
        assert!(hm.at(0, 0) > 0);
        assert_eq!(hm.at(0, 1), 0);
        assert_eq!(hm.at(1, 0), 0);
        assert!(hm.at(1, 1) > 0);
        assert!(hm.busiest_row_cv() > 0.5);
        assert!(hm.max_significant_row_cv(0.01) > 0.5);
        assert_eq!(hm.max_significant_row_cv(2.0), 0.0); // impossible floor
    }

    #[test]
    fn working_set_series_tracks_windows() {
        let recs: Vec<TraceRecord> = (0..100u64).map(|i| TraceRecord::read(i << 12)).collect();
        let cfg = PreprocessConfig {
            len_window: 10,
            len_access_shot: 1000,
            ..Default::default()
        };
        let ws = working_set_series(&recs, &cfg);
        assert_eq!(ws.len(), 10);
        assert!(ws.iter().all(|&n| n == 10));
    }

    #[test]
    #[should_panic(expected = "buckets")]
    fn zero_buckets_panics() {
        let _ = SpatialHistogram::from_records(&[], 0);
    }
}
