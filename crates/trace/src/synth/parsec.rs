//! PARSEC-style HPC workload model.
//!
//! The paper's Fig. 2(b) shows parsec's spatial distribution as a handful of
//! Gaussian bumps with a mostly-resident working set, and its temporal view
//! shows slowly drifting phases. We model: several Gaussian working-set
//! clusters with unequal, phase-rotated popularity, slow mean drift between
//! phases, and a small uniform cold background (capacity-miss floor).

use super::{clamp_page, normal, synth, Workload};
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the parsec workload model. Defaults are calibrated for the
/// paper's 64 MiB / 4 KiB / 8-way cache operating point (~1.5 % LRU miss).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParsecWorkload {
    /// Number of Gaussian working-set clusters.
    pub clusters: usize,
    /// Standard deviation of each cluster, in pages.
    pub cluster_sigma_pages: f64,
    /// Distance between consecutive cluster centres, in pages.
    pub cluster_spacing_pages: u64,
    /// First page of the clustered region.
    pub region_base_page: u64,
    /// Pages in the uniform cold background region.
    pub background_pages: u64,
    /// Probability that a request goes to the cold background.
    pub background_prob: f64,
    /// Probability that a request is a write.
    pub write_prob: f64,
    /// Requests per phase; cluster popularity rotates and means drift
    /// between phases.
    pub phase_len: usize,
    /// Cluster-mean drift per phase, in pages.
    pub drift_pages: f64,
}

impl Default for ParsecWorkload {
    fn default() -> Self {
        ParsecWorkload {
            clusters: 6,
            cluster_sigma_pages: 320.0,
            cluster_spacing_pages: 6_000,
            region_base_page: 0x10_0000,
            background_pages: 1_500_000,
            background_prob: 0.008,
            write_prob: 0.30,
            phase_len: 80_000,
            drift_pages: 220.0,
        }
    }
}

impl ParsecWorkload {
    /// Centre of cluster `c` during `phase`.
    fn cluster_mean(&self, c: usize, phase: usize) -> f64 {
        let base = self.region_base_page + c as u64 * self.cluster_spacing_pages;
        // Drift back and forth so the footprint stays bounded.
        let dir = if phase.is_multiple_of(2) { 1.0 } else { -1.0 };
        base as f64 + dir * self.drift_pages * ((phase % 4) as f64 / 2.0)
    }

    /// Unnormalized popularity of cluster `c` during `phase` (rotates so the
    /// temporally hot cluster changes — the Fig. 2 unevenness).
    fn cluster_weight(&self, c: usize, phase: usize) -> f64 {
        let rank = (c + phase) % self.clusters;
        1.0 / (1.0 + rank as f64)
    }
}

impl Workload for ParsecWorkload {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        let region_pages =
            self.clusters as u64 * self.cluster_spacing_pages + 8 * self.cluster_sigma_pages as u64;
        let bg_base = self.region_base_page + region_pages + 1_000_000;

        synth(n, StdRng::seed_from_u64(seed), |t, rng| {
            let phase = t.len() / self.phase_len.max(1);
            let page = if rng.gen::<f64>() < self.background_prob {
                bg_base + rng.gen_range(0..self.background_pages)
            } else {
                // Pick a cluster by phase-rotated weight.
                let total: f64 = (0..self.clusters)
                    .map(|c| self.cluster_weight(c, phase))
                    .sum();
                let mut u = rng.gen::<f64>() * total;
                let mut chosen = 0;
                for c in 0..self.clusters {
                    u -= self.cluster_weight(c, phase);
                    if u <= 0.0 {
                        chosen = c;
                        break;
                    }
                }
                let mean = self.cluster_mean(chosen, phase);
                let x = normal(rng, mean, self.cluster_sigma_pages);
                clamp_page(x, self.region_base_page, region_pages)
            };
            if rng.gen::<f64>() < self.write_prob {
                t.write(rng, page);
            } else {
                t.read(rng, page);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::SpatialHistogram;
    use crate::preprocess::PreprocessConfig;

    #[test]
    fn write_fraction_tracks_parameter() {
        let w = ParsecWorkload::default();
        let t = w.generate(40_000, 9);
        let wf = t.stats().write_fraction();
        assert!((wf - 0.30).abs() < 0.02, "write fraction {wf}");
    }

    #[test]
    fn spatial_distribution_is_multimodal() {
        let w = ParsecWorkload {
            background_prob: 0.0,
            drift_pages: 0.0,
            clusters: 3,
            ..Default::default()
        };
        let t = w.generate(60_000, 5);
        // Restrict the histogram to the clustered region.
        let h = SpatialHistogram::from_records(t.records(), 120);
        assert!(
            h.mode_count() >= 2,
            "expected multimodal spatial histogram, got {} modes",
            h.mode_count()
        );
    }

    #[test]
    fn hot_footprint_is_cache_scale() {
        let w = ParsecWorkload::default();
        let t = w.generate(120_000, 3);
        let s = t.stats();
        // Hot region should be tens of thousands of pages, not millions.
        assert!(s.distinct_pages > 2_000, "{}", s.distinct_pages);
        assert!(s.distinct_pages < 60_000, "{}", s.distinct_pages);
    }

    #[test]
    fn phases_change_the_hot_cluster() {
        let w = ParsecWorkload {
            background_prob: 0.0,
            phase_len: 10_000,
            ..Default::default()
        };
        let t = w.generate(20_000, 7);
        let cfg = PreprocessConfig {
            len_window: 32,
            ..Default::default()
        };
        let hm = crate::histogram::TemporalHeatmap::from_records(t.records(), &cfg, 8, 2);
        // The busiest row in the first half differs from the second half.
        let busiest = |col: usize| {
            (0..8usize)
                .max_by_key(|&r| hm.at(r, col))
                .expect("rows exist")
        };
        assert_ne!(busiest(0), busiest(1), "phase rotation had no effect");
    }
}
