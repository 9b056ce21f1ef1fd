//! DLRM (deep-learning recommendation model) inference workload model.
//!
//! The paper's Fig. 2(a) is a dlrm trace: several embedding tables, each a
//! spatially compact Gaussian-looking bump of hot rows, with table emphasis
//! shifting over time. Embedding gathers dominate: per inference sample,
//! a few Zipf-distributed rows are read from every table. The combined
//! footprint is far larger than the device cache, which is why dlrm has the
//! highest miss rate in the paper (36.78 % under LRU). Dense MLP weights are
//! streamed cyclically, and the interaction output is written back.

use super::{line_addr, synth, Workload};
use crate::record::TraceRecord;
use crate::trace::Trace;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Parameters of the dlrm workload model (defaults ≈ paper operating point:
/// ~37 % LRU miss).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DlrmWorkload {
    /// Number of embedding tables.
    pub tables: usize,
    /// Rows per embedding table.
    pub rows_per_table: u64,
    /// Row size in bytes.
    pub row_bytes: u64,
    /// Embedding lookups per table per sample (multi-hot).
    pub lookups_per_table: usize,
    /// Zipf exponent of row popularity (mild skew ⇒ high miss rate).
    pub zipf_exponent: f64,
    /// Pages of dense MLP weights streamed per batch.
    pub mlp_pages: u64,
    /// Sequential MLP lines read per sample.
    pub mlp_lines_per_sample: usize,
    /// Samples per table-emphasis phase.
    pub phase_len_samples: usize,
    /// First page of the embedding region.
    pub base_page: u64,
}

impl Default for DlrmWorkload {
    fn default() -> Self {
        DlrmWorkload {
            tables: 8,
            rows_per_table: 1_000_000,
            row_bytes: 128,
            lookups_per_table: 2,
            zipf_exponent: 0.78,
            mlp_pages: 768,
            mlp_lines_per_sample: 12,
            phase_len_samples: 15_000,
            base_page: 0x400_0000,
        }
    }
}

impl DlrmWorkload {
    fn rows_per_page(&self) -> u64 {
        (crate::record::PAGE_SIZE / self.row_bytes).max(1)
    }

    fn table_pages(&self) -> u64 {
        self.rows_per_table.div_ceil(self.rows_per_page())
    }

    fn table_base(&self, t: usize) -> u64 {
        self.base_page + t as u64 * (self.table_pages() + 8_192)
    }

    fn mlp_base(&self) -> u64 {
        self.table_base(self.tables) + 65_536
    }

    fn out_base(&self) -> u64 {
        self.mlp_base() + self.mlp_pages + 4_096
    }

    /// Which table gets extra lookups during `phase` (emphasis rotation).
    fn emphasized_table(&self, phase: usize) -> usize {
        phase % self.tables.max(1)
    }
}

impl Workload for DlrmWorkload {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        let zipf = Zipf::new(self.rows_per_table, self.zipf_exponent)
            .expect("workload parameters form a valid Zipf distribution");
        let mut mlp_line = 0u64;
        let mut sample = 0usize;

        synth(n, StdRng::seed_from_u64(seed), |t, rng| {
            sample += 1;
            let phase = sample / self.phase_len_samples.max(1);
            let hot_table = self.emphasized_table(phase);

            // Embedding gathers.
            for table in 0..self.tables {
                let lookups = self.lookups_per_table
                    + usize::from(table == hot_table) * self.lookups_per_table;
                for _ in 0..lookups {
                    let rank = zipf.sample(rng) - 1;
                    let page = self.table_base(table) + rank / self.rows_per_page();
                    let slot = (rank % self.rows_per_page()) * (self.row_bytes / 64).max(1);
                    t.push(TraceRecord::read(line_addr(page, slot)));
                }
            }
            // Dense MLP weight stream (cyclic).
            for _ in 0..self.mlp_lines_per_sample {
                let page = self.mlp_base() + (mlp_line / 64) % self.mlp_pages;
                t.push(TraceRecord::read(line_addr(page, mlp_line)));
                mlp_line += 1;
            }
            // Interaction output write.
            let page = self.out_base() + (sample as u64 % 512);
            t.push(TraceRecord::write(line_addr(page, sample as u64)));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::SpatialHistogram;

    #[test]
    fn mostly_reads() {
        let t = DlrmWorkload::default().generate(50_000, 1);
        let wf = t.stats().write_fraction();
        assert!(wf < 0.10, "write fraction {wf} too high for dlrm");
    }

    #[test]
    fn footprint_far_exceeds_cache() {
        let t = DlrmWorkload::default().generate(200_000, 2);
        let s = t.stats();
        // 64 MiB cache = 16384 pages; dlrm must be much bigger.
        assert!(
            s.distinct_pages > 60_000,
            "distinct pages {} too small",
            s.distinct_pages
        );
    }

    #[test]
    fn tables_form_separate_spatial_modes() {
        let w = DlrmWorkload {
            tables: 4,
            mlp_lines_per_sample: 0,
            ..Default::default()
        };
        let t = w.generate(80_000, 3);
        let h = SpatialHistogram::from_records(t.records(), 200);
        assert!(
            h.mode_count() >= 3,
            "expected per-table modes, got {}",
            h.mode_count()
        );
    }

    #[test]
    fn emphasis_rotates_between_phases() {
        let w = DlrmWorkload::default();
        assert_ne!(w.emphasized_table(0), w.emphasized_table(1));
        assert_eq!(w.emphasized_table(0), w.emphasized_table(w.tables));
    }

    #[test]
    fn regions_are_disjoint() {
        let w = DlrmWorkload::default();
        for t in 1..w.tables {
            assert!(w.table_base(t) > w.table_base(t - 1) + w.table_pages());
        }
        assert!(w.mlp_base() > w.table_base(w.tables - 1) + w.table_pages());
        assert!(w.out_base() > w.mlp_base() + w.mlp_pages);
    }
}
