//! sysbench OLTP point-query workload model.
//!
//! Index traversals over a B-tree: a tiny hot root/inner level, Zipf-skewed
//! leaf pages, row reads, and (for updates) row writes plus a sequentially
//! advancing circular redo log — the log sweep is the LRU-hostile component.
//! The hot leaf range rotates slowly between phases.

use super::{line_addr, synth, Workload};
use crate::record::TraceRecord;
use crate::trace::Trace;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the sysbench workload model (defaults ≈ paper operating
/// point: ~3.9 % LRU miss, ~25 % updates).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SysbenchWorkload {
    /// Number of table rows.
    pub rows: u64,
    /// Rows per leaf page.
    pub rows_per_leaf: u64,
    /// Number of inner (branch) pages — always warm.
    pub inner_pages: u64,
    /// Zipf exponent of row popularity.
    pub zipf_exponent: f64,
    /// Probability that a query is an UPDATE.
    pub update_prob: f64,
    /// Pages in the circular redo log.
    pub log_pages: u64,
    /// Requests per hot-range rotation phase.
    pub phase_len: usize,
    /// Row-rank offset applied per phase.
    pub rotate_rows: u64,
    /// Probability that a query is a range SELECT (sequential leaf scan —
    /// the LRU-hostile component of the OLTP mix).
    pub range_prob: f64,
    /// Leaf pages touched by one range SELECT.
    pub range_leaves: u64,
    /// First page of the B-tree region.
    pub base_page: u64,
}

impl Default for SysbenchWorkload {
    fn default() -> Self {
        SysbenchWorkload {
            rows: 4_000_000,
            rows_per_leaf: 16,
            inner_pages: 384,
            zipf_exponent: 1.18,
            update_prob: 0.25,
            log_pages: 4_096,
            phase_len: 250_000,
            rotate_rows: 20_000,
            range_prob: 0.008,
            range_leaves: 8,
            base_page: 0x200_0000,
        }
    }
}

impl SysbenchWorkload {
    fn root_page(&self) -> u64 {
        self.base_page
    }

    fn inner_base(&self) -> u64 {
        self.base_page + 1
    }

    fn leaf_base(&self) -> u64 {
        self.inner_base() + self.inner_pages
    }

    fn leaf_pages(&self) -> u64 {
        self.rows.div_ceil(self.rows_per_leaf)
    }

    fn log_base(&self) -> u64 {
        self.leaf_base() + self.leaf_pages() + 65_536
    }

    /// Leaf page of popularity rank `rank` during `phase`.
    fn leaf_page(&self, rank: u64, phase: usize) -> u64 {
        let row = (rank - 1 + phase as u64 * self.rotate_rows) % self.rows;
        self.leaf_base() + row / self.rows_per_leaf
    }

    /// Inner page covering a leaf (contiguous key ranges per branch).
    fn inner_page_for(&self, leaf: u64) -> u64 {
        let leaf_off = leaf - self.leaf_base();
        let per_inner = self.leaf_pages().div_ceil(self.inner_pages).max(1);
        self.inner_base() + (leaf_off / per_inner).min(self.inner_pages - 1)
    }
}

impl Workload for SysbenchWorkload {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        let zipf = Zipf::new(self.rows, self.zipf_exponent)
            .expect("workload parameters form a valid Zipf distribution");
        let mut log_line = 0u64;

        synth(n, StdRng::seed_from_u64(seed), |t, rng| {
            let phase = t.len() / self.phase_len.max(1);
            let rank = zipf.sample(rng);
            let leaf = self.leaf_page(rank, phase);
            // Root → inner → leaf traversal.
            t.read(rng, self.root_page());
            t.read(rng, self.inner_page_for(leaf));
            if rng.gen::<f64>() < self.range_prob {
                // Range SELECT: sequential sweep of sibling leaves starting
                // at a uniformly random position (mostly cold pages).
                let start = rng.gen_range(0..self.leaf_pages());
                for i in 0..self.range_leaves {
                    t.read(rng, self.leaf_base() + (start + i) % self.leaf_pages());
                }
                return;
            }
            t.read(rng, leaf);
            if rng.gen::<f64>() < self.update_prob {
                // Row update in place.
                t.write(rng, leaf);
                // Redo-log append: strictly sequential circular stream.
                let page = self.log_base() + (log_line / 64) % self.log_pages;
                t.push(TraceRecord::write(line_addr(page, log_line)));
                log_line += 1;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn update_fraction_shows_in_writes() {
        let t = SysbenchWorkload::default().generate(50_000, 1);
        let wf = t.stats().write_fraction();
        // 25% updates × 2 writes per ~4.5-record op ⇒ ~11-15% writes.
        assert!(wf > 0.06 && wf < 0.25, "write fraction {wf}");
    }

    #[test]
    fn root_is_hot() {
        let w = SysbenchWorkload::default();
        let t = w.generate(40_000, 2);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for r in &t {
            *counts.entry(r.page().raw()).or_insert(0) += 1;
        }
        let root = counts.get(&w.root_page()).copied().unwrap_or(0);
        assert!(
            root as f64 > t.len() as f64 * 0.2,
            "root page carries only {root} of {}",
            t.len()
        );
    }

    #[test]
    fn regions_do_not_overlap() {
        let w = SysbenchWorkload::default();
        assert!(w.inner_base() > w.root_page());
        assert!(w.leaf_base() > w.inner_base() + w.inner_pages - 1);
        assert!(w.log_base() > w.leaf_base() + w.leaf_pages());
        // Inner page mapping stays in range for extreme leaves.
        let first = w.leaf_page(1, 0);
        let last = w.leaf_page(w.rows, 0);
        for leaf in [first, last] {
            let ip = w.inner_page_for(leaf);
            assert!(ip >= w.inner_base() && ip < w.inner_base() + w.inner_pages);
        }
    }

    #[test]
    fn log_writes_are_sequential() {
        let w = SysbenchWorkload {
            update_prob: 1.0,
            ..Default::default()
        };
        let t = w.generate(20_000, 3);
        let log_pages: Vec<u64> = t
            .iter()
            .filter(|r| r.page().raw() >= w.log_base())
            .map(|r| r.page().raw())
            .collect();
        assert!(!log_pages.is_empty());
        // Non-decreasing until wrap.
        let mut violations = 0;
        for pair in log_pages.windows(2) {
            if pair[1] < pair[0] && pair[0] - pair[1] < w.log_pages - 1 {
                violations += 1;
            }
        }
        assert_eq!(violations, 0, "log pages not sequential");
    }
}
