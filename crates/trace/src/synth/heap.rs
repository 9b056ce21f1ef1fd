//! Synthetic binary-heap workload (the paper's `heap` benchmark).
//!
//! An array-backed binary heap: pushes append at the frontier and sift up a
//! few levels; pops read the root, move the frontier element down and sift
//! through the full depth. Shallow levels are extremely hot (they fit in a
//! handful of pages), deep levels are touched on random root-to-leaf paths.
//! The occupied size oscillates slowly, drifting the frontier — a temporal
//! signal. Sift operations write at every level, making this benchmark
//! write-heavy (large dirty-eviction penalty, as in the paper's Table 1).

use super::{synth, Workload};
use crate::record::TraceRecord;
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the heap workload model (defaults ≈ paper operating point:
/// ~2 % LRU miss, write-heavy).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HeapWorkload {
    /// Maximum number of elements (sets the depth; 2^21 ⇒ 21 levels).
    pub elements: u64,
    /// Element size in bytes (64 B ⇒ 64 elements per page).
    pub elem_bytes: u64,
    /// Probability that an operation is a push (the rest are pops).
    pub push_prob: f64,
    /// Mean number of levels a push sifts up (geometric-ish).
    pub sift_up_mean_levels: f64,
    /// Fraction around which the occupied size oscillates.
    pub fill_mid: f64,
    /// Amplitude of the occupancy oscillation (as a fraction).
    pub fill_wave: f64,
    /// Operations per oscillation period.
    pub wave_period_ops: usize,
    /// First page of the heap array.
    pub base_page: u64,
}

impl Default for HeapWorkload {
    fn default() -> Self {
        HeapWorkload {
            elements: 1_500_000,
            elem_bytes: 64,
            push_prob: 0.76,
            sift_up_mean_levels: 2.0,
            fill_mid: 0.80,
            fill_wave: 0.15,
            wave_period_ops: 120_000,
            base_page: 0x80_0000,
        }
    }
}

impl HeapWorkload {
    /// Page containing heap slot `idx`.
    fn slot_page(&self, idx: u64) -> u64 {
        let per_page = (crate::record::PAGE_SIZE / self.elem_bytes).max(1);
        self.base_page + idx / per_page
    }

    /// Address of heap slot `idx` (element-aligned).
    fn slot_addr(&self, idx: u64) -> u64 {
        let per_page = (crate::record::PAGE_SIZE / self.elem_bytes).max(1);
        (self.slot_page(idx) << crate::record::PAGE_SHIFT) + (idx % per_page) * self.elem_bytes
    }

    /// Current occupancy given the operation counter.
    fn occupancy(&self, ops: usize) -> u64 {
        let phase = (ops % self.wave_period_ops.max(1)) as f64 / self.wave_period_ops.max(1) as f64;
        let f = self.fill_mid + self.fill_wave * (std::f64::consts::TAU * phase).sin();
        ((self.elements as f64) * f.clamp(0.05, 0.99)) as u64
    }
}

impl Workload for HeapWorkload {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        let mut ops = 0usize;

        synth(n, StdRng::seed_from_u64(seed), |t, rng| {
            ops += 1;
            let size = self.occupancy(ops).max(2);
            if rng.gen::<f64>() < self.push_prob {
                // Push: append at the frontier...
                let mut idx = size - 1;
                t.push(TraceRecord::write(self.slot_addr(idx)));
                // ...then sift up a geometric number of levels.
                let mut levels = 0.0f64;
                while idx > 0
                    && rng.gen::<f64>()
                        < self.sift_up_mean_levels / (self.sift_up_mean_levels + levels + 1.0)
                {
                    let parent = (idx - 1) / 2;
                    t.push(TraceRecord::read(self.slot_addr(parent))); // compare
                    t.push(TraceRecord::write(self.slot_addr(parent))); // swap
                    idx = parent;
                    levels += 1.0;
                }
            } else {
                // Pop: read root, move frontier element to root...
                t.push(TraceRecord::read(self.slot_addr(0)));
                t.push(TraceRecord::read(self.slot_addr(size - 1)));
                t.push(TraceRecord::write(self.slot_addr(0)));
                // ...then sift down a random root-to-leaf path.
                let mut idx = 0u64;
                while 2 * idx + 2 < size {
                    let (left, right) = (2 * idx + 1, 2 * idx + 2);
                    t.push(TraceRecord::read(self.slot_addr(left)));
                    t.push(TraceRecord::read(self.slot_addr(right)));
                    let chosen = if rng.gen::<bool>() { left } else { right };
                    t.push(TraceRecord::write(self.slot_addr(chosen)));
                    idx = chosen;
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn write_heavy() {
        let t = HeapWorkload::default().generate(60_000, 1);
        let wf = t.stats().write_fraction();
        assert!(wf > 0.30, "write fraction {wf} too low for heap");
    }

    #[test]
    fn root_page_is_the_hottest() {
        let w = HeapWorkload::default();
        let t = w.generate(60_000, 2);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for r in &t {
            *counts.entry(r.page().raw()).or_insert(0) += 1;
        }
        let hottest = counts
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(&p, _)| p)
            .expect("non-empty");
        assert_eq!(hottest, w.base_page, "root page should dominate");
    }

    #[test]
    fn footprint_spans_deep_levels() {
        let w = HeapWorkload::default();
        let t = w.generate(120_000, 3);
        let s = t.stats();
        // Deep random paths must reach far beyond the top levels.
        assert!(
            s.max_page - w.base_page > 10_000,
            "max page offset {}",
            s.max_page - w.base_page
        );
    }

    #[test]
    fn occupancy_oscillates_within_bounds() {
        let w = HeapWorkload::default();
        let lo = (0..w.wave_period_ops)
            .step_by(1000)
            .map(|o| w.occupancy(o))
            .min()
            .expect("non-empty");
        let hi = (0..w.wave_period_ops)
            .step_by(1000)
            .map(|o| w.occupancy(o))
            .max()
            .expect("non-empty");
        assert!(lo < hi);
        assert!(hi <= w.elements);
        assert!(lo as f64 >= w.elements as f64 * 0.05);
    }

    #[test]
    fn slot_addresses_are_element_aligned() {
        let w = HeapWorkload::default();
        for idx in [0u64, 1, 63, 64, 65, 1 << 20] {
            let a = w.slot_addr(idx);
            assert_eq!(a % w.elem_bytes, 0);
            assert_eq!(a >> 12, w.slot_page(idx));
        }
    }
}
