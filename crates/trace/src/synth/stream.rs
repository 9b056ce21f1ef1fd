//! STREAM (McCalpin) sequential-bandwidth workload model.
//!
//! Repeated copy/scale/add/triad sweeps over three large arrays. The arrays
//! are much larger than the device cache and are re-traversed cyclically —
//! the canonical LRU-hostile pattern: by the time a sweep returns to a page,
//! LRU has long evicted it, so LRU gets essentially zero reuse hits. An
//! admission-filtering policy can *pin* a subset of pages and collect their
//! reuse on every subsequent sweep, which is exactly how ICGMM improves on
//! LRU here (paper: 13.45 % → 11.09 %).
//!
//! Element stride is 512 B (8 touches per 4 KiB page), matching the paper's
//! ~13 % LRU miss floor: one compulsory miss per page per sweep, 7 hits.

use super::{line_addr, synth, Workload};
use crate::record::TraceRecord;
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The four STREAM kernels.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
enum Kernel {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = s * c[i]`
    Scale,
    /// `c[i] = a[i] + b[i]`
    Add,
    /// `a[i] = b[i] + s * c[i]`
    Triad,
}

const KERNELS: [Kernel; 4] = [Kernel::Copy, Kernel::Scale, Kernel::Add, Kernel::Triad];

/// Parameters of the STREAM workload model (defaults ≈ paper operating
/// point: ~13.5 % LRU miss).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamWorkload {
    /// Pages per array (three arrays: a, b, c).
    pub array_pages: u64,
    /// Access stride in bytes (512 ⇒ 8 touches per page).
    pub stride_bytes: u64,
    /// Hot control/index pages touched throughout the run.
    pub hot_pages: u64,
    /// Probability of an extra hot-region access per element step.
    pub hot_prob: f64,
    /// First page of array `a`.
    pub base_page: u64,
}

impl Default for StreamWorkload {
    fn default() -> Self {
        StreamWorkload {
            array_pages: 6_144, // 24 MiB per array, 72 MiB total (> 64 MiB cache)
            stride_bytes: 512,
            hot_pages: 14_336,
            hot_prob: 0.25,
            base_page: 0x100_0000,
        }
    }
}

impl StreamWorkload {
    fn array_base(&self, which: usize) -> u64 {
        self.base_page + which as u64 * (self.array_pages + 2_048)
    }

    fn hot_base(&self) -> u64 {
        self.base_page.saturating_sub(self.hot_pages + 1_024)
    }

    /// Elements per array at the configured stride.
    fn elements(&self) -> u64 {
        self.array_pages * crate::record::PAGE_SIZE / self.stride_bytes
    }

    fn elem_addr(&self, array: usize, elem: u64) -> u64 {
        let byte = elem * self.stride_bytes;
        let page = self.array_base(array) + byte / crate::record::PAGE_SIZE;
        (page << crate::record::PAGE_SHIFT) + byte % crate::record::PAGE_SIZE
    }
}

impl Workload for StreamWorkload {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        let elems = self.elements();
        let mut kernel_idx = 0usize;
        let mut elem = 0u64;

        synth(n, StdRng::seed_from_u64(seed), |t, rng| {
            if self.hot_pages > 0 && rng.gen::<f64>() < self.hot_prob {
                // Gaussian-profiled control/index region: a dense core the
                // GMM can pin, with a colder fringe that LRU churns.
                let x = super::normal(
                    rng,
                    self.hot_pages as f64 / 2.0,
                    self.hot_pages as f64 / 5.0,
                );
                let hp = self.hot_base() + super::clamp_page(x, 0, self.hot_pages);
                t.push(TraceRecord::read(line_addr(hp, rng.gen_range(0..64))));
            }
            // a=0, b=1, c=2
            match KERNELS[kernel_idx % KERNELS.len()] {
                Kernel::Copy => {
                    t.push(TraceRecord::read(self.elem_addr(0, elem)));
                    t.push(TraceRecord::write(self.elem_addr(2, elem)));
                }
                Kernel::Scale => {
                    t.push(TraceRecord::read(self.elem_addr(2, elem)));
                    t.push(TraceRecord::write(self.elem_addr(1, elem)));
                }
                Kernel::Add => {
                    t.push(TraceRecord::read(self.elem_addr(0, elem)));
                    t.push(TraceRecord::read(self.elem_addr(1, elem)));
                    t.push(TraceRecord::write(self.elem_addr(2, elem)));
                }
                Kernel::Triad => {
                    t.push(TraceRecord::read(self.elem_addr(1, elem)));
                    t.push(TraceRecord::read(self.elem_addr(2, elem)));
                    t.push(TraceRecord::write(self.elem_addr(0, elem)));
                }
            }
            elem += 1;
            if elem >= elems {
                elem = 0;
                kernel_idx += 1;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_gives_eight_touches_per_page() {
        let w = StreamWorkload::default();
        assert_eq!(crate::record::PAGE_SIZE / w.stride_bytes, 8);
    }

    #[test]
    fn accesses_are_sequential_within_an_array() {
        let w = StreamWorkload {
            hot_prob: 0.0,
            ..Default::default()
        };
        let t = w.generate(10_000, 1);
        // Array-a reads in the copy kernel advance monotonically.
        let a_base = w.array_base(0);
        let a_pages: Vec<u64> = t
            .iter()
            .filter(|r| {
                let p = r.page().raw();
                p >= a_base && p < a_base + w.array_pages && !r.op().is_write()
            })
            .map(|r| r.page().raw())
            .collect();
        assert!(a_pages.len() > 100);
        assert!(
            a_pages.windows(2).all(|w2| w2[1] >= w2[0]),
            "array sweep not sequential"
        );
    }

    #[test]
    fn write_fraction_matches_kernel_mix() {
        let w = StreamWorkload {
            hot_prob: 0.0,
            ..Default::default()
        };
        let t = w.generate(50_000, 2);
        let wf = t.stats().write_fraction();
        // copy/scale: 1 of 2; add/triad: 1 of 3 ⇒ between 1/3 and 1/2.
        assert!(wf > 0.30 && wf < 0.52, "write fraction {wf}");
    }

    #[test]
    fn footprint_is_three_arrays() {
        let w = StreamWorkload {
            array_pages: 64,
            hot_prob: 0.0,
            ..Default::default()
        };
        // Enough requests for one full kernel cycle over tiny arrays.
        let t = w.generate(5_000, 3);
        let s = t.stats();
        assert!(s.distinct_pages >= 3 * 64 - 3, "{}", s.distinct_pages);
    }

    #[test]
    fn kernels_rotate_after_full_sweeps() {
        let w = StreamWorkload {
            array_pages: 2,
            hot_prob: 0.0,
            ..Default::default()
        };
        // 2 pages × 8 elems/page = 16 elems per sweep; copy emits 2 records
        // per elem, so after 32 records the kernel switches to scale (which
        // touches array c first).
        let t = w.generate(40, 4);
        let c_base = w.array_base(2);
        assert_eq!(t.records()[32].page().raw(), c_base);
        assert!(!t.records()[32].op().is_write());
    }
}
