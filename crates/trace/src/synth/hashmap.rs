//! Synthetic hash-map workload (the paper's `hashmap` benchmark, after the
//! CXL-SSD tool of Yang et al.).
//!
//! A bucket array (compact, warm) fronts an entry heap (large, skewed).
//! Inserts are frequent — this is the write-heaviest benchmark, which is why
//! the paper's Table 1 shows it with a large average access time (dirty
//! 4 KiB blocks cost a 900 µs SSD program on eviction). Periodic incremental
//! rehash sweeps scan the bucket array sequentially, polluting an LRU cache.

use super::{line_addr, synth, Workload};
use crate::record::TraceRecord;
use crate::trace::Trace;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the hashmap workload model (defaults ≈ paper operating
/// point: ~2 % LRU miss, write-heavy).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HashmapWorkload {
    /// Number of hash buckets (64 B each, 64 per page).
    pub buckets: u64,
    /// Number of entries in the entry heap.
    pub entries: u64,
    /// Entry size in bytes.
    pub entry_bytes: u64,
    /// Zipf exponent of entry popularity.
    pub zipf_exponent: f64,
    /// Probability that an operation is an insert/update (writes).
    pub insert_prob: f64,
    /// Operations between incremental-rehash scan bursts (0 disables).
    pub rehash_every: usize,
    /// Bucket pages scanned per rehash burst.
    pub rehash_scan_pages: u64,
    /// Pages in the relocation target region the rehash writes through
    /// (cold, write-once-per-lap — the LRU-hostile component).
    pub relocation_pages: u64,
    /// First page of the bucket array.
    pub bucket_base_page: u64,
}

impl Default for HashmapWorkload {
    fn default() -> Self {
        HashmapWorkload {
            buckets: 262_144,
            entries: 2_000_000,
            entry_bytes: 256,
            zipf_exponent: 1.28,
            insert_prob: 0.45,
            rehash_every: 60_000,
            rehash_scan_pages: 768,
            relocation_pages: 8_192,
            bucket_base_page: 0x20_0000,
        }
    }
}

impl HashmapWorkload {
    fn bucket_pages(&self) -> u64 {
        self.buckets.div_ceil(64)
    }

    fn entry_heap_base(&self) -> u64 {
        self.bucket_base_page + self.bucket_pages() + 4096
    }

    fn relocation_base(&self) -> u64 {
        let per_page = (crate::record::PAGE_SIZE / self.entry_bytes).max(1);
        self.entry_heap_base() + self.entries.div_ceil(per_page) + 65_536
    }

    /// Page and line of the bucket for `key` (multiplicative hash).
    fn bucket_loc(&self, key: u64) -> (u64, u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let b = h % self.buckets;
        (self.bucket_base_page + b / 64, b % 64)
    }

    /// Page of entry `key` (rank-ordered heap: hot entries are compact).
    fn entry_page(&self, key: u64) -> u64 {
        let per_page = (crate::record::PAGE_SIZE / self.entry_bytes).max(1);
        self.entry_heap_base() + key / per_page
    }
}

impl Workload for HashmapWorkload {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        let zipf = Zipf::new(self.entries, self.zipf_exponent)
            .expect("workload parameters form a valid Zipf distribution");
        let mut ops = 0usize;
        let mut rehash_cursor = 0u64;

        synth(n, StdRng::seed_from_u64(seed), |t, rng| {
            ops += 1;
            if self.rehash_every > 0 && ops.is_multiple_of(self.rehash_every) {
                // Incremental rehash: sequentially scan bucket pages and
                // relocate their entries into a cold target region — reads
                // of warm buckets plus write-once dirty pages that pollute
                // an LRU cache (and cost SSD write-backs on eviction). A
                // read and its relocation write never straddle the end of
                // the trace: with one record left the scan stops, and the
                // next operation takes that record.
                for i in 0..self.rehash_scan_pages {
                    if t.len() + 2 > n {
                        break;
                    }
                    let bucket_page =
                        self.bucket_base_page + (rehash_cursor + i) % self.bucket_pages();
                    t.push(TraceRecord::read(line_addr(bucket_page, i)));
                    let reloc_page =
                        self.relocation_base() + (rehash_cursor + i) % self.relocation_pages.max(1);
                    t.push(TraceRecord::write(line_addr(reloc_page, i)));
                }
                rehash_cursor = rehash_cursor.wrapping_add(self.rehash_scan_pages);
                return;
            }
            let key = zipf.sample(rng) - 1;
            let (bpage, bline) = self.bucket_loc(key);
            t.push(TraceRecord::read(line_addr(bpage, bline)));
            let epage = self.entry_page(key);
            if rng.gen::<f64>() < self.insert_prob {
                // Insert/update: write the entry, then update the bucket head.
                t.write(rng, epage);
                t.push(TraceRecord::write(line_addr(bpage, bline)));
            } else {
                t.read(rng, epage);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_heavy() {
        let t = HashmapWorkload::default().generate(50_000, 1);
        let wf = t.stats().write_fraction();
        assert!(wf > 0.25, "write fraction {wf} too low for hashmap");
    }

    #[test]
    fn buckets_and_entries_are_disjoint_regions() {
        let w = HashmapWorkload::default();
        assert!(w.entry_heap_base() > w.bucket_base_page + w.bucket_pages());
        let (bp, _) = w.bucket_loc(123);
        assert!(bp >= w.bucket_base_page && bp < w.bucket_base_page + w.bucket_pages());
        assert!(w.entry_page(0) >= w.entry_heap_base());
    }

    #[test]
    fn rehash_emits_sequential_scans_and_cold_writes() {
        let w = HashmapWorkload {
            rehash_every: 100,
            rehash_scan_pages: 32,
            ..Default::default()
        };
        let t = w.generate(5_000, 2);
        // Bucket-region *reads* must contain a run of >= 16 consecutive
        // pages (the scan), and the relocation region must receive writes.
        let bucket_reads: Vec<u64> = t
            .iter()
            .filter(|r| {
                let p = r.page().raw();
                !r.op().is_write()
                    && p >= w.bucket_base_page
                    && p < w.bucket_base_page + w.bucket_pages()
            })
            .map(|r| r.page().raw())
            .collect();
        let mut best_run = 0u64;
        let mut run = 0u64;
        for pair in bucket_reads.windows(2) {
            if pair[1] == pair[0] + 1 || pair[1] == pair[0] {
                run += 1;
                best_run = best_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(best_run >= 16, "no rehash scan found (best run {best_run})");
        let reloc_writes = t
            .iter()
            .filter(|r| r.op().is_write() && r.page().raw() >= w.relocation_base())
            .count();
        assert!(reloc_writes > 0, "rehash produced no relocation writes");
    }

    #[test]
    fn rehash_disabled_means_no_scans() {
        let w = HashmapWorkload {
            rehash_every: 0,
            ..Default::default()
        };
        let t = w.generate(3_000, 3);
        assert_eq!(t.len(), 3_000);
    }

    #[test]
    fn a_rehash_read_never_takes_the_last_record_without_its_write() {
        let w = HashmapWorkload {
            rehash_every: 100,
            rehash_scan_pages: 32,
            ..Default::default()
        };
        let long = w.generate(5_000, 6);
        let p = long
            .iter()
            .position(|r| r.op().is_write() && r.page().raw() >= w.relocation_base())
            .expect("the rehash relocates");
        let cut = w.generate(p, 6);
        assert_eq!(cut.len(), p);
        assert_eq!(cut.records()[..p - 1], long.records()[..p - 1]);
        // Record p − 1 of the long trace is the rehash read whose write is
        // record p. Cut at p the pair would straddle the end, so the next
        // operation takes the slot instead.
        assert!(!long.records()[p - 1].op().is_write());
        assert_ne!(cut.records()[p - 1], long.records()[p - 1]);
    }

    #[test]
    fn respects_request_budget_exactly() {
        for n in [1usize, 2, 3, 100, 1001] {
            let t = HashmapWorkload::default().generate(n, 4);
            assert_eq!(t.len(), n);
        }
    }
}
