//! memtier_benchmark (redis/memcached) key–value workload model.
//!
//! GET/SET traffic against a value heap laid out in insertion order, with
//! Zipf-skewed key popularity. Because popular keys are inserted early and
//! stay popular, the head of the key space is spatially compact — the
//! paper's Fig. 2 Gaussian bumps. The hot key range drifts slowly between
//! phases (working-set rotation), giving the GMM a temporal signal.

use super::{synth, Workload};
use crate::record::PAGE_SIZE;
use crate::trace::Trace;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the memtier workload model (defaults ≈ the paper's
/// memtier operating point: ~2.7 % LRU miss, ~10 % writes).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemtierWorkload {
    /// Number of distinct keys.
    pub keys: u64,
    /// Value size in bytes (values are contiguous in the heap).
    pub value_bytes: u64,
    /// Zipf exponent of key popularity.
    pub zipf_exponent: f64,
    /// Probability that an operation is a GET (the rest are SETs).
    pub get_prob: f64,
    /// First page of the value heap.
    pub heap_base_page: u64,
    /// Hot dictionary/metadata pages consulted by every operation.
    pub meta_pages: u64,
    /// Probability that an operation also touches a metadata page.
    pub meta_prob: f64,
    /// Requests per popularity-rotation phase.
    pub phase_len: usize,
    /// Key-rank offset applied per phase (0 disables rotation).
    pub rotate_keys: u64,
    /// Probability of an active-expiration probe: a read of a uniformly
    /// random key (redis expiration-cycle sampling — cold, pollutes LRU).
    pub expire_prob: f64,
}

impl Default for MemtierWorkload {
    fn default() -> Self {
        MemtierWorkload {
            keys: 2_000_000,
            value_bytes: 1024,
            zipf_exponent: 1.42,
            get_prob: 0.90,
            heap_base_page: 0x40_0000,
            meta_pages: 192,
            meta_prob: 0.15,
            phase_len: 300_000,
            rotate_keys: 8_000,
            expire_prob: 0.015,
        }
    }
}

impl MemtierWorkload {
    /// Page of the value belonging to popularity rank `rank` in `phase`.
    fn value_page(&self, rank: u64, phase: usize) -> u64 {
        let values_per_page = (PAGE_SIZE / self.value_bytes).max(1);
        let key = (rank - 1 + phase as u64 * self.rotate_keys) % self.keys;
        self.heap_base_page + key / values_per_page
    }
}

impl Workload for MemtierWorkload {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        let zipf = Zipf::new(self.keys, self.zipf_exponent)
            .expect("workload parameters form a valid Zipf distribution");
        let meta_base = self.heap_base_page.saturating_sub(self.meta_pages + 16);

        synth(n, StdRng::seed_from_u64(seed), |t, rng| {
            let phase = t.len() / self.phase_len.max(1);
            if self.meta_pages > 0 && rng.gen::<f64>() < self.meta_prob {
                // Dictionary probe: hot, read-only.
                let mp = meta_base + rng.gen_range(0..self.meta_pages);
                t.read(rng, mp);
            }
            if rng.gen::<f64>() < self.expire_prob {
                // Expiration-cycle probe: uniformly random key, usually
                // cold — a compulsory miss either way, but only an
                // admission-less cache lets it evict something useful.
                let key = rng.gen_range(0..self.keys);
                let values_per_page = (PAGE_SIZE / self.value_bytes).max(1);
                t.read(rng, self.heap_base_page + key / values_per_page);
            }
            let rank = zipf.sample(rng);
            let page = self.value_page(rank, phase);
            if rng.gen::<f64>() < self.get_prob {
                t.read(rng, page);
            } else {
                // SET: write the value (two lines: header + payload start).
                t.write(rng, page);
                t.write(rng, page);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn mostly_reads() {
        let t = MemtierWorkload::default().generate(30_000, 1);
        let wf = t.stats().write_fraction();
        // 10% SETs × 2 writes each + meta reads ⇒ ~17% writes.
        assert!(wf > 0.05 && wf < 0.30, "write fraction {wf}");
    }

    #[test]
    fn popularity_is_skewed() {
        let w = MemtierWorkload {
            meta_prob: 0.0,
            rotate_keys: 0,
            ..Default::default()
        };
        let t = w.generate(60_000, 2);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for r in &t {
            *counts.entry(r.page().raw()).or_insert(0) += 1;
        }
        let mut by_count: Vec<u64> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = by_count.iter().sum();
        let top100: u64 = by_count.iter().take(100).sum();
        assert!(
            top100 as f64 / total as f64 > 0.35,
            "top-100 pages carry {}",
            top100 as f64 / total as f64
        );
    }

    #[test]
    fn head_pages_are_contiguous() {
        // The most popular pages should sit at the start of the heap.
        let w = MemtierWorkload {
            meta_prob: 0.0,
            rotate_keys: 0,
            ..Default::default()
        };
        let t = w.generate(40_000, 3);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for r in &t {
            *counts.entry(r.page().raw()).or_insert(0) += 1;
        }
        let hottest = counts
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(&p, _)| p)
            .expect("non-empty");
        assert!(
            hottest < w.heap_base_page + 64,
            "hottest page {hottest:#x} not near heap base"
        );
    }

    #[test]
    fn rotation_moves_the_hot_set() {
        let w = MemtierWorkload {
            meta_prob: 0.0,
            phase_len: 10_000,
            rotate_keys: 100_000,
            ..Default::default()
        };
        let t = w.generate(20_000, 4);
        let hottest_in = |lo: usize, hi: usize| {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for r in &t.records()[lo..hi] {
                *counts.entry(r.page().raw()).or_insert(0) += 1;
            }
            counts
                .iter()
                .max_by_key(|(_, &c)| c)
                .map(|(&p, _)| p)
                .expect("non-empty")
        };
        assert_ne!(hottest_in(0, 10_000), hottest_in(10_000, 20_000));
    }

    #[test]
    fn value_page_wraps_at_key_space() {
        let w = MemtierWorkload::default();
        let p = w.value_page(w.keys, 0); // last rank maps inside the heap
        let values_per_page = PAGE_SIZE / w.value_bytes;
        assert!(p < w.heap_base_page + w.keys / values_per_page + 1);
    }
}
