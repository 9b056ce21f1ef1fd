//! Least-Recently-Used eviction — the paper's baseline policy.

use super::AccessCtx;

/// Classic LRU: each block remembers the sequence number of its last touch;
/// the victim is the block with the smallest one.
#[derive(Clone, Debug)]
pub struct LruPolicy {
    last_used: Vec<u64>,
    ways: usize,
}

impl LruPolicy {
    /// Creates an LRU policy for `sets × ways` blocks.
    ///
    /// # Panics
    ///
    /// Panics on a zero-way geometry — [`crate::CacheConfig::new`] rejects
    /// those before a policy is ever sized, so `choose_victim` always has a
    /// candidate.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways >= 1, "cache geometry must have at least one way");
        LruPolicy {
            last_used: vec![0; sets * ways],
            ways,
        }
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// A hit or an insert at `(set, way)`: the block is now the most recent.
    pub(crate) fn touch(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        let s = self.slot(set, way);
        self.last_used[s] = ctx.seq + 1; // +1 so seq 0 differs from "never"
    }

    pub(crate) fn choose_victim(&self, set: usize, ways: usize) -> usize {
        (0..ways)
            .min_by_key(|&w| self.last_used[self.slot(set, w)])
            .expect("set has at least one way")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use icgmm_trace::{Op, PageIndex};

    fn ctx(seq: u64) -> AccessCtx {
        AccessCtx {
            page: PageIndex::new(0),
            op: Op::Read,
            seq,
            score: None,
        }
    }

    #[test]
    fn victim_is_least_recent() {
        let mut p = Policy::lru(1, 4);
        for (way, seq) in [(0, 10), (1, 5), (2, 20), (3, 7)] {
            p.on_insert(0, way, &ctx(seq));
        }
        assert_eq!(p.choose_victim(0, 4, &ctx(30), |_| None), 1);
        // Touching way 1 moves the victim to way 3.
        p.on_hit(0, 1, &ctx(31));
        assert_eq!(p.choose_victim(0, 4, &ctx(32), |_| None), 3);
    }

    #[test]
    fn sets_are_independent() {
        let mut p = Policy::lru(2, 2);
        p.on_insert(0, 0, &ctx(100));
        p.on_insert(0, 1, &ctx(200));
        p.on_insert(1, 0, &ctx(1));
        p.on_insert(1, 1, &ctx(2));
        assert_eq!(p.choose_victim(0, 2, &ctx(300), |_| None), 0);
        assert_eq!(p.choose_victim(1, 2, &ctx(300), |_| None), 0);
        p.on_hit(1, 0, &ctx(301));
        assert_eq!(p.choose_victim(1, 2, &ctx(302), |_| None), 1);
    }

    #[test]
    fn name_is_lru() {
        assert_eq!(Policy::lru(1, 1).eviction_name(), "lru");
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_way_geometry_is_rejected_at_construction() {
        let _ = LruPolicy::new(8, 0);
    }
}
