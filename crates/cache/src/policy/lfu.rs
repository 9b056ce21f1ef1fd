//! Least-Frequently-Used eviction (frequency baseline).

use super::{AccessCtx, EvictionPolicy};

/// LFU with per-block hit counters; counters reset on insertion, and ties
/// break toward the least-recently touched block.
#[derive(Clone, Debug)]
pub struct LfuPolicy {
    count: Vec<u64>,
    last: Vec<u64>,
    ways: usize,
}

impl LfuPolicy {
    /// Creates an LFU policy for `sets × ways` blocks.
    ///
    /// # Panics
    ///
    /// Panics on a zero-way geometry — [`crate::CacheConfig::new`] rejects
    /// those before a policy is ever sized, so `choose_victim` always has a
    /// candidate.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways >= 1, "cache geometry must have at least one way");
        LfuPolicy {
            count: vec![0; sets * ways],
            last: vec![0; sets * ways],
            ways,
        }
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }
}

impl EvictionPolicy for LfuPolicy {
    fn name(&self) -> &str {
        "lfu"
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        let s = self.slot(set, way);
        self.count[s] = self.count[s].saturating_add(1);
        self.last[s] = ctx.seq + 1;
    }

    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        let s = self.slot(set, way);
        self.count[s] = 1;
        self.last[s] = ctx.seq + 1;
    }

    fn choose_victim(&mut self, set: usize, ways: usize, _ctx: &AccessCtx) -> usize {
        (0..ways)
            .min_by_key(|&w| {
                let s = self.slot(set, w);
                (self.count[s], self.last[s])
            })
            .expect("set has at least one way")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn victim_is_least_frequent() {
        let mut p = LfuPolicy::new(1, 3);
        for w in 0..3 {
            p.on_insert(0, w, &ctx(w as u64));
        }
        p.on_hit(0, 0, &ctx(10));
        p.on_hit(0, 0, &ctx(11));
        p.on_hit(0, 2, &ctx(12));
        assert_eq!(p.choose_victim(0, 3, &ctx(13)), 1);
    }

    #[test]
    fn ties_break_to_least_recent() {
        let mut p = LfuPolicy::new(1, 2);
        p.on_insert(0, 0, &ctx(5));
        p.on_insert(0, 1, &ctx(9));
        // Equal counts (both 1): way 0 is older.
        assert_eq!(p.choose_victim(0, 2, &ctx(10)), 0);
    }

    #[test]
    fn insert_resets_frequency() {
        let mut p = LfuPolicy::new(1, 2);
        p.on_insert(0, 0, &ctx(0));
        for s in 1..5 {
            p.on_hit(0, 0, &ctx(s));
        }
        p.on_insert(0, 1, &ctx(6));
        // Way 0 is frequent; replacing its contents must reset the counter.
        p.on_insert(0, 0, &ctx(7));
        p.on_hit(0, 1, &ctx(8));
        assert_eq!(p.choose_victim(0, 2, &ctx(9)), 0);
    }
}
