//! First-In-First-Out eviction (insertion order, ignores hits).

use super::{AccessCtx, EvictionPolicy};

/// FIFO: the victim is the block inserted longest ago.
#[derive(Clone, Debug)]
pub struct FifoPolicy {
    inserted: Vec<u64>,
    ways: usize,
}

impl FifoPolicy {
    /// Creates a FIFO policy for `sets × ways` blocks.
    ///
    /// # Panics
    ///
    /// Panics on a zero-way geometry — [`crate::CacheConfig::new`] rejects
    /// those before a policy is ever sized, so `choose_victim` always has a
    /// candidate.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways >= 1, "cache geometry must have at least one way");
        FifoPolicy {
            inserted: vec![0; sets * ways],
            ways,
        }
    }
}

impl EvictionPolicy for FifoPolicy {
    fn name(&self) -> &str {
        "fifo"
    }

    fn on_hit(&mut self, _set: usize, _way: usize, _ctx: &AccessCtx) {
        // FIFO ignores reuse.
    }

    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        self.inserted[set * self.ways + way] = ctx.seq + 1;
    }

    fn choose_victim(&mut self, set: usize, ways: usize, _ctx: &AccessCtx) -> usize {
        (0..ways)
            .min_by_key(|&w| self.inserted[set * self.ways + w])
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
    fn hits_do_not_save_a_block() {
        let mut p = FifoPolicy::new(1, 2);
        p.on_insert(0, 0, &ctx(1));
        p.on_insert(0, 1, &ctx(2));
        // Hit on way 0 should NOT update its position.
        p.on_hit(0, 0, &ctx(50));
        assert_eq!(p.choose_victim(0, 2, &ctx(51)), 0);
    }

    #[test]
    fn insertion_order_decides() {
        let mut p = FifoPolicy::new(1, 3);
        p.on_insert(0, 2, &ctx(5));
        p.on_insert(0, 0, &ctx(9));
        p.on_insert(0, 1, &ctx(7));
        assert_eq!(p.choose_victim(0, 3, &ctx(10)), 2);
    }
}
