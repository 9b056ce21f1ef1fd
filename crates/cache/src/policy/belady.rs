//! Belady's MIN — the clairvoyant eviction oracle.
//!
//! Not part of the paper's evaluation, but invaluable for situating results:
//! it bounds how much *any* eviction policy (including the GMM) could gain.
//! The oracle is built from the full trace ahead of time and evicts the
//! block whose next use lies farthest in the future.

use super::{AccessCtx, EvictionPolicy};
use icgmm_trace::TraceRecord;
use std::collections::{HashMap, VecDeque};

/// Offline optimal eviction (Belady's MIN).
#[derive(Clone, Debug, PartialEq)]
pub struct BeladyPolicy {
    /// Remaining occurrence positions per page, in increasing order.
    occurrences: HashMap<u64, VecDeque<u64>>,
    /// Next-use position stored per block slot (`u64::MAX` = never again).
    next_use: Vec<u64>,
    ways: usize,
}

impl BeladyPolicy {
    /// Builds the oracle from the exact record sequence that will be
    /// simulated (positions are 0-based request sequence numbers).
    ///
    /// # Panics
    ///
    /// Panics on a zero-way geometry — [`crate::CacheConfig::new`] rejects
    /// those before a policy is ever sized, so `choose_victim` always has a
    /// candidate.
    pub fn from_records(records: &[TraceRecord], sets: usize, ways: usize) -> Self {
        BeladyPolicy::from_pages(records.iter().map(|r| r.page().raw()), sets, ways)
    }

    /// Builds the oracle from a page sequence without materializing
    /// records — the zero-copy entry for sharded replay, where the shard
    /// subtrace exists only as a walk over the trace
    /// (`ctx.records().map(|r| r.page().raw())`, see
    /// [`crate::ShardCtx::records`]).
    ///
    /// # Panics
    ///
    /// Panics on a zero-way geometry (see
    /// [`BeladyPolicy::from_records`]).
    pub fn from_pages<I>(pages: I, sets: usize, ways: usize) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        assert!(ways >= 1, "cache geometry must have at least one way");
        let mut occurrences: HashMap<u64, VecDeque<u64>> = HashMap::new();
        for (i, page) in pages.into_iter().enumerate() {
            occurrences.entry(page).or_default().push_back(i as u64);
        }
        BeladyPolicy {
            occurrences,
            next_use: vec![u64::MAX; sets * ways],
            ways,
        }
    }

    /// Next use of `page` strictly after `seq`.
    fn next_use_after(&mut self, page: u64, seq: u64) -> u64 {
        let Some(q) = self.occurrences.get_mut(&page) else {
            return u64::MAX;
        };
        while let Some(&front) = q.front() {
            if front <= seq {
                q.pop_front();
            } else {
                return front;
            }
        }
        u64::MAX
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }
}

impl EvictionPolicy for BeladyPolicy {
    fn name(&self) -> &str {
        "belady"
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        let nu = self.next_use_after(ctx.page.raw(), ctx.seq);
        let s = self.slot(set, way);
        self.next_use[s] = nu;
    }

    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        let nu = self.next_use_after(ctx.page.raw(), ctx.seq);
        let s = self.slot(set, way);
        self.next_use[s] = nu;
    }

    fn choose_victim(&mut self, set: usize, ways: usize, _ctx: &AccessCtx) -> usize {
        (0..ways)
            .max_by_key(|&w| self.next_use[self.slot(set, w)])
            .expect("set has at least one way")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icgmm_trace::{Op, PageIndex};

    fn ctx(page: u64, seq: u64) -> AccessCtx {
        AccessCtx {
            page: PageIndex::new(page),
            op: Op::Read,
            seq,
            score: None,
        }
    }

    #[test]
    fn evicts_farthest_next_use() {
        // Trace: A B C A B D ... — at the miss on D (seq 5), C (never again)
        // must be the victim.
        let records: Vec<TraceRecord> = [0u64, 1, 2, 0, 1, 3]
            .iter()
            .map(|&p| TraceRecord::read(p << 12))
            .collect();
        let mut b = BeladyPolicy::from_records(&records, 1, 3);
        b.on_insert(0, 0, &ctx(0, 0)); // A next at 3
        b.on_insert(0, 1, &ctx(1, 1)); // B next at 4
        b.on_insert(0, 2, &ctx(2, 2)); // C never
        assert_eq!(b.choose_victim(0, 3, &ctx(3, 5)), 2);
    }

    #[test]
    fn hit_updates_next_use() {
        // A A B: after the hit at seq 1, A's next use is MAX.
        let records: Vec<TraceRecord> = [0u64, 0, 1]
            .iter()
            .map(|&p| TraceRecord::read(p << 12))
            .collect();
        let mut b = BeladyPolicy::from_records(&records, 1, 2);
        b.on_insert(0, 0, &ctx(0, 0));
        assert_eq!(b.next_use[0], 1);
        b.on_hit(0, 0, &ctx(0, 1));
        assert_eq!(b.next_use[0], u64::MAX);
    }

    #[test]
    fn unknown_page_never_reused() {
        let mut b = BeladyPolicy::from_records(&[], 1, 1);
        assert_eq!(b.next_use_after(99, 0), u64::MAX);
    }

    #[test]
    fn from_pages_matches_from_records() {
        let records: Vec<TraceRecord> = [0u64, 1, 2, 0, 1, 3, 2, 2]
            .iter()
            .map(|&p| TraceRecord::read(p << 12))
            .collect();
        let a = BeladyPolicy::from_records(&records, 2, 2);
        let b = BeladyPolicy::from_pages(records.iter().map(|r| r.page().raw()), 2, 2);
        assert_eq!(a, b);
    }
}
