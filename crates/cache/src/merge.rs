//! Benchmark façade — `icgmm_bench` times this k-way merge
//! (`cache.merge.ns_per_outcome`) and checks that it "re-accounts the LRU
//! run exactly"; nothing in the workspace calls it, and the benchmark PR
//! deletes it (ROADMAP item 2a).
//!
//! It is the merge the sharded engines ran before accounting became a sum:
//! per-shard outcome streams, each stamped with its global trace position,
//! pushed in ascending order through the replay loop's own accounting. A
//! report never depended on that order beyond the running `f64` sum it
//! used to keep — the counters are integers, and `total_us` is now derived
//! from them ([`crate::LatencyModel::total_us`]) — so today the shards'
//! [`crate::CacheStats`] are simply added. What the façade still does as
//! before: it demands contiguous `seq` values from zero, so a lost,
//! duplicated or reordered outcome is an immediate panic rather than a
//! skewed report (the live paths check the same thing where records
//! arrive, and check conservation of the access count at join).

use crate::cache::AccessOutcome;
use crate::fault::FaultPlan;
use crate::latency::LatencyModel;
use crate::sim::{Accounting, SimReport};
use icgmm_trace::TraceRecord;

/// One replayed outcome stamped with its global trace position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeqOutcome {
    /// Absolute request index in `warmup ⧺ measured` order.
    pub seq: u64,
    /// The replayed request.
    pub record: TraceRecord,
    /// The outcome its owning shard produced.
    pub outcome: AccessOutcome,
}

/// A source of [`SeqOutcome`]s in strictly increasing `seq` order —
/// one per shard; `None` means the stream is exhausted.
pub trait OutcomeStream {
    /// The next outcome, or `None` once the stream is done.
    fn next_outcome(&mut self) -> Option<SeqOutcome>;
}

/// Incremental global-order re-accounting. Feed it every outcome of a
/// run, in global `seq` order, then [`StreamingMerge::finish`] it into
/// the same [`SimReport`] the single-threaded replay would produce.
pub struct StreamingMerge<'a> {
    acct: Accounting<'a>,
    next_seq: u64,
}

impl<'a> StreamingMerge<'a> {
    /// Creates a merge for a run with `warmup_len` warm-up requests
    /// (accounted for side effects but excluded from statistics, exactly
    /// like the streaming loop).
    pub fn new(warmup_len: usize, latency: &'a LatencyModel, series_window: Option<u64>) -> Self {
        let plan = FaultPlan::empty();
        StreamingMerge {
            acct: Accounting::new(warmup_len as u64, series_window, &plan, latency),
            next_seq: 0,
        }
    }

    /// Accounts the next outcome.
    ///
    /// # Panics
    ///
    /// Panics when `out.seq` is not exactly the next expected sequence
    /// number — a gap means a lost outcome, a repeat means a duplicated
    /// one, and either would silently corrupt the merged report.
    pub fn push(&mut self, out: &SeqOutcome) {
        assert_eq!(
            out.seq, self.next_seq,
            "outcome stream lost global order: got seq {}, expected {}",
            out.seq, self.next_seq
        );
        self.next_seq += 1;
        self.acct
            .record(out.seq, out.seq, &out.record, &out.outcome);
    }

    /// How many outcomes have been merged so far (equals the next
    /// expected `seq`).
    pub fn merged(&self) -> u64 {
        self.next_seq
    }

    /// Finalizes into a [`SimReport`] (policy names travel by string —
    /// the policy instances themselves live in the shard workers).
    /// `measured_len` is what the pushed outcomes past the warm-up must
    /// number; the report averages over what it counted.
    pub fn finish(self, measured_len: usize, eviction: &str, admission: &str) -> SimReport {
        debug_assert_eq!(self.acct.stats.accesses(), measured_len as u64);
        self.acct.finish(eviction, admission)
    }
}

/// Drives a k-way merge to completion: repeatedly pulls the stream whose
/// pending outcome carries the smallest `seq` and pushes it through
/// `merge`, holding one pending outcome per stream. Returns the total
/// number of outcomes merged.
///
/// Since [`StreamingMerge::push`] demands contiguous sequence numbers,
/// the per-stream ascending-`seq` contract plus this smallest-head policy
/// reconstructs the global order exactly — or panics at the first hole.
pub fn merge_streams(
    streams: &mut [&mut dyn OutcomeStream],
    merge: &mut StreamingMerge<'_>,
) -> u64 {
    let mut heads: Vec<Option<SeqOutcome>> = streams.iter_mut().map(|s| s.next_outcome()).collect();
    let start = merge.merged();
    loop {
        let mut best: Option<usize> = None;
        for (i, h) in heads.iter().enumerate() {
            if let Some(h) = h {
                if best.is_none_or(|b: usize| h.seq < heads[b].as_ref().unwrap().seq) {
                    best = Some(i);
                }
            }
        }
        let Some(i) = best else {
            return merge.merged() - start;
        };
        let out = heads[i].take().unwrap();
        merge.push(&out);
        heads[i] = streams[i].next_outcome();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;

    struct VecStream(std::vec::IntoIter<SeqOutcome>);

    impl OutcomeStream for VecStream {
        fn next_outcome(&mut self) -> Option<SeqOutcome> {
            self.0.next()
        }
    }

    fn outcome(seq: u64) -> SeqOutcome {
        SeqOutcome {
            seq,
            record: TraceRecord::read(seq << 12),
            outcome: AccessOutcome::MissBypassed,
        }
    }

    #[test]
    fn two_interleaved_streams_merge_in_global_order() {
        let lat = LatencyModel::paper_tlc();
        let mut merge = StreamingMerge::new(0, &lat, None);
        let mut a = VecStream(vec![outcome(0), outcome(2), outcome(3)].into_iter());
        let mut b = VecStream(vec![outcome(1), outcome(4)].into_iter());
        let merged = merge_streams(&mut [&mut a, &mut b], &mut merge);
        assert_eq!(merged, 5);
        let report = merge.finish(5, "lru", "always");
        assert_eq!(report.stats.accesses(), 5);
    }

    #[test]
    #[should_panic(expected = "lost global order")]
    fn a_hole_in_the_sequence_panics() {
        let lat = LatencyModel::paper_tlc();
        let mut merge = StreamingMerge::new(0, &lat, None);
        let mut a = VecStream(vec![outcome(0), outcome(2)].into_iter());
        merge_streams(&mut [&mut a], &mut merge);
    }

    #[test]
    #[should_panic(expected = "lost global order")]
    fn a_duplicated_outcome_panics() {
        let lat = LatencyModel::paper_tlc();
        let mut merge = StreamingMerge::new(0, &lat, None);
        let mut a = VecStream(vec![outcome(0), outcome(0)].into_iter());
        merge_streams(&mut [&mut a], &mut merge);
    }
}
