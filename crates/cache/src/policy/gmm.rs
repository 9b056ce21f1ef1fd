//! GMM-score eviction — the paper's smart eviction (§3.2).
//!
//! Each cached block stores the GMM score computed when the block was
//! inserted (the hardware keeps it in the cache-tag/score table buffer of
//! Fig. 5); on a full set, the victim is the block with the lowest stored
//! score. Hits do **not** recompute the score (they bypass the policy
//! engine); they only refresh the block's recency, which breaks ties.
//!
//! A miss that arrives without a score ([`AccessCtx::score`] is `None`: no
//! policy engine, or one whose score is not to be trusted) has nothing to
//! rank against the stored scores, so its victim is the least recently
//! used block — the recency stamps are the ones the tie-break already
//! keeps — and the block it inserts is *unscored*. The next miss with a
//! score that must evict from that set first re-scores the set's unscored
//! blocks at its own trace position, through the same score source
//! ([`crate::SetAssocCache::access_scored`]); a block whose re-score is
//! not to be trusted either stores score 0, first out. So the table holds
//! a score for every block a scored eviction ranks, as the paper's engine
//! does. A policy that never sees a score is LRU.

use super::AccessCtx;

/// Lexicographic strict-`<` scan over `(stored score, recency)` keys: the
/// way with the lowest score wins, equal scores fall back to the least
/// recent. The scores are finite (a non-finite score never reaches a
/// policy — [`crate::SetAssocCache::access_scored`] — and a scored
/// eviction re-scores the set's unscored blocks first).
fn min_by_score_then_recency(keys: impl Iterator<Item = (f64, u64)>) -> usize {
    let mut victim = 0;
    let mut best = (f64::INFINITY, u64::MAX);
    for (w, key) in keys.enumerate() {
        if key.0 < best.0 || (key.0 == best.0 && key.1 < best.1) {
            best = key;
            victim = w;
        }
    }
    victim
}

/// Stored-score eviction with LRU tie-breaking.
#[derive(Clone, Debug)]
pub struct GmmScorePolicy {
    /// The stored scores; `UNSCORED` (NaN) on a block inserted without a
    /// score and not re-scored since.
    score: Vec<f64>,
    last: Vec<u64>,
    ways: usize,
    /// How many blocks are unscored: while it is 0 — always, on a replay
    /// whose every score is trusted — a scored eviction pays one branch
    /// for the rule.
    unscored: usize,
}

/// The stored score of an unscored block.
const UNSCORED: f64 = f64::NAN;

impl GmmScorePolicy {
    /// Creates the policy for `sets × ways` blocks.
    pub fn new(sets: usize, ways: usize) -> Self {
        GmmScorePolicy {
            score: vec![0.0; sets * ways],
            last: vec![0; sets * ways],
            ways,
            unscored: 0,
        }
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Stored score of a block (tests and diagnostics); `None` while the
    /// block is unscored.
    pub fn stored_score(&self, set: usize, way: usize) -> Option<f64> {
        Some(self.score[self.slot(set, way)]).filter(|s| !s.is_nan())
    }

    /// A hit refreshes the block's recency; its stored score stays.
    pub(crate) fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        let s = self.slot(set, way);
        self.last[s] = ctx.seq + 1;
    }

    pub(crate) fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        let s = self.slot(set, way);
        // The block this one replaces may have been unscored.
        self.unscored -= usize::from(self.score[s].is_nan());
        self.unscored += usize::from(ctx.score.is_none());
        self.score[s] = ctx.score.unwrap_or(UNSCORED);
        self.last[s] = ctx.seq + 1;
    }

    /// The victim in a full `set`. A scored miss first re-scores the set's
    /// unscored blocks: `rescore(way)` is the trusted score of the block at
    /// `way`, if there is one.
    pub(crate) fn choose_victim(
        &mut self,
        set: usize,
        ways: usize,
        ctx: &AccessCtx,
        rescore: impl FnMut(usize) -> Option<f64>,
    ) -> usize {
        // Victim selection runs on every conflict miss: scan the set's
        // score/recency slots as two contiguous strips rather than
        // re-deriving the slot index per way.
        let base = set * self.ways;
        if ctx.score.is_none() {
            // An unscored miss ranks by recency alone.
            let lasts = &self.last[base..base + ways];
            return min_by_score_then_recency(lasts.iter().map(|l| (0.0, *l)));
        }
        if self.unscored > 0 {
            self.rescore(base, ways, rescore);
        }
        let (scores, lasts) = (
            &self.score[base..base + ways],
            &self.last[base..base + ways],
        );
        min_by_score_then_recency(scores.iter().zip(lasts).map(|(s, l)| (*s, *l)))
    }

    /// Stores a score for every unscored block of the set whose slots
    /// start at `base`: its re-score, or 0 if that is not to be trusted.
    #[cold]
    fn rescore(&mut self, base: usize, ways: usize, mut rescore: impl FnMut(usize) -> Option<f64>) {
        for (way, stored) in self.score[base..base + ways].iter_mut().enumerate() {
            if stored.is_nan() {
                *stored = rescore(way).unwrap_or(0.0);
                self.unscored -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icgmm_trace::{Op, PageIndex};

    fn ctx(seq: u64, score: Option<f64>) -> AccessCtx {
        AccessCtx {
            page: PageIndex::new(0),
            op: Op::Read,
            seq,
            score,
        }
    }

    #[test]
    fn lowest_score_is_evicted() {
        let mut p = GmmScorePolicy::new(1, 3);
        p.on_insert(0, 0, &ctx(0, Some(0.9)));
        p.on_insert(0, 1, &ctx(1, Some(0.2)));
        p.on_insert(0, 2, &ctx(2, Some(0.5)));
        assert_eq!(p.choose_victim(0, 3, &ctx(3, Some(0.7)), |_| None), 1);
        assert_eq!(p.stored_score(0, 0), Some(0.9));
    }

    #[test]
    fn equal_scores_fall_back_to_lru() {
        let mut p = GmmScorePolicy::new(1, 2);
        p.on_insert(0, 0, &ctx(10, Some(0.0)));
        p.on_insert(0, 1, &ctx(20, Some(0.0)));
        assert_eq!(p.choose_victim(0, 2, &ctx(30, None), |_| None), 0);
        p.on_hit(0, 0, &ctx(31, None));
        assert_eq!(p.choose_victim(0, 2, &ctx(32, None), |_| None), 1);
    }

    #[test]
    fn hits_do_not_change_score_by_default() {
        let mut p = GmmScorePolicy::new(1, 1);
        p.on_insert(0, 0, &ctx(0, Some(0.4)));
        p.on_hit(0, 0, &ctx(1, None));
        assert_eq!(p.stored_score(0, 0), Some(0.4));
    }

    #[test]
    fn unscored_miss_evicts_by_recency_whatever_is_stored() {
        let mut p = GmmScorePolicy::new(1, 3);
        p.on_insert(0, 0, &ctx(0, Some(0.2)));
        p.on_insert(0, 1, &ctx(1, Some(0.9)));
        p.on_insert(0, 2, &ctx(2, Some(0.5)));
        p.on_hit(0, 0, &ctx(3, None));
        // Scored, the lowest stored score goes; unscored, the least recent.
        assert_eq!(p.choose_victim(0, 3, &ctx(4, Some(0.7)), |_| None), 0);
        assert_eq!(p.choose_victim(0, 3, &ctx(4, None), |_| None), 1);
    }

    #[test]
    fn missing_score_means_first_victim() {
        let mut p = GmmScorePolicy::new(1, 2);
        p.on_insert(0, 0, &ctx(0, None));
        p.on_insert(0, 1, &ctx(1, Some(0.1)));
        assert_eq!(p.choose_victim(0, 2, &ctx(2, None), |_| None), 0);
    }

    #[test]
    fn a_scored_miss_rescores_the_unscored_blocks_first() {
        let mut p = GmmScorePolicy::new(1, 3);
        p.on_insert(0, 0, &ctx(0, None));
        p.on_insert(0, 1, &ctx(1, Some(0.1)));
        p.on_insert(0, 2, &ctx(2, None));
        assert_eq!(p.stored_score(0, 0), None);
        // An unscored miss re-scores nothing.
        let untrusted = p.choose_victim(0, 3, &ctx(3, None), |_| panic!("re-scored"));
        assert_eq!(untrusted, 0);
        // A scored one asks for ways 0 and 2; way 2's re-score is not to
        // be trusted, so it stores 0 and goes first.
        let mut asked = Vec::new();
        let victim = p.choose_victim(0, 3, &ctx(3, Some(0.5)), |way| {
            asked.push(way);
            (way == 0).then_some(0.9)
        });
        assert_eq!((asked, victim), (vec![0, 2], 2));
        assert_eq!(p.stored_score(0, 0), Some(0.9));
        assert_eq!(p.stored_score(0, 2), Some(0.0));
        // Nothing is left to re-score.
        p.choose_victim(0, 3, &ctx(4, Some(0.5)), |_| panic!("re-scored twice"));
    }
}
