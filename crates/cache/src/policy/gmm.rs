//! GMM-score eviction — the paper's smart eviction (§3.2).
//!
//! Each cached block stores the GMM score computed when the block was
//! inserted (the hardware keeps it in the cache-tag/score table buffer of
//! Fig. 5); on a full set, the victim is the block with the lowest stored
//! score. Hits do **not** recompute the score (they bypass the policy
//! engine), but an optional multiplicative `hit_bonus` can nudge stored
//! scores upward on reuse for ablation studies (default 0 = paper-faithful).
//!
//! A miss that arrives without a score ([`AccessCtx::score`] is `None`: no
//! policy engine, or one whose score is not to be trusted) has nothing to
//! rank against the stored scores, so its victim is the least recently
//! used block — the recency stamps are the ones the tie-break already
//! keeps — and the block it inserts stores score 0, first out once scores
//! return. A policy that never sees a score is LRU.

use super::{AccessCtx, EvictionPolicy};

/// Lexicographic strict-`<` scan over `(stored score, recency)` keys: the
/// way with the lowest score wins, equal scores fall back to the least
/// recent. Stored scores are finite (a non-finite score never reaches a
/// policy — [`crate::SetAssocCache::access_scored`]).
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
    score: Vec<f64>,
    last: Vec<u64>,
    ways: usize,
    hit_bonus: f64,
}

impl GmmScorePolicy {
    /// Creates the policy for `sets × ways` blocks (paper behaviour:
    /// no hit bonus).
    pub fn new(sets: usize, ways: usize) -> Self {
        GmmScorePolicy {
            score: vec![0.0; sets * ways],
            last: vec![0; sets * ways],
            ways,
            hit_bonus: 0.0,
        }
    }

    /// Creates the policy with a multiplicative hit bonus: on every hit the
    /// stored score becomes `score × (1 + bonus)`. Used by the ablation
    /// benches; `bonus = 0` reproduces the paper.
    pub fn with_hit_bonus(sets: usize, ways: usize, bonus: f64) -> Self {
        GmmScorePolicy {
            hit_bonus: bonus,
            ..GmmScorePolicy::new(sets, ways)
        }
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Stored score of a block (tests and diagnostics).
    pub fn stored_score(&self, set: usize, way: usize) -> f64 {
        self.score[self.slot(set, way)]
    }
}

impl EvictionPolicy for GmmScorePolicy {
    fn name(&self) -> &str {
        "gmm-score"
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        let s = self.slot(set, way);
        self.last[s] = ctx.seq + 1;
        if self.hit_bonus > 0.0 {
            self.score[s] *= 1.0 + self.hit_bonus;
        }
    }

    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        let s = self.slot(set, way);
        // A block inserted without a score (e.g. policy engine disabled for
        // a stretch) gets score 0 and is first in line for eviction.
        self.score[s] = ctx.score.unwrap_or(0.0);
        self.last[s] = ctx.seq + 1;
    }

    fn choose_victim(&mut self, set: usize, ways: usize, ctx: &AccessCtx) -> usize {
        // Victim selection runs on every conflict miss: scan the set's
        // score/recency slots as two contiguous strips rather than
        // re-deriving the slot index per way.
        let base = set * self.ways;
        let scores = &self.score[base..base + ways];
        let lasts = &self.last[base..base + ways];
        if ctx.score.is_none() {
            // An unscored miss ranks by recency alone.
            return min_by_score_then_recency(lasts.iter().map(|l| (0.0, *l)));
        }
        min_by_score_then_recency(scores.iter().zip(lasts).map(|(s, l)| (*s, *l)))
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
        assert_eq!(p.choose_victim(0, 3, &ctx(3, Some(0.7))), 1);
        assert_eq!(p.stored_score(0, 0), 0.9);
    }

    #[test]
    fn equal_scores_fall_back_to_lru() {
        let mut p = GmmScorePolicy::new(1, 2);
        p.on_insert(0, 0, &ctx(10, Some(0.0)));
        p.on_insert(0, 1, &ctx(20, Some(0.0)));
        assert_eq!(p.choose_victim(0, 2, &ctx(30, None)), 0);
        p.on_hit(0, 0, &ctx(31, None));
        assert_eq!(p.choose_victim(0, 2, &ctx(32, None)), 1);
    }

    #[test]
    fn hits_do_not_change_score_by_default() {
        let mut p = GmmScorePolicy::new(1, 1);
        p.on_insert(0, 0, &ctx(0, Some(0.4)));
        p.on_hit(0, 0, &ctx(1, None));
        assert_eq!(p.stored_score(0, 0), 0.4);
    }

    #[test]
    fn hit_bonus_raises_score() {
        let mut p = GmmScorePolicy::with_hit_bonus(1, 1, 0.5);
        p.on_insert(0, 0, &ctx(0, Some(0.4)));
        p.on_hit(0, 0, &ctx(1, None));
        assert!((p.stored_score(0, 0) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn unscored_miss_evicts_by_recency_whatever_is_stored() {
        let mut p = GmmScorePolicy::new(1, 3);
        p.on_insert(0, 0, &ctx(0, Some(0.2)));
        p.on_insert(0, 1, &ctx(1, Some(0.9)));
        p.on_insert(0, 2, &ctx(2, Some(0.5)));
        p.on_hit(0, 0, &ctx(3, None));
        // Scored, the lowest stored score goes; unscored, the least recent.
        assert_eq!(p.choose_victim(0, 3, &ctx(4, Some(0.7))), 0);
        assert_eq!(p.choose_victim(0, 3, &ctx(4, None)), 1);
    }

    #[test]
    fn missing_score_means_first_victim() {
        let mut p = GmmScorePolicy::new(1, 2);
        p.on_insert(0, 0, &ctx(0, None));
        p.on_insert(0, 1, &ctx(1, Some(0.1)));
        assert_eq!(p.choose_victim(0, 2, &ctx(2, None)), 0);
    }
}
