//! The policy engine: admission and eviction as one type.
//!
//! The paper's hardware has one policy engine over one tag/score table
//! (Fig. 5); [`Policy`] is its software shape. It holds an optional
//! admission filter ([`ThresholdAdmit`] — the paper's smart caching;
//! `None` admits every miss) and one eviction rule ([`Evict`]: LRU, the
//! paper's baseline; the stored GMM score, its smart eviction; Belady's
//! MIN, the in-tree bound) with that rule's per-block state, and decides
//! admission, the hit update, the insert and the victim. The paper's four
//! modes (Fig. 6) are {LRU, GMM score} × {no filter, threshold}. GMM
//! scores reach the policy through [`AccessCtx::score`], which the
//! simulator fills in on misses only (hits bypass the policy engine,
//! exactly as in the paper's Fig. 4). The `set` its hooks take is the tag
//! store's row: the set itself in a one-shard store, `set / S` in a shard
//! of `S` ([`crate::SetAssocCache::sharded`]).

mod belady;
mod gmm;
mod lru;

pub use belady::BeladyPolicy;
pub use gmm::GmmScorePolicy;
pub use lru::LruPolicy;

use icgmm_trace::{Op, PageIndex};

/// Per-request context handed to the policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccessCtx {
    /// The requested page.
    pub page: PageIndex,
    /// Read or write.
    pub op: Op,
    /// Zero-based request sequence number.
    pub seq: u64,
    /// Policy-engine score of the requested page; `None` on hits (the
    /// hardware does not invoke the GMM on a hit), without a policy engine
    /// (a score-free policy such as plain LRU), and when the engine's score
    /// is not to be trusted (non-finite, or withheld by a degraded
    /// [`crate::FaultyScore`]). A `Some` score is always finite.
    pub score: Option<f64>,
}

/// The eviction rule of a [`Policy`], with its per-block state. Every
/// rule ranks the blocks of the request's own set only.
#[derive(Clone, Debug)]
pub enum Evict {
    /// Least recently used (the paper's baseline).
    Lru(LruPolicy),
    /// Lowest stored GMM score, recency breaking ties (§3.2).
    GmmScore(GmmScorePolicy),
    /// Farthest next use (Belady's MIN, the clairvoyant bound).
    Belady(BeladyPolicy),
}

impl From<LruPolicy> for Evict {
    fn from(p: LruPolicy) -> Self {
        Evict::Lru(p)
    }
}

impl From<GmmScorePolicy> for Evict {
    fn from(p: GmmScorePolicy) -> Self {
        Evict::GmmScore(p)
    }
}

impl From<BeladyPolicy> for Evict {
    fn from(p: BeladyPolicy) -> Self {
        Evict::Belady(p)
    }
}

/// One cache's policy engine: what enters the cache and what leaves it.
#[derive(Clone, Debug)]
pub struct Policy {
    /// The admission filter; `None` admits every miss (write-allocate).
    pub admit: Option<ThresholdAdmit>,
    /// The eviction rule.
    pub evict: Evict,
}

impl Policy {
    /// A policy of `admit` and `evict`.
    pub fn new(admit: Option<ThresholdAdmit>, evict: impl Into<Evict>) -> Self {
        Policy {
            admit,
            evict: evict.into(),
        }
    }

    /// Plain LRU over `sets × ways` blocks, admitting every miss — the
    /// paper's baseline.
    pub fn lru(sets: usize, ways: usize) -> Self {
        Policy::new(None, LruPolicy::new(sets, ways))
    }

    /// `true` to insert the missed page, `false` to bypass the cache.
    #[inline]
    pub fn admits(&self, ctx: &AccessCtx) -> bool {
        self.admit.as_ref().is_none_or(|t| t.admits(ctx))
    }

    /// The requested page hit in `set` at `way`.
    #[inline]
    pub fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        match &mut self.evict {
            Evict::Lru(p) => p.touch(set, way, ctx),
            Evict::GmmScore(p) => p.on_hit(set, way, ctx),
            Evict::Belady(p) => p.touch(set, way, ctx),
        }
    }

    /// A page was inserted into `set` at `way`.
    #[inline]
    pub fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        match &mut self.evict {
            Evict::Lru(p) => p.touch(set, way, ctx),
            Evict::GmmScore(p) => p.on_insert(set, way, ctx),
            Evict::Belady(p) => p.touch(set, way, ctx),
        }
    }

    /// The victim way in a full `set` (all `ways` valid).
    #[inline]
    pub fn choose_victim(&mut self, set: usize, ways: usize, ctx: &AccessCtx) -> usize {
        match &mut self.evict {
            Evict::Lru(p) => p.choose_victim(set, ways),
            Evict::GmmScore(p) => p.choose_victim(set, ways, ctx),
            Evict::Belady(p) => p.choose_victim(set, ways),
        }
    }

    /// The eviction rule's name in reports: `"lru"`, `"gmm-score"` or
    /// `"belady"`.
    pub fn eviction_name(&self) -> &'static str {
        match self.evict {
            Evict::Lru(_) => "lru",
            Evict::GmmScore(_) => "gmm-score",
            Evict::Belady(_) => "belady",
        }
    }

    /// The admission rule's name in reports: `"always"` or
    /// `"gmm-threshold"`.
    pub fn admission_name(&self) -> &'static str {
        match self.admit {
            None => "always",
            Some(_) => "gmm-threshold",
        }
    }
}

/// Benchmark façade — named by `icgmm_bench`, which passes it where a
/// [`Policy`] has `admit: None`; deleted by the benchmark PR.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AlwaysAdmit;

impl From<AlwaysAdmit> for Option<ThresholdAdmit> {
    fn from(_: AlwaysAdmit) -> Self {
        None
    }
}

/// The paper's smart-caching rule: admit on `score ≥ threshold`.
///
/// Writes can be exempted (`admit_writes_always`, default `true`): with
/// write-allocate semantics, bypassing a write would cost a full SSD
/// program (900 µs) on the critical path, so real deployments admit
/// write misses unconditionally. Set it to `false` for the strictly
/// score-driven variant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThresholdAdmit {
    /// Minimum score required for admission.
    pub threshold: f64,
    /// Admit write misses regardless of score.
    pub admit_writes_always: bool,
}

impl ThresholdAdmit {
    /// Creates the paper-style admission filter.
    pub fn new(threshold: f64) -> Self {
        ThresholdAdmit {
            threshold,
            admit_writes_always: true,
        }
    }

    /// `true` to insert the missed page.
    #[inline]
    pub fn admits(&self, ctx: &AccessCtx) -> bool {
        if self.admit_writes_always && ctx.op.is_write() {
            return true;
        }
        match ctx.score {
            Some(s) => s >= self.threshold,
            // No score available (no policy engine, or one that cannot
            // be trusted right now): behave like a normal cache.
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icgmm_trace::{Op, PageIndex};

    fn ctx(op: Op, score: Option<f64>) -> AccessCtx {
        AccessCtx {
            page: PageIndex::new(1),
            op,
            seq: 0,
            score,
        }
    }

    #[test]
    fn always_admit_admits() {
        let p = Policy::new(AlwaysAdmit.into(), LruPolicy::new(1, 1));
        assert!(p.admits(&ctx(Op::Read, None)));
        assert!(p.admits(&ctx(Op::Write, Some(-1.0))));
        assert_eq!(p.admission_name(), "always");
    }

    #[test]
    fn threshold_respects_score() {
        let a = ThresholdAdmit::new(0.5);
        assert!(a.admits(&ctx(Op::Read, Some(0.5))));
        assert!(a.admits(&ctx(Op::Read, Some(0.9))));
        assert!(!a.admits(&ctx(Op::Read, Some(0.1))));
        // Missing score ⇒ admit.
        assert!(a.admits(&ctx(Op::Read, None)));
        let p = Policy::new(Some(a), GmmScorePolicy::new(1, 1));
        assert!(!p.admits(&ctx(Op::Read, Some(0.1))));
        assert_eq!(p.admission_name(), "gmm-threshold");
    }

    #[test]
    fn writes_exempt_by_default_but_configurable() {
        let mut a = ThresholdAdmit::new(0.5);
        assert!(a.admits(&ctx(Op::Write, Some(0.0))));
        a.admit_writes_always = false;
        assert!(!a.admits(&ctx(Op::Write, Some(0.0))));
        assert!(a.admits(&ctx(Op::Write, Some(0.8))));
    }
}
