//! Admission and eviction policy traits plus the standard implementations.
//!
//! The cache simulator is policy-agnostic: [`EvictionPolicy`] chooses
//! victims and maintains per-block replacement metadata, while
//! [`AdmissionPolicy`] decides whether a missed page enters the cache at
//! all. GMM scores reach the policies through [`AccessCtx::score`], which
//! the simulator fills in on misses only (hits bypass the policy engine,
//! exactly as in the paper's Fig. 4).

mod belady;
mod fifo;
mod gmm;
mod lfu;
mod lru;
mod random;

pub use belady::BeladyPolicy;
pub use fifo::FifoPolicy;
pub use gmm::GmmScorePolicy;
pub use lfu::LfuPolicy;
pub use lru::LruPolicy;
pub use random::RandomPolicy;

use icgmm_trace::{Op, PageIndex};

/// Per-request context handed to policies.
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

/// Chooses victims and maintains per-block replacement state.
///
/// Implementations are sized for a specific geometry at construction and
/// are driven by the cache through the three callbacks.
pub trait EvictionPolicy {
    /// Short policy name for reports.
    fn name(&self) -> &str;

    /// The requested page hit in `set` at `way`.
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx);

    /// A page was inserted into `set` at `way`.
    fn on_insert(&mut self, set: usize, way: usize, ctx: &AccessCtx);

    /// Chooses the victim way in a full `set` (all `ways` valid).
    fn choose_victim(&mut self, set: usize, ways: usize, ctx: &AccessCtx) -> usize;
}

/// Decides whether a missed page is inserted or bypassed.
pub trait AdmissionPolicy {
    /// Short policy name for reports.
    fn name(&self) -> &str;

    /// `true` to insert the missed page, `false` to bypass the cache.
    fn should_admit(&mut self, ctx: &AccessCtx) -> bool;
}

/// Admits every miss (the classic write-allocate cache; the paper's LRU
/// baseline and its "GMM eviction-only" mode use this).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AlwaysAdmit;

impl AdmissionPolicy for AlwaysAdmit {
    fn name(&self) -> &str {
        "always"
    }

    fn should_admit(&mut self, _ctx: &AccessCtx) -> bool {
        true
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
}

impl AdmissionPolicy for ThresholdAdmit {
    fn name(&self) -> &str {
        "gmm-threshold"
    }

    fn should_admit(&mut self, ctx: &AccessCtx) -> bool {
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
        let mut a = AlwaysAdmit;
        assert!(a.should_admit(&ctx(Op::Read, None)));
        assert!(a.should_admit(&ctx(Op::Write, Some(-1.0))));
        assert_eq!(a.name(), "always");
    }

    #[test]
    fn threshold_respects_score() {
        let mut a = ThresholdAdmit::new(0.5);
        assert!(a.should_admit(&ctx(Op::Read, Some(0.5))));
        assert!(a.should_admit(&ctx(Op::Read, Some(0.9))));
        assert!(!a.should_admit(&ctx(Op::Read, Some(0.1))));
        // Missing score ⇒ admit.
        assert!(a.should_admit(&ctx(Op::Read, None)));
    }

    #[test]
    fn writes_exempt_by_default_but_configurable() {
        let mut a = ThresholdAdmit::new(0.5);
        assert!(a.should_admit(&ctx(Op::Write, Some(0.0))));
        a.admit_writes_always = false;
        assert!(!a.should_admit(&ctx(Op::Write, Some(0.0))));
        assert!(a.should_admit(&ctx(Op::Write, Some(0.8))));
    }
}
