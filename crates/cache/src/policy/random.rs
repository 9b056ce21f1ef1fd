//! Uniform-random eviction (a cheap hardware baseline).

use super::{AccessCtx, EvictionPolicy};
use crate::fault::fault_roll;

/// Decision stream for victim rolls (disjoint from the fault streams,
/// 1..=6, and the reservoir stream, 16).
const STREAM_RANDOM_VICTIM: u64 = 17;

/// Random replacement: the victim way is drawn uniformly.
///
/// The `k`-th victim of set `s` is a pure hash of `(seed, s, k)`, so a
/// set's victims depend only on that set's own evictions — never on how
/// evictions in other sets interleave with them.
#[derive(Clone, Debug)]
pub struct RandomPolicy {
    seed: u64,
    /// Evictions so far, per set.
    evictions: Vec<u64>,
}

impl RandomPolicy {
    /// Creates a random policy over `sets` sets with a deterministic seed.
    pub fn new(seed: u64, sets: usize) -> Self {
        RandomPolicy {
            seed,
            evictions: vec![0; sets],
        }
    }
}

impl EvictionPolicy for RandomPolicy {
    fn name(&self) -> &str {
        "random"
    }

    fn on_hit(&mut self, _set: usize, _way: usize, _ctx: &AccessCtx) {}

    fn on_insert(&mut self, _set: usize, _way: usize, _ctx: &AccessCtx) {}

    fn choose_victim(&mut self, set: usize, ways: usize, _ctx: &AccessCtx) -> usize {
        let k = self.evictions[set];
        self.evictions[set] += 1;
        (fault_roll(self.seed, STREAM_RANDOM_VICTIM, set as u64, k) % ways as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icgmm_trace::{Op, PageIndex};

    fn ctx() -> AccessCtx {
        AccessCtx {
            page: PageIndex::new(0),
            op: Op::Read,
            seq: 0,
            score: None,
        }
    }

    #[test]
    fn victims_cover_all_ways() {
        let mut p = RandomPolicy::new(7, 1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v = p.choose_victim(0, 4, &ctx());
            assert!(v < 4);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "not all ways chosen: {seen:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = RandomPolicy::new(42, 1);
        let mut b = RandomPolicy::new(42, 1);
        for _ in 0..50 {
            assert_eq!(a.choose_victim(0, 8, &ctx()), b.choose_victim(0, 8, &ctx()));
        }
    }

    #[test]
    fn other_sets_leave_a_sets_victims_unchanged() {
        let mut alone = RandomPolicy::new(42, 4);
        let mut interleaved = RandomPolicy::new(42, 4);
        for i in 0..64 {
            for other in 1..=(i % 4) {
                interleaved.choose_victim(other, 8, &ctx());
            }
            assert_eq!(
                alone.choose_victim(0, 8, &ctx()),
                interleaved.choose_victim(0, 8, &ctx()),
                "set 0's victim {i} moved with other sets' evictions"
            );
        }
    }
}
