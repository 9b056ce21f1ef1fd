//! The set-associative DRAM-cache tag store.
//!
//! Models the cache-management module of the paper's cache control engine:
//! tag lookup (the hardware compares all tags of a set in parallel),
//! write-allocate insertion with write-back dirty tracking, and
//! policy-driven victim selection. Data payloads are not simulated — only
//! tags, dirty bits and policy metadata, exactly what the FPGA keeps in its
//! on-board tag/score buffer.
//!
//! # Layout and the one compare
//!
//! A set is a *row*: `ways` consecutive `u64` tags (8 ways = one 64-byte
//! line) and, in a parallel array, one flag byte per block (valid, dirty).
//! A request decodes `page → (set, tag)` once through the cache's
//! [`SetMap`] and compares the tag against **every** way of the row, with
//! no early exit — a fixed-trip loop the compiler vectorises, the software
//! shape of the hardware's one-cycle parallel compare. Reducing the
//! per-way matches to "the" hit way is exact because a page occupies at
//! most one valid way of its set: insertion is the only writer of tags and
//! runs only after the compare found none. [`SetAssocCache::lookup`],
//! [`SetAssocCache::contains`] and the access path share that compare, and
//! an access performs it exactly once: the miss score is taken lazily
//! ([`SetAssocCache::access_scored`]), after the compare and on a miss
//! only, so callers never look a page up first to decide whether to score.
//!
//! The rows start on a 64-byte boundary, so an 8-way row is one cache line
//! in every run: the tags sit at an aligned offset inside a store
//! over-allocated by one line, since the allocator promises only 16 bytes
//! and a row straddling two lines costs ≈ 5 % of a miss-heavy LRU replay
//! (ROADMAP, "Cache simulator").

use crate::config::{CacheConfig, CacheConfigError, SetMap};
use crate::policy::{AccessCtx, Policy};
use icgmm_trace::{Op, PageIndex, TraceRecord};
use serde::{Deserialize, Serialize};

/// One tag-store entry, as [`SetAssocCache::block`] reports it (the store
/// itself keeps tags and flags in flat rows).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockState {
    /// Tag (page index divided by the set count).
    pub tag: u64,
    /// Whether the block holds a page.
    pub valid: bool,
    /// Whether the block was written since insertion (write-back).
    pub dirty: bool,
}

/// An evicted block, reported so the simulator can charge write-back cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Eviction {
    /// The page that was evicted.
    pub page: PageIndex,
    /// Whether it must be written back to the SSD (900 µs on TLC).
    pub dirty: bool,
}

/// Outcome of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessOutcome {
    /// The page was present; data served from DRAM.
    Hit {
        /// Way within the set where the page was found.
        way: usize,
    },
    /// The page missed and was inserted (possibly evicting a victim).
    MissInserted {
        /// Way the page was placed in.
        way: usize,
        /// The victim, if the set was full.
        evicted: Option<Eviction>,
    },
    /// The page missed and the admission policy bypassed the cache:
    /// data moves SSD↔host directly and the cache is untouched.
    MissBypassed,
}

impl AccessOutcome {
    /// `true` for [`AccessOutcome::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit { .. })
    }
}

/// The set-associative tag store.
///
/// ```
/// use icgmm_cache::{CacheConfig, Policy, SetAssocCache};
/// use icgmm_trace::TraceRecord;
///
/// let cfg = CacheConfig { capacity_bytes: 4096 * 8, block_bytes: 4096, ways: 2 };
/// let mut cache = SetAssocCache::new(cfg)?;
/// let mut lru = Policy::lru(cfg.num_sets(), cfg.ways);
/// let r = TraceRecord::read(0x5000);
/// let first = cache.access(&r, 0, None, &mut lru);
/// assert!(!first.is_hit());
/// let second = cache.access(&r, 1, None, &mut lru);
/// assert!(second.is_hit());
/// # Ok::<(), icgmm_cache::CacheConfigError>(())
/// ```
#[derive(Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    map: SetMap,
    /// Holds the tag rows from `tag_base` on: `tags()[set * ways + way]`,
    /// 0 where the flag byte is not valid.
    tag_store: Vec<u64>,
    tag_base: usize,
    /// `VALID` / `DIRTY` bits, parallel to `tags()`.
    flags: Vec<u8>,
}

const VALID: u8 = 1;
const DIRTY: u8 = 2;

/// Tags per 64-byte line.
const LINE_TAGS: usize = 64 / std::mem::size_of::<u64>();

/// `n` zeroed tags starting on a 64-byte boundary: a store one line longer
/// than `n`, and the offset of the first tag in it.
fn aligned_tags(n: usize) -> (Vec<u64>, usize) {
    let store = vec![0u64; n + LINE_TAGS - 1];
    let past_line = store.as_ptr() as usize % 64;
    let base = (64 - past_line) % 64 / std::mem::size_of::<u64>();
    (store, base)
}

impl SetAssocCache {
    /// Builds an empty cache.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] for invalid geometry.
    pub fn new(cfg: CacheConfig) -> Result<Self, CacheConfigError> {
        let map = SetMap::new(&cfg)?;
        let (tag_store, tag_base) = aligned_tags(cfg.num_blocks());
        Ok(SetAssocCache {
            cfg,
            map,
            tag_store,
            tag_base,
            flags: vec![0; cfg.num_blocks()],
        })
    }

    /// The tag rows, one tag per block, starting on a 64-byte boundary.
    #[inline]
    fn tags(&self) -> &[u64] {
        &self.tag_store[self.tag_base..][..self.flags.len()]
    }

    #[inline]
    fn tags_mut(&mut self) -> &mut [u64] {
        let n = self.flags.len();
        &mut self.tag_store[self.tag_base..][..n]
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The one tag compare: the way of `set` holding `tag`, if any. Every
    /// way is compared (no data-dependent exit) and the matches are summed
    /// as `way + 1` — 0 on a miss, exact on a hit because at most one way
    /// can match.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let ways = self.cfg.ways;
        let row = set * ways..set * ways + ways;
        let tag_row = self.tag_base + row.start..self.tag_base + row.end;
        let (tags, flags) = (&self.tag_store[tag_row], &self.flags[row]);
        let matches = || (tags.iter().zip(flags)).map(|(&t, &f)| t == tag && f & VALID != 0);
        debug_assert!(
            matches().filter(|&m| m).count() <= 1,
            "page cached twice in set {set}"
        );
        let hit: usize = (matches().enumerate())
            .map(|(w, m)| if m { w + 1 } else { 0 })
            .sum();
        hit.checked_sub(1)
    }

    /// Parallel tag compare: the way holding `page`, if present.
    pub fn lookup(&self, page: PageIndex) -> Option<usize> {
        let (set, tag) = self.map.split(page);
        self.find(set, tag)
    }

    /// `true` when `page` is cached.
    pub fn contains(&self, page: PageIndex) -> bool {
        self.lookup(page).is_some()
    }

    /// Number of valid blocks.
    pub fn occupancy(&self) -> usize {
        self.flags.iter().filter(|&&f| f & VALID != 0).count()
    }

    /// A block's state (diagnostics and tests).
    pub fn block(&self, set: usize, way: usize) -> BlockState {
        let slot = set * self.cfg.ways + way;
        BlockState {
            tag: self.tags()[slot],
            valid: self.flags[slot] & VALID != 0,
            dirty: self.flags[slot] & DIRTY != 0,
        }
    }

    /// Full access path: lookup, hit handling, admission, insertion and
    /// eviction — one host request end-to-end.
    ///
    /// `score` is the policy-engine output for this page; pass `None` when
    /// the policy engine is disabled (the hardware then falls back to LRU,
    /// per §4.1). Hits never consult `score`.
    pub fn access(
        &mut self,
        record: &TraceRecord,
        seq: u64,
        score: Option<f64>,
        policy: &mut Policy,
    ) -> AccessOutcome {
        self.access_scored(record, seq, || score, policy).0
    }

    /// [`SetAssocCache::access`] with the miss score taken lazily: `score`
    /// runs after the tag compare, exactly once on a miss and never on a
    /// hit (the hardware triggers the policy engine on miss only). Returns
    /// the outcome and the score the access consumed (`None` on a hit).
    ///
    /// An untrusted score is no score: this is the one place a miss's
    /// score enters [`AccessCtx`], and a non-finite one enters as `None` —
    /// the policy decides that request the way it would without a
    /// policy engine (admit it, evict by recency) and never store it. The
    /// returned score is still the raw one, so callers count the inference.
    ///
    /// Always inlined, like the loop's accounting step: with the replay
    /// loop compiled for more than one record walk, LLVM
    /// otherwise outlines this body and the LRU replay reads 15–20 %
    /// slower (ROADMAP, "Cache simulator").
    #[inline(always)]
    pub fn access_scored(
        &mut self,
        record: &TraceRecord,
        seq: u64,
        score: impl FnOnce() -> Option<f64>,
        policy: &mut Policy,
    ) -> (AccessOutcome, Option<f64>) {
        let page = record.page();
        let (set, tag) = self.map.split(page);
        let mut ctx = AccessCtx {
            page,
            op: record.op(),
            seq,
            score: None,
        };
        if let Some(way) = self.find(set, tag) {
            // Hit: bypass the policy engine entirely.
            if record.op() == Op::Write {
                self.flags[set * self.cfg.ways + way] |= DIRTY;
            }
            policy.on_hit(set, way, &ctx);
            return (AccessOutcome::Hit { way }, None);
        }

        let raw = score();
        ctx.score = raw.filter(|s| s.is_finite());
        if !policy.admits(&ctx) {
            return (AccessOutcome::MissBypassed, raw);
        }
        let (way, evicted) = self.insert(set, tag, &ctx, policy);
        (AccessOutcome::MissInserted { way, evicted }, raw)
    }

    /// Inserts `tag` (which must not be present) into `set`, evicting if
    /// needed.
    fn insert(
        &mut self,
        set: usize,
        tag: u64,
        ctx: &AccessCtx,
        policy: &mut Policy,
    ) -> (usize, Option<Eviction>) {
        let ways = self.cfg.ways;
        let base = set * ways;
        // Prefer an invalid way.
        let way = self.flags[base..base + ways]
            .iter()
            .position(|f| f & VALID == 0)
            .unwrap_or_else(|| policy.choose_victim(set, ways, ctx));
        debug_assert!(way < ways, "policy returned way out of range");
        let slot = base + way;
        let old = self.flags[slot];
        let evicted = (old & VALID != 0).then(|| Eviction {
            page: self.map.page_of(set, self.tags()[slot]),
            dirty: old & DIRTY != 0,
        });
        self.tags_mut()[slot] = tag;
        // Write-allocate: a write miss fetches the page then dirties it.
        self.flags[slot] = VALID | if ctx.op == Op::Write { DIRTY } else { 0 };
        policy.on_insert(set, way, ctx);
        (way, evicted)
    }

    /// Invalidates everything (keeps policy state; intended for tests and
    /// phase-reset experiments).
    pub fn clear(&mut self) {
        self.tags_mut().fill(0);
        self.flags.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{LruPolicy, Policy, ThresholdAdmit};

    fn tiny() -> (SetAssocCache, Policy) {
        // 2 sets × 2 ways.
        let cfg = CacheConfig {
            capacity_bytes: 4 * 4096,
            block_bytes: 4096,
            ways: 2,
        };
        let c = SetAssocCache::new(cfg).unwrap();
        let p = Policy::lru(cfg.num_sets(), cfg.ways);
        (c, p)
    }

    fn read(page: u64) -> TraceRecord {
        TraceRecord::read(page << 12)
    }

    fn write(page: u64) -> TraceRecord {
        TraceRecord::write(page << 12)
    }

    #[test]
    fn miss_then_hit() {
        let (mut c, mut lru) = tiny();
        assert!(!c.access(&read(4), 0, None, &mut lru).is_hit());
        assert!(c.access(&read(4), 1, None, &mut lru).is_hit());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_eviction_in_a_full_set() {
        let (mut c, mut lru) = tiny();
        // Pages 0, 2, 4 all map to set 0 (2 sets).
        c.access(&read(0), 0, None, &mut lru);
        c.access(&read(2), 1, None, &mut lru);
        // Touch page 0 so page 2 is LRU.
        c.access(&read(0), 2, None, &mut lru);
        let out = c.access(&read(4), 3, None, &mut lru);
        match out {
            AccessOutcome::MissInserted {
                evicted: Some(e), ..
            } => {
                assert_eq!(e.page.raw(), 2);
                assert!(!e.dirty);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(PageIndex::new(0)));
        assert!(!c.contains(PageIndex::new(2)));
    }

    #[test]
    fn write_allocate_sets_dirty_and_writeback_reports_it() {
        let (mut c, mut lru) = tiny();
        c.access(&write(0), 0, None, &mut lru);
        c.access(&read(2), 1, None, &mut lru);
        c.access(&read(2), 2, None, &mut lru); // page 0 is LRU
        let out = c.access(&read(4), 3, None, &mut lru);
        match out {
            AccessOutcome::MissInserted {
                evicted: Some(e), ..
            } => {
                assert_eq!(e.page.raw(), 0);
                assert!(e.dirty, "written page must be dirty on eviction");
            }
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn write_hit_dirties_a_clean_block() {
        let (mut c, mut lru) = tiny();
        c.access(&read(4), 0, None, &mut lru);
        let set = c.config().set_of(PageIndex::new(4));
        let way = c.lookup(PageIndex::new(4)).unwrap();
        assert!(!c.block(set, way).dirty);
        c.access(&write(4), 1, None, &mut lru);
        assert!(c.block(set, way).dirty);
    }

    #[test]
    fn bypass_leaves_cache_untouched() {
        let (mut c, _) = tiny();
        let mut filtered = Policy::new(Some(ThresholdAdmit::new(0.5)), LruPolicy::new(2, 2));
        let out = c.access(&read(6), 0, Some(0.1), &mut filtered);
        assert_eq!(out, AccessOutcome::MissBypassed);
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(PageIndex::new(6)));
    }

    #[test]
    fn distinct_tags_same_set_coexist() {
        let (mut c, mut lru) = tiny();
        c.access(&read(0), 0, None, &mut lru);
        c.access(&read(2), 1, None, &mut lru);
        assert!(c.contains(PageIndex::new(0)));
        assert!(c.contains(PageIndex::new(2)));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn one_compare_for_any_associativity() {
        // 1, odd, 9 and more than 64 ways (no mask-width cap), on one set
        // and on a non-power-of-two set count: every resident page is
        // found at the way it was put in, absent pages are not found.
        for (sets, ways) in [(1u64, 1usize), (3, 3), (1, 9), (6, 65), (1, 130)] {
            let cfg = CacheConfig::new(sets * ways as u64 * 4096, 4096, ways).unwrap();
            let mut c = SetAssocCache::new(cfg).unwrap();
            let mut lru = Policy::lru(cfg.num_sets(), ways);
            let blocks = sets * ways as u64;
            for p in 0..blocks {
                let out = c.access(&write(p), p, None, &mut lru);
                let way = (p / sets) as usize;
                assert_eq!(out, AccessOutcome::MissInserted { way, evicted: None });
            }
            assert_eq!(c.occupancy(), blocks as usize);
            for p in 0..blocks {
                let (set, way) = ((p % sets) as usize, (p / sets) as usize);
                assert_eq!(c.lookup(PageIndex::new(p)), Some(way), "{sets}x{ways} {p}");
                let want = BlockState {
                    tag: p / sets,
                    valid: true,
                    dirty: true,
                };
                assert_eq!(c.block(set, way), want);
                assert!(!c.contains(PageIndex::new(p + blocks)));
            }
            // A full set evicts its least-recent way and reports the page.
            let out = c.access(&read(blocks), blocks, None, &mut lru);
            let evicted = Some(Eviction {
                page: PageIndex::new(0),
                dirty: true,
            });
            assert_eq!(out, AccessOutcome::MissInserted { way: 0, evicted });
            assert_eq!(c.occupancy(), blocks as usize);
            c.clear();
            assert_eq!(c.occupancy(), 0);
            assert_eq!(c.block(0, ways - 1), BlockState::default());
            assert!((0..=blocks).all(|p| !c.contains(PageIndex::new(p))));
        }
    }

    #[test]
    fn tag_rows_start_on_a_cache_line() {
        // Small live allocations in between shift where the allocator puts
        // the next store; every store is aligned, and holds what was put.
        let mut perturb = Vec::new();
        for (i, sets) in [1u64, 2, 3, 7, 64, 2048].into_iter().enumerate() {
            perturb.push(vec![0u8; 8 + 24 * i]);
            let cfg = CacheConfig::new(sets * 8 * 4096, 4096, 8).unwrap();
            let mut c = SetAssocCache::new(cfg).unwrap();
            assert_eq!(c.tags().as_ptr() as usize % 64, 0, "{sets} sets");
            assert_eq!(c.tags().len(), cfg.num_blocks());
            let mut lru = Policy::lru(cfg.num_sets(), cfg.ways);
            for p in 0..sets * 8 {
                c.access(&write(p), p, None, &mut lru);
            }
            assert!((0..sets * 8).all(|p| c.contains(PageIndex::new(p))));
            assert_eq!(c.occupancy(), cfg.num_blocks());
        }
    }

    #[test]
    fn clear_empties_the_cache() {
        let (mut c, mut lru) = tiny();
        c.access(&read(0), 0, None, &mut lru);
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(PageIndex::new(0)));
    }
}
