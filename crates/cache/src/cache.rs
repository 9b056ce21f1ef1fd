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
//! line) and, in a parallel array, one dirty byte per block. An empty way
//! holds the tag `EMPTY` = `u64::MAX`, which no tag reaches (a
//! [`TraceRecord`]'s page is below 2^51), so hit, free way and eviction
//! read the tag row alone; a flag byte compared beside each tag cost a
//! one-shard LRU replay ≈ 10 % (ROADMAP, "Cache simulator").
//! A request decodes `page → (set, tag)` once through the cache's
//! [`SetMap`] and compares the tag against **every** way of the row, with
//! no early exit — a fixed-trip loop the compiler vectorises, the software
//! shape of the hardware's one-cycle parallel compare. Reducing the
//! per-way matches to "the" hit way is exact because a page occupies at
//! most one way of its set: insertion is the only writer of tags and runs
//! only after the compare found none. [`SetAssocCache::lookup`],
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
//!
//! # A shard's rows
//!
//! A shard of a sharded replay holds only its own sets
//! ([`SetAssocCache::sharded`]): every [`crate::ShardPartition`] gives each
//! block of `S` consecutive sets exactly one set per shard, so a shard
//! needs `ceil(sets / S)` rows, set `s` in row `s / S` — a shift at a
//! power-of-two `S`, and the identity at one shard. The tag stays the
//! page's *global* tag, unique within the row because the row holds one
//! set, and an eviction rebuilds its page from the request's global set.
//! The policy is indexed by the same rows.

use crate::config::{CacheConfig, CacheConfigError, SetMap};
use crate::policy::{AccessCtx, Policy};
use icgmm_trace::{Op, PageIndex, TraceRecord, MAX_PADDR, PAGE_SHIFT};
use serde::{Deserialize, Serialize};

/// One tag-store entry, as [`SetAssocCache::block`] reports it (the store
/// itself keeps tags and dirty bytes in flat rows). An empty way reads
/// `BlockState::default()`.
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
    /// The shard count the rows are laid out for: set `s` is row
    /// `s / shards`, `s >> row_shift` when `shards` is a power of two.
    shards: usize,
    row_shift: Option<u32>,
    /// Holds the tag rows from `tag_base` on: `tags()[row * ways + way]`,
    /// `EMPTY` where the way holds no page.
    tag_store: Vec<u64>,
    tag_base: usize,
    /// `DIRTY` or 0, parallel to `tags()`; 0 on an empty way.
    flags: Vec<u8>,
}

/// The tag of an empty way. No page has it: tags are below 2^51.
const EMPTY: u64 = u64::MAX;

/// The largest page index a [`TraceRecord`] can carry.
const MAX_PAGE: u64 = MAX_PADDR >> PAGE_SHIFT;

const DIRTY: u8 = 1;

/// Tags per 64-byte line.
const LINE_TAGS: usize = 64 / std::mem::size_of::<u64>();

/// `n` empty tags starting on a 64-byte boundary: a store one line longer
/// than `n`, and the offset of the first tag in it.
fn aligned_tags(n: usize) -> (Vec<u64>, usize) {
    let store = vec![EMPTY; n + LINE_TAGS - 1];
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
        Self::sharded(cfg, 1)
    }

    /// An empty tag store for one shard of `shards` (see the module docs):
    /// `ceil(sets / shards)` rows, set `s` in row `s / shards`. It must only
    /// see pages its shard's partition routes to it; one shard is
    /// [`SetAssocCache::new`].
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] for invalid geometry or zero `shards`.
    pub fn sharded(cfg: CacheConfig, shards: usize) -> Result<Self, CacheConfigError> {
        let map = SetMap::new(&cfg)?;
        if shards == 0 {
            let what = "shard count must be >= 1".into();
            return Err(CacheConfigError { what });
        }
        let blocks = map.sets().div_ceil(shards) * cfg.ways;
        let (tag_store, tag_base) = aligned_tags(blocks);
        Ok(SetAssocCache {
            cfg,
            map,
            shards,
            row_shift: shards.is_power_of_two().then(|| shards.trailing_zeros()),
            tag_store,
            tag_base,
            flags: vec![0; blocks],
        })
    }

    /// The row holding `set`.
    #[inline]
    fn row(&self, set: usize) -> usize {
        match self.row_shift {
            Some(shift) => set >> shift,
            None => set / self.shards,
        }
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

    /// The tags of `row`.
    #[inline]
    fn tag_row(&self, row: usize) -> &[u64] {
        let start = self.tag_base + row * self.cfg.ways;
        &self.tag_store[start..start + self.cfg.ways]
    }

    /// The one tag compare: the way of `row` holding `tag` (never
    /// `EMPTY`), if any. Every way is compared (no data-dependent exit)
    /// and the matches are summed as `way + 1` — 0 on a miss, exact on a
    /// hit because at most one way can match.
    #[inline]
    fn find(&self, row: usize, tag: u64) -> Option<usize> {
        let tags = self.tag_row(row);
        let matches = || tags.iter().map(|&t| t == tag);
        debug_assert!(
            matches().filter(|&m| m).count() <= 1,
            "page cached twice in row {row}"
        );
        let hit: usize = (matches().enumerate())
            .map(|(w, m)| if m { w + 1 } else { 0 })
            .sum();
        hit.checked_sub(1)
    }

    /// Parallel tag compare: the way holding `page`, if present. A page
    /// above `MAX_PADDR >> PAGE_SHIFT`, which no [`TraceRecord`] can carry,
    /// is never present (its tag could be the empty way's).
    pub fn lookup(&self, page: PageIndex) -> Option<usize> {
        if page.raw() > MAX_PAGE {
            return None;
        }
        let (set, tag) = self.map.split(page);
        self.find(self.row(set), tag)
    }

    /// `true` when `page` is cached.
    pub fn contains(&self, page: PageIndex) -> bool {
        self.lookup(page).is_some()
    }

    /// Number of valid blocks.
    pub fn occupancy(&self) -> usize {
        self.tags().iter().filter(|&&t| t != EMPTY).count()
    }

    /// A block's state (diagnostics and tests), by row — the set itself
    /// in a one-shard store.
    pub fn block(&self, row: usize, way: usize) -> BlockState {
        let slot = row * self.cfg.ways + way;
        match self.tags()[slot] {
            EMPTY => BlockState::default(),
            tag => BlockState {
                tag,
                valid: true,
                dirty: self.flags[slot] & DIRTY != 0,
            },
        }
    }

    /// Full access path: lookup, hit handling, admission, insertion and
    /// eviction — one host request end-to-end.
    ///
    /// `score` is the policy-engine output for this page; pass `None` when
    /// the policy engine is disabled (the hardware then falls back to LRU,
    /// per §4.1). Hits never consult `score`. No other page has a score
    /// here, so a block waiting for one that this access would re-score
    /// stores score 0 instead.
    pub fn access(
        &mut self,
        record: &TraceRecord,
        seq: u64,
        mut score: Option<f64>,
        policy: &mut Policy,
    ) -> AccessOutcome {
        self.access_scored(record, seq, |_| score.take(), policy)
    }

    /// [`SetAssocCache::access`] with the scores taken lazily from
    /// `score(page)`: it runs after the tag compare, once for the missed
    /// page on a miss and never on a hit (the hardware triggers the policy
    /// engine on miss only), then once for each unscored block the miss
    /// re-scores (below).
    ///
    /// An untrusted score is no score: this is the one place a score
    /// enters a policy, and a non-finite one enters as `None` — the policy
    /// decides that request the way it would without a policy engine
    /// (admit it, evict by recency) and stores no score for the block it
    /// inserts. A miss with a trusted score that must evict from a set
    /// holding such blocks first asks `score` for each of their pages, in
    /// way order ([`GmmScorePolicy`](crate::GmmScorePolicy)). A caller
    /// counts inferences in `score`.
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
        mut score: impl FnMut(PageIndex) -> Option<f64>,
        policy: &mut Policy,
    ) -> AccessOutcome {
        let page = record.page();
        let (set, tag) = self.map.split(page);
        let row = self.row(set);
        let mut ctx = AccessCtx {
            page,
            op: record.op(),
            seq,
            score: None,
        };
        if let Some(way) = self.find(row, tag) {
            // Hit: bypass the policy engine entirely.
            if record.op() == Op::Write {
                self.flags[row * self.cfg.ways + way] |= DIRTY;
            }
            policy.on_hit(row, way, &ctx);
            return AccessOutcome::Hit { way };
        }

        ctx.score = score(page).filter(|s| s.is_finite());
        if !policy.admits(&ctx) {
            return AccessOutcome::MissBypassed;
        }
        let (way, evicted) = self.insert((set, row), tag, &ctx, policy, score);
        AccessOutcome::MissInserted { way, evicted }
    }

    /// Inserts `tag` (which must not be present) into `set`, held in `row`,
    /// evicting if needed; a victim choice re-scores a block's page through
    /// `score`.
    fn insert(
        &mut self,
        (set, row): (usize, usize),
        tag: u64,
        ctx: &AccessCtx,
        policy: &mut Policy,
        mut score: impl FnMut(PageIndex) -> Option<f64>,
    ) -> (usize, Option<Eviction>) {
        let ways = self.cfg.ways;
        let (tags, map) = (self.tag_row(row), &self.map);
        // Prefer an empty way.
        let way = tags.iter().position(|&t| t == EMPTY).unwrap_or_else(|| {
            let rescore = |way: usize| score(map.page_of(set, tags[way])).filter(|s| s.is_finite());
            policy.choose_victim(row, ways, ctx, rescore)
        });
        debug_assert!(way < ways, "policy returned way out of range");
        let slot = row * ways + way;
        let old = self.tags()[slot];
        let evicted = (old != EMPTY).then(|| Eviction {
            page: self.map.page_of(set, old),
            dirty: self.flags[slot] & DIRTY != 0,
        });
        self.tags_mut()[slot] = tag;
        // Write-allocate: a write miss fetches the page then dirties it.
        self.flags[slot] = if ctx.op == Op::Write { DIRTY } else { 0 };
        policy.on_insert(row, way, ctx);
        (way, evicted)
    }

    /// Invalidates everything (keeps policy state; intended for tests and
    /// phase-reset experiments).
    pub fn clear(&mut self) {
        self.tags_mut().fill(EMPTY);
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
    fn a_shard_store_holds_its_own_rows_and_decides_as_the_whole_one() {
        // Set counts a power of two and not, shard counts dividing them and
        // not; each shard's pages (`set mod S`) replayed through a store
        // of its own rows and through the whole geometry.
        for (sets, shards) in [(8u64, 2usize), (6, 4), (7, 3), (1, 2), (12, 1)] {
            let cfg = CacheConfig::new(sets * 2 * 4096, 4096, 2).unwrap();
            let rows = (sets as usize).div_ceil(shards);
            for shard in 0..shards {
                let mut own = SetAssocCache::sharded(cfg, shards).unwrap();
                assert_eq!(own.tags().len(), rows * 2, "{sets} sets / {shards}");
                let mut whole = SetAssocCache::new(cfg).unwrap();
                let (mut own_lru, mut whole_lru) =
                    (Policy::lru(rows, 2), Policy::lru(sets as usize, 2));
                let pages = (0..400u64)
                    .map(|i| i * 7 % 61)
                    .filter(|p| (p % sets) as usize % shards == shard);
                for (seq, p) in pages.enumerate() {
                    let r = if seq % 3 == 0 { write(p) } else { read(p) };
                    let want = whole.access(&r, seq as u64, None, &mut whole_lru);
                    assert_eq!(
                        own.access(&r, seq as u64, None, &mut own_lru),
                        want,
                        "page {p}"
                    );
                }
                assert_eq!(own.occupancy(), whole.occupancy());
            }
            // Zero shards own no rows: a typed error, not a panic.
            assert!(SetAssocCache::sharded(cfg, 0).is_err(), "{sets} sets / 0");
        }
    }

    #[test]
    fn an_empty_way_holds_no_page_not_even_the_sentinel_tag() {
        // At one set a page's tag is the page itself, so `u64::MAX` would
        // meet the empty way's tag if `lookup` let it through.
        let absent = [0, 1, 2_048, MAX_PAGE, MAX_PAGE + 1, u64::MAX - 1, u64::MAX];
        for sets in [1u64, 3, 2_048] {
            let cfg = CacheConfig::new(sets * 4 * 4096, 4096, 4).unwrap();
            let mut c = SetAssocCache::new(cfg).unwrap();
            let mut lru = Policy::lru(cfg.num_sets(), cfg.ways);
            for round in 0..2 {
                for p in absent.map(PageIndex::new) {
                    assert_eq!(c.lookup(p), None, "{sets} sets, round {round}, {p:?}");
                    assert!(!c.contains(p));
                }
                assert_eq!(c.occupancy(), 0);
                for (set, way) in [(0, 0), (sets as usize - 1, 3)] {
                    assert_eq!(c.block(set, way), BlockState::default());
                }
                // Fill every way, then empty the store again.
                for p in 0..sets * 4 {
                    c.access(&write(p), p, None, &mut lru);
                }
                assert_eq!(c.occupancy(), cfg.num_blocks());
                assert!(!c.contains(PageIndex::new(u64::MAX)));
                c.clear();
            }
        }
    }

    #[test]
    fn occupancy_follows_inserts_evictions_and_clear() {
        let (mut c, mut lru) = tiny();
        let mut want = 0;
        for (seq, p) in [0u64, 1, 0, 2, 3, 4, 5, 1].into_iter().enumerate() {
            let out = c.access(&read(p), seq as u64, None, &mut lru);
            if matches!(out, AccessOutcome::MissInserted { evicted: None, .. }) {
                want += 1;
            }
            assert_eq!(c.occupancy(), want, "after page {p}");
        }
        assert_eq!(want, 4, "every way filled, then evictions keep it full");
        c.clear();
        assert_eq!(c.occupancy(), 0);
        c.access(&read(7), 8, None, &mut lru);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn a_write_hit_is_written_back_on_eviction() {
        let (mut c, mut lru) = tiny();
        c.access(&read(0), 0, None, &mut lru);
        c.access(&write(0), 1, None, &mut lru);
        c.access(&read(2), 2, None, &mut lru);
        c.access(&read(2), 3, None, &mut lru); // page 0 is LRU
        let out = c.access(&read(4), 4, None, &mut lru);
        let evicted = Some(Eviction {
            page: PageIndex::new(0),
            dirty: true,
        });
        assert_eq!(out, AccessOutcome::MissInserted { way: 0, evicted });
        // The way that took page 4 starts clean.
        assert_eq!(
            c.block(0, 0),
            BlockState {
                tag: 2,
                valid: true,
                dirty: false
            }
        );
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
