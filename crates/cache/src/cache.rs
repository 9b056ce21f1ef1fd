//! The set-associative DRAM-cache tag store.
//!
//! Models the cache-management module of the paper's cache control engine:
//! tag lookup (the hardware compares all tags of a set in parallel),
//! write-allocate insertion with write-back dirty tracking, and
//! policy-driven victim selection. Data payloads are not simulated — only
//! tags, dirty bits and policy metadata, exactly what the FPGA keeps in its
//! on-board tag/score buffer.

use crate::config::{CacheConfig, CacheConfigError};
use crate::policy::{AccessCtx, AdmissionPolicy, EvictionPolicy};
use icgmm_trace::{Op, PageIndex, TraceRecord};
use serde::{Deserialize, Serialize};

/// One tag-store entry.
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
/// use icgmm_cache::{AlwaysAdmit, CacheConfig, LruPolicy, SetAssocCache};
/// use icgmm_trace::TraceRecord;
///
/// let cfg = CacheConfig { capacity_bytes: 4096 * 8, block_bytes: 4096, ways: 2 };
/// let mut cache = SetAssocCache::new(cfg)?;
/// let mut lru = LruPolicy::new(cfg.num_sets(), cfg.ways);
/// let mut admit = AlwaysAdmit;
/// let r = TraceRecord::read(0x5000);
/// let first = cache.access(&r, 0, None, &mut admit, &mut lru);
/// assert!(!first.is_hit());
/// let second = cache.access(&r, 1, None, &mut admit, &mut lru);
/// assert!(second.is_hit());
/// # Ok::<(), icgmm_cache::CacheConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    blocks: Vec<BlockState>,
}

impl SetAssocCache {
    /// Builds an empty cache.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] for invalid geometry.
    pub fn new(cfg: CacheConfig) -> Result<Self, CacheConfigError> {
        cfg.validate()?;
        Ok(SetAssocCache {
            cfg,
            blocks: vec![BlockState::default(); cfg.num_blocks()],
        })
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.cfg.ways + way
    }

    /// Parallel tag compare: the way holding `page`, if present.
    pub fn lookup(&self, page: PageIndex) -> Option<usize> {
        let set = self.cfg.set_of(page);
        let tag = self.cfg.tag_of(page);
        (0..self.cfg.ways).find(|&w| {
            let b = &self.blocks[self.slot(set, w)];
            b.valid && b.tag == tag
        })
    }

    /// `true` when `page` is cached.
    pub fn contains(&self, page: PageIndex) -> bool {
        self.lookup(page).is_some()
    }

    /// Number of valid blocks.
    pub fn occupancy(&self) -> usize {
        self.blocks.iter().filter(|b| b.valid).count()
    }

    /// Read-only view of a block (diagnostics and tests).
    pub fn block(&self, set: usize, way: usize) -> &BlockState {
        &self.blocks[self.slot(set, way)]
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
        admission: &mut dyn AdmissionPolicy,
        eviction: &mut dyn EvictionPolicy,
    ) -> AccessOutcome {
        let page = record.page();
        if let Some(way) = self.lookup(page) {
            // Hit: bypass the policy engine entirely.
            let ctx = AccessCtx {
                page,
                op: record.op,
                seq,
                score: None,
            };
            let set = self.cfg.set_of(page);
            let slot = self.slot(set, way);
            if record.op == Op::Write {
                self.blocks[slot].dirty = true;
            }
            eviction.on_hit(set, way, &ctx);
            return AccessOutcome::Hit { way };
        }

        let ctx = AccessCtx {
            page,
            op: record.op,
            seq,
            score,
        };
        if !admission.should_admit(&ctx) {
            return AccessOutcome::MissBypassed;
        }
        let (way, evicted) = self.insert(page, record.op, &ctx, eviction);
        AccessOutcome::MissInserted { way, evicted }
    }

    /// Inserts `page` (which must not be present), evicting if needed.
    fn insert(
        &mut self,
        page: PageIndex,
        op: Op,
        ctx: &AccessCtx,
        eviction: &mut dyn EvictionPolicy,
    ) -> (usize, Option<Eviction>) {
        let set = self.cfg.set_of(page);
        let tag = self.cfg.tag_of(page);
        // Prefer an invalid way.
        let way = (0..self.cfg.ways)
            .find(|&w| !self.blocks[self.slot(set, w)].valid)
            .unwrap_or_else(|| eviction.choose_victim(set, self.cfg.ways, ctx));
        debug_assert!(way < self.cfg.ways, "policy returned way out of range");
        let slot = self.slot(set, way);
        let old = self.blocks[slot];
        let evicted = if old.valid {
            Some(Eviction {
                page: self.cfg.page_of(set, old.tag),
                dirty: old.dirty,
            })
        } else {
            None
        };
        self.blocks[slot] = BlockState {
            tag,
            valid: true,
            // Write-allocate: a write miss fetches the page then dirties it.
            dirty: op == Op::Write,
        };
        eviction.on_insert(set, way, ctx);
        (way, evicted)
    }

    /// Invalidates everything (keeps policy state; intended for tests and
    /// phase-reset experiments).
    pub fn clear(&mut self) {
        for b in &mut self.blocks {
            *b = BlockState::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AlwaysAdmit, LruPolicy, ThresholdAdmit};

    fn tiny() -> (SetAssocCache, LruPolicy) {
        // 2 sets × 2 ways.
        let cfg = CacheConfig {
            capacity_bytes: 4 * 4096,
            block_bytes: 4096,
            ways: 2,
        };
        let c = SetAssocCache::new(cfg).unwrap();
        let p = LruPolicy::new(cfg.num_sets(), cfg.ways);
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
        let mut admit = AlwaysAdmit;
        assert!(!c.access(&read(4), 0, None, &mut admit, &mut lru).is_hit());
        assert!(c.access(&read(4), 1, None, &mut admit, &mut lru).is_hit());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_eviction_in_a_full_set() {
        let (mut c, mut lru) = tiny();
        let mut admit = AlwaysAdmit;
        // Pages 0, 2, 4 all map to set 0 (2 sets).
        c.access(&read(0), 0, None, &mut admit, &mut lru);
        c.access(&read(2), 1, None, &mut admit, &mut lru);
        // Touch page 0 so page 2 is LRU.
        c.access(&read(0), 2, None, &mut admit, &mut lru);
        let out = c.access(&read(4), 3, None, &mut admit, &mut lru);
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
        let mut admit = AlwaysAdmit;
        c.access(&write(0), 0, None, &mut admit, &mut lru);
        c.access(&read(2), 1, None, &mut admit, &mut lru);
        c.access(&read(2), 2, None, &mut admit, &mut lru); // page 0 is LRU
        let out = c.access(&read(4), 3, None, &mut admit, &mut lru);
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
        let mut admit = AlwaysAdmit;
        c.access(&read(4), 0, None, &mut admit, &mut lru);
        let set = c.config().set_of(PageIndex::new(4));
        let way = c.lookup(PageIndex::new(4)).unwrap();
        assert!(!c.block(set, way).dirty);
        c.access(&write(4), 1, None, &mut admit, &mut lru);
        assert!(c.block(set, way).dirty);
    }

    #[test]
    fn bypass_leaves_cache_untouched() {
        let (mut c, mut lru) = tiny();
        let mut admit = ThresholdAdmit::new(0.5);
        let out = c.access(&read(6), 0, Some(0.1), &mut admit, &mut lru);
        assert_eq!(out, AccessOutcome::MissBypassed);
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(PageIndex::new(6)));
    }

    #[test]
    fn distinct_tags_same_set_coexist() {
        let (mut c, mut lru) = tiny();
        let mut admit = AlwaysAdmit;
        c.access(&read(0), 0, None, &mut admit, &mut lru);
        c.access(&read(2), 1, None, &mut admit, &mut lru);
        assert!(c.contains(PageIndex::new(0)));
        assert!(c.contains(PageIndex::new(2)));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn clear_empties_the_cache() {
        let (mut c, mut lru) = tiny();
        let mut admit = AlwaysAdmit;
        c.access(&read(0), 0, None, &mut admit, &mut lru);
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(PageIndex::new(0)));
    }
}
