//! Cache geometry (the paper's case study: 64 MiB, 4 KiB blocks, 8-way).

use icgmm_trace::PageIndex;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error returned for inconsistent cache geometry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfigError {
    pub(crate) what: String,
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cache configuration: {}", self.what)
    }
}

impl Error for CacheConfigError {}

/// Set-associative DRAM-cache geometry.
///
/// The block size must equal the SSD access granularity (4 KiB) — the
/// paper's granularity-mismatch argument (§2.1) — though the simulator
/// accepts any power-of-two block for sensitivity studies.
///
/// ```
/// use icgmm_cache::CacheConfig;
/// let c = CacheConfig::paper_default();
/// assert_eq!(c.num_blocks(), 16_384);
/// assert_eq!(c.num_sets(), 2_048);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total cache capacity in bytes.
    pub capacity_bytes: u64,
    /// Block (cache-line) size in bytes — one SSD page.
    pub block_bytes: u64,
    /// Associativity (blocks per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Validated construction: the only way to obtain a `CacheConfig`
    /// without spelling out the fields, and the place zero-way (and other
    /// degenerate) geometries are rejected — policy constructors may then
    /// assume `ways >= 1` (see [`crate::LruPolicy::new`] and friends).
    ///
    /// # Errors
    ///
    /// Exactly [`CacheConfig::validate`]'s rules.
    pub fn new(
        capacity_bytes: u64,
        block_bytes: u64,
        ways: usize,
    ) -> Result<Self, CacheConfigError> {
        let cfg = CacheConfig {
            capacity_bytes,
            block_bytes,
            ways,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// The paper's hardware deployment: 64 MiB, 4 KiB blocks, 8 ways.
    pub fn paper_default() -> Self {
        CacheConfig {
            capacity_bytes: 64 * 1024 * 1024,
            block_bytes: icgmm_trace::PAGE_SIZE,
            ways: 8,
        }
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns an error unless capacity, block size and ways are non-zero
    /// powers-of-two-compatible values that divide evenly into at least one
    /// set.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        let err = |m: &str| {
            Err(CacheConfigError {
                what: m.to_string(),
            })
        };
        if self.block_bytes == 0 || !self.block_bytes.is_power_of_two() {
            return err("block_bytes must be a non-zero power of two");
        }
        if self.ways == 0 {
            return err("ways must be >= 1");
        }
        if self.capacity_bytes == 0 || !self.capacity_bytes.is_multiple_of(self.block_bytes) {
            return err("capacity must be a non-zero multiple of block_bytes");
        }
        let blocks = self.capacity_bytes / self.block_bytes;
        if !blocks.is_multiple_of(self.ways as u64) {
            return err("block count must be divisible by ways");
        }
        if blocks / self.ways as u64 == 0 {
            return err("geometry yields zero sets");
        }
        Ok(())
    }

    /// Total number of blocks.
    pub fn num_blocks(&self) -> usize {
        (self.capacity_bytes / self.block_bytes) as usize
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_blocks() / self.ways
    }

    /// Set index of a page (modulo mapping, as in the hardware's
    /// set-index decode). Re-derives the geometry on every call — loops
    /// decode it once with [`SetMap::new`] — and panics on a geometry
    /// [`CacheConfig::validate`] rejects.
    pub fn set_of(&self, page: PageIndex) -> usize {
        self.decode().split(page).0
    }

    /// Tag of a page (the bits above the set index).
    pub fn tag_of(&self, page: PageIndex) -> u64 {
        self.decode().split(page).1
    }

    /// Reconstructs a page from `(set, tag)` — inverse of
    /// [`CacheConfig::set_of`]/[`CacheConfig::tag_of`].
    pub fn page_of(&self, set: usize, tag: u64) -> PageIndex {
        self.decode().page_of(set, tag)
    }

    fn decode(&self) -> SetMap {
        let sets = self.num_sets() as u64;
        SetMap {
            sets,
            shift: sets.is_power_of_two().then(|| sets.trailing_zeros()),
        }
    }
}

/// The set mapping of one geometry, decoded once: `page → (set, tag)` by
/// shift and mask when the set count is a power of two (every paper
/// geometry), by one division otherwise — chosen from the set count alone.
/// Built only from a *validated* [`CacheConfig`], so it never divides by
/// zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetMap {
    sets: u64,
    /// `log2(sets)` when the set count is a power of two.
    shift: Option<u32>,
}

impl SetMap {
    /// Decodes `cfg`'s set mapping.
    ///
    /// # Errors
    ///
    /// Exactly [`CacheConfig::validate`]'s rules.
    pub fn new(cfg: &CacheConfig) -> Result<Self, CacheConfigError> {
        cfg.validate()?;
        Ok(cfg.decode())
    }

    /// `(set, tag)` of a page: `page mod sets` and `page div sets`.
    #[inline]
    pub fn split(&self, page: PageIndex) -> (usize, u64) {
        let p = page.raw();
        match self.shift {
            Some(shift) => ((p & (self.sets - 1)) as usize, p >> shift),
            None => ((p % self.sets) as usize, p / self.sets),
        }
    }

    /// Reconstructs a page from `(set, tag)` — inverse of
    /// [`SetMap::split`].
    pub fn page_of(&self, set: usize, tag: u64) -> PageIndex {
        PageIndex::new(tag * self.sets + set as u64)
    }

    /// The set count.
    pub fn sets(&self) -> usize {
        self.sets as usize
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let c = CacheConfig::paper_default();
        assert!(c.validate().is_ok());
        assert_eq!(c.num_blocks(), 16_384);
        assert_eq!(c.num_sets(), 2_048);
        assert_eq!(c.ways, 8);
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        let mut c = CacheConfig::paper_default();
        c.block_bytes = 0;
        assert!(c.validate().is_err());
        c = CacheConfig {
            block_bytes: 3000,
            ..CacheConfig::paper_default()
        };
        assert!(c.validate().is_err());
        c = CacheConfig {
            ways: 0,
            ..CacheConfig::paper_default()
        };
        assert!(c.validate().is_err());
        c = CacheConfig {
            capacity_bytes: 4096 * 7,
            block_bytes: 4096,
            ways: 8,
        };
        assert!(c.validate().is_err());
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("invalid cache configuration"));
    }

    #[test]
    fn validated_constructor_rejects_zero_ways() {
        assert!(CacheConfig::new(64 * 4096, 4096, 0).is_err());
        let ok = CacheConfig::new(64 * 4096, 4096, 4).unwrap();
        assert_eq!(ok.ways, 4);
        assert_eq!(ok.num_sets(), 16);
        let msg = CacheConfig::new(4096, 4096, 0).unwrap_err().to_string();
        assert!(msg.contains("ways must be >= 1"));
    }

    /// `sets` sets of `ways` 4 KiB blocks.
    fn geometry(sets: u64, ways: usize) -> CacheConfig {
        CacheConfig::new(sets * ways as u64 * 4096, 4096, ways).unwrap()
    }

    #[test]
    fn page_mapping_round_trips() {
        // Power-of-two (shift/mask) and other (division) set counts, pages
        // up to `u64::MAX`; the config's methods and the decoded map are
        // the same arithmetic.
        for sets in [1u64, 2, 3, 6, 12, 1_000, 2_048, 1 << 40] {
            let c = geometry(sets, 1);
            let map = SetMap::new(&c).unwrap();
            let near = |x: u64| [x.wrapping_sub(1), x, x.wrapping_add(1)];
            let pages = [0, 2_047, 123_456_789, sets, 1 << 63, u64::MAX - sets]
                .into_iter()
                .flat_map(near);
            for raw in pages {
                let p = PageIndex::new(raw);
                let (set, tag) = map.split(p);
                assert_eq!(
                    (set as u64, tag),
                    (raw % sets, raw / sets),
                    "{raw} / {sets}"
                );
                assert_eq!(map.page_of(set, tag), p);
                assert_eq!((c.set_of(p), c.tag_of(p)), (set, tag));
                assert_eq!(c.page_of(set, tag), p);
            }
        }
    }

    #[test]
    fn set_map_needs_a_validated_geometry() {
        // Zero sets (7 blocks, 8 ways), zero ways and a zero block size
        // are typed errors — the mapping never gets to divide by them.
        for (capacity_bytes, block_bytes, ways) in [(4096 * 7, 4096, 8), (4096, 4096, 0), (0, 0, 1)]
        {
            let cfg = CacheConfig {
                capacity_bytes,
                block_bytes,
                ways,
            };
            assert_eq!(SetMap::new(&cfg).unwrap_err(), cfg.validate().unwrap_err());
        }
        assert!(SetMap::new(&geometry(3, 9)).is_ok());
    }

    #[test]
    fn consecutive_pages_hit_different_sets() {
        let c = CacheConfig::paper_default();
        let s0 = c.set_of(PageIndex::new(100));
        let s1 = c.set_of(PageIndex::new(101));
        assert_ne!(s0, s1);
    }
}
