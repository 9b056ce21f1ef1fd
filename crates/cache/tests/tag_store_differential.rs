//! Differential suite for the flat-row tag store.
//!
//! [`SetAssocCache`] keeps a set as a row of tags, an empty way holding a
//! tag no page can have, plus a row of dirty bytes, and finds a page with
//! one branch-free compare over the tag row. The
//! oracle here is the store it replaced — one `BlockState` per block, an
//! early-exit scan, the set mapping spelled out as `%` and `/` — kept in
//! this file so the two share no code. Over random geometries (power-of-
//! two and other set counts; 1, odd, 8, 9 and more than 64 ways), random
//! read/write streams (low pages and the highest pages a record can name)
//! and the whole eviction × admission grid, the two must report the same
//! outcome for every record and end in the same state.
//!
//! The second half pins the access path's contract: `access` is
//! `access_scored` with the score already in hand, and the lazy score runs
//! exactly once per miss and never on a hit — which is what keeps the
//! replay loop at one tag compare per request without moving the
//! policy engine's inference count.

use icgmm_cache::{
    simulate_streaming_observed_with_warmup, AccessCtx, AccessOutcome, BlockState, CacheConfig,
    Eviction, LatencyModel, Policy, ReplayEvent, ReplayObserver, ScoreSource, SetAssocCache,
};
use icgmm_testutil::{policy_for, ADMISSIONS, EVICTIONS};
use icgmm_trace::{Op, PageIndex, TraceRecord, MAX_PADDR};
use proptest::prelude::*;

/// The parent revision's tag store: array of `BlockState`, early-exit scan.
struct RefCache {
    sets: u64,
    ways: usize,
    blocks: Box<[BlockState]>,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            sets: cfg.num_sets() as u64,
            ways: cfg.ways,
            blocks: vec![BlockState::default(); cfg.num_blocks()].into(),
        }
    }

    fn set_of(&self, page: PageIndex) -> usize {
        (page.raw() % self.sets) as usize
    }

    fn block(&self, set: usize, way: usize) -> BlockState {
        self.blocks[set * self.ways + way]
    }

    fn lookup(&self, page: PageIndex) -> Option<usize> {
        let (set, tag) = (self.set_of(page), page.raw() / self.sets);
        (0..self.ways).find(|&w| {
            let b = self.block(set, w);
            b.valid && b.tag == tag
        })
    }

    fn occupancy(&self) -> usize {
        self.blocks.iter().filter(|b| b.valid).count()
    }

    fn clear(&mut self) {
        self.blocks.fill(BlockState::default());
    }

    fn access(
        &mut self,
        record: &TraceRecord,
        seq: u64,
        score: Option<f64>,
        policy: &mut Policy,
    ) -> AccessOutcome {
        let page = record.page();
        let set = self.set_of(page);
        let mut ctx = AccessCtx {
            page,
            op: record.op(),
            seq,
            score: None,
        };
        if let Some(way) = self.lookup(page) {
            if record.op() == Op::Write {
                self.blocks[set * self.ways + way].dirty = true;
            }
            policy.on_hit(set, way, &ctx);
            return AccessOutcome::Hit { way };
        }
        ctx.score = score;
        if !policy.admits(&ctx) {
            return AccessOutcome::MissBypassed;
        }
        let way = (0..self.ways)
            .find(|&w| !self.block(set, w).valid)
            .unwrap_or_else(|| policy.choose_victim(set, self.ways, &ctx));
        let old = self.block(set, way);
        let evicted = old.valid.then(|| Eviction {
            page: PageIndex::new(old.tag * self.sets + set as u64),
            dirty: old.dirty,
        });
        self.blocks[set * self.ways + way] = BlockState {
            tag: page.raw() / self.sets,
            valid: true,
            dirty: record.op() == Op::Write,
        };
        policy.on_insert(set, way, &ctx);
        AccessOutcome::MissInserted { way, evicted }
    }
}

const SETS: [u64; 6] = [1, 2, 3, 6, 12, 2_048];
const WAYS: [usize; 8] = [1, 2, 3, 8, 9, 16, 65, 100];

/// The highest page a record can name (`paddr >> 12`).
const TOP_PAGE: u64 = MAX_PADDR >> 12;

fn geometry(sets: u64, ways: usize) -> CacheConfig {
    CacheConfig::new(sets * ways as u64 * 4096, 4096, ways).expect("valid geometry")
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A conflict-heavy stream for any geometry: requests land in at most four
/// sets (first and last included) and draw from `2 × ways + 2` tags per
/// set, half of them counted up from page 0 and half down from
/// [`TOP_PAGE`], so every touched set fills and evicts however wide it is.
fn conflict_stream(seed: u64, n: usize, cfg: CacheConfig, write_pct: u64) -> Vec<TraceRecord> {
    let sets = cfg.num_sets() as u64;
    let tags = 2 * cfg.ways as u64 + 2;
    (0..n as u64)
        .map(|i| {
            let h = mix(seed ^ mix(i));
            let set = [0, sets - 1, sets / 2, (h >> 8) % sets][(h % 4) as usize];
            let below = ((h >> 16) % tags) * sets + set;
            let page = if (h >> 40) & 1 == 0 {
                below
            } else {
                TOP_PAGE - below
            };
            let paddr = (page << 12) | ((h >> 48) & 0xFC0);
            if (h >> 24) % 100 < write_pct {
                TraceRecord::write(paddr)
            } else {
                TraceRecord::read(paddr)
            }
        })
        .collect()
}

/// The `(page, seq)` hash score of `icgmm_testutil::score_for("fn")`'s
/// shape: straddles the 0.5 admission threshold constantly.
fn score_at(r: &TraceRecord, seq: u64) -> f64 {
    (mix(r.page().raw() ^ seq) >> 11) as f64 / (1u64 << 53) as f64
}

proptest! {
    /// Same outcome for every record, same blocks and occupancy at the end,
    /// same lookups — for every eviction × admission pair of the grid.
    #[test]
    fn flat_store_matches_the_reference_store(
        params in (0u64..1_000_000, 0usize..SETS.len(), 0usize..WAYS.len(), 200usize..1_200, 0u64..60)
    ) {
        let (seed, si, wi, n, write_pct) = params;
        let cfg = geometry(SETS[si], WAYS[wi]);
        let records = conflict_stream(seed, n, cfg, write_pct);
        for eviction in EVICTIONS {
            for admission in ADMISSIONS {
                let mut flat = SetAssocCache::new(cfg).unwrap();
                let mut oracle = RefCache::new(cfg);
                let policy = || policy_for(eviction, admission, cfg, &records);
                let (mut pol_a, mut pol_b) = (policy(), policy());
                for (i, r) in records.iter().enumerate() {
                    let seq = i as u64;
                    let score = Some(score_at(r, seq));
                    let got = flat.access(r, seq, score, &mut pol_a);
                    let want = oracle.access(r, seq, score, &mut pol_b);
                    prop_assert_eq!(
                        got, want,
                        "{}×{} {}/{} record {} {:?}", SETS[si], WAYS[wi], eviction, admission, i, r
                    );
                    prop_assert_eq!(flat.contains(r.page()), oracle.lookup(r.page()).is_some());
                }
                prop_assert_eq!(flat.occupancy(), oracle.occupancy());
                for set in 0..cfg.num_sets() {
                    for way in 0..cfg.ways {
                        prop_assert_eq!(flat.block(set, way), oracle.block(set, way));
                    }
                }
                // Lookups agree on cached pages, their near neighbours and
                // pages beyond what a record can name: just above
                // [`TOP_PAGE`] and at the top of the page space.
                for (i, r) in records.iter().enumerate().take(64) {
                    let off = mix(seed ^ i as u64) % 4_096;
                    let beyond = PageIndex::new(TOP_PAGE + 1 + off);
                    let far = PageIndex::new(u64::MAX - off);
                    let near = PageIndex::new(r.page().raw() ^ 1);
                    for p in [r.page(), near, beyond, far] {
                        prop_assert_eq!(flat.lookup(p), oracle.lookup(p), "lookup {:?}", p);
                    }
                }
                flat.clear();
                oracle.clear();
                prop_assert_eq!(flat.occupancy(), 0);
                prop_assert_eq!(flat.block(0, cfg.ways - 1), oracle.block(0, cfg.ways - 1));
                prop_assert!(records.iter().all(|r| !flat.contains(r.page())));
            }
        }
    }

    /// `access(.., score, ..)` ≡ `access_scored(.., || score, ..)`, the
    /// closure runs once per miss (bypassed ones included) and never on a
    /// hit, and the score handed back is the one consumed.
    #[test]
    fn lazy_score_runs_once_per_miss_and_never_on_a_hit(
        params in (0u64..1_000_000, 0usize..SETS.len(), 0usize..WAYS.len(), 200usize..1_200)
    ) {
        let (seed, si, wi, n) = params;
        let cfg = geometry(SETS[si], WAYS[wi]);
        let records = conflict_stream(seed, n, cfg, 25);
        for admission in ADMISSIONS {
            let mut eager = SetAssocCache::new(cfg).unwrap();
            let mut lazy = SetAssocCache::new(cfg).unwrap();
            let policy = || policy_for("gmm-score", admission, cfg, &records);
            let (mut pol_a, mut pol_b) = (policy(), policy());
            let (mut calls, mut misses) = (0u64, 0u64);
            for (i, r) in records.iter().enumerate() {
                let seq = i as u64;
                let score = Some(score_at(r, seq));
                let want = eager.access(r, seq, score, &mut pol_a);
                let (got, consumed) = lazy.access_scored(
                    r,
                    seq,
                    || {
                        calls += 1;
                        score
                    },
                    &mut pol_b,
                );
                prop_assert_eq!(got, want);
                misses += u64::from(!got.is_hit());
                prop_assert_eq!(consumed, if got.is_hit() { None } else { score });
                prop_assert_eq!(calls, misses, "record {}", i);
            }
        }
    }
}

/// A score source that logs the `(position, record)` pairs the replay
/// loop asks it to score.
#[derive(Default)]
struct CountingScore {
    asked: Vec<(u64, TraceRecord)>,
}

impl ScoreSource for CountingScore {
    fn score(&mut self, record: &TraceRecord, pos: u64) -> f64 {
        self.asked.push((pos, *record));
        (mix(pos) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The records a replay decided as misses, with their positions.
#[derive(Default)]
struct Misses(Vec<(u64, TraceRecord)>);

impl ReplayObserver for Misses {
    fn on_record(&mut self, ev: &ReplayEvent<'_>) {
        if !ev.outcome.is_hit() {
            self.0.push((ev.seq, *ev.record));
        }
    }
}

/// The replay step scores misses only: over a whole run the source is
/// asked for one score per miss — with that miss's own record and
/// position — and for none on a hit (so `gmm_inferences` cannot move).
#[test]
fn replay_asks_for_one_score_per_miss() {
    let cfg = geometry(6, 3);
    let records = conflict_stream(11, 4_000, cfg, 20);
    for admission in ADMISSIONS {
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let (mut src, mut misses) = (CountingScore::default(), Misses::default());
        let mut pol = policy_for("gmm-score", admission, cfg, &records);
        let report = simulate_streaming_observed_with_warmup(
            &[],
            &records,
            &mut cache,
            &mut pol.admit,
            &mut pol.evict,
            Some(&mut src),
            &LatencyModel::paper_tlc(),
            None,
            &mut misses,
        );
        assert_eq!(src.asked, misses.0, "{admission}");
        assert_eq!(src.asked.len() as u64, report.stats.misses());
        assert!(report.stats.hits() > 0 && report.stats.misses() > 0);
    }
}
