//! Differential suite for training-cell extraction.
//!
//! `training_cells` builds the `(page, timestamp)` cells one Algorithm 1
//! timestamp class at a time, sorting a class's pages in a 4 096-page
//! scratch, then sorts the cells and merges the partial cells of a class
//! that overflowed it; `extract_weighted_cells_range` is its `f64` form over
//! an explicit range.
//! The oracle here is the extraction they replaced — a `HashMap` from key
//! to count, drained and sorted by `(page as f64, time as f64)` with
//! `partial_cmp` — with the Algorithm 1 clock spelled out as the paper's
//! `index` / `timestamp` counter pair, so they share no code. Over random traces (page 0 and
//! the highest page a record can name, heavy and light duplication), the
//! window / shot grid {1, 2, 32} × {1, 3, 10 000} and the ranges empty,
//! `0..len`, `len..len` and a random middle (for `training_cells`, the
//! `kept_range` of random trim fractions), both must return the oracle's
//! cells in the same order, bit for bit. A deterministic case holds one
//! class to several times the scratch.

use icgmm_trace::synth::WorkloadKind;
use icgmm_trace::{
    extract_weighted_cells_range, training_cells, PreprocessConfig, Trace, TraceRecord,
    TrainingCell, WeightedSample, MAX_PADDR,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// The `HashMap` extraction the sort replaced, with Algorithm 1 as counters.
fn oracle(
    records: &[TraceRecord],
    cfg: &PreprocessConfig,
    start: usize,
    end: usize,
) -> Vec<WeightedSample> {
    let mut cells: HashMap<(u64, u64), u64> = HashMap::new();
    let (mut index, mut timestamp) = (0u32, 0u64);
    for (i, r) in records[..end].iter().enumerate() {
        if i >= start {
            *cells.entry((r.page().raw(), timestamp)).or_insert(0) += 1;
        }
        index += 1;
        if index >= cfg.len_window {
            index = 0;
            timestamp += 1;
            if timestamp >= u64::from(cfg.len_access_shot) {
                timestamp = 0;
            }
        }
    }
    let mut out: Vec<WeightedSample> = cells
        .into_iter()
        .map(|((p, ts), w)| WeightedSample {
            page: p as f64,
            time: ts as f64,
            weight: w as f64,
        })
        .collect();
    out.sort_by(|a, b| {
        (a.page, a.time)
            .partial_cmp(&(b.page, b.time))
            .expect("page/time are finite")
    });
    out
}

/// Cells as bit patterns, so `==` is bit identity (and order).
fn bits(cells: &[WeightedSample]) -> Vec<[u64; 3]> {
    cells
        .iter()
        .map(|c| [c.page.to_bits(), c.time.to_bits(), c.weight.to_bits()])
        .collect()
}

/// Compact cells as the `f64` bit patterns the trainer sees; exact, since
/// pages are `< 2⁵¹` and times and weights are `u32`.
fn compact_bits(cells: &[TrainingCell]) -> Vec<[u64; 3]> {
    cells
        .iter()
        .map(|c| {
            let page = c.page as f64;
            assert_eq!(page as u64, c.page, "page {} is not exact in f64", c.page);
            [
                page.to_bits(),
                f64::from(c.time).to_bits(),
                f64::from(c.weight).to_bits(),
            ]
        })
        .collect()
}

const WINDOWS: [u32; 3] = [1, 2, 32];
const SHOTS: [u32; 3] = [1, 3, 10_000];

/// One byte address per `(kind, raw)` draw: the top page, page 0, a page
/// from a small pool (heavy duplication) or anywhere (light duplication).
fn paddr(kind: u64, raw: u64, pool: u64) -> u64 {
    match kind % 4 {
        0 => MAX_PADDR,
        1 => raw % 4096,
        2 => ((raw % pool) << 12) | (raw >> 52),
        _ => raw & MAX_PADDR,
    }
}

proptest! {
    #[test]
    fn sorted_runs_equal_the_hash_map_oracle(
        draws in prop::collection::vec((0u64..4, any::<u64>()), 0..2_500),
        pool in 1u64..64,
        window in 0usize..3,
        shot in 0usize..3,
        cut in (any::<u64>(), any::<u64>()),
    ) {
        let records: Vec<TraceRecord> = draws
            .iter()
            .map(|&(kind, raw)| {
                let addr = paddr(kind, raw, pool);
                if raw & 1 == 0 { TraceRecord::read(addr) } else { TraceRecord::write(addr) }
            })
            .collect();
        let cfg = PreprocessConfig {
            len_window: WINDOWS[window],
            len_access_shot: SHOTS[shot],
            ..Default::default()
        };
        let n = records.len();
        let (a, b) = (cut.0 as usize % (n + 1), cut.1 as usize % (n + 1));
        for (start, end) in [(0, 0), (0, n), (n, n), (a.min(b), a.max(b))] {
            let got = extract_weighted_cells_range(&records, &cfg, start, end);
            let want = oracle(&records, &cfg, start, end);
            prop_assert_eq!(
                bits(&got),
                bits(&want),
                "window {}, shot {}, range {}..{} of {}",
                cfg.len_window, cfg.len_access_shot, start, end, n
            );
        }
    }

    #[test]
    fn compact_cells_equal_the_hash_map_oracle(
        draws in prop::collection::vec((0u64..4, any::<u64>()), 0..2_500),
        pool in 1u64..64,
        window in 0usize..3,
        shot in 0usize..3,
        fracs in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let trace: Trace = draws
            .iter()
            .map(|&(kind, raw)| {
                let addr = paddr(kind, raw, pool);
                if raw & 1 == 0 { TraceRecord::read(addr) } else { TraceRecord::write(addr) }
            })
            .collect();
        // Untrimmed, the default trim, and a random (possibly empty) cut.
        for (warmup_frac, tail_frac) in [(0.0, 0.0), (0.2, 0.1), fracs] {
            let cfg = PreprocessConfig {
                warmup_frac,
                tail_frac,
                len_window: WINDOWS[window],
                len_access_shot: SHOTS[shot],
            };
            let (start, end) = cfg.kept_range(trace.len());
            let got = training_cells(&trace, &cfg);
            let want = oracle(trace.records(), &cfg, start, end);
            prop_assert_eq!(
                compact_bits(&got),
                bits(&want),
                "window {}, shot {}, range {}..{} of {}",
                cfg.len_window, cfg.len_access_shot, start, end, trace.len()
            );
        }
    }
}

#[test]
fn top_and_bottom_pages_are_exact_and_ordered() {
    let records = [
        TraceRecord::read(MAX_PADDR),
        TraceRecord::write(0),
        TraceRecord::read(MAX_PADDR - 4095),
        TraceRecord::read(4095),
    ];
    let cfg = PreprocessConfig {
        warmup_frac: 0.0,
        tail_frac: 0.0,
        len_window: 2,
        len_access_shot: 3,
    };
    let cells = training_cells(&Trace::from_records(records.to_vec()), &cfg);
    let top = MAX_PADDR >> 12;
    let got: Vec<(u64, u32, u32)> = cells.iter().map(|c| (c.page, c.time, c.weight)).collect();
    assert_eq!(got, [(0, 0, 1), (0, 1, 1), (top, 0, 1), (top, 1, 1)]);
    let want = oracle(&records, &cfg, 0, 4);
    assert_eq!(compact_bits(&cells), bits(&want));
    assert_eq!(
        bits(&extract_weighted_cells_range(&records, &cfg, 0, 4)),
        bits(&want)
    );
}

#[test]
fn generated_workloads_equal_the_oracle_over_their_kept_range() {
    // Default Algorithm 1 lengths over 40 000 requests: the clock wraps
    // past its 10 000-window shot only with one request per window, so run
    // both.
    for kind in WorkloadKind::all() {
        let trace = kind.default_workload().generate(40_000, 7);
        for len_window in [1, 32] {
            let cfg = PreprocessConfig {
                len_window,
                ..Default::default()
            };
            let (start, end) = cfg.kept_range(trace.len());
            let want = oracle(trace.records(), &cfg, start, end);
            let got = training_cells(&trace, &cfg);
            assert_eq!(
                compact_bits(&got),
                bits(&want),
                "{kind}, len_window {len_window}"
            );
            let got = extract_weighted_cells_range(trace.records(), &cfg, start, end);
            assert_eq!(bits(&got), bits(&want), "{kind}, len_window {len_window}");
        }
    }
}

#[test]
fn a_class_past_the_scratch_folds_back_into_the_oracle() {
    // `len_access_shot` = 1 puts every window in one class: 14 000 kept
    // records are over 3× the 4 096-page scratch. Pages come from a pool of
    // 37, so every page has a run in each scratch-full, and their partial
    // cells must merge back into one per page.
    let trace: Trace = (0..20_000u64)
        .map(|i| {
            let addr = ((i * 0x9E37_79B9) % 37) << 12;
            if i % 3 == 0 {
                TraceRecord::write(addr)
            } else {
                TraceRecord::read(addr)
            }
        })
        .collect();
    for len_window in [1, 32] {
        let cfg = PreprocessConfig {
            len_window,
            len_access_shot: 1,
            ..Default::default()
        };
        let (start, end) = cfg.kept_range(trace.len());
        assert!(end - start >= 3 * 4_096);
        let want = oracle(trace.records(), &cfg, start, end);
        assert_eq!(want.len(), 37);
        let got = training_cells(&trace, &cfg);
        assert_eq!(compact_bits(&got), bits(&want), "len_window {len_window}");
        let got = extract_weighted_cells_range(trace.records(), &cfg, start, end);
        assert_eq!(bits(&got), bits(&want), "len_window {len_window}");
    }
}
