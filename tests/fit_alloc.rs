//! `Icgmm::fit`'s peak heap. The training cells are built inside their own
//! sort buffer (16 bytes per kept record) and subsampled in place, and the
//! buffer is dropped before EM, so training peaks at 16 bytes per kept
//! record plus what EM and the threshold calibration need for
//! `max_train_cells` cells. A counting global allocator tracks live bytes
//! (allocated − freed) and their maximum; `GlobalAlloc`'s default
//! `realloc` allocates, copies and frees, so a growing `Vec` counts both
//! buffers. This binary holds one test: the counters are process-global,
//! and a sibling test running concurrently would perturb them.

use icgmm::{Icgmm, IcgmmConfig};
use icgmm_gmm::EmConfig;
use icgmm_trace::{Trace, TraceRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: delegates verbatim to `System`; the only addition is relaxed
// counter updates, which cannot violate the `GlobalAlloc` contract.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes per trained cell: its point and weight (`[f64; 2]` + `f64`), built
/// while the cell buffer is still alive.
const TRAINED_BYTES_PER_CELL: usize = 24;
/// Everything else at K = 8 on 4 000 cells — the mixture, its scorer, EM's
/// and the threshold calibration's scratch; measured ≈ 32 KiB.
const EM_FIXED_BYTES: usize = 64 << 10;
const K: usize = 8;
const MAX_TRAIN_CELLS: usize = 4_000;

#[test]
fn fit_peaks_at_sixteen_bytes_per_kept_record() {
    // 200 000 requests, each on its own page (a multiplicative scramble of
    // the position): the 140 000 kept records make 140 000 cells, 35×
    // `max_train_cells`.
    let trace: Trace = (0..200_000u64)
        .map(|i| TraceRecord::read(((i * 0x9E37_79B9) % 80_000_000) << 12))
        .collect();
    let cfg = IcgmmConfig {
        em: EmConfig {
            k: K,
            max_iters: 10,
            ..Default::default()
        },
        max_train_cells: MAX_TRAIN_CELLS,
        ..IcgmmConfig::default()
    };
    let mut sys = Icgmm::new(cfg).expect("valid config");

    let entry = LIVE.load(Relaxed);
    PEAK.store(entry, Relaxed);
    let fit = sys.fit(&trace).expect("training succeeds").clone();
    let peak = PEAK.load(Relaxed) - entry;

    assert!(fit.cells_total > 30 * MAX_TRAIN_CELLS, "{fit:?}");
    assert_eq!(fit.cells_trained, MAX_TRAIN_CELLS);
    let budget = 16 * fit.records_used + TRAINED_BYTES_PER_CELL * MAX_TRAIN_CELLS + EM_FIXED_BYTES;
    println!(
        "fit peak {peak} B = {:.2} B per kept record ({} records, {} cells); budget {budget} B",
        peak as f64 / fit.records_used as f64,
        fit.records_used,
        fit.cells_total
    );
    assert!(
        peak <= budget,
        "fit peaked at {peak} B, over its {budget} B budget"
    );
}
