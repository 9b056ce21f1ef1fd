//! `Icgmm::fit`'s peak heap. The training cells are built one Algorithm 1
//! timestamp class at a time (a class's pages sorted in a fixed 32 KiB
//! scratch, a counting pass sizing the output exactly), then sorted and
//! subsampled in place, and the buffer is dropped before EM, so training
//! peaks at 16 bytes per *cell* — not per kept record — plus the scratch
//! and what EM and the threshold calibration need for `max_train_cells`
//! cells. A counting global allocator tracks live bytes (allocated −
//! freed) and their maximum; `GlobalAlloc`'s default `realloc` allocates,
//! copies and frees, so a growing `Vec` counts both buffers. This binary
//! holds one test: the counters are process-global, and a sibling test
//! running concurrently would perturb them.

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

/// The timestamp-class scratch: 4 096 pages of 8 bytes.
const CLASS_SCRATCH_BYTES: usize = 32 << 10;
/// Bytes per trained cell: its point and weight (`[f64; 2]` + `f64`), built
/// while the cell buffer is still alive.
const TRAINED_BYTES_PER_CELL: usize = 24;
/// Everything else at K = 8 on 4 000 cells — the mixture, its scorer, EM's
/// and the threshold calibration's scratch; measured ≈ 32 KiB.
const EM_FIXED_BYTES: usize = 64 << 10;
const K: usize = 8;
const MAX_TRAIN_CELLS: usize = 4_000;

/// 200 000 requests over a multiplicative scramble of `i / repeat` (odd,
/// and prime to 5, so distinct below 80 M): each page is `repeat`
/// consecutive requests inside one 32-request window.
fn trace(repeat: u64) -> Trace {
    (0..200_000u64)
        .map(|i| TraceRecord::read((((i / repeat) * 0x9E37_79B9) % 80_000_000) << 12))
        .collect()
}

#[test]
fn fit_peaks_at_sixteen_bytes_per_cell() {
    let cfg = IcgmmConfig {
        em: EmConfig {
            k: K,
            max_iters: 10,
            ..Default::default()
        },
        max_train_cells: MAX_TRAIN_CELLS,
        ..IcgmmConfig::default()
    };
    // All-distinct pages: the 140 000 kept records make 140 000 cells, 35×
    // `max_train_cells`. Four requests per page: 35 000 cells, so a buffer
    // sized by records instead of cells would be 4× over.
    for repeat in [1, 4] {
        let trace = trace(repeat);
        let mut sys = Icgmm::new(cfg).expect("valid config");

        let entry = LIVE.load(Relaxed);
        PEAK.store(entry, Relaxed);
        let fit = sys.fit(&trace).expect("training succeeds").clone();
        let peak = PEAK.load(Relaxed) - entry;

        assert_eq!(
            fit.cells_total,
            fit.records_used / repeat as usize,
            "{fit:?}"
        );
        assert!(fit.cells_total > 8 * MAX_TRAIN_CELLS, "{fit:?}");
        assert_eq!(fit.cells_trained, MAX_TRAIN_CELLS);
        let budget = 16 * fit.cells_total
            + CLASS_SCRATCH_BYTES
            + TRAINED_BYTES_PER_CELL * MAX_TRAIN_CELLS
            + EM_FIXED_BYTES;
        println!(
            "fit peak {peak} B = {:.2} B per cell ({} records, {} cells); budget {budget} B",
            peak as f64 / fit.cells_total as f64,
            fit.records_used,
            fit.cells_total
        );
        assert!(
            peak <= budget,
            "{repeat} requests per page: fit peaked at {peak} B, over its {budget} B budget"
        );
    }
}
