//! Counting global allocator shared by the allocation-pinning test
//! binaries. Each of them holds exactly one `#[test]`: the byte counter is
//! process-global, and a sibling test running concurrently would perturb
//! the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts cumulative allocated bytes; frees are ignored so the delta
/// over a call is "bytes requested", not peak or net.
struct CountingAlloc;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates verbatim to `System`; the only addition is a relaxed
// counter bump, which cannot violate the `GlobalAlloc` contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result plus the bytes allocated inside it.
pub fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let r = f();
    (r, ALLOCATED.load(Ordering::Relaxed) - before)
}
