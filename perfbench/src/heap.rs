//! The benchmark binary's global allocator: the repository's counting
//! allocator (allocation counts and requested bytes) plus live and peak
//! heap bytes.
//!
//! Peak heap bytes are the benchmark's memory metric rather than the
//! resident set: under glibc the resident set of one workload lands on
//! different plateaus from run to run (its dynamic mmap threshold and
//! per-thread arenas keep freed memory or return it depending on thread
//! timing), while live heap bytes depend only on what the program holds.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

use sasgd_bench::alloc::CountingAllocator;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// [`CountingAllocator`] plus live/peak byte tracking. The counters are
/// statistics that publish no other data, so `Relaxed` suffices.
pub struct PeakHeap;

fn grow(n: usize) {
    let n = n as u64;
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(n: usize) {
    LIVE.fetch_sub(n as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to
// `CountingAllocator` (which forwards to `System`) and returns its result
// unchanged; the byte counters are bookkeeping only.
unsafe impl GlobalAlloc for PeakHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc` contract, passed through.
        let p = unsafe { CountingAllocator.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc_zeroed` contract, passed through.
        let p = unsafe { CountingAllocator.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `realloc` contract (`ptr` from this
        // allocator with `layout`), passed through.
        let p = unsafe { CountingAllocator.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `dealloc` contract, passed through.
        unsafe { CountingAllocator.dealloc(ptr, layout) };
        shrink(layout.size());
    }
}

/// Start a new peak window at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap size since the last [`reset_peak`], in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
