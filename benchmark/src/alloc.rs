//! A counting wrapper over the system allocator.
//!
//! Counting is gated by a static flag that only the traced child sets, so
//! the untraced children (where every end-to-end number comes from) pay one
//! relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Statistics only: none of these publishes other data, so `Relaxed` is
// enough. Updates are a plain load and store, not a read-modify-write: the
// traced child has one thread, and a locked instruction per counter would
// make tracing cost more than half the run it observes. With more threads
// the counts would be approximate, nothing worse.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn bump(counter: &AtomicU64, by: u64) -> u64 {
    let now = counter.load(Relaxed) + by;
    counter.store(now, Relaxed);
    now
}

fn on_alloc(size: usize) {
    if ENABLED.load(Relaxed) {
        bump(&ALLOCS, 1);
        bump(&BYTES, size as u64);
        let live = bump(&LIVE, size as u64);
        if live > PEAK.load(Relaxed) {
            PEAK.store(live, Relaxed);
        }
    }
}

fn on_free(size: usize) {
    if ENABLED.load(Relaxed) {
        // Memory allocated before counting began may be freed after, so
        // the live count saturates at zero instead of wrapping.
        LIVE.store(LIVE.load(Relaxed).saturating_sub(size as u64), Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the wrapper only reads and updates its own atomic counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the counters.
#[derive(Clone, Copy, Default, Debug)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
    pub live: u64,
    pub peak: u64,
}

pub fn enable() {
    ENABLED.store(true, Relaxed);
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}
