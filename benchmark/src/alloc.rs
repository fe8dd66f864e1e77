//! A counting global allocator: heap allocations and bytes requested,
//! counted only while the traced pass switches it on. Off, every call
//! forwards to the system allocator after one relaxed load, so the
//! untraced end-to-end numbers are taken with the same allocator the
//! program normally runs on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The allocator installed by `main.rs`.
pub struct CountingAlloc;

// Statistics only: none of these publishes other data, so `Relaxed` is
// enough; readers take a snapshot on the thread that ran the counted work.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub count: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

/// Switches counting on or off (process-wide).
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The counters now.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot { count: COUNT.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
}

impl AllocSnapshot {
    /// What was counted since `earlier`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot { count: self.count - earlier.count, bytes: self.bytes - earlier.bytes }
    }
}
