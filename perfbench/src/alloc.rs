//! A counting global allocator: the system allocator plus three
//! process-wide counters (allocation calls, bytes allocated, bytes live).
//!
//! The counters are plain relaxed atomics shared by every thread, so a
//! delta taken around a call is exact only while no other thread
//! allocates. The benchmark takes such deltas on its generator thread
//! while the front end's worker is parked waiting for the next request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counted.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Usage {
    /// Allocation calls so far (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes handed out so far.
    pub allocated_bytes: u64,
    /// Bytes currently live.
    pub live_bytes: u64,
}

impl Usage {
    /// The counters now.
    pub fn now() -> Usage {
        Usage {
            allocs: ALLOCS.load(Ordering::Relaxed),
            allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
            live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Allocation calls and bytes allocated since `earlier`.
    pub fn since(self, earlier: Usage) -> (u64, u64) {
        (
            self.allocs - earlier.allocs,
            self.allocated_bytes - earlier.allocated_bytes,
        )
    }
}
