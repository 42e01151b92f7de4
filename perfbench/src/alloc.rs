//! Allocation counting: the benchmark binary's global allocator forwards
//! to the system allocator and, while counting is switched on, counts
//! every allocation call — in total, and separately for the threads the
//! benchmark itself owns (main and load-client threads), so the stack's
//! share is `total - own`.
//!
//! This file is the benchmark's only unsafe code: implementing
//! `GlobalAlloc` is an unsafe trait impl by definition. Each method
//! forwards its arguments unchanged to `System`, so every safety
//! contract the caller upholds for this allocator holds for `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The counting allocator (installed in `main.rs`).
pub struct CountingAlloc;

// All three are statistics that publish no other data: `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);
static OWN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialised `Cell<bool>`: no destructor and no lazy
    // allocation, so reading it from inside the allocator cannot recurse.
    static BENCH_THREAD: Cell<bool> = const { Cell::new(false) };
}

#[inline]
fn count() {
    if ENABLED.load(Ordering::Relaxed) {
        TOTAL.fetch_add(1, Ordering::Relaxed);
        if BENCH_THREAD.try_with(Cell::get).unwrap_or(false) {
            OWN.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees (valid, suitably aligned memory;
// frees only what it handed out) are this allocator's guarantees. The
// counting itself touches only atomics and a const thread-local, neither
// of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via one of the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Mark the calling thread as the benchmark's own (excluded from the
/// stack's allocation count).
pub fn mark_own_thread() {
    BENCH_THREAD.with(|b| b.set(true));
}

/// Allocation counts since counting was last switched on.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCounts {
    /// Every allocation call in the process.
    pub total: u64,
    /// Calls made on the benchmark's own threads.
    pub own: u64,
}

impl AllocCounts {
    /// Calls made on every other thread (the system under test).
    pub fn others(self) -> u64 {
        self.total.saturating_sub(self.own)
    }
}

/// Reset both counters and start counting.
pub fn start() {
    TOTAL.store(0, Ordering::Relaxed);
    OWN.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop counting and return what was counted.
pub fn stop() -> AllocCounts {
    ENABLED.store(false, Ordering::SeqCst);
    AllocCounts {
        total: TOTAL.load(Ordering::Relaxed),
        own: OWN.load(Ordering::Relaxed),
    }
}
