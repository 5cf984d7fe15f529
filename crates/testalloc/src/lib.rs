//! A recording global allocator for tests that must see what code
//! under test allocates. Linking this crate (as a dev-dependency, by
//! calling any of its functions) installs it as the test binary's
//! `#[global_allocator]`: the system allocator, plus per-thread
//! counters of how many allocations were requested and how large the
//! largest one was.
//!
//! ```
//! testalloc::reset();
//! let buf: Vec<u8> = Vec::with_capacity(4096);
//! assert!(testalloc::largest() >= 4096);
//! testalloc::reset();
//! drop(buf);
//! assert_eq!((testalloc::count(), testalloc::largest()), (0, 0));
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single allocation the current thread has requested
    /// (const-initialised and destructor-free, so the allocator may
    /// touch it at any point in a thread's life).
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Allocations (including reallocations) the current thread has
    /// requested.
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

/// Zeroes the current thread's counters.
pub fn reset() {
    LARGEST.with(|largest| largest.set(0));
    COUNT.with(|n| n.set(0));
}

/// Largest single allocation (bytes) the current thread requested since
/// its last [`reset`].
pub fn largest() -> usize {
    LARGEST.with(Cell::get)
}

/// Allocations and reallocations the current thread requested since its
/// last [`reset`].
pub fn count() -> usize {
    COUNT.with(Cell::get)
}

/// The system allocator, recording each request in the requesting
/// thread's counters.
struct RecordingAlloc;

fn record(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    let _ = COUNT.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping only
// touches `Cell<usize>`s and never allocates.
unsafe impl GlobalAlloc for RecordingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: RecordingAlloc = RecordingAlloc;
