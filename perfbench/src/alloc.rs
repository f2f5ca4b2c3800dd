//! Counting global allocator: the heap ledger behind every byte metric.
//!
//! Tracks the bytes currently allocated by the whole process. A
//! structure's heap is measured by the live-byte drop when it is freed
//! (see [`held_by`]), which counts exactly what it owns, nothing the
//! benchmark holds beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// The system allocator plus a live-byte counter.
pub struct Counting;

/// Bytes currently allocated (requested sizes, not allocator overhead).
/// `Relaxed`: a statistic that publishes no other data.
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter updates
// touch no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (i.e. by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        p
    }
}

/// Bytes the process has allocated and not yet freed.
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Drop `value` and return the heap bytes that freed: exactly what it
/// owned. Call it only while no other thread allocates.
pub fn held_by<T>(value: T) -> u64 {
    let before = live_bytes();
    drop(value);
    (before - live_bytes()).max(0) as u64
}
