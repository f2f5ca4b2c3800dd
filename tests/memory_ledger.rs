//! The byte ledger counts what the heap holds: a generation's reported
//! footprint (`Generation::memory_bytes` plus its compressor's
//! `Hope::heap_bytes`) must match, within 10%, the bytes a counting
//! allocator sees freed when the generation is dropped.
//!
//! This file holds a single `#[test]` so the test harness cannot run a
//! neighbour concurrently and pollute the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use hope_store::prelude::*;

struct CountingAlloc;

/// Bytes currently allocated (requested sizes).
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// relaxed atomic (a statistic publishing no other data) and touches no
// allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
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
        // SAFETY: `ptr` came from this allocator (i.e. from `System`) with
        // `layout`, as the caller guarantees.
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

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Drop `value`; return the heap bytes that freed.
fn held_by<T>(value: T) -> i64 {
    let before = LIVE.load(Ordering::Relaxed);
    drop(value);
    before - LIVE.load(Ordering::Relaxed)
}

#[test]
fn generation_footprint_matches_the_heap_it_frees() {
    let keys = |n: u64| (0..n).map(|i| (format!("com.gmail@user{:07}", i * 7).into_bytes(), i));
    for (scheme, backend) in [
        (Scheme::DoubleChar, Backend::BTree),
        (Scheme::DoubleChar, Backend::PrefixBTree),
        (Scheme::ThreeGrams, Backend::BTree),
        (Scheme::SingleChar, Backend::BTree),
    ] {
        let cfg = StoreConfig { shards: 1, scheme, backend, ..StoreConfig::default() };
        let store = HopeStore::build(cfg, keys(40_000)).unwrap();
        // Updates and fresh keys: a grown log, a grown slot table.
        for (k, v) in keys(50_000).step_by(3) {
            store.insert(k, v + 1).unwrap();
        }
        let generation = store.generation(0).unwrap();
        // Build the lazily built decoder so the ledger has to count it.
        generation.hope().shared_fast_decoder();
        // The store held the other reference; the generation is now the
        // last owner of everything it reports.
        drop(store);
        let reported = (generation.memory_bytes() + generation.hope().heap_bytes()) as f64;
        let freed = held_by(generation) as f64;
        let off = (reported - freed).abs() / freed;
        assert!(
            off <= 0.10,
            "{scheme:?}/{backend:?}: reported {reported} B, dropping freed {freed} B ({:.1}% off)",
            off * 100.0
        );
    }
}
