//! The benchmark's own counting allocator: live bytes, peak live bytes and
//! an allocation count, process-wide.
//!
//! It stays installed in every mode (spans on or off, every workload), so
//! its cost — three relaxed atomic operations per allocation — is part of
//! both sides of any comparison and cancels.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

// Relaxed everywhere: these are statistics. Readers sample them on the
// main thread between repetitions, after the fan-out has been joined.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // The peak moves rarely once a repetition is warm; the load keeps the
    // common path to one shared write.
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// System allocator plus live/peak/count bookkeeping.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes currently allocated and not yet freed.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Highest [`live_bytes`] seen since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restart peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

/// Allocations (`alloc`, `alloc_zeroed`, `realloc`) since process start.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_a_large_allocation_and_survives_its_free() {
        // Other tests allocate concurrently, so assert only what a 32 MiB
        // block must move: far more than their noise.
        const BLOCK: usize = 32 << 20;
        reset_peak();
        let before_live = live_bytes();
        let before_allocs = alloc_count();
        let block = vec![1u8; BLOCK];
        std::hint::black_box(&block);
        assert!(live_bytes() >= before_live + BLOCK / 2);
        assert!(alloc_count() > before_allocs);
        drop(block);
        assert!(peak_bytes() >= before_live + BLOCK / 2, "the peak outlives the free");
        assert!(live_bytes() < before_live + BLOCK / 2);
        reset_peak();
        assert!(peak_bytes() < before_live + BLOCK / 2, "reset restarts from the live size");
    }
}
