//! Heap-allocation counting (in-repo `dhat` replacement).
//!
//! The workspace's perf discipline (DESIGN.md §10) says the steady-state
//! subframe loop must not touch the heap. Asserting that needs a way to
//! *count* allocations, hermetically. [`CountingAlloc`] wraps the system
//! allocator and bumps counters on every `alloc`/`realloc`; a scope
//! snapshots those counters around a region:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: poi360_testkit::CountingAlloc = poi360_testkit::CountingAlloc;
//!
//! let scope = GlobalAllocScope::enter();
//! hot_loop();
//! assert_eq!(scope.exit().allocs, 0, "steady state must not allocate");
//! ```
//!
//! The counters come in two flavors. The thread-local `Cell<u64>`s (with
//! const initializers, so reading or bumping them never allocates — a
//! lazily-initialized TLS slot would recurse into the allocator on first
//! touch) feed [`count_allocs`], which sees only the current thread.
//! Process-global relaxed atomics, bumped alongside the thread-locals,
//! feed [`GlobalAllocScope`], which sees **every** thread — the scope the
//! zero-alloc gate uses now that the grid's hot loop can run on shard
//! worker threads (a thread-local count around a sharded loop would
//! vacuously pass while the workers allocate freely). A third process-wide
//! total, [`live_bytes`], follows frees as well: its difference across a
//! `drop` is exactly the heap the dropped value held, which is how the
//! retained-heap gate holds finished reports to their exact size
//! (DESIGN.md §10). Installing the
//! allocator is the *binary's* choice — a `#[global_allocator]` item in
//! the test binary (`crates/bench/tests/zero_alloc.rs`) — so library
//! crates and ordinary test binaries keep the plain system allocator.
//! When the counting allocator is not installed, counts simply read
//! zero; a binary that asserts on them first checks
//! [`counting_is_active`], which performs a sentinel allocation and sees
//! whether the counters moved.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide totals across all threads (relaxed: the gate only reads
/// them outside the measured region, after the workers have joined or
/// gone idle at a barrier, so no ordering is required — only counts).
static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_BYTES: AtomicU64 = AtomicU64::new(0);

/// Bytes currently allocated, process-wide: successful `alloc`s add their
/// size, `dealloc`s subtract it and a `realloc` adds the difference
/// (wrapping arithmetic, so a shrink subtracts).
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn track_live(ptr: *mut u8, delta: u64) -> *mut u8 {
    if !ptr.is_null() {
        LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
    }
    ptr
}

#[inline]
fn bump(bytes: u64) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes));
    GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    GLOBAL_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// A `#[global_allocator]` shim that counts allocations per thread.
///
/// Delegates every operation to [`System`]; the only addition is the
/// bookkeeping. `dealloc` is deliberately not counted as an allocation —
/// the zero-alloc gate cares about *acquiring* heap memory in the hot
/// loop, and frees of pre-existing buffers (e.g. a shrink-to-fit outside
/// the measured region) would only muddy the signal. Frees do move the
/// separate live-byte total that [`live_bytes`] reads.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as u64);
        track_live(System.alloc(layout), layout.size() as u64)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as u64);
        track_live(System.alloc_zeroed(layout), layout.size() as u64)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc acquires heap (growth) or at least exercises the
        // allocator; either way the hot loop must not do it.
        bump(new_size as u64);
        let delta = (new_size as u64).wrapping_sub(layout.size() as u64);
        track_live(System.realloc(ptr, layout, new_size), delta)
    }
}

/// Allocation counts observed over a measured region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocStats {
    /// Heap acquisitions (`alloc` + `alloc_zeroed` + `realloc` calls).
    pub allocs: u64,
    /// Bytes requested across those acquisitions.
    pub bytes: u64,
}

/// Measure the allocations `f` performs on the current thread.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    let (allocs, bytes) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let r = f();
    let stats = AllocStats {
        allocs: ALLOCS.with(Cell::get) - allocs,
        bytes: BYTES.with(Cell::get) - bytes,
    };
    (r, stats)
}

/// Snapshot-based measurement of allocations across **all** threads.
///
/// This is the shard-aware scope: a region whose hot loop fans out to
/// worker threads (the sharded grid driver) must be measured here, not
/// with [`count_allocs`], or worker-side allocations escape the count.
/// Because the totals are process-wide, concurrent unrelated activity
/// (another test, a background thread) also lands in the delta — callers
/// that need an exact number must serialize such activity themselves.
#[derive(Debug)]
pub struct GlobalAllocScope {
    allocs_at_enter: u64,
    bytes_at_enter: u64,
}

impl GlobalAllocScope {
    /// Start counting from the process-wide totals.
    pub fn enter() -> Self {
        GlobalAllocScope {
            allocs_at_enter: GLOBAL_ALLOCS.load(Ordering::Relaxed),
            bytes_at_enter: GLOBAL_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Allocations on any thread since [`GlobalAllocScope::enter`].
    pub fn exit(self) -> AllocStats {
        AllocStats {
            allocs: GLOBAL_ALLOCS.load(Ordering::Relaxed) - self.allocs_at_enter,
            bytes: GLOBAL_BYTES.load(Ordering::Relaxed) - self.bytes_at_enter,
        }
    }
}

/// Bytes allocated and not yet freed, on every thread, since the process
/// started (0 when [`CountingAlloc`] is not installed). The difference
/// across a `drop` is exactly what the dropped value owned on the heap —
/// capacities, not lengths — provided no other thread allocates or frees
/// meanwhile.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Whether the counting allocator is actually installed in this binary.
///
/// Performs one sentinel heap allocation and checks that the thread's
/// counter moved. A zero-alloc assertion should require this first —
/// otherwise a binary that forgot its `#[global_allocator]` item would
/// vacuously pass.
pub fn counting_is_active() -> bool {
    let before = ALLOCS.with(Cell::get);
    let sentinel: Vec<u8> = Vec::with_capacity(64);
    std::hint::black_box(&sentinel);
    ALLOCS.with(Cell::get) > before
}

#[cfg(test)]
mod tests {
    use super::*;

    // The testkit test binary does NOT install CountingAlloc (that is a
    // per-binary decision), so these tests exercise the inactive path;
    // the active path is covered by poi360-bench's zero_alloc test which
    // installs the allocator for real.

    #[test]
    fn inactive_counting_reports_zero_deltas() {
        assert!(!counting_is_active());
        let ((), stats) = count_allocs(|| {
            let v: Vec<u64> = (0..1_000).collect();
            std::hint::black_box(&v);
        });
        assert_eq!(stats, AllocStats { allocs: 0, bytes: 0 });
        assert_eq!(live_bytes(), 0);
    }
}
