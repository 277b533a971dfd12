//! The bench harness's two measuring instruments: the sanctioned
//! wall-clock read ([`now`]) and a counting global allocator
//! ([`CountingAlloc`], [`count_allocs`]).
//!
//! Set `WSG_BENCH_FAST=1` ([`fast_mode`]) to shrink experiment parameter
//! grids for smoke runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Heap allocations observed by [`CountingAlloc`] since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes those allocations asked for (a `realloc` counts its new size).
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-delegating allocator that counts every allocation and the
/// bytes it asks for.
///
/// Registered as the `#[global_allocator]` of this crate (see `lib.rs`),
/// so the experiment binaries, `wsg_benchmark` and tests can measure allocations-per-message on the
/// serialization hot path. Deallocations are not counted — the interesting
/// number for the perf trajectory is how many times a code path *asks* the
/// allocator for memory.
pub struct CountingAlloc;

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: pure delegation to `System`; the counters are relaxed atomics
// with no allocation of their own, so the GlobalAlloc contract is inherited.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocations since process start (monotonic, process-wide).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// What a piece of code asked of the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Allocs {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

/// Run `f` and return its result plus the heap allocations it performed.
/// The counters are process-wide, so concurrent threads inflate them —
/// callers that need a tight bound should take the minimum over a few
/// trials.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let (calls, bytes) = (allocations(), ALLOCATED_BYTES.load(Ordering::Relaxed));
    let out = f();
    let allocs = Allocs {
        calls: allocations() - calls,
        bytes: ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes,
    };
    (out, allocs)
}

/// Whether `WSG_BENCH_FAST` smoke mode is on (shrinks experiment parameter
/// grids; recorded in the `--json` bench report).
pub fn fast_mode() -> bool {
    std::env::var("WSG_BENCH_FAST").map(|v| v != "0").unwrap_or(false)
}

/// The sanctioned wall-clock read.
///
/// Rule D2 (`wall-clock`, see `wsg_lint`) confines `Instant::now()` to
/// this module: measurement code elsewhere in the bench harness calls
/// `timing::now()` so every stopwatch in the workspace starts here.
pub fn now() -> Instant {
    Instant::now()
}
