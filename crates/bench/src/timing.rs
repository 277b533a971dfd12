//! A lightweight in-tree micro-benchmark timing harness.
//!
//! The `benches/*.rs` binaries (built with `harness = false`) use this
//! instead of an external benchmarking crate so the workspace stays free
//! of registry dependencies. It keeps the essentials of a credible
//! microbenchmark:
//!
//! * **calibration** — the iteration count is scaled until one batch
//!   takes ~10 ms, so per-iteration timings are not dominated by clock
//!   read overhead;
//! * **sampling** — ~20 batches are timed independently and min / median
//!   / mean ns-per-iteration are reported (min is the least noisy
//!   estimator on a shared machine, median guards against outliers);
//! * **black-boxing** — results flow through [`std::hint::black_box`] so
//!   the optimiser cannot delete the measured work.
//!
//! Run with `cargo bench` (each bench target has a plain `main`). Set
//! `WSG_BENCH_FAST=1` to shrink calibration targets for smoke runs (CI
//! uses this to keep bench compilation honest without burning minutes).

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Heap allocations observed by [`CountingAlloc`] since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes those allocations asked for (a `realloc` counts its new size).
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-delegating allocator that counts every allocation and the
/// bytes it asks for.
///
/// Registered as the `#[global_allocator]` of this crate (see `lib.rs`),
/// so bench binaries and tests can measure allocations-per-message on the
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

/// Samples per benchmark.
const SAMPLES: usize = 20;

/// Target wall-clock duration of one calibrated batch.
const BATCH_TARGET: Duration = Duration::from_millis(10);

/// Whether `WSG_BENCH_FAST` smoke mode is on (shrinks calibration targets
/// and experiment parameter grids; recorded in the `--json` bench report).
pub fn fast_mode() -> bool {
    std::env::var("WSG_BENCH_FAST").map(|v| v != "0").unwrap_or(false)
}

/// One benchmark's collected statistics, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Fastest sampled batch.
    pub min_ns: f64,
    /// Median across batches.
    pub median_ns: f64,
    /// Mean across batches.
    pub mean_ns: f64,
    /// Iterations per batch after calibration.
    pub iters_per_sample: u64,
}

impl Measurement {
    fn format_ns(ns: f64) -> String {
        if ns >= 1e9 {
            format!("{:.3} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.3} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.3} µs", ns / 1e3)
        } else {
            format!("{ns:.1} ns")
        }
    }
}

/// The sanctioned wall-clock read.
///
/// Rule D2 (`wall-clock`, see `wsg_lint`) confines `Instant::now()` to
/// this module: measurement code elsewhere in the bench harness calls
/// `timing::now()` so every stopwatch in the workspace starts here.
pub fn now() -> Instant {
    Instant::now()
}

/// Time `f`, print a criterion-style report line, and return the stats.
///
/// ```
/// let m = wsg_bench::timing::bench("sum_1k", || (0..1000u64).sum::<u64>());
/// assert!(m.min_ns > 0.0);
/// ```
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Measurement {
    // Calibrate: double the batch size until one batch takes long enough.
    let target = if fast_mode() { Duration::from_micros(200) } else { BATCH_TARGET };
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= target || iters >= 1 << 30 {
            break;
        }
        // Jump close to the target, at least doubling.
        let scale = (target.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)).ceil() as u64;
        iters = (iters * scale.clamp(2, 1024)).min(1 << 30);
    }

    let samples = if fast_mode() { 5 } else { SAMPLES };
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));

    let min_ns = per_iter[0];
    let median_ns = per_iter[per_iter.len() / 2];
    let mean_ns = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    let m = Measurement { min_ns, median_ns, mean_ns, iters_per_sample: iters };
    println!(
        "{name:<40} min {:>12}  median {:>12}  mean {:>12}  ({} iters x {} samples)",
        Measurement::format_ns(min_ns),
        Measurement::format_ns(median_ns),
        Measurement::format_ns(mean_ns),
        iters,
        samples,
    );
    m
}

/// [`bench()`] with a parameter baked into the report name, mirroring
/// criterion's `bench_with_input` naming (`group/param`).
pub fn bench_with_param<P: std::fmt::Display, T>(
    group: &str,
    param: P,
    f: impl FnMut() -> T,
) -> Measurement {
    bench(&format!("{group}/{param}"), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_cheap_work() {
        std::env::set_var("WSG_BENCH_FAST", "1");
        let m = bench("test_sum", || (0..100u64).sum::<u64>());
        assert!(m.min_ns > 0.0);
        assert!(m.min_ns <= m.mean_ns * 1.5 + 1.0);
        assert!(m.iters_per_sample >= 1);
    }

    #[test]
    fn format_scales_units() {
        assert!(Measurement::format_ns(12.3).ends_with("ns"));
        assert!(Measurement::format_ns(12_300.0).ends_with("µs"));
        assert!(Measurement::format_ns(12_300_000.0).ends_with("ms"));
        assert!(Measurement::format_ns(2_000_000_000.0).ends_with(" s"));
    }
}
