//! A small in-tree property-testing harness.
//!
//! The workspace's proptest-style suites run on this module instead of an
//! external crate so builds stay hermetic. The harness keeps the three
//! features the suites actually rely on:
//!
//! * **random case generation** — a [`Gen`] built on [`SplitMix64`]
//!   supplies integers, floats, strings and sized collections, scaled by
//!   a `size` parameter;
//! * **shrink-by-halving** — on failure the runner retries the failing
//!   seed at half the size, repeatedly, and reports the smallest size
//!   that still fails;
//! * **failing-seed reporting** — every failure message includes the
//!   base seed and case index, and `WSG_PROP_SEED` / `WSG_PROP_CASES`
//!   environment variables replay or extend a run.
//!
//! ```
//! use wsg_net::check::{run, Gen};
//!
//! run("addition_commutes", 64, |g| {
//!     let a = g.u64(0..=1000);
//!     let b = g.u64(0..=1000);
//!     wsg_net::prop_assert_eq!(a + b, b + a);
//!     Ok(())
//! });
//! ```

use crate::rng::{RngExt, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default size bound for generated collections/strings.
const DEFAULT_SIZE: u32 = 32;

/// A source of random test data for one property case.
pub struct Gen {
    rng: SplitMix64,
    size: u32,
}

impl Gen {
    /// A generator for one case, seeded deterministically.
    pub fn new(seed: u64, size: u32) -> Self {
        Gen { rng: SplitMix64::new(seed), size: size.max(1) }
    }

    /// The current size bound (shrunk on failing retries).
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next()
    }

    /// Uniform `u64` in an inclusive range.
    pub fn u64(&mut self, range: std::ops::RangeInclusive<u64>) -> u64 {
        self.rng.gen_range(range)
    }

    /// Uniform `u32` in an inclusive range.
    pub fn u32(&mut self, range: std::ops::RangeInclusive<u32>) -> u32 {
        self.rng.gen_range(range)
    }

    /// Uniform `usize` in an inclusive range.
    pub fn usize(&mut self, range: std::ops::RangeInclusive<usize>) -> usize {
        self.rng.gen_range(range)
    }

    /// Uniform `i64` in an inclusive range.
    pub fn i64(&mut self, range: std::ops::RangeInclusive<i64>) -> i64 {
        self.rng.gen_range(range)
    }

    /// Uniform `f64` in a half-open range.
    pub fn f64(&mut self, range: std::ops::Range<f64>) -> f64 {
        self.rng.gen_range(range)
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    /// A collection length in `0..=max`, additionally capped by the
    /// current size (so shrinking produces smaller inputs).
    pub fn len_in(&mut self, max: usize) -> usize {
        let cap = max.min(self.size as usize);
        self.rng.gen_range(0..=cap)
    }

    /// A uniformly chosen element of `options`.
    ///
    /// # Panics
    ///
    /// Panics when `options` is empty.
    pub fn pick<'s, T>(&mut self, options: &'s [T]) -> &'s T {
        self.rng.choose(options).expect("pick from empty slice")
    }

    /// A string of printable ASCII, length `0..=max_len` (size-capped).
    pub fn ascii_string(&mut self, max_len: usize) -> String {
        let len = self.len_in(max_len);
        (0..len)
            .map(|_| char::from(self.rng.gen_range(0x20u32..=0x7E) as u8))
            .collect()
    }

    /// A string drawn from `alphabet`, length `0..=max_len` (size-capped).
    pub fn string_from(&mut self, alphabet: &[char], max_len: usize) -> String {
        let len = self.len_in(max_len);
        (0..len).map(|_| *self.pick(alphabet)).collect()
    }

    /// Arbitrary bytes, length `0..=max_len` (size-capped).
    pub fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.len_in(max_len);
        (0..len).map(|_| self.rng.gen_range(0u32..=255) as u8).collect()
    }

    /// A vector built by calling `f` between 0 and `max_len` times.
    pub fn vec_of<T>(&mut self, max_len: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let len = self.len_in(max_len);
        (0..len).map(|_| f(self)).collect()
    }
}

/// One property case: returns `Err(reason)` (usually via
/// [`prop_assert!`](crate::prop_assert)) when the property is violated.
type CaseResult = Result<(), String>;

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn derive_seed(base: u64, case: u32) -> u64 {
    // Per-case streams via SplitMix64 over (base, case) — avoids
    // correlated neighbouring cases.
    SplitMix64::new(base ^ ((case as u64) << 32 | 0xA5A5)).next()
}

fn run_case(property: &dyn Fn(&mut Gen) -> CaseResult, seed: u64, size: u32) -> CaseResult {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut g = Gen::new(seed, size);
        property(&mut g)
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".to_string());
            Err(format!("panicked: {msg}"))
        }
    }
}

/// Run `property` over `cases` random cases and panic with a replayable
/// report on the first failure.
///
/// The base seed is derived from the property name so distinct
/// properties explore distinct streams; set `WSG_PROP_SEED` to override
/// it for replay and `WSG_PROP_CASES` to change the case count.
pub fn run(name: &str, cases: u32, property: impl Fn(&mut Gen) -> CaseResult) {
    let base_seed = env_u64("WSG_PROP_SEED").unwrap_or_else(|| {
        // FNV-1a over the name: stable across runs and platforms.
        name.bytes()
            .fold(0xcbf29ce484222325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3))
    });
    let cases = env_u64("WSG_PROP_CASES").map(|c| c as u32).unwrap_or(cases).max(1);

    for case in 0..cases {
        let seed = derive_seed(base_seed, case);
        if let Err(first_failure) = run_case(&property, seed, DEFAULT_SIZE) {
            // Shrink by halving the size bound while the failure persists.
            let mut smallest_size = DEFAULT_SIZE;
            let mut smallest_failure = first_failure;
            let mut size = DEFAULT_SIZE / 2;
            while size >= 1 {
                match run_case(&property, seed, size) {
                    Err(failure) => {
                        smallest_size = size;
                        smallest_failure = failure;
                        if size == 1 {
                            break;
                        }
                        size /= 2;
                    }
                    Ok(()) => break,
                }
            }
            panic!(
                "property '{name}' failed at case {case}/{cases} \
                 (seed {seed}, size {smallest_size}; replay with \
                 WSG_PROP_SEED={base_seed}): {smallest_failure}"
            );
        }
    }
}

/// Assert a condition inside a property, returning `Err` on failure so
/// the runner can shrink and report it.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                format!($($fmt)+),
                file!(),
                line!()
            ));
        }
    };
}

/// Assert equality inside a property, reporting both values on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0u32);
        run("always_true", 10, |g| {
            let _ = g.u64(0..=100);
            count.set(count.get() + 1);
            Ok(())
        });
        assert_eq!(count.get(), 10);
    }

    #[test]
    fn failing_property_reports_seed() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run("always_false", 5, |_g| -> CaseResult {
                prop_assert!(false, "intentional");
                Ok(())
            });
        }));
        let msg = match result {
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .expect("panic payload should be a String"),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(msg.contains("always_false"), "missing name: {msg}");
        assert!(msg.contains("WSG_PROP_SEED="), "missing seed: {msg}");
        assert!(msg.contains("intentional"), "missing reason: {msg}");
    }

    #[test]
    fn shrinking_reduces_size_dependent_failures() {
        // Fails whenever the generated vec is non-empty, so shrinking
        // should report a small size (the failure persists down to 1).
        let result = catch_unwind(AssertUnwindSafe(|| {
            run("shrinks", 8, |g| {
                let v = g.vec_of(32, |g| g.u64(0..=9));
                prop_assert!(v.len() <= 1, "len {}", v.len());
                Ok(())
            });
        }));
        let msg = match result {
            Err(payload) => payload.downcast_ref::<String>().cloned().unwrap(),
            Ok(()) => return, // all cases drew empty vecs — possible but fine
        };
        assert!(msg.contains("size"), "missing size report: {msg}");
    }

    #[test]
    fn panics_are_caught_and_reported() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run("panics", 3, |_g| -> CaseResult {
                panic!("boom");
            });
        }));
        let msg = match result {
            Err(payload) => payload.downcast_ref::<String>().cloned().unwrap(),
            Ok(()) => panic!("should have failed"),
        };
        assert!(msg.contains("boom"), "missing panic payload: {msg}");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mut a = Gen::new(7, 32);
        let mut b = Gen::new(7, 32);
        assert_eq!(a.ascii_string(16), b.ascii_string(16));
        assert_eq!(a.bytes(16), b.bytes(16));
        assert_eq!(a.u64(0..=999), b.u64(0..=999));
    }

    #[test]
    fn len_in_respects_size_cap() {
        let mut g = Gen::new(1, 4);
        for _ in 0..100 {
            assert!(g.len_in(1000) <= 4);
        }
    }
}
