//! wsg_cov — in-tree edge-coverage instrumentation for the fuzzing
//! harness (DESIGN.md §14).
//!
//! The wire parsers (`wsg-http`'s request/response parser, `wsg-xml`'s
//! pull reader, `wsg-soap`'s envelope and batch wire, `wsg-cluster`'s
//! membership binding) carry hand-placed [`crate::cov!`] callsites on their
//! branch points. Each callsite hashes its `(file, line, column)`
//! location to a slot in a fixed-size hit-count table at **compile
//! time** (the hash is a `const fn`, so the id is a constant baked into
//! the instruction stream — no runtime hashing). The coverage-guided
//! fuzzer in `crates/fuzz` snapshots the table after every execution
//! and admits an input to its corpus when it lights up a previously
//! unseen `(edge, count-bucket)` pair — the AFL feedback signal, built
//! in-tree per the zero-dependency policy.
//!
//! # The `wsg_cov` cfg-shim
//!
//! Exactly like the `wsg_model` shims in [`crate::sync`], the whole
//! mechanism is gated on a custom cfg: build with
//! `RUSTFLAGS="--cfg wsg_cov"` and every `cov!()` expands to an atomic
//! `fetch_add` on the table; build without it and `cov!()` expands to
//! an empty block — provably zero-cost (the const assertion below
//! evaluates `cov!()` in const context, which only type-checks when the
//! expansion is literally the unit expression). Normal builds are
//! bit-identical in behaviour with the instrumentation compiled out.
//!
//! The table is process-global: concurrent fuzz runs over it would
//! interleave their signals, so the engine in `crates/fuzz` serialises
//! executions behind a lock. `snapshot`/`reset`/`enabled` are part of
//! the always-compiled API (returning empty/no-op/false without the
//! cfg) so the engine never needs its own cfg gates.

/// Number of slots in the edge hit-count table.
///
/// Callsite ids are reduced modulo this size; with a few hundred
/// hand-placed edges in a 65 536-slot table, collisions are possible
/// but vanishingly rare, and (as in AFL) a collision only merges two
/// edges' counters — it never misattributes a crash.
pub(crate) const MAP_SIZE: usize = 1 << 16;

/// Compile-time callsite id: FNV-1a over the file path mixed with the
/// line and column, reduced into the table.
///
/// `const fn` so that `cov!()` can bake the slot index into the binary
/// as a constant (`const ID: usize = edge_id(file!(), line!(), column!())`).
pub const fn edge_id(file: &str, line: u32, column: u32) -> usize {
    let bytes = file.as_bytes();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut i = 0;
    while i < bytes.len() {
        hash = (hash ^ bytes[i] as u64).wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    hash = (hash ^ line as u64).wrapping_mul(0x0000_0100_0000_01b3);
    hash = (hash ^ column as u64).wrapping_mul(0x0000_0100_0000_01b3);
    (hash % MAP_SIZE as u64) as usize
}

/// AFL-style count bucketing: raw hit counts are collapsed into eight
/// coarse classes so that "hit once" vs "hit twice" vs "hit many times"
/// are distinct coverage signals but 47 vs 48 hits are not (which would
/// make every input look novel).
pub const fn bucket(count: u32) -> u8 {
    match count {
        0 => 0,
        1 => 1,
        2 => 2,
        3 => 3,
        4..=7 => 4,
        8..=15 => 5,
        16..=127 => 6,
        _ => 7,
    }
}

#[cfg(wsg_cov)]
mod table {
    use std::sync::atomic::{AtomicU32, Ordering};

    // Relaxed is exact here: coverage counters are pure statistics with
    // no ordering requirement against any other memory (A2 allowlist).
    static HITS: [AtomicU32; super::MAP_SIZE] = [const { AtomicU32::new(0) }; super::MAP_SIZE];

    /// Record one hit of the edge in slot `id`.
    #[inline]
    pub fn hit(id: usize) {
        HITS[id % super::MAP_SIZE].fetch_add(1, Ordering::Relaxed);
    }

    /// Zero every counter (the engine calls this before each execution).
    pub fn reset() {
        for slot in HITS.iter() {
            slot.store(0, Ordering::Relaxed);
        }
    }

    /// All nonzero `(slot, bucketed count)` pairs, in slot order.
    pub fn snapshot() -> Vec<(u32, u8)> {
        let mut out = Vec::new();
        for (i, slot) in HITS.iter().enumerate() {
            let count = slot.load(Ordering::Relaxed);
            if count != 0 {
                out.push((i as u32, super::bucket(count)));
            }
        }
        out
    }
}

/// Whether edge instrumentation is compiled in (`--cfg wsg_cov`).
#[inline]
pub const fn enabled() -> bool {
    cfg!(wsg_cov)
}

/// Record one hit of the edge in slot `id`. Called by the [`cov!`]
/// expansion; a no-op symbol does not even exist without the cfg.
#[cfg(wsg_cov)]
#[inline]
pub fn hit(id: usize) {
    table::hit(id);
}

/// Zero the hit-count table. No-op when instrumentation is off.
pub fn reset() {
    #[cfg(wsg_cov)]
    table::reset();
}

/// Nonzero `(edge slot, bucketed count)` pairs since the last
/// [`reset`], in slot order. Always empty when instrumentation is off.
pub fn snapshot() -> Vec<(u32, u8)> {
    #[cfg(wsg_cov)]
    {
        table::snapshot()
    }
    #[cfg(not(wsg_cov))]
    {
        Vec::new()
    }
}

/// Mark an edge in a wire parser's branch structure.
///
/// Expands to a constant-id atomic increment under `--cfg wsg_cov` and
/// to an empty block otherwise. Placement is policed by `wsg_lint` rule
/// F1: only the designated parser modules (and this module) may invoke
/// it, so instrumentation stays on the audited hot paths.
#[macro_export]
macro_rules! cov {
    () => {{
        #[cfg(wsg_cov)]
        {
            const __WSG_COV_ID: usize =
                $crate::cov::edge_id(file!(), line!(), column!());
            $crate::cov::hit(__WSG_COV_ID);
        }
    }};
}

// Zero-cost pin: without the cfg, `cov!()` must expand to a unit
// expression that is legal in const context — i.e. literally nothing.
// (Mirrors the release-build size asserts in `crate::sync`.)
#[cfg(not(wsg_cov))]
const _: () = cov!();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_id_is_stable_and_in_range() {
        let a = edge_id("crates/http/src/parser.rs", 100, 9);
        let b = edge_id("crates/http/src/parser.rs", 100, 9);
        assert_eq!(a, b);
        assert!(a < MAP_SIZE);
        // Different callsites almost surely land in different slots.
        let c = edge_id("crates/http/src/parser.rs", 101, 9);
        assert_ne!(a, c);
    }

    #[test]
    fn buckets_collapse_counts() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 3);
        assert_eq!(bucket(5), 4);
        assert_eq!(bucket(12), 5);
        assert_eq!(bucket(100), 6);
        assert_eq!(bucket(1_000_000), 7);
    }

    #[test]
    fn snapshot_reflects_cfg() {
        reset();
        cov!();
        let snap = snapshot();
        if enabled() {
            assert_eq!(snap.len(), 1);
            assert_eq!(snap[0].1, 1);
        } else {
            assert!(snap.is_empty());
        }
        reset();
        assert!(snapshot().is_empty());
    }
}
