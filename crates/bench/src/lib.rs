//! # wsg-bench — the experiment harness
//!
//! One module per experiment (see `DESIGN.md` §2 for the mapping from the
//! paper's claims to experiments E1–E7, A1 and E11) plus a tiny
//! fixed-width [`table`] renderer. Each `src/bin/eN_*.rs` binary is a thin wrapper that runs the
//! corresponding module and prints its rows, so the experiment logic is
//! unit-testable here.

pub mod experiments;
pub mod report;
pub mod sweep;
pub mod table;
pub mod timing;

pub use table::Table;

/// Count heap allocations made by the harness so experiments can assert
/// that hot-path serialization got cheaper (see [`timing::count_allocs`]).
/// The wrapper delegates straight to the system allocator, so overhead is
/// one relaxed atomic increment per allocation.
#[global_allocator]
static ALLOCATOR: timing::CountingAlloc = timing::CountingAlloc;
