//! Deterministic test harness for the POI360 workspace.
//!
//! The workspace builds hermetically — no external crates — so the roles
//! `proptest` and `dhat` used to play are implemented here, on top of
//! the same [`poi360_sim::rng::SimRng`] streams the experiments use:
//!
//! * [`prop`] — seeded property-based testing. [`prop_check!`] runs a
//!   property over N generated cases; a failing case is shrunk by
//!   bisection over its raw random draws and reported with the exact
//!   seed (`POI360_PROP_SEED=...`) that reproduces it.
//! * [`alloc`] — a counting allocator so a test binary can assert the
//!   steady-state hot path performs zero heap allocations
//!   (DESIGN.md §10).
//!
//! Wall-clock speed is not measured here: the `benchmark/` package at
//! the repository root is the one perf instrument (see its README).
//!
//! The property harness is deterministic by construction: case seeds
//! derive from the property's name, never from ambient entropy, so CI
//! and a developer laptop always test the identical case set.

use std::path::PathBuf;

pub mod alloc;
pub mod prop;

pub use alloc::CountingAlloc;
pub use prop::{CaseError, CaseResult, Gen};

/// Directory all report artifacts land in: `bench_results/` at the
/// *workspace root*, regardless of the invoking process's cwd. Set
/// `POI360_BENCH_DIR` to override.
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("POI360_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    // This crate lives at `<workspace>/crates/testkit`.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("testkit sits two levels below the workspace root")
        .join("bench_results")
}
