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

use std::path::{Path, PathBuf};

pub mod alloc;
pub mod prop;

pub use alloc::CountingAlloc;
pub use prop::{CaseError, CaseResult, Gen};

/// Directory all report artifacts land in: `bench_results/` at the root
/// of the tree the running binary belongs to, regardless of the invoking
/// process's cwd. The root is resolved at run time ([`workspace_root`] of
/// the executable, then of the working directory), so a tree copied
/// together with its `target/` writes into itself. Set `POI360_BENCH_DIR`
/// to override.
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("POI360_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    let starts = [std::env::current_exe(), std::env::current_dir()];
    let root = workspace_root(starts.iter().flatten().map(PathBuf::as_path));
    // Neither lies in a tree (a target directory outside it, run from
    // elsewhere): the tree this crate was built from, two levels up.
    root.unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .join("bench_results")
}

/// The nearest ancestor of the first of `starts` that has one holding the
/// workspace manifest (the `Cargo.toml` of package `poi360`).
pub fn workspace_root<'a>(starts: impl IntoIterator<Item = &'a Path>) -> Option<PathBuf> {
    let is_root = |dir: &Path| {
        std::fs::read_to_string(dir.join("Cargo.toml"))
            .is_ok_and(|t| t.contains("name = \"poi360\""))
    };
    starts
        .into_iter()
        .find_map(|start| start.ancestors().find(|dir| is_root(dir)))
        .map(Path::to_path_buf)
}
