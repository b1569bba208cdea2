//! Figure/table regeneration harness for the POI360 reproduction.
//!
//! The paper's evaluation (§3 and §6) as one condition grid
//! ([`experiments`]) plus the traced protocols; the `reproduce` binary
//! wraps them in a CLI. See DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured numbers.

pub mod cli;
pub mod experiments;
pub mod faults;
pub mod mobility;
pub mod protocol;
pub mod runner;
pub mod study;
