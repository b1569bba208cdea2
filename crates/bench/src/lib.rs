//! Figure/table regeneration harness for the POI360 reproduction.
//!
//! One generator per table/figure of the paper's evaluation (§3 and §6);
//! the `reproduce` binary wraps them in a CLI. See DESIGN.md §3 for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured numbers.

pub mod arena;
pub mod cli;
pub mod experiments;
pub mod faults;
pub mod mobility;
pub mod protocol;
pub mod runner;
pub mod study;

pub use experiments::*;
pub use runner::{run_sessions, ExpConfig};
