//! Offline analytics and the declarative study harness over the probe
//! JSONL that the instrumentation plane (`poi360_sim::trace`) streams.
//!
//! The trace plane answers "what happened inside one run"; this crate
//! answers "how do runs compare". It has four layers:
//!
//! * [`ingest`] — parse probe/fault/perf/mobility JSONL artifacts (and
//!   their leading [`poi360_sim::trace::RunMeta`] stamps) into typed
//!   [`ingest::RunTrace`]s with stable probe-name indexing, using the
//!   in-repo JSON codec only.
//! * [`aggregate`] — pool samples across runs and reduce them to
//!   per-probe median/p95/p99 plus per-source rollups.
//! * [`report`] / [`chrome`] — render cross-run tables (shared
//!   [`poi360_metrics::table::Table`] renderer), A-vs-B delta reports
//!   that flag drift beyond 25 %, and Chrome `trace_event` JSON
//!   for flame-style inspection of subframe timing.
//! * [`study`] — the declarative layer: a [`study::StudyConfig`]
//!   (scenarios × rate controllers × compression schemes × seeds, parsed
//!   from `key=value` text) expands to a deterministic case list;
//!   [`league`] renders the table a controller × scheme race closes with. Execution lives in
//!   `poi360-bench` (`bench::study`), which fans the cases out over its
//!   scoped-thread pool and feeds the traces back into this crate;
//!   keeping this crate free of session-driving code is what lets
//!   `poi360-bench` depend on it without a cycle.
//!
//! Determinism contract: every function here is a pure fold over its
//! inputs — no clocks, no randomness, no filesystem side effects (file
//! IO is explicit and read-only). Identical input bytes produce
//! identical report bytes, which is what lets `ci.sh` compare study
//! output across worker-pool widths with `cmp`.

pub mod aggregate;
pub mod chrome;
pub mod ingest;
pub mod league;
pub mod report;
pub mod study;
