//! Deterministic time-stepped simulation kernel for the POI360 reproduction.
//!
//! Every other crate in this workspace builds on the primitives here:
//!
//! * [`time`] — microsecond-resolution simulation clock types ([`SimTime`],
//!   [`SimDuration`]). One LTE subframe is exactly 1 ms; a 36 FPS video frame
//!   interval is 27 778 µs, so microseconds are the coarsest resolution that
//!   represents both without drift.
//! * [`rng`] — named, seeded random streams so that every experiment is
//!   reproducible bit-for-bit and components cannot perturb each other's
//!   random sequences when the wiring changes.
//! * [`series`] — a time-series recorder used by the measurement plane of
//!   every experiment.
//! * [`json`] — the hand-rolled `ToJson` writer and a small JSON parser;
//!   the workspace is hermetic (no external crates), so reports and bench
//!   output serialize through these instead of `serde`. The `key=value`
//!   study format lives with its one reader, `analyse::study`.
//! * [`process`] — small reusable stochastic processes (Ornstein–Uhlenbeck,
//!   Markov on/off) used by the channel and cross-traffic models.
//! * [`trace`] — the instrumentation plane: typed probes (counters, gauges,
//!   timestamped events), pluggable sinks (null / ring / JSONL), and the
//!   per-session [`trace::Recorder`] handle every layer reports through.
//! * [`fault`] — deterministic fault injection: typed [`fault::FaultPlan`]s
//!   of time-windowed faults (radio link failure, diag stalls, grant
//!   starvation, feedback loss, wireline spikes, flash crowds) applied
//!   through the existing layer seams, with `fault.*` transition events on
//!   the trace plane.
//! * [`workers`] — the persistent epoch worker pool shared by every
//!   parallel surface (bench job fan-outs, the `MultiGrid` sharded cell
//!   executor): threads spawn once per process, park between epochs, and
//!   wake on a generation-counter barrier, so a per-subframe dispatch
//!   costs no spawns and no heap allocation.
//!
//! The kernel follows the smoltcp idiom rather than an async runtime: every
//! component exposes an explicit `poll(now)`-style API, and a top-level
//! driver advances the clock in 1 ms lockstep — one [`SUBFRAME`] per step,
//! every component once per step. There is no future-event queue: the media
//! path is an in-order chain, so what is in flight anywhere is a FIFO. This
//! keeps a session deterministic and single-threaded by construction.

pub mod fault;
pub mod json;
pub mod process;
pub mod rng;
pub mod series;
pub mod time;
pub mod trace;
pub mod workers;

pub use fault::{ActiveFaults, FaultEvent, FaultKind, FaultPlan, FaultTimeline};
pub use json::ToJson;
pub use rng::SimRng;
pub use series::TimeSeries;
pub use time::{SimDuration, SimTime};
pub use trace::Recorder;

/// One LTE subframe / TTI: 1 ms.
pub const SUBFRAME: SimDuration = SimDuration::from_millis(1);
