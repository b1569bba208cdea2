//! Measurement-plane statistics for the POI360 reproduction.
//!
//! Every figure in the paper's evaluation reduces raw session traces to one
//! of a handful of statistics; this crate implements them once:
//!
//! * [`dist`] — summary statistics, percentiles and empirical CDFs
//!   (Figs. 6, 12, 13, 15).
//! * [`mos`] — the PSNR → Mean-Opinion-Score mapping of paper Table 1
//!   and MOS-PDF aggregation (Figs. 11c/d, 16b, 17b/d/f).
//! * [`freeze`] — frame-delay bookkeeping and the freeze-ratio metric
//!   (frames delayed beyond 600 ms; Figs. 14, 16a, 17a/c/e).
//! * [`table`] — fixed-width text rendering of rows/series so the
//!   `reproduce` harness prints figures the way the paper tabulates them.
//! * [`fairness`] — Jain's index for multi-flow share comparisons (the
//!   `coexist` experiment).

pub mod dist;
pub mod fairness;
pub mod freeze;
pub mod mos;
pub mod table;

pub use dist::{Cdf, Summary};
pub use fairness::jain_index;
pub use freeze::FreezeStats;
pub use mos::{Mos, MosPdf};
pub use table::Table;
