//! POI360 reproduction — umbrella crate.
//!
//! Re-exports the workspace crates under one roof so integration tests
//! can `use poi360::...`. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! # Quickstart
//!
//! The smallest end-to-end use of the public API — configure a session,
//! run it, read the measurement record. This is the full POI360 system:
//! adaptive spatial compression + FBCC rate control, on a typical cell
//! with strong signal, with an "event-watcher" viewer wearing the HMD.
//!
//! ```
//! use poi360::core::config::{CompressionScheme, NetworkKind, RateControlKind, SessionConfig};
//! use poi360::core::session::Session;
//! use poi360::lte::scenario::Scenario;
//! use poi360::metrics::mos::Mos;
//! use poi360::sim::time::SimDuration;
//! use poi360::viewport::motion::UserArchetype;
//!
//! let cfg = SessionConfig {
//!     scheme: CompressionScheme::Poi360,
//!     rate_control: RateControlKind::Fbcc,
//!     network: NetworkKind::Cellular(Scenario::baseline()),
//!     user: UserArchetype::EventDriven,
//!     duration: SimDuration::from_secs(30),
//!     seed: 42,
//!     ..Default::default()
//! };
//! println!("running: {}", cfg.label());
//! let report = Session::new(cfg).run();
//!
//! println!("frames sent       : {}", report.frames_sent);
//! println!("frames delivered  : {}", report.frames_delivered);
//! println!("frames lost       : {}", report.frames_lost);
//! println!("median frame delay: {:.0} ms", report.median_delay_ms());
//! println!("freeze ratio      : {:.2}%", report.freeze_ratio() * 100.0);
//! println!("mean ROI PSNR     : {:.1} dB", report.mean_psnr_db());
//! println!("mean throughput   : {:.2} Mbps", report.mean_throughput_bps() / 1e6);
//! println!("uplink detections : {}", report.uplink_detections);
//!
//! println!("user-perceived quality (MOS PDF):");
//! let mos = report.mos();
//! for band in Mos::all() {
//!     println!("  {:9} {:5.1}%", band.label(), mos.fraction(band) * 100.0);
//! }
//! assert!(report.frames_delivered > 0, "session must deliver frames");
//! ```
//!
//! Condition sweeps (schemes, controllers, field scenarios) are what
//! `reproduce fig11 | fig16 | fig17` print; see `crates/bench`.
//!
//! * [`sim`] — deterministic time-stepped kernel (1 ms lockstep).
//! * [`lte`] — LTE uplink simulator (PF scheduler, firmware buffer, channel).
//! * [`net`] — end-to-end path (core/downlink delay pipes, wireline link).
//! * [`video`] — 360° frame model, compression modes, R-D model, encoder.
//! * [`viewport`] — head-motion and ROI trace models.
//! * [`transport`] — RTP/RTCP, pacer, Google Congestion Control.
//! * [`metrics`] — PSNR/MOS/freeze/CDF statistics and report rendering.
//! * [`core`] — the paper's contribution: adaptive spatial compression,
//!   firmware-buffer-aware congestion control (FBCC), the telephony session,
//!   and the Conduit/Pyramid baselines.

pub use poi360_core as core;
pub use poi360_lte as lte;
pub use poi360_metrics as metrics;
pub use poi360_net as net;
pub use poi360_sim as sim;
pub use poi360_transport as transport;
pub use poi360_video as video;
pub use poi360_viewport as viewport;
