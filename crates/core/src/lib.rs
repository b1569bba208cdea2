//! POI360 core: the paper's contribution.
//!
//! * [`adaptive`] — adaptive spatial compression (§4.2): the client-side
//!   ROI-mismatch-time monitor (Eq. 2) and the sender-side compression-mode
//!   selector over the K = 8 pre-defined modes. Every compression scheme is
//!   a configuration of that one selector: the §6.1.1 baselines (Conduit's
//!   two-level crop, Pyramid's fixed falloff) and the fixed-mode ablation
//!   are one-mode selectors, POI360+pred adds ROI prediction, Pano and
//!   Ghosh add a per-tile sensitivity modulation.
//! * [`policy`] — the `CompressionPolicy` trait the selector implements.
//! * [`fbcc`] — Firmware-Buffer-aware Congestion Control (§4.3):
//!   uplink congestion detection from diag reports (Eq. 3), PHY bandwidth
//!   estimation (Eq. 4), the encoding-bitrate rule (Eq. 6), and the RTP
//!   sweet-spot controller (Eq. 7) with its learned target buffer level.
//! * [`occ`] — OCC-style PHY-assisted rate control (related work).
//! * [`rate`] — `RateControl`: GCC on the RTCP path with the plain-GCC,
//!   FBCC or OCC law on top.
//! * [`session`] — the full telephony session: sender pipeline (compression
//!   → encoder → packetizer → pacer → uplink), network path, client pipeline
//!   (reassembly → render → measurement), and all feedback loops, driven one
//!   LTE subframe at a time.
//! * [`multicell`] — lockstep drivers for M sessions sharing one
//!   multi-UE eNodeB cell (coexistence experiments) and for sessions
//!   moving across a hex grid of cells with A3 handover (mobility
//!   experiments).
//! * [`config`] — session/experiment configuration.
//! * [`report`] — per-session measurement record and cross-session
//!   aggregation.
//! * [`ring`] — the seq-indexed bounded map the session's RTX history and
//!   frame store live in.

pub mod adaptive;
pub mod config;
pub mod fbcc;
pub mod multicell;
pub mod occ;
pub mod policy;
pub mod rate;
pub mod report;
pub mod ring;
pub mod session;

pub use adaptive::{AdaptiveCompression, RoiMismatchMonitor};
pub use config::{CompressionScheme, NetworkKind, RateControlKind, SessionConfig};
pub use fbcc::{Fbcc, FbccConfig};
pub use multicell::{
    FlowGridStats, FlowSpec, MultiCell, MultiCellConfig, MultiCellReport, MultiGrid,
    MultiGridConfig, MultiGridReport,
};
pub use occ::{Occ, OccConfig};
pub use policy::CompressionPolicy;
pub use rate::RateControl;
pub use report::SessionReport;
pub use session::Session;
