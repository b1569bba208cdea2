//! LTE uplink substrate for the POI360 reproduction.
//!
//! Substitutes for the commercial LTE network + LG Nexus 5 modem the paper
//! measures. The model is built around the two properties POI360's FBCC
//! exploits (paper §3.3, Fig. 5):
//!
//! 1. **Buffer-coupled service rate.** Under proportional-fair uplink
//!    scheduling, the eNodeB's grant to a UE grows with the backlog the UE
//!    reports (BSR) and saturates at the UE's fair share of cell capacity.
//!    An emptier firmware buffer therefore means a *slower* uplink — the
//!    under-utilization GCC falls into (Fig. 6) and the "sweet spot" FBCC
//!    steers toward (Fig. 15).
//! 2. **A per-subframe diagnostic plane.** Commodity phones expose the
//!    firmware buffer level and per-subframe transport block size (TBS)
//!    through the diag interface (MobileInsight); the prototype reads them
//!    in 40 ms batches. [`diag::DiagInterface`] reproduces that cadence.
//!
//! Module map:
//! * [`tbs`] — CQI/MCS/TBS tables (3GPP TS 36.213 shapes).
//! * [`channel`] — RSS → SINR with shadowing, fast fading, mobility,
//!   and handover outages.
//! * [`buffer`] — the UE firmware (modem) buffer with RLC-style byte
//!   segmentation.
//! * [`scheduler`] — the eNodeB proportional-fair uplink grant model.
//! * [`uplink`] — the composed per-subframe uplink: channel + scheduler +
//!   buffer + HARQ.
//! * [`diag`] — the 40 ms diagnostic report stream.
//! * [`scenario`] — presets for the paper's §6.2 field conditions
//!   (background load, signal strength, mobility).
//! * [`cell`] — a shared multi-UE eNodeB: one PF PRB allocation per
//!   subframe across N attached UEs, with emergent background load.
//! * [`grid`] — the network above a cell: hex eNodeB lattice, ground
//!   mobility, path-loss radio map with neighbor interference, and A3
//!   handover.

pub mod buffer;
pub mod cell;
pub mod channel;
pub mod diag;
pub mod grid;
pub mod scenario;
pub mod scheduler;
pub mod tbs;
mod ue;
pub mod uplink;

pub use buffer::FirmwareBuffer;
pub use cell::{Cell, CellConfig, CellSubframe, UeId};
pub use channel::{Channel, ChannelConfig};
pub use diag::{DiagInterface, DiagReport, DiagSample};
pub use scenario::{BackgroundLoad, Mobility, Scenario, SignalStrength};
pub use scheduler::{PfScheduler, SchedulerConfig};
pub use ue::FW_CAPACITY_BYTES;
pub use uplink::{CellUplink, SubframeOutcome, UplinkConfig};
