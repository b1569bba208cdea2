//! End-to-end network path substrate.
//!
//! The paper's traffic crosses: UE firmware buffer → LTE uplink (modeled in
//! `poi360-lte`) → eNodeB/core network → Internet → downlink to the viewer;
//! ROI and congestion feedback return over the reverse path. This crate
//! models everything *after* the uplink radio:
//!
//! * [`packet`] — the on-path packet representation shared by transport
//!   and session code.
//! * [`pipe`] — [`pipe::DelayPipe`], an order-preserving delay element (a
//!   FIFO of stamped arrivals) with lognormal jitter and random loss. The
//!   paper's "congestion elsewhere along the end-to-end path" case (§4.3.1)
//!   is the fault plane's `WirelineSpike`, imposed through
//!   [`pipe::DelayPipe::set_fault_state`].
//! * [`wireline`] — a serialization-rate-limited link with a drop-tail
//!   queue, used for the paper's campus-wireline control condition.

pub mod packet;
pub mod pipe;
pub mod wireline;

pub use packet::{FlowKind, FrameTag, Packet};
pub use pipe::{DelayPipe, PipeConfig};
pub use wireline::{WirelineConfig, WirelineLink};
