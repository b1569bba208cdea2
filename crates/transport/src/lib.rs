//! WebRTC-like media transport for the POI360 reproduction.
//!
//! The paper's prototype rides on WebRTC (§5): VP8 frames are packetized
//! into RTP, paced onto the network, reassembled at the viewer, and the
//! sending rate is governed by Google Congestion Control (GCC) unless
//! POI360's FBCC overrides it. This crate implements those mechanics from
//! scratch:
//!
//! * [`rtp`] — packetization of encoded frames into ≤1200-byte RTP packets,
//!   in-order reassembly, gap detection, and NACK-driven retransmission
//!   (WebRTC's loss handling, per the Holmer et al. reference the paper
//!   cites).
//! * [`pacer`] — the token-bucket packet pacer that turns the RTP sending
//!   rate `R_rtp` into a smooth packet flow; its queue is the paper's
//!   "application-layer packet buffer" (Fig. 9).
//! * [`rtcp`] — receiver reports: the interval loss fraction, and RTT
//!   estimation.
//! * [`gcc`] — Google Congestion Control: the delay-gradient arrival
//!   filter, adaptive-threshold overuse detector, AIMD remote-rate
//!   controller (receiver side), and the loss-based sender-side bound,
//!   combined exactly as in the RMCAT draft the paper cites [12].

pub mod gcc;
pub mod pacer;
pub mod rtcp;
pub mod rtp;

pub use gcc::{GccReceiver, GccSender, RateControlSignal};
pub use pacer::Pacer;
pub use rtcp::{ReceiverStats, RttEstimator};
pub use rtp::Nack;
pub use rtp::{Packetizer, ReassembledFrame, Reassembler};
