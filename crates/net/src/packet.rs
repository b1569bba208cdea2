//! On-path packet representation.

use poi360_lte::buffer::PacketLike;
use poi360_sim::time::SimTime;

/// Which flow a packet belongs to. The prototype multiplexes the video
/// stream and the WebRTC data channel (ROI + M feedback) over UDP with equal
/// priority (paper §5 footnote), plus RTCP for transport feedback.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlowKind {
    /// RTP video payload.
    Video,
    /// ROI / M feedback on the data channel.
    Feedback,
    /// RTCP receiver reports & REMB.
    Rtcp,
    /// Background cross traffic.
    Cross,
}

/// Frame membership of a video packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameTag {
    /// Which encoded frame the packet carries.
    pub frame_no: u64,
    /// Packet index within the frame.
    pub index: u32,
    /// Total packets in the frame.
    pub count: u32,
}

/// A packet in flight.
#[derive(Clone, Debug, PartialEq)]
pub struct Packet {
    /// Flow the packet belongs to.
    pub flow: FlowKind,
    /// Per-flow sequence number.
    pub seq: u64,
    /// Wire size in bytes (payload + RTP/UDP/IP headers).
    pub bytes: u32,
    /// Application send timestamp (RTP timestamp equivalent).
    pub sent_at: SimTime,
    /// Frame membership for video packets.
    pub frame: Option<FrameTag>,
    /// True if this packet is a retransmission.
    pub retransmit: bool,
}

impl Packet {
    /// Construct a video packet.
    pub fn video(seq: u64, bytes: u32, sent_at: SimTime, frame: FrameTag) -> Packet {
        Packet { flow: FlowKind::Video, seq, bytes, sent_at, frame: Some(frame), retransmit: false }
    }

    /// Construct a background cross-traffic packet (grid load UEs).
    pub fn cross(seq: u64, bytes: u32, sent_at: SimTime) -> Packet {
        Packet { flow: FlowKind::Cross, seq, bytes, sent_at, frame: None, retransmit: false }
    }
}

impl PacketLike for Packet {
    fn wire_bytes(&self) -> u32 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_flow() {
        let t = SimTime::from_millis(5);
        let v = Packet::video(1, 1200, t, FrameTag { frame_no: 0, index: 0, count: 3 });
        assert_eq!(v.flow, FlowKind::Video);
        assert_eq!(v.frame.unwrap().count, 3);
        assert!(!v.retransmit);
    }

    #[test]
    fn wire_bytes_is_packet_size() {
        let p = Packet::video(0, 128, SimTime::ZERO, FrameTag { frame_no: 0, index: 0, count: 1 });
        assert_eq!(p.wire_bytes(), 128);
    }
}
