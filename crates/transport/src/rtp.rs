//! RTP packetization, reassembly, and NACK-based retransmission.
//!
//! Encoded frames are split into MTU-sized RTP packets. The receiver
//! reassembles frames, detecting sequence gaps; missing packets are NACKed
//! and the sender retransmits them at pacer-front priority (WebRTC
//! behaviour). A frame is *complete* when all of its packets have arrived;
//! it is *abandoned* — and counted as frozen — if it is still incomplete
//! after the abandon timeout (the jitter buffer gives up and the viewer
//! requests a keyframe).

use poi360_net::packet::{FrameTag, Packet};
use poi360_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Payload carried per RTP packet (1200 B MTU-safe payload).
pub const MAX_PAYLOAD: u32 = 1_200;

/// Header overhead per packet: RTP (12) + UDP (8) + IPv4 (20).
pub const HEADER_BYTES: u32 = 40;

/// Splits frames into RTP packets.
#[derive(Debug, Default)]
pub struct Packetizer {
    next_seq: u64,
}

impl Packetizer {
    /// Create a packetizer.
    pub fn new() -> Self {
        Packetizer::default()
    }

    /// Next sequence number to be issued.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Packetize a frame of `payload_bytes` captured at `sent_at`.
    pub fn packetize(
        &mut self,
        frame_no: u64,
        payload_bytes: u32,
        sent_at: SimTime,
    ) -> Vec<Packet> {
        let count = payload_bytes.div_ceil(MAX_PAYLOAD).max(1);
        let mut remaining = payload_bytes;
        (0..count)
            .map(|index| {
                let chunk = remaining.min(MAX_PAYLOAD);
                remaining -= chunk;
                let seq = self.next_seq;
                self.next_seq += 1;
                Packet::video(
                    seq,
                    chunk + HEADER_BYTES,
                    sent_at,
                    FrameTag { frame_no, index, count },
                )
            })
            .collect()
    }
}

/// A fully reassembled frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReassembledFrame {
    /// Frame number.
    pub frame_no: u64,
    /// Capture timestamp carried by the packets.
    pub sent_at: SimTime,
    /// Arrival time of the final packet.
    pub completed_at: SimTime,
    /// Total wire bytes received for the frame.
    pub bytes: u32,
    /// Whether any packet of the frame needed retransmission.
    pub suffered_loss: bool,
}

#[derive(Debug)]
struct PartialFrame {
    received: Vec<bool>,
    /// Distinct packets received: the frame is complete when this reaches
    /// `received.len()`.
    received_count: usize,
    bytes: u32,
    sent_at: SimTime,
    first_arrival: SimTime,
    suffered_loss: bool,
}

/// NACKs a [`Reassembler`] sends for one missing packet before giving up
/// on it.
pub const MAX_NACKS: u32 = 4;

/// Receiver-side reassembly with gap detection.
///
/// A gap is attributed to the frame of the packet that revealed it, not to
/// the frame the missing packet belonged to. So when the arriving packet's
/// frame completes first, its gap records outlive it: they are cleared only
/// by the missing packet's own arrival or by abandoning the frame they name.
/// In a lossy run such records pile up. Once a record has used its NACKs it
/// moves to `given_up`, so [`Reassembler::poll_nacks`] walks only records
/// it can still NACK.
#[derive(Debug)]
pub struct Reassembler {
    partial: BTreeMap<u64, PartialFrame>,
    /// Highest video seq seen, for gap detection.
    highest_seq: Option<u64>,
    /// seq -> frame_no and NACK state of packets presumed lost that may
    /// still be NACKed.
    missing: BTreeMap<u64, MissingPacket>,
    /// seq -> frame_no of packets presumed lost that were NACKed
    /// [`MAX_NACKS`] times and will never be NACKed again.
    given_up: BTreeMap<u64, u64>,
    abandon_after: SimDuration,
    completed: u64,
    abandoned: u64,
}

#[derive(Clone, Copy, Debug)]
struct MissingPacket {
    frame_no: u64,
    last_nack: Option<SimTime>,
    nacks_sent: u32,
}

/// A NACK request for one missing packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Nack {
    /// Sequence number to retransmit.
    pub seq: u64,
}

impl Reassembler {
    /// Create a reassembler that NACKs a missing packet at most
    /// [`MAX_NACKS`] times; frames still incomplete `abandon_after` their
    /// first packet are dropped (and reported).
    pub fn new(abandon_after: SimDuration) -> Self {
        Reassembler {
            partial: BTreeMap::new(),
            highest_seq: None,
            missing: BTreeMap::new(),
            given_up: BTreeMap::new(),
            abandon_after,
            completed: 0,
            abandoned: 0,
        }
    }

    /// Frames completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Frames abandoned so far.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Accept a video packet; returns the frame if this completed it.
    pub fn on_packet(&mut self, pkt: &Packet, arrival: SimTime) -> Option<ReassembledFrame> {
        let tag = pkt.frame.expect("reassembler only accepts video packets");

        // Gap detection on the sequence stream (retransmissions exempt).
        if !pkt.retransmit {
            if let Some(hi) = self.highest_seq {
                if pkt.seq > hi + 1 {
                    for gap_seq in (hi + 1)..pkt.seq {
                        // The gap may span frames; attribute by seq order —
                        // actual frame attribution is refined when the
                        // retransmission arrives, so frame_no here is a hint.
                        self.missing.entry(gap_seq).or_insert(MissingPacket {
                            frame_no: tag.frame_no,
                            last_nack: None,
                            nacks_sent: 0,
                        });
                    }
                }
                self.highest_seq = Some(hi.max(pkt.seq));
            } else {
                self.highest_seq = Some(pkt.seq);
            }
        }
        // A packet (retransmitted or late) clears its missing record.
        let was_missing =
            self.missing.remove(&pkt.seq).is_some() || self.given_up.remove(&pkt.seq).is_some();

        let entry = self.partial.entry(tag.frame_no).or_insert_with(|| PartialFrame {
            received: vec![false; tag.count as usize],
            received_count: 0,
            bytes: 0,
            sent_at: pkt.sent_at,
            first_arrival: arrival,
            suffered_loss: false,
        });
        entry.suffered_loss |= was_missing || pkt.retransmit;
        if !entry.received[tag.index as usize] {
            entry.received[tag.index as usize] = true;
            entry.received_count += 1;
            entry.bytes += pkt.bytes;
        }
        if entry.received_count == entry.received.len() {
            let done = self.partial.remove(&tag.frame_no).expect("entry exists");
            self.completed += 1;
            return Some(ReassembledFrame {
                frame_no: tag.frame_no,
                sent_at: done.sent_at,
                completed_at: arrival,
                bytes: done.bytes,
                suffered_loss: done.suffered_loss,
            });
        }
        None
    }

    /// Collect NACKs to send at `now`, in seq order: new gaps immediately,
    /// outstanding ones re-NACKed every `renack_every`. A packet NACKed
    /// [`MAX_NACKS`] times is given up on.
    pub fn poll_nacks(&mut self, now: SimTime, renack_every: SimDuration) -> Vec<Nack> {
        let mut out = Vec::new();
        if self.missing.is_empty() {
            return out;
        }
        let given_up = &mut self.given_up;
        // `retain` visits in ascending key order.
        self.missing.retain(|&seq, m| {
            let due = match m.last_nack {
                None => true,
                Some(last) => now.saturating_since(last) >= renack_every,
            };
            if due {
                m.last_nack = Some(now);
                m.nacks_sent += 1;
                out.push(Nack { seq });
            }
            if m.nacks_sent < MAX_NACKS {
                return true;
            }
            given_up.insert(seq, m.frame_no);
            false
        });
        out
    }

    /// Abandon frames that have been incomplete too long; returns the frame
    /// numbers dropped. Their missing packets stop being NACKed.
    pub fn poll_abandoned(&mut self, now: SimTime) -> Vec<u64> {
        let deadline = self.abandon_after;
        let expired: Vec<u64> = self
            .partial
            .iter()
            .filter(|(_, p)| now.saturating_since(p.first_arrival) > deadline)
            .map(|(&no, _)| no)
            .collect();
        if expired.is_empty() {
            return expired;
        }
        for no in &expired {
            self.partial.remove(no);
            self.abandoned += 1;
        }
        // Drop missing-packet state attributed to abandoned frames.
        self.missing.retain(|_, m| !expired.contains(&m.frame_no));
        self.given_up.retain(|_, frame_no| !expired.contains(frame_no));
        expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reasm() -> Reassembler {
        Reassembler::new(SimDuration::from_millis(1_000))
    }

    #[test]
    fn packetizer_splits_and_pads() {
        let mut p = Packetizer::new();
        let pkts = p.packetize(0, 3_000, SimTime::ZERO);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].bytes, 1_200 + HEADER_BYTES);
        assert_eq!(pkts[2].bytes, 600 + HEADER_BYTES);
        let payload: u32 = pkts.iter().map(|p| p.bytes - HEADER_BYTES).sum();
        assert_eq!(payload, 3_000);
        // Tags consistent.
        for (k, pkt) in pkts.iter().enumerate() {
            let tag = pkt.frame.unwrap();
            assert_eq!(tag.index, k as u32);
            assert_eq!(tag.count, 3);
        }
    }

    #[test]
    fn zero_byte_frame_still_gets_one_packet() {
        let mut p = Packetizer::new();
        let pkts = p.packetize(1, 0, SimTime::ZERO);
        assert_eq!(pkts.len(), 1);
    }

    #[test]
    fn seqs_are_contiguous_across_frames() {
        let mut p = Packetizer::new();
        let a = p.packetize(0, 2_500, SimTime::ZERO);
        let b = p.packetize(1, 1_000, SimTime::ZERO);
        let seqs: Vec<u64> = a.iter().chain(b.iter()).map(|p| p.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn in_order_frame_completes() {
        let mut pz = Packetizer::new();
        let mut rs = reasm();
        let pkts = pz.packetize(0, 3_000, SimTime::from_millis(10));
        let mut frame = None;
        for (k, pkt) in pkts.iter().enumerate() {
            frame = rs.on_packet(pkt, SimTime::from_millis(20 + k as u64));
        }
        let f = frame.expect("frame completes on last packet");
        assert_eq!(f.frame_no, 0);
        assert_eq!(f.sent_at, SimTime::from_millis(10));
        assert_eq!(f.completed_at, SimTime::from_millis(22));
        assert!(!f.suffered_loss);
        assert_eq!(rs.completed(), 1);
    }

    #[test]
    fn gap_generates_nack_and_retransmit_completes() {
        let mut pz = Packetizer::new();
        let mut rs = reasm();
        let pkts = pz.packetize(0, 3_000, SimTime::ZERO);
        // Deliver 0 and 2; 1 is lost.
        rs.on_packet(&pkts[0], SimTime::from_millis(1));
        assert!(rs.on_packet(&pkts[2], SimTime::from_millis(2)).is_none());
        let nacks = rs.poll_nacks(SimTime::from_millis(3), SimDuration::from_millis(100));
        assert_eq!(nacks, vec![Nack { seq: 1 }]);
        // Retransmission arrives.
        let mut retx = pkts[1].clone();
        retx.retransmit = true;
        let f = rs.on_packet(&retx, SimTime::from_millis(60)).expect("completes");
        assert!(f.suffered_loss);
        assert_eq!(rs.missing.len(), 0);
    }

    #[test]
    fn renack_respects_interval_and_cap() {
        let mut pz = Packetizer::new();
        let mut rs = reasm();
        let pkts = pz.packetize(0, 3_000, SimTime::ZERO);
        rs.on_packet(&pkts[0], SimTime::from_millis(1));
        rs.on_packet(&pkts[2], SimTime::from_millis(2));
        let every = SimDuration::from_millis(100);
        assert_eq!(rs.poll_nacks(SimTime::from_millis(3), every).len(), 1);
        assert_eq!(rs.poll_nacks(SimTime::from_millis(50), every).len(), 0);
        for ms in [103, 203, 303] {
            assert_eq!(rs.poll_nacks(SimTime::from_millis(ms), every).len(), 1);
        }
        // Cap reached: the record is given up on, not forgotten.
        assert_eq!((rs.missing.len(), rs.given_up.len()), (0, 1));
        assert_eq!(rs.poll_nacks(SimTime::from_millis(403), every).len(), 0);
        let f = rs.on_packet(&pkts[1], SimTime::from_millis(410)).expect("completes");
        assert!(f.suffered_loss, "a given-up packet still marks its frame");
        assert_eq!(rs.given_up.len(), 0);
    }

    #[test]
    fn abandoning_clears_given_up_records_of_the_frame() {
        let mut pz = Packetizer::new();
        let mut rs = Reassembler::new(SimDuration::from_millis(500));
        let pkts = pz.packetize(7, 3_600, SimTime::ZERO);
        rs.on_packet(&pkts[0], SimTime::from_millis(10));
        rs.on_packet(&pkts[2], SimTime::from_millis(11));
        for ms in [12, 112, 212, 312] {
            assert_eq!(
                rs.poll_nacks(SimTime::from_millis(ms), SimDuration::from_millis(100)).len(),
                1
            );
        }
        assert_eq!(rs.given_up.len(), 1);
        assert_eq!(rs.poll_abandoned(SimTime::from_millis(511)), vec![7]);
        assert_eq!(rs.given_up.len(), 0);
    }

    #[test]
    fn late_original_clears_missing_without_retransmit_flag() {
        let mut pz = Packetizer::new();
        let mut rs = reasm();
        let pkts = pz.packetize(0, 3_000, SimTime::ZERO);
        rs.on_packet(&pkts[0], SimTime::from_millis(1));
        rs.on_packet(&pkts[2], SimTime::from_millis(2));
        assert_eq!(rs.missing.len(), 1);
        // The "lost" packet was merely reordered… except pipes preserve
        // order in this workspace; still, the reassembler must handle it.
        let f = rs.on_packet(&pkts[1], SimTime::from_millis(5)).expect("completes");
        assert!(f.suffered_loss, "a detected gap marks the frame");
        assert_eq!(rs.missing.len(), 0);
    }

    #[test]
    fn abandon_times_out_incomplete_frames() {
        let mut pz = Packetizer::new();
        let mut rs = Reassembler::new(SimDuration::from_millis(500));
        let pkts = pz.packetize(7, 3_000, SimTime::ZERO);
        rs.on_packet(&pkts[0], SimTime::from_millis(10));
        assert!(rs.poll_abandoned(SimTime::from_millis(400)).is_empty());
        let dropped = rs.poll_abandoned(SimTime::from_millis(511));
        assert_eq!(dropped, vec![7]);
        assert_eq!(rs.abandoned(), 1);
    }

    #[test]
    fn duplicate_packets_do_not_double_count() {
        let mut pz = Packetizer::new();
        let mut rs = reasm();
        let pkts = pz.packetize(0, 2_000, SimTime::ZERO);
        rs.on_packet(&pkts[0], SimTime::from_millis(1));
        rs.on_packet(&pkts[0], SimTime::from_millis(2));
        let f = rs.on_packet(&pkts[1], SimTime::from_millis(3)).expect("completes");
        assert_eq!(f.bytes, pkts[0].bytes + pkts[1].bytes);
    }

    #[test]
    fn interleaved_frames_complete_independently() {
        let mut pz = Packetizer::new();
        let mut rs = reasm();
        let a = pz.packetize(0, 2_400, SimTime::ZERO);
        let b = pz.packetize(1, 2_400, SimTime::from_millis(28));
        rs.on_packet(&a[0], SimTime::from_millis(30));
        rs.on_packet(&b[0], SimTime::from_millis(31));
        assert!(rs.on_packet(&b[1], SimTime::from_millis(32)).is_some());
        assert!(rs.on_packet(&a[1], SimTime::from_millis(33)).is_some());
        assert_eq!(rs.completed(), 2);
    }
}
