//! Token-bucket packet pacer.
//!
//! The pacer is the knob POI360's FBCC turns (paper Eq. 7): its drain rate
//! is the RTP sending rate `R_rtp`, its queue is the "application-layer
//! packet buffer" of Fig. 9, and its output feeds the LTE firmware buffer.
//! Retransmissions jump the queue (WebRTC pacer priority).

use poi360_net::packet::Packet;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;
use std::collections::VecDeque;

/// Retransmissions older than this (since original send) are dropped at
/// release time: the receiver abandons an incomplete frame 1 s after its
/// first packet, so a retransmission this stale can never display.
const STALE_RTX_AGE: SimDuration = SimDuration::from_millis(800);

/// The pacer.
#[derive(Debug)]
pub struct Pacer {
    rate_bps: f64,
    /// Accumulated send credit in bytes.
    credit_bytes: f64,
    /// Credit cap: at most this many ms worth of burst.
    burst: SimDuration,
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    last_tick: SimTime,
    recorder: Recorder,
}

impl Pacer {
    /// Create a pacer with an initial rate.
    pub fn new(initial_rate_bps: f64) -> Self {
        assert!(initial_rate_bps > 0.0);
        Pacer {
            rate_bps: initial_rate_bps,
            credit_bytes: 0.0,
            burst: SimDuration::from_millis(10),
            queue: VecDeque::new(),
            queued_bytes: 0,
            last_tick: SimTime::ZERO,
            recorder: Recorder::null(),
        }
    }

    /// Attach the session's probe recorder.
    pub fn set_recorder(&mut self, rec: &Recorder) {
        self.recorder = rec.clone();
    }

    /// Current pacing rate (bps).
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Update the pacing rate (FBCC's Eq. 7 output, or `R_v` under GCC).
    pub fn set_rate_bps(&mut self, rate_bps: f64) {
        self.rate_bps = rate_bps.max(1_000.0);
    }

    /// Bytes waiting in the application-layer buffer.
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Enqueue a fresh packet at the tail.
    pub fn enqueue(&mut self, pkt: Packet) {
        self.queued_bytes += pkt.bytes as u64;
        self.queue.push_back(pkt);
    }

    /// Enqueue a retransmission at the head (WebRTC pacer priority).
    pub fn enqueue_front(&mut self, pkt: Packet) {
        self.queued_bytes += pkt.bytes as u64;
        self.queue.push_front(pkt);
    }

    /// Advance to `now` and release the packets the rate budget allows.
    pub fn tick(&mut self, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        self.tick_into(now, &mut out);
        out
    }

    /// Like [`Pacer::tick`], but appends released packets into a
    /// caller-owned buffer so the per-tick hot path reuses capacity.
    pub fn tick_into(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        let dt = now.saturating_since(self.last_tick);
        self.last_tick = now;
        self.credit_bytes += self.rate_bps / 8.0 * dt.as_secs_f64();
        let cap = self.rate_bps / 8.0 * self.burst.as_secs_f64();
        self.credit_bytes = self.credit_bytes.min(cap.max(2_000.0));

        let released_from = out.len();
        while let Some(head) = self.queue.front() {
            // A retransmission that aged past the receiver's abandon
            // window while queued is dead weight: drop it rather than
            // spend rate budget starving fresh frames behind it.
            if head.retransmit && now.saturating_since(head.sent_at) > STALE_RTX_AGE {
                let pkt = self.queue.pop_front().expect("head exists");
                self.queued_bytes -= pkt.bytes as u64;
                self.recorder.count("pacer.stale_rtx_dropped", now, 1);
                continue;
            }
            if (head.bytes as f64) > self.credit_bytes {
                break;
            }
            let pkt = self.queue.pop_front().expect("head exists");
            self.credit_bytes -= pkt.bytes as f64;
            self.queued_bytes -= pkt.bytes as u64;
            out.push(pkt);
        }
        if out.len() > released_from {
            let released: u64 = out[released_from..].iter().map(|p| p.bytes as u64).sum();
            self.recorder.event("pacer.released_bytes", now, released as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_net::packet::FrameTag;

    fn pkt(seq: u64, bytes: u32) -> Packet {
        Packet::video(seq, bytes, SimTime::ZERO, FrameTag { frame_no: 0, index: 0, count: 1 })
    }

    #[test]
    fn drains_at_configured_rate() {
        let mut p = Pacer::new(1.0e6); // 1 Mbps = 125 kB/s
        for k in 0..200 {
            p.enqueue(pkt(k, 1_250));
        }
        let mut released = 0usize;
        for ms in 1..=1_000u64 {
            released += p.tick(SimTime::from_millis(ms)).len();
        }
        // 125 kB/s / 1250 B = 100 packets per second.
        assert!((95..=105).contains(&released), "released {released}");
    }

    #[test]
    fn burst_cap_limits_idle_credit() {
        let mut p = Pacer::new(8.0e6); // 1 MB/s
                                       // Idle for 10 seconds: credit must not accumulate unboundedly.
        p.tick(SimTime::from_secs(10));
        for k in 0..100 {
            p.enqueue(pkt(k, 1_250));
        }
        let burst = p.tick(SimTime::from_secs(10)).len();
        // 10 ms burst at 1 MB/s = 10 kB = 8 packets.
        assert!(burst <= 9, "burst {burst}");
    }

    #[test]
    fn retransmissions_jump_the_queue() {
        let mut p = Pacer::new(1.0e9);
        p.enqueue(pkt(1, 500));
        p.enqueue(pkt(2, 500));
        let mut retx = pkt(99, 500);
        retx.retransmit = true;
        p.enqueue_front(retx);
        let out = p.tick(SimTime::from_millis(1));
        assert_eq!(out[0].seq, 99);
        assert_eq!(out[1].seq, 1);
    }

    #[test]
    fn rate_changes_take_effect() {
        let mut p = Pacer::new(1.0e6);
        for k in 0..1_000 {
            p.enqueue(pkt(k, 1_250));
        }
        let mut slow = 0;
        for ms in 1..=500u64 {
            slow += p.tick(SimTime::from_millis(ms)).len();
        }
        p.set_rate_bps(4.0e6);
        let mut fast = 0;
        for ms in 501..=1_000u64 {
            fast += p.tick(SimTime::from_millis(ms)).len();
        }
        assert!(fast > slow * 3, "fast {fast} slow {slow}");
    }

    #[test]
    fn queued_bytes_tracks_enqueue_release() {
        let mut p = Pacer::new(1.0e6);
        p.enqueue(pkt(1, 1_000));
        p.enqueue(pkt(2, 500));
        assert_eq!(p.queued_bytes(), 1_500);
        assert_eq!(p.queue.len(), 2);
        p.tick(SimTime::from_millis(100));
        assert_eq!(p.queued_bytes(), 0);
    }

    #[test]
    fn rate_floor_prevents_stall() {
        let mut p = Pacer::new(1.0e6);
        p.set_rate_bps(0.0);
        assert!(p.rate_bps() >= 1_000.0);
    }
}
