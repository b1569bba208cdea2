//! Campus-wireline access link (paper §6.1 control condition).
//!
//! A serialization-rate-limited link with a small drop-tail queue. Unlike
//! the LTE uplink, its service rate is constant and independent of queue
//! occupancy — which is exactly why the baselines behave well on wireline
//! and fall apart on cellular.

use poi360_lte::buffer::PacketLike;
use poi360_sim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Wireline link configuration.
#[derive(Clone, Copy, Debug)]
pub struct WirelineConfig {
    /// Link rate in bits per second.
    pub rate_bps: f64,
    /// Queue capacity in bytes.
    pub queue_bytes: u64,
}

impl Default for WirelineConfig {
    fn default() -> Self {
        // Campus ethernet uplink: fast enough that a 12.65 Mbps raw 360°
        // stream fits with headroom.
        WirelineConfig { rate_bps: 100.0e6, queue_bytes: 256 * 1024 }
    }
}

struct Queued<T> {
    item: T,
    bytes: u32,
}

/// The wireline link.
pub struct WirelineLink<T> {
    cfg: WirelineConfig,
    queue: VecDeque<Queued<T>>,
    queued_bytes: u64,
    /// Absolute time the transmitter frees up.
    busy_until: SimTime,
    /// Packets dropped at the tail.
    dropped: u64,
}

impl<T: PacketLike> WirelineLink<T> {
    /// Create a link.
    pub fn new(cfg: WirelineConfig) -> Self {
        assert!(cfg.rate_bps > 0.0);
        WirelineLink {
            cfg,
            queue: VecDeque::new(),
            queued_bytes: 0,
            busy_until: SimTime::ZERO,
            dropped: 0,
        }
    }

    /// Current queue occupancy in bytes.
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Packets dropped at the tail.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Offer a packet at `now`; drop-tail on overflow.
    pub fn enqueue(&mut self, item: T, _now: SimTime) -> bool {
        let bytes = item.wire_bytes() as u64;
        if self.queued_bytes + bytes > self.cfg.queue_bytes {
            self.dropped += 1;
            return false;
        }
        self.queued_bytes += bytes;
        self.queue.push_back(Queued { bytes: item.wire_bytes(), item });
        true
    }

    /// Transmit everything whose serialization completes by `now`; returns
    /// `(departure_time, item)` pairs in order.
    pub fn poll(&mut self, now: SimTime) -> Vec<(SimTime, T)> {
        let mut out = Vec::new();
        while let Some(head) = self.queue.front() {
            let tx = SimDuration::from_secs_f64(head.bytes as f64 * 8.0 / self.cfg.rate_bps);
            // Serialisation starts at `busy_until` even when that precedes
            // the enqueue: idle time accrues as credit (EXPERIMENTS.md D12).
            let done = self.busy_until + tx;
            if done > now {
                break;
            }
            let q = self.queue.pop_front().expect("head exists");
            self.queued_bytes -= q.bytes as u64;
            self.busy_until = done;
            out.push((done, q.item));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pkt(u32);
    impl PacketLike for Pkt {
        fn wire_bytes(&self) -> u32 {
            self.0
        }
    }

    #[test]
    fn serialization_rate_limits_throughput() {
        // 1 Mbps link, 1250-byte packets => 100 packets/s.
        let cfg = WirelineConfig { rate_bps: 1.0e6, queue_bytes: 10_000_000 };
        let mut link = WirelineLink::new(cfg);
        for _ in 0..1_000 {
            link.enqueue(Pkt(1_250), SimTime::ZERO);
        }
        let mut delivered = 0;
        let mut now = SimTime::ZERO;
        for _ in 0..1_000 {
            now += SimDuration::from_millis(1);
            delivered += link.poll(now).len();
        }
        // After 1 s at 100 pkts/s: ~100 delivered.
        assert!((95..=101).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn departures_are_ordered_and_spaced() {
        let cfg = WirelineConfig { rate_bps: 8.0e6, queue_bytes: 1_000_000 };
        let mut link = WirelineLink::new(cfg);
        for k in 0..10u32 {
            link.enqueue(Pkt(1_000 + k), SimTime::ZERO);
        }
        let got = link.poll(SimTime::from_secs(1));
        assert_eq!(got.len(), 10);
        for w in got.windows(2) {
            assert!(w[1].0 > w[0].0, "departures strictly ordered");
        }
        // 1000 bytes at 8 Mbps = 1 ms per packet.
        let gap = got[1].0 - got[0].0;
        assert!((gap.as_micros() as i64 - 1_000).abs() < 20, "gap {gap:?}");
    }

    #[test]
    fn overflow_drops() {
        let cfg = WirelineConfig { rate_bps: 1.0e6, queue_bytes: 2_000 };
        let mut link = WirelineLink::new(cfg);
        assert!(link.enqueue(Pkt(1_500), SimTime::ZERO));
        assert!(!link.enqueue(Pkt(1_500), SimTime::ZERO));
        assert_eq!(link.dropped(), 1);
    }

    #[test]
    fn fast_link_is_effectively_transparent() {
        let mut link = WirelineLink::new(WirelineConfig::default());
        link.enqueue(Pkt(1_200), SimTime::ZERO);
        let got = link.poll(SimTime::from_millis(1));
        assert_eq!(got.len(), 1);
        // 1200 B at 100 Mbps = 96 µs.
        assert!(got[0].0.as_micros() <= 200);
    }
}
