//! The UE firmware (modem) buffer.
//!
//! RTP packets handed to the modem queue here until uplink grants drain
//! them. The RLC layer segments packets into whatever the per-subframe
//! grant carries, so service is byte-granular: a packet *departs* on the
//! subframe its last byte is transmitted. The buffer level in bytes is the
//! `B(t)` that POI360's FBCC reads through the diag interface.

use poi360_sim::time::SimTime;
use std::collections::VecDeque;

/// Anything with a wire size can ride the uplink.
pub trait PacketLike {
    /// Size on the wire in bytes.
    fn wire_bytes(&self) -> u32;
}

struct Queued<T> {
    item: T,
    remaining: u32,
    enqueued_at: SimTime,
}

/// The firmware buffer: FIFO of packets with byte-granular service.
pub struct FirmwareBuffer<T> {
    queue: VecDeque<Queued<T>>,
    level_bytes: u64,
    capacity_bytes: u64,
    dropped: u64,
    flushed: u64,
    total_enqueued: u64,
    total_served_bytes: u64,
}

impl<T: PacketLike> FirmwareBuffer<T> {
    /// Create a buffer with the given byte capacity. Modem buffers are
    /// large (hundreds of KB) — overflow indicates severe congestion.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0);
        FirmwareBuffer {
            queue: VecDeque::new(),
            level_bytes: 0,
            capacity_bytes,
            dropped: 0,
            flushed: 0,
            total_enqueued: 0,
            total_served_bytes: 0,
        }
    }

    /// Current occupancy in bytes — the FBCC `B(t)`.
    pub fn level_bytes(&self) -> u64 {
        self.level_bytes
    }

    /// Number of queued packets (possibly including one partially sent).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Packets dropped at the tail due to overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Packets discarded by [`FirmwareBuffer::flush`] (a subset of
    /// [`FirmwareBuffer::dropped`]). Flushed packets *were* accepted, so
    /// exact conservation holds:
    /// `total_enqueued == delivered + flushed + len`.
    pub fn flushed(&self) -> u64 {
        self.flushed
    }

    /// Total packets ever accepted.
    pub fn total_enqueued(&self) -> u64 {
        self.total_enqueued
    }

    /// Total bytes ever served.
    pub fn total_served_bytes(&self) -> u64 {
        self.total_served_bytes
    }

    /// Discard everything queued, counting each packet as dropped. This
    /// is what RRC re-establishment does to the RLC buffer after a radio
    /// link failure: queued data is lost, not delivered seconds late.
    /// Returns the number of packets discarded.
    pub fn flush(&mut self) -> u64 {
        let n = self.queue.len() as u64;
        self.queue.clear();
        self.level_bytes = 0;
        self.dropped += n;
        self.flushed += n;
        n
    }

    /// Undo any partial service of the head packet: after a handover the
    /// RLC context does not transfer, so a packet caught mid-segmentation
    /// is retransmitted in full at the target cell. Restores the head's
    /// remaining bytes (and the buffer level) to the packet's wire size;
    /// `total_served_bytes` stays monotone — those bytes really were
    /// sent, just wasted.
    pub fn restart_head(&mut self) {
        if let Some(head) = self.queue.front_mut() {
            let undo = head.item.wire_bytes() - head.remaining;
            head.remaining = head.item.wire_bytes();
            self.level_bytes += undo as u64;
        }
    }

    /// Offer a packet; drop-tail on overflow. Returns `true` if accepted.
    pub fn enqueue(&mut self, item: T, now: SimTime) -> bool {
        let bytes = item.wire_bytes() as u64;
        if self.level_bytes + bytes > self.capacity_bytes {
            self.dropped += 1;
            return false;
        }
        self.level_bytes += bytes;
        self.total_enqueued += 1;
        self.queue.push_back(Queued { remaining: item.wire_bytes(), item, enqueued_at: now });
        true
    }

    /// Serve up to `budget_bytes` from the head of the queue; returns the
    /// packets whose final byte was transmitted this service, with their
    /// original enqueue time.
    pub fn serve(&mut self, budget_bytes: u32) -> Vec<(T, SimTime)> {
        let mut done = Vec::new();
        self.serve_into(budget_bytes, &mut done);
        done
    }

    /// Like [`FirmwareBuffer::serve`], but appends departures into a
    /// caller-owned buffer so the per-subframe hot path reuses capacity.
    pub fn serve_into(&mut self, mut budget_bytes: u32, done: &mut Vec<(T, SimTime)>) {
        while budget_bytes > 0 {
            let Some(head) = self.queue.front_mut() else { break };
            let take = head.remaining.min(budget_bytes);
            head.remaining -= take;
            budget_bytes -= take;
            self.level_bytes -= take as u64;
            self.total_served_bytes += take as u64;
            if head.remaining == 0 {
                let q = self.queue.pop_front().expect("head exists");
                done.push((q.item, q.enqueued_at));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Pkt(u32);
    impl PacketLike for Pkt {
        fn wire_bytes(&self) -> u32 {
            self.0
        }
    }

    #[test]
    fn level_tracks_enqueue_and_serve() {
        let mut b = FirmwareBuffer::new(10_000);
        assert!(b.enqueue(Pkt(1_200), SimTime::ZERO));
        assert!(b.enqueue(Pkt(800), SimTime::ZERO));
        assert_eq!(b.level_bytes(), 2_000);
        let done = b.serve(500);
        assert!(done.is_empty(), "partial service completes nothing");
        assert_eq!(b.level_bytes(), 1_500);
        let done = b.serve(700);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, Pkt(1_200));
        assert_eq!(b.level_bytes(), 800);
    }

    #[test]
    fn serve_more_than_queued_empties() {
        let mut b = FirmwareBuffer::new(10_000);
        b.enqueue(Pkt(100), SimTime::ZERO);
        b.enqueue(Pkt(200), SimTime::ZERO);
        let done = b.serve(10_000);
        assert_eq!(done.len(), 2);
        assert!(b.is_empty());
        assert_eq!(b.level_bytes(), 0);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut b = FirmwareBuffer::new(100_000);
        for k in 1..=10u32 {
            b.enqueue(Pkt(k * 10), SimTime::from_millis(k as u64));
        }
        let done = b.serve(10 * 11 * 5); // exactly the total
        let sizes: Vec<u32> = done.iter().map(|(p, _)| p.0).collect();
        assert_eq!(sizes, (1..=10).map(|k| k * 10).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_drops_tail() {
        let mut b = FirmwareBuffer::new(1_000);
        assert!(b.enqueue(Pkt(900), SimTime::ZERO));
        assert!(!b.enqueue(Pkt(200), SimTime::ZERO));
        assert_eq!(b.dropped(), 1);
        assert_eq!(b.level_bytes(), 900);
        assert!(b.enqueue(Pkt(100), SimTime::ZERO), "exact fit accepted");
    }

    #[test]
    fn enqueue_times_survive_service() {
        let mut b = FirmwareBuffer::new(10_000);
        let t = SimTime::from_millis(42);
        b.enqueue(Pkt(300), t);
        let done = b.serve(300);
        assert_eq!(done[0].1, t);
    }

    #[test]
    fn served_bytes_accumulate() {
        let mut b = FirmwareBuffer::new(10_000);
        b.enqueue(Pkt(1_000), SimTime::ZERO);
        b.serve(400);
        b.serve(600);
        assert_eq!(b.total_served_bytes(), 1_000);
        assert_eq!(b.total_enqueued(), 1);
    }

    #[test]
    fn flush_counts_separately_from_overflow() {
        let mut b = FirmwareBuffer::new(1_000);
        assert!(b.enqueue(Pkt(900), SimTime::ZERO));
        assert!(!b.enqueue(Pkt(200), SimTime::ZERO)); // overflow
        assert_eq!(b.flush(), 1);
        assert_eq!(b.flushed(), 1);
        assert_eq!(b.dropped(), 2, "flush drops count toward dropped too");
        // Conservation: accepted == delivered + flushed + queued.
        assert_eq!(b.total_enqueued(), b.flushed() + b.len() as u64);
    }

    #[test]
    fn restart_head_rewinds_partial_service() {
        let mut b = FirmwareBuffer::new(10_000);
        b.enqueue(Pkt(1_000), SimTime::ZERO);
        b.enqueue(Pkt(500), SimTime::ZERO);
        assert!(b.serve(400).is_empty());
        assert_eq!(b.level_bytes(), 1_100);
        b.restart_head();
        assert_eq!(b.level_bytes(), 1_500, "head restored to full size");
        assert_eq!(b.total_served_bytes(), 400, "wasted bytes stay counted");
        // The full packet must now be re-served before it departs.
        assert!(b.serve(999).is_empty());
        assert_eq!(b.serve(1).len(), 1);
        // Idempotent on an unserved head and harmless when empty.
        b.restart_head();
        assert_eq!(b.level_bytes(), 500);
        b.serve(10_000);
        b.restart_head();
        assert!(b.is_empty());
    }
}
