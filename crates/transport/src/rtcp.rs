//! RTCP receiver statistics and the sender's RTT estimate.
//!
//! The receiver tracks the loss fraction of each reporting interval; the
//! sender computes RTT from the echoed timestamp. GCC's loss-based
//! controller consumes the loss fraction; FBCC consumes the RTT (its 2-RTT
//! hold window, paper Eq. 6).

use poi360_net::packet::Packet;
use poi360_sim::time::{SimDuration, SimTime};

/// Receiver-side bookkeeping behind each report's loss fraction.
#[derive(Clone, Debug, Default)]
pub struct ReceiverStats {
    highest_seq: Option<u64>,
    received_in_interval: u64,
    expected_start_seq: Option<u64>,
}

impl ReceiverStats {
    /// Fresh stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a received media packet. The loss fraction reads sequence
    /// numbers only, so the arrival time is not used.
    pub fn on_packet(&mut self, pkt: &Packet, _arrival: SimTime) {
        if self.expected_start_seq.is_none() {
            self.expected_start_seq = Some(pkt.seq);
        }
        self.highest_seq = Some(self.highest_seq.map_or(pkt.seq, |h| h.max(pkt.seq)));
        self.received_in_interval += 1;
    }

    /// Close the current interval and return its loss fraction, `[0, 1]`.
    pub fn make_report(&mut self) -> f64 {
        let expected = match (self.expected_start_seq, self.highest_seq) {
            // If only retransmissions of older packets arrived this
            // interval, the highest seq can sit below the interval's
            // expected start: nothing *new* was expected.
            (Some(start), Some(hi)) if hi >= start => hi - start + 1,
            _ => 0,
        };
        let loss_fraction = if expected == 0 {
            0.0
        } else {
            (1.0 - self.received_in_interval as f64 / expected as f64).clamp(0.0, 1.0)
        };
        // Reset the interval; the next expected window starts just above
        // the highest seq seen.
        self.expected_start_seq = self.highest_seq.map(|h| h + 1);
        self.received_in_interval = 0;
        loss_fraction
    }
}

/// Sender-side RTT estimator fed by report round trips.
#[derive(Clone, Copy, Debug, Default)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
}

impl RttEstimator {
    /// Fresh estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one RTT sample (smoothed 7/8 as TCP does).
    pub fn on_sample(&mut self, rtt: SimDuration) {
        self.srtt = Some(match self.srtt {
            None => rtt,
            Some(s) => SimDuration::from_micros((s.as_micros() * 7 + rtt.as_micros()) / 8),
        });
    }

    /// Smoothed RTT; defaults to 100 ms before any sample (a typical
    /// cellular value, so FBCC's 2-RTT window is sane at startup).
    pub fn rtt(&self) -> SimDuration {
        self.srtt.unwrap_or(SimDuration::from_millis(100))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_net::packet::FrameTag;

    fn vpkt(seq: u64, sent_ms: u64) -> Packet {
        Packet::video(
            seq,
            1_240,
            SimTime::from_millis(sent_ms),
            FrameTag { frame_no: seq, index: 0, count: 1 },
        )
    }

    #[test]
    fn no_loss_no_fraction() {
        let mut s = ReceiverStats::new();
        for k in 0..10 {
            s.on_packet(&vpkt(k, k), SimTime::from_millis(k + 50));
        }
        assert_eq!(s.make_report(), 0.0);
    }

    #[test]
    fn loss_fraction_counts_gaps() {
        let mut s = ReceiverStats::new();
        for k in [0u64, 1, 2, 5, 6, 7, 8, 9] {
            s.on_packet(&vpkt(k, k), SimTime::from_millis(k + 50));
        }
        let loss = s.make_report();
        assert!((loss - 0.2).abs() < 1e-9, "loss {loss}");
    }

    #[test]
    fn intervals_reset() {
        let mut s = ReceiverStats::new();
        for k in [0u64, 2] {
            s.on_packet(&vpkt(k, k), SimTime::from_millis(k + 50));
        }
        assert!(s.make_report() > 0.0);
        for k in [3u64, 4, 5] {
            s.on_packet(&vpkt(k, k), SimTime::from_millis(k + 150));
        }
        assert_eq!(s.make_report(), 0.0, "new interval starts clean");
    }

    #[test]
    fn retransmission_only_interval_does_not_overflow() {
        // Regression: an interval in which only retransmitted (old-seq)
        // packets arrive used to underflow the expected-packet count.
        let mut s = ReceiverStats::new();
        for k in 0..5u64 {
            s.on_packet(&vpkt(k, k), SimTime::from_millis(k + 50));
        }
        s.make_report(); // expected start is now 5
                         // Only a retransmission of seq 2 arrives before the next report.
        let mut old = vpkt(2, 2);
        old.retransmit = true;
        s.on_packet(&old, SimTime::from_millis(150));
        assert_eq!(s.make_report(), 0.0);
    }

    #[test]
    fn rtt_estimator_smooths() {
        let mut e = RttEstimator::new();
        assert_eq!(e.rtt(), SimDuration::from_millis(100));
        e.on_sample(SimDuration::from_millis(80));
        assert_eq!(e.rtt(), SimDuration::from_millis(80));
        e.on_sample(SimDuration::from_millis(160));
        // 80*7/8 + 160/8 = 90.
        assert_eq!(e.rtt(), SimDuration::from_millis(90));
    }
}
