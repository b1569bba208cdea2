//! Google Congestion Control, from scratch.
//!
//! The paper's baseline rate control (§2, §4.3): "Google Congestion Control
//! (GCC) has been a leading proposal in RMCAT, and acts as the media
//! transportation framework in mainstream browsers". POI360 degrades to GCC
//! when congestion is *not* on the cellular uplink (Eq. 6), and FBCC is
//! evaluated against it (Figs. 6, 15, 16).
//!
//! Receiver side, per the draft the paper cites:
//! 1. **Arrival-time filter** — packets are grouped by video frame; the
//!    inter-group delay variation `d(i) = (t_i − t_{i−1}) − (T_i − T_{i−1})`
//!    feeds a scalar Kalman filter estimating the queuing-delay gradient
//!    `m(t)`.
//! 2. **Adaptive-threshold overuse detector** — `m` is compared against a
//!    threshold γ that adapts (fast up, slow down) so the detector stays
//!    sensitive without starving against TCP; sustained `m > γ` signals
//!    overuse, `m < −γ` underuse.
//! 3. **AIMD remote-rate controller** — Increase (multiplicative ~8 %/s) /
//!    Hold / Decrease (`0.85 × incoming rate`), fed back to the sender via
//!    REMB messages (periodic + immediately on decrease).
//!
//! Sender side: a loss-based controller bounds the REMB rate (cut by
//! `1 − 0.5p` above 10 % loss, probe +5 % below 2 %).
//!
//! The deliberate weakness the paper exploits: every control decision here
//! rides end-to-end signals, so reaction lags the congestion by at least
//! one RTT plus the queue that has already built — FBCC's firmware-buffer
//! detection beats it by construction.

use crate::rtcp::RttEstimator;
use poi360_net::packet::Packet;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;

/// Detector output signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RateControlSignal {
    /// Queuing delay gradient significantly positive: back off.
    Overuse,
    /// No significant trend.
    Normal,
    /// Gradient significantly negative: queues draining.
    Underuse,
}

/// Scalar Kalman filter over the inter-group delay variation.
#[derive(Clone, Debug)]
struct ArrivalFilter {
    /// Estimated queuing delay gradient, ms per group.
    m_hat: f64,
    /// Estimate variance.
    e: f64,
    /// Measurement noise variance estimate.
    var_noise: f64,
}

impl ArrivalFilter {
    fn new() -> Self {
        ArrivalFilter { m_hat: 0.0, e: 0.1, var_noise: 2.0 }
    }

    fn update(&mut self, d_ms: f64) -> f64 {
        let z = d_ms - self.m_hat;
        self.var_noise = (0.95 * self.var_noise + 0.05 * z * z).max(0.5);
        self.e += 0.02; // process noise: the gradient drifts
        let k = self.e / (self.e + self.var_noise);
        self.m_hat += k * z;
        self.e *= 1.0 - k;
        self.m_hat
    }
}

/// Adaptive-threshold overuse detector.
#[derive(Clone, Debug)]
struct OveruseDetector {
    threshold_ms: f64,
    last_update: Option<SimTime>,
    over_since: Option<SimTime>,
    prev_m: f64,
    signal: RateControlSignal,
}

impl OveruseDetector {
    /// Sustained-overuse requirement before declaring.
    const OVERUSE_TIME: SimDuration = SimDuration::from_millis(10);

    fn new() -> Self {
        OveruseDetector {
            threshold_ms: 12.5,
            last_update: None,
            over_since: None,
            prev_m: 0.0,
            signal: RateControlSignal::Normal,
        }
    }

    fn update(&mut self, now: SimTime, raw_m: f64, num_deltas: u64) -> RateControlSignal {
        // WebRTC scales the offset by the accumulated evidence before
        // comparing against the threshold: sustained small gradients add up.
        let m = raw_m * (num_deltas.min(60) as f64) * 4.0;

        // Threshold adaptation: chase |m| quickly when above (stay TCP
        // friendly), decay slowly when below (stay sensitive).
        if let Some(last) = self.last_update {
            let dt_ms = now.saturating_since(last).as_micros() as f64 / 1e3;
            let k = if m.abs() > self.threshold_ms { 0.01 } else { 0.00018 };
            self.threshold_ms += dt_ms * k * (m.abs() - self.threshold_ms);
            self.threshold_ms = self.threshold_ms.clamp(6.0, 600.0);
        }
        self.last_update = Some(now);

        self.signal = if m > self.threshold_ms {
            let since = *self.over_since.get_or_insert(now);
            if now.saturating_since(since) >= Self::OVERUSE_TIME && m >= self.prev_m {
                RateControlSignal::Overuse
            } else {
                // Pending overuse: keep the previous verdict until sustained.
                self.signal
            }
        } else if m < -self.threshold_ms {
            self.over_since = None;
            RateControlSignal::Underuse
        } else {
            self.over_since = None;
            RateControlSignal::Normal
        };
        self.prev_m = m;
        self.signal
    }
}

/// AIMD remote-rate controller state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RateState {
    Hold,
    Increase,
    Decrease,
}

/// AIMD remote-rate controller.
#[derive(Clone, Debug)]
struct AimdController {
    state: RateState,
    rate_bps: f64,
    last_update: Option<SimTime>,
    min_rate: f64,
    max_rate: f64,
    decreased: bool,
    /// Set after the first decrease: the controller has seen the link's
    /// capacity region and switches from multiplicative to additive
    /// increase (the draft's "near convergence" regime).
    near_convergence: bool,
}

impl AimdController {
    fn new(start_rate_bps: f64) -> Self {
        AimdController {
            state: RateState::Increase,
            rate_bps: start_rate_bps,
            last_update: None,
            min_rate: 50_000.0,
            max_rate: 30.0e6,
            decreased: false,
            near_convergence: false,
        }
    }

    fn update(&mut self, now: SimTime, signal: RateControlSignal, incoming_rate_bps: f64) -> f64 {
        // State transitions per the draft's table.
        self.state = match (self.state, signal) {
            (_, RateControlSignal::Overuse) => RateState::Decrease,
            (RateState::Decrease, RateControlSignal::Normal) => RateState::Hold,
            (_, RateControlSignal::Normal) => RateState::Increase,
            (_, RateControlSignal::Underuse) => RateState::Hold,
        };
        let dt =
            self.last_update.map(|l| now.saturating_since(l).as_secs_f64()).unwrap_or(0.0).min(1.0);
        self.last_update = Some(now);

        match self.state {
            RateState::Increase => {
                if self.near_convergence {
                    // Additive probing near the discovered capacity.
                    self.rate_bps += 80_000.0 * dt;
                } else {
                    self.rate_bps *= 1.08f64.powf(dt);
                }
                // Never run far ahead of what actually arrives.
                if incoming_rate_bps > 0.0 {
                    self.rate_bps = self.rate_bps.min(1.5 * incoming_rate_bps + 20_000.0);
                }
            }
            RateState::Decrease => {
                let basis = if incoming_rate_bps > 0.0 { incoming_rate_bps } else { self.rate_bps };
                self.rate_bps = 0.8 * basis;
                self.decreased = true;
                self.near_convergence = true;
            }
            RateState::Hold => {}
        }
        self.rate_bps = self.rate_bps.clamp(self.min_rate, self.max_rate);
        self.rate_bps
    }

    /// True once since the last call if a decrease happened (for immediate
    /// REMB feedback).
    fn take_decreased(&mut self) -> bool {
        std::mem::take(&mut self.decreased)
    }
}

/// One REMB feedback message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Remb {
    /// The receiver-estimated maximum bitrate, bps.
    pub rate_bps: f64,
    /// Generation time.
    pub at: SimTime,
}

/// Receiver-side GCC.
#[derive(Clone, Debug)]
pub struct GccReceiver {
    filter: ArrivalFilter,
    detector: OveruseDetector,
    aimd: AimdController,
    // Current frame group being accumulated.
    group_frame: Option<u64>,
    group_last_sent: SimTime,
    group_last_arrival: SimTime,
    // Previous completed group.
    prev_group: Option<(SimTime, SimTime)>,
    // Incoming-rate window.
    window: std::collections::VecDeque<(SimTime, u32)>,
    last_remb: SimTime,
    remb_interval: SimDuration,
    latest_signal: RateControlSignal,
    num_deltas: u64,
}

impl GccReceiver {
    /// Create a receiver-side controller with a start rate.
    pub fn new(start_rate_bps: f64) -> Self {
        GccReceiver {
            filter: ArrivalFilter::new(),
            detector: OveruseDetector::new(),
            aimd: AimdController::new(start_rate_bps),
            group_frame: None,
            group_last_sent: SimTime::ZERO,
            group_last_arrival: SimTime::ZERO,
            prev_group: None,
            window: std::collections::VecDeque::new(),
            last_remb: SimTime::ZERO,
            remb_interval: SimDuration::from_millis(200),
            latest_signal: RateControlSignal::Normal,
            num_deltas: 0,
        }
    }

    /// Incoming media rate over the last 500 ms, bps.
    pub fn incoming_rate_bps(&self, now: SimTime) -> f64 {
        let horizon = SimDuration::from_millis(500);
        let cutoff =
            if now.as_micros() > horizon.as_micros() { now - horizon } else { SimTime::ZERO };
        let bytes: u64 =
            self.window.iter().filter(|&&(t, _)| t >= cutoff).map(|&(_, b)| b as u64).sum();
        let span = now.saturating_since(cutoff);
        poi360_sim::time::bits_per_sec(bytes, span)
    }

    /// Record an arriving media packet.
    pub fn on_packet(&mut self, pkt: &Packet, arrival: SimTime) {
        self.window.push_back((arrival, pkt.bytes));
        let horizon = SimDuration::from_millis(600);
        while let Some(&(t, _)) = self.window.front() {
            if arrival.saturating_since(t) > horizon {
                self.window.pop_front();
            } else {
                break;
            }
        }

        // Retransmissions are excluded from the arrival filter (WebRTC does
        // the same): their timing reflects the NACK round trip, not the
        // path's queuing gradient.
        if pkt.retransmit {
            return;
        }
        let Some(tag) = pkt.frame else { return };
        match self.group_frame {
            Some(cur) if cur == tag.frame_no => {
                self.group_last_sent = self.group_last_sent.max(pkt.sent_at);
                self.group_last_arrival = arrival;
            }
            Some(_) => {
                // Group boundary: close the previous group and measure.
                let closed = (self.group_last_sent, self.group_last_arrival);
                if let Some((ps, pa)) = self.prev_group {
                    let d_send = closed.0.saturating_since(ps).as_micros() as f64 / 1e3;
                    let d_arr = closed.1.saturating_since(pa).as_micros() as f64 / 1e3;
                    let d = d_arr - d_send;
                    let m = self.filter.update(d);
                    self.num_deltas += 1;
                    self.latest_signal = self.detector.update(arrival, m, self.num_deltas);
                    let incoming = self.incoming_rate_bps(arrival);
                    self.aimd.update(arrival, self.latest_signal, incoming);
                }
                self.prev_group = Some(closed);
                self.group_frame = Some(tag.frame_no);
                self.group_last_sent = pkt.sent_at;
                self.group_last_arrival = arrival;
            }
            None => {
                self.group_frame = Some(tag.frame_no);
                self.group_last_sent = pkt.sent_at;
                self.group_last_arrival = arrival;
            }
        }
    }

    /// Emit a REMB if due (periodic) or urgent (just decreased).
    pub fn poll_remb(&mut self, now: SimTime) -> Option<Remb> {
        let urgent = self.aimd.take_decreased();
        if urgent || now.saturating_since(self.last_remb) >= self.remb_interval {
            self.last_remb = now;
            Some(Remb { rate_bps: self.aimd.rate_bps, at: now })
        } else {
            None
        }
    }
}

/// Sender-side GCC: loss-based bound combined with the latest REMB.
#[derive(Clone, Debug)]
pub struct GccSender {
    loss_rate_bps: f64,
    remb_bps: f64,
    rtt: RttEstimator,
    min_rate: f64,
    max_rate: f64,
    recorder: Recorder,
}

impl GccSender {
    /// Create a sender-side controller with a start rate.
    pub fn new(start_rate_bps: f64) -> Self {
        GccSender {
            loss_rate_bps: start_rate_bps,
            remb_bps: 30.0e6, // unbounded until the first REMB arrives
            rtt: RttEstimator::new(),
            min_rate: 50_000.0,
            max_rate: 30.0e6,
            recorder: Recorder::null(),
        }
    }

    /// Attach the session's probe recorder.
    pub fn set_recorder(&mut self, rec: &Recorder) {
        self.recorder = rec.clone();
    }

    /// Feed a receiver report's loss fraction plus an RTT sample.
    pub fn on_receiver_report(&mut self, loss_fraction: f64, rtt_sample: SimDuration) {
        self.rtt.on_sample(rtt_sample);
        if loss_fraction > 0.10 {
            self.loss_rate_bps *= 1.0 - 0.5 * loss_fraction;
        } else if loss_fraction < 0.02 {
            self.loss_rate_bps *= 1.05;
        }
        self.loss_rate_bps = self.loss_rate_bps.clamp(self.min_rate, self.max_rate);
    }

    /// Feed a REMB message from the receiver.
    pub fn on_remb(&mut self, remb: Remb) {
        self.remb_bps = remb.rate_bps.clamp(self.min_rate, self.max_rate);
        self.recorder.event("gcc.remb_bps", remb.at, self.remb_bps);
        self.recorder.event("gcc.target_rate_bps", remb.at, self.target_rate_bps());
    }

    /// The GCC target rate `R_gcc`: REMB bounded by the loss controller.
    pub fn target_rate_bps(&self) -> f64 {
        self.loss_rate_bps.min(self.remb_bps)
    }

    /// Smoothed RTT.
    pub fn rtt(&self) -> SimDuration {
        self.rtt.rtt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_net::packet::FrameTag;

    fn frame_pkt(frame: u64, seq: u64, sent_ms: u64) -> Packet {
        sized_pkt(frame, seq, sent_ms, 1_240)
    }

    fn sized_pkt(frame: u64, seq: u64, sent_ms: u64, bytes: u32) -> Packet {
        Packet::video(
            seq,
            bytes,
            SimTime::from_millis(sent_ms),
            FrameTag { frame_no: frame, index: 0, count: 1 },
        )
    }

    /// Feed `n` frames with send interval `send_gap_ms` and per-frame
    /// arrival delay given by `delay_ms(frame)`.
    fn drive(rx: &mut GccReceiver, n: u64, send_gap_ms: u64, delay_ms: impl Fn(u64) -> u64) {
        for f in 0..n {
            let sent = f * send_gap_ms;
            let arrival = sent + delay_ms(f);
            rx.on_packet(&frame_pkt(f, f, sent), SimTime::from_millis(arrival));
        }
    }

    #[test]
    fn steady_arrivals_signal_normal_and_rate_grows() {
        let mut rx = GccReceiver::new(1.0e6);
        // 10.5 kB frames at 36 fps = ~3 Mbps of clean incoming media.
        for f in 0..108u64 {
            rx.on_packet(&sized_pkt(f, f, f * 28, 10_500), SimTime::from_millis(f * 28 + 50));
        }
        assert_eq!(rx.latest_signal, RateControlSignal::Normal);
        let remb = rx.poll_remb(SimTime::from_secs(3)).expect("periodic REMB");
        assert!(remb.rate_bps > 1.1e6, "rate should probe upward: {}", remb.rate_bps);
    }

    #[test]
    fn growing_queue_triggers_overuse_and_decrease() {
        let mut rx = GccReceiver::new(3.0e6);
        // Delay grows 4 ms per frame: a queue building at the bottleneck.
        drive(&mut rx, 80, 28, |f| 50 + f * 4);
        assert_eq!(rx.latest_signal, RateControlSignal::Overuse);
        let remb = rx.poll_remb(SimTime::from_secs(10)).expect("REMB after decrease");
        let incoming = rx.incoming_rate_bps(SimTime::from_millis(80 * 28 + 50 + 316));
        // Decrease sets the rate to 0.85 × incoming.
        assert!(
            remb.rate_bps <= incoming * 0.9 + 30_000.0,
            "remb {} incoming {incoming}",
            remb.rate_bps
        );
    }

    #[test]
    fn draining_queue_signals_underuse() {
        let mut rx = GccReceiver::new(3.0e6);
        // Delay shrinks rapidly: queue draining.
        drive(&mut rx, 60, 28, |f| 300u64.saturating_sub(f * 5).max(20));
        assert_eq!(rx.latest_signal, RateControlSignal::Underuse);
    }

    #[test]
    fn urgent_remb_on_decrease() {
        let mut rx = GccReceiver::new(3.0e6);
        drive(&mut rx, 80, 28, |f| 50 + f * 4);
        // Immediately after overuse, a REMB fires regardless of period.
        let t = SimTime::from_millis(80 * 28 + 400);
        let first = rx.poll_remb(t);
        assert!(first.is_some());
        // And not again right away (no new decrease, period not elapsed).
        let second = rx.poll_remb(t + SimDuration::from_millis(1));
        assert!(second.is_none());
    }

    #[test]
    fn incoming_rate_window_measures() {
        let mut rx = GccReceiver::new(1.0e6);
        // 36 fps × 1240 B ≈ 0.357 Mbps.
        drive(&mut rx, 72, 28, |_| 40);
        let rate = rx.incoming_rate_bps(SimTime::from_millis(72 * 28 + 40));
        assert!((rate - 0.357e6).abs() < 0.08e6, "rate {rate}");
    }

    #[test]
    fn sender_loss_controller_cuts_on_heavy_loss() {
        let mut tx = GccSender::new(3.0e6);
        tx.on_receiver_report(0.2, SimDuration::from_millis(80));
        assert!((tx.target_rate_bps() - 3.0e6 * 0.9).abs() < 1.0, "{}", tx.target_rate_bps());
    }

    #[test]
    fn sender_probes_up_when_clean() {
        let mut tx = GccSender::new(1.0e6);
        for _ in 0..5 {
            tx.on_receiver_report(0.0, SimDuration::from_millis(60));
        }
        assert!(tx.target_rate_bps() > 1.2e6);
    }

    #[test]
    fn sender_holds_in_between() {
        let mut tx = GccSender::new(1.0e6);
        tx.on_receiver_report(0.05, SimDuration::from_millis(60));
        assert_eq!(tx.target_rate_bps(), 1.0e6);
    }

    #[test]
    fn remb_caps_the_sender() {
        let mut tx = GccSender::new(5.0e6);
        tx.on_remb(Remb { rate_bps: 2.0e6, at: SimTime::ZERO });
        assert_eq!(tx.target_rate_bps(), 2.0e6);
        // Loss controller can go lower than the REMB.
        for _ in 0..20 {
            tx.on_receiver_report(0.3, SimDuration::from_millis(60));
        }
        assert!(tx.target_rate_bps() < 2.0e6);
    }

    #[test]
    fn rtt_tracked_from_reports() {
        let mut tx = GccSender::new(1.0e6);
        tx.on_receiver_report(0.0, SimDuration::from_millis(150));
        assert_eq!(tx.rtt(), SimDuration::from_millis(150));
    }

    #[test]
    fn rates_stay_clamped() {
        let mut tx = GccSender::new(1.0e6);
        for _ in 0..500 {
            tx.on_receiver_report(0.0, SimDuration::from_millis(60));
        }
        assert!(tx.target_rate_bps() <= 30.0e6);
        let mut rx = GccReceiver::new(1.0e6);
        drive(&mut rx, 40, 28, |f| 50 + f * 20);
        let remb = rx.poll_remb(SimTime::from_secs(60)).unwrap();
        assert!(remb.rate_bps >= 50_000.0);
    }
}
