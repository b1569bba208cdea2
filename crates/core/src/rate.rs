//! Rate-controller interface: plain GCC vs. FBCC-enhanced.
//!
//! The session drives a [`RateController`] with every network observable;
//! the controller answers two questions per frame: at what bitrate should
//! the encoder run (`R_v`), and how fast should the pacer drain (`R_rtp`).
//!
//! * [`GccRate`] — WebRTC's stock behaviour (the paper's baseline):
//!   `R_v = R_rtp = R_gcc`. It never looks at the diag reports, which is
//!   precisely why it underuses the PF uplink (paper Fig. 6).
//! * [`FbccRate`] — POI360: GCC still runs underneath (it handles
//!   congestion elsewhere, Eq. 6's second arm), but uplink congestion is
//!   detected locally from the firmware buffer and `R_rtp` is steered to
//!   the sweet spot.
//! * [`OccRate`] — PHY-assisted related work: the rate comes straight
//!   from a capacity estimate over the granted TBS stream (`core::occ`);
//!   GCC runs only for RTT bookkeeping on the RTCP path.

use crate::fbcc::{Fbcc, FbccConfig};
use crate::occ::{Occ, OccConfig};
use poi360_lte::diag::DiagReport;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;
use poi360_transport::gcc::{GccSender, Remb};

/// The sender-side rate-control interface.
pub trait RateController: Send {
    /// Attach the session's probe recorder (default: ignore it).
    fn set_recorder(&mut self, _rec: &Recorder) {}

    /// Feed a diag batch (cellular sessions only).
    fn on_diag(&mut self, _report: &DiagReport, _now: SimTime) {}

    /// Feed a REMB message from the receiver.
    fn on_remb(&mut self, remb: Remb);

    /// Feed a receiver report (loss fraction) plus an RTT sample.
    fn on_receiver_report(&mut self, loss_fraction: f64, rtt_sample: SimDuration);

    /// Encoding bitrate `R_v` for the next frame.
    fn video_rate_bps(&self, now: SimTime) -> f64;

    /// Pacer drain rate `R_rtp`.
    fn rtp_rate_bps(&self, now: SimTime) -> f64;

    /// Smoothed RTT estimate.
    fn rtt(&self) -> SimDuration;

    /// Uplink congestion detections so far (0 for GCC).
    fn uplink_detections(&self) -> u64 {
        0
    }
}

/// WebRTC's stock rate control.
pub struct GccRate {
    gcc: GccSender,
}

impl GccRate {
    /// Create with a start rate.
    pub fn new(start_rate_bps: f64) -> Self {
        GccRate { gcc: GccSender::new(start_rate_bps) }
    }
}

impl RateController for GccRate {
    fn set_recorder(&mut self, rec: &Recorder) {
        self.gcc.set_recorder(rec);
    }

    fn on_remb(&mut self, remb: Remb) {
        self.gcc.on_remb(remb);
    }

    fn on_receiver_report(&mut self, loss_fraction: f64, rtt_sample: SimDuration) {
        self.gcc.on_receiver_report(loss_fraction, rtt_sample);
    }

    fn video_rate_bps(&self, _now: SimTime) -> f64 {
        self.gcc.target_rate_bps()
    }

    fn rtp_rate_bps(&self, now: SimTime) -> f64 {
        // Stock WebRTC ties the pacing rate to the video bitrate (the paper
        // calls this out as the source of uplink under-utilization), with
        // the pacer's 2.5× burst multiplier: each frame is pushed out
        // quickly and the modem then sits idle until the next one — which
        // is exactly how the firmware buffer ends up empty ~40 % of the
        // time in the paper's Fig. 6.
        2.5 * self.video_rate_bps(now)
    }

    fn rtt(&self) -> SimDuration {
        self.gcc.rtt()
    }
}

/// POI360's FBCC on top of the legacy GCC.
pub struct FbccRate {
    gcc: GccSender,
    fbcc: Fbcc,
}

impl FbccRate {
    /// Create with a start rate.
    pub fn new(start_rate_bps: f64, cfg: FbccConfig) -> Self {
        FbccRate { gcc: GccSender::new(start_rate_bps), fbcc: Fbcc::new(cfg) }
    }

    /// Access the FBCC engine (diagnostics).
    pub fn fbcc(&self) -> &Fbcc {
        &self.fbcc
    }
}

impl RateController for FbccRate {
    fn set_recorder(&mut self, rec: &Recorder) {
        self.gcc.set_recorder(rec);
        self.fbcc.set_recorder(rec);
    }

    fn on_diag(&mut self, report: &DiagReport, now: SimTime) {
        self.fbcc.on_diag(report, self.gcc.rtt(), now);
    }

    fn on_remb(&mut self, remb: Remb) {
        self.gcc.on_remb(remb);
    }

    fn on_receiver_report(&mut self, loss_fraction: f64, rtt_sample: SimDuration) {
        self.gcc.on_receiver_report(loss_fraction, rtt_sample);
    }

    fn video_rate_bps(&self, now: SimTime) -> f64 {
        self.fbcc.video_rate_bps(now, self.gcc.target_rate_bps())
    }

    fn rtp_rate_bps(&self, now: SimTime) -> f64 {
        self.fbcc.rtp_rate_bps(now, self.gcc.target_rate_bps())
    }

    fn rtt(&self) -> SimDuration {
        self.gcc.rtt()
    }

    fn uplink_detections(&self) -> u64 {
        self.fbcc.detections()
    }
}

/// OCC-style PHY-assisted rate control (`core::occ`).
pub struct OccRate {
    gcc: GccSender,
    occ: Occ,
}

impl OccRate {
    /// Create with a start rate.
    pub fn new(start_rate_bps: f64, cfg: OccConfig) -> Self {
        OccRate { gcc: GccSender::new(start_rate_bps), occ: Occ::new(start_rate_bps, cfg) }
    }

    /// Access the OCC engine (diagnostics).
    pub fn occ(&self) -> &Occ {
        &self.occ
    }
}

impl RateController for OccRate {
    fn set_recorder(&mut self, rec: &Recorder) {
        // GCC keeps the RTCP/RTT plumbing but its target never reaches the
        // encoder, so only OCC's probes are worth recording.
        self.occ.set_recorder(rec);
    }

    fn on_diag(&mut self, report: &DiagReport, now: SimTime) {
        self.occ.on_diag(report, now);
    }

    fn on_remb(&mut self, remb: Remb) {
        self.gcc.on_remb(remb);
    }

    fn on_receiver_report(&mut self, loss_fraction: f64, rtt_sample: SimDuration) {
        self.gcc.on_receiver_report(loss_fraction, rtt_sample);
    }

    fn video_rate_bps(&self, _now: SimTime) -> f64 {
        self.occ.video_rate_bps()
    }

    fn rtp_rate_bps(&self, _now: SimTime) -> f64 {
        self.occ.rtp_rate_bps()
    }

    fn rtt(&self) -> SimDuration {
        self.gcc.rtt()
    }

    fn uplink_detections(&self) -> u64 {
        self.occ.detections()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_lte::diag::DiagSample;

    fn report(start_ms: u64, buffers: &[u64], tbs: u32) -> DiagReport {
        DiagReport {
            delivered_at: SimTime::from_millis(start_ms + buffers.len() as u64),
            samples: buffers
                .iter()
                .enumerate()
                .map(|(k, &b)| DiagSample {
                    at: SimTime::from_millis(start_ms + k as u64),
                    buffer_bytes: b,
                    tbs_bits: tbs,
                })
                .collect(),
        }
    }

    #[test]
    fn gcc_ties_rtp_to_video() {
        let mut g = GccRate::new(2.0e6);
        g.on_receiver_report(0.0, SimDuration::from_millis(80));
        let now = SimTime::from_secs(1);
        // Stock WebRTC: pacing rate = 2.5 × the video bitrate, always.
        assert_eq!(g.rtp_rate_bps(now), 2.5 * g.video_rate_bps(now));
        assert_eq!(g.uplink_detections(), 0);
    }

    #[test]
    fn gcc_ignores_diag() {
        let mut g = GccRate::new(2.0e6);
        let before = g.video_rate_bps(SimTime::ZERO);
        g.on_diag(&report(0, &[50_000; 40], 100), SimTime::from_millis(40));
        assert_eq!(g.video_rate_bps(SimTime::ZERO), before);
    }

    #[test]
    fn fbcc_pins_video_rate_on_uplink_congestion() {
        let mut f = FbccRate::new(8.0e6, FbccConfig::default());
        // Warm Γ.
        for epoch in 0..25u64 {
            f.on_diag(
                &report(epoch * 40, &[5_000; 40], 3_000),
                SimTime::from_millis(epoch * 40 + 40),
            );
        }
        // Ramp: congestion.
        let ramp: Vec<u64> = (0..40).map(|k| 6_000 + k * 1_200).collect();
        f.on_diag(&report(1_000, &ramp, 3_200), SimTime::from_millis(1_040));
        assert_eq!(f.uplink_detections(), 1);
        let v = f.video_rate_bps(SimTime::from_millis(1_050));
        assert!(v < 4.0e6, "video rate pinned to PHY: {v}");
        // RTP rate stays at or above the video rate.
        assert!(f.rtp_rate_bps(SimTime::from_millis(1_050)) >= v);
    }

    #[test]
    fn fbcc_decouples_rtp_from_video() {
        let mut f = FbccRate::new(1.0e6, FbccConfig::default());
        // Persistently empty buffer: Eq. 7 raises R_rtp above R_v.
        for epoch in 0..30u64 {
            f.on_diag(&report(epoch * 40, &[0; 40], 500), SimTime::from_millis(epoch * 40 + 40));
        }
        let now = SimTime::from_millis(1_250);
        assert!(
            f.rtp_rate_bps(now) > f.video_rate_bps(now),
            "rtp {} video {}",
            f.rtp_rate_bps(now),
            f.video_rate_bps(now)
        );
    }
}
