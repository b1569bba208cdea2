//! Rate control: plain GCC, FBCC-enhanced, or OCC.
//!
//! The session drives one [`RateControl`] with every network observable;
//! it answers two questions per frame: at what bitrate should the encoder
//! run (`R_v`), and how fast should the pacer drain (`R_rtp`). GCC always
//! runs on the RTCP path; the [`RateControlKind`] picks the law on top:
//!
//! * **GCC** — WebRTC's stock behaviour (the paper's baseline):
//!   `R_v = R_rtp = R_gcc`. It never looks at the diag reports, which is
//!   precisely why it underuses the PF uplink (paper Fig. 6).
//! * **FBCC** — POI360: GCC still runs underneath (it handles congestion
//!   elsewhere, Eq. 6's second arm), but uplink congestion is detected
//!   locally from the firmware buffer and `R_rtp` is steered to the sweet
//!   spot.
//! * **OCC** — PHY-assisted related work: the rate comes straight from a
//!   capacity estimate over the granted TBS stream (`core::occ`); GCC runs
//!   only for RTT bookkeeping on the RTCP path.

use crate::config::RateControlKind;
use crate::fbcc::{Fbcc, FbccConfig};
use crate::occ::{Occ, OccConfig};
use poi360_lte::diag::DiagReport;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;
use poi360_transport::gcc::{GccSender, Remb};

/// The rate law layered over GCC.
#[derive(Clone)]
enum Law {
    Gcc,
    Fbcc(Fbcc),
    Occ(Occ),
}

/// The sender-side rate control.
#[derive(Clone)]
pub struct RateControl {
    gcc: GccSender,
    law: Law,
}

impl RateControl {
    /// Create the controller a kind names, with a start rate.
    pub fn new(kind: RateControlKind, start_rate_bps: f64) -> Self {
        let law = match kind {
            RateControlKind::Gcc => Law::Gcc,
            RateControlKind::Fbcc => Law::Fbcc(Fbcc::new(FbccConfig::default())),
            RateControlKind::Occ => Law::Occ(Occ::new(start_rate_bps, OccConfig::default())),
        };
        RateControl { gcc: GccSender::new(start_rate_bps), law }
    }

    /// Attach the session's probe recorder.
    pub fn set_recorder(&mut self, rec: &Recorder) {
        match &mut self.law {
            Law::Gcc => self.gcc.set_recorder(rec),
            Law::Fbcc(fbcc) => {
                self.gcc.set_recorder(rec);
                fbcc.set_recorder(rec);
            }
            // GCC keeps the RTCP/RTT plumbing but its target never reaches
            // the encoder, so only OCC's probes are worth recording.
            Law::Occ(occ) => occ.set_recorder(rec),
        }
    }

    /// Feed a diag batch (cellular sessions only; GCC ignores it).
    pub fn on_diag(&mut self, report: &DiagReport, now: SimTime) {
        match &mut self.law {
            Law::Gcc => {}
            Law::Fbcc(fbcc) => {
                fbcc.on_diag(report, self.gcc.rtt(), now);
            }
            Law::Occ(occ) => occ.on_diag(report, now),
        }
    }

    /// Feed a REMB message from the receiver.
    pub fn on_remb(&mut self, remb: Remb) {
        self.gcc.on_remb(remb);
    }

    /// Feed a receiver report (loss fraction) plus an RTT sample.
    pub fn on_receiver_report(&mut self, loss_fraction: f64, rtt_sample: SimDuration) {
        self.gcc.on_receiver_report(loss_fraction, rtt_sample);
    }

    /// Encoding bitrate `R_v` for the next frame.
    pub fn video_rate_bps(&self, now: SimTime) -> f64 {
        match &self.law {
            Law::Gcc => self.gcc.target_rate_bps(),
            Law::Fbcc(fbcc) => fbcc.video_rate_bps(now, self.gcc.target_rate_bps()),
            Law::Occ(occ) => occ.video_rate_bps(),
        }
    }

    /// Pacer drain rate `R_rtp`.
    pub fn rtp_rate_bps(&self, now: SimTime) -> f64 {
        match &self.law {
            // Stock WebRTC ties the pacing rate to the video bitrate (the
            // paper calls this out as the source of uplink
            // under-utilization), with the pacer's 2.5× burst multiplier.
            // What the multiplier does here is keep GCC off a cliff: a pacer
            // draining at exactly the encoder's mean rate (R_rtp = R_v, 1.0×)
            // cannot clear its own frame bursts and GCC freezes 91.9 % of the
            // time, while from 1.5× to 4× neither GCC's freeze nor Fig. 6's
            // empty-buffer mass moves much (DESIGN.md §5b.2).
            Law::Gcc => 2.5 * self.video_rate_bps(now),
            Law::Fbcc(fbcc) => fbcc.rtp_rate_bps(now, self.gcc.target_rate_bps()),
            Law::Occ(occ) => occ.rtp_rate_bps(),
        }
    }

    /// Uplink congestion detections so far (0 for GCC).
    pub fn uplink_detections(&self) -> u64 {
        match &self.law {
            Law::Gcc => 0,
            Law::Fbcc(fbcc) => fbcc.detections(),
            Law::Occ(occ) => occ.detections(),
        }
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
        let mut g = RateControl::new(RateControlKind::Gcc, 2.0e6);
        g.on_receiver_report(0.0, SimDuration::from_millis(80));
        let now = SimTime::from_secs(1);
        // Stock WebRTC: pacing rate = 2.5 × the video bitrate, always.
        assert_eq!(g.rtp_rate_bps(now), 2.5 * g.video_rate_bps(now));
        assert_eq!(g.uplink_detections(), 0);
    }

    #[test]
    fn gcc_ignores_diag() {
        let mut g = RateControl::new(RateControlKind::Gcc, 2.0e6);
        let before = g.video_rate_bps(SimTime::ZERO);
        g.on_diag(&report(0, &[50_000; 40], 100), SimTime::from_millis(40));
        assert_eq!(g.video_rate_bps(SimTime::ZERO), before);
    }

    #[test]
    fn fbcc_pins_video_rate_on_uplink_congestion() {
        let mut f = RateControl::new(RateControlKind::Fbcc, 8.0e6);
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
        let mut f = RateControl::new(RateControlKind::Fbcc, 1.0e6);
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

    #[test]
    fn occ_keeps_gcc_off_the_recorder() {
        use poi360_sim::trace::BufferSink;
        for (kind, gcc_events) in
            [(RateControlKind::Gcc, 2), (RateControlKind::Fbcc, 2), (RateControlKind::Occ, 0)]
        {
            let sink = BufferSink::shared();
            let mut r = RateControl::new(kind, 2.0e6);
            r.set_recorder(&Recorder::to_sink(sink.clone(), "session"));
            r.on_remb(Remb { rate_bps: 3.0e6, at: SimTime::from_millis(10) });
            assert_eq!(sink.lock().unwrap().len(), gcc_events, "{kind:?}");
        }
    }
}
