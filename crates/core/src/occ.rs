//! OCC-style physical-layer-assisted congestion control (PAPERS.md).
//!
//! Where FBCC infers congestion from the *trend* of the firmware buffer
//! and otherwise defers to GCC's delay-gradient rate, OCC drives the
//! encoding rate directly from the PHY observables the diag plane already
//! exposes: the per-subframe transport-block size (the eNodeB's grant,
//! i.e. what the scheduler actually awards this UE) and the firmware
//! buffer level (the modem's BSR view of backlog). The controller keeps a
//! capacity estimate `Ĉ` and requests a fixed headroom fraction of it:
//!
//! * **Saturated link** (backlog in nearly every subframe): the granted
//!   rate *is* the share of cell capacity this UE can get, so `Ĉ` tracks
//!   the report's TBS rate through a short EWMA.
//! * **Unsaturated link**: the grant reflects demand, not capacity —
//!   there is no downward evidence — so `Ĉ` probes multiplicatively
//!   upward instead of collapsing onto its own sending rate. (A healthy
//!   pacer leaves backlog in well over half the subframes, which is why
//!   the saturation test sits near 1, not at a majority.)
//! * **Backlog relief**: a firmware buffer far above the relief level
//!   scales the requested rate down proportionally, draining the queue
//!   without corrupting the capacity estimate itself.
//!
//! **Frozen-diag safety.** A diag-read stall repeats the last logged
//! `(buffer, TBS)` pair verbatim while the radio keeps serving
//! (`FaultKind::DiagStall`). A report whose samples are all one identical
//! pair, twice in a row, carries no fresh information — OCC *holds* `Ĉ`
//! (no EWMA update, no probe) until live samples resume, so a stalled
//! modem never reads as capacity. The all-zero pair is deliberately NOT
//! exempt: an actively-paced session cannot log a whole epoch of
//! `(0, 0)` subframes on a live link (bytes handed to the modem either
//! sit in the buffer or show up as served TBS), so repeated constant
//! zeros are a stall signature too — a stall that happens to latch onto
//! a momentarily-empty subframe must still hold, not probe. A lightly
//! loaded but live link always mixes zero and non-zero samples within an
//! epoch, which keeps it probeable.

use poi360_lte::diag::DiagReport;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;

/// Fraction of the capacity estimate the encoder is asked to fill.
pub const HEADROOM: f64 = 0.85;
/// EWMA time constant of the capacity estimate on a busy link.
const RATE_TAU: SimDuration = SimDuration::from_millis(1_500);
/// Multiplicative upward probe rate on an idle link, per second.
const PROBE_PER_S: f64 = 0.08;
/// Fraction of a report's samples that must show a non-empty buffer for
/// the link to count as *saturated* — only then is the grant rate a
/// capacity observation. This must sit near 1: a healthy pacer leaves
/// backlog in well over half the subframes, and tracking the served rate
/// of an unsaturated link would just echo our own sending rate back as
/// "capacity" (self-throttling).
const BUSY_FRACTION: f64 = 0.9;
/// Firmware-buffer level beyond which the requested rate is scaled down to
/// drain backlog, bytes.
const RELIEF_BYTES: u64 = 60_000;
/// Lower bound on the video rate, bps.
pub const MIN_RATE_BPS: f64 = 100_000.0;
/// Upper bound on the video rate, bps.
pub const MAX_RATE_BPS: f64 = 30.0e6;
/// Pacer multiple over the video rate (burst headroom).
pub const RTP_MULTIPLE: f64 = 1.5;

/// OCC's construction parameters: all fixed, so they are the constants
/// above; the type stays for callers that name it.
#[derive(Clone, Copy, Debug, Default)]
pub struct OccConfig {}

/// The OCC engine: capacity tracking plus the stall hold.
#[derive(Clone, Debug)]
pub struct Occ {
    /// Capacity estimate `Ĉ`, bps.
    capacity_bps: f64,
    /// Last delivered backlog reading, bytes.
    backlog_bytes: u64,
    /// The constant `(buffer, tbs)` pair of the previous report, if that
    /// report was constant — one half of the stall signature.
    prev_constant: Option<(u64, u32)>,
    /// Whether the estimate is currently held by the stall detector.
    frozen: bool,
    /// Completed stall episodes (diagnostics).
    stall_holds: u64,
    /// Whether the backlog currently exceeds the relief level.
    congested: bool,
    /// Backlog-congestion episodes so far.
    detections: u64,
    recorder: Recorder,
}

/// The constant `(buffer, tbs)` pair of a report whose samples are all
/// identical, if any.
fn constant_pair(report: &DiagReport) -> Option<(u64, u32)> {
    let first = report.samples.first()?;
    let pair = (first.buffer_bytes, first.tbs_bits);
    report.samples.iter().all(|s| (s.buffer_bytes, s.tbs_bits) == pair).then_some(pair)
}

impl Occ {
    /// Create an OCC engine whose first request equals `start_rate_bps`.
    pub fn new(start_rate_bps: f64, _: OccConfig) -> Self {
        Occ {
            capacity_bps: (start_rate_bps / HEADROOM).clamp(MIN_RATE_BPS / HEADROOM, MAX_RATE_BPS),
            backlog_bytes: 0,
            prev_constant: None,
            frozen: false,
            stall_holds: 0,
            congested: false,
            detections: 0,
            recorder: Recorder::null(),
        }
    }

    /// Attach the session's probe recorder.
    pub fn set_recorder(&mut self, rec: &Recorder) {
        self.recorder = rec.clone();
    }

    /// Backlog-congestion episodes (the relief scaler engaging).
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Feed one diag batch.
    pub fn on_diag(&mut self, report: &DiagReport, now: SimTime) {
        if report.samples.is_empty() {
            return;
        }
        // Stall signature: two consecutive reports constant at the same
        // pair — all-zero included, since a paced session cannot log a
        // whole epoch of (0, 0) on a live link. The radio may well be
        // serving (a diag stall freezes only what the chipset logs), so
        // neither the frozen TBS nor the frozen backlog may reach the
        // controller state.
        let constant = constant_pair(report);
        let stalled = match (constant, self.prev_constant) {
            (Some(pair), Some(prev)) => pair == prev,
            _ => false,
        };
        self.prev_constant = constant;
        if stalled {
            if !self.frozen {
                self.frozen = true;
                self.stall_holds += 1;
                self.recorder.count("occ.stall_hold", now, 1);
            }
            self.recorder.event("occ.capacity_bps", now, self.capacity_bps);
            return;
        }
        self.frozen = false;

        let span_s = report.samples.len() as f64 * poi360_sim::SUBFRAME.as_secs_f64();
        let busy = report.samples.iter().filter(|s| s.buffer_bytes > 0).count() as f64
            / report.samples.len() as f64;
        if busy >= BUSY_FRACTION {
            // Saturated link (backlog in nearly every subframe): the grant
            // rate is the capacity share.
            let grant_bps = report.total_tbs_bits() as f64 / span_s;
            let alpha = (span_s / RATE_TAU.as_secs_f64()).min(1.0);
            self.capacity_bps += alpha * (grant_bps - self.capacity_bps);
        } else {
            // Underutilized link: no downward evidence; probe upward.
            self.capacity_bps *= 1.0 + PROBE_PER_S * span_s;
        }
        self.capacity_bps = self.capacity_bps.clamp(MIN_RATE_BPS / HEADROOM, MAX_RATE_BPS);
        self.backlog_bytes = report.last_buffer_bytes();

        let congested_now = self.backlog_bytes > RELIEF_BYTES;
        if congested_now && !self.congested {
            self.detections += 1;
            self.recorder.count("occ.congestion", now, 1);
        }
        self.congested = congested_now;
        self.recorder.event("occ.capacity_bps", now, self.capacity_bps);
    }

    /// Encoding bitrate: a headroom fraction of `Ĉ`, scaled down in
    /// proportion to any backlog beyond the relief level, clamped to the
    /// configured bounds.
    pub fn video_rate_bps(&self) -> f64 {
        let relief = if self.backlog_bytes > RELIEF_BYTES {
            RELIEF_BYTES as f64 / self.backlog_bytes as f64
        } else {
            1.0
        };
        (HEADROOM * self.capacity_bps * relief).clamp(MIN_RATE_BPS, MAX_RATE_BPS)
    }

    /// Pacer drain rate: a fixed burst multiple of the video rate.
    pub fn rtp_rate_bps(&self) -> f64 {
        RTP_MULTIPLE * self.video_rate_bps()
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

    /// Busy buffers that vary subframe to subframe (live traffic).
    fn busy(base: u64) -> Vec<u64> {
        (0..40).map(|k| base + (k % 3) * 400).collect()
    }

    /// Warm the estimate onto a 3.5 Mbps granted link (6 s ≈ 4 τ).
    fn warmed() -> Occ {
        let mut o = Occ::new(1.0e6, OccConfig::default());
        for epoch in 0..150u64 {
            o.on_diag(
                &report(epoch * 40, &busy(8_000), 3_500),
                SimTime::from_millis(epoch * 40 + 40),
            );
        }
        o
    }

    #[test]
    fn busy_link_converges_to_grant_rate() {
        let o = warmed();
        // 3500 bits per 1 ms subframe = 3.5 Mbps.
        assert!((o.capacity_bps - 3.5e6).abs() < 0.2e6, "cap {}", o.capacity_bps);
        let v = o.video_rate_bps();
        assert!((v - 0.85 * o.capacity_bps).abs() < 1.0, "video {v}");
    }

    #[test]
    fn idle_link_probes_upward() {
        let mut o = Occ::new(2.0e6, OccConfig::default());
        let before = o.capacity_bps;
        // Mostly-empty buffers: only 4 of 40 subframes backlogged.
        let buffers: Vec<u64> = (0..40).map(|k| if k % 10 == 0 { 1_200 } else { 0 }).collect();
        for epoch in 0..25u64 {
            o.on_diag(&report(epoch * 40, &buffers, 500), SimTime::from_millis(epoch * 40 + 40));
        }
        assert!(
            o.capacity_bps > 1.05 * before,
            "idle probe must grow the estimate: {} -> {}",
            before,
            o.capacity_bps
        );
    }

    #[test]
    fn backlog_scales_the_request_down_without_touching_capacity() {
        let mut o = warmed();
        let cap = o.capacity_bps;
        let free = o.video_rate_bps();
        o.on_diag(&report(5_000, &busy(240_000), 3_500), SimTime::from_millis(5_040));
        assert!((o.capacity_bps - cap).abs() < 0.1e6, "estimate poisoned by backlog");
        assert!(o.video_rate_bps() < 0.5 * free, "relief scaler must engage");
        assert_eq!(o.detections(), 1);
        // Backlog drains: the request recovers with the next report.
        o.on_diag(&report(5_040, &busy(8_000), 3_500), SimTime::from_millis(5_080));
        assert!(o.video_rate_bps() > 0.8 * free);
        assert_eq!(o.detections(), 1, "one episode, one detection");
    }

    #[test]
    fn frozen_pair_holds_the_estimate() {
        let mut o = warmed();
        let cap = o.capacity_bps;
        // A diag stall repeats one (buffer, tbs) pair verbatim. The first
        // constant report is ambiguous; from the second on OCC holds.
        for epoch in 0..30u64 {
            o.on_diag(
                &report(10_000 + epoch * 40, &[20_000; 40], 6_000),
                SimTime::from_millis(10_040 + epoch * 40),
            );
        }
        assert!(o.frozen);
        assert_eq!(o.stall_holds, 1);
        let drift = (o.capacity_bps - cap).abs() / cap;
        // Only the single ambiguous first report may move the estimate.
        assert!(drift < 0.05, "stalled diag moved Ĉ by {:.1}%", drift * 100.0);
    }

    #[test]
    fn live_samples_resume_tracking_after_a_stall() {
        let mut o = warmed();
        for epoch in 0..10u64 {
            o.on_diag(
                &report(10_000 + epoch * 40, &[20_000; 40], 6_000),
                SimTime::from_millis(10_040 + epoch * 40),
            );
        }
        assert!(o.frozen);
        for epoch in 0..150u64 {
            o.on_diag(
                &report(11_000 + epoch * 40, &busy(8_000), 2_000),
                SimTime::from_millis(11_040 + epoch * 40),
            );
        }
        assert!(!o.frozen);
        assert!((o.capacity_bps - 2.0e6).abs() < 0.2e6, "cap {}", o.capacity_bps);
        assert_eq!(o.stall_holds, 1);
    }

    #[test]
    fn all_zero_reports_hold_like_any_frozen_pair() {
        // A whole epoch of (0, 0) subframes is impossible on a live link
        // while the pacer is pushing bytes, so repeated constant zeros
        // are a stall signature, not an idle link.
        let mut o = Occ::new(2.0e6, OccConfig::default());
        let before = o.capacity_bps;
        for epoch in 0..10u64 {
            o.on_diag(&report(epoch * 40, &[0; 40], 0), SimTime::from_millis(epoch * 40 + 40));
        }
        assert!(o.frozen, "repeated constant zeros carry no information");
        // Only the single ambiguous first report may probe.
        assert!((o.capacity_bps - before) / before < 0.005, "stalled zeros must not probe");
    }

    #[test]
    fn lightly_loaded_live_link_keeps_probing() {
        // Mixed zero/non-zero samples within each epoch — a live link —
        // must never trip the stall detector even at identical epochs.
        let mut o = Occ::new(2.0e6, OccConfig::default());
        let before = o.capacity_bps;
        let buffers: Vec<u64> = (0..40).map(|k| if k == 7 { 1_200 } else { 0 }).collect();
        for epoch in 0..25u64 {
            o.on_diag(&report(epoch * 40, &buffers, 300), SimTime::from_millis(epoch * 40 + 40));
        }
        assert!(!o.frozen);
        assert!(o.capacity_bps > 1.05 * before, "live link must keep probing");
    }

    #[test]
    fn rates_respect_bounds() {
        let mut o = Occ::new(50.0e6, OccConfig::default());
        assert!(o.video_rate_bps() <= MAX_RATE_BPS);
        // Outage: zero grants, huge backlog.
        for epoch in 0..200u64 {
            o.on_diag(
                &report(epoch * 40, &busy(1_000_000), 0),
                SimTime::from_millis(epoch * 40 + 40),
            );
        }
        assert!(o.video_rate_bps() >= MIN_RATE_BPS);
        assert!(o.rtp_rate_bps() >= o.video_rate_bps());
    }

    #[test]
    fn outage_collapses_then_recovers() {
        let mut o = warmed();
        let pre = o.video_rate_bps();
        for epoch in 0..50u64 {
            o.on_diag(
                &report(5_000 + epoch * 40, &busy(400_000), 0),
                SimTime::from_millis(5_040 + epoch * 40),
            );
        }
        let trough = o.video_rate_bps();
        assert!(trough < 0.2 * pre, "outage must collapse the request: {trough}");
        for epoch in 0..120u64 {
            o.on_diag(
                &report(8_000 + epoch * 40, &busy(8_000), 3_500),
                SimTime::from_millis(8_040 + epoch * 40),
            );
        }
        let post = o.video_rate_bps();
        assert!(post >= 1.2 * trough, "post {post} vs trough {trough}");
        assert!(post >= 0.9 * pre, "post {post} vs pre {pre}");
    }
}
