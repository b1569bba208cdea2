//! Firmware-Buffer-aware Congestion Control (paper §4.3).
//!
//! FBCC consumes the diag reports (40 ms batches of per-subframe firmware
//! buffer level `B` and TBS) and controls two rates:
//!
//! **Encoding bitrate `R_v` (§4.3.1).** Uplink congestion is declared
//! (Eq. 3) when `B` has increased for `K = 10` consecutive chipset reports
//! *and* `B(t)` exceeds its long-term average `Γ(t)`. Eq. 3's `Δt` is "the
//! report interval of firmware buffer occupancy from the phone's chipset",
//! which §4.3.2 gives as `D_p = 40 ms` on the test device — so the
//! consecutive-increase test runs on the 40 ms report sequence (where
//! sustained congestion shows as monotone growth), not on raw 1 ms
//! subframe samples (where packet-level granularity makes `B` sawtooth
//! even under heavy overload). On detection at `t*`,
//! `R_v` is pinned to the instantaneous PHY throughput — the windowed TBS
//! sum (Eq. 4), which on a saturated uplink *is* the available bandwidth
//! (Eq. 5) — for `2·RTT` (Eq. 6), preventing the double back-off that would
//! follow when GCC's own (one-RTT-late) decrease arrives. Outside that
//! window `R_v = R_gcc`, which also covers congestion elsewhere on the path.
//!
//! **RTP sending rate `R_rtp` (§4.3.2).** Every 40 ms epoch `D_p`, the
//! controller steers the firmware buffer toward the "sweet spot" `B*` —
//! high enough that the proportional-fair scheduler keeps granting at the
//! saturation rate, low enough to stay clear of congestion — via Eq. 7:
//! `R_rtp += (B* − B)/D_p`. `B*` is learned online from the observed
//! (buffer level → TBS rate) relation, i.e. from the device's own Fig. 5
//! curve.

use poi360_lte::diag::DiagReport;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;
use std::collections::VecDeque;

/// Consecutive buffer increases required by Eq. 3 ("a small K = 10").
const K_CONSECUTIVE: usize = 10;
/// Averaging window for the TBS sum of Eq. 4.
const TBS_WINDOW: SimDuration = SimDuration::from_millis(200);
/// Time constant of the long-term buffer average Γ(t).
const GAMMA_TAU: SimDuration = SimDuration::from_secs(20);
/// How long `R_v` stays pinned after detection, in RTTs (Eq. 6 uses 2).
const HOLD_RTTS: u64 = 2;
/// Initial sweet-spot buffer target until the learner has data, bytes.
const INITIAL_BSTAR: u64 = 10_000;
/// Lower bound for the learned B*, bytes.
const BSTAR_MIN: u64 = 4_000;
/// Upper bound for the learned B*, bytes.
const BSTAR_MAX: u64 = 20_000;
/// How often the B* learner re-fits.
const BSTAR_REFIT_EVERY: SimDuration = SimDuration::from_secs(5);

/// FBCC's construction parameters. The paper fixes every one of them, so
/// they are the constants above; the type stays for callers that name it.
#[derive(Clone, Copy, Debug, Default)]
pub struct FbccConfig {}

/// Online learner of the sweet-spot buffer level `B*`.
///
/// Buckets 40 ms epochs by buffer level and tracks the mean TBS rate per
/// bucket; `B*` is the smallest bucket whose mean rate reaches ≥ 85 % of
/// the best observed rate — the knee of the device's Fig. 5 curve.
#[derive(Clone, Debug)]
struct BstarLearner {
    bucket_width: u64,
    sums: Vec<f64>,
    counts: Vec<u64>,
    bstar: u64,
    last_fit: SimTime,
}

impl BstarLearner {
    const BUCKETS: usize = 24;

    fn new(initial: u64) -> Self {
        BstarLearner {
            bucket_width: 2_000,
            sums: vec![0.0; Self::BUCKETS],
            counts: vec![0; Self::BUCKETS],
            bstar: initial,
            last_fit: SimTime::ZERO,
        }
    }

    fn observe(&mut self, buffer_bytes: u64, phy_rate_bps: f64) {
        let idx = ((buffer_bytes / self.bucket_width) as usize).min(Self::BUCKETS - 1);
        self.sums[idx] += phy_rate_bps;
        self.counts[idx] += 1;
    }

    fn refit(&mut self, now: SimTime) {
        if now.saturating_since(self.last_fit) < BSTAR_REFIT_EVERY {
            return;
        }
        self.last_fit = now;
        let means: Vec<Option<f64>> = self
            .sums
            .iter()
            .zip(&self.counts)
            .map(|(&s, &c)| if c >= 10 { Some(s / c as f64) } else { None })
            .collect();
        let Some(best) = means
            .iter()
            .flatten()
            .cloned()
            .fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.max(v))))
        else {
            return;
        };
        if best <= 0.0 {
            return;
        }
        for (idx, mean) in means.iter().enumerate() {
            if let Some(m) = mean {
                if *m >= 0.85 * best {
                    let center = (idx as u64) * self.bucket_width + self.bucket_width / 2;
                    self.bstar = center.clamp(BSTAR_MIN, BSTAR_MAX);
                    return;
                }
            }
        }
    }
}

/// The FBCC engine.
#[derive(Clone, Debug)]
pub struct Fbcc {
    /// Recent buffer samples at report (40 ms) granularity.
    recent: VecDeque<u64>,
    /// Recent buffer samples at fine (4 ms) granularity: catches severe
    /// overload within a single report batch.
    recent_fine: VecDeque<u64>,
    /// Long-term average buffer level Γ(t), bytes.
    gamma: f64,
    gamma_initialized: bool,
    /// Sliding TBS window for Eq. 4, (subframe time, bits).
    tbs: VecDeque<(SimTime, u32)>,
    /// Congestion hold state: expiry of the Eq. 6 window. While active,
    /// `R_v` *tracks* the windowed PHY rate (the paper's Eq. 6 evaluates
    /// the TBS sum at time t, so the pin follows the live bandwidth).
    hold_until: Option<SimTime>,
    /// RTP sweet-spot rate component (Eq. 7), bps.
    rtp_component: f64,
    learner: BstarLearner,
    detections: u64,
    recorder: Recorder,
}

impl Fbcc {
    /// Create an FBCC engine.
    pub fn new(_: FbccConfig) -> Self {
        Fbcc {
            recent: VecDeque::with_capacity(K_CONSECUTIVE + 1),
            recent_fine: VecDeque::with_capacity(K_CONSECUTIVE + 1),
            gamma: 0.0,
            gamma_initialized: false,
            tbs: VecDeque::new(),
            hold_until: None,
            rtp_component: 1.0e6,
            learner: BstarLearner::new(INITIAL_BSTAR),
            detections: 0,
            recorder: Recorder::null(),
        }
    }

    /// Attach the session's probe recorder.
    pub fn set_recorder(&mut self, rec: &Recorder) {
        self.recorder = rec.clone();
    }

    /// Total uplink congestion detections so far.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Whether the Eq. 6 hold window is currently active.
    pub fn holding(&self, now: SimTime) -> bool {
        self.hold_until.is_some_and(|until| now < until)
    }

    /// Windowed PHY throughput (Eq. 4), bps.
    pub fn phy_rate_bps(&self, now: SimTime) -> f64 {
        let bits: u64 = self
            .tbs
            .iter()
            .filter(|&&(t, _)| now.saturating_since(t) <= TBS_WINDOW)
            .map(|&(_, b)| b as u64)
            .sum();
        bits as f64 / TBS_WINDOW.as_secs_f64()
    }

    /// Feed one diag batch. `rtt` is the current smoothed RTT (for the
    /// Eq. 6 hold window). Returns `true` if a congestion was detected in
    /// this batch.
    pub fn on_diag(&mut self, report: &DiagReport, rtt: SimDuration, now: SimTime) -> bool {
        let mut detected = false;
        for s in &report.samples {
            // Γ(t): slow EWMA over per-subframe samples.
            let alpha = poi360_sim::SUBFRAME.as_secs_f64() / GAMMA_TAU.as_secs_f64();
            if self.gamma_initialized {
                self.gamma += alpha * (s.buffer_bytes as f64 - self.gamma);
            } else {
                self.gamma = s.buffer_bytes as f64;
                self.gamma_initialized = true;
            }
            // Eq. 4 window.
            self.tbs.push_back((s.at, s.tbs_bits));
        }
        // Trim the TBS window.
        while let Some(&(t, _)) = self.tbs.front() {
            if now.saturating_since(t) > TBS_WINDOW {
                self.tbs.pop_front();
            } else {
                break;
            }
        }

        // Eq. 3 evidence, two scales:
        // fine 4 ms bins (severe overload fires within ~44 ms)…
        let mut fine_fired = false;
        for bin in report.samples.chunks(4) {
            if bin.is_empty() {
                continue;
            }
            let mean = bin.iter().map(|s| s.buffer_bytes).sum::<u64>() / bin.len() as u64;
            self.recent_fine.push_back(mean);
            if self.recent_fine.len() > K_CONSECUTIVE + 1 {
                self.recent_fine.pop_front();
            }
            let inc = self.recent_fine.len() == K_CONSECUTIVE + 1
                && self.recent_fine.iter().zip(self.recent_fine.iter().skip(1)).all(|(a, b)| b > a);
            if inc && (mean as f64) > self.gamma {
                fine_fired = true;
            }
        }
        // …and report (Δt = 40 ms) means for mild sustained drift.
        let epoch_mean = if report.samples.is_empty() {
            0
        } else {
            report.samples.iter().map(|s| s.buffer_bytes).sum::<u64>() / report.samples.len() as u64
        };
        self.recent.push_back(epoch_mean);
        if self.recent.len() > K_CONSECUTIVE + 1 {
            self.recent.pop_front();
        }
        let increasing = self.recent.len() == K_CONSECUTIVE + 1
            && self.recent.iter().zip(self.recent.iter().skip(1)).all(|(a, b)| b > a);
        let above_gamma = (epoch_mean as f64) > self.gamma;

        if (fine_fired || (increasing && above_gamma)) && !self.holding(now) {
            // Congestion at t*: pin R_v to the live windowed PHY rate for
            // the next 2 RTTs.
            if self.phy_rate_bps(now) > 0.0 {
                let hold_for = SimDuration::from_micros(rtt.as_micros() * HOLD_RTTS);
                self.hold_until = Some(now + hold_for);
                self.detections += 1;
                detected = true;
                self.recorder.count("fbcc.congestion_detected", now, 1);
                // Restart evidence collection: one detection per event.
                self.recent.clear();
                self.recent_fine.clear();
            }
        }

        // Learner + Eq. 7, once per epoch.
        let epoch_rate = report.mean_phy_rate_bps();
        let b_now = report.last_buffer_bytes();
        if epoch_rate > 0.0 || b_now > 0 {
            self.learner.observe(b_now, epoch_rate);
        }
        self.learner.refit(now);

        let dp = SimDuration::from_micros(
            (report.samples.len() as u64).max(1) * poi360_sim::SUBFRAME.as_micros(),
        );
        let bstar = self.learner.bstar as f64;
        let delta_bps = (bstar - b_now as f64) * 8.0 / dp.as_secs_f64();
        self.rtp_component = (self.rtp_component + delta_bps).clamp(100_000.0, 30.0e6);

        // Per-epoch controller state, sink-only (one branch with no sink).
        self.recorder.event("fbcc.gamma_bytes", now, self.gamma);
        self.recorder.event("fbcc.bstar_bytes", now, bstar);
        self.recorder.event("fbcc.rtp_component_bps", now, self.rtp_component);

        detected
    }

    /// Encoding bitrate `R_v` (Eq. 6): the *live* windowed PHY rate during
    /// the hold window (the saturated uplink's current bandwidth, Eq. 5),
    /// the legacy GCC rate otherwise.
    pub fn video_rate_bps(&self, now: SimTime, gcc_rate_bps: f64) -> f64 {
        if self.holding(now) {
            let phy = self.phy_rate_bps(now);
            if phy > 0.0 {
                return phy.min(gcc_rate_bps.max(phy * 0.5));
            }
        }
        gcc_rate_bps
    }

    /// RTP sending rate `R_rtp` (Eq. 7): never below the encoding rate
    /// plus burst headroom (keyframes and intra-refresh bursts must be able
    /// to drain out of the application buffer), pushed above that to keep
    /// the firmware buffer at `B*`.
    pub fn rtp_rate_bps(&self, now: SimTime, gcc_rate_bps: f64) -> f64 {
        self.rtp_component.max(1.25 * self.video_rate_bps(now, gcc_rate_bps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_lte::diag::DiagSample;

    fn report(start_ms: u64, buffers: &[u64], tbs: u32) -> DiagReport {
        let samples: Vec<DiagSample> = buffers
            .iter()
            .enumerate()
            .map(|(k, &b)| DiagSample {
                at: SimTime::from_millis(start_ms + k as u64),
                buffer_bytes: b,
                tbs_bits: tbs,
            })
            .collect();
        DiagReport { delivered_at: SimTime::from_millis(start_ms + buffers.len() as u64), samples }
    }

    const RTT: SimDuration = SimDuration::from_millis(100);

    /// Warm up Γ with a steady moderate buffer.
    fn warmed() -> Fbcc {
        let mut f = Fbcc::new(FbccConfig::default());
        for epoch in 0..25u64 {
            let r = report(epoch * 40, &[5_000; 40], 3_000);
            f.on_diag(&r, RTT, SimTime::from_millis(epoch * 40 + 40));
        }
        f
    }

    #[test]
    fn steady_buffer_never_detects() {
        let f = warmed();
        assert_eq!(f.detections(), 0);
        assert!(!f.holding(SimTime::from_secs(1)));
    }

    #[test]
    fn monotone_growth_above_gamma_detects() {
        let mut f = warmed();
        // Buffer ramps 6k -> 45k over one epoch: strictly increasing and
        // soon above Γ (~5k).
        let buffers: Vec<u64> = (0..40).map(|k| 6_000 + k * 1_000).collect();
        let detected = f.on_diag(&report(1_000, &buffers, 3_500), RTT, SimTime::from_millis(1_040));
        assert!(detected);
        assert_eq!(f.detections(), 1);
        assert!(f.holding(SimTime::from_millis(1_050)));
    }

    #[test]
    fn growth_below_gamma_does_not_detect() {
        let mut f = Fbcc::new(FbccConfig::default());
        // Γ warms up around 50k.
        for epoch in 0..25u64 {
            f.on_diag(
                &report(epoch * 40, &[50_000; 40], 3_000),
                RTT,
                SimTime::from_millis(epoch * 40 + 40),
            );
        }
        // A small ramp well below Γ: not congestion (Eq. 3's second clause).
        let buffers: Vec<u64> = (0..40).map(|k| 1_000 + k * 100).collect();
        let detected = f.on_diag(&report(1_000, &buffers, 3_000), RTT, SimTime::from_millis(1_040));
        assert!(!detected);
    }

    #[test]
    fn non_monotone_growth_does_not_detect() {
        let mut f = warmed();
        // Sawtooth above Γ but never K consecutive increases.
        let buffers: Vec<u64> = (0..40).map(|k| 20_000 + (k % 5) * 1_000).collect();
        let detected = f.on_diag(&report(1_000, &buffers, 3_000), RTT, SimTime::from_millis(1_040));
        assert!(!detected);
    }

    #[test]
    fn video_rate_pins_to_phy_rate_during_hold() {
        let mut f = warmed();
        let buffers: Vec<u64> = (0..40).map(|k| 6_000 + k * 1_000).collect();
        // 3500 bits per subframe = 3.5 Mbps.
        f.on_diag(&report(1_000, &buffers, 3_500), RTT, SimTime::from_millis(1_040));
        let gcc = 8.0e6;
        let pinned = f.video_rate_bps(SimTime::from_millis(1_050), gcc);
        assert!(pinned < 4.0e6, "pinned {pinned}");
        assert!((pinned - 3.5e6).abs() < 0.7e6, "pinned {pinned} should be near PHY rate");
    }

    #[test]
    fn hold_expires_after_two_rtts() {
        let mut f = warmed();
        let buffers: Vec<u64> = (0..40).map(|k| 6_000 + k * 1_000).collect();
        f.on_diag(&report(1_000, &buffers, 3_500), RTT, SimTime::from_millis(1_040));
        // Detection occurs somewhere inside the epoch; 2 RTT = 200 ms later
        // the hold must have lapsed.
        assert!(f.holding(SimTime::from_millis(1_100)));
        assert!(!f.holding(SimTime::from_millis(1_300)));
        let gcc = 8.0e6;
        assert_eq!(f.video_rate_bps(SimTime::from_millis(1_300), gcc), gcc);
    }

    #[test]
    fn eq7_pushes_rtp_rate_when_buffer_low() {
        let mut f = warmed();
        let before = f.rtp_component;
        // Empty buffer epochs: controller should raise the RTP rate.
        for epoch in 0..5u64 {
            f.on_diag(
                &report(2_000 + epoch * 40, &[0; 40], 0),
                RTT,
                SimTime::from_millis(2_040 + epoch * 40),
            );
        }
        assert!(f.rtp_component > before, "{} -> {}", before, f.rtp_component);
    }

    #[test]
    fn eq7_relaxes_rtp_rate_when_buffer_high() {
        let mut f = warmed();
        for epoch in 0..5u64 {
            f.on_diag(
                &report(2_000 + epoch * 40, &[60_000; 40], 3_000),
                RTT,
                SimTime::from_millis(2_040 + epoch * 40),
            );
        }
        let gcc = 1.0e6;
        // rtp component fell, but the floor at 1.25·R_v keeps the app
        // buffer draining (with burst headroom).
        assert_eq!(f.rtp_rate_bps(SimTime::from_secs(3), gcc), 1.25 * gcc);
    }

    #[test]
    fn bstar_learner_finds_the_knee() {
        let mut f = Fbcc::new(FbccConfig::default());
        // Emulate the Fig. 5 curve: rate saturates at ~3.5 Mbps beyond ~12 kB.
        let mut now_ms = 0u64;
        for _ in 0..200u64 {
            for &(b, tbs) in &[
                (1_000u64, 600u32),
                (5_000, 1_800),
                (9_000, 2_800),
                (13_000, 3_400),
                (17_000, 3_500),
                (25_000, 3_550),
            ] {
                let r = report(now_ms, &vec![b; 40], tbs);
                now_ms += 40;
                f.on_diag(&r, RTT, SimTime::from_millis(now_ms));
            }
        }
        let bstar = f.learner.bstar;
        assert!((11_000..=16_000).contains(&bstar), "B* should sit at the knee: {bstar}");
    }

    #[test]
    fn phy_rate_windows_correctly() {
        let mut f = Fbcc::new(FbccConfig::default());
        // 200 ms of 3000-bit subframes = 3 Mbps.
        for epoch in 0..5u64 {
            f.on_diag(
                &report(epoch * 40, &[5_000; 40], 3_000),
                RTT,
                SimTime::from_millis(epoch * 40 + 40),
            );
        }
        let rate = f.phy_rate_bps(SimTime::from_millis(200));
        assert!((rate - 3.0e6).abs() < 0.2e6, "rate {rate}");
    }

    #[test]
    fn no_double_detection_within_hold() {
        let mut f = warmed();
        let buffers: Vec<u64> = (0..40).map(|k| 6_000 + k * 1_500).collect();
        f.on_diag(&report(1_000, &buffers, 3_500), RTT, SimTime::from_millis(1_040));
        assert_eq!(f.detections(), 1);
        // Still growing during the hold: no second detection.
        let buffers2: Vec<u64> = (0..40).map(|k| 70_000 + k * 1_500).collect();
        f.on_diag(&report(1_040, &buffers2, 3_500), RTT, SimTime::from_millis(1_080));
        assert_eq!(f.detections(), 1);
    }

    /// A diag-read stall repeats the last sample verbatim. Eq. 3 requires
    /// K *strictly* increasing samples, so a frozen B(t) — however far
    /// above Γ — must never read as congestion, at either evidence scale.
    #[test]
    fn frozen_diag_samples_never_detect() {
        let mut f = warmed();
        // 30 epochs (1.2 s) of the identical sample, 12x above Γ (~5k).
        for epoch in 0..30u64 {
            let detected = f.on_diag(
                &report(1_000 + epoch * 40, &[60_000; 40], 3_500),
                RTT,
                SimTime::from_millis(1_040 + epoch * 40),
            );
            assert!(!detected, "frozen sample read as congestion at epoch {epoch}");
        }
        assert_eq!(f.detections(), 0);
        assert!(!f.holding(SimTime::from_millis(2_240)));
    }

    /// The stall must not poison the evidence window either: once live
    /// samples resume and genuinely grow, detection fires again.
    #[test]
    fn detection_recovers_after_frozen_stall() {
        let mut f = warmed();
        for epoch in 0..30u64 {
            f.on_diag(
                &report(1_000 + epoch * 40, &[20_000; 40], 3_500),
                RTT,
                SimTime::from_millis(1_040 + epoch * 40),
            );
        }
        assert_eq!(f.detections(), 0);
        // Stall clears and the buffer really ramps: congestion detected.
        let buffers: Vec<u64> = (0..40).map(|k| 22_000 + k * 1_500).collect();
        let detected = f.on_diag(&report(2_200, &buffers, 3_500), RTT, SimTime::from_millis(2_240));
        assert!(detected, "real growth after a stall must still detect");
        assert_eq!(f.detections(), 1);
    }
}
