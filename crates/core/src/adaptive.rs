//! Adaptive spatial compression (paper §4.2).
//!
//! Two halves:
//!
//! * [`RoiMismatchMonitor`] runs at the **client**: it measures the ROI
//!   mismatch time `M` — how long the sender and client hold inconsistent
//!   ROI knowledge — purely from observables (Eq. 2): the compression level
//!   the received frame assigns to the tile the user is actually looking
//!   at, and the one-way frame delay `d_v`. Frame-level measurements are
//!   averaged over a sliding window and fed back every frame interval.
//!
//! * [`AdaptiveCompression`] runs at the **sender**: it keeps the latest
//!   averaged `M` and picks one of the K = 8 pre-defined modes,
//!   `i_m = clamp(⌈M / 200 ms⌉, 1, 8)`, over `C ∈ {1.8, 1.7, …, 1.1}` —
//!   aggressive when ROI updates are swift, conservative (smooth falloff)
//!   when they are sluggish.
//!
//! *Paper-typo note (recorded in DESIGN.md §6):* the paper prints
//! `i_m = max(8, ⌈M/200ms⌉)`, which always evaluates to ≥ 8 and would pin
//! the scheme to its most conservative mode, contradicting the surrounding
//! text ("under swift ROI update, the sender can aggressively compress").
//! The clamp above is the evident intent.

use crate::policy::CompressionPolicy;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;
use poi360_video::compression::{CompressionMatrix, CompressionMode, L_MIN};
use poi360_video::encoder::EncodedFrame;
use poi360_video::frame::TileGrid;
use poi360_video::roi::Roi;
use std::collections::VecDeque;

/// Mode-selection granularity: one mode step per 200 ms of mismatch.
pub const MODE_STEP: SimDuration = SimDuration::from_millis(200);

/// Client-side ROI mismatch measurement (paper Eq. 2).
#[derive(Clone, Debug)]
pub struct RoiMismatchMonitor {
    /// Frame-level `M` samples in the sliding window.
    window: VecDeque<(SimTime, SimDuration)>,
    window_len: SimDuration,
    /// When the current (not yet quality-converged) ROI change began.
    change_started: Option<SimTime>,
    last_center: Option<poi360_video::frame::TilePos>,
}

impl RoiMismatchMonitor {
    /// Create a monitor with a 1 s averaging window.
    pub fn new() -> Self {
        RoiMismatchMonitor {
            window: VecDeque::new(),
            window_len: SimDuration::from_secs(1),
            change_started: None,
            last_center: None,
        }
    }

    /// Notify that the viewer's ROI center tile moved (call whenever the
    /// client-side ROI is updated, i.e. at sensor rate).
    pub fn on_roi_update(&mut self, now: SimTime, roi: &Roi) {
        if let Some(last) = self.last_center {
            if last != roi.center {
                // Paper: "the client starts counting the time on detecting
                // the ROI change at time t0". Consecutive changes keep the
                // earliest unconverged t0 — inconsistency has persisted
                // since then.
                self.change_started.get_or_insert(now);
            }
        }
        self.last_center = Some(roi.center);
    }

    /// Process a rendered frame: returns this frame's `M` measurement.
    ///
    /// `dv` is the one-way video frame delay (from the embedded timestamp);
    /// `frame` carries the sender's compression matrix; `client_roi` is the
    /// viewer's ROI at render time.
    pub fn on_frame(
        &mut self,
        now: SimTime,
        frame: &EncodedFrame,
        client_roi: &Roi,
        dv: SimDuration,
    ) -> SimDuration {
        let level_at_gaze = frame.matrix.level(client_roi.center);
        let converged = (level_at_gaze - L_MIN).abs() < 1e-9;
        let m = if converged {
            // Quality already highest where the user looks: the only lower
            // bound on update latency is the frame delay itself.
            self.change_started = None;
            dv
        } else {
            let t0 = *self.change_started.get_or_insert(now);
            now.saturating_since(t0).max(dv)
        };
        self.window.push_back((now, m));
        while let Some(&(t, _)) = self.window.front() {
            if now.saturating_since(t) > self.window_len {
                self.window.pop_front();
            } else {
                break;
            }
        }
        m
    }

    /// The sliding-window average `M` to feed back, if any frames were seen.
    pub fn average(&self) -> Option<SimDuration> {
        if self.window.is_empty() {
            return None;
        }
        let sum: u64 = self.window.iter().map(|&(_, m)| m.as_micros()).sum();
        Some(SimDuration::from_micros(sum / self.window.len() as u64))
    }
}

impl Default for RoiMismatchMonitor {
    fn default() -> Self {
        Self::new()
    }
}

/// Sender-side adaptive mode selection.
#[derive(Clone, Debug)]
pub struct AdaptiveCompression {
    modes: Vec<CompressionMode>,
    /// Smoothed mismatch estimate driving mode selection.
    m_smooth: SimDuration,
    current: usize, // 0-based index into modes
    /// Earliest time the next mode switch is allowed. Every switch
    /// re-levels the whole panorama and costs an intra-refresh burst, so
    /// the selector holds a mode for a minimum dwell.
    next_switch_at: SimTime,
    recorder: Recorder,
}

impl AdaptiveCompression {
    /// Create the policy with the paper's 8 modes, starting mid-range.
    pub fn new() -> Self {
        AdaptiveCompression {
            modes: CompressionMode::poi360_modes(),
            m_smooth: SimDuration::from_millis(400),
            current: 1, // start at F2 until feedback arrives
            next_switch_at: SimTime::ZERO,
            recorder: Recorder::null(),
        }
    }

    /// Ablation constructor: pin the policy to mode `F_k` (1-based) and
    /// disable adaptation by pushing the next allowed switch to infinity.
    pub fn fixed_mode(k: u8) -> Self {
        let mut a = AdaptiveCompression::new();
        a.current = (k.clamp(1, 8) - 1) as usize;
        a.next_switch_at = SimTime::MAX;
        a
    }
}

impl Default for AdaptiveCompression {
    fn default() -> Self {
        Self::new()
    }
}

impl CompressionPolicy for AdaptiveCompression {
    fn set_recorder(&mut self, rec: &Recorder) {
        self.recorder = rec.clone();
    }

    fn matrix(&mut self, grid: &TileGrid, sender_roi: &Roi) -> CompressionMatrix {
        self.modes[self.current].matrix(grid, sender_roi.center)
    }

    fn on_mismatch_feedback(&mut self, now: SimTime, m: SimDuration) {
        // Light smoothing so a single outlier frame does not flap the mode.
        let alpha = 0.3;
        let smoothed =
            self.m_smooth.as_micros() as f64 * (1.0 - alpha) + m.as_micros() as f64 * alpha;
        self.m_smooth = SimDuration::from_micros(smoothed as u64);

        // i_m = clamp(ceil(M / 200 ms), 1, 8); modes[0] = F1 (C=1.8).
        let steps = self.m_smooth.as_micros().div_ceil(MODE_STEP.as_micros()).max(1);
        let target = (steps.min(self.modes.len() as u64) - 1) as usize;
        if target != self.current && now >= self.next_switch_at {
            self.current = target;
            self.next_switch_at = now + SimDuration::from_secs(2);
            self.recorder.count("video.mode_switch", now, 1);
            self.recorder.event("video.mode_index", now, (self.current + 1) as f64);
        }
    }

    fn mode_index(&self) -> Option<usize> {
        Some(self.current + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_video::compression::Falloff;
    use poi360_video::content::ContentModel;
    use poi360_video::encoder::{Encoder, EncoderConfig};
    use poi360_video::frame::TilePos;

    fn grid() -> TileGrid {
        TileGrid::POI360
    }

    fn frame_with_matrix(center: TilePos, c: f64) -> EncodedFrame {
        let mut enc = Encoder::new(EncoderConfig::default(), 1);
        let content = ContentModel::new(grid(), 1);
        let roi = Roi::at_tile(&grid(), center);
        let matrix = CompressionMode::geometric(c).matrix(&grid(), center);
        enc.encode(SimTime::ZERO, roi, &matrix, &content, 3.0e6)
    }

    #[test]
    fn converged_frames_report_dv() {
        let mut mon = RoiMismatchMonitor::new();
        let roi = Roi::at_tile(&grid(), TilePos::new(6, 4));
        mon.on_roi_update(SimTime::ZERO, &roi);
        let frame = frame_with_matrix(TilePos::new(6, 4), 1.4);
        let dv = SimDuration::from_millis(120);
        let m = mon.on_frame(SimTime::from_millis(100), &frame, &roi, dv);
        assert_eq!(m, dv);
    }

    #[test]
    fn mismatch_counts_from_change_until_convergence() {
        let mut mon = RoiMismatchMonitor::new();
        let g = grid();
        let old = Roi::at_tile(&g, TilePos::new(6, 4));
        let new = Roi::at_tile(&g, TilePos::new(9, 4));
        mon.on_roi_update(SimTime::from_millis(0), &old);
        // User moves at t=100 ms.
        mon.on_roi_update(SimTime::from_millis(100), &new);
        let dv = SimDuration::from_millis(80);
        // Frames still compressed for the old ROI keep arriving.
        let stale = frame_with_matrix(TilePos::new(6, 4), 1.4);
        // 50 ms after the change, the elapsed mismatch is still below dv,
        // so Eq. 2's max() returns dv.
        let m1 = mon.on_frame(SimTime::from_millis(150), &stale, &new, dv);
        assert_eq!(m1, dv);
        let m2 = mon.on_frame(SimTime::from_millis(400), &stale, &new, dv);
        assert_eq!(m2, SimDuration::from_millis(300));
        // Sender catches up: frame centered on the new ROI.
        let fresh = frame_with_matrix(TilePos::new(9, 4), 1.4);
        let m3 = mon.on_frame(SimTime::from_millis(450), &fresh, &new, dv);
        assert_eq!(m3, dv, "converged measurement falls back to dv");
    }

    #[test]
    fn mismatch_never_below_dv() {
        let mut mon = RoiMismatchMonitor::new();
        let g = grid();
        let old = Roi::at_tile(&g, TilePos::new(2, 2));
        let new = Roi::at_tile(&g, TilePos::new(8, 5));
        mon.on_roi_update(SimTime::ZERO, &old);
        mon.on_roi_update(SimTime::from_millis(10), &new);
        let stale = frame_with_matrix(TilePos::new(2, 2), 1.4);
        let dv = SimDuration::from_millis(200);
        let m = mon.on_frame(SimTime::from_millis(20), &stale, &new, dv);
        assert_eq!(m, dv, "Eq. 2 takes max(t - t0, dv)");
    }

    #[test]
    fn average_window_slides() {
        let mut mon = RoiMismatchMonitor::new();
        let g = grid();
        let roi = Roi::at_tile(&g, TilePos::new(6, 4));
        mon.on_roi_update(SimTime::ZERO, &roi);
        let frame = frame_with_matrix(TilePos::new(6, 4), 1.4);
        for k in 0..50u64 {
            mon.on_frame(
                SimTime::from_millis(k * 28),
                &frame,
                &roi,
                SimDuration::from_millis(100 + k),
            );
        }
        let avg = mon.average().expect("has samples");
        // Window holds only the last ~36 frames (1 s), so the average is
        // pulled toward the later (larger) dv values.
        assert!(avg > SimDuration::from_millis(120), "avg {avg:?}");
    }

    /// Feed `m` repeatedly while advancing time past the switch dwell.
    fn converge(a: &mut AdaptiveCompression, start: SimTime, m_ms: u64) -> SimTime {
        let mut now = start;
        for _ in 0..200 {
            a.on_mismatch_feedback(now, SimDuration::from_millis(m_ms));
            now += SimDuration::from_millis(100);
        }
        now
    }

    /// The aggressiveness constant C of the active mode.
    fn active_c(a: &AdaptiveCompression) -> f64 {
        match a.modes[a.current].falloff {
            Falloff::Geometric { c } | Falloff::ProtectedGeometric { c, .. } => c,
            _ => unreachable!("POI360 modes are geometric"),
        }
    }

    #[test]
    fn mode_selection_follows_m() {
        let mut a = AdaptiveCompression::new();
        // Swift updates: converge the smoothing with repeated feedback.
        let now = converge(&mut a, SimTime::ZERO, 100);
        assert_eq!(a.mode_index(), Some(1));
        assert!((active_c(&a) - 1.8).abs() < 1e-9);
        // Sluggish updates: most conservative mode.
        let now = converge(&mut a, now, 2_500);
        assert_eq!(a.mode_index(), Some(8));
        assert!((active_c(&a) - 1.1).abs() < 1e-9);
        // Mid-range.
        converge(&mut a, now, 900);
        assert_eq!(a.mode_index(), Some(5));
    }

    #[test]
    fn smoothing_rejects_single_outliers() {
        let mut a = AdaptiveCompression::new();
        let now = converge(&mut a, SimTime::ZERO, 100);
        let before = a.mode_index();
        a.on_mismatch_feedback(now + SimDuration::from_secs(10), SimDuration::from_millis(3_000));
        // One outlier moves the smoothed M but must not jump to mode 8.
        assert!(a.mode_index().unwrap() <= before.unwrap() + 5);
        assert_ne!(a.mode_index(), Some(8));
    }

    #[test]
    fn mode_switches_respect_dwell() {
        let mut a = AdaptiveCompression::new();
        let now = converge(&mut a, SimTime::ZERO, 100);
        assert_eq!(a.mode_index(), Some(1));
        // A sudden M jump switches once, then holds for the dwell.
        a.on_mismatch_feedback(now, SimDuration::from_millis(2_500));
        let after_first = a.mode_index().unwrap();
        a.on_mismatch_feedback(
            now + SimDuration::from_millis(100),
            SimDuration::from_millis(2_500),
        );
        assert_eq!(a.mode_index(), Some(after_first), "second switch must wait out the dwell");
    }

    #[test]
    fn matrix_centers_on_sender_roi() {
        let mut a = AdaptiveCompression::new();
        let g = grid();
        let roi = Roi::at_tile(&g, TilePos::new(3, 2));
        let m = a.matrix(&g, &roi);
        assert_eq!(m.roi_center, TilePos::new(3, 2));
        assert_eq!(m.level(TilePos::new(3, 2)), L_MIN);
    }
}
