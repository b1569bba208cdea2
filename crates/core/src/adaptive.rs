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
//! Every [`CompressionScheme`] is this one selector
//! ([`AdaptiveCompression::for_scheme`]):
//!
//! * the benchmark schemes (§6.1.1) are a selector with a single mode, so
//!   it can never switch and `M` changes nothing — **Conduit** crops the
//!   ROI (3×3 tiles at full quality, "the lowest possible quality"
//!   elsewhere: two levels, very light, brutally sensitive to one tile of
//!   ROI error) and **Pyramid** is Facebook's fixed smooth falloff
//!   (`C = 1.2`: graceful under drift, but it retains most of the payload
//!   and overloads a cellular uplink); the `FixedMode(k)` ablation pins
//!   `F_k` the same way;
//! * **POI360+pred** (the §8 extension, built so the paper's skepticism can
//!   be measured) centers the matrix on a constant-velocity extrapolation
//!   of the viewer's ROI feedback instead of the last report: it helps the
//!   smooth panner and does little or harm for saccadic viewers;
//! * **Pano** and **Ghosh** (related work) modulate the selected mode's
//!   matrix by a per-tile quality-sensitivity map (`video::perceptual`):
//!   Pano divides each level by the tile's normalized weight, Ghosh
//!   re-splits the mode's payload budget in proportion to
//!   `share × sensitivity`. Under a uniform map both reduce to plain
//!   POI360.
//!
//! *Paper-typo note (recorded in DESIGN.md §6):* the paper prints
//! `i_m = max(8, ⌈M/200ms⌉)`, which always evaluates to ≥ 8 and would pin
//! the scheme to its most conservative mode, contradicting the surrounding
//! text ("under swift ROI update, the sender can aggressively compress").
//! The clamp above is the evident intent.

use crate::config::CompressionScheme;
use crate::policy::CompressionPolicy;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;
use poi360_video::compression::{CompressionMatrix, CompressionMode, L_MIN};
use poi360_video::encoder::EncodedFrame;
use poi360_video::frame::{TileGrid, TilePos};
use poi360_video::perceptual::{ghosh_matrix, weighted_matrix, SensitivityMap};
use poi360_video::roi::Roi;
use poi360_viewport::predictor::LinearPredictor;
use std::collections::VecDeque;

/// Mode-selection granularity: one mode step per 200 ms of mismatch.
pub const MODE_STEP: SimDuration = SimDuration::from_millis(200);

/// Conduit's level for non-ROI tiles — "the lowest possible quality".
const CONDUIT_FLOOR_LEVEL: f64 = 48.0;

/// Pyramid's fixed falloff constant: the smooth, conservative distribution
/// the paper describes (~43 % of the raw payload retained — heavy for an
/// LTE uplink).
const PYRAMID_C: f64 = 1.2;

/// How far ahead POI360+pred extrapolates: the cellular ROI-update latency
/// scale the paper reports (feedback delay + one-way video delay).
const PREDICTION_HORIZON: SimDuration = SimDuration::from_millis(250);

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

/// Per-tile modulation applied after the mode matrix, with a Pano
/// sensitivity map centered on the matrix's ROI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Modulation {
    None,
    Pano,
    Ghosh,
}

/// Sender-side ROI prediction: where POI360+pred centers the matrix.
#[derive(Clone, Debug)]
struct Prediction {
    predictor: LinearPredictor,
    horizon: SimDuration,
    last_feedback_at: Option<SimTime>,
}

/// Sender-side mode selection, the one compression policy.
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
    prediction: Option<Prediction>,
    modulation: Modulation,
    /// The last matrix built, with the mode index, grid and center it was
    /// built for: the mode holds for seconds and the center for many
    /// frames, so most frames reuse it.
    last_matrix: Option<((usize, TileGrid, TilePos), CompressionMatrix)>,
    recorder: Recorder,
}

impl AdaptiveCompression {
    /// The paper's policy: 8 modes, starting mid-range.
    pub fn new() -> Self {
        AdaptiveCompression::for_scheme(CompressionScheme::Poi360)
    }

    /// The selector a scheme runs: its modes, prediction and modulation.
    pub fn for_scheme(scheme: CompressionScheme) -> Self {
        let poi360 = CompressionMode::poi360_modes();
        let (modes, prediction, modulation) = match scheme {
            CompressionScheme::Poi360 => (poi360, false, Modulation::None),
            CompressionScheme::Conduit => (
                vec![CompressionMode::two_level(1, 1, CONDUIT_FLOOR_LEVEL)],
                false,
                Modulation::None,
            ),
            CompressionScheme::Pyramid => {
                (vec![CompressionMode::geometric(PYRAMID_C)], false, Modulation::None)
            }
            CompressionScheme::Poi360Predictive => (poi360, true, Modulation::None),
            CompressionScheme::FixedMode(k) => {
                (vec![poi360[(k.clamp(1, 8) - 1) as usize]], false, Modulation::None)
            }
            CompressionScheme::Pano => (poi360, false, Modulation::Pano),
            CompressionScheme::Ghosh => (poi360, false, Modulation::Ghosh),
        };
        AdaptiveCompression {
            // Start at F2 until feedback arrives; a one-mode selector sits
            // at its only mode.
            current: 1.min(modes.len() - 1),
            modes,
            m_smooth: SimDuration::from_millis(400),
            next_switch_at: SimTime::ZERO,
            prediction: prediction.then(|| Prediction {
                predictor: LinearPredictor::default(),
                horizon: PREDICTION_HORIZON,
                last_feedback_at: None,
            }),
            modulation,
            last_matrix: None,
            recorder: Recorder::null(),
        }
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
        let center = match &self.prediction {
            Some(p) => p
                .predictor
                .predict_roi(grid, p.horizon.as_secs_f64())
                .map_or(sender_roi.center, |roi| roi.center),
            None => sender_roi.center,
        };
        let key = (self.current, *grid, center);
        if let Some((built_for, m)) = &self.last_matrix {
            if *built_for == key {
                return m.clone();
            }
        }
        let m = self.modes[self.current].matrix(grid, center);
        let m = match self.modulation {
            Modulation::None => m,
            Modulation::Pano => weighted_matrix(&m, &SensitivityMap::pano(grid, center)),
            Modulation::Ghosh => ghosh_matrix(&m, &SensitivityMap::pano(grid, center)),
        };
        self.last_matrix = Some((key, m.clone()));
        m
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

    fn on_roi_feedback(&mut self, now: SimTime, roi: &Roi) {
        let Some(p) = &mut self.prediction else { return };
        let dt = match p.last_feedback_at {
            Some(last) => now.saturating_since(last).as_secs_f64(),
            None => 0.0,
        };
        // Skip duplicate deliveries in the same tick.
        if dt > 0.0 || p.last_feedback_at.is_none() {
            p.predictor.observe(roi.yaw_deg, roi.pitch_deg, dt.max(1e-3));
            p.last_feedback_at = Some(now);
        }
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

    /// The 1-based mode index `i_m` in use.
    fn mode_index(a: &AdaptiveCompression) -> usize {
        a.current + 1
    }

    #[test]
    fn mode_selection_follows_m() {
        let mut a = AdaptiveCompression::new();
        // Swift updates: converge the smoothing with repeated feedback.
        let now = converge(&mut a, SimTime::ZERO, 100);
        assert_eq!(mode_index(&a), 1);
        assert!((active_c(&a) - 1.8).abs() < 1e-9);
        // Sluggish updates: most conservative mode.
        let now = converge(&mut a, now, 2_500);
        assert_eq!(mode_index(&a), 8);
        assert!((active_c(&a) - 1.1).abs() < 1e-9);
        // Mid-range.
        converge(&mut a, now, 900);
        assert_eq!(mode_index(&a), 5);
    }

    #[test]
    fn smoothing_rejects_single_outliers() {
        let mut a = AdaptiveCompression::new();
        let now = converge(&mut a, SimTime::ZERO, 100);
        let before = mode_index(&a);
        a.on_mismatch_feedback(now + SimDuration::from_secs(10), SimDuration::from_millis(3_000));
        // One outlier moves the smoothed M but must not jump to mode 8.
        assert!(mode_index(&a) <= before + 5);
        assert_ne!(mode_index(&a), 8);
    }

    #[test]
    fn mode_switches_respect_dwell() {
        let mut a = AdaptiveCompression::new();
        let now = converge(&mut a, SimTime::ZERO, 100);
        assert_eq!(mode_index(&a), 1);
        // A sudden M jump switches once, then holds for the dwell.
        a.on_mismatch_feedback(now, SimDuration::from_millis(2_500));
        let after_first = mode_index(&a);
        a.on_mismatch_feedback(
            now + SimDuration::from_millis(100),
            SimDuration::from_millis(2_500),
        );
        assert_eq!(mode_index(&a), after_first, "second switch must wait out the dwell");
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

    #[test]
    fn a_reused_matrix_is_the_one_a_fresh_build_gives() {
        let g = grid();
        for scheme in [
            CompressionScheme::Poi360,
            CompressionScheme::Poi360Predictive,
            CompressionScheme::Pano,
            CompressionScheme::Ghosh,
            CompressionScheme::Conduit,
        ] {
            let mut a = AdaptiveCompression::for_scheme(scheme);
            let mut now = SimTime::ZERO;
            for k in 0..200u64 {
                // The center dwells, then jumps; M drifts across modes.
                let roi = Roi::at_tile(&g, TilePos::new((k / 7 % 12) as u8, (k / 31 % 8) as u8));
                a.on_roi_feedback(now, &roi);
                a.on_mismatch_feedback(now, SimDuration::from_millis(k * 37 % 1_700));
                let mut fresh = a.clone();
                fresh.last_matrix = None;
                assert_eq!(a.matrix(&g, &roi), fresh.matrix(&g, &roi), "{scheme:?} frame {k}");
                now += SimDuration::from_millis(700);
            }
        }
    }

    // ---- one-mode selectors: the §6.1.1 baselines and the ablation ----

    fn front_matrix(scheme: CompressionScheme) -> CompressionMatrix {
        let g = grid();
        AdaptiveCompression::for_scheme(scheme).matrix(&g, &Roi::at_tile(&g, TilePos::new(6, 4)))
    }

    #[test]
    fn conduit_has_two_levels() {
        let m = front_matrix(CompressionScheme::Conduit);
        let distinct: std::collections::BTreeSet<u64> =
            m.levels().iter().map(|l| l.to_bits()).collect();
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn conduit_preserves_fov_region() {
        let g = grid();
        let roi = Roi::at_tile(&g, TilePos::new(6, 4));
        let m = front_matrix(CompressionScheme::Conduit);
        for t in roi.fov_tiles(&g, 1, 1) {
            assert_eq!(m.level(t), L_MIN);
        }
        assert_eq!(m.level(TilePos::new(0, 0)), CONDUIT_FLOOR_LEVEL);
    }

    #[test]
    fn conduit_is_very_light() {
        let m = front_matrix(CompressionScheme::Conduit);
        // 9 full tiles + 87 floor tiles ≈ 11 % of the raw payload.
        assert!(m.load_factor() < 0.15, "load {}", m.load_factor());
    }

    #[test]
    fn pyramid_is_smooth_and_heavy() {
        let m = front_matrix(CompressionScheme::Pyramid);
        // Smooth: neighbour level ratio is exactly C.
        let l0 = m.level(TilePos::new(6, 4));
        let l1 = m.level(TilePos::new(7, 4));
        assert!((l1 / l0 - PYRAMID_C).abs() < 1e-9);
        // Heavy: retains ~40 % of the raw payload — too much for a ~4.5 Mbps
        // uplink when raw is 12.65 Mbps.
        assert!(m.load_factor() > 0.35, "load {}", m.load_factor());
    }

    #[test]
    fn pyramid_gentler_than_conduit_on_mismatch() {
        // One tile of ROI error: Pyramid shows level C, Conduit shows the
        // floor for part of the FoV region.
        let mc = front_matrix(CompressionScheme::Conduit);
        let mp = front_matrix(CompressionScheme::Pyramid);
        // Viewer drifted two tiles right: gaze at (8,4).
        let gaze = TilePos::new(8, 4);
        assert_eq!(mc.level(gaze), CONDUIT_FLOOR_LEVEL);
        assert!((mp.level(gaze) - PYRAMID_C.powi(2)).abs() < 1e-9);
    }

    #[test]
    fn one_mode_selectors_ignore_feedback() {
        let g = grid();
        let roi = Roi::at_tile(&g, TilePos::new(6, 4));
        for (scheme, c) in [
            (CompressionScheme::Conduit, None),
            (CompressionScheme::Pyramid, Some(PYRAMID_C)),
            (CompressionScheme::FixedMode(1), Some(1.8)),
            (CompressionScheme::FixedMode(8), Some(1.1)),
        ] {
            let mut a = AdaptiveCompression::for_scheme(scheme);
            let before = a.matrix(&g, &roi);
            for m_ms in [50, 5_000, 900] {
                converge(&mut a, SimTime::ZERO, m_ms);
                assert_eq!(a.matrix(&g, &roi), before, "{scheme:?} moved on M = {m_ms} ms");
            }
            assert_eq!(mode_index(&a), 1, "{scheme:?}");
            if let Some(c) = c {
                assert!((active_c(&a) - c).abs() < 1e-9, "{scheme:?}");
            }
        }
    }

    // ---- POI360+pred: the §8 extension ----

    #[test]
    fn prediction_without_feedback_falls_back_to_sender_knowledge() {
        let mut p = AdaptiveCompression::for_scheme(CompressionScheme::Poi360Predictive);
        let roi = Roi::at_tile(&grid(), TilePos::new(4, 4));
        let m = p.matrix(&grid(), &roi);
        assert_eq!(m.roi_center, roi.center);
    }

    #[test]
    fn prediction_leads_a_constant_pan() {
        let mut p = AdaptiveCompression::for_scheme(CompressionScheme::Poi360Predictive);
        p.prediction.as_mut().unwrap().horizon = SimDuration::from_millis(500);
        // Feed a steady 30 deg/s pan via feedback samples.
        for k in 0..40u64 {
            let yaw = 100.0 + k as f64 * 0.9; // 0.9 deg per 30 ms = 30 deg/s
            let roi = Roi::from_angles(&grid(), yaw, 0.0);
            p.on_roi_feedback(SimTime::from_millis(k * 30), &roi);
        }
        let last = Roi::from_angles(&grid(), 100.0 + 39.0 * 0.9, 0.0);
        let m = p.matrix(&grid(), &last);
        // Predicted center leads the last report by ~15 degrees (0.5 tile),
        // so the matrix center is at or ahead of the reported tile.
        let lead = grid().dx(m.roi_center.i, last.center.i);
        assert!(lead <= 1, "lead {lead}");
        // The reported position must still be within the protected region.
        assert_eq!(m.level(last.center), L_MIN);
    }

    #[test]
    fn prediction_keeps_mode_adaptation() {
        let mut p = AdaptiveCompression::for_scheme(CompressionScheme::Poi360Predictive);
        converge(&mut p, SimTime::ZERO, 2_500);
        assert_eq!(mode_index(&p), 8);
    }

    #[test]
    fn duplicate_feedback_in_same_tick_is_ignored() {
        let mut p = AdaptiveCompression::for_scheme(CompressionScheme::Poi360Predictive);
        let roi = Roi::at_tile(&grid(), TilePos::new(2, 2));
        p.on_roi_feedback(SimTime::from_millis(5), &roi);
        p.on_roi_feedback(SimTime::from_millis(5), &roi);
        // No panic, predictor stays sane.
        assert!(p.prediction.unwrap().predictor.predict(0.1).is_some());
    }

    // ---- Pano and Ghosh: related-work modulations ----

    #[test]
    fn pano_preserves_the_gaze_tile_and_reshapes_the_periphery() {
        let g = grid();
        let roi = Roi::at_tile(&g, TilePos::new(6, 4));
        let plain = AdaptiveCompression::new();
        let mut pano = AdaptiveCompression::for_scheme(CompressionScheme::Pano);
        let base = plain.clone().matrix(&g, &roi);
        let m = pano.matrix(&g, &roi);
        assert_eq!(m.level(roi.center), L_MIN);
        // Same mode underneath...
        assert_eq!(mode_index(&pano), mode_index(&plain));
        // ...but the matrices differ off-center.
        assert_ne!(m.levels(), base.levels());
        assert!(m.levels().iter().all(|&l| l >= L_MIN));
    }

    #[test]
    fn ghosh_conserves_the_mode_budget_approximately() {
        let g = grid();
        let roi = Roi::at_tile(&g, TilePos::new(2, 2));
        let base = AdaptiveCompression::new().matrix(&g, &roi);
        let m = AdaptiveCompression::for_scheme(CompressionScheme::Ghosh).matrix(&g, &roi);
        // L_MIN flooring can only *drop* payload, never add it.
        assert!(m.load_factor() <= base.load_factor() * 1.001);
        assert!(m.load_factor() >= base.load_factor() * 0.80, "budget lost: {}", m.load_factor());
    }

    #[test]
    fn modulated_selectors_follow_mode_feedback() {
        let g = grid();
        let roi = Roi::front(&g);
        for scheme in [CompressionScheme::Pano, CompressionScheme::Ghosh] {
            let mut policy = AdaptiveCompression::for_scheme(scheme);
            assert_eq!(mode_index(&policy), 2);
            // Sustained high mismatch drives the selector conservative.
            for k in 0..40u64 {
                policy.on_mismatch_feedback(SimTime::from_secs(k), SimDuration::from_millis(1_500));
            }
            let _ = policy.matrix(&g, &roi);
            assert!(mode_index(&policy) > 2, "{scheme:?}: {}", mode_index(&policy));
        }
    }

    #[test]
    fn every_scheme_reports_mode_switches_to_its_recorder() {
        use poi360_sim::trace::BufferSink;
        for scheme in [
            CompressionScheme::Poi360,
            CompressionScheme::Poi360Predictive,
            CompressionScheme::Pano,
            CompressionScheme::Ghosh,
        ] {
            let rec = Recorder::to_sink(BufferSink::shared(), "session");
            let mut a = AdaptiveCompression::for_scheme(scheme);
            a.set_recorder(&rec);
            converge(&mut a, SimTime::ZERO, 2_500);
            assert!(rec.counter("video.mode_switch") >= 1, "{scheme:?}");
        }
    }
}
