//! Predictive spatial compression — the §8 extension, implemented so the
//! paper's skepticism can be measured.
//!
//! The paper argues motion-based ROI prediction cannot rescue rigid
//! compression at LTE latencies ("the head position after 120 ms is
//! unpredictable, which is below the typical video latency over LTE").
//! This policy puts that to the test: it runs POI360's adaptive mode
//! selection, but centers the compression matrix on the *predicted* ROI —
//! a constant-velocity extrapolation of the viewer's feedback — rather
//! than the last reported one. The `ablation prediction-policy` harness
//! compares it against stock POI360 per user archetype: prediction helps
//! the smooth panner (whose motion is extrapolable) and does little or
//! harm for saccadic viewers, exactly the trade the paper predicts.

use crate::adaptive::AdaptiveCompression;
use crate::policy::CompressionPolicy;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_video::compression::CompressionMatrix;
use poi360_video::frame::TileGrid;
use poi360_video::roi::Roi;
use poi360_viewport::predictor::LinearPredictor;

/// POI360 with sender-side ROI prediction.
pub struct PredictiveCompression {
    inner: AdaptiveCompression,
    predictor: LinearPredictor,
    /// How far ahead to extrapolate: should approximate the end-to-end ROI
    /// update latency (feedback delay + one-way video delay).
    horizon: SimDuration,
    last_feedback_at: Option<SimTime>,
    last_observed: Option<Roi>,
}

impl PredictiveCompression {
    /// Create the policy with a prediction horizon.
    pub fn new(horizon: SimDuration) -> Self {
        PredictiveCompression {
            inner: AdaptiveCompression::new(),
            predictor: LinearPredictor::default(),
            horizon,
            last_feedback_at: None,
            last_observed: None,
        }
    }

    /// The horizon in use.
    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }
}

impl Default for PredictiveCompression {
    fn default() -> Self {
        // The cellular ROI-update latency scale the paper reports.
        PredictiveCompression::new(SimDuration::from_millis(250))
    }
}

impl CompressionPolicy for PredictiveCompression {
    fn matrix(&mut self, grid: &TileGrid, sender_roi: &Roi) -> CompressionMatrix {
        // Keep the predictor fed even between feedback messages (the
        // session passes the latest knowledge every frame).
        let target =
            self.predictor.predict_roi(grid, self.horizon.as_secs_f64()).unwrap_or(*sender_roi);
        self.inner.matrix(grid, &target)
    }

    fn on_roi_feedback(&mut self, now: SimTime, roi: &Roi) {
        let dt = match self.last_feedback_at {
            Some(last) => now.saturating_since(last).as_secs_f64(),
            None => 0.0,
        };
        // Skip duplicate deliveries in the same tick.
        if dt > 0.0 || self.last_feedback_at.is_none() {
            self.predictor.observe(roi.yaw_deg, roi.pitch_deg, dt.max(1e-3));
            self.last_feedback_at = Some(now);
            self.last_observed = Some(*roi);
        }
    }

    fn on_mismatch_feedback(&mut self, now: SimTime, m: SimDuration) {
        self.inner.on_mismatch_feedback(now, m);
    }

    fn mode_index(&self) -> Option<usize> {
        self.inner.mode_index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_video::compression::L_MIN;
    use poi360_video::frame::TilePos;

    fn grid() -> TileGrid {
        TileGrid::POI360
    }

    #[test]
    fn without_feedback_falls_back_to_sender_knowledge() {
        let mut p = PredictiveCompression::default();
        let roi = Roi::at_tile(&grid(), TilePos::new(4, 4));
        let m = p.matrix(&grid(), &roi);
        assert_eq!(m.roi_center, roi.center);
    }

    #[test]
    fn leads_a_constant_pan() {
        let mut p = PredictiveCompression::new(SimDuration::from_millis(500));
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
    fn mode_adaptation_still_works() {
        let mut p = PredictiveCompression::default();
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            p.on_mismatch_feedback(now, SimDuration::from_millis(2_500));
            now += SimDuration::from_millis(100);
        }
        assert_eq!(p.mode_index(), Some(8));
    }

    #[test]
    fn duplicate_feedback_in_same_tick_is_ignored() {
        let mut p = PredictiveCompression::default();
        let roi = Roi::at_tile(&grid(), TilePos::new(2, 2));
        p.on_roi_feedback(SimTime::from_millis(5), &roi);
        p.on_roi_feedback(SimTime::from_millis(5), &roi);
        // No panic, predictor stays sane.
        assert!(p.predictor.predict(0.1).is_some());
    }
}
