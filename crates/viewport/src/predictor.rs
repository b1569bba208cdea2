//! Motion-based ROI prediction (paper §8 discussion).
//!
//! The paper argues that linear head-motion prediction only works at short
//! horizons: with ~60°/s average velocity and accelerations up to 500°/s²,
//! "the head position after 120 ms is unpredictable, which is below the
//! typical video latency over LTE". This module implements the predictor so
//! the claim can be *measured* (see the `roi_prediction` ablation bench)
//! rather than assumed.

use poi360_video::frame::{wrap360, TileGrid};
use poi360_video::roi::Roi;

/// First-order (constant-velocity) gaze predictor with exponential velocity
/// smoothing, the standard HMD tracking baseline the paper cites.
#[derive(Clone, Debug)]
pub struct LinearPredictor {
    /// Velocity smoothing factor per update, in `(0, 1]`; 1 = no smoothing.
    pub alpha: f64,
    last: Option<(f64, f64)>, // (yaw, pitch)
    vel: (f64, f64),          // deg/s
    last_dt: f64,
}

impl Default for LinearPredictor {
    fn default() -> Self {
        LinearPredictor { alpha: 0.6, last: None, vel: (0.0, 0.0), last_dt: 0.0 }
    }
}

fn wrap_delta(d: f64) -> f64 {
    let mut d = d % 360.0;
    if d >= 180.0 {
        d -= 360.0;
    }
    if d < -180.0 {
        d += 360.0;
    }
    d
}

impl LinearPredictor {
    /// Feed an observed head sample taken `dt_secs` after the previous one.
    pub fn observe(&mut self, yaw: f64, pitch: f64, dt_secs: f64) {
        if let Some((py, pp)) = self.last {
            if dt_secs > 0.0 {
                let vy = wrap_delta(yaw - py) / dt_secs;
                let vp = (pitch - pp) / dt_secs;
                self.vel.0 += self.alpha * (vy - self.vel.0);
                self.vel.1 += self.alpha * (vp - self.vel.1);
            }
        }
        self.last = Some((yaw, pitch));
        self.last_dt = dt_secs;
    }

    /// Predict the gaze `horizon_secs` ahead of the last observation.
    /// Returns `None` until at least one sample has been observed.
    pub fn predict(&self, horizon_secs: f64) -> Option<(f64, f64)> {
        let (yaw, pitch) = self.last?;
        Some((
            wrap360(yaw + self.vel.0 * horizon_secs),
            (pitch + self.vel.1 * horizon_secs).clamp(-90.0, 90.0),
        ))
    }

    /// Predict the ROI tile `horizon_secs` ahead.
    pub fn predict_roi(&self, grid: &TileGrid, horizon_secs: f64) -> Option<Roi> {
        let (yaw, pitch) = self.predict(horizon_secs)?;
        Some(Roi::from_angles(grid, yaw, pitch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motion::{HeadMotion, MotionConfig, UserArchetype};
    use poi360_sim::time::SimDuration;

    #[test]
    fn needs_an_observation_first() {
        let p = LinearPredictor::default();
        assert!(p.predict(0.1).is_none());
    }

    #[test]
    fn constant_velocity_is_predicted_exactly() {
        let mut p = LinearPredictor { alpha: 1.0, ..Default::default() };
        // 30 deg/s pure yaw motion.
        for k in 0..20 {
            p.observe((k as f64 * 0.3).rem_euclid(360.0), 0.0, 0.01);
        }
        let (yaw, _) = p.predict(0.5).unwrap();
        let expect = (19.0f64 * 0.3 + 15.0).rem_euclid(360.0);
        assert!((yaw - expect).abs() < 0.2, "yaw {yaw} expect {expect}");
    }

    #[test]
    fn handles_wraparound_velocity() {
        let mut p = LinearPredictor { alpha: 1.0, ..Default::default() };
        // Crossing 360 -> 0 must not produce a -360 deg/s spike.
        p.observe(359.0, 0.0, 0.01);
        p.observe(1.0, 0.0, 0.01);
        let (yaw, _) = p.predict(0.01).unwrap();
        assert!((yaw - 3.0).abs() < 0.5, "yaw {yaw}");
    }

    /// Measure per-horizon tile-level hit rate on a saccadic user —
    /// the §8 claim: fine at ≤120 ms, unusable at LTE latency (~460 ms).
    fn hit_rate(horizon: f64) -> f64 {
        let grid = TileGrid::POI360;
        let dt = SimDuration::from_millis(10);
        let mut user = HeadMotion::new(UserArchetype::Saccadic, MotionConfig::default(), 5);
        let mut pred = LinearPredictor::default();
        let steps_ahead = (horizon / dt.as_secs_f64()).round() as usize;
        let mut history: Vec<Roi> = Vec::new();
        let mut predictions: Vec<Option<Roi>> = Vec::new();
        let total = 30_000usize;
        for _ in 0..total {
            user.step(dt);
            pred.observe(user.yaw(), user.pitch(), dt.as_secs_f64());
            history.push(user.roi(&grid));
            predictions.push(pred.predict_roi(&grid, horizon));
        }
        let mut hits = 0usize;
        let mut n = 0usize;
        for k in 0..total - steps_ahead {
            if let Some(p) = &predictions[k] {
                let actual = &history[k + steps_ahead];
                if grid.distance(p.center, actual.center) == 0 {
                    hits += 1;
                }
                n += 1;
            }
        }
        hits as f64 / n as f64
    }

    #[test]
    fn short_horizon_prediction_works() {
        let r = hit_rate(0.05);
        assert!(r > 0.8, "50 ms hit rate {r}");
    }

    #[test]
    fn lte_scale_horizon_prediction_degrades() {
        let short = hit_rate(0.05);
        let long = hit_rate(0.45);
        assert!(
            long < short - 0.15,
            "460 ms-scale prediction should be clearly worse: {long} vs {short}"
        );
    }
}
