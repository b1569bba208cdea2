//! Related-work tiling policies: Pano weighting and Ghosh tile-rate
//! allocation layered on POI360's adaptive mode selector.
//!
//! Both policies keep the paper's machinery intact — the ROI-mismatch
//! monitor still picks one of the K = 8 modes, and the resulting matrix is
//! then *modulated* by a per-tile quality-sensitivity map
//! (`video::perceptual`) before it reaches the encoder:
//!
//! * [`PanoCompression`] divides each level by the tile's normalized
//!   sensitivity weight — quality migrates toward tiles the viewer
//!   actually perceives.
//! * [`GhoshCompression`] re-splits the mode's payload budget across
//!   tiles in proportion to `share × sensitivity` — the optimizer view of
//!   the same idea, conserving the mode's overall budget.
//!
//! Under a uniform sensitivity map both reduce to the plain POI360
//! policy, which is how the tile-allocator tests anchor them.

use crate::adaptive::AdaptiveCompression;
use crate::policy::CompressionPolicy;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;
use poi360_video::compression::CompressionMatrix;
use poi360_video::frame::TileGrid;
use poi360_video::perceptual::{ghosh_matrix, weighted_matrix, SensitivityMap};
use poi360_video::roi::Roi;

/// Pano-style sensitivity weighting over the adaptive mode selector.
pub struct PanoCompression {
    base: AdaptiveCompression,
}

impl PanoCompression {
    /// Adaptive POI360 modes with Pano sensitivity modulation.
    pub fn new() -> Self {
        PanoCompression { base: AdaptiveCompression::new() }
    }
}

impl Default for PanoCompression {
    fn default() -> Self {
        PanoCompression::new()
    }
}

impl CompressionPolicy for PanoCompression {
    fn set_recorder(&mut self, rec: &Recorder) {
        self.base.set_recorder(rec);
    }

    fn matrix(&mut self, grid: &TileGrid, sender_roi: &Roi) -> CompressionMatrix {
        let m = self.base.matrix(grid, sender_roi);
        let sens = SensitivityMap::pano(grid, sender_roi.center);
        weighted_matrix(&m, &sens)
    }

    fn on_mismatch_feedback(&mut self, now: SimTime, m: SimDuration) {
        self.base.on_mismatch_feedback(now, m);
    }

    fn on_roi_feedback(&mut self, now: SimTime, roi: &Roi) {
        self.base.on_roi_feedback(now, roi);
    }

    fn mode_index(&self) -> Option<usize> {
        self.base.mode_index()
    }
}

/// Ghosh-style tile-rate optimization over the adaptive mode selector.
pub struct GhoshCompression {
    base: AdaptiveCompression,
}

impl GhoshCompression {
    /// Adaptive POI360 modes with Ghosh budget re-allocation.
    pub fn new() -> Self {
        GhoshCompression { base: AdaptiveCompression::new() }
    }
}

impl Default for GhoshCompression {
    fn default() -> Self {
        GhoshCompression::new()
    }
}

impl CompressionPolicy for GhoshCompression {
    fn set_recorder(&mut self, rec: &Recorder) {
        self.base.set_recorder(rec);
    }

    fn matrix(&mut self, grid: &TileGrid, sender_roi: &Roi) -> CompressionMatrix {
        let m = self.base.matrix(grid, sender_roi);
        let sens = SensitivityMap::pano(grid, sender_roi.center);
        ghosh_matrix(&m, &sens)
    }

    fn on_mismatch_feedback(&mut self, now: SimTime, m: SimDuration) {
        self.base.on_mismatch_feedback(now, m);
    }

    fn on_roi_feedback(&mut self, now: SimTime, roi: &Roi) {
        self.base.on_roi_feedback(now, roi);
    }

    fn mode_index(&self) -> Option<usize> {
        self.base.mode_index()
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
    fn pano_preserves_the_gaze_tile_and_reshapes_the_periphery() {
        let g = grid();
        let roi = Roi::at_tile(&g, TilePos::new(6, 4));
        let mut plain = AdaptiveCompression::new();
        let mut pano = PanoCompression::new();
        let base = plain.matrix(&g, &roi);
        let m = pano.matrix(&g, &roi);
        assert_eq!(m.level(roi.center), L_MIN);
        // Same mode underneath...
        assert_eq!(pano.mode_index(), plain.mode_index());
        // ...but the matrices differ off-center.
        assert_ne!(m.levels(), base.levels());
        assert!(m.levels().iter().all(|&l| l >= L_MIN));
    }

    #[test]
    fn ghosh_conserves_the_mode_budget_approximately() {
        let g = grid();
        let roi = Roi::at_tile(&g, TilePos::new(2, 2));
        let mut plain = AdaptiveCompression::new();
        let mut ghosh = GhoshCompression::new();
        let base = plain.matrix(&g, &roi);
        let m = ghosh.matrix(&g, &roi);
        // L_MIN flooring can only *drop* payload, never add it.
        assert!(m.load_factor() <= base.load_factor() * 1.001);
        assert!(m.load_factor() >= base.load_factor() * 0.80, "budget lost: {}", m.load_factor());
    }

    #[test]
    fn both_policies_follow_mode_feedback() {
        let g = grid();
        let roi = Roi::front(&g);
        for policy in [
            &mut PanoCompression::new() as &mut dyn CompressionPolicy,
            &mut GhoshCompression::new(),
        ] {
            assert_eq!(policy.mode_index(), Some(2));
            // Sustained high mismatch drives the selector conservative.
            for k in 0..40u64 {
                policy.on_mismatch_feedback(SimTime::from_secs(k), SimDuration::from_millis(1_500));
            }
            let _ = policy.matrix(&g, &roi);
            assert!(policy.mode_index().unwrap() > 2, "{:?}", policy.mode_index());
        }
    }
}
