//! Benchmark compression schemes (paper §6.1.1).
//!
//! * **Conduit** [1 in the paper's references]: crops the ROI region out of
//!   the panorama and streams it at full quality; to avoid blank regions
//!   the paper still ships the rest "with the lowest possible quality" —
//!   exactly two levels. Very light traffic, but brutally sensitive to ROI
//!   change: one tile of mismatch puts floor-quality content in the fovea.
//! * **Pyramid encoding** [7]: Facebook's offline 360° layout, a fixed
//!   smooth falloff from the ROI center. Handles ROI drift gracefully but
//!   retains most of the panorama's payload, overloading a cellular uplink.
//!
//! Both are *rigid*: they never react to network conditions, which is the
//! paper's central criticism.

use crate::policy::CompressionPolicy;
use poi360_video::compression::{CompressionMatrix, CompressionMode};
use poi360_video::frame::TileGrid;
use poi360_video::roi::Roi;

/// Conduit: two-level ROI crop.
#[derive(Clone, Debug)]
pub struct ConduitCompression {
    mode: CompressionMode,
}

impl ConduitCompression {
    /// Floor level for non-ROI tiles — "the lowest possible quality".
    pub const FLOOR_LEVEL: f64 = 48.0;

    /// Create the policy: 3×3 ROI region preserved, floor elsewhere.
    pub fn new() -> Self {
        ConduitCompression { mode: CompressionMode::two_level(1, 1, Self::FLOOR_LEVEL) }
    }
}

impl Default for ConduitCompression {
    fn default() -> Self {
        Self::new()
    }
}

impl CompressionPolicy for ConduitCompression {
    fn matrix(&mut self, grid: &TileGrid, sender_roi: &Roi) -> CompressionMatrix {
        self.mode.matrix(grid, sender_roi.center)
    }
}

/// Pyramid encoding: fixed smooth geometric falloff.
#[derive(Clone, Debug)]
pub struct PyramidCompression {
    mode: CompressionMode,
}

impl PyramidCompression {
    /// The fixed falloff constant. 1.2 gives the smooth, conservative
    /// distribution the paper describes (quality spread across the frame,
    /// ~43 % of the raw payload retained — heavy for an LTE uplink).
    pub const C: f64 = 1.2;

    /// Create the policy.
    pub fn new() -> Self {
        PyramidCompression { mode: CompressionMode::geometric(Self::C) }
    }
}

impl Default for PyramidCompression {
    fn default() -> Self {
        Self::new()
    }
}

impl CompressionPolicy for PyramidCompression {
    fn matrix(&mut self, grid: &TileGrid, sender_roi: &Roi) -> CompressionMatrix {
        self.mode.matrix(grid, sender_roi.center)
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
    fn conduit_has_two_levels() {
        let mut c = ConduitCompression::new();
        let m = c.matrix(&grid(), &Roi::at_tile(&grid(), TilePos::new(6, 4)));
        let distinct: std::collections::BTreeSet<u64> =
            m.levels().iter().map(|l| l.to_bits()).collect();
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn conduit_preserves_fov_region() {
        let mut c = ConduitCompression::new();
        let g = grid();
        let roi = Roi::at_tile(&g, TilePos::new(6, 4));
        let m = c.matrix(&g, &roi);
        for t in roi.fov_tiles(&g, 1, 1) {
            assert_eq!(m.level(t), L_MIN);
        }
        assert_eq!(m.level(TilePos::new(0, 0)), ConduitCompression::FLOOR_LEVEL);
    }

    #[test]
    fn conduit_is_very_light() {
        let mut c = ConduitCompression::new();
        let g = grid();
        let m = c.matrix(&g, &Roi::at_tile(&g, TilePos::new(6, 4)));
        // 9 full tiles + 87 floor tiles ≈ 11 % of the raw payload.
        assert!(m.load_factor() < 0.15, "load {}", m.load_factor());
    }

    #[test]
    fn pyramid_is_smooth_and_heavy() {
        let mut p = PyramidCompression::new();
        let g = grid();
        let m = p.matrix(&g, &Roi::at_tile(&g, TilePos::new(6, 4)));
        // Smooth: neighbour level ratio is exactly C.
        let l0 = m.level(TilePos::new(6, 4));
        let l1 = m.level(TilePos::new(7, 4));
        assert!((l1 / l0 - PyramidCompression::C).abs() < 1e-9);
        // Heavy: retains ~40 % of the raw payload — too much for a ~4.5 Mbps
        // uplink when raw is 12.65 Mbps.
        assert!(m.load_factor() > 0.35, "load {}", m.load_factor());
    }

    #[test]
    fn pyramid_gentler_than_conduit_on_mismatch() {
        // One tile of ROI error: Pyramid shows level C, Conduit shows the
        // floor for part of the FoV region.
        let g = grid();
        let sender = Roi::at_tile(&g, TilePos::new(6, 4));
        let mut conduit = ConduitCompression::new();
        let mut pyramid = PyramidCompression::new();
        let mc = conduit.matrix(&g, &sender);
        let mp = pyramid.matrix(&g, &sender);
        // Viewer drifted two tiles right: gaze at (8,4).
        let gaze = TilePos::new(8, 4);
        assert_eq!(mc.level(gaze), ConduitCompression::FLOOR_LEVEL);
        assert!((mp.level(gaze) - PyramidCompression::C.powi(2)).abs() < 1e-9);
    }

    #[test]
    fn baselines_ignore_feedback() {
        use poi360_sim::time::{SimDuration, SimTime};
        let g = grid();
        let roi = Roi::at_tile(&g, TilePos::new(6, 4));
        let mut c = ConduitCompression::new();
        let before = c.matrix(&g, &roi);
        c.on_mismatch_feedback(SimTime::ZERO, SimDuration::from_secs(5));
        assert_eq!(c.matrix(&g, &roi), before);
        assert_eq!(c.mode_index(), None);
    }
}
