//! Region-of-interest coordinates.
//!
//! The viewer's ROI is derived from head orientation (yaw, pitch). The ROI
//! *center* is the tile the gaze direction falls into (paper §4.1:
//! `r = (i*, j*)`), and the ROI *region* is the set of tiles covered by the
//! HMD field of view around that center — we use the 3×3 tile neighbourhood,
//! which corresponds to a ~90°×67.5° FoV on the 12×8 grid, matching typical
//! mobile HMD optics.

use crate::frame::{wrap360, TileGrid, TilePos};

/// A region of interest: continuous gaze angles plus the derived center tile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Roi {
    /// Gaze yaw in degrees, normalized to `[0, 360)`.
    pub yaw_deg: f64,
    /// Gaze pitch in degrees, clamped to `[-90, 90]`.
    pub pitch_deg: f64,
    /// The ROI center tile `r = (i*, j*)`.
    pub center: TilePos,
}

impl Roi {
    /// Build an ROI from gaze angles.
    #[inline]
    pub fn from_angles(grid: &TileGrid, yaw_deg: f64, pitch_deg: f64) -> Self {
        let yaw = wrap360(yaw_deg);
        let pitch = pitch_deg.clamp(-90.0, 90.0);
        Roi { yaw_deg: yaw, pitch_deg: pitch, center: grid.tile_at(yaw, pitch) }
    }

    /// Build an ROI pointing at the center of the given tile.
    pub fn at_tile(grid: &TileGrid, center: TilePos) -> Self {
        let yaw = (center.i as f64 + 0.5) * grid.yaw_per_tile();
        let pitch = (center.j as f64 + 0.5) * grid.pitch_per_tile() - 90.0;
        Roi { yaw_deg: yaw, pitch_deg: pitch, center }
    }

    /// The straight-ahead ROI (yaw 180°, pitch 0°) — the middle of the
    /// canvas, a natural session start.
    pub fn front(grid: &TileGrid) -> Self {
        Roi::from_angles(grid, 180.0, 0.0)
    }

    /// Tiles covered by the HMD field of view: the `(2*half_w+1) ×
    /// (2*half_h+1)` neighbourhood of the center, cyclic in x and clamped
    /// in y. With the default `half_w = half_h = 1` this is the 3×3 region
    /// used for ROI quality measurement.
    pub fn fov_tiles(&self, grid: &TileGrid, half_w: u8, half_h: u8) -> Vec<TilePos> {
        let mut tiles = Vec::with_capacity((2 * half_w as usize + 1) * (2 * half_h as usize + 1));
        for dj in -(half_h as i16)..=half_h as i16 {
            let j = self.center.j as i16 + dj;
            if j < 0 || j >= grid.rows as i16 {
                continue; // rows clamp at the poles; out-of-range rows do not exist
            }
            for di in -(half_w as i16)..=half_w as i16 {
                let i = (self.center.i as i16 + di).rem_euclid(grid.cols as i16);
                tiles.push(TilePos::new(i as u8, j as u8));
            }
        }
        tiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> TileGrid {
        TileGrid::POI360
    }

    #[test]
    fn from_angles_normalizes() {
        let r = Roi::from_angles(&grid(), 540.0, 120.0);
        assert_eq!(r.yaw_deg, 180.0);
        assert_eq!(r.pitch_deg, 90.0);
        assert_eq!(r.center, TilePos::new(6, 7));
    }

    #[test]
    fn at_tile_roundtrips_center() {
        let g = grid();
        for pos in g.iter() {
            let roi = Roi::at_tile(&g, pos);
            assert_eq!(roi.center, pos, "tile {pos:?}");
            assert_eq!(g.tile_at(roi.yaw_deg, roi.pitch_deg), pos);
        }
    }

    #[test]
    fn fov_is_3x3_in_the_middle() {
        let g = grid();
        let roi = Roi::at_tile(&g, TilePos::new(5, 4));
        let tiles = roi.fov_tiles(&g, 1, 1);
        assert_eq!(tiles.len(), 9);
        for t in &tiles {
            assert!(g.dx(t.i, 5) <= 1 && g.dy(t.j, 4) <= 1);
        }
    }

    #[test]
    fn fov_wraps_in_yaw() {
        let g = grid();
        let roi = Roi::at_tile(&g, TilePos::new(0, 4));
        let tiles = roi.fov_tiles(&g, 1, 1);
        assert_eq!(tiles.len(), 9);
        assert!(tiles.iter().any(|t| t.i == 11), "left neighbour wraps to column 11");
    }

    #[test]
    fn fov_clamps_at_poles() {
        let g = grid();
        let top = Roi::at_tile(&g, TilePos::new(5, 7));
        assert_eq!(top.fov_tiles(&g, 1, 1).len(), 6); // one row falls off the top
        let bottom = Roi::at_tile(&g, TilePos::new(5, 0));
        assert_eq!(bottom.fov_tiles(&g, 1, 1).len(), 6);
    }

    #[test]
    fn front_is_canvas_middle() {
        let g = grid();
        let r = Roi::front(&g);
        assert_eq!(r.center, TilePos::new(6, 4));
    }
}
