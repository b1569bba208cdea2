//! Frame geometry: the equirectangular canvas and its tile grid.
//!
//! The paper's prototype divides every raw 360° frame into 12×8 tiles (§5).
//! With a 4K equirectangular canvas (3840×1920) each tile is 320×240 pixels.
//! Horizontally a tile spans 30° of yaw and the axis is cyclic (yaw wraps);
//! vertically a tile spans 22.5° of pitch and the axis is clamped at the
//! poles.

/// `x.rem_euclid(360.0)`, bit for bit, without its `fmod` call where a
/// gaze angle lives: `x` on `[0, 360)`, `x + 360` on `(-360, 0)` and
/// `x - 360` on `[360, 720)` (exact by Sterbenz's lemma, as `fmod` is),
/// `rem_euclid` elsewhere. The lower interval is open because
/// `rem_euclid(-360.0)` is `-0.0`.
pub fn wrap360(x: f64) -> f64 {
    if (0.0..360.0).contains(&x) {
        x
    } else if x > -360.0 && x < 0.0 {
        x + 360.0
    } else if (360.0..720.0).contains(&x) {
        x - 360.0
    } else {
        x.rem_euclid(360.0)
    }
}

/// Position of a tile in the grid: `i` indexes the x-axis (yaw), `j` the
/// y-axis (pitch) — same convention as paper §4.1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct TilePos {
    /// Column, `0 <= i < cols`; cyclic (yaw wraps around).
    pub i: u8,
    /// Row, `0 <= j < rows`; clamped (pitch has poles).
    pub j: u8,
}

impl TilePos {
    /// Construct a tile position.
    pub const fn new(i: u8, j: u8) -> Self {
        TilePos { i, j }
    }
}

/// The tile grid over an equirectangular frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileGrid {
    /// Number of tile columns (12 in the paper's prototype).
    pub cols: u8,
    /// Number of tile rows (8 in the paper's prototype).
    pub rows: u8,
}

impl Default for TileGrid {
    fn default() -> Self {
        TileGrid { cols: 12, rows: 8 }
    }
}

impl TileGrid {
    /// The paper's 12×8 grid.
    pub const POI360: TileGrid = TileGrid { cols: 12, rows: 8 };

    /// Total number of tiles.
    pub fn tile_count(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// Flat index of a tile (row-major).
    pub fn index(&self, pos: TilePos) -> usize {
        debug_assert!(pos.i < self.cols && pos.j < self.rows);
        pos.j as usize * self.cols as usize + pos.i as usize
    }

    /// Iterate over all tile positions in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = TilePos> + '_ {
        let cols = self.cols;
        let rows = self.rows;
        (0..rows).flat_map(move |j| (0..cols).map(move |i| TilePos::new(i, j)))
    }

    /// Cyclic column distance: the yaw axis wraps, so the distance between
    /// columns 0 and 11 on the 12-wide grid is 1, not 11.
    pub fn dx(&self, a: u8, b: u8) -> u8 {
        let cols = self.cols as i16;
        let raw = (a as i16 - b as i16).rem_euclid(cols);
        raw.min(cols - raw) as u8
    }

    /// Row distance: pitch does not wrap.
    pub fn dy(&self, a: u8, b: u8) -> u8 {
        (a as i16 - b as i16).unsigned_abs() as u8
    }

    /// Taxicab tile distance with cyclic x, used by paper Eq. 1 as
    /// `(i - i*) + (j - j*)`.
    pub fn distance(&self, a: TilePos, b: TilePos) -> u8 {
        self.dx(a.i, b.i) + self.dy(a.j, b.j)
    }

    /// Degrees of yaw spanned by one tile column.
    pub fn yaw_per_tile(&self) -> f64 {
        360.0 / self.cols as f64
    }

    /// Degrees of pitch spanned by one tile row.
    pub fn pitch_per_tile(&self) -> f64 {
        180.0 / self.rows as f64
    }

    /// Tile containing the given yaw (degrees, any value; wrapped) and pitch
    /// (degrees in `[-90, 90]`; clamped).
    pub fn tile_at(&self, yaw_deg: f64, pitch_deg: f64) -> TilePos {
        let yaw = wrap360(yaw_deg);
        let pitch = pitch_deg.clamp(-90.0, 90.0);
        let i = ((yaw / self.yaw_per_tile()) as i64).clamp(0, self.cols as i64 - 1) as u8;
        // Pitch -90 maps to row 0 (bottom), +90 to the top row.
        let j =
            (((pitch + 90.0) / self.pitch_per_tile()) as i64).clamp(0, self.rows as i64 - 1) as u8;
        TilePos::new(i, j)
    }
}

/// Full-frame geometry: canvas size plus the tile grid.
#[derive(Clone, Copy, Debug)]
pub struct FrameGeometry {
    /// Canvas width in pixels.
    pub width: u32,
    /// Canvas height in pixels.
    pub height: u32,
    /// The tile grid.
    pub grid: TileGrid,
}

impl Default for FrameGeometry {
    fn default() -> Self {
        FrameGeometry::UHD_4K
    }
}

impl FrameGeometry {
    /// The paper's configuration: 4K equirectangular, 12×8 tiles.
    pub const UHD_4K: FrameGeometry =
        FrameGeometry { width: 3840, height: 1920, grid: TileGrid::POI360 };

    /// Pixels per tile (the grid is assumed to divide the canvas exactly;
    /// asserted because a ragged grid would skew every per-tile statistic).
    pub fn tile_pixels(&self) -> u32 {
        assert_eq!(self.width % self.grid.cols as u32, 0, "grid must divide width");
        assert_eq!(self.height % self.grid.rows as u32, 0, "grid must divide height");
        (self.width / self.grid.cols as u32) * (self.height / self.grid.rows as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_matches_paper() {
        let g = TileGrid::default();
        assert_eq!((g.cols, g.rows), (12, 8));
        assert_eq!(g.tile_count(), 96);
    }

    #[test]
    fn index_follows_iteration_order() {
        let g = TileGrid::POI360;
        for (idx, pos) in g.iter().enumerate() {
            assert_eq!(g.index(pos), idx);
        }
        assert_eq!(g.iter().count(), g.tile_count());
    }

    #[test]
    fn cyclic_dx_wraps() {
        let g = TileGrid::POI360;
        assert_eq!(g.dx(0, 11), 1);
        assert_eq!(g.dx(11, 0), 1);
        assert_eq!(g.dx(0, 6), 6);
        assert_eq!(g.dx(2, 9), 5);
        assert_eq!(g.dx(5, 5), 0);
    }

    #[test]
    fn dy_does_not_wrap() {
        let g = TileGrid::POI360;
        assert_eq!(g.dy(0, 7), 7);
        assert_eq!(g.dy(7, 0), 7);
        assert_eq!(g.dy(3, 3), 0);
    }

    #[test]
    fn distance_is_symmetric() {
        let g = TileGrid::POI360;
        for a in g.iter() {
            for b in g.iter() {
                assert_eq!(g.distance(a, b), g.distance(b, a));
            }
        }
    }

    #[test]
    fn max_distance_bounded() {
        let g = TileGrid::POI360;
        let max = g.iter().flat_map(|a| g.iter().map(move |b| g.distance(a, b))).max().unwrap();
        // 6 cyclic columns + 7 rows.
        assert_eq!(max, 13);
    }

    #[test]
    fn tile_at_maps_angles() {
        let g = TileGrid::POI360;
        assert_eq!(g.tile_at(0.0, -90.0), TilePos::new(0, 0));
        assert_eq!(g.tile_at(359.9, 89.9), TilePos::new(11, 7));
        assert_eq!(g.tile_at(360.0, 0.0), TilePos::new(0, 4));
        assert_eq!(g.tile_at(-15.0, 0.0).i, 11); // negative yaw wraps
        assert_eq!(g.tile_at(45.0, 200.0).j, 7); // pitch clamps
    }

    #[test]
    fn wrap360_is_rem_euclid_bit_for_bit() {
        let mut cases = vec![
            0.0,
            -0.0,
            360.0,
            -360.0,
            720.0,
            -720.0,
            359.999_999_999_999_94,
            -1e-20,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE,
            719.999_999_999_999_9,
            -359.999_999_999_999_94,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut rng = poi360_sim::rng::SimRng::from_seed(360);
        cases.extend((0..10_000).map(|_| rng.uniform_range(-1_000.0, 1_000.0)));
        for x in cases {
            let (got, want) = (wrap360(x), x.rem_euclid(360.0));
            assert!(got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()), "{x:e}");
        }
    }

    #[test]
    fn geometry_tile_pixels() {
        let geo = FrameGeometry::UHD_4K;
        assert_eq!(geo.tile_pixels(), 320 * 240);
        assert_eq!(geo.tile_pixels() * geo.grid.tile_count() as u32, 3840 * 1920);
    }

    #[test]
    fn iter_visits_every_tile_once() {
        let g = TileGrid::POI360;
        let tiles: Vec<_> = g.iter().collect();
        assert_eq!(tiles.len(), 96);
        let mut seen = std::collections::HashSet::new();
        for t in tiles {
            assert!(seen.insert((t.i, t.j)));
        }
    }
}
