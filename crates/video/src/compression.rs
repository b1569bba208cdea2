//! Compression modes and the compression matrix (paper §4.1, Eq. 1).
//!
//! A *compression level* `l_ij` is the size ratio of a tile before and after
//! compression (`l = 1` means untouched). A *compression mode* `F` maps each
//! tile's distance from the ROI center to a level:
//!
//! ```text
//! l_ij = F(i - i*, j - j*) = C^((i-i*) + (j-j*))        (paper Eq. 1)
//! ```
//!
//! where distances are cyclic in x, absolute in y, and `C > 1` controls the
//! aggressiveness: a large `C` concentrates quality in a small ROI (sharp
//! falloff), a small `C` spreads quality across the panorama (smooth
//! falloff). The paper's prototype pre-defines K = 8 modes with
//! `C ∈ {1.1, 1.2, …, 1.8}`.
//!
//! Moving the ROI center under a fixed mode is a cyclic shift of the matrix,
//! which is how the paper describes matrix updates.

use crate::frame::{TileGrid, TilePos};

/// The lowest (identity) compression level, always assigned to the ROI
/// center tile.
pub const L_MIN: f64 = 1.0;

/// How a compression mode assigns levels by distance from the ROI center.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Falloff {
    /// Paper Eq. 1: `l = C^(dx+dy)` — geometric falloff with base `C`.
    Geometric {
        /// The aggressiveness constant `C > 1`.
        c: f64,
    },
    /// Eq. 1 falloff measured from the edge of a protected ROI *region*:
    /// tiles within the `(2·half_w+1) × (2·half_h+1)` region around the ROI
    /// center stay at `L_MIN`, and `l = C^(max(0,dx−half_w)+max(0,dy−half_h))`
    /// outside. This matches the paper's depiction of the ROI as a
    /// multi-tile high-quality region (Figs. 2–3): the viewer's whole FoV
    /// is protected, and the aggressiveness constant shapes the periphery.
    ProtectedGeometric {
        /// The aggressiveness constant `C > 1`.
        c: f64,
        /// Protected half-width in tiles.
        half_w: u8,
        /// Protected half-height in tiles.
        half_h: u8,
    },
    /// Two-level "crop" falloff used by the Conduit baseline: tiles within
    /// the ROI region stay at `L_MIN`, everything else gets a flat floor
    /// level (the paper ships non-ROI regions "with the lowest possible
    /// quality" instead of leaving them blank).
    TwoLevel {
        /// Half-width (in tiles) of the preserved ROI region.
        half_w: u8,
        /// Half-height (in tiles) of the preserved ROI region.
        half_h: u8,
        /// Compression level applied outside the ROI region.
        floor: f64,
    },
}

/// A compression mode: a named falloff shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompressionMode {
    /// Falloff shape.
    pub falloff: Falloff,
}

impl CompressionMode {
    /// Paper Eq. 1 mode with aggressiveness constant `C`.
    pub fn geometric(c: f64) -> Self {
        assert!(c > 1.0, "C must exceed 1 (C = {c})");
        CompressionMode { falloff: Falloff::Geometric { c } }
    }

    /// The Conduit-style two-level crop mode.
    pub fn two_level(half_w: u8, half_h: u8, floor: f64) -> Self {
        assert!(floor >= L_MIN);
        CompressionMode { falloff: Falloff::TwoLevel { half_w, half_h, floor } }
    }

    /// Eq. 1 falloff outside a protected FoV-sized region.
    pub fn protected_geometric(c: f64, half_w: u8, half_h: u8) -> Self {
        assert!(c > 1.0, "C must exceed 1 (C = {c})");
        CompressionMode { falloff: Falloff::ProtectedGeometric { c, half_w, half_h } }
    }

    /// The paper's K = 8 pre-defined adaptive modes, most aggressive first
    /// (`F_1` has `C = 1.8`, `F_8` has `C = 1.1`). §4.2 lists the modes "in
    /// the order of decreasing compression aggressiveness". All modes keep
    /// the viewer's 3×3-tile FoV region at full quality; `C` shapes how
    /// sharply quality falls off beyond it.
    pub fn poi360_modes() -> Vec<CompressionMode> {
        (0..8).map(|k| CompressionMode::protected_geometric(1.8 - 0.1 * k as f64, 1, 1)).collect()
    }

    /// The compression level this mode assigns at tile distance `(dx, dy)`
    /// from the ROI center.
    pub fn level_at(&self, dx: u8, dy: u8) -> f64 {
        match self.falloff {
            Falloff::Geometric { c } => c.powi(dx as i32 + dy as i32),
            Falloff::ProtectedGeometric { c, half_w, half_h } => {
                let ex = dx.saturating_sub(half_w) as i32;
                let ey = dy.saturating_sub(half_h) as i32;
                c.powi(ex + ey)
            }
            Falloff::TwoLevel { half_w, half_h, floor } => {
                if dx <= half_w && dy <= half_h {
                    L_MIN
                } else {
                    floor
                }
            }
        }
    }

    /// Build the full compression matrix for an ROI center.
    pub fn matrix(&self, grid: &TileGrid, roi_center: TilePos) -> CompressionMatrix {
        let mut levels = vec![0.0; grid.tile_count()];
        for pos in grid.iter() {
            let dx = grid.dx(pos.i, roi_center.i);
            let dy = grid.dy(pos.j, roi_center.j);
            levels[grid.index(pos)] = self.level_at(dx, dy);
        }
        CompressionMatrix { grid: *grid, roi_center, levels }
    }

    /// Mean of `1/l` over the whole grid for an ROI at the given center:
    /// the fraction of the raw spatial payload this mode retains, i.e. its
    /// traffic-load factor relative to uncompressed.
    pub fn load_factor(&self, grid: &TileGrid, roi_center: TilePos) -> f64 {
        let m = self.matrix(grid, roi_center);
        m.levels.iter().map(|&l| 1.0 / l).sum::<f64>() / m.levels.len() as f64
    }
}

/// The per-tile compression levels for one frame (paper's matrix `L`).
#[derive(Debug, PartialEq)]
pub struct CompressionMatrix {
    /// Grid geometry the matrix is defined over.
    pub grid: TileGrid,
    /// ROI center the matrix was built for (the sender's ROI knowledge).
    pub roi_center: TilePos,
    /// Row-major levels, `levels[grid.index(pos)]`.
    levels: Vec<f64>,
}

/// Written out so that `clone_from` refills the levels in place: the
/// encoder keeps the previous frame's matrix that way, with no allocation
/// per frame.
impl Clone for CompressionMatrix {
    fn clone(&self) -> Self {
        CompressionMatrix {
            grid: self.grid,
            roi_center: self.roi_center,
            levels: self.levels.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.grid = source.grid;
        self.roi_center = source.roi_center;
        self.levels.clone_from(&source.levels);
    }
}

impl CompressionMatrix {
    /// Uniform matrix: every tile at the same level. `uniform(grid, 1.0)` is
    /// the uncompressed reference.
    pub fn uniform(grid: &TileGrid, level: f64) -> Self {
        assert!(level >= L_MIN);
        CompressionMatrix {
            grid: *grid,
            roi_center: TilePos::new(0, 0),
            levels: vec![level; grid.tile_count()],
        }
    }

    /// Crate-internal constructor from explicit row-major levels; the
    /// public surface only builds matrices through modes and modulations
    /// so `levels` stays consistent with `grid`.
    pub(crate) fn from_levels(grid: TileGrid, roi_center: TilePos, levels: Vec<f64>) -> Self {
        assert_eq!(levels.len(), grid.tile_count());
        CompressionMatrix { grid, roi_center, levels }
    }

    /// Compression level at a tile.
    pub fn level(&self, pos: TilePos) -> f64 {
        self.levels[self.grid.index(pos)]
    }

    /// All levels in row-major order.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Re-center the matrix on a new ROI. Under a distance-based mode this
    /// is exactly the cyclic shift the paper describes; implemented as a
    /// shift so it is mode-agnostic.
    pub fn recenter(&self, new_center: TilePos) -> CompressionMatrix {
        let grid = self.grid;
        let di = new_center.i as i16 - self.roi_center.i as i16;
        let dj = new_center.j as i16 - self.roi_center.j as i16;
        let mut levels = vec![0.0; grid.tile_count()];
        for pos in grid.iter() {
            // Source column: cyclic shift in x.
            let src_i = (pos.i as i16 - di).rem_euclid(grid.cols as i16) as u8;
            // Source row: shift with clamping (rows do not wrap); tiles
            // shifted in from beyond the pole take the edge row's level.
            let src_j = (pos.j as i16 - dj).clamp(0, grid.rows as i16 - 1) as u8;
            levels[grid.index(pos)] = self.levels[grid.index(TilePos::new(src_i, src_j))];
        }
        CompressionMatrix { grid, roi_center: new_center, levels }
    }

    /// Fraction of the raw spatial payload retained (mean of `1/l`).
    pub fn load_factor(&self) -> f64 {
        self.levels.iter().map(|&l| 1.0 / l).sum::<f64>() / self.levels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> TileGrid {
        TileGrid::POI360
    }

    #[test]
    fn roi_center_has_lmin() {
        let g = grid();
        for mode in CompressionMode::poi360_modes() {
            let m = mode.matrix(&g, TilePos::new(4, 3));
            assert_eq!(m.level(TilePos::new(4, 3)), L_MIN);
        }
    }

    #[test]
    fn level_monotone_in_distance() {
        let g = grid();
        let mode = CompressionMode::geometric(1.4);
        let center = TilePos::new(6, 4);
        let m = mode.matrix(&g, center);
        for a in g.iter() {
            for b in g.iter() {
                let (da, db) = (g.distance(a, center), g.distance(b, center));
                if da < db {
                    assert!(m.level(a) < m.level(b), "{a:?} {b:?}");
                }
            }
        }
    }

    #[test]
    fn eq1_matches_definition() {
        let g = grid();
        let c = 1.3;
        let mode = CompressionMode::geometric(c);
        let center = TilePos::new(2, 6);
        let m = mode.matrix(&g, center);
        for pos in g.iter() {
            let d = g.distance(pos, center);
            let expect = c.powi(d as i32);
            assert!((m.level(pos) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn modes_ordered_by_aggressiveness() {
        let g = grid();
        let modes = CompressionMode::poi360_modes();
        assert_eq!(modes.len(), 8);
        let center = TilePos::new(6, 4);
        let loads: Vec<f64> = modes.iter().map(|f| f.load_factor(&g, center)).collect();
        // F1 (C=1.8) must retain the least payload; F8 (C=1.1) the most.
        for w in loads.windows(2) {
            assert!(w[0] < w[1], "loads must increase: {loads:?}");
        }
    }

    #[test]
    fn protected_region_is_flat_then_falls_off() {
        let g = grid();
        let mode = CompressionMode::protected_geometric(1.5, 1, 1);
        let center = TilePos::new(6, 4);
        let m = mode.matrix(&g, center);
        // The whole 3×3 region sits at L_MIN.
        for di in -1i16..=1 {
            for dj in -1i16..=1 {
                let pos = TilePos::new((6 + di) as u8, (4 + dj) as u8);
                assert_eq!(m.level(pos), L_MIN, "{pos:?}");
            }
        }
        // One tile beyond the region edge: exactly C.
        assert!((m.level(TilePos::new(8, 4)) - 1.5).abs() < 1e-12);
        assert!((m.level(TilePos::new(8, 6)) - 1.5f64.powi(2)).abs() < 1e-12);
    }

    #[test]
    fn poi360_modes_protect_the_fov() {
        let g = grid();
        let center = TilePos::new(3, 3);
        for mode in CompressionMode::poi360_modes() {
            let m = mode.matrix(&g, center);
            assert_eq!(m.level(TilePos::new(4, 4)), L_MIN);
            assert_eq!(m.level(TilePos::new(2, 2)), L_MIN);
            assert!(m.level(TilePos::new(6, 3)) > L_MIN);
        }
    }

    #[test]
    fn two_level_splits_in_and_out() {
        let g = grid();
        let mode = CompressionMode::two_level(1, 1, 48.0);
        let center = TilePos::new(0, 4); // wraps in x
        let m = mode.matrix(&g, center);
        assert_eq!(m.level(TilePos::new(11, 4)), L_MIN);
        assert_eq!(m.level(TilePos::new(1, 5)), L_MIN);
        assert_eq!(m.level(TilePos::new(2, 4)), 48.0);
        let distinct: std::collections::BTreeSet<u64> =
            m.levels().iter().map(|l| l.to_bits()).collect();
        assert_eq!(distinct.len(), 2, "Conduit has exactly two levels");
    }

    #[test]
    fn recenter_equals_rebuild_for_distance_modes() {
        // For a purely distance-based mode, the cyclic shift must give the
        // same matrix as rebuilding from scratch (when no pole clamping is
        // involved, i.e. same row).
        let g = grid();
        let mode = CompressionMode::geometric(1.5);
        let m0 = mode.matrix(&g, TilePos::new(3, 4));
        let shifted = m0.recenter(TilePos::new(9, 4));
        let rebuilt = mode.matrix(&g, TilePos::new(9, 4));
        for pos in g.iter() {
            assert!(
                (shifted.level(pos) - rebuilt.level(pos)).abs() < 1e-12,
                "{pos:?}: {} vs {}",
                shifted.level(pos),
                rebuilt.level(pos)
            );
        }
    }

    #[test]
    fn load_factor_of_uniform_is_inverse_level() {
        let g = grid();
        let m = CompressionMatrix::uniform(&g, 4.0);
        assert!((m.load_factor() - 0.25).abs() < 1e-12);
        assert_eq!(CompressionMatrix::uniform(&g, 1.0).load_factor(), 1.0);
    }

    #[test]
    fn aggressive_mode_much_lighter_than_conservative() {
        let g = grid();
        let center = TilePos::new(6, 4);
        let aggressive = CompressionMode::geometric(1.8).load_factor(&g, center);
        let conservative = CompressionMode::geometric(1.1).load_factor(&g, center);
        assert!(aggressive < conservative / 3.0, "{aggressive} vs {conservative}");
    }

    #[test]
    #[should_panic(expected = "C must exceed 1")]
    fn rejects_non_expanding_c() {
        CompressionMode::geometric(1.0);
    }
}
