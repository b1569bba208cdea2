//! Perceptual tile weighting and tile-budget allocation (related work).
//!
//! Two alternatives to the paper's pure distance-based compression matrix,
//! both expressed as *modulations of a base matrix*, which the sender's
//! mode selector applies after choosing a mode, without touching the
//! encoder:
//!
//! * **Pano-style sensitivity weighting** ([`SensitivityMap`] +
//!   [`weighted_matrix`]): each tile carries a quality-sensitivity score
//!   `s_t` (how much a quality change there is actually perceived). The
//!   base matrix's level at tile `t` is divided by the *normalized* weight
//!   `m_t = s_t / mean(s)`, so high-sensitivity tiles get finer quality
//!   and low-sensitivity tiles coarser, at an unchanged overall budget to
//!   first order. A uniform sensitivity map has `m_t = 1` everywhere and
//!   reproduces the base matrix bit for bit.
//! * **Ghosh-style tile-rate optimization** ([`ghosh_matrix`]): treat the
//!   base matrix's per-tile payload shares `p_t ∝ 1/l_t` as a budget,
//!   re-split that budget in proportion to `p_t · s_t` (the water-filling
//!   optimum for log-concave per-tile utility weighted by sensitivity), and
//!   convert the new shares back to levels.
//!
//! Everything here is a pure function of its inputs: sensitivity maps are
//! indexed by tile, never accumulated in iteration order, so construction
//! order cannot leak into the weights.

use crate::compression::{CompressionMatrix, L_MIN};
use crate::frame::{TileGrid, TilePos};

/// Per-tile quality-sensitivity scores over a grid.
#[derive(Clone, Debug, PartialEq)]
pub struct SensitivityMap {
    grid: TileGrid,
    /// Row-major scores, `sens[grid.index(pos)]`, all > 0.
    sens: Vec<f64>,
}

impl SensitivityMap {
    /// Uniform sensitivity: every tile equally important. Both policies
    /// reduce to their base matrix under this map.
    pub fn uniform(grid: &TileGrid) -> Self {
        SensitivityMap { grid: *grid, sens: vec![1.0; grid.tile_count()] }
    }

    /// Pano-style viewing-probability falloff around the ROI center:
    /// `s_t = 1 / (1 + a·d_t)` with `d_t` the cyclic tile distance. Tiles
    /// under the viewer's gaze are most sensitive; the far side of the
    /// panorama barely registers.
    pub fn pano(grid: &TileGrid, roi_center: TilePos) -> Self {
        const A: f64 = 0.25;
        let mut sens = vec![0.0; grid.tile_count()];
        for pos in grid.iter() {
            let d = grid.distance(pos, roi_center) as f64;
            sens[grid.index(pos)] = 1.0 / (1.0 + A * d);
        }
        SensitivityMap { grid: *grid, sens }
    }

    /// The grid this map is defined over.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Raw sensitivity at a tile.
    pub fn sensitivity(&self, pos: TilePos) -> f64 {
        self.sens[self.grid.index(pos)]
    }

    /// Mean sensitivity, computed in fixed row-major order.
    pub fn mean(&self) -> f64 {
        self.sens.iter().sum::<f64>() / self.sens.len() as f64
    }

    /// Normalized Pano weight `m_t = s_t / mean(s)`: > 1 where quality is
    /// noticed, < 1 where it is not, exactly 1 under a uniform map.
    pub fn weight(&self, pos: TilePos) -> f64 {
        self.sensitivity(pos) / self.mean()
    }
}

/// Pano-style modulation: divide each base level by the tile's normalized
/// weight (finer quality where sensitivity is high), floored at [`L_MIN`].
/// A uniform map reproduces `base` exactly.
pub fn weighted_matrix(base: &CompressionMatrix, sens: &SensitivityMap) -> CompressionMatrix {
    assert_eq!(base.grid, *sens.grid());
    let mean = sens.mean();
    let levels: Vec<f64> = base
        .grid
        .iter()
        .map(|pos| {
            let m = sens.sensitivity(pos) / mean;
            (base.level(pos) / m).max(L_MIN)
        })
        .collect();
    CompressionMatrix::from_levels(base.grid, base.roi_center, levels)
}

/// Ghosh-style tile-rate optimization: re-split the base matrix's payload
/// budget `Q = Σ 1/l_t` in proportion to `(1/l_t)·s_t`, and convert the new
/// shares back to levels `l'_t = 1/(w_t·Q)`, floored at [`L_MIN`]. A
/// uniform map reproduces `base` to floating-point epsilon.
pub fn ghosh_matrix(base: &CompressionMatrix, sens: &SensitivityMap) -> CompressionMatrix {
    assert_eq!(base.grid, *sens.grid());
    let shares: Vec<f64> = base.levels().iter().map(|&l| 1.0 / l).collect();
    let q: f64 = shares.iter().sum();
    let weighted: Vec<f64> =
        base.grid.iter().map(|pos| shares[base.grid.index(pos)] * sens.sensitivity(pos)).collect();
    let total: f64 = weighted.iter().sum();
    let levels: Vec<f64> = weighted.iter().map(|&w| (total / (w * q)).max(L_MIN)).collect();
    CompressionMatrix::from_levels(base.grid, base.roi_center, levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compression::CompressionMode;

    fn base() -> CompressionMatrix {
        CompressionMode::protected_geometric(1.5, 1, 1)
            .matrix(&TileGrid::POI360, TilePos::new(6, 4))
    }

    #[test]
    fn uniform_sensitivity_reproduces_base_exactly() {
        let b = base();
        let s = SensitivityMap::uniform(&TileGrid::POI360);
        let w = weighted_matrix(&b, &s);
        assert_eq!(w.levels(), b.levels(), "Pano under uniform s must be bitwise identical");
        let g = ghosh_matrix(&b, &s);
        for pos in TileGrid::POI360.iter() {
            let (a, e) = (g.level(pos), b.level(pos));
            assert!((a - e).abs() <= 1e-9 * e.max(1.0), "{pos:?}: {a} vs {e}");
        }
    }

    #[test]
    fn pano_map_peaks_at_the_roi() {
        let g = TileGrid::POI360;
        let center = TilePos::new(3, 3);
        let s = SensitivityMap::pano(&g, center);
        assert!(s.weight(center) > 1.0, "gaze tile must weigh above mean");
        assert!(s.weight(TilePos::new(9, 7)) < 1.0, "far tile must weigh below mean");
        // Sensitivity is a pure function of distance.
        for a in g.iter() {
            for b in g.iter() {
                if g.distance(a, center) == g.distance(b, center) {
                    assert_eq!(s.sensitivity(a), s.sensitivity(b));
                }
            }
        }
    }

    #[test]
    fn weighting_refines_sensitive_tiles_and_coarsens_the_rest() {
        let b = base();
        let s = SensitivityMap::pano(&TileGrid::POI360, b.roi_center);
        let w = weighted_matrix(&b, &s);
        // A mid-distance tile (base level > L_MIN, weight > 1) is refined.
        let near = TilePos::new(8, 4);
        assert!(s.weight(near) > 1.0 && b.level(near) > L_MIN);
        assert!(w.level(near) < b.level(near));
        // The far side (weight < 1) is coarsened.
        let far = TilePos::new(0, 7);
        assert!(s.weight(far) < 1.0);
        assert!(w.level(far) > b.level(far));
        // Levels never dip below the identity level.
        assert!(w.levels().iter().all(|&l| l >= L_MIN));
    }

    #[test]
    fn ghosh_shifts_share_toward_sensitive_tiles() {
        let b = base();
        let s = SensitivityMap::pano(&TileGrid::POI360, b.roi_center);
        let g = ghosh_matrix(&b, &s);
        let near = TilePos::new(8, 4);
        let far = TilePos::new(0, 7);
        // Share of a tile ∝ 1/level: sensitive tiles must gain share.
        assert!(1.0 / g.level(near) > 1.0 / b.level(near), "{}", g.level(near));
        assert!(1.0 / g.level(far) < 1.0 / b.level(far), "{}", g.level(far));
        assert!(g.levels().iter().all(|&l| l >= L_MIN));
    }
}
