//! Property tests for the perceptual tiling layer: the uniform-sensitivity
//! reduction laws.

use poi360_testkit::{prop_assert, prop_assert_eq, prop_check};
use poi360_video::compression::CompressionMatrix;
use poi360_video::frame::TileGrid;
use poi360_video::perceptual::{ghosh_matrix, weighted_matrix};
use poi360_video::SensitivityMap;

#[test]
fn uniform_sensitivity_reduces_both_modulations_to_the_base_matrix() {
    prop_check!("uniform_reduction", 96, |g| {
        let grid = TileGrid::default();
        let base = CompressionMatrix::uniform(&grid, g.f64_in(1.0, 12.0));
        let sens = SensitivityMap::uniform(&grid);
        let pano = weighted_matrix(&base, &sens);
        prop_assert_eq!(pano.levels(), base.levels());
        let ghosh = ghosh_matrix(&base, &sens);
        for (a, b) in ghosh.levels().iter().zip(base.levels()) {
            prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "Ghosh must reduce to base");
        }
        Ok(())
    });
}
