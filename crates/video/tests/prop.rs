//! Property-based tests for the 360° video substrate, on the in-repo
//! `poi360_testkit` harness (64+ seeded cases per property).

use poi360_sim::time::SimTime;
use poi360_testkit::{prop_assert, prop_assert_eq, prop_check};
use poi360_video::compression::CompressionMode;
use poi360_video::content::ContentModel;
use poi360_video::encoder::{Encoder, EncoderConfig};
use poi360_video::frame::{TileGrid, TilePos};
use poi360_video::rd::RdModel;
use poi360_video::roi::Roi;

/// Encoded frames are well-formed for any target bitrate and ROI:
/// 96 tiles, positive size, tile bits summing to the frame size.
#[test]
fn encoded_frames_are_well_formed() {
    prop_check!(64, |g| {
        let rate_kbps = g.u64_in(50, 19_999);
        let i = g.u8_in(0, 11);
        let j = g.u8_in(0, 7);
        let c = g.f64_in(1.05, 1.9);
        let seed = g.any_u64();
        let grid = TileGrid::POI360;
        let mut enc = Encoder::new(EncoderConfig::default(), seed);
        let content = ContentModel::new(grid, seed);
        let roi = Roi::at_tile(&grid, TilePos::new(i, j));
        let matrix = CompressionMode::protected_geometric(c, 1, 1).matrix(&grid, roi.center);
        let frame = enc.encode(SimTime::ZERO, roi, &matrix, &content, rate_kbps as f64 * 1e3);
        prop_assert_eq!(frame.tiles().len(), 96);
        prop_assert!(frame.bytes > 0);
        let bits: f64 = frame.tiles().map(|t| t.bits).sum();
        prop_assert!((bits / 8.0 - frame.bytes as f64).abs() < 2.0);
        for t in frame.tiles() {
            prop_assert!(t.bits >= 0.0);
            prop_assert!(t.level >= 1.0);
        }
        Ok(())
    });
}

/// Region PSNR is bounded and monotone in the bitrate (same seed).
#[test]
fn psnr_bounded_and_rate_monotone() {
    prop_check!(96, |g| {
        let i = g.u8_in(0, 11);
        let j = g.u8_in(0, 7);
        let grid = TileGrid::POI360;
        let rd = RdModel::default();
        let geo = EncoderConfig::default().geometry;
        let content = ContentModel::new(grid, 3);
        let roi = Roi::at_tile(&grid, TilePos::new(i, j));
        let matrix = CompressionMode::protected_geometric(1.4, 1, 1).matrix(&grid, roi.center);
        let mut psnrs = Vec::new();
        for rate in [0.3e6, 1.0e6, 3.0e6] {
            // Jitter-free encoder so monotonicity is exact.
            let cfg = EncoderConfig { rate_jitter_std: 0.0, ..Default::default() };
            let mut enc = Encoder::new(cfg, 3);
            let f = enc.encode(SimTime::ZERO, roi, &matrix, &content, rate);
            let p = f.region_psnr(&rd, &geo, roi.fov_tiles(&grid, 1, 1));
            prop_assert!((5.0..=55.0).contains(&p), "psnr {p}");
            psnrs.push(p);
        }
        prop_assert!(psnrs[0] <= psnrs[1] + 1e-9 && psnrs[1] <= psnrs[2] + 1e-9, "{psnrs:?}");
        Ok(())
    });
}

/// The R-D model is monotone: more bits never hurt, deeper spatial
/// compression never helps.
#[test]
fn rd_model_monotone() {
    prop_check!(128, |g| {
        let w = g.f64_in(0.3, 2.5);
        let bpp = g.f64_in(0.005, 0.5);
        let l = g.f64_in(1.0, 32.0);
        let rd = RdModel::default();
        let psnr = |bpp, l| rd.psnr_from_mse(rd.tile_mse(w, bpp, l));
        prop_assert!(psnr(bpp * 1.5, l) >= psnr(bpp, l) - 1e-9);
        prop_assert!(psnr(bpp, l + 1.0) <= psnr(bpp, l) + 1e-9);
        Ok(())
    });
}

/// FoV tile sets: always contain the center, never exceed the 3x3
/// bound, and stay within the grid.
#[test]
fn fov_tiles_well_formed() {
    prop_check!(128, |g| {
        let yaw = g.f64_in(-720.0, 720.0);
        let pitch = g.f64_in(-100.0, 100.0);
        let grid = TileGrid::POI360;
        let roi = Roi::from_angles(&grid, yaw, pitch);
        let tiles = roi.fov_tiles(&grid, 1, 1);
        prop_assert!(tiles.contains(&roi.center));
        prop_assert!(tiles.len() <= 9 && tiles.len() >= 6);
        for t in tiles {
            prop_assert!(t.i < grid.cols && t.j < grid.rows);
        }
        Ok(())
    });
}

/// Fraction of the raw spatial payload a mode retains for an ROI at
/// `center`: the mean of `1/l` over its matrix.
fn load(mode: CompressionMode, grid: &TileGrid, center: TilePos) -> f64 {
    let m = mode.matrix(grid, center);
    m.levels().iter().map(|&l| 1.0 / l).sum::<f64>() / m.levels().len() as f64
}

/// Mode load factors stay in (0, 1] and shrink as C grows.
#[test]
fn load_factor_behaviour() {
    prop_check!(128, |g| {
        let c = g.f64_in(1.05, 2.0);
        let i = g.u8_in(0, 11);
        let j = g.u8_in(0, 7);
        let grid = TileGrid::POI360;
        let center = TilePos::new(i, j);
        let lf = load(CompressionMode::protected_geometric(c, 1, 1), &grid, center);
        prop_assert!(lf > 0.0 && lf <= 1.0);
        let heavier = load(CompressionMode::protected_geometric(c + 0.3, 1, 1), &grid, center);
        prop_assert!(heavier <= lf + 1e-12);
        Ok(())
    });
}

/// Content weights are always positive and bounded after arbitrary
/// evolution.
#[test]
fn content_weights_bounded() {
    prop_check!(64, |g| {
        let seed = g.any_u64();
        let frames = g.usize_in(0, 299);
        let mut content = ContentModel::new(TileGrid::POI360, seed);
        for _ in 0..frames {
            content.advance_frame();
        }
        for pos in TileGrid::POI360.iter() {
            let w = content.weight(pos);
            prop_assert!(w > 0.05 && w < 5.0, "weight {w}");
        }
        Ok(())
    });
}
