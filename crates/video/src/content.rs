//! Synthetic 360° content model.
//!
//! Substitutes for the paper's real camera feed (and the v4l2loopback
//! virtual webcam used to replay it, §6). Each tile has a *texture
//! complexity* weight `w` around 1.0: complex tiles (foliage, crowds) cost
//! more bits for the same quality; flat tiles (sky, road) cost fewer. The
//! field has
//!
//! * a static spatial component — equirectangular content concentrates
//!   detail near the horizon rows and varies smoothly in yaw, and
//! * a temporal component — scene motion makes complexity drift slowly,
//!   modeled per-tile as mean-reverting noise.
//!
//! Determinism: the whole field is a pure function of `(seed, frame_no)`, so
//! repeated runs replay the same "video", mirroring how the paper replays
//! the same 360° clip per user across repetitions.

use crate::frame::{TileGrid, TilePos};
use poi360_sim::rng::SimRng;

/// Per-tile texture-complexity field.
#[derive(Clone, Debug)]
pub struct ContentModel {
    grid: TileGrid,
    /// Static spatial weights, mean ≈ 1.
    base: Vec<f64>,
    /// Current temporal modulation, mean-reverting around 1.
    drift: Vec<f64>,
    rng: SimRng,
    /// Mean-reversion factor per frame.
    revert: f64,
    /// Per-frame innovation std.
    innovation: f64,
}

impl ContentModel {
    /// Create a content field for `grid` seeded from the experiment seed.
    pub fn new(grid: TileGrid, seed: u64) -> Self {
        let mut rng = SimRng::stream(seed, "video.content");
        let mut base = Vec::with_capacity(grid.tile_count());
        for pos in grid.iter() {
            // Horizon emphasis: rows near the middle carry more detail.
            let row_frac = (pos.j as f64 + 0.5) / grid.rows as f64; // 0..1 bottom..top
            let horizon = 1.0 - ((row_frac - 0.5).abs() * 2.0).powi(2) * 0.55;
            // Smooth yaw variation: a couple of low-frequency harmonics.
            let yaw = (pos.i as f64 + 0.5) / grid.cols as f64 * std::f64::consts::TAU;
            let spatial = 1.0 + 0.25 * yaw.sin() + 0.15 * (2.0 * yaw + 1.0).cos();
            // Small fixed per-tile texture variation.
            let jitter = 1.0 + 0.1 * rng.gaussian();
            base.push((horizon * spatial * jitter).max(0.25));
        }
        // Normalize the static field to mean 1 so bitrate calibration holds.
        let mean = base.iter().sum::<f64>() / base.len() as f64;
        for b in &mut base {
            *b /= mean;
        }
        ContentModel {
            grid,
            drift: vec![1.0; grid.tile_count()],
            base,
            rng,
            revert: 0.02,
            innovation: 0.015,
        }
    }

    /// Advance the temporal component by one frame.
    pub fn advance_frame(&mut self) {
        for d in &mut self.drift {
            let noise = self.rng.gaussian() * self.innovation;
            *d += self.revert * (1.0 - *d) + noise;
            *d = d.clamp(0.5, 2.0);
        }
    }

    /// Complexity weight of a tile (≈ mean 1 across the frame).
    pub fn weight(&self, pos: TilePos) -> f64 {
        self.weight_at(self.grid.index(pos))
    }

    /// [`ContentModel::weight`] of the tile at a row-major flat index.
    pub(crate) fn weight_at(&self, idx: usize) -> f64 {
        self.base[idx] * self.drift[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ContentModel {
        /// All weights in row-major order.
        fn weights(&self) -> Vec<f64> {
            self.grid.iter().map(|p| self.weight(p)).collect()
        }
    }

    /// Mean weight across the frame (≈ 1).
    fn mean_weight(c: &ContentModel) -> f64 {
        c.weights().iter().sum::<f64>() / c.grid.tile_count() as f64
    }

    #[test]
    fn weights_positive_and_bounded() {
        let mut c = ContentModel::new(TileGrid::POI360, 1);
        for _ in 0..500 {
            c.advance_frame();
        }
        for pos in TileGrid::POI360.iter() {
            let w = c.weight(pos);
            assert!(w > 0.1 && w < 4.0, "weight {w} at {pos:?}");
        }
    }

    #[test]
    fn mean_weight_near_one() {
        let c = ContentModel::new(TileGrid::POI360, 2);
        assert!((mean_weight(&c) - 1.0).abs() < 0.05, "{}", mean_weight(&c));
    }

    #[test]
    fn mean_stays_near_one_over_time() {
        let mut c = ContentModel::new(TileGrid::POI360, 3);
        for _ in 0..2_000 {
            c.advance_frame();
        }
        assert!((mean_weight(&c) - 1.0).abs() < 0.15, "{}", mean_weight(&c));
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ContentModel::new(TileGrid::POI360, 42);
        let mut b = ContentModel::new(TileGrid::POI360, 42);
        for _ in 0..100 {
            a.advance_frame();
            b.advance_frame();
        }
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn different_seeds_differ() {
        let a = ContentModel::new(TileGrid::POI360, 1);
        let b = ContentModel::new(TileGrid::POI360, 2);
        assert_ne!(a.weights(), b.weights());
    }

    #[test]
    fn horizon_rows_richer_than_poles() {
        let c = ContentModel::new(TileGrid::POI360, 7);
        let g = TileGrid::POI360;
        let row_mean = |j: u8| -> f64 {
            (0..g.cols).map(|i| c.weight(TilePos::new(i, j))).sum::<f64>() / g.cols as f64
        };
        let horizon = (row_mean(3) + row_mean(4)) / 2.0;
        let poles = (row_mean(0) + row_mean(7)) / 2.0;
        assert!(horizon > poles, "horizon {horizon} poles {poles}");
    }

    #[test]
    fn drift_actually_moves() {
        let mut c = ContentModel::new(TileGrid::POI360, 9);
        let before = c.weights();
        for _ in 0..50 {
            c.advance_frame();
        }
        let after = c.weights();
        assert_ne!(before, after);
    }
}
