//! Rate–distortion model.
//!
//! Each displayed tile suffers two distortion sources, modeled additively in
//! the MSE domain (distortions from independent stages approximately add):
//!
//! 1. **Quantization distortion** from the temporal encoder, the classical
//!    power law `MSE_q = k_q · w · bpp^(-beta)` where `bpp` is the encoded
//!    bits per *encoded* pixel and `w` the tile's content complexity.
//! 2. **Spatial downscale distortion** from POI360's tile scaling
//!    (compression level `l` shrinks a tile's pixel area by `l`), modeled as
//!    `MSE_s = k_s · w · (l - 1)^gamma`, zero at `l = 1`.
//!
//! `PSNR = 10·log10(255² / MSE)`.
//!
//! ### Calibration
//! Constants are fitted to two anchors from the paper:
//! * the raw (uncompressed-matrix) 4K stream encodes at 12.65 Mbps (§6.1.1),
//!   i.e. ≈ 0.048 bpp at 36 FPS, and should sit in the "excellent" band
//!   (PSNR ≈ 40 dB, Table 1), and
//! * deep non-ROI levels (l ≈ 16–32) should land in the "poor"/"bad" bands
//!   (PSNR ≈ 18–21 dB), which is what makes an ROI mismatch visible.

/// Peak signal value for 8-bit video.
const PEAK: f64 = 255.0;

/// Rate–distortion model constants.
#[derive(Clone, Copy, Debug)]
pub struct RdModel {
    /// Quantization MSE coefficient `k_q`.
    pub k_q: f64,
    /// Quantization rate exponent `beta` (>0).
    pub beta: f64,
    /// Downscale MSE coefficient `k_s`.
    pub k_s: f64,
    /// Downscale level exponent `gamma` (>0).
    pub gamma: f64,
}

impl Default for RdModel {
    fn default() -> Self {
        // k_q solves 10*log10(255^2/mse)=39.5dB at bpp=0.048, w=1:
        //   mse = 7.30, k_q = mse * bpp^beta. Full quality thus sits just
        // above the Good/Excellent MOS boundary (37 dB), like the paper's
        // double-compressed (canvas + VP8) prototype pipeline.
        RdModel { k_q: 0.19, beta: 1.2, k_s: 14.0, gamma: 1.15 }
    }
}

impl RdModel {
    /// Quantization MSE for a tile with complexity `w` encoded at `bpp`
    /// bits per encoded pixel.
    pub fn quantization_mse(&self, w: f64, bpp: f64) -> f64 {
        debug_assert!(w > 0.0);
        if bpp <= 0.0 {
            // Zero bits: nothing decodable; saturate at a gray-frame error.
            return PEAK * PEAK / 10.0;
        }
        (self.k_q * w * bpp.powf(-self.beta)).min(PEAK * PEAK / 10.0)
    }

    /// Spatial downscale MSE for a tile with complexity `w` encoded at
    /// compression level `l >= 1` and upscaled back for display.
    pub fn downscale_mse(&self, w: f64, level: f64) -> f64 {
        debug_assert!(level >= 1.0 && w > 0.0);
        self.k_s * w * (level - 1.0).powf(self.gamma)
    }

    /// Total display MSE of a tile.
    pub fn tile_mse(&self, w: f64, bpp: f64, level: f64) -> f64 {
        self.quantization_mse(w, bpp) + self.downscale_mse(w, level)
    }

    /// PSNR (dB) from an MSE.
    pub fn psnr_from_mse(&self, mse: f64) -> f64 {
        debug_assert!(mse >= 0.0);
        // Cap at 55 dB: visually lossless; avoids infinities at mse -> 0.
        (10.0 * (PEAK * PEAK / mse.max(1e-3)).log10()).min(55.0)
    }

    /// PSNR of a single tile.
    pub fn tile_psnr(&self, w: f64, bpp: f64, level: f64) -> f64 {
        self.psnr_from_mse(self.tile_mse(w, bpp, level))
    }

    /// Aggregate PSNR over a region: MSEs combine pixel-weighted, then one
    /// log. `tiles` yields `(pixel_weight, mse)` pairs.
    pub fn region_psnr(&self, tiles: impl IntoIterator<Item = (f64, f64)>) -> f64 {
        let mut wsum = 0.0;
        let mut msum = 0.0;
        for (pixels, mse) in tiles {
            wsum += pixels;
            msum += pixels * mse;
        }
        if wsum <= 0.0 {
            return 0.0;
        }
        self.psnr_from_mse(msum / wsum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rd() -> RdModel {
        RdModel::default()
    }

    #[test]
    fn calibration_anchor_raw_stream() {
        // 12.65 Mbps, 36 FPS, 4K: bpp = 12.65e6/36/(3840*1920) = 0.04766.
        let psnr = rd().tile_psnr(1.0, 0.04766, 1.0);
        assert!((38.0..43.0).contains(&psnr), "raw-stream PSNR {psnr}");
    }

    #[test]
    fn deep_levels_are_poor_or_bad() {
        let bpp = 0.048;
        let p16 = rd().tile_psnr(1.0, bpp, 16.0);
        let p32 = rd().tile_psnr(1.0, bpp, 32.0);
        assert!(p16 < 25.0, "l=16 PSNR {p16}");
        assert!(p32 < 21.0, "l=32 PSNR {p32}");
        assert!(p32 < p16);
    }

    #[test]
    fn psnr_monotone_in_bits() {
        let r = rd();
        let mut last = 0.0;
        for bpp in [0.005, 0.01, 0.02, 0.05, 0.1, 0.3] {
            let p = r.tile_psnr(1.0, bpp, 1.0);
            assert!(p > last, "bpp {bpp}: {p} <= {last}");
            last = p;
        }
    }

    #[test]
    fn psnr_monotone_decreasing_in_level() {
        let r = rd();
        let mut last = f64::INFINITY;
        for l in [1.0, 1.5, 2.0, 4.0, 8.0, 16.0] {
            let p = r.tile_psnr(1.0, 0.05, l);
            assert!(p < last, "l {l}: {p} >= {last}");
            last = p;
        }
    }

    #[test]
    fn complex_content_costs_quality() {
        let r = rd();
        assert!(r.tile_psnr(2.0, 0.05, 1.0) < r.tile_psnr(0.5, 0.05, 1.0));
    }

    #[test]
    fn zero_bits_saturates_not_panics() {
        let r = rd();
        let p = r.tile_psnr(1.0, 0.0, 1.0);
        assert!(p < 15.0, "zero-bit PSNR {p}");
    }

    #[test]
    fn region_psnr_between_extremes() {
        let r = rd();
        let good = r.tile_mse(1.0, 0.05, 1.0);
        let bad = r.tile_mse(1.0, 0.05, 32.0);
        let combined = r.region_psnr([(1.0, good), (1.0, bad)]);
        assert!(combined > r.psnr_from_mse(bad));
        assert!(combined < r.psnr_from_mse(good));
    }

    #[test]
    fn region_psnr_pixel_weighting_matters() {
        let r = rd();
        let good = r.tile_mse(1.0, 0.05, 1.0);
        let bad = r.tile_mse(1.0, 0.05, 32.0);
        let mostly_good = r.region_psnr([(10.0, good), (1.0, bad)]);
        let mostly_bad = r.region_psnr([(1.0, good), (10.0, bad)]);
        assert!(mostly_good > mostly_bad);
    }

    #[test]
    fn psnr_capped() {
        assert!(rd().tile_psnr(1.0, 100.0, 1.0) <= 55.0);
    }
}
