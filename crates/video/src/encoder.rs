//! Frame-level video encoder model.
//!
//! Stands in for the paper's canvas-capture + VP8 pipeline (§5). Per frame
//! it:
//!
//! 1. takes the compression matrix chosen by the spatial-compression policy,
//! 2. computes the bits *required* to encode every tile at full quality at
//!    its assigned spatial level (complex tiles cost proportionally more),
//! 3. spends `min(required, target-rate budget)` bits, splitting them across
//!    tiles proportionally to their encoded pixel area × complexity, and
//! 4. emits an [`EncodedFrame`] carrying each tile's content weight and the
//!    frame totals its per-tile bits derive from, plus the embedded metadata
//!    the prototype stitches into the canvas: the sender's ROI knowledge,
//!    the compression matrix (shared, not copied), and the capture
//!    timestamp.
//!
//! The encoder tracks a running *rate debt* so that keyframe bursts and
//! output jitter average out to the target bitrate, like a real codec's
//! rate controller.

use crate::compression::CompressionMatrix;
use crate::content::ContentModel;
use crate::frame::FrameGeometry;
use crate::rd::RdModel;
use crate::roi::Roi;
use poi360_sim::rng::SimRng;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;

/// Frame rate (the paper's sessions run at 36 FPS).
pub const FPS: f64 = 36.0;
/// Bits per encoded pixel that yields "full" quality at level 1.
/// 0.04766 bpp reproduces the paper's 12.65 Mbps raw 4K stream.
pub const FULL_QUALITY_BPP: f64 = 0.04766;
/// Size multiplier of a keyframe relative to a delta frame.
pub const KEYFRAME_COST: f64 = 3.0;
/// Floor on frame payload (headers, embedded metadata blocks), bytes.
pub const MIN_FRAME_BYTES: u32 = 200;
/// Intra-refresh cost factor: when a tile's compression level drops
/// (quality upgraded, e.g. the ROI moved onto it), its newly detailed
/// pixels cannot be temporally predicted and cost extra bits. The factor
/// scales the upgraded pixel area's full-quality cost.
pub const INTRA_UPGRADE_FACTOR: f64 = 2.0;
/// Scene-change threshold: if more than this fraction of the effective
/// (encoded) pixel area was upgraded since the previous frame, the encoder
/// emits a full keyframe — which is what a real codec's scene-change
/// detector does when a two-level crop scheme relocates its full-quality
/// region.
pub const SCENE_CHANGE_THRESHOLD: f64 = 0.4;

/// Encoder configuration: what some caller varies. The fixed parameters
/// are the constants above.
#[derive(Clone, Copy, Debug)]
pub struct EncoderConfig {
    /// Frame geometry (canvas + grid).
    pub geometry: FrameGeometry,
    /// Keyframe period in frames; 0 disables periodic keyframes (WebRTC
    /// uses an open GOP and only sends keyframes on request).
    pub keyframe_interval: u32,
    /// Log-std of the encoder's output-size jitter around its target.
    pub rate_jitter_std: f64,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            geometry: FrameGeometry::UHD_4K,
            keyframe_interval: 0,
            rate_jitter_std: 0.08,
        }
    }
}

/// The time between two frames at [`FPS`].
pub fn frame_interval() -> SimDuration {
    SimDuration::from_secs_f64(1.0 / FPS)
}

impl EncoderConfig {
    /// Frame interval: [`frame_interval`], for callers holding a config.
    pub fn frame_interval(&self) -> SimDuration {
        frame_interval()
    }
}

/// Per-tile encoding result.
#[derive(Clone, Copy, Debug)]
pub struct EncodedTile {
    /// Spatial compression level `l_ij` the tile was encoded at.
    pub level: f64,
    /// Bits spent on the tile.
    pub bits: f64,
    /// Content complexity weight at encode time.
    pub weight: f64,
}

impl EncodedTile {
    /// Bits per *encoded* pixel (after spatial downscale by `level`).
    pub fn bpp(&self, tile_pixels: u32) -> f64 {
        let encoded_px = tile_pixels as f64 / self.level;
        if encoded_px <= 0.0 {
            0.0
        } else {
            self.bits / encoded_px
        }
    }

    /// Display MSE of this tile under the given R-D model.
    pub fn display_mse(&self, rd: &RdModel, tile_pixels: u32) -> f64 {
        rd.tile_mse(self.weight, self.bpp(tile_pixels), self.level)
    }
}

/// One encoded 360° frame, including the metadata the prototype embeds in
/// the canvas (§5): sender ROI knowledge, compression matrix, timestamp.
///
/// A session holds every frame in flight until the client scores it, so a
/// frame keeps only what is its own: one content weight per tile and the
/// totals of the per-tile split. The matrix shares its levels with the
/// encoder and the policy that built it, and each [`EncodedTile`] is
/// derived on demand by [`EncodedFrame::tile`].
#[derive(Clone, Debug)]
pub struct EncodedFrame {
    /// Monotonic frame number.
    pub frame_no: u64,
    /// Capture/encode instant (the embedded sending timestamp).
    pub capture_time: SimTime,
    /// Total payload size in bytes.
    pub bytes: u32,
    /// Whether this is a keyframe.
    pub keyframe: bool,
    /// The sender's ROI knowledge used for this frame.
    pub sender_roi: Roi,
    /// The compression matrix applied (embedded so the client can unfold).
    pub matrix: CompressionMatrix,
    /// Content complexity weight of each tile at encode time, row-major.
    weights: Box<[f64]>,
    /// Bits spent on the frame, before rounding up to whole bytes.
    spent: f64,
    /// Sum of every tile's share, encoded pixels × weight.
    share_sum: f64,
    /// Pixels per tile before spatial compression.
    tile_px: f64,
}

impl EncodedFrame {
    /// The result for the tile at row-major index `idx`: the frame's spend
    /// split ∝ the tile's share, by the expression and operands the encoder
    /// computed the split from, so the bits are the same.
    pub fn tile(&self, idx: usize) -> EncodedTile {
        let (level, weight) = (self.matrix.levels()[idx], self.weights[idx]);
        EncodedTile {
            level,
            bits: self.spent * ((self.tile_px / level) * weight) / self.share_sum,
            weight,
        }
    }

    /// Every tile's result, row-major.
    pub fn tiles(&self) -> impl ExactSizeIterator<Item = EncodedTile> + '_ {
        (0..self.weights.len()).map(|idx| self.tile(idx))
    }

    /// Aggregate PSNR over an arbitrary set of tiles (all tiles render at
    /// the same display size, so pixel weights are uniform).
    pub fn region_psnr(
        &self,
        rd: &RdModel,
        geometry: &FrameGeometry,
        tiles: impl IntoIterator<Item = crate::frame::TilePos>,
    ) -> f64 {
        let px = geometry.tile_pixels();
        rd.region_psnr(tiles.into_iter().map(|pos| {
            let t = self.tile(geometry.grid.index(pos));
            (px as f64, t.display_mse(rd, px))
        }))
    }
}

/// The frame-level encoder.
#[derive(Clone, Debug)]
pub struct Encoder {
    cfg: EncoderConfig,
    rng: SimRng,
    next_frame_no: u64,
    /// Accumulated bits spent above target; repaid by shrinking later frames.
    rate_debt_bits: f64,
    keyframe_requested: bool,
    /// Matrix of the previous frame, for intra-upgrade costing.
    last_matrix: Option<CompressionMatrix>,
    recorder: Recorder,
}

impl Encoder {
    /// Create an encoder.
    pub fn new(cfg: EncoderConfig, seed: u64) -> Self {
        Encoder {
            cfg,
            rng: SimRng::stream(seed, "video.encoder"),
            next_frame_no: 0,
            rate_debt_bits: 0.0,
            keyframe_requested: true, // first frame is always a keyframe
            last_matrix: None,
            recorder: Recorder::null(),
        }
    }

    /// Attach the session's probe recorder.
    pub fn set_recorder(&mut self, rec: &Recorder) {
        self.recorder = rec.clone();
    }

    /// Ask for the next frame to be a keyframe (WebRTC PLI handling).
    pub fn request_keyframe(&mut self) {
        self.keyframe_requested = true;
    }

    /// Encode one frame against a target source bitrate (bps).
    pub fn encode(
        &mut self,
        now: SimTime,
        sender_roi: Roi,
        matrix: &CompressionMatrix,
        content: &ContentModel,
        target_bitrate_bps: f64,
    ) -> EncodedFrame {
        let frame_no = self.next_frame_no;
        self.next_frame_no += 1;
        let tile_px = self.cfg.geometry.tile_pixels() as f64;
        let levels = matrix.levels();
        debug_assert_eq!(levels.len(), self.cfg.geometry.grid.tile_count());

        // One pass over the tiles, in row-major order, for every sum the
        // frame needs: each accumulates in the order a pass of its own
        // would, so the sums are the same bits. The weights are the frame's
        // one buffer.
        let (mut upgraded_px, mut total_effective_px) = (0.0, 0.0);
        let (mut required, mut share_sum) = (0.0, 0.0);
        let mut weights = Vec::with_capacity(levels.len());
        let prev = self.last_matrix.as_ref().map(CompressionMatrix::levels);
        for (idx, &level) in levels.iter().enumerate() {
            let weight = content.weight_at(idx);
            weights.push(weight);
            let new_px = tile_px / level;
            if let Some(prev) = prev {
                let old_px = tile_px / prev[idx];
                upgraded_px += (new_px - old_px).max(0.0) * weight;
                total_effective_px += new_px;
            }
            // A tile's share of the bits: encoded pixels × complexity.
            let share = new_px * weight;
            required += share * FULL_QUALITY_BPP;
            share_sum += share;
        }

        // Scene-change detection: a large quality redistribution forces a
        // keyframe.
        let scene_change =
            total_effective_px > 0.0 && upgraded_px / total_effective_px > SCENE_CHANGE_THRESHOLD;

        let keyframe = self.keyframe_requested
            || scene_change
            || (self.cfg.keyframe_interval > 0
                && frame_no.is_multiple_of(self.cfg.keyframe_interval as u64));
        self.keyframe_requested = false;

        // Budget: target bits/frame, minus outstanding debt, times keyframe
        // factor when applicable. Never below a minimal floor.
        let per_frame = (target_bitrate_bps / FPS).max(0.0);
        let mut budget =
            (per_frame - self.rate_debt_bits.max(0.0)).max(MIN_FRAME_BYTES as f64 * 8.0);
        if keyframe {
            budget *= KEYFRAME_COST;
        }

        let mut spend_target =
            budget.min(if keyframe { required * KEYFRAME_COST } else { required });

        // Intra-refresh burst: pixels whose quality was upgraded since the
        // previous frame (level dropped) cannot be predicted and must be
        // intra-coded on top of the regular budget. This is what makes
        // abrupt quality redistributions (Conduit's floor→full jumps on ROI
        // change) expensive on a tight uplink. Keyframes already pay the
        // full intra cost. The intra blocks are coded at the *current*
        // operating quality, so the burst scales with the rate ratio: a
        // starved encoder refreshes cheaply coarse tiles, not pristine ones.
        if !keyframe {
            let quality_ratio =
                if required > 0.0 { (budget / required).clamp(0.05, 1.0) } else { 1.0 };
            spend_target += upgraded_px * FULL_QUALITY_BPP * INTRA_UPGRADE_FACTOR * quality_ratio;
        }
        self.last_matrix = Some(matrix.clone());

        // Encoder output jitter: real codecs overshoot/undershoot per frame.
        let jitter = (self.rng.gaussian() * self.cfg.rate_jitter_std).exp();
        let spent = (spend_target * jitter).max(MIN_FRAME_BYTES as f64 * 8.0);

        // Debt bookkeeping against the *target rate*, so the long-run output
        // averages to min(target, required).
        let steady_target = per_frame.min(required);
        self.rate_debt_bits = (self.rate_debt_bits + spent - steady_target)
            .clamp(-4.0 * per_frame.max(1.0), 4.0 * per_frame.max(1.0));

        let bytes = (spent / 8.0).ceil() as u32;
        if keyframe {
            self.recorder.count("video.keyframe", now, 1);
        }
        self.recorder.event("video.frame_bytes", now, bytes as f64);

        EncodedFrame {
            frame_no,
            capture_time: now,
            bytes,
            keyframe,
            sender_roi,
            matrix: matrix.clone(),
            weights: weights.into_boxed_slice(),
            spent,
            share_sum,
            tile_px,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compression::CompressionMode;
    use crate::frame::{TileGrid, TilePos};

    fn setup() -> (Encoder, ContentModel, Roi) {
        let cfg = EncoderConfig::default();
        let enc = Encoder::new(cfg, 7);
        let content = ContentModel::new(TileGrid::POI360, 7);
        let roi = Roi::at_tile(&TileGrid::POI360, TilePos::new(6, 4));
        (enc, content, roi)
    }

    /// The bitrate of the stream when nothing is spatially compressed —
    /// the paper's 12.65 Mbps reference for a 4K 360° feed.
    fn raw_bitrate_bps(cfg: &EncoderConfig) -> f64 {
        let pixels = cfg.geometry.width * cfg.geometry.height;
        FULL_QUALITY_BPP * pixels as f64 * FPS
    }

    /// The source bitrate (bps) needed to sustain full quality under
    /// `matrix` at the configured frame rate: every tile's encoded pixels
    /// times its complexity at full-quality bits per pixel.
    fn required_bitrate(enc: &Encoder, matrix: &CompressionMatrix, content: &ContentModel) -> f64 {
        let geo = &enc.cfg.geometry;
        let tile_px = geo.tile_pixels() as f64;
        let bits: f64 = geo
            .grid
            .iter()
            .map(|pos| tile_px / matrix.level(pos) * content.weight(pos) * FULL_QUALITY_BPP)
            .sum();
        bits * FPS
    }

    #[test]
    fn raw_bitrate_matches_paper() {
        let cfg = EncoderConfig::default();
        let raw = raw_bitrate_bps(&cfg);
        assert!((raw - 12.65e6).abs() < 0.05e6, "raw bitrate {raw}");
    }

    #[test]
    fn required_bitrate_uncompressed_equals_raw() {
        let (enc, content, _) = setup();
        let g = TileGrid::POI360;
        let m = CompressionMatrix::from_levels(g, TilePos::new(0, 0), vec![1.0; g.tile_count()]);
        let req = required_bitrate(&enc, &m, &content);
        let raw = raw_bitrate_bps(&enc.cfg);
        assert!((req / raw - 1.0).abs() < 0.05, "req {req} raw {raw}");
    }

    #[test]
    fn adaptive_mode_cuts_required_bitrate_like_paper() {
        // Paper §6.1.1: 12.65 Mbps raw shrinks to ~3 Mbps received (−76%).
        let (enc, content, roi) = setup();
        let mid = CompressionMode::geometric(1.4).matrix(&TileGrid::POI360, roi.center);
        let req = required_bitrate(&enc, &mid, &content);
        let raw = raw_bitrate_bps(&enc.cfg);
        let reduction = 1.0 - req / raw;
        assert!((0.60..0.92).contains(&reduction), "reduction {reduction}");
    }

    #[test]
    fn long_run_output_tracks_target() {
        let (mut enc, mut content, roi) = setup();
        let matrix = CompressionMode::geometric(1.3).matrix(&TileGrid::POI360, roi.center);
        let target = 2.0e6;
        let mut now = SimTime::ZERO;
        let mut total_bits = 0.0;
        let n = 720; // 20 s
        for _ in 0..n {
            let f = enc.encode(now, roi, &matrix, &content, target);
            total_bits += f.bytes as f64 * 8.0;
            content.advance_frame();
            now += enc.cfg.frame_interval();
        }
        let rate = total_bits / (n as f64 / FPS);
        assert!((rate / target - 1.0).abs() < 0.1, "rate {rate} target {target}");
    }

    #[test]
    fn output_capped_by_required_when_target_is_huge() {
        let (mut enc, content, roi) = setup();
        let matrix = CompressionMode::geometric(1.8).matrix(&TileGrid::POI360, roi.center);
        let req = required_bitrate(&enc, &matrix, &content);
        let mut total_bits = 0.0;
        let n = 360;
        let mut now = SimTime::ZERO;
        for _ in 0..n {
            let f = enc.encode(now, roi, &matrix, &content, 50.0e6);
            total_bits += f.bytes as f64 * 8.0;
            now += enc.cfg.frame_interval();
        }
        let rate = total_bits / (n as f64 / FPS);
        assert!(rate < req * 1.25, "rate {rate} should stay near required {req}");
    }

    #[test]
    fn first_frame_is_keyframe_and_larger() {
        let (mut enc, content, roi) = setup();
        let matrix = CompressionMode::geometric(1.3).matrix(&TileGrid::POI360, roi.center);
        let f0 = enc.encode(SimTime::ZERO, roi, &matrix, &content, 3.0e6);
        assert!(f0.keyframe);
        let f1 = enc.encode(SimTime::from_millis(28), roi, &matrix, &content, 3.0e6);
        assert!(!f1.keyframe);
        assert!(f0.bytes > f1.bytes, "keyframe {} delta {}", f0.bytes, f1.bytes);
    }

    #[test]
    fn keyframe_request_honored_once() {
        let (mut enc, content, roi) = setup();
        let matrix = CompressionMode::geometric(1.3).matrix(&TileGrid::POI360, roi.center);
        enc.encode(SimTime::ZERO, roi, &matrix, &content, 3.0e6);
        enc.request_keyframe();
        let f = enc.encode(SimTime::from_millis(28), roi, &matrix, &content, 3.0e6);
        assert!(f.keyframe);
        let f2 = enc.encode(SimTime::from_millis(56), roi, &matrix, &content, 3.0e6);
        assert!(!f2.keyframe);
    }

    #[test]
    fn roi_quality_beats_periphery() {
        let (mut enc, content, roi) = setup();
        let rd = RdModel::default();
        let geo = enc.cfg.geometry;
        let matrix = CompressionMode::geometric(1.4).matrix(&TileGrid::POI360, roi.center);
        let f = enc.encode(SimTime::ZERO, roi, &matrix, &content, 3.0e6);
        let roi_psnr = f.region_psnr(&rd, &geo, roi.fov_tiles(&geo.grid, 1, 1));
        let far = TilePos::new((roi.center.i + 6) % 12, 7 - roi.center.j);
        let far_psnr = f.region_psnr(&rd, &geo, [far]);
        assert!(roi_psnr > far_psnr + 6.0, "roi {roi_psnr} dB vs far {far_psnr} dB");
    }

    /// Settle an encoder on a 3×3-tile ROI at `from` (`floor` elsewhere),
    /// then encode one frame with it at `to`, beside a twin cloned before
    /// that frame whose previous matrix is already `to`'s: the same frame,
    /// same jitter draw, nothing upgraded.
    fn roi_move(seed: u64, floor: f64, from: TilePos, to: TilePos) -> (EncodedFrame, EncodedFrame) {
        let grid = TileGrid::POI360;
        let mut enc = Encoder::new(EncoderConfig::default(), seed);
        let content = ContentModel::new(grid, seed);
        let mode = CompressionMode::two_level(1, 1, floor);
        let (m_from, m_to) = (mode.matrix(&grid, from), mode.matrix(&grid, to));
        let mut now = SimTime::ZERO;
        for _ in 0..20 {
            enc.encode(now, Roi::at_tile(&grid, from), &m_from, &content, 2.0e6);
            now += enc.cfg.frame_interval();
        }
        let mut twin = enc.clone();
        twin.last_matrix = Some(m_to.clone());
        let roi = Roi::at_tile(&grid, to);
        (
            enc.encode(now, roi, &m_to, &content, 2.0e6),
            twin.encode(now, roi, &m_to, &content, 2.0e6),
        )
    }

    #[test]
    fn roi_jump_forces_a_keyframe_burst() {
        // 9 tiles upgraded floor -> full: past the scene-change threshold.
        for seed in 0..64 {
            let (jump, twin) = roi_move(seed, 48.0, TilePos::new(2, 4), TilePos::new(8, 4));
            assert!(jump.keyframe && !twin.keyframe, "seed {seed}: jump is no keyframe");
            let ratio = jump.bytes as f64 / twin.bytes as f64;
            assert!(ratio > 0.9 * KEYFRAME_COST, "seed {seed}: keyframe burst x{ratio}");
        }
    }

    #[test]
    fn roi_step_pays_the_intra_upgrade_term() {
        // 3 tiles upgraded 16 -> 1: below the scene-change threshold, a delta frame
        // that pays for the upgraded pixels on top of its budget.
        for seed in 0..64 {
            let (step, twin) = roi_move(seed, 16.0, TilePos::new(2, 4), TilePos::new(3, 4));
            assert!(!step.keyframe, "seed {seed}: a one-tile step is a keyframe");
            let ratio = step.bytes as f64 / twin.bytes as f64;
            assert!(ratio > 1.2, "seed {seed}: intra burst x{ratio}");
        }
    }

    #[test]
    fn smooth_mode_bursts_less_than_crop_mode() {
        let grid = TileGrid::POI360;
        let content = ContentModel::new(grid, 7);
        let measure = |mode: CompressionMode| -> f64 {
            let mut enc =
                Encoder::new(EncoderConfig { rate_jitter_std: 0.0, ..Default::default() }, 7);
            let m_a = mode.matrix(&grid, TilePos::new(2, 4));
            let m_b = mode.matrix(&grid, TilePos::new(5, 4));
            let roi_a = Roi::at_tile(&grid, TilePos::new(2, 4));
            let roi_b = Roi::at_tile(&grid, TilePos::new(5, 4));
            let mut now = SimTime::ZERO;
            let mut steady = 0u32;
            for _ in 0..20 {
                steady = enc.encode(now, roi_a, &m_a, &content, 2.0e6).bytes;
                now += enc.cfg.frame_interval();
            }
            enc.encode(now, roi_b, &m_b, &content, 2.0e6).bytes as f64 / steady as f64
        };
        let crop_ratio = measure(CompressionMode::two_level(1, 1, 48.0));
        let smooth_ratio = measure(CompressionMode::geometric(1.2));
        assert!(
            crop_ratio > smooth_ratio,
            "crop burst {crop_ratio} vs smooth burst {smooth_ratio}"
        );
    }

    #[test]
    fn frame_numbers_are_monotonic() {
        let (mut enc, content, roi) = setup();
        let matrix = CompressionMode::geometric(1.3).matrix(&TileGrid::POI360, roi.center);
        for expect in 0..10 {
            let f = enc.encode(SimTime::from_millis(expect * 28), roi, &matrix, &content, 3e6);
            assert_eq!(f.frame_no, expect);
        }
    }

    #[test]
    fn tiles_cover_grid_and_bits_sum_to_frame() {
        let (mut enc, content, roi) = setup();
        let matrix = CompressionMode::geometric(1.3).matrix(&TileGrid::POI360, roi.center);
        let f = enc.encode(SimTime::ZERO, roi, &matrix, &content, 3e6);
        assert_eq!(f.tiles().len(), 96);
        let bits: f64 = f.tiles().map(|t| t.bits).sum();
        assert!((bits / 8.0 - f.bytes as f64).abs() < 1.5, "bits {bits} bytes {}", f.bytes);
    }
}
