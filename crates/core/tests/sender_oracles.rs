//! Oracles for the sender's exact fast paths: the one-pass encoder against
//! the three-pass encoder it replaced, and the seq-indexed rings that hold
//! the session's RTX history and frame store against the `BTreeMap`s they
//! replaced, under the operations the session performs on them.

use poi360_core::adaptive::AdaptiveCompression;
use poi360_core::config::CompressionScheme;
use poi360_core::policy::CompressionPolicy;
use poi360_core::ring::SeqRing;
use poi360_net::packet::{FrameTag, Packet};
use poi360_sim::rng::SimRng;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_testkit::{prop_assert, prop_assert_eq, prop_check};
use poi360_video::compression::CompressionMatrix;
use poi360_video::content::ContentModel;
use poi360_video::encoder::{EncodedFrame, EncodedTile, Encoder, EncoderConfig};
use poi360_video::roi::Roi;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------
// The encoder
// ---------------------------------------------------------------------

/// `Encoder::encode` as it was before its tile sums were fused: a
/// scene-change pass, `required_bits_per_frame`, a `shares` vector, and a
/// zip that emits the tiles, each walking `TileGrid::iter()`. Kept verbatim
/// (minus its recorder calls) as the oracle.
struct ThreePass {
    cfg: EncoderConfig,
    rng: SimRng,
    next_frame_no: u64,
    rate_debt_bits: f64,
    keyframe_requested: bool,
    last_matrix: Option<CompressionMatrix>,
    /// Lends its `required_bits_per_frame`; never encodes.
    required: Encoder,
}

impl ThreePass {
    fn new(cfg: EncoderConfig, seed: u64) -> Self {
        ThreePass {
            cfg,
            rng: SimRng::stream(seed, "video.encoder"),
            next_frame_no: 0,
            rate_debt_bits: 0.0,
            keyframe_requested: true,
            last_matrix: None,
            required: Encoder::new(cfg, seed),
        }
    }

    fn encode(
        &mut self,
        now: SimTime,
        sender_roi: Roi,
        matrix: &CompressionMatrix,
        content: &ContentModel,
        target_bitrate_bps: f64,
    ) -> EncodedFrame {
        let frame_no = self.next_frame_no;
        self.next_frame_no += 1;

        let geo_scene = &self.cfg.geometry;
        let tile_px_scene = geo_scene.tile_pixels() as f64;
        let mut upgraded_px = 0.0;
        let mut total_effective_px = 0.0;
        if let Some(prev) = &self.last_matrix {
            for pos in geo_scene.grid.iter() {
                let new_px = tile_px_scene / matrix.level(pos);
                let old_px = tile_px_scene / prev.level(pos);
                upgraded_px += (new_px - old_px).max(0.0) * content.weight(pos);
                total_effective_px += new_px;
            }
        }
        let scene_change = total_effective_px > 0.0
            && upgraded_px / total_effective_px > self.cfg.scene_change_threshold;

        let keyframe = self.keyframe_requested
            || scene_change
            || (self.cfg.keyframe_interval > 0
                && frame_no.is_multiple_of(self.cfg.keyframe_interval as u64));
        self.keyframe_requested = false;

        let per_frame = (target_bitrate_bps / self.cfg.fps).max(0.0);
        let mut budget =
            (per_frame - self.rate_debt_bits.max(0.0)).max(self.cfg.min_frame_bytes as f64 * 8.0);
        if keyframe {
            budget *= self.cfg.keyframe_cost;
        }

        let required = self.required.required_bits_per_frame(matrix, content);
        let mut spend_target =
            budget.min(if keyframe { required * self.cfg.keyframe_cost } else { required });
        if !keyframe {
            let quality_ratio =
                if required > 0.0 { (budget / required).clamp(0.05, 1.0) } else { 1.0 };
            spend_target += upgraded_px
                * self.cfg.full_quality_bpp
                * self.cfg.intra_upgrade_factor
                * quality_ratio;
        }
        self.last_matrix = Some(matrix.clone());

        let jitter = (self.rng.gaussian() * self.cfg.rate_jitter_std).exp();
        let spent = (spend_target * jitter).max(self.cfg.min_frame_bytes as f64 * 8.0);

        let steady_target = per_frame.min(required);
        self.rate_debt_bits = (self.rate_debt_bits + spent - steady_target)
            .clamp(-4.0 * per_frame.max(1.0), 4.0 * per_frame.max(1.0));

        let geo = &self.cfg.geometry;
        let tile_px = geo.tile_pixels() as f64;
        let shares: Vec<f64> = geo
            .grid
            .iter()
            .map(|pos| (tile_px / matrix.level(pos)) * content.weight(pos))
            .collect();
        let share_sum: f64 = shares.iter().sum();
        let tiles: Vec<EncodedTile> = geo
            .grid
            .iter()
            .zip(shares.iter())
            .map(|(pos, &share)| EncodedTile {
                level: matrix.level(pos),
                bits: spent * share / share_sum,
                weight: content.weight(pos),
            })
            .collect();

        EncodedFrame {
            frame_no,
            capture_time: now,
            bytes: (spent / 8.0).ceil() as u32,
            keyframe,
            sender_roi,
            matrix: matrix.clone(),
            tiles,
        }
    }
}

/// Every bit of two frames, floats compared by `to_bits`.
fn same_bits(a: &EncodedFrame, b: &EncodedFrame) -> bool {
    let bits = |t: &EncodedTile| (t.level.to_bits(), t.bits.to_bits(), t.weight.to_bits());
    (a.frame_no, a.capture_time, a.bytes, a.keyframe)
        == (b.frame_no, b.capture_time, b.bytes, b.keyframe)
        && a.sender_roi == b.sender_roi
        && a.matrix == b.matrix
        && a.tiles.iter().map(bits).eq(b.tiles.iter().map(bits))
}

/// The one-pass encoder and [`ThreePass`] encode the same frames to the
/// same bits — sizes, keyframe decisions and every tile's level, bits and
/// weight — and so leave the same rate debt and draw the same jitter. The
/// matrices come from every compression scheme's selector (Pano and Ghosh
/// modulation included) under wandering and jumping gaze and random
/// mismatch feedback, so modes switch; the content drifts every frame; the
/// target rate spans starved to saturated; keyframes come from the first
/// frame (which has no previous matrix), requests, a periodic interval and
/// scene changes. The test checks its cases reach scene-change keyframes and
/// delta frames.
#[test]
fn one_pass_encoder_matches_the_three_pass_encoder() {
    use CompressionScheme::*;
    let mut schemes = vec![Poi360, Conduit, Pyramid, Poi360Predictive, Pano, Ghosh];
    schemes.extend((1..=8).map(FixedMode));
    let (mut scene_cuts, mut deltas) = (0u64, 0u64);
    prop_check!(8, |g| {
        for &scheme in &schemes {
            let cfg = EncoderConfig {
                keyframe_interval: if g.chance(0.3) { g.u32_in(2, 90) } else { 0 },
                rate_jitter_std: g.f64_in(0.0, 0.3),
                ..Default::default()
            };
            let seed = g.any_u64();
            let mut rng = SimRng::from_seed(seed);
            let grid = cfg.geometry.grid;
            let mut policy = AdaptiveCompression::for_scheme(scheme);
            let mut content = ContentModel::new(grid, seed);
            let (mut fused, mut oracle) = (Encoder::new(cfg, seed), ThreePass::new(cfg, seed));
            let mut roi = Roi::front(&grid);
            for k in 0..200u64 {
                let now = SimTime::from_millis(k * 28);
                let (yaw, pitch) = if rng.chance(0.05) {
                    (rng.uniform_range(0.0, 360.0), rng.uniform_range(-80.0, 80.0))
                } else {
                    (roi.yaw_deg + rng.normal(0.0, 6.0), roi.pitch_deg)
                };
                roi = Roi::from_angles(&grid, yaw, pitch);
                // The selector's clock runs faster than the frames so that
                // its 2 s mode dwell lets modes switch within a case.
                let feedback_at = SimTime::from_millis(k * 250);
                policy.on_roi_feedback(feedback_at, &roi);
                if rng.chance(0.2) {
                    let m = SimDuration::from_millis(rng.below(1_800));
                    policy.on_mismatch_feedback(feedback_at, m);
                }
                let requested = rng.chance(0.03);
                if requested {
                    fused.request_keyframe();
                    oracle.keyframe_requested = true;
                }
                let matrix = policy.matrix(&grid, &roi);
                let target = 10f64.powf(rng.uniform_range(4.7, 7.3));
                let a = fused.encode(now, roi, &matrix, &content, target);
                let b = oracle.encode(now, roi, &matrix, &content, target);
                prop_assert!(same_bits(&a, &b), "{scheme:?} frame {k}: {a:?} vs {b:?}");
                let periodic = cfg.keyframe_interval > 0 && k % cfg.keyframe_interval as u64 == 0;
                scene_cuts += (a.keyframe && k > 0 && !requested && !periodic) as u64;
                deltas += !a.keyframe as u64;
                content.advance_frame();
            }
        }
        Ok(())
    });
    assert!(scene_cuts > 0 && deltas > 0, "{scene_cuts} scene-change keyframes, {deltas} deltas");
}

// ---------------------------------------------------------------------
// The rings
// ---------------------------------------------------------------------

/// The session's bounds: the RTX history and the frame store.
const RTX_HISTORY_PACKETS: usize = 4_000;
const FRAME_STORE_FRAMES: usize = 300;

/// Every held pair of the ring equals the map's, in key order.
fn same_entries<T: PartialEq>(ring: &SeqRing<T>, map: &BTreeMap<u64, T>) -> bool {
    ring.len() == map.len() && ring.iter().eq(map.iter().map(|(&k, v)| (k, v)))
}

fn packet(seq: u64, now: SimTime) -> Packet {
    Packet::video(
        seq,
        1_240,
        now,
        FrameTag { frame_no: seq / 4, index: (seq % 4) as u32, count: 4 },
    )
}

/// The RTX history as the session keeps it: every released packet is
/// inserted under its seq, and the map drops its smallest seq once it
/// holds more than 4 000. Fresh packets leave in seq order; NACKed ones
/// come back as retransmissions that overwrite their seq, both for seqs
/// still held and for seqs already evicted (the sender checks the history
/// when the NACK arrives, not when the retransmission leaves). Each case
/// releases well over 4 000 packets, and the test checks that both kinds
/// of retransmission occur.
#[test]
fn rtx_history_ring_matches_the_btreemap() {
    let (mut live, mut evicted) = (0u64, 0u64);
    prop_check!(16, |g| {
        let mut rng = SimRng::from_seed(g.any_u64());
        let burst = g.u64_in(2, 4);
        let mut ring = SeqRing::new(RTX_HISTORY_PACKETS);
        let mut map = BTreeMap::new();
        let mut next_seq = 0u64;
        for ms in 0..6_000u64 {
            let now = SimTime::from_millis(ms);
            let mut released = Vec::new();
            for _ in 0..rng.below(3) {
                if next_seq == 0 {
                    break;
                }
                let seq = if rng.chance(0.5) {
                    next_seq - 1 - rng.below(next_seq.min(RTX_HISTORY_PACKETS as u64))
                } else {
                    rng.below(next_seq)
                };
                released.push(Packet { retransmit: true, ..packet(seq, now) });
            }
            for _ in 0..rng.below(burst + 1) {
                released.push(packet(next_seq, now));
                next_seq += 1;
            }
            for pkt in released {
                if pkt.retransmit {
                    match map.first_key_value() {
                        Some((&lo, _)) if pkt.seq < lo => evicted += 1,
                        _ => live += 1,
                    }
                }
                ring.insert(pkt.seq, pkt.clone());
                map.insert(pkt.seq, pkt);
                if map.len() > RTX_HISTORY_PACKETS {
                    map.pop_first();
                }
            }
            let nacked = rng.below(next_seq + 2);
            prop_assert_eq!(ring.get(nacked), map.get(&nacked));
            prop_assert_eq!(ring.len(), map.len());
            if ms % 500 == 0 {
                prop_assert!(same_entries(&ring, &map), "at {ms} ms");
            }
        }
        prop_assert!(next_seq > 5_000, "only {next_seq} packets released");
        prop_assert!(same_entries(&ring, &map));
        Ok(())
    });
    assert!(live > 0 && evicted > 0, "{live} live and {evicted} evicted retransmissions");
}

/// The frame store as the session keeps it: every encoded frame is
/// inserted under its number, and the map drops its smallest number while
/// it holds more than 300. Frames are delivered a few out of order, or
/// abandoned, and some are never heard of again, so the store has holes.
/// Outages stop deliveries long enough to cross the bound, so eviction
/// runs with holes right behind the evicted frame. The test checks that
/// evictions step over holes.
#[test]
fn frame_store_ring_matches_the_btreemap() {
    let mut evictions_over_holes = 0u64;
    prop_check!(24, |g| {
        let mut rng = SimRng::from_seed(g.any_u64());
        let lost = g.f64_in(0.0, 0.1);
        let mut ring = SeqRing::new(FRAME_STORE_FRAMES);
        let mut map: BTreeMap<u64, u64> = BTreeMap::new();
        let mut never_scored = BTreeSet::new();
        let mut outage_until = 0u64;
        for frame_no in 0..3_000u64 {
            let value = frame_no.wrapping_mul(0x9e37_79b9);
            ring.insert(frame_no, value);
            map.insert(frame_no, value);
            while map.len() > FRAME_STORE_FRAMES {
                let (oldest, _) = map.pop_first().expect("over the bound");
                evictions_over_holes +=
                    map.first_key_value().is_some_and(|(&next, _)| next > oldest + 1) as u64;
            }
            if rng.chance(lost) {
                never_scored.insert(frame_no);
            }
            if frame_no >= outage_until && rng.chance(0.005) {
                outage_until = frame_no + 200 + rng.below(400);
            }
            if frame_no < outage_until {
                continue;
            }
            // Deliver up to three of the oldest scorable frames, any of the
            // first few; now and then abandon a random frame, held or not.
            for _ in 0..rng.below(4) {
                let pick = rng.below(3) as usize;
                let Some(&no) = map.keys().filter(|no| !never_scored.contains(no)).nth(pick) else {
                    break;
                };
                prop_assert_eq!(ring.remove(no), map.remove(&no));
            }
            if rng.chance(0.05) {
                let no = rng.below(frame_no + 2);
                prop_assert_eq!(ring.remove(no), map.remove(&no));
            }
            prop_assert_eq!(ring.len(), map.len());
            if frame_no % 50 == 0 {
                prop_assert!(same_entries(&ring, &map), "after frame {frame_no}");
            }
        }
        prop_assert!(same_entries(&ring, &map));
        Ok(())
    });
    assert!(evictions_over_holes > 0, "no eviction stepped over a hole");
}

/// Arbitrary inserts, removes and lookups on a small window of keys and a
/// small bound reach the branches the session never takes — a key below
/// every held key inserted into a ring that is not full, gaps opened
/// ahead of the last key — and the ring still answers as the map does.
#[test]
fn seq_ring_matches_the_btreemap_on_arbitrary_operations() {
    prop_check!(128, |g| {
        let cap = g.usize_in(1, 16);
        let mut ring = SeqRing::new(cap);
        let mut map = BTreeMap::new();
        for step in 0..g.usize_in(1, 300) {
            let key = g.u64_in(0, 40);
            match g.index(3) {
                0 => {
                    ring.insert(key, step);
                    map.insert(key, step);
                    while map.len() > cap {
                        map.pop_first();
                    }
                }
                1 => prop_assert_eq!(ring.remove(key), map.remove(&key)),
                _ => prop_assert_eq!(ring.get(key), map.get(&key)),
            }
            prop_assert!(same_entries(&ring, &map), "after step {step}");
            prop_assert_eq!(ring.is_empty(), map.is_empty());
        }
        Ok(())
    });
}
