//! 360° video substrate for the POI360 reproduction.
//!
//! The paper streams live 4K equirectangular video, spatially segmented into
//! 12×8 tiles which are compressed individually based on their distance to
//! the viewer's region of interest (ROI) — paper §4.1 and Fig. 8. This crate
//! models that pipeline at the rate–distortion level:
//!
//! * [`frame`] — frame geometry: the 4K equirectangular canvas and the
//!   12×8 [`frame::TileGrid`].
//! * [`roi`] — ROI coordinates and the cyclic (yaw wraps) tile distance.
//! * [`compression`] — compression levels `l_ij = C^(dx+dy)` (paper Eq. 1),
//!   the compression matrix, and the K pre-defined compression modes.
//! * [`content`] — synthetic per-tile texture complexity evolving over time;
//!   this substitutes for the paper's real camera feed.
//! * [`perceptual`] — related-work tile policies: Pano-style
//!   quality-sensitivity weighting and Ghosh-style tile-rate allocation,
//!   both expressed as modulations of a base compression matrix.
//! * [`rd`] — the rate–distortion model translating per-tile bits and
//!   compression level into MSE/PSNR.
//! * [`encoder`] — the frame-level encoder: allocates a bitrate budget
//!   across tiles, applies the R-D model, and emits [`encoder::EncodedFrame`]s
//!   that embed the compression matrix and the sender's ROI knowledge
//!   exactly as the paper's prototype embeds them in the canvas (§5).
//!
//! A real VP8 encoder is *not* implemented: every evaluation metric in the
//! paper (ROI PSNR, MOS, compression-level stability, frame delay, freeze
//! ratio) depends only on how many bits each tile gets and at what spatial
//! level it was encoded, which is exactly what the R-D model captures. This
//! substitution is recorded in DESIGN.md §6. The paper's colour-block
//! timestamp codec (§5) is not modelled either: frame delay is read off the
//! global simulation clock.

pub mod compression;
pub mod content;
pub mod encoder;
pub mod frame;
pub mod perceptual;
pub mod rd;
pub mod roi;

pub use compression::{CompressionMatrix, CompressionMode};
pub use content::ContentModel;
pub use encoder::{EncodedFrame, Encoder, EncoderConfig};
pub use frame::{FrameGeometry, TileGrid, TilePos};
pub use perceptual::SensitivityMap;
pub use rd::RdModel;
pub use roi::Roi;
