//! The spatial-compression policy interface.
//!
//! A policy decides, each frame, how encoding quality is distributed across
//! the panorama given the sender's (possibly stale) ROI knowledge. POI360's
//! adaptive scheme additionally consumes the client's ROI-mismatch-time
//! feedback; the baselines ignore it.

use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;
use poi360_video::compression::CompressionMatrix;
use poi360_video::frame::TileGrid;
use poi360_video::roi::Roi;

/// A spatial compression policy.
pub trait CompressionPolicy: Send {
    /// Attach the session's probe recorder (default: ignore it; baselines
    /// make no decisions worth tracing).
    fn set_recorder(&mut self, _rec: &Recorder) {}

    /// Build the compression matrix for the next frame, given the sender's
    /// current knowledge of the viewer ROI.
    fn matrix(&mut self, grid: &TileGrid, sender_roi: &Roi) -> CompressionMatrix;

    /// Receive the client's averaged ROI-mismatch-time feedback `M`
    /// (ignored by fixed-mode baselines).
    fn on_mismatch_feedback(&mut self, _now: SimTime, _m: SimDuration) {}

    /// Receive a raw ROI feedback sample (used by predictive policies to
    /// build a motion model; default no-op).
    fn on_roi_feedback(&mut self, _now: SimTime, _roi: &Roi) {}

    /// The mode index currently in use, 1-based, if the policy has discrete
    /// modes (diagnostics; POI360 reports `i_m ∈ 1..=8`).
    fn mode_index(&self) -> Option<usize> {
        None
    }
}
