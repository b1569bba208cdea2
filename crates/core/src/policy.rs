//! The spatial-compression policy interface.
//!
//! A policy decides, each frame, how encoding quality is distributed across
//! the panorama given the sender's (possibly stale) ROI knowledge, the
//! client's ROI-mismatch-time feedback and its raw ROI reports.
//! [`crate::adaptive::AdaptiveCompression`] is the one implementor: every
//! `CompressionScheme` is a configuration of it.

use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;
use poi360_video::compression::CompressionMatrix;
use poi360_video::frame::TileGrid;
use poi360_video::roi::Roi;

/// A spatial compression policy.
pub trait CompressionPolicy: Send {
    /// Attach the session's probe recorder.
    fn set_recorder(&mut self, rec: &Recorder);

    /// Build the compression matrix for the next frame, given the sender's
    /// current knowledge of the viewer ROI.
    fn matrix(&mut self, grid: &TileGrid, sender_roi: &Roi) -> CompressionMatrix;

    /// Receive the client's averaged ROI-mismatch-time feedback `M`.
    fn on_mismatch_feedback(&mut self, now: SimTime, m: SimDuration);

    /// Receive a raw ROI feedback sample (feeds ROI prediction).
    fn on_roi_feedback(&mut self, now: SimTime, roi: &Roi);
}
