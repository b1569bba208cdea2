//! Session and experiment configuration.

use poi360_lte::scenario::Scenario;
use poi360_sim::time::SimDuration;
use poi360_viewport::motion::UserArchetype;

/// Which spatial compression scheme the sender runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CompressionScheme {
    /// POI360's adaptive compression (§4.2).
    Poi360,
    /// Conduit baseline: two-level ROI crop.
    Conduit,
    /// Pyramid baseline: fixed smooth falloff.
    Pyramid,
    /// §8 extension: POI360 with sender-side linear ROI prediction.
    Poi360Predictive,
    /// Ablation: POI360 pinned to one of its eight modes (1 = most
    /// aggressive, 8 = most conservative), adaptation disabled.
    FixedMode(u8),
    /// Related work: POI360's mode selector modulated by Pano-style
    /// per-tile quality-sensitivity weights (`video::perceptual`).
    Pano,
    /// Related work: Ghosh-style per-tile bitrate optimization over the
    /// mode selector's budget (`video::perceptual`).
    Ghosh,
}

impl CompressionScheme {
    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            CompressionScheme::Poi360 => "POI360",
            CompressionScheme::Conduit => "Conduit",
            CompressionScheme::Pyramid => "Pyramid",
            CompressionScheme::Poi360Predictive => "POI360+pred",
            CompressionScheme::FixedMode(1) => "F1(C=1.8)",
            CompressionScheme::FixedMode(2) => "F2(C=1.7)",
            CompressionScheme::FixedMode(3) => "F3(C=1.6)",
            CompressionScheme::FixedMode(4) => "F4(C=1.5)",
            CompressionScheme::FixedMode(5) => "F5(C=1.4)",
            CompressionScheme::FixedMode(6) => "F6(C=1.3)",
            CompressionScheme::FixedMode(7) => "F7(C=1.2)",
            CompressionScheme::FixedMode(_) => "F8(C=1.1)",
            CompressionScheme::Pano => "Pano",
            CompressionScheme::Ghosh => "Ghosh",
        }
    }

    /// The three schemes the paper compares.
    pub fn all() -> [CompressionScheme; 3] {
        [CompressionScheme::Poi360, CompressionScheme::Conduit, CompressionScheme::Pyramid]
    }
}

/// Which rate control the sender runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RateControlKind {
    /// WebRTC's stock Google Congestion Control.
    Gcc,
    /// POI360's firmware-buffer-aware control on top of GCC.
    Fbcc,
    /// Related work: OCC-style PHY-assisted control driven entirely by
    /// the diag plane's grant/backlog observables.
    Occ,
}

impl RateControlKind {
    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            RateControlKind::Gcc => "GCC",
            RateControlKind::Fbcc => "FBCC",
            RateControlKind::Occ => "OCC",
        }
    }
}

/// Which access network carries the session uplink.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetworkKind {
    /// LTE cellular uplink under a field scenario.
    Cellular(Scenario),
    /// §8 extension: cellular uplink with mobile-edge relaying — traffic
    /// turns around at the edge base station instead of crossing the
    /// Internet, shortening both the media and the feedback path.
    CellularEdge(Scenario),
    /// Campus wireline (the paper's control condition).
    Wireline,
}

impl NetworkKind {
    /// Label used in reports.
    pub fn label(&self) -> String {
        match self {
            NetworkKind::Cellular(s) => format!("cellular[{}]", s.label()),
            NetworkKind::CellularEdge(s) => format!("edge-cellular[{}]", s.label()),
            NetworkKind::Wireline => "wireline".to_string(),
        }
    }
}

/// Full configuration of one telephony session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionConfig {
    /// Spatial compression scheme.
    pub scheme: CompressionScheme,
    /// Rate control.
    pub rate_control: RateControlKind,
    /// Access network.
    pub network: NetworkKind,
    /// Viewer behaviour.
    pub user: UserArchetype,
    /// Session length.
    pub duration: SimDuration,
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Fixed processing latency outside the network: camera capture,
    /// canvas composition, VP8 encode, decode, WebGL render, display —
    /// the browser-pipeline cost the paper's end-to-end numbers include.
    pub pipeline_delay: SimDuration,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            scheme: CompressionScheme::Poi360,
            rate_control: RateControlKind::Fbcc,
            network: NetworkKind::Cellular(Scenario::baseline()),
            user: UserArchetype::EventDriven,
            duration: SimDuration::from_secs(60),
            seed: 1,
            pipeline_delay: SimDuration::from_millis(240),
        }
    }
}

impl SessionConfig {
    /// Compact label for reports.
    pub fn label(&self) -> String {
        format!(
            "{}+{} over {} ({} user, {:.0}s, seed {})",
            self.scheme.label(),
            self.rate_control.label(),
            self.network.label(),
            self.user.label(),
            self.duration.as_secs_f64(),
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        let cfg = SessionConfig::default();
        let label = cfg.label();
        assert!(label.contains("POI360"));
        assert!(label.contains("FBCC"));
        assert!(label.contains("cellular"));
    }

    #[test]
    fn all_schemes_enumerated() {
        let labels: Vec<&str> = CompressionScheme::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["POI360", "Conduit", "Pyramid"]);
    }

    #[test]
    fn wireline_label() {
        assert_eq!(NetworkKind::Wireline.label(), "wireline");
    }
}
