//! Per-session measurement record and cross-session aggregation.
//!
//! A [`SessionReport`] is everything the paper's figures need from one
//! session; [`Aggregate`] pools reports across users/repetitions the way
//! §6 aggregates its 5-user × 10-repetition runs.

use poi360_metrics::dist::Summary;
use poi360_metrics::freeze::FreezeStats;
use poi360_metrics::mos::MosPdf;
use poi360_sim::json::{JsonObject, ToJson};
use poi360_sim::series::TimeSeries;
use poi360_sim::time::SimDuration;

/// Everything measured in one session.
#[derive(Clone, Debug, Default)]
pub struct SessionReport {
    /// Session label (scheme, rate control, network, user, seed).
    pub label: String,
    /// Frames the encoder produced.
    pub frames_sent: u64,
    /// Frames fully delivered to the viewer.
    pub frames_delivered: u64,
    /// Frames abandoned (never displayable).
    pub frames_lost: u64,
    /// Per-frame delivery delays and freeze bookkeeping.
    pub freeze: FreezeStats,
    /// Per-delivered-frame user-perceived ROI PSNR (dB), staleness included.
    pub roi_psnr_db: Vec<f64>,
    /// Displayed compression level at the viewer's gaze tile, per frame.
    pub roi_level: TimeSeries,
    /// Client-measured ROI mismatch time M (ms), per frame.
    pub mismatch_ms: TimeSeries,
    /// Firmware buffer level (bytes) per diag epoch (cellular only).
    pub fw_buffer: TimeSeries,
    /// PHY throughput (bps) per diag epoch (cellular only).
    pub phy_rate: TimeSeries,
    /// Encoder target rate R_v (bps), per frame.
    pub video_rate: TimeSeries,
    /// Pacer rate R_rtp (bps), per frame.
    pub rtp_rate: TimeSeries,
    /// Received video throughput (bps), per second.
    pub throughput: TimeSeries,
    /// Uplink congestion detections (FBCC only).
    pub uplink_detections: u64,
    /// Packets dropped at the firmware buffer / link.
    pub packets_dropped: u64,
}

impl SessionReport {
    /// Mean ROI PSNR over delivered frames.
    pub fn mean_psnr_db(&self) -> f64 {
        Summary::of(&self.roi_psnr_db).mean
    }

    /// PSNR standard deviation.
    pub fn psnr_std_db(&self) -> f64 {
        Summary::of(&self.roi_psnr_db).std
    }

    /// MOS PDF over delivered frames.
    pub fn mos(&self) -> MosPdf {
        MosPdf::from_psnrs(self.roi_psnr_db.iter().copied())
    }

    /// Freeze ratio (lost frames count as frozen).
    pub fn freeze_ratio(&self) -> f64 {
        self.freeze.freeze_ratio().unwrap_or(0.0)
    }

    /// Median delivered frame delay in ms.
    pub fn median_delay_ms(&self) -> f64 {
        self.freeze.median_delay_ms().unwrap_or(0.0)
    }

    /// Mean received throughput in bps.
    pub fn mean_throughput_bps(&self) -> f64 {
        self.throughput.mean().unwrap_or(0.0)
    }

    /// Throughput standard deviation in bps.
    pub fn throughput_std_bps(&self) -> f64 {
        self.throughput.std().unwrap_or(0.0)
    }

    /// Short-term ROI compression-level variation: the std of the displayed
    /// level over 2 s sliding windows (paper Fig. 12).
    pub fn roi_level_sliding_std(&self) -> Vec<f64> {
        self.roi_level.sliding_window_std(SimDuration::from_secs(2), SimDuration::from_millis(500))
    }
}

impl ToJson for SessionReport {
    /// Serializes the complete per-session record, field for field, in a
    /// fixed order — two runs of the same seed must produce byte-identical
    /// JSON (asserted by `tests/determinism.rs`).
    fn write_json(&self, out: &mut String) {
        JsonObject::new()
            .field("label", &self.label)
            .field("frames_sent", &self.frames_sent)
            .field("frames_delivered", &self.frames_delivered)
            .field("frames_lost", &self.frames_lost)
            .field("freeze", &self.freeze)
            .field("roi_psnr_db", &self.roi_psnr_db)
            .field("roi_level", &self.roi_level)
            .field("mismatch_ms", &self.mismatch_ms)
            .field("fw_buffer", &self.fw_buffer)
            .field("phy_rate", &self.phy_rate)
            .field("video_rate", &self.video_rate)
            .field("rtp_rate", &self.rtp_rate)
            .field("throughput", &self.throughput)
            .field("uplink_detections", &self.uplink_detections)
            .field("packets_dropped", &self.packets_dropped)
            .write(out);
    }
}

/// Pooled statistics across sessions (users × repetitions).
#[derive(Clone, Debug, Default)]
pub struct Aggregate {
    /// Condition label.
    pub label: String,
    /// Session reports pooled into this aggregate.
    pub sessions: usize,
    /// All per-frame ROI PSNRs.
    pub roi_psnr_db: Vec<f64>,
    /// All per-frame delays.
    pub freeze: FreezeStats,
    /// All sliding-window level stds (Fig. 12 samples).
    pub level_stds: Vec<f64>,
    /// All per-frame M values (ms).
    pub mismatch_ms: Vec<f64>,
    /// All fw-buffer samples (bytes).
    pub fw_buffer: Vec<f64>,
    /// All (buffer, phy rate) pairs per diag epoch.
    pub buffer_rate_pairs: Vec<(f64, f64)>,
    /// Per-session mean throughputs.
    pub session_throughputs: Vec<f64>,
    /// Pooled per-second throughput samples.
    pub throughput_samples: Vec<f64>,
}

impl Aggregate {
    /// Start an aggregate with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Aggregate { label: label.into(), ..Default::default() }
    }

    /// Fold one session in.
    pub fn add(&mut self, report: &SessionReport) {
        self.sessions += 1;
        self.roi_psnr_db.extend_from_slice(&report.roi_psnr_db);
        self.freeze.merge(&report.freeze);
        self.level_stds.extend(report.roi_level_sliding_std());
        self.mismatch_ms.extend(report.mismatch_ms.values());
        self.fw_buffer.extend(report.fw_buffer.values());
        let rates = report.phy_rate.values();
        for (k, b) in report.fw_buffer.values().iter().enumerate() {
            if let Some(r) = rates.get(k) {
                self.buffer_rate_pairs.push((*b, *r));
            }
        }
        self.session_throughputs.push(report.mean_throughput_bps());
        self.throughput_samples.extend(report.throughput.values());
    }

    /// Append another pool's samples after this one's, so merging pools
    /// in session order equals [`Aggregate::add`]ing their sessions in
    /// that order, sample for sample.
    pub fn merge(&mut self, other: &Aggregate) {
        self.sessions += other.sessions;
        self.roi_psnr_db.extend_from_slice(&other.roi_psnr_db);
        self.freeze.merge(&other.freeze);
        self.level_stds.extend_from_slice(&other.level_stds);
        self.mismatch_ms.extend_from_slice(&other.mismatch_ms);
        self.fw_buffer.extend_from_slice(&other.fw_buffer);
        self.buffer_rate_pairs.extend_from_slice(&other.buffer_rate_pairs);
        self.session_throughputs.extend_from_slice(&other.session_throughputs);
        self.throughput_samples.extend_from_slice(&other.throughput_samples);
    }

    /// Mean ROI PSNR.
    pub fn mean_psnr_db(&self) -> f64 {
        Summary::of(&self.roi_psnr_db).mean
    }

    /// ROI PSNR std.
    pub fn psnr_std_db(&self) -> f64 {
        Summary::of(&self.roi_psnr_db).std
    }

    /// Pooled MOS PDF.
    pub fn mos(&self) -> MosPdf {
        MosPdf::from_psnrs(self.roi_psnr_db.iter().copied())
    }

    /// Pooled freeze ratio.
    pub fn freeze_ratio(&self) -> f64 {
        self.freeze.freeze_ratio().unwrap_or(0.0)
    }

    /// Pooled median frame delay (ms).
    pub fn median_delay_ms(&self) -> f64 {
        self.freeze.median_delay_ms().unwrap_or(0.0)
    }

    /// Mean of the Fig. 12 level-std samples.
    pub fn mean_level_std(&self) -> f64 {
        Summary::of(&self.level_stds).mean
    }

    /// Mean throughput across sessions (bps).
    pub fn mean_throughput_bps(&self) -> f64 {
        Summary::of(&self.session_throughputs).mean
    }

    /// Std of the pooled per-second throughput samples (bps).
    pub fn throughput_std_bps(&self) -> f64 {
        Summary::of(&self.throughput_samples).std
    }

    /// Fraction of fw-buffer samples at (near) zero — paper Fig. 6's
    /// headline number.
    pub fn buffer_empty_fraction(&self) -> f64 {
        if self.fw_buffer.is_empty() {
            return 0.0;
        }
        self.fw_buffer.iter().filter(|&&b| b < 1.0).count() as f64 / self.fw_buffer.len() as f64
    }
}

impl ToJson for Aggregate {
    /// Serializes the headline reductions rather than the raw pools: the
    /// bench runner wants comparable condition-level numbers, not megabytes
    /// of per-frame samples.
    fn write_json(&self, out: &mut String) {
        JsonObject::new()
            .field("label", &self.label)
            .field("sessions", &self.sessions)
            .field("frames", &self.roi_psnr_db.len())
            .field("mean_psnr_db", &self.mean_psnr_db())
            .field("psnr_std_db", &self.psnr_std_db())
            .field("freeze_ratio", &self.freeze_ratio())
            .field("median_delay_ms", &self.median_delay_ms())
            .field("mean_level_std", &self.mean_level_std())
            .field("mean_throughput_bps", &self.mean_throughput_bps())
            .field("throughput_std_bps", &self.throughput_std_bps())
            .field("buffer_empty_fraction", &self.buffer_empty_fraction())
            .field("mos_counts", &self.mos())
            .write(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_sim::time::SimTime;

    fn toy_report(psnrs: &[f64]) -> SessionReport {
        let mut r = SessionReport { label: "toy".into(), ..Default::default() };
        r.roi_psnr_db = psnrs.to_vec();
        for (k, _) in psnrs.iter().enumerate() {
            r.freeze.record(SimDuration::from_millis(100 + k as u64));
            r.roi_level.push(SimTime::from_millis(k as u64 * 28), 1.0);
            r.throughput.push(SimTime::from_secs(k as u64), 3.0e6);
        }
        r
    }

    #[test]
    fn report_reductions() {
        let r = toy_report(&[40.0, 35.0, 30.0]);
        assert!((r.mean_psnr_db() - 35.0).abs() < 1e-9);
        assert_eq!(r.freeze_ratio(), 0.0);
        assert_eq!(r.median_delay_ms(), 101.0);
        assert!((r.mean_throughput_bps() - 3.0e6).abs() < 1.0);
        let mos = r.mos();
        assert_eq!(mos.total(), 3);
    }

    #[test]
    fn aggregate_pools_sessions() {
        let mut agg = Aggregate::new("pool");
        agg.add(&toy_report(&[40.0, 40.0]));
        agg.add(&toy_report(&[20.0, 20.0]));
        assert_eq!(agg.sessions, 2);
        assert_eq!(agg.roi_psnr_db.len(), 4);
        assert!((agg.mean_psnr_db() - 30.0).abs() < 1e-9);
        assert_eq!(agg.freeze.delivered(), 4);
    }

    #[test]
    fn merging_pools_in_order_equals_adding_their_sessions() {
        let reports = [toy_report(&[40.0, 31.0]), toy_report(&[20.0]), toy_report(&[35.0, 28.0])];
        let mut whole = Aggregate::new("pool");
        reports.iter().for_each(|r| whole.add(r));
        let (mut head, mut tail) = (Aggregate::new("pool"), Aggregate::new("tail"));
        head.add(&reports[0]);
        tail.add(&reports[1]);
        tail.add(&reports[2]);
        head.merge(&tail);
        assert_eq!(format!("{head:?}"), format!("{whole:?}"));
    }

    #[test]
    fn empty_aggregate_is_safe() {
        let agg = Aggregate::new("empty");
        assert_eq!(agg.mean_psnr_db(), 0.0);
        assert_eq!(agg.freeze_ratio(), 0.0);
        assert_eq!(agg.buffer_empty_fraction(), 0.0);
    }

    #[test]
    fn buffer_empty_fraction_counts_zeros() {
        let mut agg = Aggregate::new("buf");
        let mut r = SessionReport::default();
        for (k, v) in [0.0, 0.0, 5_000.0, 9_000.0].iter().enumerate() {
            r.fw_buffer.push(SimTime::from_millis(k as u64 * 40), *v);
            r.phy_rate.push(SimTime::from_millis(k as u64 * 40), 1e6);
        }
        agg.add(&r);
        assert_eq!(agg.buffer_empty_fraction(), 0.5);
        assert_eq!(agg.buffer_rate_pairs.len(), 4);
    }
}
