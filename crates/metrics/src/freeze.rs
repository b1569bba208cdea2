//! Frame-delay bookkeeping and the freeze-ratio metric.
//!
//! The paper defines the freezing ratio as "the percentage of video frames
//! that experience higher than 600 ms delay" (§6.1.1) and calls it "the
//! most crucial user experience metric".

use poi360_sim::json::{JsonObject, ToJson};
use poi360_sim::time::SimDuration;

/// The paper's freeze threshold.
pub const FREEZE_THRESHOLD: SimDuration = SimDuration::from_millis(600);

/// Accumulates per-frame delays and reduces them to delay/freeze metrics.
#[derive(Clone, Debug, Default)]
pub struct FreezeStats {
    delays_ms: Vec<f64>,
    /// Frames that never arrived (counted as frozen).
    lost: u64,
}

impl FreezeStats {
    /// Record a delivered frame's end-to-end delay.
    pub fn record(&mut self, delay: SimDuration) {
        self.delays_ms.push(delay.as_micros() as f64 / 1e3);
    }

    /// Record a frame that was never delivered (it froze the display).
    pub fn record_lost(&mut self) {
        self.lost += 1;
    }

    /// All recorded delays in milliseconds.
    pub fn delays_ms(&self) -> &[f64] {
        &self.delays_ms
    }

    /// Freeze ratio: fraction of frames delayed beyond the threshold,
    /// counting lost frames as frozen. `None` before any frame.
    pub fn freeze_ratio(&self) -> Option<f64> {
        let total = self.delays_ms.len() as u64 + self.lost;
        if total == 0 {
            return None;
        }
        let threshold_ms = FREEZE_THRESHOLD.as_micros() as f64 / 1e3;
        let frozen =
            self.delays_ms.iter().filter(|&&d| d > threshold_ms).count() as u64 + self.lost;
        Some(frozen as f64 / total as f64)
    }

    /// Median delivered delay in ms.
    pub fn median_delay_ms(&self) -> Option<f64> {
        crate::dist::median(&self.delays_ms)
    }

    /// Merge stats from another session, growing the pooled delays by
    /// exactly what they append.
    pub fn merge(&mut self, other: &FreezeStats) {
        self.delays_ms.reserve_exact(other.delays_ms.len());
        self.delays_ms.extend_from_slice(&other.delays_ms);
        self.lost += other.lost;
    }

    /// Drop the delays' spare capacity, for stats that outlive their run.
    pub fn shrink_to_fit(&mut self) {
        self.delays_ms.shrink_to_fit();
    }
}

impl ToJson for FreezeStats {
    fn write_json(&self, out: &mut String) {
        JsonObject::new().field("delays_ms", &self.delays_ms).field("lost", &self.lost).write(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn empty_has_no_ratio() {
        assert_eq!(FreezeStats::default().freeze_ratio(), None);
    }

    #[test]
    fn threshold_is_600ms_exclusive() {
        let mut s = FreezeStats::default();
        s.record(ms(600)); // exactly 600 is NOT a freeze ("higher than")
        s.record(ms(601));
        assert_eq!(s.freeze_ratio(), Some(0.5));
    }

    #[test]
    fn counts_fractions() {
        let mut s = FreezeStats::default();
        for d in [100u64, 200, 300, 700] {
            s.record(ms(d));
        }
        assert_eq!(s.freeze_ratio(), Some(0.25));
        assert_eq!(s.median_delay_ms(), Some(250.0));
    }

    #[test]
    fn lost_frames_count_as_frozen() {
        let mut s = FreezeStats::default();
        s.record(ms(100));
        s.record_lost();
        assert_eq!(s.freeze_ratio(), Some(0.5));
        assert_eq!(s.delays_ms().len(), 1);
    }

    #[test]
    fn merge_pools_sessions() {
        let mut a = FreezeStats::default();
        a.record(ms(100));
        let mut b = FreezeStats::default();
        b.record(ms(900));
        b.record_lost();
        a.merge(&b);
        assert_eq!(a.delays_ms().len(), 2);
        assert_eq!(a.freeze_ratio(), Some(2.0 / 3.0));
    }
}
