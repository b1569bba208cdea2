//! Time-series recording for the measurement plane.
//!
//! Every experiment records `(SimTime, f64)` samples — buffer levels,
//! per-frame PSNR, throughput — and later reduces them to the statistics a
//! figure needs. [`TimeSeries`] is deliberately simple: an append-only vector
//! with reduction helpers, kept in `poi360-sim` so all crates share one
//! representation.

use crate::time::{SimDuration, SimTime};

/// Error returned by [`TimeSeries::try_push`] when a sample would land
/// before the series' current tail. Carries both timestamps so callers can
/// log or count the rejection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfOrderSample {
    /// Timestamp of the newest sample already in the series.
    pub last: SimTime,
    /// Timestamp of the rejected sample.
    pub rejected: SimTime,
}

impl std::fmt::Display for OutOfOrderSample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out-of-order sample at {} us (series tail is at {} us)",
            self.rejected.as_micros(),
            self.last.as_micros()
        )
    }
}

/// An append-only series of timestamped scalar samples.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Create an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty series with room for `cap` samples.
    pub fn with_capacity(cap: usize) -> Self {
        TimeSeries { samples: Vec::with_capacity(cap) }
    }

    /// Append a sample. Timestamps are expected to be non-decreasing; this is
    /// asserted in debug builds because out-of-order samples would corrupt
    /// windowed reductions silently. Callers that cannot statically guarantee
    /// ordering should use [`TimeSeries::try_push`] instead.
    pub fn push(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.samples.last().is_none_or(|&(t, _)| t <= at),
            "samples must be pushed in chronological order"
        );
        self.samples.push((at, value));
    }

    /// Append a sample, rejecting it with [`OutOfOrderSample`] if it would
    /// land before the current tail. Unlike [`TimeSeries::push`], the check
    /// runs in release builds too, so a misbehaving producer cannot silently
    /// corrupt windowed reductions. The instrumentation plane
    /// ([`crate::trace`]) routes every gauge sample through this.
    pub fn try_push(&mut self, at: SimTime, value: f64) -> Result<(), OutOfOrderSample> {
        if let Some(&(last, _)) = self.samples.last() {
            if at < last {
                return Err(OutOfOrderSample { last, rejected: at });
            }
        }
        self.samples.push((at, value));
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterate over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// The raw values, discarding timestamps.
    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, v)| v).collect()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|&(_, v)| v).sum::<f64>() / self.samples.len() as f64)
    }

    /// Population standard deviation, or `None` when empty.
    pub fn std(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self.samples.iter().map(|&(_, v)| (v - mean).powi(2)).sum::<f64>()
            / self.samples.len() as f64;
        Some(var.sqrt())
    }

    /// Minimum value, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Maximum value, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Last sample, or `None` when empty.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.samples.last().copied()
    }

    /// Reduce to per-window means over fixed, aligned windows of `width`.
    /// Empty windows are skipped. Each output point is stamped with the
    /// window start.
    pub fn window_means(&self, width: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!width.is_zero());
        let mut out = Vec::new();
        let mut idx = 0;
        while idx < self.samples.len() {
            let window_no = self.samples[idx].0.as_micros() / width.as_micros();
            let window_start = SimTime::from_micros(window_no * width.as_micros());
            let window_end = window_start + width;
            let mut sum = 0.0;
            let mut n = 0u64;
            while idx < self.samples.len() && self.samples[idx].0 < window_end {
                sum += self.samples[idx].1;
                n += 1;
                idx += 1;
            }
            out.push((window_start, sum / n as f64));
        }
        out
    }

    /// Standard deviation of the values inside each sliding window of
    /// `width`, advanced by `stride`. Used for the paper's Fig. 12
    /// ("std of ROI compression level in a 2 s sliding window").
    pub fn sliding_window_std(&self, width: SimDuration, stride: SimDuration) -> Vec<f64> {
        assert!(!width.is_zero() && !stride.is_zero());
        if self.samples.is_empty() {
            return Vec::new();
        }
        let end = self.samples.last().unwrap().0;
        let mut out = Vec::new();
        let mut start = self.samples[0].0;
        let mut lo = 0usize;
        while start + width <= end + SimDuration::from_micros(1) {
            let stop = start + width;
            while lo < self.samples.len() && self.samples[lo].0 < start {
                lo += 1;
            }
            let mut hi = lo;
            while hi < self.samples.len() && self.samples[hi].0 < stop {
                hi += 1;
            }
            let window = &self.samples[lo..hi];
            if window.len() >= 2 {
                let mean = window.iter().map(|&(_, v)| v).sum::<f64>() / window.len() as f64;
                let var = window.iter().map(|&(_, v)| (v - mean).powi(2)).sum::<f64>()
                    / window.len() as f64;
                out.push(var.sqrt());
            }
            start += stride;
        }
        out
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    fn from_iter<T: IntoIterator<Item = (SimTime, f64)>>(iter: T) -> Self {
        let mut s = TimeSeries::new();
        for (t, v) in iter {
            s.push(t, v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[(u64, f64)]) -> TimeSeries {
        values.iter().map(|&(ms, v)| (SimTime::from_millis(ms), v)).collect()
    }

    #[test]
    fn basic_statistics() {
        let s = series(&[(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        let std = s.std().unwrap();
        assert!((std - 1.118).abs() < 1e-3);
    }

    #[test]
    fn empty_series_yields_none() {
        let s = TimeSeries::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.std(), None);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn window_means_align_to_grid() {
        let s = series(&[(0, 1.0), (5, 3.0), (10, 10.0), (14, 20.0), (30, 7.0)]);
        let w = s.window_means(SimDuration::from_millis(10));
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], (SimTime::ZERO, 2.0));
        assert_eq!(w[1], (SimTime::from_millis(10), 15.0));
        assert_eq!(w[2], (SimTime::from_millis(30), 7.0));
    }

    #[test]
    fn sliding_std_constant_series_is_zero() {
        let s: TimeSeries = (0..100).map(|i| (SimTime::from_millis(i * 10), 5.0)).collect();
        let stds =
            s.sliding_window_std(SimDuration::from_millis(200), SimDuration::from_millis(100));
        assert!(!stds.is_empty());
        assert!(stds.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sliding_std_detects_variation() {
        let s: TimeSeries = (0..100)
            .map(|i| (SimTime::from_millis(i * 10), if i % 2 == 0 { 0.0 } else { 2.0 }))
            .collect();
        let stds =
            s.sliding_window_std(SimDuration::from_millis(200), SimDuration::from_millis(100));
        assert!(stds.iter().all(|&v| (v - 1.0).abs() < 1e-9));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "chronological")]
    fn out_of_order_push_panics_in_debug() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_millis(10), 1.0);
        s.push(SimTime::from_millis(5), 2.0);
    }

    #[test]
    fn try_push_rejects_out_of_order_without_corrupting() {
        let mut s = TimeSeries::new();
        assert_eq!(s.try_push(SimTime::from_millis(10), 1.0), Ok(()));
        let err = s.try_push(SimTime::from_millis(5), 2.0).unwrap_err();
        assert_eq!(err.last, SimTime::from_millis(10));
        assert_eq!(err.rejected, SimTime::from_millis(5));
        assert!(err.to_string().contains("out-of-order"));
        // The rejected sample must not have been appended.
        assert_eq!(s.len(), 1);
        assert_eq!(s.last(), Some((SimTime::from_millis(10), 1.0)));
    }

    #[test]
    fn try_push_accepts_equal_timestamps() {
        let mut s = TimeSeries::new();
        s.try_push(SimTime::from_millis(3), 1.0).unwrap();
        s.try_push(SimTime::from_millis(3), 2.0).unwrap();
        assert_eq!(s.len(), 2);
    }
}
