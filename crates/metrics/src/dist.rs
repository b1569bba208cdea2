//! Summary statistics and empirical distributions.

use poi360_sim::json::{JsonObject, ToJson};

/// Summary statistics over a sample set.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Compute a summary; returns the zero summary for an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary::default();
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary { n, mean, std: var.sqrt(), min, max }
    }
}

impl ToJson for Summary {
    fn write_json(&self, out: &mut String) {
        JsonObject::new()
            .field("n", &self.n)
            .field("mean", &self.mean)
            .field("std", &self.std)
            .field("min", &self.min)
            .field("max", &self.max)
            .write(out);
    }
}

/// Put samples in ascending order, in place. NaNs have no rank and are
/// dropped; equal samples keep their input order.
pub fn sort_samples(values: &mut Vec<f64>) {
    values.retain(|v| !v.is_nan());
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

/// Where quantile `q` in `[0, 1]` sits among `last + 1` ascending
/// samples: the order statistics below and above it and the weight of
/// the upper one.
fn quantile_position(last: usize, q: f64) -> (usize, usize, f64) {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let pos = q * last as f64;
    let lo = pos.floor() as usize;
    (lo, pos.ceil() as usize, pos - lo as f64)
}

/// Quantile `q` in `[0, 1]` of an ascending slice (linear interpolation
/// between order statistics); `None` on an empty one. [`Cdf`] reads its
/// quantiles this way; an unsorted sample set goes through [`quantiles`].
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let (lo, hi, frac) = quantile_position(sorted.len().checked_sub(1)?, q);
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Quantiles `qs` of a sample set, in the order asked — bit for bit what
/// [`quantile_sorted`] reads off a [`sort_samples`] copy, without the
/// sort. One copy of the ranked (non-NaN) samples is partitioned by
/// `select_nth_unstable_by` at each order statistic the quantiles need,
/// ascending, each selection confined to the part right of the previous
/// one: O(n) per quantile instead of O(n log n) for all. `None` when no
/// sample has a rank.
pub fn quantiles<const N: usize>(values: &[f64], qs: [f64; N]) -> Option<[f64; N]> {
    let mut ranked = Vec::with_capacity(values.len());
    ranked.extend(values.iter().copied().filter(|v| !v.is_nan()));
    let last = ranked.len().checked_sub(1)?;
    let picks = qs.map(|q| quantile_position(last, q));
    let mut settled = 0;
    while let Some(k) =
        picks.iter().flat_map(|&(lo, hi, _)| [lo, hi]).filter(|&k| k >= settled).min()
    {
        ranked[settled..].select_nth_unstable_by(k - settled, f64::total_cmp);
        settled = k + 1;
    }
    let at = |k: usize| stable_rank(values, k, ranked[k]);
    Some(picks.map(|(lo, hi, frac)| at(lo) * (1.0 - frac) + at(hi) * frac))
}

/// The sample a stable sort puts at rank `k`, given the one selection put
/// there. Only −0.0 and +0.0 compare equal without sharing their bits, and
/// a stable sort keeps them in input order, so a zero takes its sign from
/// the `(k − negatives)`-th zero of the input.
fn stable_rank(values: &[f64], k: usize, selected: f64) -> f64 {
    if selected != 0.0 {
        return selected;
    }
    let negatives = values.iter().filter(|&&v| v < 0.0).count();
    values.iter().copied().filter(|&v| v == 0.0).nth(k - negatives).unwrap_or(selected)
}

/// Percentile of a sample set ([`quantiles`] for one `q`). Returns `None`
/// when no sample has a rank.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    quantiles(values, [q]).map(|[p]| p)
}

/// Median shorthand.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// An empirical CDF over the sample set.
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples (NaNs have no rank and are dropped).
    pub fn new(mut values: Vec<f64>) -> Cdf {
        sort_samples(&mut values);
        Cdf { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when built from no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF (quantile).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_sorted(&self.sorted, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std - 1.118).abs() < 1e-3);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(40.0));
        assert_eq!(percentile(&v, 0.5), Some(25.0));
        assert_eq!(median(&[1.0, 2.0, 100.0]), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn nan_samples_have_no_rank() {
        assert_eq!(percentile(&[f64::NAN, 1.0, f64::NAN, 3.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[f64::NAN], 0.5), None);
        let cdf = Cdf::new(vec![2.0, f64::NAN, 1.0]);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.quantile(1.0), Some(2.0));
    }

    #[test]
    fn one_sort_serves_every_quantile() {
        let mut v = vec![40.0, 10.0, 30.0, 20.0];
        sort_samples(&mut v);
        assert_eq!(v, [10.0, 20.0, 30.0, 40.0]);
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(quantile_sorted(&v, q), percentile(&[40.0, 10.0, 30.0, 20.0], q));
        }
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let cdf = Cdf::new(vec![3.0, 1.0, 2.0, 2.0, 5.0]);
        assert_eq!(cdf.at(0.0), 0.0);
        assert_eq!(cdf.at(1.0), 0.2);
        assert_eq!(cdf.at(2.0), 0.6);
        assert_eq!(cdf.at(10.0), 1.0);
        let curve: Vec<f64> = (0..9).map(|k| cdf.at(1.0 + 0.5 * k as f64)).collect();
        for w in curve.windows(2) {
            assert!(w[1] >= w[0], "CDF must be non-decreasing");
        }
    }

    #[test]
    fn cdf_quantile_matches_percentile() {
        let samples: Vec<f64> = (0..101).map(|k| k as f64).collect();
        let cdf = Cdf::new(samples);
        assert_eq!(cdf.quantile(0.5), Some(50.0));
        assert_eq!(cdf.quantile(0.95), Some(95.0));
    }

    #[test]
    fn empty_cdf_is_safe() {
        let cdf = Cdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.at(1.0), 0.0);
    }
}
