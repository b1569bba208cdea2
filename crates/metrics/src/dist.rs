//! Summary statistics and empirical distributions.

/// Mean and spread of a sample set.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
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
        Summary { mean, std: var.sqrt() }
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

/// Quantiles `qs` of a sample set, in the order asked (linear
/// interpolation between order statistics) — bit for bit what a
/// [`sort_samples`] copy reads off at those positions, without the sort:
/// [`quantiles_in_place`] over a copy. `None` when no sample has a rank.
pub fn quantiles<const N: usize>(values: &[f64], qs: [f64; N]) -> Option<[f64; N]> {
    quantiles_in_place(&mut values.to_vec(), qs)
}

/// [`quantiles`] reduced inside `values`, which it leaves permuted: a
/// caller that owns its samples and is done with them pays for no copy.
/// The ranked (non-NaN) samples are packed to the front in input order and
/// partitioned by `select_nth_unstable_by` at each order statistic the
/// quantiles need, ascending, each selection confined to the part right of
/// the previous one: O(n) per quantile instead of O(n log n) for all.
pub fn quantiles_in_place<const N: usize>(values: &mut [f64], qs: [f64; N]) -> Option<[f64; N]> {
    let (mut len, mut signs) = (0, 0);
    for k in 0..values.len() {
        let v = values[k];
        if !v.is_nan() {
            values[len] = v;
            len += 1;
            signs |= zero_signs(v);
        }
    }
    select_quantiles(&mut values[..len], signs, qs)
}

/// The selection both entry points share, over samples that all have a
/// rank, in input order; `signs` is their [`zero_signs`] or-ed together.
fn select_quantiles<const N: usize>(
    ranked: &mut [f64],
    signs: u8,
    qs: [f64; N],
) -> Option<[f64; N]> {
    let last = ranked.len().checked_sub(1)?;
    let picks = qs.map(|q| quantile_position(last, q));
    // Selection permutes the samples, and where zeros of both signs occur
    // the input order decides which one a rank holds: read that first.
    let zeros = if signs == 0b11 { signed_zeros(ranked, &picks) } else { [[None; 2]; N] };
    let mut settled = 0;
    while let Some(k) =
        picks.iter().flat_map(|&(lo, hi, _)| [lo, hi]).filter(|&k| k >= settled).min()
    {
        ranked[settled..].select_nth_unstable_by(k - settled, f64::total_cmp);
        settled = k + 1;
    }
    Some(std::array::from_fn(|i| {
        let ((lo, hi, frac), [zero_lo, zero_hi]) = (picks[i], zeros[i]);
        zero_lo.unwrap_or(ranked[lo]) * (1.0 - frac) + zero_hi.unwrap_or(ranked[hi]) * frac
    }))
}

/// Bit 0 set for +0.0, bit 1 for −0.0: or-ed over the samples, `0b11`
/// says zeros of both signs occur.
fn zero_signs(v: f64) -> u8 {
    u8::from(v.to_bits() == 0.0f64.to_bits()) | u8::from(v.to_bits() == (-0.0f64).to_bits()) << 1
}

/// For each pick's two ranks, the zero a stable sort of `values` puts
/// there (`None` at a rank that holds no zero). Only −0.0 and +0.0 compare
/// equal without sharing their bits, and a stable sort keeps them in input
/// order after the samples below zero, so rank `k` holds the
/// `(k − negatives)`-th zero of the input.
fn signed_zeros<const N: usize>(
    values: &[f64],
    picks: &[(usize, usize, f64); N],
) -> [[Option<f64>; 2]; N] {
    let negatives = values.iter().filter(|&&v| v < 0.0).count();
    let mut out = [[None; 2]; N];
    for (j, &zero) in values.iter().filter(|&&v| v == 0.0).enumerate() {
        for (slot, &(lo, hi, _)) in out.iter_mut().zip(picks) {
            for (s, k) in slot.iter_mut().zip([lo, hi]) {
                if k.checked_sub(negatives) == Some(j) {
                    *s = Some(zero);
                }
            }
        }
    }
    out
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert!((s.std - 1.118).abs() < 1e-3);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std, 0.0);
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
        assert_eq!(cdf.at(2.0), 1.0);
    }

    #[test]
    fn one_sort_serves_every_quantile() {
        let mut v = vec![40.0, 10.0, 30.0, 20.0];
        sort_samples(&mut v);
        assert_eq!(v, [10.0, 20.0, 30.0, 40.0]);
        let qs = [0.0, 0.25, 0.5, 0.95, 1.0];
        assert_eq!(quantiles(&[40.0, 10.0, 30.0, 20.0], qs), Some([10.0, 17.5, 25.0, 38.5, 40.0]));
        assert_eq!(percentile(&[], 0.5), None);
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
    fn empty_cdf_is_safe() {
        let cdf = Cdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.at(1.0), 0.0);
    }
}
