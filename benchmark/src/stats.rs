//! Order statistics and the output digest.

/// Median, quartiles and sample count of one metric's repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
    /// (the exclusive method), so spreads computed here and by whoever
    /// re-checks the benchmark agree. One sample is its own quartiles.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of no samples");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Quartiles { q1: v[0], median: v[0], q3: v[0], n };
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles { q1: cut(1), median: cut(2), q3: cut(3), n }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// Median of the samples.
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// The `q`-quantile (nearest rank) of the samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Streaming FNV-1a-64.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let q = Quartiles::of(&[7.0, 1.0, 3.0, 2.0, 6.0, 5.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.0, 4.0, 6.0, 7));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let q = Quartiles::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((q.q1, q.median, q.q3), (12.5, 25.0, 37.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        let q = Quartiles::of(&[5.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (5.0, 5.0, 5.0, 1));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let q = Quartiles::of(&[10.0, 20.0, 30.0, 40.0]);
        assert!((q.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[4.0], 0.99), 4.0);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let digest = |s: &str| {
            let mut h = Fnv1a::default();
            h.update(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
        let mut split = Fnv1a::default();
        split.update(b"foo");
        split.update(b"bar");
        assert_eq!(split.finish(), digest("foobar"), "streaming equals one shot");
    }
}
