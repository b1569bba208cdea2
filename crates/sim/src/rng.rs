//! Named, seeded random streams.
//!
//! Every stochastic component takes a [`SimRng`] derived from the experiment
//! master seed plus the component's *name*. Deriving by name (rather than by
//! construction order) means adding a new component never perturbs the random
//! sequence of existing ones — experiments stay comparable as the system
//! evolves.
//!
//! The generator is a small splitmix64-seeded xoshiro256++ implemented
//! locally so the workspace carries no external dependency at all (the
//! repo builds offline against an empty registry). All samplers — raw
//! 64-bit output, bounded integers, uniform/Gaussian (Box–Muller)/
//! exponential/log-normal floats — are inherent methods on [`SimRng`].

/// Deterministic 64-bit PRNG (xoshiro256++) with convenience samplers.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stable 64-bit FNV-1a hash of a component name.
fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl SimRng {
    /// Create a stream from a raw 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x1234_5678_9ABC_DEF0;
        }
        SimRng { s, gauss_spare: None }
    }

    /// Derive the stream for a named component of an experiment.
    ///
    /// `SimRng::stream(seed, "lte.fading")` always yields the same sequence
    /// for the same `(seed, name)` pair, independent of every other stream.
    pub fn stream(master_seed: u64, name: &str) -> Self {
        Self::from_seed(master_seed ^ hash_name(name))
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Multiply-shift rejection-free mapping; bias is < 2^-64 per draw,
        // far below anything observable in these experiments.
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    #[inline]
    pub fn int_range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi);
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal sample via Box–Muller.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Draw u1 away from 0 to keep ln(u1) finite.
        let u1 = loop {
            let u = self.uniform();
            if u > 1e-12 {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.gaussian()
    }

    /// Exponentially distributed sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = loop {
            let u = self.uniform();
            if u > 1e-12 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::stream(42, "lte.fading");
        let mut b = SimRng::stream(42, "lte.fading");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_names_decorrelate() {
        let mut a = SimRng::stream(42, "lte.fading");
        let mut b = SimRng::stream(42, "lte.shadowing");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::from_seed(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = SimRng::from_seed(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SimRng::from_seed(13);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::from_seed(17);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::from_seed(19);
        for _ in 0..10_000 {
            assert!(rng.below(7) < 7);
        }
        // All residues should appear.
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn int_range_inclusive() {
        let mut rng = SimRng::from_seed(23);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            let v = rng.int_range(-3, 3);
            assert!((-3..=3).contains(&v));
            lo_seen |= v == -3;
            hi_seen |= v == 3;
        }
        assert!(lo_seen && hi_seen);
    }
}
