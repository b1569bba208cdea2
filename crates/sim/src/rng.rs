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
//! 64-bit output, bounded integers, uniform/Gaussian/exponential floats —
//! are inherent methods on [`SimRng`].
//!
//! Normals come from a 256-layer ziggurat (Marsaglia & Tsang 2000, with
//! Doornik's 2005 fix: the layer index and the uniform take disjoint bits
//! of one draw). About 99 % of draws cost one `next()` and no libm call;
//! the rest pay `exp` in a layer's wedge or `ln` in the tail beyond `R`,
//! and building the tables once pays `exp`/`ln`/`sqrt` per layer.

use std::sync::LazyLock;

/// Deterministic 64-bit PRNG (xoshiro256++) with convenience samplers.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

/// Ziggurat layer edges `x` (decreasing, `x[256] == 0`; `x[0]` is the base
/// strip's virtual width `V / f(R)`) and the density `f = exp(-x²/2)` there.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

/// Where the tail starts: the base strip's right edge `R`.
const ZIG_R: f64 = 3.654152885361009;
/// The area `V` every layer (and the base strip with the tail) covers.
const ZIG_V: f64 = 4.928673233974655e-3;

static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(|| {
    let pdf = |x: f64| (-0.5 * x * x).exp();
    let mut x = [0.0; 257];
    (x[0], x[1]) = (ZIG_V / pdf(ZIG_R), ZIG_R);
    for i in 2..256 {
        x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
    }
    Ziggurat { x, f: x.map(pdf) }
});

/// Layer (low 8 bits) and a uniform in `(-1, 1)`, symmetric about 0, from
/// the high 52 bits of one draw.
#[inline]
fn zig_split(bits: u64) -> (usize, f64) {
    ((bits & 0xff) as usize, ((bits >> 12) as f64 + 0.5) * (1.0 / (1u64 << 51) as f64) - 1.0)
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
        SimRng { s }
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

    /// Standard normal sample (ziggurat; see the module doc).
    #[inline]
    pub fn gaussian(&mut self) -> f64 {
        let t = &*ZIGGURAT;
        let (i, u) = zig_split(self.next());
        let x = u * t.x[i];
        if x.abs() < t.x[i + 1] {
            return x;
        }
        self.gaussian_edge(t, i, u, x)
    }

    /// The ~1 % of draws outside a layer's core: the tail beyond `R` for the
    /// base strip, else the wedge test against the density; a rejected
    /// draw starts over.
    #[cold]
    fn gaussian_edge(&mut self, t: &Ziggurat, i: usize, u: f64, x: f64) -> f64 {
        if i == 0 {
            let tail = loop {
                let a = -(1.0 - self.uniform()).ln() / ZIG_R;
                if -2.0 * (1.0 - self.uniform()).ln() >= a * a {
                    break ZIG_R + a;
                }
            };
            return if u < 0.0 { -tail } else { tail };
        }
        if t.f[i] + (t.f[i + 1] - t.f[i]) * self.uniform() < (-0.5 * x * x).exp() {
            return x;
        }
        self.gaussian()
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

    /// Box–Muller, the reference the law tests hold the ziggurat to (and
    /// the sampler of EXPERIMENTS.md's pre-D13 artifacts): two `uniform`
    /// draws per pair of normals, the second output cached.
    struct BoxMuller {
        spare: Option<f64>,
    }

    impl BoxMuller {
        fn draw(&mut self, rng: &mut SimRng) -> f64 {
            if let Some(z) = self.spare.take() {
                return z;
            }
            // Draw u1 away from 0 to keep ln(u1) finite.
            let u1 = loop {
                let u = rng.uniform();
                if u > 1e-12 {
                    break u;
                }
            };
            let u2 = rng.uniform();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = std::f64::consts::TAU * u2;
            self.spare = Some(r * theta.sin());
            r * theta.cos()
        }
    }

    const LAW_N: usize = 1_000_000;

    fn ziggurat_sample(seed: u64) -> Vec<f64> {
        let mut rng = SimRng::from_seed(seed);
        (0..LAW_N).map(|_| rng.gaussian()).collect()
    }

    #[test]
    fn gaussian_matches_box_muller_two_sample_ks() {
        let mut zig = ziggurat_sample(29);
        let mut rng = SimRng::from_seed(31);
        let mut oracle = BoxMuller { spare: None };
        let mut bm: Vec<f64> = (0..LAW_N).map(|_| oracle.draw(&mut rng)).collect();
        zig.sort_by(f64::total_cmp);
        bm.sort_by(f64::total_cmp);
        // Largest gap between the two empirical CDFs, merging the sorted samples.
        let (mut i, mut j, mut d) = (0, 0, 0usize);
        while i < LAW_N && j < LAW_N {
            let v = zig[i].min(bm[j]);
            while i < LAW_N && zig[i] == v {
                i += 1;
            }
            while j < LAW_N && bm[j] == v {
                j += 1;
            }
            d = d.max(i.abs_diff(j));
        }
        let d = d as f64 / LAW_N as f64;
        // Critical value at alpha = 0.001 for two samples of n: 1.949 * sqrt(2 / n).
        let crit = 1.949 * (2.0 / LAW_N as f64).sqrt();
        assert!(d < crit, "KS distance {d} >= {crit}");
    }

    #[test]
    fn gaussian_moments() {
        let xs = ziggurat_sample(13);
        let n = LAW_N as f64;
        let moment = |k: i32| xs.iter().map(|x| x.powi(k)).sum::<f64>() / n;
        let (mean, m2, m3, m4) = (moment(1), moment(2), moment(3), moment(4));
        let var = m2 - mean * mean;
        let skew = (m3 - 3.0 * mean * m2 + 2.0 * mean.powi(3)) / var.powf(1.5);
        let kurt = m4 / (var * var);
        // Five standard errors of each estimate for n standard normals.
        assert!(mean.abs() < 5.0 / n.sqrt(), "mean {mean}");
        assert!((var - 1.0).abs() < 5.0 * (2.0 / n).sqrt(), "var {var}");
        assert!(skew.abs() < 5.0 * (6.0 / n).sqrt(), "skewness {skew}");
        assert!((kurt - 3.0).abs() < 5.0 * (24.0 / n).sqrt(), "kurtosis {kurt}");
    }

    #[test]
    fn gaussian_tail_mass_beyond_r() {
        let xs = ziggurat_sample(37);
        // 2 * (1 - Phi(R)) = erfc(R / sqrt 2).
        let p = 2.580_324_876_539_013e-4;
        let expect = p * LAW_N as f64;
        let beyond = xs.iter().filter(|x| x.abs() > ZIG_R).count() as f64;
        assert!(
            (beyond - expect).abs() < 5.0 * expect.sqrt(),
            "{beyond} beyond R, expect {expect}"
        );
        // The tail reaches past the last layer edge, not just to it.
        assert!(xs.iter().any(|x| x.abs() > ZIG_R + 0.5));
    }

    #[test]
    fn gaussian_is_symmetric() {
        let xs = ziggurat_sample(41);
        let half = LAW_N as f64 / 2.0;
        let pos = xs.iter().filter(|&&x| x > 0.0).count() as f64;
        assert!((pos - half).abs() < 2.5 * (LAW_N as f64).sqrt(), "{pos} positive");
        let pos_tail = xs.iter().filter(|&&x| x > ZIG_R).count() as f64;
        let neg_tail = xs.iter().filter(|&&x| x < -ZIG_R).count() as f64;
        assert!((pos_tail - neg_tail).abs() < 5.0 * (pos_tail + neg_tail).sqrt());
        // Flipping the uniform's 52 bits negates it exactly and keeps the layer.
        let mut rng = SimRng::from_seed(43);
        for _ in 0..10_000 {
            let bits = rng.next_u64();
            let ((i, u), (j, v)) = (zig_split(bits), zig_split(bits ^ !0xfff));
            assert_eq!((i, u.to_bits()), (j, (-v).to_bits()));
            assert!(u.abs() < 1.0);
        }
    }

    #[test]
    fn ziggurat_layers_have_equal_area() {
        let t = &*ZIGGURAT;
        // The base strip: a rectangle of width x[0] and height f[1] holds R's
        // rectangle plus the tail.
        assert_eq!(t.x[0] * t.f[1], ZIG_V);
        for i in 1..256 {
            assert!(t.x[i] > t.x[i + 1] && t.f[i] < t.f[i + 1], "layer {i} not ordered");
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!((area - ZIG_V).abs() <= 1e-12 * ZIG_V, "layer {i}: area {area}");
        }
        assert_eq!((t.x[256], t.f[256]), (0.0, 1.0));
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
