//! Small reusable stochastic processes.
//!
//! The channel and traffic models in `poi360-lte` / `poi360-net` are built
//! from two primitives:
//!
//! * [`OrnsteinUhlenbeck`] — a mean-reverting Gaussian process, used for
//!   log-normal shadowing (slow RSS drift as the user or environment moves).
//! * [`MarkovOnOff`] — a two-state continuous-time Markov chain, used for
//!   bursty cross traffic and deep-fade episodes.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Mean-reverting Gaussian (Ornstein–Uhlenbeck) process.
///
/// `dX = theta (mu - X) dt + sigma dW`. Sampled with the exact discretization,
/// so the step size does not bias the stationary distribution: the stationary
/// std is `sigma / sqrt(2 theta)`.
#[derive(Clone, Debug)]
pub struct OrnsteinUhlenbeck {
    mu: f64,
    theta: f64,
    sigma: f64,
    x: f64,
    // Transition coefficients are pure functions of (theta, sigma, dt);
    // callers step on a fixed cadence, so cache them per step size and skip
    // the exp/sqrt on every tick. Recomputing yields the same bits, so the
    // cache cannot perturb a deterministic run.
    cached_dt: f64,
    decay: f64,
    noise_scale: f64,
}

impl OrnsteinUhlenbeck {
    /// Create a process with mean `mu`, reversion rate `theta` (1/s), and
    /// diffusion `sigma`, started at the mean.
    pub fn new(mu: f64, theta: f64, sigma: f64) -> Self {
        assert!(theta > 0.0, "reversion rate must be positive");
        assert!(sigma >= 0.0);
        OrnsteinUhlenbeck {
            mu,
            theta,
            sigma,
            x: mu,
            cached_dt: f64::NAN,
            decay: 0.0,
            noise_scale: 0.0,
        }
    }

    /// Convenience constructor from the stationary standard deviation and a
    /// correlation time constant `tau` (seconds): `theta = 1/tau`,
    /// `sigma = std * sqrt(2/tau)`.
    pub fn with_stationary(mu: f64, stationary_std: f64, tau_secs: f64) -> Self {
        assert!(tau_secs > 0.0);
        let theta = 1.0 / tau_secs;
        let sigma = stationary_std * (2.0 * theta).sqrt();
        Self::new(mu, theta, sigma)
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.x
    }

    /// Override the current value (e.g. after a handover discontinuity).
    pub fn set_value(&mut self, x: f64) {
        self.x = x;
    }

    /// Advance by `dt` and return the new value.
    pub fn step(&mut self, dt: SimDuration, rng: &mut SimRng) -> f64 {
        let dt = dt.as_secs_f64();
        if dt != self.cached_dt {
            let decay = (-self.theta * dt).exp();
            // Exact transition: X' ~ N(mu + (X-mu) e^{-theta dt}, var)
            let var = self.sigma * self.sigma / (2.0 * self.theta) * (1.0 - decay * decay);
            self.cached_dt = dt;
            self.decay = decay;
            self.noise_scale = var.sqrt();
        }
        self.x = self.mu + (self.x - self.mu) * self.decay + self.noise_scale * rng.gaussian();
        self.x
    }
}

/// Two-state (on/off) continuous-time Markov chain with exponentially
/// distributed dwell times.
#[derive(Clone, Debug)]
pub struct MarkovOnOff {
    mean_on: SimDuration,
    mean_off: SimDuration,
    on: bool,
    remaining: SimDuration,
}

impl MarkovOnOff {
    /// Create a chain with the given mean dwell times, starting in the
    /// `start_on` state with a freshly drawn dwell.
    pub fn new(
        mean_on: SimDuration,
        mean_off: SimDuration,
        start_on: bool,
        rng: &mut SimRng,
    ) -> Self {
        assert!(!mean_on.is_zero() && !mean_off.is_zero());
        let mut chain =
            MarkovOnOff { mean_on, mean_off, on: start_on, remaining: SimDuration::ZERO };
        chain.remaining = chain.draw_dwell(rng);
        chain
    }

    fn draw_dwell(&self, rng: &mut SimRng) -> SimDuration {
        let mean = if self.on { self.mean_on } else { self.mean_off };
        SimDuration::from_secs_f64(rng.exponential(mean.as_secs_f64()))
    }

    /// Whether the chain is currently in the ON state.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Long-run fraction of time spent ON.
    pub fn duty_cycle(&self) -> f64 {
        let on = self.mean_on.as_secs_f64();
        let off = self.mean_off.as_secs_f64();
        on / (on + off)
    }

    /// Advance the chain by `dt`, flipping through as many dwell periods as
    /// fit, and return the state at the end of the step.
    pub fn step(&mut self, mut dt: SimDuration, rng: &mut SimRng) -> bool {
        while dt >= self.remaining {
            dt -= self.remaining;
            self.on = !self.on;
            self.remaining = self.draw_dwell(rng);
        }
        self.remaining -= dt;
        self.on
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn ou_reverts_to_mean() {
        let mut rng = SimRng::from_seed(1);
        let mut ou = OrnsteinUhlenbeck::with_stationary(10.0, 2.0, 1.0);
        ou.set_value(100.0);
        // After many time constants the excursion must have decayed.
        for _ in 0..1_000 {
            ou.step(SimDuration::from_millis(100), &mut rng);
        }
        assert!((ou.value() - 10.0).abs() < 10.0, "value {}", ou.value());
    }

    #[test]
    fn ou_stationary_std_matches() {
        let mut rng = SimRng::from_seed(2);
        let mut ou = OrnsteinUhlenbeck::with_stationary(0.0, 3.0, 0.5);
        // Burn in.
        for _ in 0..1_000 {
            ou.step(SimDuration::from_millis(50), &mut rng);
        }
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let v = ou.step(SimDuration::from_millis(50), &mut rng);
            sum += v;
            sumsq += v * v;
        }
        let mean = sum / n as f64;
        let std = (sumsq / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!((std - 3.0).abs() < 0.3, "std {std}");
    }

    #[test]
    fn ou_exact_step_is_stepsize_invariant() {
        // Stepping 1x100ms vs 10x10ms must give the same *distribution*;
        // check variance agreement empirically.
        let run = |steps: u64, dt_ms: u64, seed: u64| -> f64 {
            let mut rng = SimRng::from_seed(seed);
            let mut ou = OrnsteinUhlenbeck::with_stationary(0.0, 1.0, 0.2);
            let mut sumsq = 0.0;
            let n = 20_000u64;
            for _ in 0..n {
                let mut v = 0.0;
                for _ in 0..steps {
                    v = ou.step(SimDuration::from_millis(dt_ms), &mut rng);
                }
                sumsq += v * v;
            }
            (sumsq / n as f64).sqrt()
        };
        let coarse = run(1, 100, 3);
        let fine = run(10, 10, 4);
        assert!((coarse - fine).abs() < 0.1, "coarse {coarse} fine {fine}");
    }

    #[test]
    fn ou_one_long_step_has_the_law_of_many_short_ones() {
        // What lets a caller sample the process on a coarser cadence than
        // it is consumed at: the transition over k*dt is the k-fold
        // composition of the transition over dt. (k, dt) = (40, 1 ms) is
        // the hex grid's measurement period over its subframe.
        let (k, dt_ms, start) = (40u64, 1u64, 4.0);
        let one = SimDuration::from_millis(k * dt_ms);
        let many = SimDuration::from_millis(dt_ms);

        // Conditional mean: with no diffusion a step *is* its mean.
        let mut rng = SimRng::from_seed(7);
        let theta = 1.0 / 8.0;
        let mut coarse = OrnsteinUhlenbeck::new(1.5, theta, 0.0);
        let mut fine = coarse.clone();
        coarse.set_value(start);
        fine.set_value(start);
        coarse.step(one, &mut rng);
        for _ in 0..k {
            fine.step(many, &mut rng);
        }
        assert!((coarse.value() - fine.value()).abs() < 1e-12, "{coarse:?} vs {fine:?}");

        // Conditional variance, empirically, from the same start.
        let variance = |steps: u64, dt: SimDuration, seed: u64| -> f64 {
            let mut rng = SimRng::from_seed(seed);
            let n = 20_000;
            let (mut sum, mut sumsq) = (0.0, 0.0);
            for _ in 0..n {
                let mut ou = OrnsteinUhlenbeck::with_stationary(1.5, 3.0, 8.0);
                ou.set_value(start);
                for _ in 0..steps {
                    ou.step(dt, &mut rng);
                }
                sum += ou.value();
                sumsq += ou.value() * ou.value();
            }
            let mean = sum / n as f64;
            sumsq / n as f64 - mean * mean
        };
        let (coarse, fine) = (variance(1, one, 8), variance(k, many, 9));
        assert!((coarse / fine - 1.0).abs() < 0.03, "coarse {coarse} fine {fine}");
    }

    #[test]
    fn ou_coefficient_cache_is_bit_identical() {
        // Alternating step sizes forces cache invalidation every step; a
        // process that recomputes from scratch each time (fresh clone, cold
        // cache) must produce the exact same bits.
        let mut rng_a = SimRng::from_seed(9);
        let mut rng_b = SimRng::from_seed(9);
        let mut cached = OrnsteinUhlenbeck::with_stationary(5.0, 2.0, 0.4);
        let mut cold = OrnsteinUhlenbeck::with_stationary(5.0, 2.0, 0.4);
        for k in 0..500u64 {
            let dt = SimDuration::from_millis(if k % 3 == 0 { 1 } else { 100 });
            let a = cached.step(dt, &mut rng_a);
            // Rebuild the uncached process at the same state each step.
            let mut fresh = OrnsteinUhlenbeck::with_stationary(5.0, 2.0, 0.4);
            fresh.set_value(cold.value());
            let b = fresh.step(dt, &mut rng_b);
            cold = fresh;
            assert_eq!(a.to_bits(), b.to_bits(), "step {k}");
        }
    }

    #[test]
    fn markov_duty_cycle_converges() {
        let mut rng = SimRng::from_seed(5);
        let mut chain = MarkovOnOff::new(
            SimDuration::from_millis(300),
            SimDuration::from_millis(700),
            false,
            &mut rng,
        );
        let dt = SimDuration::from_millis(1);
        let n = 2_000_000u64;
        let mut on_count = 0u64;
        for _ in 0..n {
            if chain.step(dt, &mut rng) {
                on_count += 1;
            }
        }
        let measured = on_count as f64 / n as f64;
        assert!((measured - chain.duty_cycle()).abs() < 0.02, "measured {measured}");
    }

    #[test]
    fn markov_flips_through_multiple_dwells_in_one_step() {
        let mut rng = SimRng::from_seed(6);
        let mut chain = MarkovOnOff::new(
            SimDuration::from_millis(1),
            SimDuration::from_millis(1),
            true,
            &mut rng,
        );
        // A very long step must terminate and land in a valid state.
        chain.step(SimDuration::from_secs(10), &mut rng);
    }
}
