//! Small reusable stochastic processes.
//!
//! The channel and traffic models in `poi360-lte` are built from two
//! primitives:
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

    /// Advance the chain by `dt`, flipping through as many dwell periods as
    /// fit, and return the state at the end of the step.
    #[inline]
    pub fn step(&mut self, mut dt: SimDuration, rng: &mut SimRng) -> bool {
        while dt >= self.remaining {
            dt -= self.remaining;
            self.on = !self.on;
            self.remaining = self.draw_dwell(rng);
        }
        self.remaining -= dt;
        self.on
    }

    /// How many whole [`MarkovOnOff::step`]s of `dt` can pass before one
    /// flips the chain: each of them only shortens the current dwell,
    /// without a draw. A step flips once `dt >= remaining`, so this is the
    /// largest `k` with `k * dt < remaining`; a zero `dt` never gets there.
    #[inline]
    pub fn quiet_steps(&self, dt: SimDuration) -> u64 {
        let Some(short_of_a_flip) = self.remaining.as_micros().checked_sub(1) else { return 0 };
        short_of_a_flip.checked_div(dt.as_micros()).unwrap_or(u64::MAX)
    }

    /// Take `k <= quiet_steps(dt)` steps of `dt` at once. Leaves the chain
    /// exactly where `k` calls of [`MarkovOnOff::step`] would: same state,
    /// same remaining dwell, and no draw from any generator.
    pub fn skip_quiet(&mut self, k: u64, dt: SimDuration) {
        debug_assert!(k <= self.quiet_steps(dt), "skipping {k} steps would cross a flip");
        self.remaining -= dt * k;
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
        let fine = variance(k, many, 9);
        let coarse = variance(1, one, 8);
        assert!((coarse / fine - 1.0).abs() < 0.03, "coarse {coarse} fine {fine}");
    }

    #[test]
    fn ou_coefficient_cache_is_bit_identical() {
        // Changing step sizes forces cache invalidation; a process that
        // recomputes from scratch each time (fresh clone, cold cache) must
        // produce the exact same bits. Runs of a 10 ms cadence broken by
        // one-off catch-ups over irregular intervals are how the shared
        // cell steps a background UE's channel: the cadence step after a
        // catch-up finds coefficients as good as the ones it left.
        let mut rng_a = SimRng::from_seed(9);
        let mut rng_b = SimRng::from_seed(9);
        let mut cached = OrnsteinUhlenbeck::with_stationary(5.0, 2.0, 0.4);
        let mut cold = OrnsteinUhlenbeck::with_stationary(5.0, 2.0, 0.4);
        for k in 0..500u64 {
            let dt = SimDuration::from_millis(match k % 7 {
                0 => 1,
                3 => 1_234 + k,
                _ => 10,
            });
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
        // The long-run ON fraction is mean_on / (mean_on + mean_off).
        let measured = on_count as f64 / n as f64;
        assert!((measured - 0.3).abs() < 0.02, "measured {measured}");
    }

    fn chain_with(remaining_us: u64, on: bool, rng: &mut SimRng) -> MarkovOnOff {
        let mean = SimDuration::from_millis(500);
        let mut chain = MarkovOnOff::new(mean, mean, on, rng);
        chain.remaining = SimDuration::from_micros(remaining_us);
        chain
    }

    #[test]
    fn markov_quiet_steps_stop_one_short_of_the_flip() {
        let dt = SimDuration::from_millis(1);
        // remaining < dt, == dt, an exact multiple of dt, one tick over,
        // and the degenerate zero dwell: how many steps leave `on` alone.
        for (remaining_us, quiet) in [(0, 0), (1, 0), (999, 0), (1_000, 0), (1_001, 1)]
            .into_iter()
            .chain([(3_000, 2), (3_001, 3), (3_999, 3), (4_000, 3)])
        {
            let mut rng = SimRng::from_seed(21);
            let mut chain = chain_with(remaining_us, false, &mut rng);
            assert_eq!(chain.quiet_steps(dt), quiet, "remaining {remaining_us} us");
            // The claim, step by step: `quiet` steps draw nothing and stay
            // OFF, and the very next one flips.
            let untouched = rng.clone().next_u64();
            for k in 0..quiet {
                assert!(!chain.step(dt, &mut rng), "flipped at step {k} of {quiet}");
            }
            assert_eq!(rng.clone().next_u64(), untouched, "a quiet step drew");
            assert!(chain.step(dt, &mut rng), "step {quiet} must flip ({remaining_us} us)");
        }
        let mut rng = SimRng::from_seed(22);
        assert_eq!(chain_with(5, true, &mut rng).quiet_steps(SimDuration::ZERO), u64::MAX);
        assert_eq!(chain_with(0, true, &mut rng).quiet_steps(SimDuration::ZERO), 0);
    }

    #[test]
    fn markov_skip_then_step_equals_stepping_every_tick() {
        // 1 000 seeds, dwells from sub-tick to seconds, either state: a
        // skip of any k up to the quiet count followed by one step leaves
        // (state, remaining dwell, generator) where k + 1 steps do.
        let dt = SimDuration::from_millis(1);
        for seed in 0..1_000u64 {
            let mut pick = SimRng::stream(seed, "process.tests.skip");
            let mean = SimDuration::from_micros(pick.int_range(200, 3_000_000) as u64);
            let mut rng = SimRng::from_seed(seed);
            let mut stepped = MarkovOnOff::new(mean, mean, seed % 2 == 0, &mut rng);
            if seed % 5 == 0 {
                // Dwells on the tick grid, where `>=` against `>` shows.
                stepped.remaining = dt * (pick.int_range(0, 50) as u64);
            }
            let mut skipped = stepped.clone();
            let mut rng_skipped = rng.clone();
            let quiet = stepped.quiet_steps(dt);
            let k = if seed % 3 == 0 { quiet } else { pick.int_range(0, quiet as i64) as u64 };
            skipped.skip_quiet(k, dt);
            let after_skip = skipped.step(dt, &mut rng_skipped);
            let mut after_steps = stepped.on;
            for _ in 0..=k {
                after_steps = stepped.step(dt, &mut rng);
            }
            assert_eq!(after_skip, after_steps, "seed {seed}");
            assert_eq!(
                (skipped.on, skipped.remaining, rng_skipped.next_u64()),
                (stepped.on, stepped.remaining, rng.next_u64()),
                "seed {seed}, k {k} of {quiet}"
            );
        }
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
