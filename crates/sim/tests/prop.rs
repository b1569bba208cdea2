//! Property-based tests for the simulation kernel, on the in-repo
//! `poi360_testkit` harness (64+ seeded cases per property).

use poi360_sim::process::{MarkovOnOff, OrnsteinUhlenbeck};
use poi360_sim::rng::SimRng;
use poi360_sim::series::TimeSeries;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_testkit::{prop_assert, prop_assert_eq, prop_check};

/// Time arithmetic: (t + d) - d == t and (t + d) - t == d.
#[test]
fn time_arithmetic_roundtrips() {
    prop_check!(128, |g| {
        let t = g.u64_in(0, 999_999_999);
        let d = g.u64_in(0, 999_999_999);
        let time = SimTime::from_micros(t);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((time + dur) - dur, time);
        prop_assert_eq!((time + dur) - time, dur);
        Ok(())
    });
}

/// saturating_since never underflows and matches checked_since when
/// ordered.
#[test]
fn since_is_safe() {
    prop_check!(128, |g| {
        let (a, b) = (g.u64_in(0, 999_999), g.u64_in(0, 999_999));
        let (ta, tb) = (SimTime::from_micros(a), SimTime::from_micros(b));
        let sat = ta.saturating_since(tb);
        match ta.checked_since(tb) {
            Some(d) => prop_assert_eq!(d, sat),
            None => prop_assert_eq!(sat, SimDuration::ZERO),
        }
        Ok(())
    });
}

/// TimeSeries window means average exactly the contained samples.
#[test]
fn window_means_average() {
    prop_check!(64, |g| {
        let values = g.vec_f64(1, 50, -100.0, 100.0);
        let series: TimeSeries =
            values.iter().enumerate().map(|(k, &v)| (SimTime::from_millis(k as u64), v)).collect();
        // One window covering everything equals the plain mean.
        let windows = series.window_means(SimDuration::from_secs(10));
        prop_assert_eq!(windows.len(), 1);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((windows[0].1 - mean).abs() < 1e-9);
        Ok(())
    });
}

/// OU stays finite under arbitrary step patterns.
#[test]
fn ou_stays_finite() {
    prop_check!(64, |g| {
        let seed = g.any_u64();
        let steps = g.vec_u64(1, 200, 1, 999);
        let mut rng = SimRng::from_seed(seed);
        let mut ou = OrnsteinUhlenbeck::with_stationary(5.0, 2.0, 1.0);
        for ms in steps {
            let v = ou.step(SimDuration::from_millis(ms), &mut rng);
            prop_assert!(v.is_finite());
            prop_assert!(v.abs() < 1_000.0, "implausible excursion {v}");
        }
        Ok(())
    });
}

/// Markov chain state is always consistent after arbitrary stepping.
#[test]
fn markov_always_valid() {
    prop_check!(64, |g| {
        let seed = g.any_u64();
        let steps = g.vec_u64(1, 100, 1, 9_999);
        let mut rng = SimRng::from_seed(seed);
        let mut chain = MarkovOnOff::new(
            SimDuration::from_millis(100),
            SimDuration::from_millis(300),
            false,
            &mut rng,
        );
        for ms in steps {
            let _ = chain.step(SimDuration::from_millis(ms), &mut rng);
        }
        let duty = chain.duty_cycle();
        prop_assert!((duty - 0.25).abs() < 1e-9);
        Ok(())
    });
}

/// Uniform, normal, exponential samplers produce finite values in
/// expected supports.
#[test]
fn samplers_respect_supports() {
    prop_check!(64, |g| {
        let mut rng = SimRng::from_seed(g.any_u64());
        for _ in 0..100 {
            let u = rng.uniform();
            prop_assert!((0.0..1.0).contains(&u));
            prop_assert!(rng.normal(0.0, 1.0).is_finite());
            prop_assert!(rng.exponential(2.0) >= 0.0);
            let r = rng.uniform_range(-3.0, 7.0);
            prop_assert!((-3.0..7.0).contains(&r));
        }
        Ok(())
    });
}
