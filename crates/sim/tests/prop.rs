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

// ---------------------------------------------------------------------
// The fast JSON writers against the formatting they replace
// ---------------------------------------------------------------------

use poi360_sim::json::{write_json_string, ToJson};

/// The escaping loop `write_json_string` used to run, one `char` at a
/// time: the reference for the run-at-a-time writer.
fn escaped_by_chars(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What an `f64` rendered as before the integral fast path: `{:?}`, and
/// `null` for what JSON cannot say.
fn f64_by_debug(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The values the integral shortcut's exactness turns on, each with its
/// neighbours one ulp away, and their negations.
fn f64_edges() -> Vec<f64> {
    let two53 = 9_007_199_254_740_992.0;
    let mut edges = vec![
        0.0,
        1.0,
        17.0,
        9_000.0,
        1e15,
        9_999_999_999_999_998.0, // the largest integral value below 1e16
        1e16,
        two53 - 1.0,
        two53,
        two53 + 2.0,
        f64::from_bits(1), // the smallest subnormal
        f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE,
        1e-7,
        1e-4,
        0.1,
        0.5,
        2.25,
        1.234_567_890_123e-7,
        f64::MAX,
        f64::EPSILON,
        f64::INFINITY,
        f64::NAN,
    ];
    let nudged: Vec<f64> = edges
        .iter()
        .flat_map(|&v| {
            [f64::from_bits(v.to_bits() + 1), f64::from_bits(v.to_bits().wrapping_sub(1))]
        })
        .collect();
    edges.extend(nudged);
    let negated: Vec<f64> = edges.iter().map(|&v| -v).collect();
    edges.extend(negated);
    edges
}

#[test]
fn fast_number_writers_print_what_the_formatter_printed() {
    for v in f64_edges() {
        assert_eq!(v.to_json(), f64_by_debug(v), "{v:e} ({:#x})", v.to_bits());
    }
    prop_check!(512, |g| {
        let v = match g.u64_in(0, 3) {
            // Any bit pattern: subnormals, NaN payloads, huge exponents.
            0 => f64::from_bits(g.any_u64()),
            // Integral, on both sides of 2^53 and 1e16.
            1 => g.u64_in(0, 20_000_000_000_000_000) as f64,
            2 => -(g.u64_in(0, 1 << 40) as f64),
            // What gauges carry: rates, ratios, milliseconds.
            _ => g.f64_in(-1e7, 1e7),
        };
        prop_assert_eq!(v.to_json(), f64_by_debug(v));
        let u = g.any_u64() >> g.u32_in(0, 63);
        prop_assert_eq!(u.to_json(), u.to_string());
        let i = u as i64;
        prop_assert_eq!(i.to_json(), i.to_string());
        prop_assert_eq!((u as u32).to_json(), (u as u32).to_string());
        prop_assert_eq!((i as i8).to_json(), (i as i8).to_string());
        Ok(())
    });
    for n in [u64::MAX, 0, 9, 10, 99, 100] {
        assert_eq!(n.to_json(), n.to_string());
    }
    for n in [i64::MIN, i64::MAX, -1, 0] {
        assert_eq!(n.to_json(), n.to_string());
    }
}

#[test]
fn fast_string_writer_escapes_what_the_char_loop_escaped() {
    for s in ["", "session", "we\"ird\n", "\\", "\u{0}\u{1f}\u{7f}", "zelle.ü", "a\u{2028}b", "🛰\t"]
    {
        let mut out = String::new();
        write_json_string(s, &mut out);
        assert_eq!(out, escaped_by_chars(s), "{s:?}");
    }
    const ALPHABET: [char; 12] =
        ['a', '.', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'ü', '€', '🛰'];
    prop_check!(512, |g| {
        let s: String =
            g.vec_of(0, 24, |g| ALPHABET[g.index(ALPHABET.len())]).into_iter().collect();
        let mut out = String::from("kept ");
        write_json_string(&s, &mut out);
        prop_assert_eq!(out, format!("kept {}", escaped_by_chars(&s)));
        Ok(())
    });
}
