//! Background-UE traffic generators for the shared cell.
//!
//! In the standalone uplink, competing traffic is a sampled scalar
//! (`LoadConfig`). In the shared cell it is *emergent*: a population of
//! background UEs runs on/off sources into their own uplink queues and
//! competes for PRBs through the same proportional-fair allocator the
//! foreground sessions use. A background UE is deliberately minimal — a
//! byte backlog, not packets — because nothing downstream ever sees its
//! traffic; only the PRBs it occupies matter.

use poi360_sim::process::MarkovOnOff;
use poi360_sim::rng::SimRng;
use poi360_sim::time::SimDuration;

/// One background source: Markov on/off with a constant on-rate.
#[derive(Clone, Copy, Debug)]
pub struct BackgroundTrafficConfig {
    /// Offered rate while the source is on, bits/s.
    pub on_rate_bps: f64,
    /// Mean on-period duration.
    pub mean_on: SimDuration,
    /// Mean off-period duration.
    pub mean_off: SimDuration,
}

impl Default for BackgroundTrafficConfig {
    fn default() -> Self {
        BackgroundTrafficConfig {
            on_rate_bps: 1.5e6,
            mean_on: SimDuration::from_millis(1_500),
            mean_off: SimDuration::from_millis(3_500),
        }
    }
}

/// The evolving source. Owns its RNG so two sources never share draws.
#[derive(Clone, Debug)]
pub struct BackgroundTraffic {
    cfg: BackgroundTrafficConfig,
    onoff: MarkovOnOff,
    rng: SimRng,
    /// Sub-byte remainder carried between subframes.
    frac_bytes: f64,
}

impl BackgroundTraffic {
    /// Create a source from its config and a UE-specific seed.
    pub fn new(cfg: BackgroundTrafficConfig, seed: u64) -> Self {
        let mut rng = SimRng::stream(seed, "cell.bg.traffic");
        let onoff = MarkovOnOff::new(cfg.mean_on, cfg.mean_off, false, &mut rng);
        BackgroundTraffic { cfg, onoff, rng, frac_bytes: 0.0 }
    }

    /// Advance one subframe; returns the bytes offered to the UE queue.
    pub fn subframe(&mut self) -> u64 {
        if !self.onoff.step(poi360_sim::SUBFRAME, &mut self.rng) {
            return 0;
        }
        self.frac_bytes += self.cfg.on_rate_bps / 8.0 * poi360_sim::SUBFRAME.as_secs_f64();
        // `(x as u64) as f64` is `x.floor()` on [0, 2^53): x is a sub-byte
        // remainder plus one subframe's bytes at a non-negative rate.
        let whole = self.frac_bytes as u64;
        self.frac_bytes -= whole as f64;
        whole
    }

    /// How many [`BackgroundTraffic::subframe`] calls from now are certain
    /// to offer nothing and draw nothing: the whole subframes left before
    /// an OFF source flips, 0 while it is ON.
    pub fn quiet_subframes(&self) -> u64 {
        if self.onoff.is_on() {
            return 0;
        }
        self.onoff.quiet_steps(poi360_sim::SUBFRAME)
    }

    /// Take `k <= quiet_subframes()` subframes at once: the source ends up
    /// bit for bit where `k` calls of [`BackgroundTraffic::subframe`]
    /// (each returning 0) would have left it.
    pub fn skip_quiet(&mut self, k: u64) {
        debug_assert!(k <= self.quiet_subframes(), "skipping {k} subframes would miss a burst");
        self.onoff.skip_quiet(k, poi360_sim::SUBFRAME);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_run_rate_matches_duty_cycle() {
        let cfg = BackgroundTrafficConfig::default();
        let mut t = BackgroundTraffic::new(cfg, 7);
        let secs = 120u64;
        let total: u64 = (0..secs * 1000).map(|_| t.subframe()).sum();
        let measured_bps = total as f64 * 8.0 / secs as f64;
        // `on_rate × duty cycle`.
        let (on, off) = (cfg.mean_on.as_secs_f64(), cfg.mean_off.as_secs_f64());
        let expect = cfg.on_rate_bps * on / (on + off);
        assert!(
            (measured_bps / expect - 1.0).abs() < 0.25,
            "measured {measured_bps} expected {expect}"
        );
    }

    #[test]
    fn off_periods_generate_nothing() {
        let mut t = BackgroundTraffic::new(BackgroundTrafficConfig::default(), 3);
        let per_sf: Vec<u64> = (0..20_000).map(|_| t.subframe()).collect();
        assert!(per_sf.contains(&0), "source never idles");
        assert!(per_sf.iter().any(|&b| b > 0), "source never transmits");
    }

    #[test]
    fn skipping_the_quiet_subframes_is_bit_exact() {
        // 1 000 sources caught at 1 000 different points of their on/off
        // cycle: skip(k) then one subframe offers what the (k+1)-th of
        // k + 1 subframes offers and leaves the same chain, byte
        // remainder and generator behind.
        let mut parked_somewhere = 0;
        for seed in 0..1_000u64 {
            let mut pick = SimRng::stream(seed, "background.tests.skip");
            let cfg = BackgroundTrafficConfig {
                on_rate_bps: pick.uniform_range(0.4e6, 2.4e6),
                mean_on: SimDuration::from_micros(pick.int_range(500, 3_000_000) as u64),
                mean_off: SimDuration::from_micros(pick.int_range(500, 6_000_000) as u64),
            };
            let mut stepped = BackgroundTraffic::new(cfg, seed);
            for _ in 0..pick.int_range(0, 4_000) {
                stepped.subframe();
            }
            let quiet = stepped.quiet_subframes();
            assert!(quiet == 0 || !stepped.onoff.is_on(), "an ON source is never quiet");
            parked_somewhere += u64::from(quiet > 0);
            let k = if seed % 2 == 0 { quiet } else { pick.int_range(0, quiet as i64) as u64 };
            let mut skipped = stepped.clone();
            skipped.skip_quiet(k);
            for _ in 0..k {
                assert_eq!(stepped.subframe(), 0, "seed {seed}: a quiet subframe offered bytes");
            }
            assert_eq!(skipped.subframe(), stepped.subframe(), "seed {seed}, k {k} of {quiet}");
            assert_eq!(skipped.onoff.is_on(), stepped.onoff.is_on(), "seed {seed}");
            assert_eq!(skipped.quiet_subframes(), stepped.quiet_subframes(), "seed {seed}");
            assert_eq!(skipped.frac_bytes.to_bits(), stepped.frac_bytes.to_bits(), "seed {seed}");
            assert_eq!(skipped.rng.next_u64(), stepped.rng.next_u64(), "seed {seed}");
        }
        assert!(parked_somewhere > 300, "only {parked_somewhere} of 1000 sources were OFF");
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = (0..5_000)
            .scan(BackgroundTraffic::new(Default::default(), 9), |t, _| Some(t.subframe()))
            .collect();
        let b: Vec<u64> = (0..5_000)
            .scan(BackgroundTraffic::new(Default::default(), 9), |t, _| Some(t.subframe()))
            .collect();
        assert_eq!(a, b);
    }
}
