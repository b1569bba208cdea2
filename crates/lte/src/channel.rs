//! Radio channel model: RSS → SINR with shadowing, fast fading, mobility,
//! and handover outages.
//!
//! The paper evaluates three received-signal-strength tiers (−115 / −82 /
//! −73 dBm, §6.2) and three driving speeds (15 / 30 / 50 mph). The channel
//! model maps those knobs onto a per-subframe SINR:
//!
//! * **Mean SINR** is an affine map of RSS calibrated so the paper's tiers
//!   land at CQI ≈ 2 / 12 / 15.
//! * **Shadowing** is a log-normal (Gaussian-in-dB) Ornstein–Uhlenbeck
//!   process whose time constant shrinks with speed (the environment
//!   decorrelates faster when driving).
//! * **Fast fading** is a second, faster OU process in dB whose std and
//!   rate grow with Doppler (speed).
//! * **Handover outages**: while driving, cell changes interrupt uplink
//!   grants for 150–300 ms at a rate proportional to speed.

use poi360_sim::process::OrnsteinUhlenbeck;
use poi360_sim::rng::SimRng;
use poi360_sim::time::{SimDuration, SimTime};

/// Channel configuration.
#[derive(Clone, Copy, Debug)]
pub struct ChannelConfig {
    /// Mean received signal strength in dBm.
    pub rss_dbm: f64,
    /// UE speed in mph (0 = static).
    pub speed_mph: f64,
    /// Shadowing stationary std in dB.
    pub shadow_std_db: f64,
    /// Fast-fading std in dB at walking speed; grows mildly with Doppler.
    pub fading_std_db: f64,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        // The paper's "strong signal, static" baseline condition.
        ChannelConfig { rss_dbm: -73.0, speed_mph: 0.0, shadow_std_db: 2.5, fading_std_db: 2.0 }
    }
}

impl ChannelConfig {
    /// Mean SINR for the configured RSS: affine fit anchored at the paper's
    /// tiers (−73 dBm → ≈22 dB → CQI 15; −82 → ≈17 dB → CQI ~12;
    /// −115 → ≈ −3 dB → CQI ~2).
    pub fn mean_sinr_db(&self) -> f64 {
        (self.rss_dbm + 110.0) * 0.6
    }

    /// Shadowing correlation time: ~20 s static, shrinking with speed.
    fn shadow_tau_secs(&self) -> f64 {
        if self.speed_mph <= 1.0 {
            20.0
        } else {
            (60.0 / self.speed_mph).clamp(1.0, 20.0)
        }
    }

    /// Fading correlation time from Doppler: coherence ≈ 423/f_D ms at
    /// 2 GHz; static users still see ~200 ms scatter motion.
    fn fading_tau_secs(&self) -> f64 {
        if self.speed_mph <= 0.5 {
            0.2
        } else {
            let v_mps = self.speed_mph * 0.44704;
            let doppler_hz = v_mps / 0.15; // λ ≈ 15 cm at 2 GHz
            (0.423 / doppler_hz).clamp(0.002, 0.2)
        }
    }

    /// Mean time between handovers while moving (cell radius ~400 m).
    fn handover_mean_interval_secs(&self) -> Option<f64> {
        if self.speed_mph <= 1.0 {
            None
        } else {
            let v_mps = self.speed_mph * 0.44704;
            Some(400.0 / v_mps)
        }
    }
}

/// Per-subframe channel state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelState {
    /// Instantaneous SINR in dB.
    pub sinr_db: f64,
    /// CQI the UE would report.
    pub cqi: u8,
    /// True while a handover outage suppresses uplink grants.
    pub in_outage: bool,
}

/// The evolving channel.
#[derive(Clone, Debug)]
pub struct Channel {
    cfg: ChannelConfig,
    shadow: OrnsteinUhlenbeck,
    fading: OrnsteinUhlenbeck,
    rng: SimRng,
    outage_until: SimTime,
    next_handover: SimTime,
}

impl Channel {
    /// Create a channel, deriving all randomness from `seed`.
    pub fn new(cfg: ChannelConfig, seed: u64) -> Self {
        let mut rng = SimRng::stream(seed, "lte.channel");
        let fading_std = cfg.fading_std_db * (1.0 + (cfg.speed_mph / 50.0) * 0.5);
        let shadow =
            OrnsteinUhlenbeck::with_stationary(0.0, cfg.shadow_std_db, cfg.shadow_tau_secs());
        let fading = OrnsteinUhlenbeck::with_stationary(0.0, fading_std, cfg.fading_tau_secs());
        let next_handover = match cfg.handover_mean_interval_secs() {
            Some(mean) => SimTime::ZERO + SimDuration::from_secs_f64(rng.exponential(mean)),
            None => SimTime::MAX,
        };
        Channel { cfg, shadow, fading, rng, outage_until: SimTime::ZERO, next_handover }
    }

    /// Configuration in use.
    #[cfg(test)]
    pub(crate) fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// Advance one subframe and sample the channel.
    #[inline]
    pub fn subframe(&mut self, now: SimTime) -> ChannelState {
        let dt = poi360_sim::SUBFRAME;
        let shadow = self.shadow.step(dt, &mut self.rng);
        let fading = self.fading.step(dt, &mut self.rng);

        // Handover management.
        if now >= self.next_handover {
            let outage = SimDuration::from_millis(self.rng.int_range(250, 450) as u64);
            self.outage_until = now + outage;
            // Re-draw shadowing after the cell change: new serving cell.
            self.shadow.set_value(self.rng.normal(0.0, self.cfg.shadow_std_db));
            let mean = self
                .cfg
                .handover_mean_interval_secs()
                .expect("handover scheduled implies mobility");
            self.next_handover =
                now + SimDuration::from_secs_f64(self.rng.exponential(mean).max(1.0));
        }
        self.state(shadow, fading, now < self.outage_until)
    }

    /// Look at a static channel `subframes` subframes after the last look —
    /// how the shared cell reads a background UE, each sounding period and
    /// after a parked interval alike: one exact transition of each track,
    /// two Gaussian draws however long the interval. The law of the state
    /// (and of everything after it) is that of `subframes` calls of
    /// [`Channel::subframe`]; for one subframe so are the bits. Panics on a
    /// channel with handovers: it has to be stepped through them.
    #[inline]
    pub fn advance_static(&mut self, subframes: u64) -> ChannelState {
        assert!(self.next_handover == SimTime::MAX, "a handover is scheduled: not static");
        let dt = poi360_sim::SUBFRAME.saturating_mul(subframes);
        let shadow = self.shadow.step(dt, &mut self.rng);
        let fading = self.fading.step(dt, &mut self.rng);
        self.state(shadow, fading, false)
    }

    #[inline]
    fn state(&self, shadow: f64, fading: f64, in_outage: bool) -> ChannelState {
        let sinr_db = self.cfg.mean_sinr_db() + shadow + fading;
        ChannelState { sinr_db, cqi: crate::tbs::sinr_to_cqi(sinr_db), in_outage }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cfg: ChannelConfig, seed: u64, secs: u64) -> Vec<ChannelState> {
        let mut ch = Channel::new(cfg, seed);
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        for _ in 0..secs * 1000 {
            out.push(ch.subframe(now));
            now += poi360_sim::SUBFRAME;
        }
        out
    }

    #[test]
    fn strong_signal_mostly_top_cqi() {
        let states = run(ChannelConfig::default(), 1, 30);
        let mean_cqi = states.iter().map(|s| s.cqi as f64).sum::<f64>() / states.len() as f64;
        assert!(mean_cqi > 13.0, "mean CQI {mean_cqi}");
    }

    #[test]
    fn weak_signal_bottom_cqi() {
        let cfg = ChannelConfig { rss_dbm: -115.0, ..Default::default() };
        let states = run(cfg, 2, 30);
        let mean_cqi = states.iter().map(|s| s.cqi as f64).sum::<f64>() / states.len() as f64;
        assert!(mean_cqi < 4.0, "mean CQI {mean_cqi}");
    }

    #[test]
    fn moderate_signal_in_between() {
        let cfg = ChannelConfig { rss_dbm: -82.0, ..Default::default() };
        let states = run(cfg, 3, 30);
        let mean_cqi = states.iter().map(|s| s.cqi as f64).sum::<f64>() / states.len() as f64;
        assert!((8.0..14.5).contains(&mean_cqi), "mean CQI {mean_cqi}");
    }

    #[test]
    fn static_channel_has_no_outages() {
        let states = run(ChannelConfig::default(), 4, 60);
        assert!(states.iter().all(|s| !s.in_outage));
    }

    #[test]
    fn driving_channel_has_handover_outages() {
        let cfg = ChannelConfig { speed_mph: 50.0, ..Default::default() };
        let states = run(cfg, 5, 120);
        let outage_frac =
            states.iter().filter(|s| s.in_outage).count() as f64 / states.len() as f64;
        assert!(outage_frac > 0.0005, "outage fraction {outage_frac}");
        assert!(outage_frac < 0.08, "outage fraction {outage_frac}");
    }

    #[test]
    fn faster_driving_fades_harder() {
        let measure = |mph: f64, seed| -> f64 {
            let cfg = ChannelConfig { speed_mph: mph, ..Default::default() };
            let states = run(cfg, seed, 60);
            let vals: Vec<f64> = states.iter().map(|s| s.sinr_db).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            // Mean absolute subframe-to-subframe change: captures fading *rate*.
            let _ = mean;
            vals.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (vals.len() - 1) as f64
        };
        let slow = measure(15.0, 6);
        let fast = measure(50.0, 7);
        assert!(fast > slow * 1.2, "fast {fast} slow {slow}");
    }

    #[test]
    fn sinr_mean_tracks_rss() {
        for (rss, lo, hi) in [(-73.0, 19.0, 26.0), (-82.0, 13.5, 20.5), (-115.0, -7.0, 1.0)] {
            let cfg = ChannelConfig { rss_dbm: rss, ..Default::default() };
            let states = run(cfg, 8, 60);
            let mean = states.iter().map(|s| s.sinr_db).sum::<f64>() / states.len() as f64;
            assert!((lo..hi).contains(&mean), "rss {rss}: mean sinr {mean}");
        }
    }

    #[test]
    fn one_long_static_advance_has_the_law_of_its_subframes() {
        // SINR after 300 subframes, from the same start, one transition
        // against 300: same mean and spread over 4 000 channels each, and
        // the subframe after the jump is back on the cached 1 ms cadence.
        let k = 300u64;
        let moments = |jump: bool| -> (f64, f64) {
            let n = 4_000u64;
            let (mut sum, mut sumsq) = (0.0, 0.0);
            for seed in 0..n {
                let mut ch =
                    Channel::new(ChannelConfig::default(), seed + if jump { n } else { 0 });
                let sinr_db = if jump {
                    ch.advance_static(k).sinr_db
                } else {
                    (0..k).fold(0.0, |_, sf| ch.subframe(SimTime::from_millis(sf)).sinr_db)
                };
                sum += sinr_db;
                sumsq += sinr_db * sinr_db;
            }
            let mean = sum / n as f64;
            (mean, (sumsq / n as f64 - mean * mean).sqrt())
        };
        let ((mean_jump, std_jump), (mean_walk, std_walk)) = (moments(true), moments(false));
        assert!((mean_jump - mean_walk).abs() < 0.15, "means {mean_jump} vs {mean_walk}");
        assert!((std_jump / std_walk - 1.0).abs() < 0.06, "stds {std_jump} vs {std_walk}");

        let mut ch = Channel::new(ChannelConfig::default(), 3);
        ch.subframe(SimTime::ZERO);
        let before = ch.advance_static(k).sinr_db;
        let after = ch.subframe(SimTime::from_millis(k + 1)).sinr_db;
        assert!((after - before).abs() < 1.0, "a 1 ms step moved SINR {before} -> {after}");
        let driving = Channel::new(ChannelConfig { speed_mph: 30.0, ..Default::default() }, 3);
        assert!(driving.next_handover < SimTime::MAX && ch.next_handover == SimTime::MAX);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(ChannelConfig::default(), 9, 5);
        let b = run(ChannelConfig::default(), 9, 5);
        assert_eq!(a, b);
    }
}
