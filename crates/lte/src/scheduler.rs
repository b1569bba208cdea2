//! eNodeB proportional-fair uplink grant model.
//!
//! What FBCC exploits is not the PF algorithm in full generality but its
//! observable consequence at the UE (paper §3.3, Fig. 5): *the uplink
//! service rate grows with the UE's reported backlog and saturates at the
//! UE's fair share of cell capacity*. The grant model reproduces exactly
//! that:
//!
//! ```text
//! grant_bits = cap_bits(cqi, share_prbs) · B / (B + B_half)
//! ```
//!
//! * `share_prbs` is the UE's PF share of PRBs — reduced when competing
//!   cell load is high, and boosted for poor-channel UEs (PF equalizes
//!   long-term *rates*, so it hands more PRBs to slow channels).
//! * The saturating factor `B/(B+B_half)` models backlog-weighted PRB
//!   allocation: small reported backlogs earn proportionally small grants
//!   (the eNodeB spends PRBs where queues are), which is the linear region
//!   of Fig. 5; large backlogs saturate at the fair share.
//! * A 10 % initial-transmission HARQ failure rate wastes the occasional
//!   grant, as on a real 10 %-BLER operating point.

use crate::tbs;
use poi360_sim::rng::SimRng;

/// Backlog at which the grant reaches half its saturation value (bytes).
/// Sets the slope of the Fig. 5 linear region.
const BACKLOG_HALF_BYTES: f64 = 4_000.0;
/// Fraction of the UE's PRB share lost when the cell is fully loaded.
const LOAD_PRB_PENALTY: f64 = 0.7;

/// Scheduler model parameters.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// PF share of PRBs for this UE at top CQI in an idle cell.
    pub ue_base_prbs: f64,
    /// Cap on PF compensation for poor channels.
    pub max_prbs: u32,
    /// Delay between the buffer level existing and the eNodeB knowing it
    /// (BSR/SR reporting latency), in subframes. At most 10, the capacity
    /// of the UE's inline BSR ring: building the uplink asserts it.
    pub bsr_delay_subframes: usize,
    /// Probability an initial HARQ transmission fails and the grant is
    /// wasted (re-served later).
    pub harq_fail_prob: f64,
    /// Per-subframe multiplicative jitter half-width on the share
    /// (scheduler decisions are noisy: other UEs' traffic is bursty).
    pub share_jitter: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            ue_base_prbs: 8.0,
            max_prbs: 25,
            bsr_delay_subframes: 6,
            harq_fail_prob: 0.10,
            share_jitter: 0.15,
        }
    }
}

/// The grant engine.
#[derive(Clone, Debug)]
pub struct PfScheduler {
    cfg: SchedulerConfig,
    rng: SimRng,
}

impl PfScheduler {
    /// Create a scheduler.
    pub fn new(cfg: SchedulerConfig, seed: u64) -> Self {
        PfScheduler { cfg, rng: SimRng::stream(seed, "lte.scheduler") }
    }

    /// The UE's PRB share this subframe given channel and cell load.
    #[inline]
    fn share_prbs(&mut self, eff: f64, load_frac: f64) -> f64 {
        if eff <= 0.0 {
            return 0.0;
        }
        // PF long-term rate equalization: poor channels get more PRBs,
        // sub-linearly (sqrt) so capacity still degrades with channel.
        let pf_boost = (tbs::cqi_efficiency(tbs::MAX_CQI) / eff).sqrt();
        let jitter = 1.0 + self.rng.uniform_range(-self.cfg.share_jitter, self.cfg.share_jitter);
        let share = self.cfg.ue_base_prbs
            * pf_boost
            * jitter
            * (1.0 - LOAD_PRB_PENALTY * load_frac.clamp(0.0, 1.0));
        share.clamp(0.0, self.cfg.max_prbs as f64)
    }

    /// Grant for this subframe, in bits actually served (0 on HARQ loss).
    ///
    /// `reported_backlog_bytes` is the BSR-delayed buffer level the eNodeB
    /// believes; `load_frac` the competing cell load in `[0, 1]`.
    pub fn grant_bits(&mut self, reported_backlog_bytes: u64, cqi: u8, load_frac: f64) -> u32 {
        self.grant_bits_eff(reported_backlog_bytes, tbs::cqi_efficiency(cqi), load_frac)
    }

    /// Like [`PfScheduler::grant_bits`] but taking a smooth spectral
    /// efficiency (bits/RE) directly — what the uplink uses, fed from
    /// [`tbs::smooth_efficiency`].
    #[inline]
    pub fn grant_bits_eff(&mut self, reported_backlog_bytes: u64, eff: f64, load_frac: f64) -> u32 {
        if eff <= 0.0 || reported_backlog_bytes == 0 {
            return 0;
        }
        let share = self.share_prbs(eff, load_frac);
        let cap_bits = eff * tbs::DATA_RE_PER_PRB * share;
        let b = reported_backlog_bytes as f64;
        // PF weighs backlog in queue *time*, not bytes: the half-saturation
        // backlog scales with the UE's own service rate, so a slow link
        // saturates its share from a proportionally smaller queue (and the
        // mandatory standing-queue *delay* is rate-independent).
        let nominal_cap = tbs::bits_per_prb(tbs::MAX_CQI) * self.cfg.ue_base_prbs;
        let half = (BACKLOG_HALF_BYTES * (cap_bits / nominal_cap).min(2.0)).max(250.0);
        let factor = b / (b + half);
        // Never grant (much) beyond the reported backlog.
        let grant = (cap_bits * factor).min(tbs::grant_ceiling_bits(reported_backlog_bytes));
        if self.rng.chance(self.cfg.harq_fail_prob) {
            return 0; // initial transmission lost; retransmission reuses a later grant
        }
        // `x as u32` is `x.floor() as u32` for every f64 (NaN, negative, huge).
        grant as u32
    }
}

/// The saturation throughput (bits per subframe) of [`PfScheduler`] at
/// the given channel and load, i.e. the asymptote of the Fig. 5 curve,
/// in closed form: the oracle the grant law and the scenarios are tested
/// against.
#[cfg(test)]
pub(crate) fn saturation_bits_per_subframe(cfg: &SchedulerConfig, cqi: u8, load_frac: f64) -> f64 {
    if cqi == 0 {
        return 0.0;
    }
    let pf_boost = (tbs::cqi_efficiency(tbs::MAX_CQI) / tbs::cqi_efficiency(cqi)).sqrt();
    let share =
        (cfg.ue_base_prbs * pf_boost * (1.0 - LOAD_PRB_PENALTY * load_frac.clamp(0.0, 1.0)))
            .clamp(0.0, cfg.max_prbs as f64);
    tbs::bits_per_prb(cqi) * share * (1.0 - cfg.harq_fail_prob)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_grant(backlog: u64, cqi: u8, load: f64, seed: u64) -> f64 {
        let mut s = PfScheduler::new(SchedulerConfig::default(), seed);
        let n = 20_000;
        (0..n).map(|_| s.grant_bits(backlog, cqi, load) as f64).sum::<f64>() / n as f64
    }

    #[test]
    fn zero_backlog_zero_grant() {
        let mut s = PfScheduler::new(SchedulerConfig::default(), 1);
        assert_eq!(s.grant_bits(0, 15, 0.0), 0);
    }

    #[test]
    fn zero_cqi_zero_grant() {
        let mut s = PfScheduler::new(SchedulerConfig::default(), 2);
        assert_eq!(s.grant_bits(10_000, 0, 0.0), 0);
    }

    #[test]
    fn grant_grows_with_backlog_then_saturates() {
        // The Fig. 5 shape: monotone growth, saturating.
        let g2 = mean_grant(2_000, 15, 0.15, 3);
        let g8 = mean_grant(8_000, 15, 0.15, 3);
        let g15 = mean_grant(15_000, 15, 0.15, 3);
        let g40 = mean_grant(40_000, 15, 0.15, 3);
        let g80 = mean_grant(80_000, 15, 0.15, 3);
        assert!(g2 < g8 && g8 < g15 && g15 < g40, "{g2} {g8} {g15} {g40}");
        // Saturation: doubling a large backlog gains little.
        assert!((g80 - g40) / g40 < 0.12, "g40 {g40} g80 {g80}");
    }

    #[test]
    fn saturation_rate_in_papers_ballpark() {
        // Fig. 5's y-axis tops out around 5–6 Mbps.
        let sat = saturation_bits_per_subframe(&SchedulerConfig::default(), 15, 0.15);
        let sat_mbps = sat * 1000.0 / 1e6;
        assert!((3.0..6.5).contains(&sat_mbps), "saturation {sat_mbps} Mbps");
    }

    #[test]
    fn empirical_matches_analytic_saturation() {
        let analytic = saturation_bits_per_subframe(&SchedulerConfig::default(), 15, 0.0);
        let measured = mean_grant(500_000, 15, 0.0, 5);
        assert!((measured / analytic - 1.0).abs() < 0.1, "measured {measured} analytic {analytic}");
    }

    #[test]
    fn load_reduces_grants() {
        let idle = mean_grant(20_000, 15, 0.1, 6);
        let busy = mean_grant(20_000, 15, 0.7, 6);
        assert!(busy < idle * 0.75, "busy {busy} idle {idle}");
    }

    #[test]
    fn pf_compensates_weak_channels_partially() {
        let strong = mean_grant(50_000, 15, 0.15, 7);
        let weak = mean_grant(50_000, 2, 0.15, 7);
        // Weak channel is slower…
        assert!(weak < strong * 0.5, "weak {weak} strong {strong}");
        // …but not proportionally to raw spectral efficiency (PF boost):
        let eff_ratio = tbs::cqi_efficiency(2) / tbs::cqi_efficiency(15);
        assert!(weak / strong > eff_ratio * 1.5, "PF boost missing");
    }

    #[test]
    fn harq_costs_about_its_probability() {
        let cfg = SchedulerConfig { harq_fail_prob: 0.0, ..Default::default() };
        let mut s0 = PfScheduler::new(cfg, 8);
        let n = 20_000;
        let no_harq: f64 =
            (0..n).map(|_| s0.grant_bits(50_000, 15, 0.15) as f64).sum::<f64>() / n as f64;
        let with_harq = mean_grant(50_000, 15, 0.15, 8);
        let ratio = with_harq / no_harq;
        assert!((ratio - 0.9).abs() < 0.04, "HARQ ratio {ratio}");
    }

    #[test]
    fn grant_never_wildly_exceeds_backlog() {
        let mut s = PfScheduler::new(SchedulerConfig::default(), 9);
        for _ in 0..1_000 {
            let g = s.grant_bits(100, 15, 0.0);
            assert!(g <= 100 * 8 + 256, "grant {g} for 100-byte backlog");
        }
    }
}
