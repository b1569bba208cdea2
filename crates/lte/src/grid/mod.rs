//! The network layer above a single cell: eNodeB geometry, UE mobility,
//! radio-map path loss with neighbor-cell interference, and A3 handover.
//!
//! The paper's field study was pinned to whatever commercial cell the
//! instrumented phone happened to camp on; this module builds the
//! multi-cell world those experiments could not control. A [`hex::HexGrid`]
//! places eNodeBs, [`mobility::GroundMotion`] drives UEs across cell
//! boundaries, [`RadioMap`] turns positions into per-UE SINR/CQI with
//! distance + shadowing path loss and previous-subframe neighbor-cell
//! activity as interference, and [`handover::A3State`] decides when a UE
//! detaches from its serving [`crate::cell::Cell`] and re-attaches on the
//! target (its firmware buffer travels with it; a late handover becomes an
//! RLF that flushes the buffer through the same RRC re-establishment path
//! the fault plane exercises).
//!
//! The radio plane runs at two rates, like the UE it models. A UE's RSRP
//! toward every site is *sampled* once per 40 ms L1 measurement period —
//! shadowing stepped by the whole elapsed interval (the OU transition is
//! exact for any step, so the process law is untouched), path loss taken
//! at the UE's position at that tick — and *held* in between; SINR, link
//! adaptation and the A3/RLF timers run every subframe on the held rows
//! and the previous subframe's cell activity.
//!
//! Everything here is deterministic: each UE's shadowing and trajectory
//! come from streams keyed by the UE's *name*, and interference uses the
//! previous subframe's published cell activity, so a lockstep multi-cell
//! run is a pure function of its master seed regardless of attach order
//! or thread count.

pub mod handover;
pub mod hex;
pub mod mobility;

pub use handover::{A3Config, A3State, HoDecision};
pub use hex::{CellId, HexGrid};
pub use mobility::{GroundMotion, MobilityKind};

use crate::channel::ChannelState;
use crate::tbs;
use poi360_sim::process::OrnsteinUhlenbeck;
use poi360_sim::rng::SimRng;
use poi360_sim::time::SimDuration;

/// Path-loss / interference model parameters.
///
/// Log-distance path loss `PL(d) = pl0 + 10·n·log10(max(d, d0)/d0)` with
/// per-(UE, cell) log-normal shadowing, calibrated so a UE near a site
/// sees the paper's strong-signal tier (CQI 15) and a cell-edge UE on a
/// half-loaded grid lands in the moderate tier.
#[derive(Clone, Copy, Debug)]
pub struct RadioConfig {
    /// eNodeB reference transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Path loss at the reference distance, dB.
    pub pl0_db: f64,
    /// Reference distance, meters.
    pub d0_m: f64,
    /// Path-loss exponent.
    pub exponent: f64,
    /// Thermal noise floor, dBm.
    pub noise_dbm: f64,
    /// Shadowing stationary std, dB.
    pub shadow_std_db: f64,
    /// Shadowing correlation time, seconds.
    pub shadow_tau_secs: f64,
    /// SINR below which the UE cannot hold uplink sync (grants stop).
    pub outage_sinr_db: f64,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig {
            tx_power_dbm: 10.0,
            pl0_db: 70.0,
            d0_m: 25.0,
            exponent: 3.0,
            noise_dbm: -100.0,
            shadow_std_db: 3.0,
            shadow_tau_secs: 8.0,
            outage_sinr_db: -6.0,
        }
    }
}

impl RadioConfig {
    /// Deterministic (shadowing-free) RSRP at distance `d_m`, dBm.
    pub fn mean_rsrp_dbm(&self, d_m: f64) -> f64 {
        let d = d_m.max(self.d0_m);
        self.tx_power_dbm - self.pl0_db - 10.0 * self.exponent * (d / self.d0_m).log10()
    }
}

/// Handle to a UE registered with a [`RadioMap`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RadioUe(usize);

impl RadioUe {
    /// Registration order: this UE's place in
    /// [`RadioMap::advance_all`]'s `positions`.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One subframe's radio measurements for a UE.
#[derive(Clone, Copy, Debug)]
pub struct RadioObservation {
    /// Serving-cell RSRP, dBm (with shadowing).
    pub serving_rsrp_dbm: f64,
    /// Strongest non-serving cell and its RSRP, dBm.
    pub best_neighbor: Option<(CellId, f64)>,
    /// Serving SINR with neighbor-cell interference, dB.
    pub sinr_db: f64,
}

impl RadioObservation {
    /// The [`ChannelState`] a cell should schedule this UE with.
    /// `forced_outage` covers handover/re-establishment interruption.
    pub fn channel_state(&self, cfg: &RadioConfig, forced_outage: bool) -> ChannelState {
        ChannelState {
            sinr_db: self.sinr_db,
            cqi: tbs::sinr_to_cqi(self.sinr_db),
            in_outage: forced_outage || self.sinr_db < cfg.outage_sinr_db,
        }
    }
}

/// How often a UE samples RSRP: LTE's 40 ms L1 measurement period (and the
/// `Dp` the paper's own diagnostic instrument reports at). Between samples
/// the rows are held: over one period the grid's shadowing (tau = 8 s)
/// drifts 0.3 dB RMS and a 30 m/s UE's path loss at most 0.6 dB, against a
/// 3 dB A3 hysteresis and ~2 dB CQI steps.
const MEASUREMENT_PERIOD: SimDuration = SimDuration::from_millis(40);

/// One UE's radio state toward every site. Owned data only — its own
/// RNG, shadowing tracks, measurement clock and rows — so distinct UEs
/// advance on distinct threads without sharing anything but the read-only
/// model.
struct UeRadio {
    /// Drives all of this UE's shadowing tracks (stream keyed by name).
    rng: SimRng,
    /// One Ornstein–Uhlenbeck shadowing process per cell, in cell order.
    shadows: Vec<OrnsteinUhlenbeck>,
    /// Time advanced since the last sample. Starts at a full period, so
    /// the first advance samples whatever its `dt`.
    pending: SimDuration,
    /// RSRP toward each cell as of the last sample, dBm.
    rsrp_dbm: Vec<f64>,
    /// The same row in linear milliwatts: the interference sum's
    /// activity-independent factor, so no `powf` is left for the
    /// measurement.
    mw: Vec<f64>,
}

impl UeRadio {
    /// Account for `dt` of elapsed time; true when a sample is now due.
    fn accrue(&mut self, dt: SimDuration) -> bool {
        self.pending += dt;
        self.due()
    }

    fn due(&self) -> bool {
        self.pending >= MEASUREMENT_PERIOD
    }

    /// Take the due sample: step every shadowing track once by the whole
    /// interval since the last one and store both rows for a UE standing
    /// at `(x, y)`. Nothing here reads serving cell or activity.
    fn sample(&mut self, cfg: &RadioConfig, grid: &HexGrid, x: f64, y: f64) {
        let dt = std::mem::replace(&mut self.pending, SimDuration::ZERO);
        for (c, ou) in self.shadows.iter_mut().enumerate() {
            let shadow = ou.step(dt, &mut self.rng);
            let d = grid.distance_m(CellId(c), x, y);
            let rsrp = cfg.mean_rsrp_dbm(d) + shadow;
            self.rsrp_dbm[c] = rsrp;
            self.mw[c] = dbm_to_mw(rsrp);
        }
    }
}

/// Per-(UE, cell) radio state: path loss from the grid geometry plus an
/// independent Ornstein–Uhlenbeck shadowing track toward every site.
///
/// An observation is two steps at two rates. [`RadioMap::advance`] is
/// everything that depends only on the UE's own position and randomness
/// (the Gaussian draw, `log10` and `powf` per cell — nearly all of the
/// cost): it only accumulates time until a measurement period has passed,
/// then samples the UE's rows once, and [`RadioMap::advance_all`] does so
/// for every UE, across the worker pool on the ticks that sample.
/// [`RadioMap::measure`] is the cheap per-subframe remainder that needs
/// the serving cell and the cells' activity; it reads the rows as last
/// sampled. [`RadioMap::observe`] is the two in sequence.
pub struct RadioMap {
    cfg: RadioConfig,
    /// `cfg.noise_dbm` in milliwatts: the SINR denominator's constant term.
    noise_mw: f64,
    grid: HexGrid,
    /// UE-major: one contiguous, exclusively borrowed entry per UE.
    ues: Vec<UeRadio>,
}

impl RadioMap {
    /// Build an empty map over the grid.
    pub fn new(cfg: RadioConfig, grid: HexGrid) -> Self {
        RadioMap { cfg, noise_mw: dbm_to_mw(cfg.noise_dbm), grid, ues: Vec::new() }
    }

    /// Model parameters in use.
    pub fn config(&self) -> &RadioConfig {
        &self.cfg
    }

    /// The grid geometry this map covers.
    pub fn grid(&self) -> &HexGrid {
        &self.grid
    }

    /// Register a UE. All its shadowing randomness derives from
    /// `master_seed` and `name`, so registration order is irrelevant.
    pub fn register_ue(&mut self, master_seed: u64, name: &str) -> RadioUe {
        let n = self.grid.len();
        let mut rng = SimRng::stream(master_seed, &format!("grid.shadow.{name}"));
        let mut shadows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut ou = OrnsteinUhlenbeck::with_stationary(
                0.0,
                self.cfg.shadow_std_db,
                self.cfg.shadow_tau_secs,
            );
            // Start each track at a stationary draw, not at zero, so the
            // first seconds of a run are not artificially shadow-free.
            ou.set_value(rng.normal(0.0, self.cfg.shadow_std_db));
            shadows.push(ou);
        }
        self.ues.push(UeRadio {
            rng,
            shadows,
            pending: MEASUREMENT_PERIOD,
            rsrp_dbm: vec![0.0; n],
            mw: vec![0.0; n],
        });
        RadioUe(self.ues.len() - 1)
    }

    /// Advance one UE's measurement clock by `dt`. When that completes a
    /// measurement period, step its shadowing by the time since the last
    /// sample and store its RSRP toward every cell from `(x, y)` for
    /// [`RadioMap::measure`] to read; otherwise the stored rows are held.
    pub fn advance(&mut self, ue: RadioUe, dt: SimDuration, x: f64, y: f64) {
        let ue = &mut self.ues[ue.0];
        if ue.accrue(dt) {
            ue.sample(&self.cfg, &self.grid, x, y);
        }
    }

    /// [`RadioMap::advance`] for every registered UE. `positions` is
    /// indexed by registration order. The clocks advance serially; only a
    /// tick on which some UE is due dispatches the sampling, on up to
    /// `width` threads of the process-wide pool. A UE's sample depends on
    /// nothing but its own streams, clock and position, so the width
    /// cannot reach any output.
    pub fn advance_all(&mut self, width: usize, dt: SimDuration, positions: &[(f64, f64)]) {
        assert_eq!(positions.len(), self.ues.len(), "one position per registered UE");
        let mut any_due = false;
        for ue in &mut self.ues {
            any_due |= ue.accrue(dt);
        }
        if !any_due {
            return;
        }
        let (cfg, grid) = (&self.cfg, &self.grid);
        poi360_sim::workers::global().for_each_mut(width, &mut self.ues, |i, ue| {
            if ue.due() {
                let (x, y) = positions[i];
                ue.sample(cfg, grid, x, y);
            }
        });
    }

    /// Measure the radio as last sampled. `activity` is each cell's
    /// previous-subframe PRB utilization in `[0, 1]`, which scales its
    /// interference contribution; `serving` selects whose signal is the
    /// numerator.
    pub fn measure(&self, ue: RadioUe, serving: CellId, activity: &[f64]) -> RadioObservation {
        let UeRadio { rsrp_dbm, mw, .. } = &self.ues[ue.0];
        debug_assert_eq!(activity.len(), rsrp_dbm.len());
        let serving_rsrp_dbm = rsrp_dbm[serving.0];
        let mut best_neighbor: Option<(CellId, f64)> = None;
        let mut interference_mw = 0.0;
        for (c, &rsrp) in rsrp_dbm.iter().enumerate() {
            if c == serving.0 {
                continue;
            }
            // Reciprocity proxy for uplink inter-cell interference: the
            // louder a neighbor site sounds to this UE and the busier
            // that cell was last subframe, the more its uplink traffic
            // degrades this UE's grants.
            interference_mw += mw[c] * activity[c].clamp(0.0, 1.0);
            if best_neighbor.is_none_or(|(_, b)| rsrp > b) {
                best_neighbor = Some((CellId(c), rsrp));
            }
        }
        let denom_mw = self.noise_mw + interference_mw;
        let sinr_db = serving_rsrp_dbm - mw_to_dbm(denom_mw);
        RadioObservation { serving_rsrp_dbm, best_neighbor, sinr_db }
    }

    /// [`RadioMap::advance`] then [`RadioMap::measure`]: one UE's whole
    /// observation for this subframe.
    pub fn observe(
        &mut self,
        ue: RadioUe,
        dt: SimDuration,
        x: f64,
        y: f64,
        serving: CellId,
        activity: &[f64],
    ) -> RadioObservation {
        self.advance(ue, dt, x, y);
        self.measure(ue, serving, activity)
    }
}

fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

fn mw_to_dbm(mw: f64) -> f64 {
    10.0 * mw.log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_sim::SUBFRAME;

    fn map() -> RadioMap {
        RadioMap::new(RadioConfig::default(), HexGrid::new(1, 500.0))
    }

    #[test]
    fn near_site_is_top_cqi_far_site_is_not() {
        let mut m = map();
        let ue = m.register_ue(1, "ue.0");
        let idle = vec![0.0; 7];
        let near = m.observe(ue, SUBFRAME, 30.0, 0.0, CellId(0), &idle);
        assert!(near.sinr_db > 20.0, "near-site SINR {}", near.sinr_db);
        assert_eq!(near.channel_state(m.config(), false).cqi, 15);
        // A full period later, so the far position is sampled, not held.
        let far = m.observe(ue, MEASUREMENT_PERIOD, 420.0, 0.0, CellId(0), &idle);
        assert!(far.sinr_db < near.sinr_db - 10.0, "far {} near {}", far.sinr_db, near.sinr_db);
    }

    #[test]
    fn busy_neighbors_depress_sinr() {
        let mut m = map();
        let ue = m.register_ue(2, "ue.0");
        // Cell edge between site 0 (origin) and its +x neighbor.
        let (x, y) = (250.0, 0.0);
        let quiet = m.observe(ue, SUBFRAME, x, y, CellId(0), &[0.0; 7]);
        let busy = m.observe(ue, SUBFRAME, x, y, CellId(0), &[0.8; 7]);
        assert!(
            busy.sinr_db < quiet.sinr_db - 3.0,
            "busy {} quiet {}",
            busy.sinr_db,
            quiet.sinr_db
        );
    }

    #[test]
    fn best_neighbor_tracks_geometry() {
        let cfg = RadioConfig { shadow_std_db: 0.0, ..RadioConfig::default() };
        let mut m0 = RadioMap::new(cfg, HexGrid::new(1, 500.0));
        let ue = m0.register_ue(3, "ue.0");
        let obs = m0.observe(ue, SUBFRAME, 350.0, 0.0, CellId(0), &[0.2; 7]);
        // The +x neighbor's center is at (500, 0): 150 m away vs 350 m.
        let (target, rsrp) = obs.best_neighbor.expect("six neighbors exist");
        let (cx, cy) = m0.grid().center_of(target);
        assert_eq!((cx, cy), (500.0, 0.0));
        assert!(rsrp > obs.serving_rsrp_dbm);
    }

    /// The single-pass, every-call `observe` this module first shipped,
    /// body kept verbatim: the oracle the two-rate map is held bit-equal
    /// to, sampled at the map's cadence.
    struct SinglePass {
        cfg: RadioConfig,
        grid: HexGrid,
        shadows: Vec<OrnsteinUhlenbeck>,
        rngs: Vec<SimRng>,
        rsrp_scratch: Vec<f64>,
    }

    impl SinglePass {
        fn new(cfg: RadioConfig, grid: HexGrid) -> Self {
            let n = grid.len();
            SinglePass {
                cfg,
                grid,
                shadows: Vec::new(),
                rngs: Vec::new(),
                rsrp_scratch: vec![0.0; n],
            }
        }

        fn register_ue(&mut self, master_seed: u64, name: &str) -> RadioUe {
            let mut rng = SimRng::stream(master_seed, &format!("grid.shadow.{name}"));
            for _ in 0..self.grid.len() {
                let mut ou = OrnsteinUhlenbeck::with_stationary(
                    0.0,
                    self.cfg.shadow_std_db,
                    self.cfg.shadow_tau_secs,
                );
                ou.set_value(rng.normal(0.0, self.cfg.shadow_std_db));
                self.shadows.push(ou);
            }
            self.rngs.push(rng);
            RadioUe(self.rngs.len() - 1)
        }

        fn observe(
            &mut self,
            ue: RadioUe,
            dt: SimDuration,
            x: f64,
            y: f64,
            serving: CellId,
            activity: &[f64],
        ) -> RadioObservation {
            let n = self.grid.len();
            debug_assert_eq!(activity.len(), n);
            let rng = &mut self.rngs[ue.0];
            for c in 0..n {
                let shadow = self.shadows[ue.0 * n + c].step(dt, rng);
                let d = self.grid.distance_m(CellId(c), x, y);
                self.rsrp_scratch[c] = self.cfg.mean_rsrp_dbm(d) + shadow;
            }

            let serving_rsrp_dbm = self.rsrp_scratch[serving.0];
            let mut best_neighbor: Option<(CellId, f64)> = None;
            let mut interference_mw = 0.0;
            for (c, &rsrp) in self.rsrp_scratch.iter().enumerate() {
                if c == serving.0 {
                    continue;
                }
                interference_mw += dbm_to_mw(rsrp) * activity[c].clamp(0.0, 1.0);
                if best_neighbor.is_none_or(|(_, b)| rsrp > b) {
                    best_neighbor = Some((CellId(c), rsrp));
                }
            }
            let denom_mw = dbm_to_mw(self.cfg.noise_dbm) + interference_mw;
            let sinr_db = serving_rsrp_dbm - mw_to_dbm(denom_mw);
            RadioObservation { serving_rsrp_dbm, best_neighbor, sinr_db }
        }

        /// The measurement half of [`SinglePass::observe`], same
        /// expressions, over a row retained from an earlier call: what a UE
        /// that does not re-sample this subframe reads.
        fn remeasure(&self, row: &[f64], serving: CellId, activity: &[f64]) -> RadioObservation {
            let serving_rsrp_dbm = row[serving.0];
            let mut best_neighbor: Option<(CellId, f64)> = None;
            let mut interference_mw = 0.0;
            for (c, &rsrp) in row.iter().enumerate() {
                if c == serving.0 {
                    continue;
                }
                interference_mw += dbm_to_mw(rsrp) * activity[c].clamp(0.0, 1.0);
                if best_neighbor.is_none_or(|(_, b)| rsrp > b) {
                    best_neighbor = Some((CellId(c), rsrp));
                }
            }
            let denom_mw = dbm_to_mw(self.cfg.noise_dbm) + interference_mw;
            let sinr_db = serving_rsrp_dbm - mw_to_dbm(denom_mw);
            RadioObservation { serving_rsrp_dbm, best_neighbor, sinr_db }
        }
    }

    fn bits(o: &RadioObservation) -> (u64, Option<(CellId, u64)>, u64) {
        (
            o.serving_rsrp_dbm.to_bits(),
            o.best_neighbor.map(|(c, r)| (c, r.to_bits())),
            o.sinr_db.to_bits(),
        )
    }

    #[test]
    fn two_rate_map_is_bit_equal_to_the_single_pass_oracle_sampled_at_the_period() {
        // 7 ms does not divide the period: samples land every 42 ms.
        for (rings, dt) in [(1, 1), (4, 1), (1, 7), (4, 7)] {
            let dt = SimDuration::from_millis(dt);
            let grid = HexGrid::new(rings, 160.0);
            let n = grid.len();
            let mut map = RadioMap::new(RadioConfig::default(), grid.clone());
            let mut oracle = SinglePass::new(RadioConfig::default(), grid);
            let names = ["fg.00", "ld.003", "ld.017"];
            let ues: Vec<RadioUe> = names.iter().map(|nm| map.register_ue(11, nm)).collect();
            for nm in names {
                oracle.register_ue(11, nm);
            }
            // The oracle's side of the cadence: each UE's time since its
            // last sample, and the row that sample left behind.
            let mut pending = vec![MEASUREMENT_PERIOD; ues.len()];
            let mut rows = vec![vec![0.0; n]; ues.len()];
            let mut want = |k: usize, dt, (x, y), serving, activity: &[f64]| {
                pending[k] += dt;
                if pending[k] < MEASUREMENT_PERIOD {
                    return (oracle.remeasure(&rows[k], serving, activity), false);
                }
                let elapsed = std::mem::replace(&mut pending[k], SimDuration::ZERO);
                let sampled = oracle.observe(ues[k], elapsed, x, y, serving, activity);
                rows[k].copy_from_slice(&oracle.rsrp_scratch);
                (sampled, true)
            };
            // Put one UE on a phase of its own: the pooled entry point
            // must sample exactly the UEs that are due.
            let offset = SimDuration::from_millis(13);
            let idle = vec![0.0; n];
            let got = map.observe(ues[1], offset, 5.0, 5.0, CellId(0), &idle);
            assert_eq!(bits(&got), bits(&want(1, offset, (5.0, 5.0), CellId(0), &idle).0));

            let mut act_rng = SimRng::stream(5, "activity");
            let mut activity = vec![0.0; n];
            let mut positions = vec![(0.0, 0.0); ues.len()];
            let mut samples_by_entry_point = [0u32; 2];
            for step in 0..2_000usize {
                // Idle cells, saturated ones, and out-of-range inputs on
                // both sides of the clamp.
                for (c, a) in activity.iter_mut().enumerate() {
                    *a = match (step + c) % 5 {
                        0 => 0.0,
                        1 => 1.0 + act_rng.uniform_range(0.0, 2.0),
                        2 => -act_rng.uniform_range(0.0, 1.0),
                        _ => act_rng.uniform_range(0.0, 1.0),
                    };
                }
                for (k, p) in positions.iter_mut().enumerate() {
                    *p = (-200.0 + 0.03 * step as f64 + 40.0 * k as f64, 12.0 * k as f64 - 9.0);
                }
                let serving = |k: usize| CellId((step / 97 + 3 * k) % n);
                // A coin picks the pooled or the per-UE entry point: same
                // rows either way, on sampling ticks and on held ones.
                let pooled = act_rng.next_u64() & 1 == 1;
                if pooled {
                    map.advance_all(2, dt, &positions);
                }
                for (k, &ue) in ues.iter().enumerate() {
                    let (x, y) = positions[k];
                    let got = if pooled {
                        map.measure(ue, serving(k), &activity)
                    } else {
                        map.observe(ue, dt, x, y, serving(k), &activity)
                    };
                    let (want, sampled) = want(k, dt, (x, y), serving(k), &activity);
                    samples_by_entry_point[pooled as usize] += sampled as u32;
                    assert_eq!(bits(&got), bits(&want), "{n} cells, dt {dt}, step {step}, ue {k}");
                }
            }
            assert!(samples_by_entry_point.iter().all(|&s| s > 10), "{samples_by_entry_point:?}");
        }
    }

    #[test]
    fn rows_are_sampled_exactly_once_per_period_and_held_in_between() {
        // With shadowing on, every sample reads a new RSRP, so the number
        // of distinct readings is the number of samples taken.
        let idle = vec![0.0; 7];
        for n in [1usize, 40, 41, 1_003] {
            let mut m = map();
            let ue = m.register_ue(4, "ue.0");
            let distinct: std::collections::BTreeSet<u64> = (0..n)
                .map(|_| m.observe(ue, SUBFRAME, 120.0, 40.0, CellId(0), &idle))
                .map(|o| o.serving_rsrp_dbm.to_bits())
                .collect();
            assert_eq!(distinct.len(), n.div_ceil(40), "{n} subframes");
        }
    }

    #[test]
    fn a_held_rsrp_stays_within_0_7_db_of_the_true_path_loss_at_30_mps() {
        // No shadowing, so the only error is the hold itself: up to 39 ms
        // of radial motion since the position the row was sampled at. It
        // is largest where path loss is steepest, at the reference distance.
        let cfg = RadioConfig { shadow_std_db: 0.0, ..RadioConfig::default() };
        let idle = vec![0.0; 7];
        let metres_per_subframe = 30.0 * SUBFRAME.as_secs_f64();
        for outward in [true, false] {
            let mut m = RadioMap::new(cfg, HexGrid::new(1, 500.0));
            let ue = m.register_ue(5, "ue.0");
            let mut worst: f64 = 0.0;
            for step in 0..10_000 {
                let travelled = metres_per_subframe * step as f64;
                let d = cfg.d0_m + if outward { travelled } else { 300.0 - travelled };
                let held = m.observe(ue, SUBFRAME, d, 0.0, CellId(0), &idle).serving_rsrp_dbm;
                worst = worst.max((held - cfg.mean_rsrp_dbm(d)).abs());
            }
            assert!(worst <= 0.7, "outward {outward}: held RSRP off by {worst} dB");
            assert!(worst > 0.3, "outward {outward}: nothing was held ({worst} dB)");
        }
    }

    #[test]
    fn registration_order_does_not_change_a_ue_track() {
        let run = |names: &[&str]| {
            let mut m = map();
            let ues: Vec<RadioUe> = names.iter().map(|n| m.register_ue(7, n)).collect();
            let target = ues[names.iter().position(|&n| n == "ue.x").unwrap()];
            let act = vec![0.3; 7];
            (0..2_000)
                .map(|_| m.observe(target, SUBFRAME, 200.0, 50.0, CellId(0), &act).sinr_db)
                .collect::<Vec<f64>>()
        };
        let a = run(&["ue.x", "ue.y", "ue.z"]);
        let b = run(&["ue.z", "ue.y", "ue.x"]);
        assert_eq!(a, b, "a UE's shadowing must be keyed by name, not index");
    }
}
