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
//! and the previous subframe's cell activity. That per-subframe
//! measurement is one kernel, run for all UEs in one pass with several
//! UEs' interference sums in flight at once; each sum is still the same
//! adds in the same cell order, so batching changes no bit.
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

/// UEs [`RadioMap::measure_all`] measures side by side. One UE's
/// interference sum is a chain of dependent adds, each waiting ~4 cycles
/// for the last; several chains in flight keep the adder busy instead.
/// Four to eight measure alike (31-32 ns per UE on 61 cells, 57 alone).
const MEASURE_BLOCK: usize = 8;

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
    /// [`top2`] of `rsrp_dbm`: whichever of the two is not the serving
    /// cell is the best neighbor, so no measurement scans the row for it.
    strongest: (CellId, Option<CellId>),
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
        self.strongest = top2(&self.rsrp_dbm);
    }
}

/// The strongest cell of an RSRP row and the strongest of the rest (`None`
/// on a one-cell grid), the lowest index winning a tie. A scan for the best
/// non-serving cell that replaces its pick only on a strict `>` lands on
/// the first if that is not the serving cell and on the second if it is,
/// ties included: dropping a cell from a first-wins scan changes the winner
/// only if the dropped cell was the winner.
fn top2(row: &[f64]) -> (CellId, Option<CellId>) {
    let first_max = |skip: Option<usize>| {
        let mut best: Option<usize> = None;
        for (c, &rsrp) in row.iter().enumerate() {
            if Some(c) != skip && best.is_none_or(|b| rsrp > row[b]) {
                best = Some(c);
            }
        }
        best
    };
    let first = first_max(None).expect("a grid has at least one cell");
    (CellId(first), first_max(Some(first)).map(CellId))
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
/// sampled, and [`RadioMap::measure_all`] is the same measurement for
/// every UE in one pass. [`RadioMap::observe`] is `advance` then
/// `measure`.
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
        let rsrp_dbm = vec![0.0; n];
        let strongest = top2(&rsrp_dbm);
        self.ues.push(UeRadio {
            rng,
            shadows,
            pending: MEASUREMENT_PERIOD,
            rsrp_dbm,
            mw: vec![0.0; n],
            strongest,
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
        assert_eq!(activity.len(), self.grid.len(), "one activity per cell");
        let [obs] = self.measure_block(std::array::from_ref(&self.ues[ue.0]), &[serving], activity);
        obs
    }

    /// [`RadioMap::measure`] for every registered UE, `serving` indexed by
    /// registration order like [`RadioMap::advance_all`]'s `positions`;
    /// `out` is cleared and refilled in that order. Bit-equal to one
    /// `measure` per UE — it is the same kernel, several UEs at a time —
    /// and serial: a UE's measurement is a few dozen nanoseconds.
    pub fn measure_all(
        &self,
        serving: &[CellId],
        activity: &[f64],
        out: &mut Vec<RadioObservation>,
    ) {
        assert_eq!(serving.len(), self.ues.len(), "one serving cell per registered UE");
        assert_eq!(activity.len(), self.grid.len(), "one activity per cell");
        out.clear();
        let (blocks, rest) = self.ues.as_chunks::<MEASURE_BLOCK>();
        let (serving_blocks, serving_rest) = serving.as_chunks::<MEASURE_BLOCK>();
        for (ues, serving) in blocks.iter().zip(serving_blocks) {
            out.extend(self.measure_block(ues, serving, activity));
        }
        for (ue, &serving) in rest.iter().zip(serving_rest) {
            out.extend(self.measure_block(std::array::from_ref(ue), &[serving], activity));
        }
    }

    /// The measurement itself, for `K` UEs side by side: `K` interference
    /// sums advance cell by cell, so each is the same adds in the same
    /// (cell) order as it would be alone and only the waiting for one add
    /// to finish before the next overlaps. The serving cell's own term is
    /// replaced by `+0.0` rather than skipped, which keeps the `K` sums in
    /// step and changes no bit: the running sum starts at `+0.0` and every
    /// term is `+-0.0` or positive, so it is never `-0.0`.
    fn measure_block<const K: usize>(
        &self,
        ues: &[UeRadio; K],
        serving: &[CellId; K],
        activity: &[f64],
    ) -> [RadioObservation; K] {
        let n = activity.len();
        let mw: [&[f64]; K] = std::array::from_fn(|k| &ues[k].mw[..n]);
        let mut interference_mw = [0.0; K];
        for c in 0..n {
            let busy = activity[c].clamp(0.0, 1.0);
            for k in 0..K {
                // Reciprocity proxy for uplink inter-cell interference: the
                // louder a neighbor site sounds to this UE and the busier
                // that cell was last subframe, the more its uplink traffic
                // degrades this UE's grants.
                interference_mw[k] += if c == serving[k].0 { 0.0 } else { mw[k][c] * busy };
            }
        }
        std::array::from_fn(|k| {
            let UeRadio { rsrp_dbm, strongest, .. } = &ues[k];
            let serving_rsrp_dbm = rsrp_dbm[serving[k].0];
            let neighbor = if strongest.0 == serving[k] { strongest.1 } else { Some(strongest.0) };
            let best_neighbor = neighbor.map(|c| (c, rsrp_dbm[c.0]));
            let denom_mw = self.noise_mw + interference_mw[k];
            let sinr_db = serving_rsrp_dbm - mw_to_dbm(denom_mw);
            RadioObservation { serving_rsrp_dbm, best_neighbor, sinr_db }
        })
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
            // Eleven UEs: the batched measurement runs one full block and a
            // remainder.
            let names: Vec<String> = (0..11).map(|k| format!("ld.{:03}", 7 * k)).collect();
            let ues: Vec<RadioUe> = names.iter().map(|nm| map.register_ue(11, nm)).collect();
            for nm in &names {
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
            let mut batch = Vec::new();
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
                // A coin picks the pooled, batched entry points or the
                // per-UE one: same rows and the same measurement either
                // way, on sampling ticks and on held ones.
                let pooled = act_rng.next_u64() & 1 == 1;
                if pooled {
                    map.advance_all(2, dt, &positions);
                    let serving: Vec<CellId> = (0..ues.len()).map(serving).collect();
                    map.measure_all(&serving, &activity, &mut batch);
                }
                for (k, &ue) in ues.iter().enumerate() {
                    let (x, y) = positions[k];
                    let got = if pooled {
                        batch[k]
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

    /// What [`UeRadio::sample`] leaves behind, for a row the test dictates.
    fn overwrite_row(map: &mut RadioMap, ue: RadioUe, row: &[f64]) {
        let ue = &mut map.ues[ue.0];
        ue.rsrp_dbm.copy_from_slice(row);
        for (mw, &rsrp) in ue.mw.iter_mut().zip(row) {
            *mw = dbm_to_mw(rsrp);
        }
        ue.strongest = top2(row);
    }

    #[test]
    fn measure_all_is_bit_equal_to_measure() {
        // 1, 7 and 61 cells; UE counts on both sides of the block width.
        // Without shadowing, UEs on the lattice's axes of symmetry hold
        // rows with exact ties, between the two strongest cells included.
        let symmetric = [(0.0, 0.0), (80.0, 0.0), (-80.0, 0.0)];
        for (rings, shadow_std_db) in [(0, 3.0), (1, 0.0), (1, 3.0), (4, 0.0), (4, 3.0)] {
            for n_ues in [1usize, 7, 8, 9, 64, 67] {
                let cfg = RadioConfig { shadow_std_db, ..RadioConfig::default() };
                let grid = HexGrid::new(rings, 160.0);
                let n = grid.len();
                let mut map = RadioMap::new(cfg, grid.clone());
                let scan = SinglePass::new(cfg, grid);
                let ues: Vec<RadioUe> =
                    (0..n_ues).map(|k| map.register_ue(23, &format!("ue.{k}"))).collect();
                let mut rng = SimRng::stream(23, "activity");
                let mut activity = vec![0.0; n];
                let mut positions = vec![(0.0, 0.0); n_ues];
                let mut out = Vec::new();
                let mut tied_at_the_top = 0;
                for step in 0..90usize {
                    for (k, p) in positions.iter_mut().enumerate() {
                        *p = match k % 4 {
                            3 => (1.7 * step as f64 - 60.0 + k as f64, 11.0 * k as f64 - 300.0),
                            sym => symmetric[sym],
                        };
                    }
                    // 8 ms steps: a sample every fifth.
                    map.advance_all(1, SimDuration::from_millis(8), &positions);
                    if step % 7 == 3 && n >= 3 {
                        // The strongest cell, the runner-up and a third all
                        // read the same value, and one of them will serve.
                        let ue = ues[step % n_ues];
                        let mut row = map.ues[ue.0].rsrp_dbm.clone();
                        let top = row.iter().copied().fold(f64::MIN, f64::max) + 1.0;
                        for c in [step % n, (step + 1) % n, (3 * step + 2) % n] {
                            row[c] = top;
                        }
                        overwrite_row(&mut map, ue, &row);
                    }
                    for (c, a) in activity.iter_mut().enumerate() {
                        *a = match (step + c) % 6 {
                            0 => 0.0,
                            1 => 1.0 + rng.uniform_range(0.0, 2.0),
                            2 => -rng.uniform_range(0.0, 1.0),
                            3 => -0.0,
                            _ => rng.uniform_range(0.0, 1.0),
                        };
                    }
                    // A new serving cell every step: each UE's strongest
                    // and second-strongest in turn, then anything.
                    let serving: Vec<CellId> = (0..n_ues)
                        .map(|k| {
                            let (first, second) = map.ues[k].strongest;
                            match (step + k) % 4 {
                                0 => first,
                                1 => second.unwrap_or(first),
                                _ => CellId((3 * step + 5 * k) % n),
                            }
                        })
                        .collect();
                    map.measure_all(&serving, &activity, &mut out);
                    assert_eq!(out.len(), n_ues);
                    for (k, &ue) in ues.iter().enumerate() {
                        let row = &map.ues[k].rsrp_dbm;
                        let at = format!("{n} cells, {n_ues} UEs, step {step}, ue {k}");
                        assert_eq!(
                            bits(&out[k]),
                            bits(&map.measure(ue, serving[k], &activity)),
                            "{at}"
                        );
                        assert_eq!(
                            bits(&out[k]),
                            bits(&scan.remeasure(row, serving[k], &activity)),
                            "{at}"
                        );
                        assert_eq!(out[k].best_neighbor.is_none(), n == 1, "{at}");
                        if let (first, Some(second)) = map.ues[k].strongest {
                            let serves = serving[k] == first || serving[k] == second;
                            tied_at_the_top += (serves && row[first.0] == row[second.0]) as u32;
                        }
                    }
                }
                assert!(n == 1 || tied_at_the_top > 5, "{n} cells, {n_ues} UEs: {tied_at_the_top}");
            }
        }
    }

    #[test]
    fn top2_leaves_the_neighbor_the_strict_scan_would_pick() {
        let nan = f64::NAN;
        assert_eq!(top2(&[-80.0]), (CellId(0), None));
        assert_eq!(top2(&[-80.0; 7]), (CellId(0), Some(CellId(1))));
        assert_eq!(top2(&[nan, -90.0, -70.0, -70.0]), (CellId(0), Some(CellId(2))));
        assert_eq!(top2(&[-90.0, -70.0, -95.0, -70.0, -60.0]), (CellId(4), Some(CellId(1))));

        let mut map = map();
        let scan = SinglePass::new(RadioConfig::default(), HexGrid::new(1, 500.0));
        let ue = map.register_ue(9, "ue.0");
        let idle = [0.0; 7];
        let rows = [
            [-80.0; 7],
            [nan, -90.0, -70.0, -70.0, -85.0, -70.0, -99.0],
            [-60.0, -61.0, -62.0, -63.0, -64.0, -65.0, -66.0],
            [-66.0, -65.0, -64.0, -63.0, -62.0, -61.0, -60.0],
            [-70.0, -60.0, -60.0, -75.0, -60.0, -90.0, -70.0],
            [-70.0, -75.0, -75.0, -75.0, -75.0, -75.0, -70.0],
            [-0.0, 0.0, -0.0, 0.0, -5.0, 0.0, -0.0],
        ];
        for row in rows {
            overwrite_row(&mut map, ue, &row);
            for serving in (0..7).map(CellId) {
                let got = map.measure(ue, serving, &idle).best_neighbor;
                let want = scan.remeasure(&row, serving, &idle).best_neighbor;
                let bits = |b: Option<(CellId, f64)>| b.map(|(c, rsrp)| (c, rsrp.to_bits()));
                assert_eq!(bits(got), bits(want), "{row:?} served by {serving:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one activity per cell")]
    fn measure_all_rejects_an_activity_slice_longer_than_the_grid() {
        let mut map = map();
        map.register_ue(1, "ue.0");
        map.measure_all(&[CellId(0)], &[0.0; 8], &mut Vec::new());
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
