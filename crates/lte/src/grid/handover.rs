//! A3-event handover and radio-link-failure detection.
//!
//! The 3GPP A3 event fires when a neighbor's RSRP exceeds the serving
//! cell's by a hysteresis margin *sustained* for the time-to-trigger
//! (TTT); the hysteresis suppresses ping-pong at cell edges and the TTT
//! filters fast fading. A handover that triggers too late — hysteresis
//! or TTT tuned so the UE falls out of coverage first — becomes a radio
//! link failure: the serving SINR sits below `Q_out` for the RLF timer
//! and the UE re-establishes on the best cell with its firmware buffer
//! flushed ([`crate::buffer::FirmwareBuffer::flush`]), exactly the RRC
//! re-establishment flow the fault plane's RLF injection exercises.
//!
//! [`A3State::decide`] is a pure per-subframe state machine over
//! measured RSRP/SINR, so the property suite can drive it with synthetic
//! monotone crossings and prove hysteresis honors its contract.

use super::hex::CellId;
use poi360_sim::time::{SimDuration, SimTime};

/// Serving SINR below this is "out of sync" (Q_out), dB.
const RLF_QOUT_DB: f64 = -8.0;
/// Out-of-sync sustained this long declares radio link failure.
const RLF_TIMER: SimDuration = SimDuration::from_millis(200);

/// A3 parameters; Q_out and the RLF timer are the constants above.
#[derive(Clone, Copy, Debug)]
pub struct A3Config {
    /// Neighbor must beat serving by this margin, dB.
    pub hysteresis_db: f64,
    /// ... sustained this long before the handover executes.
    pub time_to_trigger: SimDuration,
}

impl Default for A3Config {
    fn default() -> Self {
        A3Config { hysteresis_db: 3.0, time_to_trigger: SimDuration::from_millis(160) }
    }
}

/// What the state machine wants done this subframe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HoDecision {
    /// Stay on the serving cell.
    Stay,
    /// Execute a handover to the target (A3 fired and TTT expired).
    Handover(CellId),
    /// Radio link failure: flush and re-establish on the target.
    Rlf(CellId),
}

/// Per-UE A3/RLF timers.
#[derive(Clone, Copy, Debug, Default)]
pub struct A3State {
    /// The neighbor currently beating serving + hysteresis, with the
    /// time the condition became (and stayed) true.
    entered: Option<(CellId, SimTime)>,
    /// When the serving SINR first dropped below Q_out, if still below.
    out_of_sync_since: Option<SimTime>,
}

impl A3State {
    /// Reset both timers (called after any cell change).
    pub fn reset(&mut self) {
        self.entered = None;
        self.out_of_sync_since = None;
    }

    /// Advance one measurement period. `best_neighbor` is the strongest
    /// non-serving cell and its RSRP; `serving_rsrp_dbm` / `sinr_db` are
    /// the serving-cell measurements. RLF wins over A3: a link that is
    /// already out of sync past the timer cannot execute a clean
    /// handover any more.
    pub fn decide(
        &mut self,
        cfg: &A3Config,
        now: SimTime,
        serving_rsrp_dbm: f64,
        sinr_db: f64,
        best_neighbor: Option<(CellId, f64)>,
    ) -> HoDecision {
        // RLF timer.
        if sinr_db < RLF_QOUT_DB {
            let since = *self.out_of_sync_since.get_or_insert(now);
            if now.saturating_since(since) >= RLF_TIMER {
                if let Some((target, _)) = best_neighbor {
                    self.reset();
                    return HoDecision::Rlf(target);
                }
            }
        } else {
            self.out_of_sync_since = None;
        }

        // A3 entry/exit + TTT. The measurement report that executes the
        // handover needs a working uplink: while the serving link is out
        // of sync the TTT may run, but the handover cannot fire — that is
        // precisely the "late handover becomes RLF" failure mode.
        let candidate = best_neighbor
            .filter(|&(_, rsrp)| rsrp > serving_rsrp_dbm + cfg.hysteresis_db)
            .map(|(cell, _)| cell);
        match (candidate, self.entered) {
            (Some(cell), Some((held, since))) if cell == held => {
                if sinr_db >= RLF_QOUT_DB && now.saturating_since(since) >= cfg.time_to_trigger {
                    self.reset();
                    return HoDecision::Handover(cell);
                }
            }
            (Some(cell), _) => self.entered = Some((cell, now)),
            (None, _) => self.entered = None,
        }
        HoDecision::Stay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_sim::SUBFRAME;

    fn cfg() -> A3Config {
        A3Config::default()
    }

    #[test]
    fn a3_requires_sustained_margin() {
        let c = cfg();
        let mut st = A3State::default();
        let mut now = SimTime::ZERO;
        let target = CellId(1);
        // Margin met but not sustained: one blip, then back under.
        assert_eq!(st.decide(&c, now, -80.0, 10.0, Some((target, -75.0))), HoDecision::Stay);
        now += SUBFRAME;
        assert_eq!(st.decide(&c, now, -80.0, 10.0, Some((target, -81.0))), HoDecision::Stay);
        // Sustained for TTT: fires exactly once the timer expires.
        let mut fired = None;
        let start = now;
        for _ in 0..500 {
            now += SUBFRAME;
            if let HoDecision::Handover(t) = st.decide(&c, now, -80.0, 10.0, Some((target, -75.0)))
            {
                fired = Some((t, now));
                break;
            }
        }
        let (t, at) = fired.expect("A3 fires under a sustained margin");
        assert_eq!(t, target);
        assert!(at.saturating_since(start) >= c.time_to_trigger);
    }

    #[test]
    fn hysteresis_blocks_sub_margin_neighbors() {
        let c = cfg();
        let mut st = A3State::default();
        let mut now = SimTime::ZERO;
        for _ in 0..2_000 {
            // Neighbor consistently better, but within the hysteresis.
            let d = st.decide(&c, now, -80.0, 10.0, Some((CellId(2), -78.0)));
            assert_eq!(d, HoDecision::Stay);
            now += SUBFRAME;
        }
    }

    #[test]
    fn rlf_fires_after_sustained_outage_and_beats_a3() {
        let c = cfg();
        let mut st = A3State::default();
        let mut now = SimTime::ZERO;
        let mut rlf_at = None;
        for _ in 0..2_000 {
            // Deep outage *and* a strong neighbor: the stale link fails
            // before the clean handover completes.
            match st.decide(&c, now, -110.0, -12.0, Some((CellId(3), -70.0))) {
                HoDecision::Rlf(t) => {
                    assert_eq!(t, CellId(3));
                    rlf_at = Some(now);
                    break;
                }
                HoDecision::Handover(_) => panic!("RLF must win over A3 here"),
                HoDecision::Stay => {}
            }
            now += SUBFRAME;
        }
        let at = rlf_at.expect("RLF declared");
        assert!(at.saturating_since(SimTime::ZERO) >= RLF_TIMER);
    }

    #[test]
    fn recovering_sinr_clears_the_rlf_timer() {
        let c = cfg();
        let mut st = A3State::default();
        let mut now = SimTime::ZERO;
        for k in 0..2_000u64 {
            // SINR dips below Q_out for 100 ms out of every 300 ms —
            // never long enough for the 200 ms timer.
            let sinr = if k % 300 < 100 { -12.0 } else { 5.0 };
            let d = st.decide(&c, now, -90.0, sinr, Some((CellId(1), -95.0)));
            assert_eq!(d, HoDecision::Stay, "at {k} ms");
            now += SUBFRAME;
        }
    }
}
