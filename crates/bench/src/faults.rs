//! The fault family's judge: the recovery invariants.
//!
//! Every fault-family study (the checked-in `faults`, `cc_matrix`,
//! `busy` and `arena` presets, any `.study` file) and the
//! `tests/faults.rs` regression suite judge [`FaultScenario`] runs by the
//! same invariants, defined exactly once here: after the last fault
//! window clears, the video rate must climb back to at least half its
//! pre-fault mean, the firmware buffer must drain back toward its
//! pre-fault level, playback freeze time must stay bounded, and the probe
//! plane must never see an out-of-order gauge sample. `invariants`
//! tabulates a study's verdicts.

use crate::protocol::Outcome;
use crate::study::ExecutedCase;
use poi360_core::config::{NetworkKind, RateControlKind, SessionConfig};
use poi360_core::report::SessionReport;
use poi360_lte::scenario::{FaultScenario, FAULT_RUN_SECS};
use poi360_metrics::table::Table;
use poi360_sim::fault::{FaultKind, FaultPlan};
use poi360_sim::series::TimeSeries;
use poi360_sim::time::{SimDuration, SimTime};

/// Run length of every `--smoke` fault-study case: the whole
/// [`FAULT_RUN_SECS`] timeline compressed 4x.
pub const FAULT_SMOKE_SECS: u64 = 6;

/// Recovery-invariant verdicts for one `scenario x rate-control` run.
///
/// All windowed means come from the session's retained gauge series; the
/// windows are derived from the (possibly time-scaled) fault plan so the
/// same thresholds apply to full-length and `--smoke` runs.
#[derive(Clone, Debug)]
pub struct FaultVerdict {
    /// Mean video rate over the pre-fault window, bps.
    pub pre_rate_bps: f64,
    /// Mean video rate over the post-recovery window, bps.
    pub post_rate_bps: f64,
    /// Post-recovery rate is at least half the pre-fault rate.
    pub rate_recovered: bool,
    /// Mean firmware buffer over the final 10% of the run, bytes.
    pub tail_buffer_bytes: f64,
    /// The firmware buffer drained back toward its pre-fault level.
    pub buffer_drained: bool,
    /// Fraction of the run the viewer spent frozen.
    pub freeze_ratio: f64,
    /// Freeze time stayed within the bound.
    pub freeze_bounded: bool,
    /// The recorder never dropped an out-of-order gauge sample.
    pub probes_in_order: bool,
}

impl FaultVerdict {
    /// How many invariants a run is judged on.
    pub(crate) const CHECKS: usize = 4;

    /// Every invariant this run was judged on, as `(held, name)`.
    pub(crate) fn checks(&self) -> [(bool, &'static str); Self::CHECKS] {
        [
            (self.rate_recovered, "rate-recovery"),
            (self.buffer_drained, "buffer-drain"),
            (self.freeze_bounded, "freeze-bound"),
            (self.probes_in_order, "probe-order"),
        ]
    }

    /// Names of every invariant this run violated (empty = pass).
    pub fn failures(&self) -> Vec<&'static str> {
        self.checks().into_iter().filter_map(|(held, name)| (!held).then_some(name)).collect()
    }

    /// True when every invariant held.
    pub fn pass(&self) -> bool {
        self.failures().is_empty()
    }
}

/// A preset's plan scaled to a `seconds`-long run (identity at
/// [`FAULT_RUN_SECS`]); `--smoke` runs compress the whole timeline.
pub fn scaled_plan(fs: &FaultScenario, seconds: u64) -> FaultPlan {
    fs.plan.time_scaled(seconds, FAULT_RUN_SECS)
}

/// The session configuration for one fault case (default tiling scheme).
pub fn session_config(
    fs: &FaultScenario,
    rc: RateControlKind,
    seconds: u64,
    seed: u64,
) -> SessionConfig {
    SessionConfig {
        rate_control: rc,
        network: NetworkKind::Cellular(fs.scenario),
        duration: SimDuration::from_secs(seconds),
        seed,
        ..Default::default()
    }
}

/// Mean of a gauge over `[from, to)`, or NaN when the window is empty.
fn mean_between(series: &TimeSeries, from: SimTime, to: SimTime) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for (at, v) in series.iter() {
        if at >= from && at < to {
            sum += v;
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Judge the recovery invariants of one finished run.
///
/// Windows, with `start` = first fault onset and `clear` = last fault end:
/// pre-fault is `[start/2, start)`, post-recovery is the back half of
/// `[clear, end)` — roughly 15 RTTs of grace at full scale — and the
/// buffer tail is the final 10% of the run. An empty plan (the study-only
/// `baseline`) has no fault to recover from: its pre-fault window is
/// empty, rate recovery and buffer drain hold, and freeze time and probe
/// order are judged as for any run.
pub fn judge(report: &SessionReport, plan: &FaultPlan, seconds: u64, drops: u64) -> FaultVerdict {
    let start = plan.events().iter().map(|e| e.start).min().unwrap_or(SimTime::ZERO);
    let clear = plan.horizon();
    let end = SimTime::ZERO + SimDuration::from_secs(seconds);
    let pre_from = SimTime::from_micros(start.as_micros() / 2);
    let post_from = SimTime::from_micros((clear.as_micros() + end.as_micros()) / 2).min(end);
    let tail_from = SimTime::from_micros(end.as_micros() - end.as_micros() / 10);

    let pre_rate_bps = mean_between(&report.video_rate, pre_from, start);
    let post_rate_bps = mean_between(&report.video_rate, post_from, end);
    // A total radio outage collapses GCC (and FBCC's GCC component) to its
    // floor, and the faithful AIMD ramp recovers at ~8%/s — the slow
    // restoration the paper itself criticizes — so full-outage plans
    // assert recovery *progress* over the post-clear floor rather than
    // restoration to half the pre-fault rate.
    let full_outage = plan.events().iter().any(|e| matches!(e.kind, FaultKind::RadioLinkFailure));
    let faulted = !plan.events().is_empty();
    let rate_recovered = if !faulted {
        true
    } else if full_outage {
        // The collapse trails the fault-clear instant (the flushed-queue
        // loss burst lands one feedback cycle later), so the baseline is
        // the post-clear *trough*, not a fixed early window.
        let trough = report
            .video_rate
            .iter()
            .filter(|&(at, _)| at >= clear && at < post_from)
            .map(|(_, v)| v)
            .fold(f64::INFINITY, f64::min);
        let required = 1.0 + 0.2 * (seconds as f64 / FAULT_RUN_SECS as f64);
        trough.is_finite() && post_rate_bps.is_finite() && post_rate_bps >= required * trough
    } else {
        pre_rate_bps.is_finite() && post_rate_bps.is_finite() && post_rate_bps >= 0.5 * pre_rate_bps
    };

    let pre_buffer_bytes = mean_between(&report.fw_buffer, pre_from, start);
    let tail_buffer_bytes = mean_between(&report.fw_buffer, tail_from, end);
    // "Drained" allows settling above the pre-fault mean, but not by much:
    // a stuck queue after the fault clears sits orders of magnitude higher.
    let buffer_drained = !faulted
        || report.fw_buffer.is_empty()
        || (tail_buffer_bytes.is_finite()
            && tail_buffer_bytes <= (3.0 * pre_buffer_bytes).max(100_000.0));

    let freeze_ratio = report.freeze_ratio();
    let freeze_bounded = freeze_ratio <= 0.40;

    FaultVerdict {
        pre_rate_bps,
        post_rate_bps,
        rate_recovered,
        tail_buffer_bytes,
        buffer_drained,
        freeze_ratio,
        freeze_bounded,
        probes_in_order: drops == 0,
    }
}

/// The invariants table of a fault-family study report: one row per
/// session case, in config order, with the rates, freeze ratio and buffer
/// tail it was judged on and its verdict. A `shared` ensemble case is
/// scored by the study's league, not judged. Returns the table and the
/// labels of the cases that failed.
pub(crate) fn invariants(seconds: u64, cases: &[ExecutedCase]) -> (String, Vec<&str>) {
    // The pre-fault window of an empty plan is empty.
    let mbps = |bps: f64| if bps.is_finite() { format!("{:.2}", bps / 1e6) } else { "-".into() };
    let mut t = Table::new(
        format!("Recovery invariants — {seconds}s runs"),
        &["Case", "Pre Mbps", "Post Mbps", "Freeze %", "Tail buf KB", "Verdict"],
    );
    let mut failed = Vec::new();
    for e in cases {
        let Outcome::Fault(v) = &e.outcome else { continue };
        let verdict = if v.pass() {
            "pass".to_string()
        } else {
            failed.push(e.case.label.as_str());
            format!("FAIL: {}", v.failures().join(","))
        };
        t.row(vec![
            e.case.label.clone(),
            mbps(v.pre_rate_bps),
            mbps(v.post_rate_bps),
            format!("{:.1}", v.freeze_ratio * 100.0),
            format!("{:.0}", v.tail_buffer_bytes / 1e3),
            verdict,
        ]);
    }
    (t.render(), failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_plan_has_nothing_to_recover_from() {
        // A baseline run: steady rate, a buffer that never empties.
        let mut report = SessionReport::default();
        for ms in (0..6_000).step_by(100) {
            report.video_rate.push(SimTime::from_millis(ms), 1.0e6);
            report.fw_buffer.push(SimTime::from_millis(ms), 250_000.0);
        }
        let v = judge(&report, &FaultPlan::new(), 6, 0);
        assert!(v.pre_rate_bps.is_nan(), "no fault, no pre-fault window");
        assert!(v.pass(), "{:?}", v.failures());
        // Freeze time and probe order are still judged.
        assert_eq!(judge(&report, &FaultPlan::new(), 6, 1).failures(), ["probe-order"]);
    }

    #[test]
    fn judge_windows_follow_the_scaled_plan() {
        let fs = FaultScenario::by_name("grant_starve").expect("preset exists");
        let full = scaled_plan(&fs, FAULT_RUN_SECS);
        assert_eq!(full.horizon(), fs.plan.horizon(), "identity at full scale");
        let smoke = scaled_plan(&fs, FAULT_SMOKE_SECS);
        assert_eq!(smoke.horizon().as_micros(), fs.plan.horizon().as_micros() / 4);
    }

    #[test]
    fn verdict_failure_names_match_flags() {
        let v = FaultVerdict {
            pre_rate_bps: 1.0,
            post_rate_bps: 0.1,
            rate_recovered: false,
            tail_buffer_bytes: 0.0,
            buffer_drained: true,
            freeze_ratio: 0.9,
            freeze_bounded: false,
            probes_in_order: true,
        };
        assert!(!v.pass());
        assert_eq!(v.failures(), vec!["rate-recovery", "freeze-bound"]);
    }
}
