//! The fault-injection robustness harness.
//!
//! The `reproduce faults` subcommand, the arena's fault legs, the fault
//! studies and the `tests/faults.rs` regression suite all drive the same
//! [`FaultScenario`] presets through the same recovery invariants,
//! defined exactly once here: after the last fault window clears, the
//! video rate must climb back to at least half its pre-fault mean, the
//! firmware buffer must drain back toward its pre-fault level, playback
//! freeze time must stay bounded, and the probe plane must never see an
//! out-of-order gauge sample. A whole suite run is a pure function of
//! its seed, so the JSONL byte stream it produces is asserted
//! byte-identical across reruns.

use crate::protocol::{fault_subframes, run_concat, Case, Outcome, Protocol};
use poi360_analyse::study::CONTROLLERS;
use poi360_core::config::{CompressionScheme, NetworkKind, RateControlKind, SessionConfig};
use poi360_core::report::SessionReport;
use poi360_lte::scenario::{unknown_preset_error, FaultScenario, FAULT_RUN_SECS};
use poi360_metrics::table::Table;
use poi360_sim::fault::{FaultKind, FaultPlan};
use poi360_sim::series::TimeSeries;
use poi360_sim::time::{SimDuration, SimTime};

/// Run length of every `--smoke` fault case (`faults`, fault studies,
/// arena legs): the whole [`FAULT_RUN_SECS`] timeline compressed 4x.
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
    /// Mean firmware buffer over the pre-fault window, bytes.
    pub pre_buffer_bytes: f64,
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

/// One judged fault run of a suite: which case it was and its verdicts.
/// (The session report is dropped in the worker — a suite holds dozens
/// of outcomes at once, and only the verdicts are tabulated.)
#[derive(Clone, Debug)]
pub struct FaultOutcome {
    /// Preset name (`rlf`, `diag_freeze`, ...).
    pub scenario: &'static str,
    /// Which rate control ran.
    pub rc: RateControlKind,
    /// The invariant verdicts.
    pub verdict: FaultVerdict,
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
/// buffer tail is the final 10% of the run.
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
    let rate_recovered = if full_outage {
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
    let buffer_drained = report.fw_buffer.is_empty()
        || (tail_buffer_bytes.is_finite()
            && tail_buffer_bytes <= (3.0 * pre_buffer_bytes).max(100_000.0));

    let freeze_ratio = report.freeze_ratio();
    let freeze_bounded = freeze_ratio <= 0.40;

    FaultVerdict {
        pre_rate_bps,
        post_rate_bps,
        rate_recovered,
        pre_buffer_bytes,
        tail_buffer_bytes,
        buffer_drained,
        freeze_ratio,
        freeze_bounded,
        probes_in_order: drops == 0,
    }
}

/// The cases of one suite run: every given preset under every controller
/// in the [`CONTROLLERS`] vocabulary (FBCC, GCC, OCC), preset-major, each
/// tracing as `"<scenario>.<rc>"`.
pub fn suite_cases(scenarios: &[FaultScenario], seconds: u64, seed: u64) -> Vec<Case> {
    let mut cases = Vec::new();
    for fs in scenarios {
        for rc in CONTROLLERS.map(crate::study::rate_control) {
            cases.push(Case::Fault {
                src: format!("{}.{}", fs.name, rc.label()),
                fs: fs.clone(),
                scheme: CompressionScheme::Poi360,
                rc,
                seconds,
                seed,
            });
        }
    }
    cases
}

/// Run [`suite_cases`], tracing into one logical JSONL stream.
/// Returns the outcomes plus the raw JSONL bytes — byte-identical across
/// calls with the same arguments and at any worker-pool width, which is
/// exactly what callers assert.
pub fn run_suite(
    scenarios: &[FaultScenario],
    seconds: u64,
    seed: u64,
) -> (Vec<FaultOutcome>, Vec<u8>) {
    let (outcomes, jsonl) = run_concat(suite_cases(scenarios, seconds, seed));
    let outcomes = outcomes
        .into_iter()
        .map(|o| match o {
            Outcome::Fault(o) => o,
            other => unreachable!("a fault case returned {other:?}"),
        })
        .collect();
    (outcomes, jsonl)
}

/// The whole `reproduce faults` protocol: the named preset (or every
/// preset) under every controller, judged, run twice to prove the
/// trace stream byte-identical across reruns, and tabulated. Shared
/// verbatim by the CLI and the golden test.
pub fn run_protocol(
    which: Option<&str>,
    smoke: bool,
    seconds: u64,
    seed: u64,
) -> Result<Protocol, String> {
    let scenarios = match which {
        Some(name) => {
            vec![FaultScenario::by_name(name).ok_or_else(|| unknown_preset_error("fault", name))?]
        }
        None => FaultScenario::all(),
    };
    eprintln!(
        "# fault suite: {} scenarios x {{FBCC, GCC, OCC}}, {seconds}s each, seed {seed}, run twice, \
         {} session subframes per run",
        scenarios.len(),
        fault_subframes(&suite_cases(&scenarios, seconds, seed))
    );
    let (outcomes, jsonl) = run_suite(&scenarios, seconds, seed);
    let (_, rerun) = run_suite(&scenarios, seconds, seed);

    let mut failures = 0;
    let mut t = Table::new(
        format!("Fault robustness — {seconds}s runs, seed {seed}"),
        &["Scenario", "RC", "Pre Mbps", "Post Mbps", "Freeze %", "Tail buf KB", "Verdict"],
    );
    for o in &outcomes {
        let v = &o.verdict;
        let verdict = if v.pass() {
            "pass".to_string()
        } else {
            failures += 1;
            format!("FAIL: {}", v.failures().join(","))
        };
        t.row(vec![
            o.scenario.to_string(),
            o.rc.label().to_string(),
            format!("{:.2}", v.pre_rate_bps / 1e6),
            format!("{:.2}", v.post_rate_bps / 1e6),
            format!("{:.1}", v.freeze_ratio * 100.0),
            format!("{:.0}", v.tail_buffer_bytes / 1e3),
            verdict,
        ]);
    }
    let mut p = Protocol {
        stem: if smoke { "faults_smoke" } else { "faults" }.to_string(),
        text: t.render(),
        failures,
        jsonl,
        ..Default::default()
    };
    p.check("trace determinism", p.jsonl == rerun, "byte-identical across reruns", "reruns differ");
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::with_worker_threads;

    #[test]
    fn suite_is_byte_identical_across_reruns() {
        let rlf = FaultScenario::by_name("rlf").expect("preset exists");
        let (a_out, a_bytes) = run_suite(std::slice::from_ref(&rlf), FAULT_SMOKE_SECS, 3);
        let (b_out, b_bytes) = run_suite(std::slice::from_ref(&rlf), FAULT_SMOKE_SECS, 3);
        assert_eq!(a_out.len(), 3, "FBCC, GCC, and OCC");
        assert!(!a_bytes.is_empty(), "trace stream captured");
        assert_eq!(a_bytes, b_bytes, "fault suite reruns must be byte-identical");
        assert_eq!(b_out.len(), 3);
    }

    #[test]
    fn suite_bytes_do_not_depend_on_worker_count() {
        // Same matrix, pinned to one worker vs. several: the concatenated
        // trace stream and the outcome order must not move.
        let rlf = FaultScenario::by_name("rlf").expect("preset exists");
        let suite = || run_suite(std::slice::from_ref(&rlf), FAULT_SMOKE_SECS, 3);
        let (serial_out, serial_bytes) = with_worker_threads(1, suite);
        let (par_out, par_bytes) = with_worker_threads(4, suite);
        assert_eq!(serial_bytes, par_bytes, "JSONL stream must be thread-count invariant");
        let labels =
            |o: &[FaultOutcome]| o.iter().map(|c| (c.scenario, c.rc.label())).collect::<Vec<_>>();
        assert_eq!(labels(&serial_out), labels(&par_out));
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
            pre_buffer_bytes: 0.0,
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
