//! Deterministic fault injection: typed fault plans applied through the
//! existing layer seams.
//!
//! POI360's contribution is surviving a *volatile* uplink (§4.3 of the
//! paper), but a smooth channel trace never exercises the recovery paths —
//! congestion-onset detection after a stall, pinning to PHY rate after a
//! radio link failure, ROI-feedback starvation. This module gives every
//! driver one vocabulary for breaking the link on purpose:
//!
//! * A [`FaultPlan`] is a time-ordered list of [`FaultEvent`]s, each a
//!   [`FaultKind`] active over a `[start, start + duration)` window.
//! * [`FaultPlan::at`] folds the windows overlapping an instant into one
//!   [`ActiveFaults`] summary with explicit composition rules (booleans OR,
//!   loss probabilities compose as `1 − Π(1−pᵢ)`, grant factors multiply,
//!   delays and loads add) so overlapping windows are deterministic and can
//!   never drive a value out of range.
//! * A [`FaultTimeline`] wraps a plan with edge detection: each subframe the
//!   owner of a seam calls [`FaultTimeline::advance`] and gets the active
//!   summary back, while injection/recovery *transitions* are emitted as
//!   sink-only `fault.*` events on the trace plane.
//!
//! Determinism contract: applying a fault plan draws **no randomness** of
//! its own — every fault scales or overrides values the simulation already
//! computed, so an empty plan is byte-identical to no plan at all, and the
//! same seed + plan always reproduces the same run. The seam owners
//! (cellular uplink, shared cell, session path pipes) each receive only the
//! slice of the plan they implement ([`FaultPlan::access_slice`] /
//! [`FaultPlan::path_slice`]), which also guarantees each transition event
//! is emitted exactly once.

use crate::time::{SimDuration, SimTime};

/// The fault taxonomy: everything the injection plane knows how to break.
///
/// Each variant maps onto exactly one existing layer seam; none of them
/// introduce new control flow into the healthy path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Radio link failure: the UE's grant drops to zero (TBS → 0) for the
    /// window, as if the channel entered a deep outage. Applied at the
    /// channel seam of `CellUplink` / the shared `Cell`.
    RadioLinkFailure,
    /// Diag-read stall: the modem diagnostic interface keeps reporting the
    /// buffer/TBS sample frozen at stall onset, so FBCC sees stale repeated
    /// `B(t)` values. Applied at the diag seam.
    DiagStall,
    /// Uplink grant starvation: the scheduler serves this UE only `factor`
    /// of its normal grant (0 ≤ factor < 1). Applied at the grant seam.
    GrantStarvation {
        /// Fraction of the normal grant that survives (clamped to [0, 1]).
        factor: f64,
    },
    /// RTCP / ROI-feedback loss burst: the receiver→sender feedback pipe
    /// drops packets with this extra probability. Applied at the feedback
    /// `DelayPipe` seam.
    FeedbackLoss {
        /// Extra loss probability on the feedback path (clamped to [0, 1]).
        loss: f64,
    },
    /// Wireline spike: the downstream (sender→receiver) path gains extra
    /// one-way delay and loss for the window. Applied at the downstream
    /// `DelayPipe` seam.
    WirelineSpike {
        /// Extra one-way delay added to each packet.
        extra_delay: SimDuration,
        /// Extra loss probability (clamped to [0, 1]).
        extra_loss: f64,
    },
    /// Background-load flash crowd: extra competing load appears on the
    /// cell (fraction of capacity, clamped to [0, 0.95]). Applied at the
    /// load seam of `CellUplink` / the shared `Cell`.
    FlashCrowd {
        /// Extra competing load as a fraction of cell capacity.
        extra_load: f64,
    },
}

impl FaultKind {
    /// True for kinds applied inside the access network (uplink / cell).
    pub fn is_access(self) -> bool {
        matches!(
            self,
            FaultKind::RadioLinkFailure
                | FaultKind::DiagStall
                | FaultKind::GrantStarvation { .. }
                | FaultKind::FlashCrowd { .. }
        )
    }

    /// True for kinds applied on the end-to-end path pipes (feedback /
    /// downstream wireline).
    pub fn is_path(self) -> bool {
        !self.is_access()
    }
}

/// One fault window: `kind` is active over `[start, start + duration)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// What breaks.
    pub kind: FaultKind,
    /// When it breaks.
    pub start: SimTime,
    /// How long it stays broken.
    pub duration: SimDuration,
}

impl FaultEvent {
    /// First instant at which the fault is no longer active.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// True while the fault window covers `now` (half-open interval).
    pub fn active_at(&self, now: SimTime) -> bool {
        now >= self.start && now < self.end()
    }
}

/// Everything active at one instant, folded into in-range values.
///
/// `Default` is the healthy state: applying a default `ActiveFaults` must be
/// a no-op at every seam (the golden/determinism suites depend on it).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ActiveFaults {
    /// Any radio link failure window covers now.
    pub radio_failure: bool,
    /// Any diag stall window covers now.
    pub diag_stall: bool,
    /// Product of active grant-starvation factors, in [0, 1]; 1.0 = healthy.
    pub grant_factor: f64,
    /// Composed extra feedback loss probability, in [0, 1].
    pub feedback_loss: f64,
    /// Sum of active wireline extra delays.
    pub extra_path_delay: SimDuration,
    /// Composed extra downstream loss probability, in [0, 1].
    pub extra_path_loss: f64,
    /// Sum of active flash-crowd loads, clamped to [0, 0.95].
    pub flash_crowd_load: f64,
}

impl Default for ActiveFaults {
    fn default() -> Self {
        ActiveFaults {
            radio_failure: false,
            diag_stall: false,
            grant_factor: 1.0,
            feedback_loss: 0.0,
            extra_path_delay: SimDuration::ZERO,
            extra_path_loss: 0.0,
            flash_crowd_load: 0.0,
        }
    }
}

impl ActiveFaults {
    /// True when any fault is active (i.e. this differs from `Default`).
    pub fn any(&self) -> bool {
        *self != ActiveFaults::default()
    }
}

/// Compose two loss probabilities as independent drop chances.
fn compose_loss(a: f64, b: f64) -> f64 {
    (1.0 - (1.0 - a) * (1.0 - b)).clamp(0.0, 1.0)
}

/// A time-ordered list of fault windows.
///
/// Construction keeps the list sorted by `(start, end)` regardless of push
/// order, so two plans with the same windows are identical however they were
/// assembled — the property suite pins this.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan: applying it anywhere is a no-op.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a fault window, clamping its parameters into range (loss and
    /// grant factors to [0, 1], flash-crowd load to [0, 0.95]) so that no
    /// plan can ever drive a seam value negative or above capacity.
    pub fn push(&mut self, kind: FaultKind, start: SimTime, duration: SimDuration) {
        let kind = match kind {
            FaultKind::GrantStarvation { factor } => {
                FaultKind::GrantStarvation { factor: factor.clamp(0.0, 1.0) }
            }
            FaultKind::FeedbackLoss { loss } => {
                FaultKind::FeedbackLoss { loss: loss.clamp(0.0, 1.0) }
            }
            FaultKind::WirelineSpike { extra_delay, extra_loss } => {
                FaultKind::WirelineSpike { extra_delay, extra_loss: extra_loss.clamp(0.0, 1.0) }
            }
            FaultKind::FlashCrowd { extra_load } => {
                FaultKind::FlashCrowd { extra_load: extra_load.clamp(0.0, 0.95) }
            }
            other => other,
        };
        let ev = FaultEvent { kind, start, duration };
        let at = self.events.partition_point(|e| (e.start, e.end()) <= (ev.start, ev.end()));
        self.events.insert(at, ev);
    }

    /// Builder-style [`FaultPlan::push`].
    pub fn with(mut self, kind: FaultKind, start: SimTime, duration: SimDuration) -> Self {
        self.push(kind, start, duration);
        self
    }

    /// True when the plan has no windows.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The windows, sorted by `(start, end)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The last instant at which any window is still active (`SimTime::ZERO`
    /// for an empty plan).
    pub fn horizon(&self) -> SimTime {
        self.events.iter().map(|e| e.end()).max().unwrap_or(SimTime::ZERO)
    }

    /// Fold every window covering `now` into one [`ActiveFaults`] summary.
    pub fn at(&self, now: SimTime) -> ActiveFaults {
        let mut af = ActiveFaults::default();
        for ev in &self.events {
            if !ev.active_at(now) {
                continue;
            }
            match ev.kind {
                FaultKind::RadioLinkFailure => af.radio_failure = true,
                FaultKind::DiagStall => af.diag_stall = true,
                FaultKind::GrantStarvation { factor } => {
                    af.grant_factor = (af.grant_factor * factor).clamp(0.0, 1.0);
                }
                FaultKind::FeedbackLoss { loss } => {
                    af.feedback_loss = compose_loss(af.feedback_loss, loss);
                }
                FaultKind::WirelineSpike { extra_delay, extra_loss } => {
                    af.extra_path_delay += extra_delay;
                    af.extra_path_loss = compose_loss(af.extra_path_loss, extra_loss);
                }
                FaultKind::FlashCrowd { extra_load } => {
                    af.flash_crowd_load = (af.flash_crowd_load + extra_load).clamp(0.0, 0.95);
                }
            }
        }
        af
    }

    /// The sub-plan of access-network faults (radio / diag / grant / flash
    /// crowd), owned by the uplink or cell seam.
    pub fn access_slice(&self) -> FaultPlan {
        FaultPlan { events: self.events.iter().copied().filter(|e| e.kind.is_access()).collect() }
    }

    /// The sub-plan of end-to-end path faults (feedback loss / wireline
    /// spikes), owned by the session's pipes.
    pub fn path_slice(&self) -> FaultPlan {
        FaultPlan { events: self.events.iter().copied().filter(|e| e.kind.is_path()).collect() }
    }

    /// The same plan with every start and duration multiplied by
    /// `num / den` — used to compress scenarios for `--smoke` runs.
    pub fn time_scaled(&self, num: u64, den: u64) -> FaultPlan {
        assert!(den > 0, "time_scaled denominator must be positive");
        let scale = |us: u64| us.saturating_mul(num) / den;
        FaultPlan {
            events: self
                .events
                .iter()
                .map(|e| FaultEvent {
                    kind: e.kind,
                    start: SimTime::from_micros(scale(e.start.as_micros())),
                    duration: SimDuration::from_micros(scale(e.duration.as_micros())),
                })
                .collect(),
        }
    }
}

/// A plan plus edge detection: the per-subframe driver of one seam.
///
/// Each seam owner holds one timeline over its slice of the plan and calls
/// [`FaultTimeline::advance`] once per subframe. The summary comes back for
/// application; transitions (a field changing since the previous call) are
/// emitted as sink-only `fault.*` events — value = the fault magnitude at
/// injection, `0.0` at recovery — so a JSONL trace shows exactly when each
/// fault hit and cleared.
#[derive(Clone, Debug, Default)]
pub struct FaultTimeline {
    plan: FaultPlan,
    prev: Option<ActiveFaults>,
}

impl FaultTimeline {
    /// Wrap a plan (usually a slice of the session-level plan).
    pub fn new(plan: FaultPlan) -> Self {
        FaultTimeline { plan, prev: None }
    }

    /// True when the underlying plan has no windows; the fast path for
    /// un-faulted runs.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// Compute the faults active at `now`, emitting `fault.*` transition
    /// events on `rec` for every field that changed since the last call.
    pub fn advance(&mut self, now: SimTime, rec: &crate::trace::Recorder) -> ActiveFaults {
        if self.plan.is_empty() {
            return ActiveFaults::default();
        }
        let af = self.plan.at(now);
        let prev = self.prev.unwrap_or_default();
        if af != prev {
            let flag = |b: bool| if b { 1.0 } else { 0.0 };
            if af.radio_failure != prev.radio_failure {
                rec.event("fault.radio_link_failure", now, flag(af.radio_failure));
            }
            if af.diag_stall != prev.diag_stall {
                rec.event("fault.diag_stall", now, flag(af.diag_stall));
            }
            if af.grant_factor != prev.grant_factor {
                // Magnitude = how much of the grant is taken away.
                rec.event("fault.grant_starvation", now, 1.0 - af.grant_factor);
            }
            if af.feedback_loss != prev.feedback_loss {
                rec.event("fault.feedback_loss", now, af.feedback_loss);
            }
            if af.extra_path_delay != prev.extra_path_delay
                || af.extra_path_loss != prev.extra_path_loss
            {
                rec.event("fault.wireline_spike", now, af.extra_path_delay.as_secs_f64());
            }
            if af.flash_crowd_load != prev.flash_crowd_load {
                rec.event("fault.flash_crowd", now, af.flash_crowd_load);
            }
        }
        self.prev = Some(af);
        af
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Recorder, RingSink};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn empty_plan_is_healthy_everywhere() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(!plan.at(t(0)).any());
        assert!(!plan.at(t(1_000_000)).any());
        assert_eq!(plan.horizon(), SimTime::ZERO);
    }

    #[test]
    fn window_is_half_open() {
        let plan = FaultPlan::new().with(FaultKind::RadioLinkFailure, t(100), d(50));
        assert!(!plan.at(t(99)).radio_failure);
        assert!(plan.at(t(100)).radio_failure);
        assert!(plan.at(t(149)).radio_failure);
        assert!(!plan.at(t(150)).radio_failure, "end is exclusive");
        assert_eq!(plan.horizon(), t(150));
    }

    #[test]
    fn push_order_does_not_matter() {
        let a = FaultPlan::new().with(FaultKind::RadioLinkFailure, t(500), d(100)).with(
            FaultKind::DiagStall,
            t(100),
            d(300),
        );
        let b = FaultPlan::new().with(FaultKind::DiagStall, t(100), d(300)).with(
            FaultKind::RadioLinkFailure,
            t(500),
            d(100),
        );
        assert_eq!(a, b);
        assert_eq!(a.events()[0].kind, FaultKind::DiagStall);
    }

    #[test]
    fn overlapping_losses_compose_and_stay_in_range() {
        let plan = FaultPlan::new().with(FaultKind::FeedbackLoss { loss: 0.5 }, t(0), d(100)).with(
            FaultKind::FeedbackLoss { loss: 0.5 },
            t(50),
            d(100),
        );
        assert_eq!(plan.at(t(10)).feedback_loss, 0.5);
        assert!((plan.at(t(60)).feedback_loss - 0.75).abs() < 1e-12);
        // Even a stack of total-loss windows stays at exactly 1.0.
        let total = FaultPlan::new()
            .with(FaultKind::FeedbackLoss { loss: 1.0 }, t(0), d(100))
            .with(FaultKind::FeedbackLoss { loss: 1.0 }, t(0), d(100));
        assert_eq!(total.at(t(1)).feedback_loss, 1.0);
    }

    #[test]
    fn grant_factors_multiply_and_clamp() {
        let plan = FaultPlan::new()
            .with(FaultKind::GrantStarvation { factor: 0.5 }, t(0), d(100))
            .with(FaultKind::GrantStarvation { factor: 0.5 }, t(50), d(100));
        assert_eq!(plan.at(t(10)).grant_factor, 0.5);
        assert_eq!(plan.at(t(60)).grant_factor, 0.25);
        // Out-of-range parameters are clamped at push time.
        let wild = FaultPlan::new().with(FaultKind::GrantStarvation { factor: -3.0 }, t(0), d(10));
        assert_eq!(wild.at(t(1)).grant_factor, 0.0);
    }

    #[test]
    fn flash_crowd_loads_add_and_clamp() {
        let plan = FaultPlan::new()
            .with(FaultKind::FlashCrowd { extra_load: 0.6 }, t(0), d(100))
            .with(FaultKind::FlashCrowd { extra_load: 0.6 }, t(0), d(100));
        assert_eq!(plan.at(t(1)).flash_crowd_load, 0.95);
    }

    #[test]
    fn wireline_spikes_sum_delay() {
        let plan = FaultPlan::new()
            .with(FaultKind::WirelineSpike { extra_delay: d(30), extra_loss: 0.1 }, t(0), d(100))
            .with(FaultKind::WirelineSpike { extra_delay: d(20), extra_loss: 0.1 }, t(0), d(100));
        let af = plan.at(t(1));
        assert_eq!(af.extra_path_delay, d(50));
        assert!((af.extra_path_loss - 0.19).abs() < 1e-12);
    }

    #[test]
    fn slices_partition_the_plan() {
        let plan = FaultPlan::new()
            .with(FaultKind::RadioLinkFailure, t(0), d(10))
            .with(FaultKind::DiagStall, t(0), d(10))
            .with(FaultKind::GrantStarvation { factor: 0.2 }, t(0), d(10))
            .with(FaultKind::FlashCrowd { extra_load: 0.3 }, t(0), d(10))
            .with(FaultKind::FeedbackLoss { loss: 0.5 }, t(0), d(10))
            .with(FaultKind::WirelineSpike { extra_delay: d(5), extra_loss: 0.0 }, t(0), d(10));
        let access = plan.access_slice();
        let path = plan.path_slice();
        assert_eq!(access.events().len(), 4);
        assert_eq!(path.events().len(), 2);
        assert_eq!(access.events().len() + path.events().len(), plan.events().len());
        assert!(access.events().iter().all(|e| e.kind.is_access()));
        assert!(path.events().iter().all(|e| e.kind.is_path()));
    }

    #[test]
    fn time_scaling_compresses_windows() {
        let plan = FaultPlan::new().with(FaultKind::RadioLinkFailure, t(10_000), d(2_000));
        let smoke = plan.time_scaled(1, 4);
        assert_eq!(smoke.events()[0].start, t(2_500));
        assert_eq!(smoke.events()[0].duration, d(500));
    }

    #[test]
    fn timeline_emits_transitions_once() {
        let ring = RingSink::shared(64);
        let rec = Recorder::to_sink(ring.clone(), "test");
        let plan = FaultPlan::new().with(FaultKind::RadioLinkFailure, t(5), d(10));
        let mut tl = FaultTimeline::new(plan);
        for ms in 0..30 {
            tl.advance(t(ms), &rec);
        }
        let sink = ring.lock().unwrap();
        let values: Vec<f64> = sink
            .records()
            .filter(|(_, r)| r.name == "fault.radio_link_failure")
            .map(|(_, r)| r.value)
            .collect();
        assert_eq!(values, vec![1.0, 0.0], "one onset + one recovery");
    }

    #[test]
    fn empty_timeline_emits_nothing() {
        let ring = RingSink::shared(8);
        let rec = Recorder::to_sink(ring.clone(), "test");
        let mut tl = FaultTimeline::new(FaultPlan::new());
        for ms in 0..10 {
            assert!(!tl.advance(t(ms), &rec).any());
        }
        assert!(ring.lock().unwrap().is_empty());
    }
}
