//! Property-based tests for fault-plan composition and the access-network
//! injection seams, on the in-repo `poi360_testkit` shrinking harness.
//!
//! Pinned properties: overlapping fault windows compose deterministically
//! (push order never matters), composed values can never leave their
//! physical ranges however wild the input parameters, plan slicing is a
//! partition, time scaling is exact per event, and either uplink model —
//! a `CellUplink`, and a `Cell` with one foreground UE — driven by an
//! arbitrary fault plan never produces a negative buffer level, a grant
//! above the physical TBS ceiling, service during an outage, a TBS for
//! bytes the firmware buffer did not serve, or a lost packet.

use poi360_lte::buffer::{FirmwareBuffer, PacketLike};
use poi360_lte::cell::{Cell, CellConfig, UeId};
use poi360_lte::channel::ChannelConfig;
use poi360_lte::tbs;
use poi360_lte::uplink::{CellUplink, UplinkConfig};
use poi360_sim::fault::{FaultKind, FaultPlan};
use poi360_sim::time::{SimDuration, SimTime};
use poi360_testkit::prop::Gen;
use poi360_testkit::{prop_assert, prop_assert_eq, prop_check};

#[derive(Debug, Clone, Copy)]
struct Pkt(u32);
impl PacketLike for Pkt {
    fn wire_bytes(&self) -> u32 {
        self.0
    }
}

/// Draw one fault kind with parameters deliberately allowed to stray out
/// of range — `FaultPlan::push` must clamp them.
fn any_kind(g: &mut Gen) -> FaultKind {
    match g.index(6) {
        0 => FaultKind::RadioLinkFailure,
        1 => FaultKind::DiagStall,
        2 => FaultKind::GrantStarvation { factor: g.f64_in(-0.5, 1.5) },
        3 => FaultKind::FeedbackLoss { loss: g.f64_in(-0.5, 1.5) },
        4 => FaultKind::WirelineSpike {
            extra_delay: SimDuration::from_millis(g.u64_in(0, 400)),
            extra_loss: g.f64_in(-0.5, 1.5),
        },
        _ => FaultKind::FlashCrowd { extra_load: g.f64_in(-0.5, 2.0) },
    }
}

/// Draw a plan of 1..=8 windows with strictly increasing starts (distinct
/// sort keys make event order unique, so plan equality is well-defined).
fn any_plan(g: &mut Gen) -> Vec<(FaultKind, SimTime, SimDuration)> {
    let n = g.usize_in(1, 8);
    let mut start_ms = 0u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        start_ms += 1 + g.u64_in(0, 2_000);
        out.push((
            any_kind(g),
            SimTime::from_millis(start_ms),
            SimDuration::from_millis(g.u64_in(0, 3_000)),
        ));
    }
    out
}

fn build(windows: &[(FaultKind, SimTime, SimDuration)]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(kind, start, dur) in windows {
        plan.push(kind, start, dur);
    }
    plan
}

/// However overlapping the windows and however wild the parameters, the
/// folded `ActiveFaults` stays inside its physical ranges at every instant.
#[test]
fn composition_never_leaves_physical_range() {
    prop_check!(128, |g| {
        let plan = build(&any_plan(g));
        for _ in 0..32 {
            let now = SimTime::from_millis(g.u64_in(0, 20_000));
            let af = plan.at(now);
            prop_assert!((0.0..=1.0).contains(&af.grant_factor), "grant {}", af.grant_factor);
            prop_assert!((0.0..=1.0).contains(&af.feedback_loss), "fb loss {}", af.feedback_loss);
            prop_assert!(
                (0.0..=1.0).contains(&af.extra_path_loss),
                "path loss {}",
                af.extra_path_loss
            );
            prop_assert!(
                (0.0..=0.95).contains(&af.flash_crowd_load),
                "load {}",
                af.flash_crowd_load
            );
        }
        Ok(())
    });
}

/// A plan is a set of windows: pushing the same windows in any order
/// yields the same plan and the same composition at every instant.
#[test]
fn push_order_never_matters() {
    prop_check!(128, |g| {
        let mut windows = any_plan(g);
        let forward = build(&windows);
        // Fisher–Yates with harness-recorded draws, so shuffles shrink too.
        for i in (1..windows.len()).rev() {
            windows.swap(i, g.index(i + 1));
        }
        let shuffled = build(&windows);
        prop_assert_eq!(&forward, &shuffled);
        for _ in 0..16 {
            let now = SimTime::from_millis(g.u64_in(0, 20_000));
            prop_assert_eq!(forward.at(now), shuffled.at(now));
        }
        Ok(())
    });
}

/// Access and path slices partition the plan: every window lands in
/// exactly one slice, and each slice only ever composes its own fields.
#[test]
fn slices_partition_every_plan() {
    prop_check!(128, |g| {
        let plan = build(&any_plan(g));
        let access = plan.access_slice();
        let path = plan.path_slice();
        prop_assert_eq!(access.events().len() + path.events().len(), plan.events().len());
        prop_assert!(access.events().iter().all(|e| e.kind.is_access()));
        prop_assert!(path.events().iter().all(|e| e.kind.is_path()));
        for _ in 0..16 {
            let now = SimTime::from_millis(g.u64_in(0, 20_000));
            let a = access.at(now);
            let p = path.at(now);
            // Path fields stay healthy in the access slice and vice versa.
            prop_assert_eq!(a.feedback_loss, 0.0);
            prop_assert_eq!(a.extra_path_delay, SimDuration::ZERO);
            prop_assert!(!p.radio_failure && !p.diag_stall);
            prop_assert_eq!(p.grant_factor, 1.0);
            prop_assert_eq!(p.flash_crowd_load, 0.0);
        }
        Ok(())
    });
}

/// Time scaling is exact integer arithmetic per event and preserves the
/// sort order, so a `--smoke` plan is the full plan compressed, not a
/// different plan.
#[test]
fn time_scaling_is_exact_per_event() {
    prop_check!(128, |g| {
        let plan = build(&any_plan(g));
        let num = g.u64_in(1, 10);
        let den = g.u64_in(1, 10);
        let scaled = plan.time_scaled(num, den);
        prop_assert_eq!(scaled.events().len(), plan.events().len());
        for (orig, s) in plan.events().iter().zip(scaled.events()) {
            prop_assert_eq!(s.kind, orig.kind);
            prop_assert_eq!(s.start.as_micros(), orig.start.as_micros() * num / den);
            prop_assert_eq!(s.duration.as_micros(), orig.duration.as_micros() * num / den);
        }
        for pair in scaled.events().windows(2) {
            prop_assert!(
                (pair[0].start, pair[0].end()) <= (pair[1].start, pair[1].end()),
                "scaled plan stays sorted"
            );
        }
        Ok(())
    });
}

/// The two uplink models behind one face: the scalar `CellUplink`, and a
/// PF `Cell` with one foreground UE among three background ones.
enum Uplink {
    Scalar(Box<CellUplink<Pkt>>),
    Pf(Box<Cell<Pkt>>, UeId),
}

impl Uplink {
    fn both(seed: u64, plan: &FaultPlan) -> [Uplink; 2] {
        let mut scalar = CellUplink::new(UplinkConfig::default(), seed);
        scalar.set_fault_plan(plan.clone());
        let mut cell = Cell::new(CellConfig::default(), seed);
        let fg = cell.attach_foreground("fg.0", ChannelConfig::default());
        cell.attach_background_population(3);
        cell.set_fault_plan(plan.clone());
        [Uplink::Scalar(Box::new(scalar)), Uplink::Pf(Box::new(cell), fg)]
    }

    fn name(&self) -> &'static str {
        match self {
            Uplink::Scalar(_) => "CellUplink",
            Uplink::Pf(..) => "Cell",
        }
    }

    fn firmware(&self) -> &FirmwareBuffer<Pkt> {
        match self {
            Uplink::Scalar(ul) => ul.firmware(),
            Uplink::Pf(cell, fg) => cell.firmware(*fg),
        }
    }

    fn enqueue(&mut self, pkt: Pkt, now: SimTime) {
        match self {
            Uplink::Scalar(ul) => ul.enqueue(pkt, now),
            Uplink::Pf(cell, fg) => cell.enqueue(*fg, pkt, now),
        };
    }

    /// One subframe: the foreground UE's TBS, and the count and wire bytes
    /// of the packets that departed.
    fn subframe(&mut self, now: SimTime) -> (u32, u64, u64) {
        let out = match self {
            Uplink::Scalar(ul) => ul.subframe(now),
            Uplink::Pf(cell, fg) => cell.subframe(now).per_ue.swap_remove(fg.0),
        };
        let wire_bytes = out.departed.iter().map(|(p, _)| p.0 as u64).sum();
        (out.tbs_bits, out.departed.len() as u64, wire_bytes)
    }
}

/// Either uplink model, driven by an arbitrary fault plan and enqueue
/// schedule, keeps its physical invariants every subframe: the buffer
/// never exceeds capacity (and the unsigned accounting never underflows),
/// the grant never exceeds the CQI-15 TBS ceiling, an injected radio link
/// failure really does silence the link, no TBS is logged for bytes the
/// firmware buffer did not serve, and every packet accepted is delivered,
/// flushed or still queued at the end.
#[test]
fn uplink_invariants_hold_under_arbitrary_plans() {
    prop_check!(48, |g| {
        let plan = build(&any_plan(g));
        let arrivals: Vec<Option<u32>> =
            (0..3_000).map(|_| g.chance(0.4).then(|| g.u32_in(100, 1_400))).collect();
        let capacity = UplinkConfig::default().fw_capacity_bytes;
        let ceiling = tbs::tbs_bits(15, UplinkConfig::default().scheduler.max_prbs);
        for mut ul in Uplink::both(g.any_u64(), &plan) {
            let name = ul.name();
            let mut now = SimTime::ZERO;
            let mut delivered = 0u64;
            for &arrival in &arrivals {
                if let Some(bytes) = arrival {
                    ul.enqueue(Pkt(bytes), now);
                }
                let served_before = ul.firmware().total_served_bytes();
                let (tbs_bits, departed, departed_bytes) = ul.subframe(now);
                let served = ul.firmware().total_served_bytes() - served_before;
                delivered += departed;
                let level = ul.firmware().level_bytes();
                prop_assert!(level <= capacity, "{name}: buffer {level} over capacity");
                prop_assert!(tbs_bits <= ceiling, "{name}: tbs {tbs_bits} > ceiling {ceiling}");
                if plan.at(now).radio_failure {
                    prop_assert!(
                        tbs_bits == 0 && departed == 0,
                        "{name}: tbs {tbs_bits}, {departed} departures during radio link failure"
                    );
                }
                // No phantom TBS: bits are logged only for bytes that left
                // the buffer. (A packet's last fragment logs up to the whole
                // packet — `UeBearer::transmit` counts departures at wire
                // size — hence the `max`.)
                prop_assert!(
                    tbs_bits as u64 <= 8 * served.max(departed_bytes) + 7,
                    "{name}: tbs {tbs_bits} for {served} bytes served, {departed_bytes} departed \
                     at {now:?}"
                );
                now += poi360_sim::SUBFRAME;
            }
            let fw = ul.firmware();
            let (accepted, flushed, queued) = (fw.total_enqueued(), fw.flushed(), fw.len() as u64);
            prop_assert!(
                accepted == delivered + flushed + queued,
                "{name}: {accepted} accepted != {delivered} delivered + {flushed} flushed + {queued} queued"
            );
        }
        Ok(())
    });
}
