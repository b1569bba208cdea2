//! Scenario-driven fault robustness suite.
//!
//! Each named [`FaultScenario`] preset runs under FBCC, GCC, and OCC and
//! must satisfy the recovery invariants defined once in
//! `poi360_bench::faults`: the video rate climbs back after the fault
//! clears, the firmware buffer drains, playback freeze time stays
//! bounded, and the probe plane never sees an out-of-order gauge sample.
//! On top of that, a rerun of the whole suite under the same seed must
//! produce a byte-identical JSONL trace stream.
//!
//! The hex-grid mobility presets ride the same judge machinery
//! (`poi360_bench::mobility`): packet conservation across every
//! handover, explicit RLF losses, and in-order video delivery.
//!
//! The seed comes from `POI360_FAULT_SEED` (default 1); ci.sh runs a
//! small seed matrix so the invariants are not tuned to one trajectory.

use poi360_bench::faults as fi;
use poi360_core::config::{CompressionScheme, RateControlKind};
use poi360_lte::scenario::{FaultScenario, FAULT_RUN_SECS};
use poi360_sim::fault::FaultKind;
use poi360_sim::Recorder;

fn seed() -> u64 {
    std::env::var("POI360_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// Run one preset under every rate control and assert every invariant.
fn check(name: &str) {
    let fs = FaultScenario::by_name(name).expect("preset exists");
    for rc in [RateControlKind::Fbcc, RateControlKind::Gcc, RateControlKind::Occ] {
        let (_, verdict) = fi::run_case(
            &fs,
            CompressionScheme::Poi360,
            rc,
            FAULT_RUN_SECS,
            seed(),
            Recorder::null(),
        );
        assert!(
            verdict.pass(),
            "{name}/{} seed {} violated {:?}\n{:#?}",
            rc.label(),
            seed(),
            verdict.failures(),
            verdict
        );
    }
}

macro_rules! fault_scenario_test {
    ($fn_name:ident, $name:expr) => {
        #[test]
        fn $fn_name() {
            check($name);
        }
    };
}

/// The related-work tile policies ride the same invariants: an RLF under
/// Pano or Ghosh tiling (with the default FBCC control) must recover just
/// like the plain POI360 scheme — the tile modulation only reshapes
/// quality across the panorama, never the congestion response.
#[test]
fn tile_policies_recover_from_rlf() {
    let fs = FaultScenario::by_name("rlf").expect("preset exists");
    for scheme in [CompressionScheme::Pano, CompressionScheme::Ghosh] {
        let (_, verdict) = fi::run_case(
            &fs,
            scheme,
            RateControlKind::Fbcc,
            FAULT_RUN_SECS,
            seed(),
            Recorder::null(),
        );
        assert!(
            verdict.pass(),
            "rlf/{} seed {} violated {:?}\n{:#?}",
            scheme.label(),
            seed(),
            verdict.failures(),
            verdict
        );
    }
}

fault_scenario_test!(radio_link_failure_recovers, "rlf");
fault_scenario_test!(diag_stall_recovers, "diag_freeze");
fault_scenario_test!(grant_starvation_recovers, "grant_starve");
fault_scenario_test!(feedback_blackout_recovers, "roi_blackout");
fault_scenario_test!(wireline_spike_recovers, "wireline_spike");
fault_scenario_test!(flash_crowd_recovers, "flash_crowd");
fault_scenario_test!(stacked_faults_recover, "stacked");

/// The named presets cover every fault kind the plane can inject, so the
/// per-scenario tests above exercise all six seams.
#[test]
fn presets_cover_every_fault_kind() {
    let all = FaultScenario::all();
    assert!(all.len() >= 6, "at least six named scenarios");
    let covered: std::collections::BTreeSet<&str> =
        all.iter().flat_map(|fs| fs.plan.events().iter().map(|e| e.kind.probe_name())).collect();
    for kind in [
        FaultKind::RadioLinkFailure,
        FaultKind::DiagStall,
        FaultKind::GrantStarvation { factor: 0.5 },
        FaultKind::FeedbackLoss { loss: 0.5 },
        FaultKind::WirelineSpike {
            extra_delay: poi360_sim::time::SimDuration::from_millis(1),
            extra_loss: 0.0,
        },
        FaultKind::FlashCrowd { extra_load: 0.5 },
    ] {
        assert!(covered.contains(kind.probe_name()), "no preset injects {}", kind.probe_name());
    }
}

/// The whole suite is a pure function of its seed: running it twice must
/// produce byte-identical JSONL trace streams (the `reproduce faults`
/// acceptance criterion, pinned here at a shorter horizon).
#[test]
fn fault_suite_rerun_is_byte_identical() {
    let scenarios = [
        FaultScenario::by_name("rlf").expect("preset"),
        FaultScenario::by_name("stacked").expect("preset"),
    ];
    let (_, a) = fi::run_suite(&scenarios, 8, seed());
    let (_, b) = fi::run_suite(&scenarios, 8, seed());
    assert!(!a.is_empty(), "trace stream captured");
    assert_eq!(a, b, "fault suite reruns diverged under seed {}", seed());
}

/// A different seed must still satisfy the invariants but produce a
/// different trajectory — the plan is deterministic, not degenerate.
#[test]
fn different_seeds_diverge() {
    let fs = FaultScenario::by_name("grant_starve").expect("preset");
    let (_, a) = fi::run_suite(std::slice::from_ref(&fs), 8, 11);
    let (_, b) = fi::run_suite(std::slice::from_ref(&fs), 8, 12);
    assert_ne!(a, b, "distinct seeds should give distinct traces");
}

// ---------------------------------------------------------------------
// Packet conservation across handover (mobility presets, judged by the
// same machinery `reproduce mobility` uses)
// ---------------------------------------------------------------------

use poi360_bench::mobility as mo;
use poi360_lte::scenario::MobilityScenario;

/// Every RTP packet accepted by a firmware buffer before a handover is
/// accounted for afterwards: delivered by some serving cell, explicitly
/// dropped by an RLF flush, or still queued at run end — exactly once.
/// (Stale retransmissions are culled *before* the buffer by the session's
/// RTX age rule, so they never enter this ledger.) The judge also checks
/// first-transmission video never reorders or duplicates across the
/// migration, i.e. no silent loss and no double delivery.
#[test]
fn handover_conserves_every_packet() {
    let ms = MobilityScenario::by_name("convoy").expect("preset exists");
    let (out, _) = mo::run_case(&ms, &mo::MobilityScale::smoke(), seed());
    assert!(
        out.verdict.pass(),
        "convoy seed {} violated {:?}\n{:#?}",
        seed(),
        out.verdict.failures(),
        out.verdict
    );
    for fs in &out.report.flow_stats {
        assert!(fs.handovers + fs.rlfs >= 1, "{} never handed over", fs.label);
        assert_eq!(
            fs.enqueued,
            fs.delivered + fs.flushed + fs.queued_at_end,
            "{} leaked packets",
            fs.label
        );
        assert_eq!(fs.seq_violations, 0, "{} reordered or duplicated video", fs.label);
    }
    assert_eq!(out.report.load_conservation_violations, 0, "a load UE leaked packets");
}

/// Under the over-conservative `late_ho` preset, handovers degrade into
/// RLFs whose losses must be *explicit*: the flush counter owns every
/// packet the re-establishment discarded, and the conservation identity
/// still balances to the packet.
#[test]
fn rlf_flush_losses_are_explicit_not_silent() {
    let late = MobilityScenario::by_name("late_ho").expect("preset exists");
    let (out, _) = mo::run_case(&late, &mo::MobilityScale::smoke(), seed());
    let rlfs: u64 = out.report.flow_stats.iter().map(|f| f.rlfs).sum();
    let flushed: u64 = out.report.flow_stats.iter().map(|f| f.flushed).sum();
    assert!(rlfs >= 1, "late_ho preset must cause at least one RLF");
    assert!(flushed >= 1, "an RLF on a loaded uplink must flush queued packets");
    for fs in &out.report.flow_stats {
        assert!(fs.conserved(), "{}: RLF broke conservation", fs.label);
        assert_eq!(fs.seq_violations, 0, "{}: RLF reordered video", fs.label);
    }
}
