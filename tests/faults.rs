//! Scenario-driven fault robustness suite.
//!
//! Each named [`FaultScenario`] preset runs under FBCC, GCC, and OCC and
//! must satisfy the recovery invariants defined once in
//! `poi360_bench::faults`: the video rate climbs back after the fault
//! clears, the firmware buffer drains, playback freeze time stays
//! bounded, and the probe plane never sees an out-of-order gauge sample.
//! On top of that, a rerun of the `faults` study under the same seed must
//! produce a byte-identical JSONL trace stream.
//!
//! The hex-grid mobility presets ride the same judge machinery
//! (`poi360_bench::mobility`): packet conservation across every
//! handover, explicit RLF losses, and in-order video delivery.
//!
//! The seed comes from `POI360_FAULT_SEED` (default 1); ci.sh runs a
//! small seed matrix so the invariants are not tuned to one trajectory.

use poi360_analyse::study::{by_name, StudyConfig};
use poi360_bench::faults as fi;
use poi360_bench::protocol::{run_traced, Outcome};
use poi360_bench::runner::with_worker_threads;
use poi360_bench::study::{run_cases, traced_cases};
use poi360_core::config::{CompressionScheme, RateControlKind, SessionConfig};
use poi360_core::report::SessionReport;
use poi360_core::session::Session;
use poi360_lte::scenario::{FaultScenario, FAULT_RUN_SECS};
use poi360_sim::fault::FaultKind;
use poi360_sim::Recorder;

fn seed() -> u64 {
    std::env::var("POI360_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// One fault case run on its own: a session built with the scaled plan
/// attached, reporting through `recorder`, and its out-of-order gauge
/// count. What `protocol::run_traced`'s shared-prefix runs must equal.
fn fresh_run(
    fs: &FaultScenario,
    scheme: CompressionScheme,
    rc: RateControlKind,
    seconds: u64,
    seed: u64,
    recorder: Recorder,
) -> (SessionReport, u64) {
    let cfg = SessionConfig { scheme, ..fi::session_config(fs, rc, seconds, seed) };
    let report =
        Session::faulted_traced(cfg, &fi::scaled_plan(fs, seconds), recorder.clone()).run();
    (report, recorder.out_of_order_drops())
}

/// [`fresh_run`], untraced, judged at full scale.
fn fresh_verdict(
    fs: &FaultScenario,
    scheme: CompressionScheme,
    rc: RateControlKind,
) -> fi::FaultVerdict {
    let (report, drops) = fresh_run(fs, scheme, rc, FAULT_RUN_SECS, seed(), Recorder::null());
    fi::judge(&report, &fi::scaled_plan(fs, FAULT_RUN_SECS), FAULT_RUN_SECS, drops)
}

/// Run one preset under every rate control and assert every invariant.
fn check(name: &str) {
    let fs = FaultScenario::by_name(name).expect("preset exists");
    for rc in [RateControlKind::Fbcc, RateControlKind::Gcc, RateControlKind::Occ] {
        let verdict = fresh_verdict(&fs, CompressionScheme::Poi360, rc);
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
        let verdict = fresh_verdict(&fs, scheme, RateControlKind::Fbcc);
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
    let covered: std::collections::HashSet<_> = all
        .iter()
        .flat_map(|fs| fs.plan.events().iter().map(|e| std::mem::discriminant(&e.kind)))
        .collect();
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
        assert!(covered.contains(&std::mem::discriminant(&kind)), "no preset injects {kind:?}");
    }
}

/// The records of a JSONL stream, without the `RunMeta` stamps (each
/// names its case's seed, so only the records can show a trajectory).
fn records(jsonl: &[u8]) -> Vec<&[u8]> {
    jsonl.split(|&b| b == b'\n').filter(|line| !line.starts_with(b"{\"meta\":")).collect()
}

/// The study's JSONL artifact: every case's stream, in case order.
fn artifact(cfg: &StudyConfig) -> Vec<u8> {
    run_cases(cfg, false).into_iter().flat_map(|e| e.bytes).collect()
}

/// The checked-in `faults` study at `seconds` and the suite seed.
fn fault_suite(seconds: u64, seed: u64) -> StudyConfig {
    StudyConfig { seconds, base_seed: seed, ..by_name("faults").expect("a checked-in preset") }
}

/// The whole suite is a pure function of its seed: running it twice, at
/// worker-pool widths 1 and 4, must produce byte-identical JSONL trace
/// streams (`ci.sh` holds the `reproduce study faults` artifact to the
/// same across processes, pinned here at a shorter horizon).
#[test]
fn fault_suite_rerun_is_byte_identical() {
    let suite = fault_suite(8, seed());
    let cfg = StudyConfig { scenarios: vec!["rlf".into(), "stacked".into()], ..suite };
    let run = || artifact(&cfg);
    let a = with_worker_threads(1, run);
    let b = with_worker_threads(4, run);
    assert!(!a.is_empty(), "trace stream captured");
    assert_eq!(a, b, "fault suite reruns diverged under seed {}", seed());
}

/// A different seed must still satisfy the invariants but produce a
/// different trajectory — the plan is deterministic, not degenerate.
#[test]
fn different_seeds_diverge() {
    let run = |seed| {
        let cfg = StudyConfig { scenarios: vec!["grant_starve".into()], ..fault_suite(8, seed) };
        artifact(&cfg)
    };
    let (a, b) = (run(11), run(12));
    assert_ne!(records(&a), records(&b), "distinct seeds should give distinct traces");
}

// ---------------------------------------------------------------------
// Shared pre-fault prefixes (protocol::run_traced)
// ---------------------------------------------------------------------

use poi360_bench::protocol::{self, Case, Prefix};
use poi360_lte::scenario::Scenario;
use poi360_sim::fault::FaultPlan;
use poi360_sim::json::ToJson;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::trace::{capture, RunMeta};

/// A fault case of the suite's shape: tiling POI360, traced as
/// `"<scenario>.<rc>.s<seed>"`.
fn fault_case(fs: &FaultScenario, rc: RateControlKind, seconds: u64, seed: u64) -> Case {
    Case::Fault {
        src: format!("{}.{}.s{seed}", fs.name, rc.label()),
        fs: fs.clone(),
        scheme: CompressionScheme::Poi360,
        rc,
        seconds,
        seed,
    }
}

/// Every fault case of `cases` as `run_traced` runs it — continued from a
/// copy of its group's shared prefix — must equal the case run on its
/// own: the JSONL `run_traced` returns byte for byte, and the report JSON
/// of the same continuation.
fn assert_branches_match_fresh(cases: Vec<Case>) {
    let groups = protocol::fault_groups(&cases);
    let prefixes: Vec<Prefix> = groups.iter().map(Prefix::run).collect();
    let mut branched_reports = vec![None; cases.len()];
    for (group, prefix) in groups.iter().zip(&prefixes) {
        for &k in &group.members {
            let Case::Fault { src, fs, seconds, .. } = &cases[k] else { unreachable!() };
            let plan = fi::scaled_plan(fs, *seconds);
            let ((report, drops), _) = capture(None, |sink| prefix.continue_case(&plan, sink, src));
            branched_reports[k] = Some((report.to_json(), drops));
        }
    }
    let fresh: Vec<_> = cases
        .iter()
        .map(|case| {
            let Case::Fault { src, fs, scheme, rc, seconds, seed } = case else {
                unreachable!("fault cases only")
            };
            capture(Some(&RunMeta::current(*seed)), |sink| {
                let recorder = Recorder::to_sink(sink.clone(), src);
                let (report, drops) = fresh_run(fs, *scheme, *rc, *seconds, *seed, recorder);
                (report.to_json(), drops)
            })
        })
        .collect();
    let traced = protocol::run_traced(cases);
    for (k, ((report, bytes), (_, traced_bytes))) in fresh.iter().zip(&traced).enumerate() {
        let branched = branched_reports[k].as_ref().expect("every fault case is in a group");
        assert_eq!(&branched.0, &report.0, "case {k}: branched report JSON differs");
        assert_eq!(branched.1, report.1, "case {k}: out-of-order counts differ");
        assert!(traced_bytes == bytes, "case {k}: run_traced JSONL differs from a fresh run");
    }
}

/// The seven presets plus the empty plan, under every controller, at two
/// seeds and full length: one prefix per (controller, seed), branched at
/// t = 10 s into eight continuations each.
#[test]
fn shared_prefix_runs_equal_fresh_runs() {
    let mut scenarios = vec![poi360_bench::study::fault_scenario("baseline")];
    scenarios.extend(FaultScenario::all());
    let mut cases = Vec::new();
    for fs in &scenarios {
        for rc in [RateControlKind::Fbcc, RateControlKind::Gcc, RateControlKind::Occ] {
            for seed in [seed(), seed() + 3] {
                cases.push(fault_case(fs, rc, FAULT_RUN_SECS, seed));
            }
        }
    }
    let groups = protocol::fault_groups(&cases);
    assert_eq!(groups.len(), 6, "one group per controller and seed");
    assert!(groups.iter().all(|g| g.members.len() == 8 && g.branch_at == SimTime::from_secs(10)));
    assert_branches_match_fresh(cases);
}

/// The edges of the branch point: an 8 s run scales the t = 10 s onset to
/// 3 333 333 µs, between two subframes (a branch one subframe late runs
/// the 3 334 ms subframe without the plan); a group whose plans are all
/// empty is all prefix; a plan striking at t = 0 leaves no prefix.
#[test]
fn shared_prefix_branch_point_edges() {
    let rlf = FaultScenario::by_name("rlf").expect("preset exists");
    let at_zero = FaultScenario {
        name: "at_zero",
        what: "grant starvation from the first subframe",
        scenario: Scenario::quiet(),
        plan: FaultPlan::new().with(
            FaultKind::GrantStarvation { factor: 0.3 },
            SimTime::ZERO,
            SimDuration::from_secs(2),
        ),
    };
    let baseline = poi360_bench::study::fault_scenario("baseline");
    let (fbcc, gcc) = (RateControlKind::Fbcc, RateControlKind::Gcc);
    let cases = vec![
        fault_case(&rlf, fbcc, 8, seed()),
        fault_case(&FaultScenario::by_name("stacked").expect("preset exists"), fbcc, 8, seed()),
        fault_case(&baseline, gcc, 5, seed()),
        fault_case(&baseline, fbcc, 5, seed()),
        fault_case(&at_zero, gcc, 6, seed()),
        fault_case(&rlf, gcc, 6, seed()),
    ];
    let branch_at: Vec<u64> =
        protocol::fault_groups(&cases).iter().map(|g| g.branch_at.as_micros()).collect();
    assert_eq!(branch_at, [3_333_333, 5_000_000, 5_000_000, 0]);
    assert_branches_match_fresh(cases);
}

/// `reproduce study faults --smoke` formats each group's prefix once and
/// splices its lines into every member's stream: the records it formats
/// (each prefix counted once, plus every member's own) and the record
/// lines it writes, which the sharing leaves as they were. The three
/// prefixes' 7 697 records open seven members' streams each and are
/// formatted once: 46 182 fewer records formatted than lines written. The
/// default-scale suite and the benchmark's fault study are pinned the same
/// way in `crates/bench/tests/fault_prefix.rs`.
#[test]
fn fault_smoke_suite_formats_84_355_records_per_invocation() {
    let cfg = poi360_bench::study::smoke_variant(&by_name("faults").expect("a checked-in preset"));
    let cases = traced_cases(&cfg, true);
    let groups = protocol::fault_groups(&cases);
    let mut prefix_of = vec![0; cases.len()];
    let mut formatted = 0;
    for group in &groups {
        let records = Prefix::run(group).records();
        formatted += records;
        group.members.iter().for_each(|&k| prefix_of[k] = records);
    }
    let mut written = 0;
    for ((_, bytes), prefix) in run_traced(cases).iter().zip(prefix_of) {
        let lines = records(bytes).iter().filter(|l| l.starts_with(b"{\"t_us\":")).count() as u64;
        written += lines;
        formatted += lines - prefix;
    }
    assert_eq!((formatted, written), (84_355, 130_537));
}

// ---------------------------------------------------------------------
// Packet conservation across handover (mobility presets, judged by the
// same machinery every mobility study uses)
// ---------------------------------------------------------------------

use poi360_bench::mobility as mo;
use poi360_core::multicell::MultiGridReport;
use poi360_lte::scenario::MobilityScenario;

/// The grid report of each named mobility preset at the suite seed, at
/// the scale `reproduce study mobility --smoke` runs, judged.
fn smoke_grids(scenarios: &[&str]) -> Vec<(mo::MobilityVerdict, MultiGridReport)> {
    let cfg = StudyConfig {
        scenarios: scenarios.iter().map(|s| s.to_string()).collect(),
        seeds: 1,
        base_seed: seed(),
        ..poi360_bench::study::smoke_variant(&by_name("mobility").expect("a checked-in preset"))
    };
    let grids = run_traced(traced_cases(&cfg, true)).into_iter().zip(scenarios);
    grids
        .map(|((outcome, _), name)| {
            let Outcome::Grid(report) = outcome else { unreachable!("a grid case") };
            let ms = MobilityScenario::by_name(name).expect("preset exists");
            (mo::judge(&ms, &report), report)
        })
        .collect()
}

/// Every RTP packet accepted by a firmware buffer before a handover is
/// accounted for afterwards: delivered by some serving cell, explicitly
/// dropped by an RLF flush, or still queued at run end — exactly once.
/// (Stale retransmissions are culled *before* the buffer by the session's
/// RTX age rule, so they never enter this ledger.) The judge also checks
/// first-transmission video never reorders or duplicates across the
/// migration, i.e. no silent loss and no double delivery.
#[test]
fn handover_conserves_every_packet() {
    let [(verdict, report)] = &smoke_grids(&["convoy"])[..] else { unreachable!("one preset") };
    assert!(
        verdict.pass(),
        "convoy seed {} violated {:?}\n{:#?}",
        seed(),
        verdict.failures(),
        verdict
    );
    for fs in &report.flow_stats {
        assert!(fs.handovers + fs.rlfs >= 1, "{} never handed over", fs.label);
        assert_eq!(
            fs.enqueued,
            fs.delivered + fs.flushed + fs.queued_at_end,
            "{} leaked packets",
            fs.label
        );
        assert_eq!(fs.seq_violations, 0, "{} reordered or duplicated video", fs.label);
    }
    assert_eq!(report.load_conservation_violations, 0, "a load UE leaked packets");
}

/// Under the over-conservative `late_ho` preset, handovers degrade into
/// RLFs — more of them than the default A3 settings give the same convoy —
/// whose losses must be *explicit*: the flush counter owns every packet
/// the re-establishment discarded, and the conservation identity still
/// balances to the packet.
#[test]
fn rlf_flush_losses_are_explicit_not_silent() {
    let [(late, out), (_, base)] = &smoke_grids(&["late_ho", "convoy"])[..] else {
        unreachable!("two presets")
    };
    let rlfs = |r: &MultiGridReport| r.flow_stats.iter().map(|f| f.rlfs).sum::<u64>();
    let flushed: u64 = out.flow_stats.iter().map(|f| f.flushed).sum();
    assert!(rlfs(out) >= 1, "late_ho preset must cause at least one RLF");
    assert!(
        rlfs(out) > rlfs(base),
        "conservative A3 must cause more RLFs (late {} vs base {})",
        rlfs(out),
        rlfs(base)
    );
    assert!(flushed >= 1, "an RLF on a loaded uplink must flush queued packets");
    assert!(late.conserved, "RLF flushes still conserve packets exactly");
    for fs in &out.flow_stats {
        assert!(fs.conserved(), "{}: RLF broke conservation", fs.label);
        assert_eq!(fs.seq_violations, 0, "{}: RLF reordered video", fs.label);
    }
}
