//! Exact work counters of the shared pre-fault prefix (`ci.sh` runs this
//! binary under its exact gates). `protocol::run_traced` steps the
//! subframes that fault cases of one session configuration share once,
//! up to their earliest fault window, and continues every case from a
//! copy. The counts below come from the grouping `run_traced` itself runs
//! (`protocol::fault_subframes`), each beside what stepping every case
//! whole costs, so a change that stops the sharing shows as a count.

use poi360_analyse::study::{by_name, StudyConfig, StudyFamily, CONTROLLERS};
use poi360_bench::protocol::{fault_subframes, Case};
use poi360_bench::study::{smoke_variant, traced_cases};
use poi360_lte::scenario::{FaultScenario, FAULT_RUN_SECS};

/// Session subframes of every fault case stepped whole.
fn unshared(cases: &[Case]) -> u64 {
    cases
        .iter()
        .map(|c| if let Case::Fault { seconds, .. } = c { seconds * 1_000 } else { 0 })
        .sum()
}

/// The fault study the benchmark's trace workloads run: the quiet
/// baseline plus the seven presets under each controller, one seed, 24 s.
/// One prefix of 10 s per controller, eight 14 s continuations each.
#[test]
fn benchmark_fault_study_steps_366_000_subframes() {
    let mut scenarios = vec!["baseline".to_string()];
    scenarios.extend(FaultScenario::all().iter().map(|f| f.name.to_string()));
    let cfg = StudyConfig {
        name: "benchmark_faults".into(),
        family: StudyFamily::Fault,
        scenarios,
        controllers: CONTROLLERS.map(String::from).to_vec(),
        seeds: 1,
        base_seed: 360,
        seconds: FAULT_RUN_SECS,
        ..Default::default()
    };
    cfg.validate().expect("the study config is valid");
    let cases = traced_cases(&cfg, false);
    assert_eq!(cases.len(), 24);
    assert_eq!(unshared(&cases), 576_000);
    assert_eq!(fault_subframes(&cases), 366_000);
}

/// The cases `reproduce study faults` runs (`study::run_protocol` expands
/// the checked-in preset once per invocation): seven presets under three
/// controllers, 24 s.
#[test]
fn fault_suite_steps_324_000_subframes_per_invocation() {
    let cases = traced_cases(&by_name("faults").expect("a checked-in preset"), false);
    assert_eq!(unshared(&cases), 504_000);
    assert_eq!(fault_subframes(&cases), 324_000);
}

/// `reproduce study faults --smoke`: the same matrix at 6 s, striking at
/// 2.5 s.
#[test]
fn fault_smoke_suite_steps_81_000_subframes_per_invocation() {
    let cfg = smoke_variant(&by_name("faults").expect("a checked-in preset"));
    let cases = traced_cases(&cfg, true);
    assert_eq!(unshared(&cases), 126_000);
    assert_eq!(fault_subframes(&cases), 81_000);
}
