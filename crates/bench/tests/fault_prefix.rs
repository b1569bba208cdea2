//! Exact work counters of the shared pre-fault prefix (`ci.sh` runs this
//! binary under its exact gates). `protocol::run_traced` steps the
//! subframes that fault cases of one session configuration share once,
//! up to their earliest fault window, and continues every case from a
//! copy. The counts below come from the grouping `run_traced` itself runs
//! (`protocol::fault_subframes`), each beside what stepping every case
//! whole costs, so a change that stops the sharing shows as a count.
//! The prefix's records are formatted once too, and their lines spliced
//! into every member's stream: the records formatted are pinned beside
//! the record lines written, which the sharing leaves as they were.
//! `tests/faults.rs` holds the same two counts for `study faults --smoke`
//! in Tier-1.

use poi360_analyse::study::{by_name, StudyConfig, StudyFamily, CONTROLLERS};
use poi360_bench::protocol::{fault_groups, fault_subframes, run_traced, Case, Prefix};
use poi360_bench::study::{smoke_variant, traced_cases};
use poi360_lte::scenario::{FaultScenario, FAULT_RUN_SECS};

/// Probe records `run_traced` formats for the fault cases of `cases`, and
/// the record lines it writes for them: each group's prefix counted once,
/// plus every member's own records, against every line of every stream.
fn records_formatted_and_written(cases: Vec<Case>) -> (u64, u64) {
    let groups = fault_groups(&cases);
    let mut prefix_of = vec![0; cases.len()];
    let mut formatted = 0;
    for group in &groups {
        let records = Prefix::run(group).records();
        formatted += records;
        group.members.iter().for_each(|&k| prefix_of[k] = records);
    }
    let mut written = 0;
    for ((_, bytes), prefix) in run_traced(cases).iter().zip(prefix_of) {
        let lines = bytes.split(|&b| b == b'\n').filter(|l| l.starts_with(b"{\"t_us\":")).count();
        written += lines as u64;
        formatted += lines as u64 - prefix;
    }
    (formatted, written)
}

/// Session subframes of every fault case stepped whole.
fn unshared(cases: &[Case]) -> u64 {
    cases
        .iter()
        .map(|c| if let Case::Fault { seconds, .. } = c { seconds * 1_000 } else { 0 })
        .sum()
}

/// The fault study the benchmark's trace workloads run: the quiet
/// baseline plus the seven presets under each controller, one seed, 24 s.
/// One prefix of 10 s per controller, eight 14 s continuations each. Its
/// 618 282 record lines are formatted as 407 883 records: each prefix's
/// 10 019 once instead of eight times.
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
    assert_eq!(records_formatted_and_written(cases), (407_883, 618_282));
}

/// The cases `reproduce study faults` runs (`study::run_protocol` expands
/// the checked-in preset once per invocation): seven presets under three
/// controllers, 24 s, their 573 079 record lines formatted as 375 403
/// records.
#[test]
fn fault_suite_steps_324_000_subframes_per_invocation() {
    let cases = traced_cases(&by_name("faults").expect("a checked-in preset"), false);
    assert_eq!(unshared(&cases), 504_000);
    assert_eq!(fault_subframes(&cases), 324_000);
    assert_eq!(records_formatted_and_written(cases), (375_403, 573_079));
}

/// `reproduce study faults --smoke`: the same matrix at 6 s, striking at
/// 2.5 s. Its records formatted are gated in Tier-1, in `tests/faults.rs`.
#[test]
fn fault_smoke_suite_steps_81_000_subframes_per_invocation() {
    let cfg = smoke_variant(&by_name("faults").expect("a checked-in preset"));
    let cases = traced_cases(&cfg, true);
    assert_eq!(unshared(&cases), 126_000);
    assert_eq!(fault_subframes(&cases), 81_000);
}
