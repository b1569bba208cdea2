//! Differential stall-handling test (ISSUE 9 satellite): under the
//! `diag_freeze` preset the two diag-driven controllers must react in
//! their own documented ways —
//!
//! * **FBCC**'s stall detection is pinned byte-for-byte: the `fbcc.*`
//!   probe stream of the full-scale run is compared against the
//!   checked-in golden `bench_results/fbcc_diag_freeze.txt`, so any
//!   behavioural drift in the detector shows up as a byte diff, not a
//!   tolerance miss. Regenerate deliberately with
//!   `POI360_BLESS_DIFF=1 cargo test --release --test controller_diff`.
//! * **OCC** must *hold* its capacity estimate while the diag pair is
//!   frozen — the rate may not grow during the stall window, because a
//!   stalled modem must never read as fresh capacity.

use poi360_bench::faults as fi;
use poi360_core::config::{CompressionScheme, RateControlKind};
use poi360_core::report::SessionReport;
use poi360_lte::scenario::{FaultScenario, FAULT_AT, FAULT_RUN_SECS};
use poi360_sim::time::SimDuration;
use poi360_sim::trace::capture;
use poi360_sim::Recorder;

/// Run one controller under the full-scale `diag_freeze` preset, tracing
/// into an *unstamped* in-memory sink (a `RunMeta` stamp carries the test
/// binary's argv, which would never match a blessed golden).
fn run_diag_freeze(rc: RateControlKind) -> ((SessionReport, fi::FaultVerdict), Vec<u8>) {
    let fs = FaultScenario::by_name("diag_freeze").expect("preset exists");
    capture(None, |sink| {
        let recorder = Recorder::to_sink(sink.clone(), "diff");
        fi::run_case(&fs, CompressionScheme::Poi360, rc, FAULT_RUN_SECS, 1, recorder)
    })
}

/// The `fbcc.*` probe lines of a JSONL stream, order preserved.
fn fbcc_lines(jsonl: &[u8]) -> String {
    let text = std::str::from_utf8(jsonl).expect("probe stream is UTF-8");
    let mut out = String::new();
    for line in text.lines().filter(|l| l.contains("fbcc.")) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[test]
fn fbcc_stall_detection_matches_the_checked_in_golden() {
    let ((_, verdict), jsonl) = run_diag_freeze(RateControlKind::Fbcc);
    assert!(verdict.pass(), "diag_freeze must pass under FBCC: {:?}", verdict.failures());
    let lines = fbcc_lines(&jsonl);
    assert!(!lines.is_empty(), "FBCC runs must emit fbcc.* probes");

    let path = format!("{}/bench_results/fbcc_diag_freeze.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("POI360_BLESS_DIFF").is_ok() {
        std::fs::write(&path, &lines).expect("bless golden");
        return;
    }
    let golden =
        std::fs::read_to_string(&path).expect("golden missing — bless with POI360_BLESS_DIFF=1");
    assert!(
        lines == golden,
        "fbcc.* probe stream drifted from bench_results/fbcc_diag_freeze.txt \
         ({} bytes vs {} golden); if the change is intended, regenerate with \
         POI360_BLESS_DIFF=1",
        lines.len(),
        golden.len()
    );
}

#[test]
fn occ_holds_its_estimate_while_the_diag_pair_is_frozen() {
    let ((report, verdict), jsonl) = run_diag_freeze(RateControlKind::Occ);
    assert!(verdict.pass(), "diag_freeze must pass under OCC: {:?}", verdict.failures());
    assert!(fbcc_lines(&jsonl).is_empty(), "OCC runs must not emit FBCC probes");

    // The preset freezes the diag pair for 2.5 s starting at FAULT_AT.
    // The stall signature needs two consecutive constant 40 ms batches,
    // so judge from 200 ms into the window: past that point the rate may
    // fall (pre-stall relief scaling keeps draining) but never grow.
    let settle = FAULT_AT + SimDuration::from_millis(200);
    let clear = FAULT_AT + SimDuration::from_millis(2_500);
    let series = &report.video_rate;
    let at_settle = series
        .iter()
        .take_while(|&(t, _)| t <= settle)
        .last()
        .map(|(_, v)| v)
        .expect("samples before the stall");
    let grew = series
        .iter()
        .filter(|&(t, _)| t > settle && t < clear)
        .find(|&(_, v)| v > at_settle * 1.001);
    assert!(
        grew.is_none(),
        "OCC rate grew during the frozen-diag window: {grew:?} from {at_settle}"
    );
}
