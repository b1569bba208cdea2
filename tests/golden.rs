//! Golden-output tests: re-run the Table 1 and Fig. 5/6 generators at
//! the default fixed-seed configuration and assert the text matches the
//! checked-in `bench_results/{table1,fig5,fig6}.txt` byte for byte (debug
//! and release builds print the same bytes). Regenerate the files with
//! `cargo run --release -p poi360-bench --bin reproduce -- <name>` after
//! an intentional calibration change.

use poi360_bench::experiments::{FigCtx, FIGURES};
use poi360_bench::runner::ExpConfig;

fn golden(name: &str) -> String {
    let path = format!("{}/bench_results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"))
}

/// The named figure artifact, regenerated at the default scale and seed.
fn fresh(stem: &str) -> String {
    let figure = FIGURES.iter().find(|f| f.1 == stem).expect("a FIGURES stem");
    FigCtx::new(ExpConfig::default()).render(figure)
}

/// Table 1 is pure arithmetic (the PSNR→MOS mapping); it must reproduce
/// byte for byte.
#[test]
fn table1_matches_golden_exactly() {
    assert_eq!(fresh("table1"), golden("table1"), "table1 output drifted");
}

/// Fig. 5's buffer→TBS sweep at the default seed must match the
/// checked-in curve.
#[test]
fn fig5_matches_golden() {
    assert_eq!(fresh("fig5"), golden("fig5"), "fig5 output drifted");
}

/// Fig. 6's firmware-buffer CDF under GCC at the default seed must match
/// the checked-in distribution.
#[test]
fn fig6_matches_golden() {
    assert_eq!(fresh("fig6"), golden("fig6"), "fig6 output drifted");
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01B3))
}

/// The `reproduce study cc_matrix --smoke` report (2 controllers × 3
/// scenarios × 3 seeds at CI scale) must match the checked-in per-probe
/// distribution tables, rollups, and controller deltas. Regenerate with
/// `cargo run --release -p poi360-bench --bin reproduce -- study cc_matrix --smoke`.
///
/// The read path (ingest → pool → report, Chrome export) is also pinned
/// byte for byte: the FNV-1a-64 constants were taken on the commit before
/// the record-shaped ingest and sort-once statistics landed, so a change
/// to how artifacts are *read* must leave them alone; a deliberate model
/// change re-pins them together with the golden. (The self-baselined
/// report's constant moved once since, with its layout: the drift gate
/// grew the per-scenario counter table. Both report constants then moved
/// with the `rlf` rows when the re-establishment subframe stopped logging
/// a TBS, EXPERIMENTS.md deviation D10; the Chrome export is of a
/// `baseline` case and stayed. Both report constants moved once more when
/// every study report gained its closing invariants section; the lines
/// above that section did not change. All three moved with the
/// ziggurat's normal draws, EXPERIMENTS.md deviation D13.)
#[test]
fn study_cc_matrix_smoke_matches_golden() {
    let cfg = poi360_analyse::study::by_name("cc_matrix").expect("preset exists");
    let protocol = poi360_bench::study::run_protocol(&cfg, true, None).expect("study runs");
    assert_eq!(protocol.failures, 0, "smoke study must pass without a baseline");
    assert_eq!(
        protocol.text,
        golden("study_cc_matrix_smoke"),
        "study_cc_matrix_smoke report drifted"
    );
    assert_eq!(fnv1a(protocol.text.as_bytes()), 0x4993_4566_5a18_3647, "report bytes moved");
    assert_eq!(fnv1a(&protocol.extra[0].1), 0x18ac_545b_dabb_faa0, "Chrome export bytes moved");
    let base = poi360_analyse::ingest::RunTrace::parse_bytes(&protocol.jsonl).expect("it parses");
    let rerun = poi360_bench::study::run_protocol(&cfg, true, Some(&base))
        .expect("self-baselined study runs");
    assert_eq!(rerun.failures, 0, "a run cannot drift from itself:\n{}", rerun.text);
    assert_eq!(fnv1a(rerun.text.as_bytes()), 0x6047_23ac_248c_7c2d, "baseline-gate bytes moved");
}

/// The checked-in study `name`, at smoke scale when `smoke`: its report
/// must match `bench_results/study_<name>[_smoke].txt` with no failure —
/// no drift and every case holding its family's invariants. Regenerate
/// with `cargo run --release -p poi360-bench --bin reproduce -- study
/// <name> [--smoke]`.
fn study_matches_golden(name: &str, smoke: bool) {
    let cfg = poi360_analyse::study::by_name(name).expect("preset exists");
    let protocol = poi360_bench::study::run_protocol(&cfg, smoke, None).expect("study runs");
    assert_eq!(protocol.failures, 0, "every case must hold its invariants:\n{}", protocol.text);
    let stem = format!("study_{name}{}", if smoke { "_smoke" } else { "" });
    assert_eq!(protocol.text, golden(&stem), "{stem} report drifted");
}

/// Every controller with every scheme at CI scale: the shared cell's
/// quality columns and the fault legs' invariants, closing with the
/// league table and its gate line.
#[test]
fn study_arena_smoke_matches_golden() {
    study_matches_golden("arena", true);
}

/// One traced FBCC session in the busy cell at full length (30 s): the
/// per-probe samples and counter totals are its probe counts.
#[test]
fn study_busy_matches_golden() {
    study_matches_golden("busy", false);
}

/// The convoy at three seeds on the compressed lattice: per-flow handover
/// counts, conservation ledger and PSNR across handover, and each case's
/// load-UE totals and verdict.
#[test]
fn study_mobility_smoke_matches_golden() {
    study_matches_golden("mobility", true);
}

/// Every fault preset under FBCC, GCC and OCC, timeline compressed 4x:
/// rates, freeze ratios, buffer tails and a recovery verdict per case.
#[test]
fn study_faults_smoke_matches_golden() {
    study_matches_golden("faults", true);
}

/// Every fenced block in EXPERIMENTS.md opened with ` ```text <stem> `
/// quotes `bench_results/<stem>.txt`: its lines (less the fence's own
/// indentation) must occur there verbatim and consecutively, so the
/// prose's "Measured" numbers cannot drift from the gated artifacts.
#[test]
fn experiments_md_excerpts_are_verbatim_artifact_lines() {
    let path = format!("{}/EXPERIMENTS.md", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("EXPERIMENTS.md");
    let mut lines = text.lines().enumerate();
    let mut stems = std::collections::BTreeSet::new();
    while let Some((at, line)) = lines.next() {
        let Some(stem) = line.trim_start().strip_prefix("```text ") else { continue };
        let indent = &line[..line.len() - line.trim_start().len()];
        let block: Vec<&str> = lines
            .by_ref()
            .map(|(_, l)| l.strip_prefix(indent).unwrap_or(l))
            .take_while(|l| *l != "```")
            .collect();
        let artifact = golden(stem);
        let artifact: Vec<&str> = artifact.lines().collect();
        assert!(
            !block.is_empty() && artifact.windows(block.len()).any(|w| w == block),
            "EXPERIMENTS.md:{}: this block is not {} consecutive lines of bench_results/{stem}.txt:\n{}",
            at + 1,
            block.len(),
            block.join("\n")
        );
        stems.insert(stem.to_string());
    }
    // Every figure artifact except the static Table 1 is quoted at least once.
    let mut figures: Vec<&str> = FIGURES.iter().map(|f| f.1).filter(|s| *s != "table1").collect();
    figures.sort_unstable();
    assert_eq!(stems.iter().map(String::as_str).collect::<Vec<_>>(), figures);
}
