//! The `reproduce` binary end to end: what a script sees of a bad
//! command line.

use std::process::Command;

/// A `--baseline` that cannot gate anything — an empty file, or a
/// provenance stamp with no probe record after it — is a usage error
/// (exit 2) raised before any case runs, so nothing is written.
#[test]
fn a_baseline_without_records_fails_before_any_case_runs() {
    let dir = std::env::temp_dir().join(format!("poi360-cli-{}", std::process::id()));
    let (base, out) = (dir.join("base"), dir.join("out"));
    std::fs::create_dir_all(&base).expect("a scratch directory");
    let stamp = r#"{"meta":"poi360.trace","schema":1,"commit":"x","argv":[],"seed":1}"#;
    for content in [String::new(), format!("{stamp}\n")] {
        std::fs::write(base.join("study_cc_matrix_smoke.jsonl"), &content).expect("written");
        let run = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(["study", "cc_matrix", "--smoke", "--baseline"])
            .arg(&base)
            .env("POI360_BENCH_DIR", &out)
            .output()
            .expect("reproduce starts");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "baseline {content:?}: {stderr}");
        assert!(stderr.contains("holds no probe record"), "baseline {content:?}: {stderr}");
        assert!(!stderr.contains("# study"), "a case ran: {stderr}");
        assert!(!out.exists(), "artifacts were written");
    }
    std::fs::remove_dir_all(&dir).expect("the scratch directory goes");
}
