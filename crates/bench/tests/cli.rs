//! The `reproduce` binary end to end: what a script sees of a bad
//! command line, and what `--list` offers.

use poi360_analyse::study::{study_presets, StudyConfig, StudyFamily};
use poi360_lte::scenario::preset_registry;
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

/// `reproduce --list` names every scenario a `.study` file accepts, in
/// both families: each registry preset and each scenario a checked-in
/// study runs (the plan-less `baseline`, `busy` and `shared` among
/// them) that `StudyConfig::validate` admits has a `<family> <name>`
/// row, and every such row names a scenario it admits.
#[test]
fn list_names_every_scenario_a_study_accepts() {
    let run = Command::new(env!("CARGO_BIN_EXE_reproduce")).arg("--list").output().expect("runs");
    assert_eq!(run.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&run.stdout);
    let rows: Vec<(&str, &str)> = stdout
        .lines()
        .filter_map(|l| {
            let mut words = l.split_whitespace();
            Some((words.next()?, words.next()?))
        })
        .collect();
    let mut candidates: Vec<String> =
        preset_registry().into_iter().map(|p| p.name.to_string()).collect();
    for (_, text) in study_presets() {
        candidates.extend(StudyConfig::from_kv_str(text).expect("a checked-in study").scenarios);
    }
    let accepts = |family, name: &str| {
        let cfg = match family {
            StudyFamily::Fault => {
                StudyConfig { controllers: vec!["fbcc".into()], ..Default::default() }
            }
            StudyFamily::Mobility => StudyConfig { family, ..Default::default() },
        };
        StudyConfig { scenarios: vec![name.into()], seconds: 1, ..cfg }.validate().is_ok()
    };
    for family in [StudyFamily::Fault, StudyFamily::Mobility] {
        for name in &candidates {
            let listed = rows.contains(&(family.as_str(), name.as_str()));
            assert_eq!(listed, accepts(family, name), "{} {name}:\n{stdout}", family.as_str());
        }
        for &(_, name) in rows.iter().filter(|(f, _)| *f == family.as_str()) {
            assert!(accepts(family, name), "--list offers {} {name}", family.as_str());
        }
    }
}
