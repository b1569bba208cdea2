//! `reproduce` — regenerate every table and figure of the paper's
//! evaluation.
//!
//! ```text
//! cargo run --release -p poi360-bench --bin reproduce -- all
//! cargo run --release -p poi360-bench --bin reproduce -- fig11 --full
//! cargo run --release -p poi360-bench --bin reproduce -- fig17 --seconds 120 --repeats 5
//! ```
//!
//! One dispatch table ([`SUBCOMMANDS`]) names every subcommand, the
//! flags it accepts and its handler; `--list`, the usage text and the
//! unknown-subcommand error are rendered from it, and every command
//! line goes through the one parser in `poi360_bench::cli` (explicit
//! `--seconds`/`--seed` win over `--smoke`/`--full` in any order). Every
//! handler ends in a [`Protocol`] that the one writer
//! ([`write_artifacts`]) prints and saves as `bench_results/<stem>.txt`
//! (+ `.jsonl`, + extras) at the workspace root, regardless of the
//! invoking directory. The `.txt` is exactly the report text: paths and
//! byte counts go to stdout only, so regenerating an artifact from
//! another checkout or with other flags never dirties the tree. Exit
//! codes: 2 = bad usage, unknown name or unusable `--baseline`, 1 =
//! violated invariant, failed gate or failed write.
//!
//! Figure flags: `--full` (paper scale: 300 s × 10 repeats),
//! `--seconds N`, `--repeats N`, `--seed N` (the explicit flags win over
//! `--full`). The figures are slices of one condition grid
//! (`poi360_bench::experiments`); one invocation simulates each distinct
//! condition once, however many of its figures print it.
//!
//! `study` runs a declarative scenario × rate-controller × scheme × seed
//! matrix (a checked-in preset — `faults`, `mobility`, `cc_matrix`,
//! `ho_tails`, `busy`, `arena` — or a `.study` config file) through the
//! worker pool and renders the cross-run aggregation: per-probe
//! median/p95/p99 tables (their `samples` column is the probe count),
//! per-source rollups, controller A-vs-B deltas, handover-gap tails, and
//! a Chrome trace of the first case. Every case is then judged by its
//! family's invariants — a fault case by the recovery invariants (rate
//! recovers, buffer drains, freeze time bounded, probes in order), a grid
//! case by the handover invariants (every convoy flow hands over, exact
//! packet conservation across every migration, no video reordering,
//! bounded delivery gaps) — in a closing invariants section. `study
//! faults` is the fault-injection suite (every fault preset under FBCC,
//! GCC and OCC); `study mobility` is the hex-grid convoy at three seeds;
//! `study busy` traces one FBCC session in the busy cell; `study arena`
//! races every controller against every scheme and closes with the
//! league table.
//! `--baseline <dir>` diffs the fresh medians against a previously
//! written study artifact and fails on drift beyond 25 %; a baseline
//! that is missing, unreadable or holds no probe record is a usage error
//! before any case runs. Any violated invariant or drift makes the
//! process exit nonzero, so CI can gate on it; that
//! the artifacts do not depend on the worker-pool width is `ci.sh`'s job
//! (it reruns them at other `POI360_THREADS` widths and `cmp`s the
//! bytes). A one-off run of one
//! preset, or at another seed or length, is a `.study` file. Artifacts:
//! `bench_results/study_<name>[_smoke].{txt,jsonl,trace.json}`.
//!
//! The worker-pool width is `POI360_THREADS`, otherwise all cores; it
//! never changes an artifact's bytes.

use poi360_analyse::ingest::RunTrace;
use poi360_analyse::study::{
    by_name, registry, unknown_study_error, StudyConfig, CONTROLLERS, SCHEMES,
};
use poi360_bench::cli::{self, Opts};
use poi360_bench::experiments::{FigCtx, FIGURES};
use poi360_bench::protocol::Protocol;
use poi360_bench::runner::ExpConfig;
use poi360_bench::study;
use poi360_lte::scenario::preset_registry;

/// A subcommand handler: given the subcommand's name and its parsed
/// flags, returns the number of failures (exit 1 when nonzero) or a
/// usage / unknown-name error (exit 2).
type Handler = fn(&str, &Opts) -> Result<usize, String>;

const FIG: &[&str] = &["--full", "--seconds N", "--repeats N", "--seed N"];
const STUDY: &[&str] = &["<name>", "--smoke", "--baseline <dir>"];

/// The dispatch table: `(name, what it does, accepted flags, handler)`.
/// `--list`, the usage text and the unknown-subcommand error are all
/// rendered from it. A figure subcommand says what it does through its
/// [`FIGURES`] captions instead (see [`captions`]).
const SUBCOMMANDS: &[(&str, &str, &[&str], Handler)] = &[
    ("fig5", "", FIG, figures),
    ("fig6", "", FIG, figures),
    ("table1", "", FIG, figures),
    ("fig11", "", FIG, figures),
    ("fig12", "", FIG, figures),
    ("fig13", "", FIG, figures),
    ("fig14", "", FIG, figures),
    ("fig15", "", FIG, figures),
    ("fig16", "", FIG, figures),
    ("fig17", "", FIG, figures),
    ("coexist", "", FIG, figures),
    ("ablation", "", FIG, figures),
    ("all", "every figure and table above", FIG, figures),
    ("study", "scenario x contestant x seed matrix: cross-run report + invariants", STUDY, study),
    ("list", "print this subcommand list (also --list)", &[], list),
];

/// One usage line per distinct flag set, names joined with `|`.
fn usage() -> String {
    let mut groups: Vec<(Vec<&str>, &[&str])> = Vec::new();
    for &(name, _, flags, _) in SUBCOMMANDS {
        match groups.iter_mut().find(|g| g.1 == flags) {
            Some(g) => g.0.push(name),
            None => groups.push((vec![name], flags)),
        }
    }
    let lines = groups.iter().map(|(names, flags)| cli::usage_line(&names.join("|"), flags));
    format!("usage: {}", lines.collect::<Vec<_>>().join("\n       "))
}

/// What `--list` says a subcommand does, one line each: the captions of
/// its [`FIGURES`] artifacts if it has any, else its [`SUBCOMMANDS`] text.
fn captions(name: &str, what: &'static str) -> Vec<&'static str> {
    let figures: Vec<_> = FIGURES.iter().filter(|f| f.0 == name).map(|f| f.2).collect();
    if figures.is_empty() {
        vec![what]
    } else {
        figures
    }
}

fn list(_: &str, _: &Opts) -> Result<usize, String> {
    println!("reproduce subcommands:");
    for &(name, what, ..) in SUBCOMMANDS {
        for (line, caption) in captions(name, what).into_iter().enumerate() {
            println!("  {:<10} {caption}", if line == 0 { name } else { "" });
        }
    }
    println!("\n{}", usage());
    println!(
        "\nnamed presets (.study scenarios, controllers and schemes; reproduce study <name>):"
    );
    for p in preset_registry().into_iter().chain(registry()) {
        println!("  {:<10} {:<12} {}", p.family, p.name, p.what);
    }
    for name in CONTROLLERS {
        println!("  {:<10} {:<12} {} rate control", "controller", name, name.to_uppercase());
    }
    for name in SCHEMES {
        let scheme = study::compression_scheme(name).label();
        println!("  {:<10} {:<12} {scheme} compression", "scheme", name);
    }
    Ok(0)
}

/// The one place `reproduce` touches `bench_results/`: print the report
/// and write `<stem>.txt` (exactly the report text), `<stem>.jsonl` and
/// the extra artifacts, skipping empty ones. Path and size lines go to
/// stdout only — they vary with the checkout and the command line, and
/// the checked-in artifacts must not. Returns the protocol's failures
/// plus one per failed write.
fn write_artifacts(p: &Protocol) -> usize {
    if !p.text.is_empty() {
        println!("{}", p.text);
    }
    let dir = poi360_testkit::results_dir();
    let mut failures = p.failures;
    let files = [(".txt", p.text.as_bytes()), (".jsonl", &p.jsonl[..])]
        .into_iter()
        .chain(p.extra.iter().map(|(suffix, bytes)| (*suffix, &bytes[..])))
        .filter(|(_, bytes)| !bytes.is_empty());
    for (suffix, bytes) in files {
        let path = dir.join(format!("{}{suffix}", p.stem));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, bytes)) {
            Ok(()) if suffix == ".txt" => {}
            Ok(()) => println!("{} bytes -> {}", bytes.len(), path.display()),
            Err(e) => {
                eprintln!("FAIL: cannot write {}: {e}", path.display());
                failures += 1;
            }
        }
    }
    failures
}

/// `reproduce <figure>|all` — regenerate one subcommand's figure
/// artifacts (or all of them).
fn figures(what: &str, o: &Opts) -> Result<usize, String> {
    let mut cfg = if o.full { ExpConfig::full() } else { ExpConfig::default() };
    cfg.duration_secs = o.seconds.unwrap_or(cfg.duration_secs);
    cfg.repeats = o.repeats.unwrap_or(cfg.repeats);
    cfg.base_seed = o.seed.unwrap_or(cfg.base_seed);
    eprintln!(
        "# sessions: {}s x {} repeats x 5 users per condition (seed {})",
        cfg.duration_secs, cfg.repeats, cfg.base_seed
    );

    let ctx = FigCtx::new(cfg);
    let mut failures = 0;
    // A figure's self-checks are assertions: a figure that renders has
    // passed them, so only a failed write counts against it.
    for figure in FIGURES.iter().filter(|f| what == "all" || f.0 == what) {
        let text = ctx.render(figure);
        let artifact = Protocol { stem: figure.1.to_string(), text, ..Default::default() };
        failures += write_artifacts(&artifact);
    }
    eprintln!("# {} distinct conditions simulated", ctx.simulated());
    Ok(failures)
}

/// `reproduce study <preset|config-file>` — a declarative scenario ×
/// contestant × seed matrix and its cross-run aggregation; `--baseline`
/// gates on drift against a previously written artifact.
fn study(_: &str, o: &Opts) -> Result<usize, String> {
    let which = o.name.as_deref().ok_or("study needs a preset name or a .study config file")?;
    // A registered preset first; otherwise a config file on disk.
    let cfg = match by_name(which) {
        Some(cfg) => cfg,
        None if !std::path::Path::new(which).is_file() => return Err(unknown_study_error(which)),
        None => {
            let text =
                std::fs::read_to_string(which).map_err(|e| format!("cannot read {which}: {e}"))?;
            StudyConfig::from_kv_str(&text).map_err(|e| format!("{which}: {e}"))?
        }
    };
    // Read and parsed before any case runs: a baseline that cannot gate
    // anything is a usage error, not a matrix of `new` probes.
    let baseline = match &o.baseline {
        Some(dir) => {
            let stem = if o.smoke { "_smoke" } else { "" };
            let path = dir.join(format!("study_{}{stem}.jsonl", cfg.name));
            let bad = |e: String| format!("baseline {}: {e}", path.display());
            let bytes = std::fs::read(&path).map_err(|e| bad(format!("cannot read it: {e}")))?;
            let trace = RunTrace::parse_bytes(&bytes).map_err(bad)?;
            if trace.is_empty() {
                return Err(bad("holds no probe record".into()));
            }
            Some(trace)
        }
        None => None,
    };
    match study::run_protocol(&cfg, o.smoke, baseline.as_ref()) {
        Ok(p) => Ok(write_artifacts(&p)),
        Err(e) => {
            eprintln!("FAIL: {e}");
            Ok(1)
        }
    }
}

fn run(args: &[String]) -> Result<usize, String> {
    let what = match args.first().map(String::as_str) {
        None => return Err(usage()),
        Some("--list") => "list",
        Some(what) => what,
    };
    let Some(&(name, _, flags, handler)) = SUBCOMMANDS.iter().find(|c| c.0 == what) else {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|c| c.0).collect();
        return Err(format!("unknown subcommand `{what}`; expected one of: {}", names.join(", ")));
    };
    let opts = cli::parse(&args[1..], flags)
        .map_err(|e| format!("{e}\nusage: {}", cli::usage_line(name, flags)))?;
    handler(name, &opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(match run(&args) {
        Ok(0) => 0,
        Ok(_) => 1,
        Err(message) => {
            eprintln!("{message}");
            2
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_captions_are_how_the_checked_in_artifacts_start() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
        for &(sub, stem, caption, ..) in FIGURES {
            let text = std::fs::read_to_string(root.join(format!("{stem}.txt")))
                .unwrap_or_else(|e| panic!("bench_results/{stem}.txt: {e}"));
            let header = text.lines().next().unwrap_or_default();
            assert!(
                header.starts_with(&format!("== {caption}")),
                "{stem}: `--list` says {caption:?} but the artifact opens with {header:?}"
            );
            let &(_, what, ..) = SUBCOMMANDS.iter().find(|c| c.0 == sub).expect("dispatchable");
            assert!(captions(sub, what).contains(&caption), "{sub} does not list {stem}");
        }
        // Everything else still describes itself.
        for &(name, what, ..) in SUBCOMMANDS {
            assert!(captions(name, what).iter().all(|c| !c.is_empty()), "{name} has no caption");
        }
    }

    /// DESIGN.md §3 has one row per [`FIGURES`] artifact, in order, and
    /// the command its last cell gives is one the CLI accepts.
    #[test]
    fn design_experiment_index_names_every_artifact_and_a_real_subcommand() {
        let design = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
        let design = std::fs::read_to_string(design).expect("DESIGN.md");
        let section = design.split("\n## ").find(|s| s.starts_with("3. ")).expect("DESIGN §3");
        let rows: Vec<Vec<&str>> = section
            .lines()
            .filter(|l| l.starts_with("| `"))
            .map(|l| l.trim_matches('|').split(" | ").map(str::trim).collect())
            .collect();
        let stems: Vec<String> = rows.iter().map(|r| r[0].replace('`', "")).collect();
        assert_eq!(stems, FIGURES.iter().map(|f| f.1).collect::<Vec<_>>(), "§3 stems vs FIGURES");
        for (row, figure) in rows.iter().zip(FIGURES) {
            let target = row.last().expect("a regeneration target").replace('`', "");
            let args: Vec<String> = target.split(' ').skip(1).map(String::from).collect();
            assert_eq!(target.split(' ').next(), Some("reproduce"), "{target}");
            assert_eq!(args[0], figure.0, "{}: §3 regenerates it with `{target}`", figure.1);
            let &(_, _, flags, _) = SUBCOMMANDS.iter().find(|c| c.0 == args[0]).expect("a row");
            cli::parse(&args[1..], flags).unwrap_or_else(|e| panic!("`{target}` is rejected: {e}"));
        }
    }
}
