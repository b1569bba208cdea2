//! The POI360 simulator benchmark. See README.md for the workloads, the
//! metrics and how to read the output; BENCHMARK.json at the repository
//! root is the contract the runner holds this program to.

mod adapter;
mod alloc;
mod harness;
mod layers;
mod micro;
mod reference;
mod results;
mod span;
mod spanpass;
mod stats;

use adapter::{Scale, WORKLOADS};
use harness::{Budget, WorkloadResult, END_TO_END, FAILED_SHARE, RAW};
use results::{json_number, json_string, Stamp};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "\
usage: poi360-benchmark [--seed N] [--reps N | --seconds S] [--workload W] [--smoke]
       poi360-benchmark --spans [--seed N] [--smoke]      (same as --trace 1)
       poi360-benchmark --compare A.json B.json [--allow-digest-change]
workloads: paper_grid cell_crowded grid_mobility trace_write trace_read";

const DEFAULT_SEED: u64 = 360;
const DEFAULT_REPS: u32 = 7;

enum Mode {
    /// Spans off: the end-to-end metrics of the chosen workloads.
    EndToEnd {
        workloads: Vec<&'static str>,
        budget: Budget,
    },
    /// Spans on: the per-layer metrics, over all five workloads.
    Spans,
    Compare {
        a: String,
        b: String,
        allow_digest_change: bool,
    },
}

struct Args {
    mode: Mode,
    seed: u64,
    scale: Scale,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut seed = DEFAULT_SEED;
    let mut scale = Scale::Full;
    let mut reps = None;
    let mut seconds = None;
    let mut workloads = WORKLOADS.to_vec();
    let mut spans = false;
    let mut compare = None;
    let mut allow_digest_change = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: {v:?} is not a valid number"))
        }
        match flag.as_str() {
            "--seed" => seed = number(flag, value()?)?,
            "--reps" => reps = Some(number::<u32>(flag, value()?)?.max(1)),
            "--seconds" => seconds = Some(number::<u64>(flag, value()?)?),
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| *w == name);
                workloads = vec![known.ok_or(format!("unknown workload {name:?}"))?];
            }
            "--trace" => spans = number::<u8>(flag, value()?)? != 0,
            "--spans" => spans = true,
            "--smoke" => scale = Scale::Smoke,
            "--compare" => compare = Some((value()?.clone(), value()?.clone())),
            "--allow-digest-change" => allow_digest_change = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let mode = if let Some((a, b)) = compare {
        Mode::Compare { a, b, allow_digest_change }
    } else if spans {
        Mode::Spans
    } else {
        let budget = match (seconds, reps, scale) {
            (Some(s), None, _) => Budget::Wall(Duration::from_secs(s)),
            (None, Some(n), _) => Budget::Reps(n),
            (None, None, Scale::Smoke) => Budget::Reps(1),
            (None, None, Scale::Full) => Budget::Reps(DEFAULT_REPS),
            (Some(_), Some(_), _) => return Err("--reps and --seconds exclude each other".into()),
        };
        Mode::EndToEnd { workloads, budget }
    };
    Ok(Args { mode, seed, scale })
}

/// Standard output where a closed pipe (`| head`) ends the program quietly
/// instead of panicking as `println!` does.
struct Out(std::io::Stdout);

impl Out {
    fn line(&mut self, text: std::fmt::Arguments<'_>) {
        if let Err(e) = writeln!(self.0.lock(), "{text}") {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                std::process::exit(0);
            }
            eprintln!("cannot write to standard output: {e}");
            std::process::exit(1);
        }
    }
}

fn stamp(seed: u64, width: usize) -> Stamp {
    let rustc = std::process::Command::new("rustc").arg("--version").output().ok();
    let rustc = rustc
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Stamp { commit: adapter::git_commit(), seed, width, nproc: adapter::nproc(), rustc }
}

fn write_out(file: &str, content: &str) -> bool {
    let path = adapter::out_dir().join(file);
    let written =
        std::fs::create_dir_all(adapter::out_dir()).and_then(|()| std::fs::write(&path, content));
    if let Err(e) = &written {
        eprintln!("cannot write {}: {e}", path.display());
    }
    written.is_ok()
}

/// The runner's last line: one JSON object with exactly these keys.
fn summary_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics.join(",")
    )
}

fn end_to_end(out: &mut Out, args: &Args, workloads: &[&'static str], budget: Budget) -> bool {
    let width = adapter::pin_width();
    let mut results: Vec<WorkloadResult> = Vec::new();
    for name in workloads {
        let mut w =
            adapter::workload(name, args.seed, width, args.scale).expect("checked while parsing");
        let r = harness::measure(w.as_mut(), budget, width);
        for m in &END_TO_END {
            let q = r.quartiles(m.name);
            out.line(format_args!(
                "{name} {} {} {} q1={} median={} q3={} n={}",
                m.name,
                r.value(m),
                m.unit,
                q.q1,
                q.median,
                q.q3,
                q.n
            ));
        }
        for (raw, unit) in RAW {
            let q = r.quartiles(raw);
            out.line(format_args!(
                "{name} raw.{raw} {} {unit} q1={} q3={} n={}",
                q.median, q.q1, q.q3, q.n
            ));
        }
        out.line(format_args!(
            "{name} ops_failed {} of {} sim_digest {:016x}",
            r.ops_failed,
            r.ops_attempted,
            r.digest()
        ));
        for (count, value) in r.counts() {
            out.line(format_args!("{name} count.{count} {value}"));
        }
        results.push(r);
    }
    let written = write_out("results.json", &results::render(&stamp(args.seed, width), &results));

    // Metric keys are bare for a single workload (the runner's form) and
    // prefixed with the workload when several ran.
    let mut metrics = Vec::new();
    for r in &results {
        for m in END_TO_END.iter().filter(|m| m.name != FAILED_SHARE) {
            let key = if results.len() == 1 {
                m.name.to_string()
            } else {
                format!("{}.{}", r.name, m.name)
            };
            metrics.push((key, r.value(m), m.unit));
        }
    }
    let attempted = results.iter().map(|r| r.ops_attempted).sum();
    let failed = results.iter().map(|r| r.ops_failed).sum::<u64>() + u64::from(!written);
    out.line(format_args!("{}", summary_line(attempted, failed, &metrics)));
    failed == 0
}

fn span_pass(out: &mut Out, args: &Args) -> bool {
    let width = adapter::pin_width();
    let pass = spanpass::run(args.seed, width, args.scale);
    let mut metrics = Vec::new();
    let mut unmeasured = 0;
    for (m, value) in pass.layers.rows() {
        let value = value.unwrap_or_else(|| {
            eprintln!("{} was not measured", m.name);
            unmeasured += 1;
            f64::NAN
        });
        let on = if m.on.is_empty() { "nothing (model statistic)".into() } else { m.on.join(",") };
        out.line(format_args!("layer {} {value} {} -> {} on {on}", m.name, m.unit, m.moves));
        metrics.push((m.name.clone(), value, m.unit));
    }
    for t in spanpass::span_totals(&pass.spans) {
        out.line(format_args!(
            "span {} {} n={} total_ms={} self_ms={}",
            t.workload,
            t.name,
            t.spans,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    for t in &pass.workloads {
        out.line(format_args!(
            "{} spans_off_wall_s {} spans_on_wall_s {} sim_digest {:016x}",
            t.name, t.off.wall_s, t.on.wall_s, t.on.out.digest
        ));
    }
    let layers = results::render_layers(&stamp(args.seed, width), &pass.layers);
    let written = write_out("layers.json", &layers)
        & write_out("spans.json", &span::chrome_trace(&pass.spans));
    let failed = pass.ops_failed() + unmeasured + u64::from(!written);
    out.line(format_args!("{}", summary_line(pass.ops_attempted(), failed, &metrics)));
    failed == 0
}

fn compare(out: &mut Out, a: &str, b: &str, allow_digest_change: bool) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let comparison = results::compare(&read(a)?, &read(b)?)?;
    for row in &comparison.rows {
        let b_value = row.b_value.map_or("gone".to_string(), |v| v.to_string());
        out.line(format_args!(
            "{} {} {} -> {} {}",
            row.workload,
            row.metric,
            row.a_value,
            b_value,
            row.verdict.as_str()
        ));
    }
    for workload in &comparison.digest_mismatches {
        out.line(format_args!("{workload} sim_digest differs"));
    }
    Ok(comparison.passes(allow_digest_change))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = Out(std::io::stdout());
    let ok = match &args.mode {
        Mode::EndToEnd { workloads, budget } => end_to_end(&mut out, &args, workloads, *budget),
        Mode::Spans => span_pass(&mut out, &args),
        Mode::Compare { a, b, allow_digest_change } => {
            match compare(&mut out, a, b, *allow_digest_change) {
                Ok(ok) => ok,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            }
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_runner_command_line_selects_one_workload_and_a_wall_budget() {
        let args =
            parse(&["--workload", "trace_read", "--seed", "9", "--seconds", "10", "--trace", "0"])
                .unwrap();
        assert_eq!(args.seed, 9);
        match args.mode {
            Mode::EndToEnd { workloads, budget } => {
                assert_eq!(workloads, ["trace_read"]);
                assert_eq!(budget, Budget::Wall(Duration::from_secs(10)));
            }
            _ => panic!("--trace 0 is the spans-off mode"),
        }
        let traced =
            parse(&["--workload", "paper_grid", "--seconds", "10", "--trace", "1"]).unwrap();
        assert!(matches!(traced.mode, Mode::Spans));
        assert!(matches!(parse(&["--spans"]).unwrap().mode, Mode::Spans));
    }

    #[test]
    fn defaults_smoke_and_errors() {
        match parse(&[]).unwrap().mode {
            Mode::EndToEnd { workloads, budget } => {
                assert_eq!(workloads, WORKLOADS);
                assert_eq!(budget, Budget::Reps(DEFAULT_REPS));
            }
            _ => panic!("the default mode is spans off"),
        }
        let smoke = parse(&["--smoke"]).unwrap();
        assert_eq!(smoke.scale, Scale::Smoke);
        assert!(matches!(smoke.mode, Mode::EndToEnd { budget: Budget::Reps(1), .. }));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--reps", "3", "--seconds", "4"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        let cmp = parse(&["--compare", "a.json", "b.json", "--allow-digest-change"]).unwrap();
        assert!(matches!(cmp.mode, Mode::Compare { allow_digest_change: true, .. }));
    }

    #[test]
    fn the_summary_line_has_exactly_the_contract_keys() {
        let line = summary_line(0, 0, &[("setup_s".into(), 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        let v = adapter::parse_json(&summary_line(5, 2, &[])).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(false));
    }
}
