//! Execution layer of the declarative study harness.
//!
//! `poi360-analyse` owns the declaration ([`StudyConfig`]), the ingest,
//! and the report rendering; this module owns the only part it cannot —
//! actually driving sessions. [`run_cases`] expands a config to its
//! case list ([`traced_cases`]) and hands it to
//! [`crate::protocol::run_traced`]: each case writes its own stamped
//! in-memory JSONL sink (fault cases of one session configuration
//! continuing from one shared pre-fault run), and the results come back
//! in input order, so the concatenated study artifact is byte-identical
//! at any worker-pool width — `ci.sh` proves it with `cmp` across
//! `POI360_THREADS=1` and `=4`.
//!
//! [`run_protocol`] is the whole `reproduce study` pipeline minus file
//! IO (run → parse → aggregate → render → judge → Chrome export), shared
//! verbatim by the CLI and the golden tests that pin the smoke reports.
//! Every study judges each case by its family's invariants
//! (`faults::invariants`, `mobility::invariants`), so a family is a
//! checked-in preset plus a judge, and `reproduce study faults` /
//! `study mobility` are the robustness suites. A fault study that runs
//! the `shared` scenario races its contestants (controller × scheme) and
//! closes with their league table (`analyse::league`): quality from the
//! shared cell, fault invariants held from every other scenario.

use crate::faults::{self, FAULT_SMOKE_SECS};
use crate::mobility::{self, MOBILITY_SMOKE_SECS};
use crate::protocol::{fault_subframes, run_traced, Case, Outcome, Protocol};
use poi360_analyse::chrome;
use poi360_analyse::ingest::RunTrace;
use poi360_analyse::league::{league_report, LeagueRow};
use poi360_analyse::report::{self, CaseTrace};
use poi360_analyse::study::{contestant, StudyCase, StudyConfig, StudyFamily};
use poi360_core::config::{CompressionScheme, RateControlKind};
use poi360_core::multicell::{FlowSpec, MultiCellConfig};
use poi360_core::report::SessionReport;
use poi360_lte::scenario::MobilityScenario;
use poi360_metrics::mos::MosPdf;
use poi360_sim::time::SimDuration;

/// Defined beside the table of plan-less cells it reads; named here too,
/// where the fault cases are built.
pub use poi360_analyse::study::fault_scenario;

/// The fault-family scenario whose cases are shared-cell ensembles.
const SHARED: &str = "shared";

/// Map a study controller label onto the typed rate-control kind. The
/// labels were validated at config parse, so this is total.
pub fn rate_control(label: &str) -> RateControlKind {
    match label {
        "fbcc" => RateControlKind::Fbcc,
        "gcc" => RateControlKind::Gcc,
        "occ" => RateControlKind::Occ,
        other => unreachable!("StudyConfig::validate admitted controller {other:?}"),
    }
}

/// Map a study scheme label onto the typed compression scheme, the way
/// [`rate_control`] maps a controller.
pub fn compression_scheme(label: &str) -> CompressionScheme {
    match label {
        "roi" => CompressionScheme::Poi360,
        "pano" => CompressionScheme::Pano,
        "ghosh" => CompressionScheme::Ghosh,
        other => unreachable!("StudyConfig::validate admitted scheme {other:?}"),
    }
}

/// The CI-scale variant of a study: same matrix, compressed runs — the
/// fault timeline 4x shorter, the mobility lattice swapped for the
/// compressed smoke grid (8 s, 160 m sites).
pub fn smoke_variant(cfg: &StudyConfig) -> StudyConfig {
    let seconds = match cfg.family {
        StudyFamily::Fault => FAULT_SMOKE_SECS,
        StudyFamily::Mobility => MOBILITY_SMOKE_SECS,
    };
    StudyConfig { seconds, ..cfg.clone() }
}

/// One executed case: the descriptor, its stamped JSONL stream, and what
/// the run handed back — a fault case's verdict, a shared case's ensemble
/// report, or a grid case's report (its delivery gaps and packet ledger
/// live there, not in probes).
pub struct ExecutedCase {
    /// The case descriptor from [`StudyConfig::cases`].
    pub case: StudyCase,
    /// The case's JSONL stream (leading [`RunMeta`] stamp included).
    pub bytes: Vec<u8>,
    /// The case's outcome: [`Outcome::Fault`], [`Outcome::Ensemble`] or
    /// [`Outcome::Grid`].
    pub outcome: Outcome,
}

/// The traced cases of the (already smoke-adjusted) config, in config
/// order: `smoke` picks the compressed lattice for mobility cases, and
/// every case runs `cfg.seconds`. A `shared` case is two flows of its
/// contestant in one cell with four background UEs.
pub fn traced_cases(cfg: &StudyConfig, smoke: bool) -> Vec<Case> {
    cfg.cases()
        .into_iter()
        .map(|case| match cfg.family {
            StudyFamily::Fault => {
                let (controller, scheme) =
                    contestant(case.rc.as_deref().expect("fault cases carry an rc"));
                let (rc, scheme) = (rate_control(controller), compression_scheme(scheme));
                if case.scenario == SHARED {
                    return Case::Ensemble(MultiCellConfig {
                        background_ues: 4,
                        flows: vec![FlowSpec { scheme, rate_control: rc, ..Default::default() }; 2],
                        duration: SimDuration::from_secs(cfg.seconds),
                        seed: case.seed,
                        ..Default::default()
                    });
                }
                Case::Fault {
                    fs: fault_scenario(&case.scenario),
                    src: case.label,
                    scheme,
                    rc,
                    seconds: cfg.seconds,
                    seed: case.seed,
                }
            }
            StudyFamily::Mobility => Case::Grid {
                ms: MobilityScenario::by_name(&case.scenario).unwrap_or_else(|| {
                    unreachable!("StudyConfig::validate admitted {:?}", case.scenario)
                }),
                smoke,
                seconds: cfg.seconds,
                seed: case.seed,
            },
        })
        .collect()
}

/// Run every case of the (already smoke-adjusted) config through the
/// worker pool, in config order.
pub fn run_cases(cfg: &StudyConfig, smoke: bool) -> Vec<ExecutedCase> {
    let results = run_traced(traced_cases(cfg, smoke));
    cfg.cases()
        .into_iter()
        .zip(results)
        .map(|(case, (outcome, bytes))| ExecutedCase { case, bytes, outcome })
        .collect()
}

/// The league of a study that runs `shared`: one row per contestant, in
/// [`StudyConfig::contestants`] order. A row's quality columns pool the
/// flows of its `shared` cases (Jain's index is the mean over those
/// cases); its fault columns count the invariants its other cases held.
fn league(cfg: &StudyConfig, executed: &[ExecutedCase]) -> String {
    let contestants = cfg.contestants();
    let mut rows: Vec<LeagueRow> = contestants
        .iter()
        .map(|rc| {
            let (controller, scheme) = contestant(rc);
            let controller = rate_control(controller).label().to_string();
            LeagueRow { controller, policy: scheme.to_string(), ..Default::default() }
        })
        .collect();
    let mut flows: Vec<Vec<&SessionReport>> = vec![Vec::new(); rows.len()];
    let mut jains: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    for e in executed {
        let k = contestants.iter().position(|c| e.case.rc.as_ref() == Some(c)).expect("listed");
        let row = &mut rows[k];
        match &e.outcome {
            Outcome::Ensemble(report) => {
                flows[k].extend(&report.flows);
                jains[k].push(report.jain_throughput());
            }
            Outcome::Fault(verdict) => {
                for (held, name) in verdict.checks() {
                    row.fault_total += 1;
                    match held {
                        true => row.fault_passes += 1,
                        false => row.fault_failures.push(format!("{}: {name}", e.case.scenario)),
                    }
                }
            }
            Outcome::Grid(_) => unreachable!("a fault study builds no grid cases"),
        }
    }
    for ((row, flows), jains) in rows.iter_mut().zip(flows).zip(jains) {
        let mean = |f: fn(&SessionReport) -> f64| {
            flows.iter().map(|r| f(r)).sum::<f64>() / flows.len() as f64
        };
        let mut mos = MosPdf::new();
        flows.iter().for_each(|f| mos.merge(&f.mos()));
        row.roi_psnr_db = mean(SessionReport::mean_psnr_db);
        row.mos_good = mos.good_or_better();
        row.freeze = mean(SessionReport::freeze_ratio);
        row.jain = jains.iter().sum::<f64>() / jains.len() as f64;
        row.throughput_bps = mean(SessionReport::mean_throughput_bps);
    }
    let title = format!(
        "Controller x tiling league — study `{}`, {} contestants, {}s runs",
        cfg.name,
        rows.len(),
        cfg.seconds
    );
    league_report(&title, &rows)
}

/// Run the full study pipeline: execute, parse back, aggregate, render,
/// judge. `baseline` is a previously written study JSONL artifact,
/// parsed, to diff against. The report is `study_report`'s text followed
/// by the family's invariants section, and by the league when the study
/// runs `shared`; the protocol's failures are the drift gate's plus the
/// cases that failed their invariants. Its extra artifact is the Chrome
/// `trace_event` export of the first case's probe stream.
pub fn run_protocol(
    cfg: &StudyConfig,
    smoke: bool,
    baseline: Option<&RunTrace>,
) -> Result<Protocol, String> {
    let (cfg, stem) = if smoke {
        (smoke_variant(cfg), format!("study_{}_smoke", cfg.name))
    } else {
        (cfg.clone(), format!("study_{}", cfg.name))
    };
    eprintln!(
        "# study `{}`: {} cases ({} family){}, {} fault-session subframes",
        cfg.name,
        cfg.cases().len(),
        cfg.family.as_str(),
        if smoke { ", smoke scale" } else { "" },
        fault_subframes(&traced_cases(&cfg, smoke))
    );
    let executed = run_cases(&cfg, smoke);
    let (mut closing, failed) = match cfg.family {
        StudyFamily::Fault => faults::invariants(cfg.seconds, &executed),
        StudyFamily::Mobility => mobility::invariants(cfg.seconds, &executed),
    };
    closing += &match failed[..] {
        [] => "invariants: pass\n".to_string(),
        _ => format!("invariants: FAIL: {}\n", failed.join(", ")),
    };
    let broken = failed.len();
    if cfg.scenarios.iter().any(|s| s == SHARED) {
        closing += "\n";
        closing += &league(&cfg, &executed);
    }
    // Sized once: growing by doubling would copy a large artifact several
    // times over and hold up to twice its size.
    let mut jsonl = Vec::with_capacity(executed.iter().map(|e| e.bytes.len()).sum());
    let cases: Vec<CaseTrace> = executed
        .into_iter()
        .map(|e| {
            jsonl.extend_from_slice(&e.bytes);
            Ok(CaseTrace {
                trace: RunTrace::parse_bytes(&e.bytes)
                    .map_err(|err| format!("case {}: {err}", e.case.label))?,
                scenario: e.case.scenario,
                rc: e.case.rc,
                seed: e.case.seed,
                gaps_ms: match e.outcome {
                    Outcome::Grid(r) => r.flow_stats.into_iter().flat_map(|f| f.gap_ms).collect(),
                    _ => Vec::new(),
                },
            })
        })
        .collect::<Result<_, String>>()?;
    let rep = report::study_report(&cfg, &cases, baseline);
    let chrome = chrome::chrome_trace(&cases[0].trace).into_bytes();
    Ok(Protocol {
        stem,
        text: rep.text + "\n" + &closing,
        failures: rep.failures + broken,
        jsonl,
        extra: vec![("_trace.json", chrome)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::with_worker_threads;
    use poi360_analyse::study::by_name;

    fn tiny_cc() -> StudyConfig {
        StudyConfig {
            name: "tiny".into(),
            scenarios: vec!["baseline".into()],
            controllers: vec!["fbcc".into()],
            seeds: 1,
            seconds: 3,
            ..StudyConfig::default()
        }
    }

    #[test]
    fn controller_names_agree_with_rate_control_labels() {
        use poi360_analyse::study::CONTROLLERS;
        let reached: Vec<RateControlKind> = CONTROLLERS.iter().map(|n| rate_control(n)).collect();
        for (name, kind) in CONTROLLERS.iter().zip(&reached) {
            assert_eq!(kind.label().to_lowercase(), *name);
        }
        for kind in [RateControlKind::Gcc, RateControlKind::Fbcc, RateControlKind::Occ] {
            // No wildcard: a new kind fails to compile here until it is
            // listed above, and then fails the assertion until a study
            // can name it.
            match kind {
                RateControlKind::Gcc | RateControlKind::Fbcc | RateControlKind::Occ => {}
            }
            assert!(reached.contains(&kind), "no study controller name reaches {kind:?}");
        }
    }

    #[test]
    fn cases_come_back_stamped_in_config_order_and_byte_deterministic() {
        let cfg = tiny_cc();
        let cases = || run_cases(&cfg, false);
        let narrow = with_worker_threads(1, cases);
        let wide = with_worker_threads(4, cases);
        assert_eq!(narrow.len(), 1);
        assert_eq!(narrow[0].case.label, "baseline.fbcc.s1");
        assert_eq!(
            narrow[0].bytes, wide[0].bytes,
            "study case stream invariant across worker widths"
        );
        let trace = RunTrace::parse_bytes(&narrow[0].bytes).expect("case stream parses");
        assert_eq!(trace.metas.len(), 1, "leading RunMeta stamp");
        assert_eq!(trace.metas[0].seed, 1);
        assert!(!trace.is_empty());
        assert_eq!(trace.srcs.names().collect::<Vec<_>>(), ["baseline.fbcc.s1"]);
    }

    #[test]
    fn protocol_renders_report_and_chrome_and_gates_on_baseline() {
        let cfg = tiny_cc();
        let p = run_protocol(&cfg, false, None).expect("protocol runs");
        assert_eq!(p.failures, 0);
        assert!(p.text.contains("Per-probe distributions"));
        assert!(p.text.contains("study gate: 0 failure(s)"));
        assert!(!p.jsonl.is_empty());
        let (suffix, chrome) = &p.extra[0];
        assert_eq!(*suffix, "_trace.json");
        let chrome = std::str::from_utf8(chrome).expect("chrome export is UTF-8");
        poi360_sim::json::parse_json(chrome).expect("chrome export is valid JSON");

        // Self-baseline: identical bytes must not drift.
        let base = RunTrace::parse_bytes(&p.jsonl).expect("the artifact parses");
        let p2 = run_protocol(&cfg, false, Some(&base)).expect("protocol with baseline");
        assert_eq!(p2.failures, 0, "identical baseline must pass:\n{}", p2.text);
        assert!(p2.text.contains("Baseline drift gate"));
    }

    #[test]
    fn smoke_variant_compresses_both_families() {
        let cc = smoke_variant(&by_name("cc_matrix").unwrap());
        assert_eq!(cc.seconds, FAULT_SMOKE_SECS);
        assert_eq!(cc.cases().len(), 18, "matrix shape unchanged");
        let ho = smoke_variant(&by_name("ho_tails").unwrap());
        assert_eq!(ho.seconds, MOBILITY_SMOKE_SECS);
    }

    #[test]
    fn smoke_mobility_cases_run_the_configured_seconds() {
        // A `.study` file asking for 2 s runs at smoke scale: the
        // compressed lattice, cut to the requested length.
        let cfg = StudyConfig { seconds: 2, ..by_name("ho_tails").unwrap() };
        for case in traced_cases(&cfg, true) {
            let Case::Grid { smoke, seconds, .. } = case else {
                panic!("mobility study gave {case:?}")
            };
            assert_eq!((smoke, seconds), (true, 2));
        }
    }
}
