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
//! IO (run → parse → aggregate → render → Chrome export), shared
//! verbatim by the CLI and the golden test that pins the
//! `cc_matrix --smoke` report.

use crate::faults::FAULT_SMOKE_SECS;
use crate::mobility::MobilityScale;
use crate::protocol::{run_traced, Case, Outcome, Protocol};
use poi360_analyse::chrome;
use poi360_analyse::ingest::RunTrace;
use poi360_analyse::report::{self, CaseTrace};
use poi360_analyse::study::{StudyCase, StudyConfig, StudyFamily, BASELINE_SCENARIO};
use poi360_core::config::{CompressionScheme, RateControlKind};
use poi360_lte::scenario::{FaultScenario, MobilityScenario, Scenario};
use poi360_sim::fault::FaultPlan;

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

/// Resolve a fault-study scenario name, including the synthetic
/// `baseline` (quiet cell, empty plan — byte-identical to a clean run
/// by the fault plane's composition rule).
pub fn fault_scenario(name: &str) -> FaultScenario {
    if name == BASELINE_SCENARIO {
        FaultScenario {
            name: "baseline",
            what: "quiet cell, no faults injected",
            scenario: Scenario::quiet(),
            plan: FaultPlan::new(),
        }
    } else {
        FaultScenario::by_name(name)
            .unwrap_or_else(|| unreachable!("StudyConfig::validate admitted scenario {name:?}"))
    }
}

/// The CI-scale variant of a study: same matrix, compressed runs — the
/// fault timeline 4x shorter (mirroring `faults --smoke`), the mobility
/// lattice swapped for the compressed smoke grid (8 s, 160 m sites).
pub fn smoke_variant(cfg: &StudyConfig) -> StudyConfig {
    let seconds = match cfg.family {
        StudyFamily::Fault => FAULT_SMOKE_SECS,
        StudyFamily::Mobility => MobilityScale::smoke().seconds,
    };
    StudyConfig { seconds, ..cfg.clone() }
}

/// One executed case: the descriptor, its stamped JSONL stream, and the
/// per-flow delivery gaps (mobility only — that data lives in the grid
/// report, not in probes).
pub struct ExecutedCase {
    /// The case descriptor from [`StudyConfig::cases`].
    pub case: StudyCase,
    /// The case's JSONL stream (leading [`RunMeta`] stamp included).
    pub bytes: Vec<u8>,
    /// Per-flow delivery gaps, ms (empty for fault cases).
    pub gaps_ms: Vec<f64>,
}

/// The traced cases of the (already smoke-adjusted) config, in config
/// order: `smoke` picks the compressed lattice for mobility cases, and
/// every case runs `cfg.seconds`.
pub fn traced_cases(cfg: &StudyConfig, smoke: bool) -> Vec<Case> {
    cfg.cases()
        .into_iter()
        .map(|case| match cfg.family {
            StudyFamily::Fault => Case::Fault {
                src: case.label,
                fs: fault_scenario(&case.scenario),
                scheme: CompressionScheme::Poi360,
                rc: rate_control(case.rc.as_deref().expect("fault cases carry an rc")),
                seconds: cfg.seconds,
                seed: case.seed,
            },
            StudyFamily::Mobility => Case::Grid {
                ms: MobilityScenario::by_name(&case.scenario).unwrap_or_else(|| {
                    unreachable!("StudyConfig::validate admitted {:?}", case.scenario)
                }),
                scale: MobilityScale {
                    seconds: cfg.seconds,
                    ..if smoke { MobilityScale::smoke() } else { MobilityScale::full() }
                },
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
        .map(|(case, (outcome, bytes))| {
            let gaps_ms = match outcome {
                Outcome::Grid(r) => r.flow_stats.into_iter().flat_map(|f| f.gap_ms).collect(),
                _ => Vec::new(),
            };
            ExecutedCase { case, bytes, gaps_ms }
        })
        .collect()
}

/// Run the full study pipeline: execute, parse back, aggregate, render.
/// `baseline` is the byte content of a previously written study JSONL
/// artifact to diff against. The protocol's extra artifact is the
/// Chrome `trace_event` export of the first case's probe stream.
pub fn run_protocol(
    cfg: &StudyConfig,
    smoke: bool,
    baseline: Option<&[u8]>,
) -> Result<Protocol, String> {
    let (cfg, stem) = if smoke {
        (smoke_variant(cfg), format!("study_{}_smoke", cfg.name))
    } else {
        (cfg.clone(), format!("study_{}", cfg.name))
    };
    eprintln!(
        "# study `{}`: {} cases ({} family){}",
        cfg.name,
        cfg.cases().len(),
        cfg.family.as_str(),
        if smoke { ", smoke scale" } else { "" }
    );
    let mut jsonl = Vec::new();
    let cases: Vec<CaseTrace> = run_cases(&cfg, smoke)
        .into_iter()
        .map(|e| {
            jsonl.extend_from_slice(&e.bytes);
            Ok(CaseTrace {
                trace: RunTrace::parse_bytes(&e.bytes)
                    .map_err(|err| format!("case {}: {err}", e.case.label))?,
                scenario: e.case.scenario,
                rc: e.case.rc,
                seed: e.case.seed,
                gaps_ms: e.gaps_ms,
            })
        })
        .collect::<Result<_, String>>()?;
    let base_trace = match baseline {
        Some(bytes) => Some(RunTrace::parse_bytes(bytes).map_err(|e| format!("baseline: {e}"))?),
        None => None,
    };
    let rep = report::study_report(&cfg, &cases, base_trace.as_ref());
    let chrome = chrome::chrome_trace(&cases[0].trace).into_bytes();
    Ok(Protocol {
        stem,
        text: rep.text,
        failures: rep.failures,
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
        let jsonl = p.jsonl.clone();
        let p2 = run_protocol(&cfg, false, Some(&jsonl)).expect("protocol with baseline");
        assert_eq!(p2.failures, 0, "identical baseline must pass:\n{}", p2.text);
        assert!(p2.text.contains("Baseline drift gate"));
    }

    #[test]
    fn smoke_variant_compresses_both_families() {
        let cc = smoke_variant(&by_name("cc_matrix").unwrap());
        assert_eq!(cc.seconds, FAULT_SMOKE_SECS);
        assert_eq!(cc.cases().len(), 18, "matrix shape unchanged");
        let ho = smoke_variant(&by_name("ho_tails").unwrap());
        assert_eq!(ho.seconds, MobilityScale::smoke().seconds);
    }

    #[test]
    fn smoke_mobility_cases_run_the_configured_seconds() {
        // `reproduce mobility --smoke --seconds 2`: the compressed lattice,
        // cut to the requested length.
        let cfg = StudyConfig { seconds: 2, ..by_name("ho_tails").unwrap() };
        for case in traced_cases(&cfg, true) {
            let Case::Grid { scale, .. } = case else { panic!("mobility study gave {case:?}") };
            assert_eq!((scale.seconds, scale.isd_m), (2, MobilityScale::smoke().isd_m));
        }
    }
}
