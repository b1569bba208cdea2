//! Cross-run report rendering: the study tables, A-vs-B deltas, and
//! the handover-gap tails, all through the shared
//! [`poi360_metrics::table::Table`] renderer.
//!
//! The rendered text is a golden artifact (`tests/golden.rs` pins the
//! `cc_matrix --smoke` report), so it deliberately contains nothing
//! that varies across checkouts: no paths, and no commit hashes outside
//! the explicitly requested `--baseline` section.

use crate::aggregate::{pool_counters_by_segment, src_rollup, Pool, ProbeStats};
use crate::ingest::RunTrace;
use crate::study::{StudyConfig, StudyFamily, SCHEMES};
use poi360_metrics::dist::quantiles_in_place;
use poi360_metrics::table::{fnum, pct, Table};
use poi360_sim::trace::{ProbeKind, TRACE_SCHEMA_VERSION};

/// One executed study case, parsed and ready to aggregate. Produced by
/// `bench::study` (which owns the session-driving side).
#[derive(Clone, Debug)]
pub struct CaseTrace {
    /// Scenario preset name.
    pub scenario: String,
    /// Controller label (`None` for mobility cases).
    pub rc: Option<String>,
    /// Seed the case ran at.
    pub seed: u64,
    /// The parsed probe stream.
    pub trace: RunTrace,
    /// Per-flow delivery gaps (ms) — mobility report data that lives in
    /// `MultiGridReport`, not in probes; empty for fault cases.
    pub gaps_ms: Vec<f64>,
}

/// A rendered study report.
#[derive(Clone, Debug)]
pub struct StudyReport {
    /// The full report text (tables + warnings + gate line).
    pub text: String,
    /// Gate violations: baseline drift beyond the threshold, probes
    /// that disappeared against the baseline. 0 = pass.
    pub failures: usize,
}

/// Table-cell number format: 4-ish significant digits across the nine
/// decades a probe value can span (bytes, bps, ratios).
pub fn sig(v: f64) -> String {
    if !v.is_finite() {
        return "n/a".into();
    }
    let a = v.abs();
    if a >= 1e6 {
        format!("{:.3}e6", v / 1e6)
    } else if a >= 1000.0 {
        fnum(v, 0)
    } else if a >= 1.0 {
        fnum(v, 2)
    } else if a == 0.0 {
        "0".into()
    } else {
        fnum(v, 4)
    }
}

/// One row of an A-vs-B comparison (medians compared).
#[derive(Clone, Debug)]
pub struct Delta {
    /// Probe name.
    pub name: String,
    /// Probe kind.
    pub kind: ProbeKind,
    /// Median on the A side (NaN = probe absent there).
    pub a: f64,
    /// Median on the B side (NaN = probe absent there).
    pub b: f64,
    /// Relative change `(b - a) / |a|` (NaN when a side is absent).
    pub rel: f64,
    /// True when the change exceeds the threshold (or a side is
    /// missing, under `strict_missing`). A change of an
    /// identifier-valued probe's median never flags.
    pub flagged: bool,
}

/// Probes whose value names something — a cell id — rather than measures
/// it. The distance between two ids means nothing, so a delta table
/// reports a differing median as `changed` and no threshold applies.
const IDENTIFIER_PROBES: [&str; 2] = ["grid.serving_cell", "ho.exec"];

fn is_identifier(probe: &str) -> bool {
    IDENTIFIER_PROBES.contains(&probe)
}

/// The drift a median may show before it is flagged, as a fraction of
/// the first side's: 0.25 flags changes beyond 25 %.
const DRIFT_THRESHOLD: f64 = 0.25;

/// Compare two stat sets by probe name, flagging medians that moved by
/// more than [`DRIFT_THRESHOLD`]. `strict_missing` flags probes present
/// on one side only — right for commit-vs-commit drift gates, wrong for
/// controller comparisons (FBCC emits `fbcc.*` probes GCC never will).
pub fn deltas(a: &[ProbeStats], b: &[ProbeStats], strict_missing: bool) -> Vec<Delta> {
    let mut names: Vec<&str> =
        a.iter().map(|s| s.name.as_str()).chain(b.iter().map(|s| s.name.as_str())).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let sa = a.iter().find(|s| s.name == name);
            let sb = b.iter().find(|s| s.name == name);
            let kind = sa.or(sb).unwrap().kind;
            let (va, vb) = (sa.map_or(f64::NAN, |s| s.median), sb.map_or(f64::NAN, |s| s.median));
            let (rel, flagged) = match (sa, sb) {
                (Some(_), Some(_)) => {
                    let rel = if va == vb {
                        0.0
                    } else if va.abs() > f64::EPSILON {
                        (vb - va) / va.abs()
                    } else {
                        f64::INFINITY
                    };
                    (rel, rel.abs() > DRIFT_THRESHOLD && !is_identifier(name))
                }
                _ => (f64::NAN, strict_missing),
            };
            Delta { name: name.to_string(), kind, a: va, b: vb, rel, flagged }
        })
        .collect()
}

/// Append one table row per delta, each behind the `lead` cells, and
/// return how many were flagged.
fn delta_rows(t: &mut Table, lead: &[String], rows: &[Delta], flag_word: &str) -> usize {
    let mut flagged = 0;
    for d in rows {
        let rel_cell = if d.rel.is_nan() {
            if d.a.is_nan() { "new" } else { "gone" }.to_string()
        } else if is_identifier(&d.name) {
            "id".to_string()
        } else if d.rel.is_infinite() {
            "from 0".to_string()
        } else {
            pct(d.rel)
        };
        let mark = if d.flagged {
            flagged += 1;
            flag_word.to_string()
        } else if is_identifier(&d.name) && !d.rel.is_nan() && d.rel != 0.0 {
            "changed".to_string()
        } else {
            String::new()
        };
        let cells = [d.name.clone(), d.kind.as_str().into(), sig(d.a), sig(d.b), rel_cell, mark];
        t.row(lead.iter().cloned().chain(cells).collect());
    }
    flagged
}

fn group_label(rc: &Option<String>) -> String {
    rc.clone().unwrap_or_else(|| "-".into())
}

/// Render the full study report from the executed cases.
///
/// `baseline` is a previously written study JSONL artifact (the
/// concatenated per-case streams): the report then appends a
/// commit-vs-commit drift section whose flagged rows count as failures.
pub fn study_report(
    cfg: &StudyConfig,
    cases: &[CaseTrace],
    baseline: Option<&RunTrace>,
) -> StudyReport {
    let mut text = String::new();
    let mut warnings: Vec<String> = Vec::new();
    let mut failures = 0usize;

    let groups = cfg.groups();
    // A study on the default scheme alone does not mention schemes.
    let schemes = match cfg.schemes[..] == [SCHEMES[0]] {
        true => String::new(),
        false => format!(" x {} schemes", cfg.schemes.len()),
    };
    text.push_str(&format!(
        "Study `{}` — family {}, {} scenarios x {} controllers{schemes} x {} seeds = {} cases, {}s \
         each\n\n",
        cfg.name,
        cfg.family.as_str(),
        cfg.scenarios.len(),
        if cfg.family == StudyFamily::Fault { cfg.controllers.len() } else { 1 },
        cfg.seeds,
        cases.len(),
        cfg.seconds,
    ));

    // Pool each scenario x controller group across its seeds and reduce
    // it once: the probe table and the A-vs-B section below both read
    // these stats, and the pooled samples are gone before the next group.
    struct Group<'a> {
        scenario: &'a str,
        rc: &'a Option<String>,
        members: Vec<&'a CaseTrace>,
        stats: Vec<ProbeStats>,
    }
    let reduced: Vec<Group> = groups
        .iter()
        .map(|(scenario, rc)| {
            let members: Vec<&CaseTrace> =
                cases.iter().filter(|c| c.scenario == *scenario && c.rc == *rc).collect();
            let stats = pooled_stats(members.iter().map(|c| &c.trace));
            Group { scenario, rc, members, stats }
        })
        .collect();

    // Per-probe distribution table, one block of rows per group.
    let mut probe_table = Table::new(
        "Per-probe distributions (pooled across seeds)",
        &["scenario", "ctl", "probe", "kind", "samples", "median", "p95", "p99"],
    );
    for group in &reduced {
        for s in &group.stats {
            probe_table.row(vec![
                group.scenario.to_string(),
                group_label(group.rc),
                s.name.clone(),
                s.kind.as_str().into(),
                s.samples.to_string(),
                sig(s.median),
                sig(s.p95),
                sig(s.p99),
            ]);
        }
    }
    text.push_str(&probe_table.render());
    text.push('\n');

    // Per-source rollup (cells, flows, sessions), pooled across seeds.
    let mut rollup = Table::new(
        "Per-source rollup (pooled across seeds)",
        &["scenario", "ctl", "src", "records", "probes", "span_s"],
    );
    for group in &reduced {
        for s in src_rollup(group.members.iter().map(|c| &c.trace)) {
            let span = (s.last_t_us.saturating_sub(s.first_t_us)) as f64 / 1e6;
            rollup.row(vec![
                group.scenario.to_string(),
                group_label(group.rc),
                s.src,
                s.records.to_string(),
                s.probes.to_string(),
                fnum(span, 1),
            ]);
        }
    }
    text.push_str(&rollup.render());
    text.push('\n');

    // Controller A-vs-B per scenario, the first two controllers under
    // the first scheme (informational: drift marks, no failures — the
    // controllers are *supposed* to differ).
    if cfg.family == StudyFamily::Fault && cfg.controllers.len() >= 2 {
        let contestants = cfg.contestants();
        let (a_rc, b_rc) = (&contestants[0], &contestants[cfg.schemes.len()]);
        for scenario in &cfg.scenarios {
            let stats_of = |rc: &str| {
                reduced
                    .iter()
                    .find(|g| g.scenario == scenario && g.rc.as_deref() == Some(rc))
                    .map_or(&[][..], |g| &g.stats)
            };
            let rows = deltas(stats_of(a_rc), stats_of(b_rc), false);
            let mut t = Table::new(
                format!("{scenario}: {a_rc} vs {b_rc} (medians, drift > {})", pct(DRIFT_THRESHOLD)),
                &["probe", "kind", a_rc.as_str(), b_rc.as_str(), "delta", ""],
            );
            delta_rows(&mut t, &[], &rows, "drift");
            text.push_str(&t.render());
            text.push('\n');
        }
    }

    // Handover-gap tails (mobility data carried outside the probes).
    if cases.iter().any(|c| !c.gaps_ms.is_empty()) {
        let mut t = Table::new(
            "Delivery-gap tails across handovers (ms, pooled across seeds)",
            &["scenario", "gaps", "p50", "p95", "p99", "max"],
        );
        for scenario in &cfg.scenarios {
            let mut gaps: Vec<f64> = cases
                .iter()
                .filter(|c| c.scenario == *scenario)
                .flat_map(|c| c.gaps_ms.iter().copied())
                .filter(|g| g.is_finite())
                .collect();
            let [p50, p95, p99] = quantiles_in_place(&mut gaps, [0.50, 0.95, 0.99])
                .map_or_else(|| std::array::from_fn(|_| "n/a".into()), |q| q.map(|v| fnum(v, 1)));
            let max = gaps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            t.row(vec![
                scenario.clone(),
                gaps.len().to_string(),
                p50,
                p95,
                p99,
                if gaps.is_empty() { "n/a".into() } else { fnum(max, 1) },
            ]);
        }
        text.push_str(&t.render());
        text.push('\n');
    }

    // Provenance warnings across the fresh cases.
    for case in cases {
        for w in case.trace.meta_warnings() {
            warnings.push(format!("case {}: {w}", case_label(case)));
        }
    }
    let mut commits: Vec<&str> =
        cases.iter().flat_map(|c| c.trace.metas.iter()).map(|m| m.commit.as_str()).collect();
    commits.sort_unstable();
    commits.dedup();
    if commits.len() > 1 {
        warnings.push(format!("cases span {} different commits", commits.len()));
    }

    // Baseline drift gate. One pool is alive at a time: each is built,
    // reduced in place and gone before the next is built.
    if let Some(base) = baseline {
        let current = pooled_stats(cases.iter().map(|c| &c.trace));
        let mut rows = deltas(&pooled_stats([base]), &current, true);
        // A counter's pooled samples are run totals from every scenario
        // at once — `grid.rlf` is ~1 per convoy run and ~190 per late_ho
        // run — and the median of such a mixture jumps when one sample
        // changes sides. Counters drift-gate per scenario, below; here
        // they can only fail by appearing or disappearing altogether.
        for d in rows.iter_mut().filter(|d| d.kind == ProbeKind::Counter && !d.rel.is_nan()) {
            d.flagged = false;
        }
        let mut t = Table::new(
            format!("Baseline drift gate (medians, threshold {})", pct(DRIFT_THRESHOLD)),
            &["probe", "kind", "baseline", "current", "delta", ""],
        );
        failures += delta_rows(&mut t, &[], &rows, "REGRESSION");
        text.push_str(&t.render());
        text.push('\n');

        // The baseline is the concatenation of a study's case streams in
        // case order, one provenance stamp each, so run segment k holds
        // case k. When the two studies do not line up there is no telling
        // which scenario a baseline segment ran, and one group takes all.
        let aligned = base.metas.len() == cases.len();
        if !aligned {
            warnings.push(format!(
                "baseline holds {} runs, this study {}: counters are gated on pooled run totals",
                base.metas.len(),
                cases.len()
            ));
        }
        let mut scenarios: Vec<(&str, &Option<String>)> = Vec::new();
        let group_of: Vec<usize> = cases
            .iter()
            .map(|c| {
                let key = if aligned { (c.scenario.as_str(), &c.rc) } else { ("(all)", &None) };
                scenarios.iter().position(|g| *g == key).unwrap_or_else(|| {
                    scenarios.push(key);
                    scenarios.len() - 1
                })
            })
            .collect();
        let mut base_pools = vec![Pool::new(); scenarios.len()];
        pool_counters_by_segment(&mut base_pools, base, |seg| {
            if aligned {
                group_of.get(usize::from(seg).wrapping_sub(1)).copied()
            } else {
                Some(0)
            }
        });
        let base_stats: Vec<Vec<ProbeStats>> = base_pools.into_iter().map(Pool::stats).collect();
        let mut current_pools = vec![Pool::new(); scenarios.len()];
        for (case, &group) in cases.iter().zip(&group_of) {
            pool_counters_by_segment(&mut current_pools, &case.trace, |_| Some(group));
        }
        let mut t = Table::new(
            format!(
                "Baseline drift gate, counters per scenario (medians of run totals, threshold {})",
                pct(DRIFT_THRESHOLD)
            ),
            &["scenario", "ctl", "probe", "kind", "baseline", "current", "delta", ""],
        );
        for (((scenario, rc), base), current) in scenarios.iter().zip(base_stats).zip(current_pools)
        {
            // A counter that never fired in a scenario's runs left no
            // total there; only vanishing from the whole study fails.
            let rows = deltas(&base, &current.stats(), false);
            let lead = [scenario.to_string(), group_label(rc)];
            failures += delta_rows(&mut t, &lead, &rows, "REGRESSION");
        }
        text.push_str(&t.render());
        for w in base.meta_warnings() {
            warnings.push(format!("baseline: {w}"));
        }
        match (base.metas.first(), commits.first()) {
            (Some(bm), Some(cur)) if bm.commit == *cur => {
                warnings.push("baseline was produced by the current commit".into());
            }
            (Some(bm), Some(cur)) => {
                text.push_str(&format!("comparing commits: {} -> {}\n", bm.commit, cur));
            }
            _ => {}
        }
        if bm_schema_mismatch(base) {
            warnings
                .push(format!("baseline schema differs from this build's v{TRACE_SCHEMA_VERSION}"));
        }
        text.push('\n');
    }

    for w in &warnings {
        text.push_str(&format!("warning: {w}\n"));
    }
    text.push_str(&format!("study gate: {failures} failure(s), {} warning(s)\n", warnings.len()));
    StudyReport { text, failures }
}

/// Pool `traces` and reduce the pool, which is gone when this returns.
fn pooled_stats<'a>(traces: impl IntoIterator<Item = &'a RunTrace>) -> Vec<ProbeStats> {
    let mut pool = Pool::new();
    traces.into_iter().for_each(|trace| pool.add(trace));
    pool.stats()
}

fn case_label(case: &CaseTrace) -> String {
    match &case.rc {
        Some(rc) => format!("{}.{}.s{}", case.scenario, rc, case.seed),
        None => format!("{}.s{}", case.scenario, case.seed),
    }
}

fn bm_schema_mismatch(base: &RunTrace) -> bool {
    base.metas.iter().any(|m| m.schema != TRACE_SCHEMA_VERSION)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::by_name;

    fn stats(rows: &[(&str, f64)]) -> Vec<ProbeStats> {
        rows.iter()
            .map(|(name, median)| ProbeStats {
                name: name.to_string(),
                kind: ProbeKind::Gauge,
                samples: 10,
                median: *median,
                p95: *median,
                p99: *median,
            })
            .collect()
    }

    #[test]
    fn deltas_flag_beyond_threshold_and_handle_missing_sides() {
        let a = stats(&[("x.same", 10.0), ("x.drift", 10.0), ("x.gone", 1.0)]);
        let b = stats(&[("x.same", 11.0), ("x.drift", 20.0), ("x.new", 1.0)]);
        let lax = deltas(&a, &b, false);
        let by = |rows: &[Delta], n: &str| rows.iter().find(|d| d.name == n).unwrap().clone();
        assert!(!by(&lax, "x.same").flagged, "10%% is under a 25%% threshold");
        assert!(by(&lax, "x.drift").flagged);
        assert!((by(&lax, "x.drift").rel - 1.0).abs() < 1e-12);
        assert!(!by(&lax, "x.gone").flagged, "missing side tolerated when lax");
        assert!(!by(&lax, "x.new").flagged);
        let strict = deltas(&a, &b, true);
        assert!(by(&strict, "x.gone").flagged, "disappearing probe fails a drift gate");
        assert!(by(&strict, "x.new").flagged);
        assert_eq!(strict.len(), 4, "union of names, deduped");
    }

    #[test]
    fn identifier_probes_are_listed_as_changed_and_never_gate() {
        let a = stats(&[("grid.serving_cell", 0.0), ("grid.handover", 1.0), ("ho.exec", 3.0)]);
        let b = stats(&[("grid.serving_cell", 2.0), ("grid.handover", 2.0), ("ho.exec", 3.0)]);
        let rows = deltas(&a, &b, true);
        let by = |n: &str| rows.iter().find(|d| d.name == n).unwrap();
        assert!(!by("grid.serving_cell").flagged, "cell 0 -> cell 2 is not an infinite regression");
        assert!(by("grid.handover").flagged, "a count doubling still is");
        let mut t = Table::new("t", &["probe", "kind", "a", "b", "delta", ""]);
        assert_eq!(delta_rows(&mut t, &[], &rows, "REGRESSION"), 1);
        let text = t.render();
        let cells = |n: &str| -> Vec<&str> {
            text.lines().find(|l| l.starts_with(n)).unwrap().split_whitespace().skip(4).collect()
        };
        assert_eq!(cells("grid.serving_cell"), ["id", "changed"], "{text}");
        assert_eq!(cells("ho.exec"), ["id"], "an equal id is unmarked: {text}");
        // A vanished identifier probe is still a vanished probe: `gone`,
        // flagged by a strict gate, never `changed`.
        let b = stats(&[("grid.handover", 1.0), ("ho.exec", 3.0)]);
        assert!(deltas(&a, &b, true).iter().any(|d| d.name == "grid.serving_cell" && d.flagged));
        let mut t = Table::new("t", &["probe", "kind", "a", "b", "delta", ""]);
        delta_rows(&mut t, &[], &deltas(&a, &b, false), "drift");
        assert!(!t.render().contains("changed"));
    }

    #[test]
    fn report_counts_baseline_regressions_as_failures() {
        let cfg = by_name("cc_matrix").unwrap();
        let jsonl = |v: f64| {
            format!(
                r#"{{"t_us":1000,"src":"baseline.fbcc.s1","name":"pacer.rate_bps","kind":"gauge","value":{v}}}"#
            )
        };
        let case = |v: f64| CaseTrace {
            scenario: "baseline".into(),
            rc: Some("fbcc".into()),
            seed: 1,
            trace: RunTrace::parse_bytes(jsonl(v).as_bytes()).unwrap(),
            gaps_ms: vec![],
        };
        let drifted_base = RunTrace::parse_bytes(jsonl(100.0).as_bytes()).unwrap();
        let rep = study_report(&cfg, &[case(200.0)], Some(&drifted_base));
        assert!(rep.failures >= 1, "100%% drift beyond 25%% threshold fails");
        assert!(rep.text.contains("REGRESSION"));
        let same_base = RunTrace::parse_bytes(jsonl(200.0).as_bytes()).unwrap();
        let rep = study_report(&cfg, &[case(200.0)], Some(&same_base));
        assert_eq!(rep.failures, 0);
        let rep = study_report(&cfg, &[case(200.0)], None);
        assert_eq!(rep.failures, 0, "no baseline, no gate");
        assert!(rep.text.contains("study gate: 0 failure(s)"));
    }

    /// A mobility study artifact holding nothing but `grid.rlf` run
    /// totals: one stamped segment per case, a counter record where the
    /// run had any RLF (a run with none emits no record at all).
    fn rlf_cases(totals: &[(&str, [Option<u32>; 3])]) -> (Vec<CaseTrace>, RunTrace) {
        let mut cases = Vec::new();
        let mut artifact = String::new();
        for (scenario, per_seed) in totals {
            for (seed, total) in (1u64..).zip(per_seed) {
                let mut jsonl = format!(
                    r#"{{"meta":"poi360.trace","schema":1,"commit":"abc","argv":[],"seed":{seed}}}"#
                );
                if let Some(n) = total {
                    jsonl.push_str(&format!(
                        "\n{{\"t_us\":1000,\"src\":\"grid\",\"name\":\"grid.rlf\",\"kind\":\"counter\",\"value\":{n}}}"
                    ));
                }
                jsonl.push('\n');
                cases.push(CaseTrace {
                    scenario: scenario.to_string(),
                    rc: None,
                    seed,
                    trace: RunTrace::parse_bytes(jsonl.as_bytes()).unwrap(),
                    gaps_ms: vec![],
                });
                artifact.push_str(&jsonl);
            }
        }
        (cases, RunTrace::parse_bytes(artifact.as_bytes()).unwrap())
    }

    #[test]
    fn counters_gate_per_scenario_not_on_the_pooled_mixture() {
        // Deviation D8's `grid.rlf` run totals, parent -> PR 18: the pool
        // went from {1, 1, 166, 192, 199} to {1, 1, 1, 155, 182, 197} and
        // its median from 166 to 78, while no scenario's own median moved
        // more than 5.2 %.
        let cfg = by_name("ho_tails").unwrap();
        let (_, before) = rlf_cases(&[
            ("convoy", [None, Some(1), None]),
            ("waypoint", [None, None, Some(1)]),
            ("late_ho", [Some(166), Some(192), Some(199)]),
        ]);
        let (after, _) = rlf_cases(&[
            ("convoy", [None, None, None]),
            ("waypoint", [Some(1), Some(1), Some(1)]),
            ("late_ho", [Some(155), Some(182), Some(197)]),
        ]);

        let current = pooled_stats(after.iter().map(|c| &c.trace));
        let mixture = deltas(&pooled_stats([&before]), &current, true);
        assert_eq!((mixture[0].a, mixture[0].b), (166.0, 78.0));
        assert!(mixture[0].flagged, "the pooled median moves -53 %: {:?}", mixture[0]);

        let rep = study_report(&cfg, &after, Some(&before));
        assert_eq!(rep.failures, 0, "no scenario drifted:\n{}", rep.text);
        assert_eq!(row_of(&rep.text, "late_ho")[4..], ["192.00", "182.00", "-5.2%"]);
        assert_eq!(row_of(&rep.text, "waypoint")[4..], ["1.00", "1.00", "0.0%"]);
        assert_eq!(row_of(&rep.text, "convoy")[4..], ["1.00", "n/a", "gone"], "a rare event");

        // A scenario that does drift is flagged on its own row, and a
        // counter that vanishes from the whole study still fails.
        let (halved, _) = rlf_cases(&[
            ("convoy", [None, None, None]),
            ("waypoint", [Some(1), Some(1), Some(1)]),
            ("late_ho", [Some(80), Some(90), Some(100)]),
        ]);
        let rep = study_report(&cfg, &halved, Some(&before));
        assert_eq!(rep.failures, 1, "{}", rep.text);
        assert_eq!(*row_of(&rep.text, "late_ho").last().unwrap(), "REGRESSION");
        let (silent, _) = rlf_cases(&[("convoy", [None; 3]), ("waypoint", [None; 3])]);
        let (_, six_runs) =
            rlf_cases(&[("convoy", [Some(1), None, None]), ("waypoint", [None, None, Some(1)])]);
        let rep = study_report(&cfg, &silent, Some(&six_runs));
        assert_eq!(rep.failures, 1, "grid.rlf is gone from every scenario:\n{}", rep.text);

        // A baseline from some other study cannot be split by scenario:
        // say so, and gate its counters on the pooled totals as before.
        let rep = study_report(&cfg, &after, Some(&six_runs));
        assert!(rep.text.contains("baseline holds 6 runs, this study 9"), "{}", rep.text);
        assert_eq!(row_of(&rep.text, "(all)")[4..6], ["1.00", "78.00"], "{}", rep.text);
        assert!(rep.failures >= 1);
    }

    /// The cells of `scenario`'s `grid.rlf` row in the per-scenario gate.
    fn row_of<'a>(text: &'a str, scenario: &str) -> Vec<&'a str> {
        let gate = text.split("counters per scenario").nth(1).expect("the gate table");
        let line = gate.lines().find(|l| l.starts_with(scenario) && l.contains("grid.rlf"));
        line.unwrap_or_else(|| panic!("no {scenario} row:\n{text}")).split_whitespace().collect()
    }

    #[test]
    fn sig_spans_the_value_decades() {
        assert_eq!(sig(2_400_000.0), "2.400e6");
        assert_eq!(sig(57_123.0), "57123");
        assert_eq!(sig(3.17159), "3.17");
        assert_eq!(sig(0.01234), "0.0123");
        assert_eq!(sig(0.0), "0");
        assert_eq!(sig(f64::NAN), "n/a");
    }
}
