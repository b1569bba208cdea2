//! Cross-run report rendering: the study tables, A-vs-B deltas, and
//! the handover-gap tails, all through the shared
//! [`poi360_metrics::table::Table`] renderer.
//!
//! The rendered text is a golden artifact (`tests/golden.rs` pins the
//! `cc_matrix --smoke` report), so it deliberately contains nothing
//! that varies across checkouts: no paths, and no commit hashes outside
//! the explicitly requested `--baseline` section.

use crate::aggregate::{ProbeStats, SrcStats, Tally};
use crate::ingest::RunTrace;
use crate::study::{StudyConfig, StudyFamily, SCHEMES};
use poi360_metrics::dist::quantiles_in_place;
use poi360_metrics::table::{fnum, pct, Table};
use poi360_sim::trace::ProbeKind;
use std::cmp::Ordering;

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
/// more than [`DRIFT_THRESHOLD`]. Both sides are sorted by name, as
/// [`Pool::stats`](crate::aggregate::Pool::stats) leaves them, and are
/// merge-joined. `strict_missing` flags probes present
/// on one side only — right for commit-vs-commit drift gates, wrong for
/// controller comparisons (FBCC emits `fbcc.*` probes GCC never will).
pub fn deltas(a: &[ProbeStats], b: &[ProbeStats], strict_missing: bool) -> Vec<Delta> {
    let sorted = |s: &[ProbeStats]| s.is_sorted_by(|x, y| x.name < y.name);
    assert!(sorted(a) && sorted(b), "deltas merge-joins stats sorted by name");
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    loop {
        let (sa, sb) = match (a.peek(), b.peek()) {
            (None, None) => break,
            (Some(x), Some(y)) => match x.name.cmp(&y.name) {
                Ordering::Less => (a.next(), None),
                Ordering::Greater => (None, b.next()),
                Ordering::Equal => (a.next(), b.next()),
            },
            _ => (a.next(), b.next()),
        };
        out.push(delta(sa, sb, strict_missing));
    }
    out
}

/// One probe's row: its stats on either side, at least one present.
fn delta(sa: Option<&ProbeStats>, sb: Option<&ProbeStats>, strict_missing: bool) -> Delta {
    let ProbeStats { name, kind, .. } = sa.or(sb).expect("a probe on one side at least");
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
    Delta { name: name.clone(), kind: *kind, a: va, b: vb, rel, flagged }
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
    render(cfg, cases, baseline, reduce(cfg, cases, baseline))
}

/// What the report's tables read, reduced from the cases and the
/// baseline.
#[derive(Debug)]
struct Reduction<'a> {
    /// Per `cfg.groups()` entry: its probe stats, pooled across its
    /// seeds, and its per-source rollup.
    groups: Vec<(Vec<ProbeStats>, Vec<SrcStats>)>,
    /// Per scenario, the controller A-vs-B rows; empty unless a fault
    /// study has two controllers.
    versus: Vec<Vec<Delta>>,
    /// The baseline drift gate, when there is a baseline.
    gate: Option<Gate<'a>>,
}

/// The rows of the baseline drift gate.
#[derive(Debug)]
struct Gate<'a> {
    /// Every probe pooled across the study; counters only flag by
    /// appearing or vanishing.
    pooled: Vec<Delta>,
    /// Counter rows per scenario × controller group of
    /// [`CounterSplit::keys`].
    counters: Vec<Vec<Delta>>,
    split: CounterSplit<'a>,
}

/// How the drift gate splits counters by scenario × controller group.
/// The baseline is the concatenation of a study's case streams in case
/// order, one provenance stamp each, so run segment k holds case k. When
/// the two studies do not line up there is no telling which scenario a
/// baseline segment ran, and one group takes all.
#[derive(Debug)]
struct CounterSplit<'a> {
    aligned: bool,
    /// The groups, in case order.
    keys: Vec<(&'a str, &'a Option<String>)>,
    /// Per case: its group.
    group_of: Vec<usize>,
}

impl<'a> CounterSplit<'a> {
    fn of(cases: &'a [CaseTrace], base: &RunTrace) -> CounterSplit<'a> {
        let aligned = base.metas.len() == cases.len();
        let mut keys: Vec<(&str, &Option<String>)> = Vec::new();
        let group_of: Vec<usize> = cases
            .iter()
            .map(|c| {
                let key = if aligned { (c.scenario.as_str(), &c.rc) } else { ("(all)", &None) };
                keys.iter().position(|g| *g == key).unwrap_or_else(|| {
                    keys.push(key);
                    keys.len() - 1
                })
            })
            .collect();
        CounterSplit { aligned, keys, group_of }
    }

    /// The group of the baseline's run segment `seg` (segment 0 precedes
    /// every stamp).
    fn base_group(&self, seg: u16) -> Option<usize> {
        match self.aligned {
            true => self.group_of.get(usize::from(seg).wrapping_sub(1)).copied(),
            false => Some(0),
        }
    }
}

/// Fold the cases once and read every table off that fold: each group's
/// stats and rollup, then the drift gate's current side, counters by
/// group first, then the whole pool reduced in place. The fold's
/// bookkeeping and the group scratch are gone before the baseline is
/// folded the same way, so one pool is alive at a time.
fn reduce<'a>(
    cfg: &StudyConfig,
    cases: &'a [CaseTrace],
    baseline: Option<&RunTrace>,
) -> Reduction<'a> {
    let fold = Tally::new(cases.iter().map(|c| &c.trace).collect(), true).store();
    let mut scratch = Vec::new();
    let groups: Vec<(Vec<ProbeStats>, Vec<SrcStats>)> = cfg
        .groups()
        .iter()
        .map(|(scenario, rc)| {
            let members: Vec<usize> = (0..cases.len())
                .filter(|&k| cases[k].scenario == *scenario && cases[k].rc == *rc)
                .collect();
            (fold.stats_of(&members, &mut scratch), fold.rollup(&members))
        })
        .collect();
    drop(scratch);
    let versus = versus(cfg, &groups);
    let gate = baseline.map(|base| {
        let split = CounterSplit::of(cases, base);
        let current_counters =
            fold.counter_stats(split.keys.len(), |case, _| Some(split.group_of[case]));
        let current = fold.into_pool().stats();
        let base = Tally::new(vec![base], false).store();
        let base_counters = base.counter_stats(split.keys.len(), |_, seg| split.base_group(seg));
        let mut pooled = deltas(&base.into_pool().stats(), &current, true);
        unflag_counters(&mut pooled);
        // A counter that never fired in a scenario's runs left no total
        // there; only vanishing from the whole study fails.
        let counters =
            base_counters.iter().zip(&current_counters).map(|(b, c)| deltas(b, c, false));
        Gate { pooled, counters: counters.collect(), split }
    });
    Reduction { groups, versus, gate }
}

/// Controller A-vs-B per scenario, the first two controllers under the
/// first scheme (informational: drift marks, no failures — the
/// controllers are *supposed* to differ).
fn versus(cfg: &StudyConfig, groups: &[(Vec<ProbeStats>, Vec<SrcStats>)]) -> Vec<Vec<Delta>> {
    let Some((a_rc, b_rc)) = contenders(cfg) else { return Vec::new() };
    let keys = cfg.groups();
    let stats_of = |scenario: &str, rc: &str| {
        let mut keyed = keys.iter().zip(groups);
        keyed
            .find(|((s, r), _)| s == scenario && r.as_deref() == Some(rc))
            .map_or(&[][..], |(_, (stats, _))| stats)
    };
    let rows = |s: &String| deltas(stats_of(s, &a_rc), stats_of(s, &b_rc), false);
    cfg.scenarios.iter().map(rows).collect()
}

/// The two contestants a fault study with two controllers or more
/// compares.
fn contenders(cfg: &StudyConfig) -> Option<(String, String)> {
    if cfg.family != StudyFamily::Fault || cfg.controllers.len() < 2 {
        return None;
    }
    let contestants = cfg.contestants();
    Some((contestants[0].clone(), contestants[cfg.schemes.len()].clone()))
}

/// A counter's pooled samples are run totals from every scenario at
/// once — `grid.rlf` is ~1 per convoy run and ~190 per late_ho run — and
/// the median of such a mixture jumps when one sample changes sides.
/// Counters drift-gate per scenario; in the pooled table they can only
/// fail by appearing or disappearing altogether.
fn unflag_counters(rows: &mut [Delta]) {
    for d in rows.iter_mut().filter(|d| d.kind == ProbeKind::Counter && !d.rel.is_nan()) {
        d.flagged = false;
    }
}

/// Lay the reduced tables out as the report text.
fn render(
    cfg: &StudyConfig,
    cases: &[CaseTrace],
    baseline: Option<&RunTrace>,
    reduced: Reduction,
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

    // Per-probe distribution table, one block of rows per group.
    let mut probe_table = Table::new(
        "Per-probe distributions (pooled across seeds)",
        &["scenario", "ctl", "probe", "kind", "samples", "median", "p95", "p99"],
    );
    for ((scenario, rc), (stats, _)) in groups.iter().zip(&reduced.groups) {
        for s in stats {
            probe_table.row(vec![
                scenario.to_string(),
                group_label(rc),
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
    for ((scenario, rc), (_, sources)) in groups.iter().zip(reduced.groups) {
        for s in sources {
            let span = (s.last_t_us.saturating_sub(s.first_t_us)) as f64 / 1e6;
            rollup.row(vec![
                scenario.to_string(),
                group_label(rc),
                s.src,
                s.records.to_string(),
                s.probes.to_string(),
                fnum(span, 1),
            ]);
        }
    }
    text.push_str(&rollup.render());
    text.push('\n');

    if let Some((a_rc, b_rc)) = contenders(cfg) {
        for (scenario, rows) in cfg.scenarios.iter().zip(&reduced.versus) {
            let mut t = Table::new(
                format!("{scenario}: {a_rc} vs {b_rc} (medians, drift > {})", pct(DRIFT_THRESHOLD)),
                &["probe", "kind", a_rc.as_str(), b_rc.as_str(), "delta", ""],
            );
            delta_rows(&mut t, &[], rows, "drift");
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

    // Baseline drift gate.
    if let (Some(base), Some(gate)) = (baseline, reduced.gate) {
        let mut t = Table::new(
            format!("Baseline drift gate (medians, threshold {})", pct(DRIFT_THRESHOLD)),
            &["probe", "kind", "baseline", "current", "delta", ""],
        );
        failures += delta_rows(&mut t, &[], &gate.pooled, "REGRESSION");
        text.push_str(&t.render());
        text.push('\n');

        if !gate.split.aligned {
            warnings.push(format!(
                "baseline holds {} runs, this study {}: counters are gated on pooled run totals",
                base.metas.len(),
                cases.len()
            ));
        }
        let mut t = Table::new(
            format!(
                "Baseline drift gate, counters per scenario (medians of run totals, threshold {})",
                pct(DRIFT_THRESHOLD)
            ),
            &["scenario", "ctl", "probe", "kind", "baseline", "current", "delta", ""],
        );
        for ((scenario, rc), rows) in gate.split.keys.iter().zip(&gate.counters) {
            let lead = [scenario.to_string(), group_label(rc)];
            failures += delta_rows(&mut t, &lead, rows, "REGRESSION");
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
        text.push('\n');
    }

    for w in &warnings {
        text.push_str(&format!("warning: {w}\n"));
    }
    text.push_str(&format!("study gate: {failures} failure(s), {} warning(s)\n", warnings.len()));
    StudyReport { text, failures }
}

fn case_label(case: &CaseTrace) -> String {
    match &case.rc {
        Some(rc) => format!("{}.{}.s{}", case.scenario, rc, case.seed),
        None => format!("{}.s{}", case.scenario, case.seed),
    }
}

/// The pooling path the fold replaced, kept verbatim as its oracle:
/// `Pool::add` with three walks per trace, `pool_counters_by_segment`,
/// `src_rollup` and the find-per-name `deltas`, orchestrated as
/// `study_report` ran them — each group pooled on its own, the cases
/// pooled again for the drift gate, the counters pooled per group once
/// more on either side.
#[cfg(test)]
mod oracle {
    use super::{unflag_counters, CounterSplit, Gate, Reduction};
    use super::{CaseTrace, Delta, StudyConfig, StudyFamily, DRIFT_THRESHOLD};
    use crate::aggregate::{ProbeStats, SrcStats};
    use crate::ingest::{Interner, Rec, RunTrace};
    use crate::report::is_identifier;
    use poi360_metrics::dist::quantiles_in_place;
    use poi360_sim::trace::ProbeKind::{self, Counter};

    /// `study_report`'s reduction as it was.
    pub(super) fn reduce<'a>(
        cfg: &StudyConfig,
        cases: &'a [CaseTrace],
        baseline: Option<&RunTrace>,
    ) -> Reduction<'a> {
        let groups = cfg.groups();
        let reduced: Vec<(Vec<ProbeStats>, Vec<SrcStats>)> = groups
            .iter()
            .map(|(scenario, rc)| {
                let members: Vec<&CaseTrace> =
                    cases.iter().filter(|c| c.scenario == *scenario && c.rc == *rc).collect();
                let stats = pooled_stats(members.iter().map(|c| &c.trace));
                (stats, src_rollup(members.iter().map(|c| &c.trace)))
            })
            .collect();
        let mut versus = Vec::new();
        if cfg.family == StudyFamily::Fault && cfg.controllers.len() >= 2 {
            let contestants = cfg.contestants();
            let (a_rc, b_rc) = (&contestants[0], &contestants[cfg.schemes.len()]);
            for scenario in &cfg.scenarios {
                let stats_of = |rc: &str| {
                    groups
                        .iter()
                        .zip(&reduced)
                        .find(|((s, r), _)| s == scenario && r.as_deref() == Some(rc))
                        .map_or(&[][..], |(_, (stats, _))| stats)
                };
                versus.push(deltas(stats_of(a_rc), stats_of(b_rc), false));
            }
        }
        let gate = baseline.map(|base| {
            let current = pooled_stats(cases.iter().map(|c| &c.trace));
            let mut pooled = deltas(&pooled_stats([base]), &current, true);
            unflag_counters(&mut pooled);
            let split = CounterSplit::of(cases, base);
            let mut base_pools = vec![Pool::new(); split.keys.len()];
            pool_counters_by_segment(&mut base_pools, base, |seg| split.base_group(seg));
            let base_stats: Vec<Vec<ProbeStats>> =
                base_pools.into_iter().map(Pool::stats).collect();
            let mut current_pools = vec![Pool::new(); split.keys.len()];
            for (case, &group) in cases.iter().zip(&split.group_of) {
                pool_counters_by_segment(&mut current_pools, &case.trace, |_| Some(group));
            }
            let counters = base_stats.iter().zip(current_pools);
            let counters = counters.map(|(base, current)| deltas(base, &current.stats(), false));
            Gate { pooled, counters: counters.collect(), split }
        });
        Reduction { groups: reduced, versus, gate }
    }

    /// Pool `traces` and reduce the pool, which is gone when this returns.
    pub(super) fn pooled_stats<'a>(
        traces: impl IntoIterator<Item = &'a RunTrace>,
    ) -> Vec<ProbeStats> {
        let mut pool = Pool::new();
        traces.into_iter().for_each(|trace| pool.add(trace));
        pool.stats()
    }

    #[derive(Clone, Debug, Default)]
    pub(super) struct Pool {
        probes: Vec<(String, ProbeKind, Vec<f64>)>,
        traces: u64,
    }

    impl Pool {
        pub(super) fn new() -> Pool {
            Pool::default()
        }

        fn find(&self, name: &str) -> Option<usize> {
            self.probes.iter().position(|(n, _, _)| n == name)
        }

        fn slot(&mut self, name: &str, kind: ProbeKind) -> usize {
            self.find(name).unwrap_or_else(|| {
                self.probes.push((name.to_string(), kind, Vec::new()));
                self.probes.len() - 1
            })
        }

        pub(super) fn add(&mut self, trace: &RunTrace) {
            self.traces += 1;
            let samples = trace.records.iter().filter(|rec| rec.kind != Counter);
            let finite = samples.filter(|rec| rec.value.is_finite());
            self.append(&trace.probes, finite.map(|rec| (rec.name, rec.kind, rec.value)));
            let totals = CounterTotals::of(trace).0.into_iter();
            self.append(&trace.probes, totals.map(|((_, _, id), total)| (id, Counter, total)));
        }

        fn append<I>(&mut self, probes: &Interner, samples: I)
        where
            I: Iterator<Item = (u16, ProbeKind, f64)> + Clone,
        {
            let mut seen: Vec<(usize, usize, ProbeKind)> = vec![(0, 0, Counter); probes.len()];
            let mut order = Vec::new();
            for (id, kind, _) in samples.clone() {
                let (_, count, first) = &mut seen[usize::from(id)];
                if *count == 0 {
                    *first = kind;
                    order.push(id);
                }
                *count += 1;
            }
            let opening = order.iter().filter(|&&id| self.find(probes.name(id)).is_none());
            self.probes.reserve_exact(opening.count());
            for &id in &order {
                let (slot, count, kind) = &mut seen[usize::from(id)];
                *slot = self.slot(probes.name(id), *kind);
                self.probes[*slot].2.reserve_exact(*count);
            }
            for (id, _, value) in samples {
                self.probes[seen[usize::from(id)].0].2.push(value);
            }
        }

        pub(super) fn stats(self) -> Vec<ProbeStats> {
            let mut out: Vec<ProbeStats> = self
                .probes
                .into_iter()
                .filter_map(|(name, kind, mut samples)| {
                    let ranked = samples.iter().filter(|v| !v.is_nan()).count() as u64;
                    let [median, p95, p99] = quantiles_in_place(&mut samples, [0.50, 0.95, 0.99])?;
                    Some(ProbeStats { name, kind, samples: ranked, median, p95, p99 })
                })
                .collect();
            out.sort_by(|a, b| a.name.cmp(&b.name));
            out
        }
    }

    struct CounterTotals(Vec<((u16, u16, u16), f64)>);

    impl CounterTotals {
        fn of(trace: &RunTrace) -> CounterTotals {
            let mut totals = CounterTotals(Vec::new());
            let counters = trace.records.iter().filter(|rec| rec.kind == Counter);
            for rec in counters.filter(|rec| rec.value.is_finite()) {
                totals.add(rec);
            }
            totals
        }

        fn add(&mut self, rec: &Rec) {
            let key = (rec.seg, rec.src, rec.name);
            match self.0.iter_mut().find(|(k, _)| *k == key) {
                Some((_, total)) => *total += rec.value,
                None => self.0.push((key, rec.value)),
            }
        }
    }

    fn pool_counters_by_segment(
        pools: &mut [Pool],
        trace: &RunTrace,
        pool_of: impl Fn(u16) -> Option<usize>,
    ) {
        let totals = CounterTotals::of(trace);
        for (k, pool) in pools.iter_mut().enumerate() {
            let mine = totals.0.iter().filter(|((seg, _, _), _)| pool_of(*seg) == Some(k));
            pool.append(&trace.probes, mine.map(|&((_, _, id), total)| (id, Counter, total)));
        }
    }

    fn src_rollup<'a>(traces: impl IntoIterator<Item = &'a RunTrace>) -> Vec<SrcStats> {
        struct Acc {
            records: u64,
            emitted: Vec<bool>,
            first_t_us: u64,
            last_t_us: u64,
        }
        let (mut tags, mut names) = (Interner::default(), Interner::default());
        let mut acc: Vec<Acc> = Vec::new();
        for trace in traces {
            let tag_of: Vec<u32> = trace.srcs.names().map(|tag| tags.intern(tag)).collect();
            let name_of: Vec<u32> = trace.probes.names().map(|name| names.intern(name)).collect();
            acc.resize_with(tags.len(), || Acc {
                records: 0,
                emitted: Vec::new(),
                first_t_us: u64::MAX,
                last_t_us: 0,
            });
            for rec in &trace.records {
                let slot = &mut acc[tag_of[rec.src as usize] as usize];
                slot.records += 1;
                let probe = name_of[rec.name as usize] as usize;
                if slot.emitted.len() <= probe {
                    slot.emitted.resize(probe + 1, false);
                }
                slot.emitted[probe] = true;
                slot.first_t_us = slot.first_t_us.min(rec.t_us);
                slot.last_t_us = slot.last_t_us.max(rec.t_us);
            }
        }
        let mut out: Vec<SrcStats> = tags
            .names()
            .zip(acc)
            .filter(|(_, slot)| slot.records > 0)
            .map(|(src, slot)| SrcStats {
                src: src.to_string(),
                records: slot.records,
                probes: slot.emitted.iter().filter(|&&e| e).count() as u64,
                first_t_us: slot.first_t_us,
                last_t_us: slot.last_t_us,
            })
            .collect();
        out.sort_by(|a, b| a.src.cmp(&b.src));
        out
    }

    pub(super) fn deltas(a: &[ProbeStats], b: &[ProbeStats], strict_missing: bool) -> Vec<Delta> {
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
                let (va, vb) =
                    (sa.map_or(f64::NAN, |s| s.median), sb.map_or(f64::NAN, |s| s.median));
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
}

#[cfg(test)]
mod tests {
    use super::oracle::pooled_stats;
    use super::*;
    use crate::study::by_name;
    use poi360_sim::trace::TRACE_SCHEMA_VERSION;
    use poi360_testkit::prop_assert_eq;

    /// Gauge stats with these medians, sorted by name as `Pool::stats`
    /// leaves them.
    fn stats(rows: &[(&str, f64)]) -> Vec<ProbeStats> {
        let mut stats: Vec<ProbeStats> = rows
            .iter()
            .map(|(name, median)| ProbeStats {
                name: name.to_string(),
                kind: ProbeKind::Gauge,
                samples: 10,
                median: *median,
                p95: *median,
                p99: *median,
            })
            .collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
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

    /// A baseline stamped with another trace schema is said once, by the
    /// trace's own provenance check, and counted once in the gate line.
    #[test]
    fn a_baseline_from_another_schema_is_one_warning() {
        let stamped = |schema: u64| {
            let meta = format!(
                r#"{{"meta":"poi360.trace","schema":{schema},"commit":"c","argv":[],"seed":1}}"#
            );
            let probe =
                r#"{"t_us":1000,"src":"s","name":"pacer.rate_bps","kind":"gauge","value":1}"#;
            RunTrace::parse_bytes(format!("{meta}\n{probe}\n").as_bytes()).unwrap()
        };
        let case = CaseTrace {
            scenario: "baseline".into(),
            rc: Some("fbcc".into()),
            seed: 1,
            trace: stamped(TRACE_SCHEMA_VERSION),
            gaps_ms: vec![],
        };
        let rep = study_report(&by_name("cc_matrix").unwrap(), &[case], Some(&stamped(99)));
        let warnings: Vec<&str> = rep.text.lines().filter(|l| l.starts_with("warning: ")).collect();
        let schema: Vec<&str> = warnings.iter().copied().filter(|w| w.contains("schema")).collect();
        let said =
            format!("warning: baseline: trace schema v99 != this build's v{TRACE_SCHEMA_VERSION}");
        assert_eq!(schema, [said], "{}", rep.text);
        let gate = format!("study gate: 0 failure(s), {} warning(s)\n", warnings.len());
        assert!(rep.text.ends_with(&gate), "{}", rep.text);
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

    /// One generated stream of `segments` stamped runs: a few probe names
    /// over three sources, counters among them, one name that is a gauge
    /// in some streams and a counter in others (and now and then the other
    /// kind inside a stream), one rare name, and values that include
    /// `null`, ±inf and both zeros among small halves, so medians tie.
    fn gen_stream(g: &mut poi360_testkit::prop::Gen, segments: usize) -> String {
        const SRCS: [&str; 3] = ["s0", "s1", "fg.00"];
        let (mixed, other) =
            if g.chance(0.5) { ("gauge", "counter") } else { ("counter", "event") };
        let mut out = String::new();
        let mut t = 0;
        for seg in 0..segments {
            out.push_str(&format!(
                "{{\"meta\":\"poi360.trace\",\"schema\":2,\"commit\":\"c\",\"argv\":[],\"seed\":{seg}}}\n"
            ));
            for _ in 0..g.usize_in(0, 40) {
                let (name, kind) = match if g.chance(0.05) { 4 } else { g.index(4) } {
                    0 => ("a.level", "gauge"),
                    1 => ("b.count", "counter"),
                    2 => ("c.event", "event"),
                    3 => ("d.mixed", if g.chance(0.2) { other } else { mixed }),
                    _ => ("e.rare", "counter"),
                };
                let value = match g.index(10) {
                    0 => "null".to_string(),
                    1 => "1e999".to_string(),
                    2 => "-1e999".to_string(),
                    3 | 4 => "0.0".to_string(),
                    5 | 6 => "-0.0".to_string(),
                    _ => format!("{:?}", g.i64_in(-4, 12) as f64 * 0.5),
                };
                t += g.u64_in(0, 400_000);
                let src = SRCS[g.index(SRCS.len())];
                out.push_str(&format!(
                    "{{\"t_us\":{t},\"src\":\"{src}\",\"name\":\"{name}\",\"kind\":\"{kind}\",\"value\":{value}}}\n"
                ));
            }
        }
        out
    }

    /// The fold's report is the three-walk pooling's, byte for byte, and
    /// so is every value it reduced, over generated studies: fault (A-vs-B
    /// section) and mobility configs, multi-segment case streams, now and
    /// then a group left empty or a case outside every group, and a
    /// baseline that is absent, aligned (one run per case) or not.
    #[test]
    fn the_fold_reports_what_the_three_walk_pooling_did() {
        poi360_testkit::prop_check!("fold_vs_three_walk_pooling", 128, |g| {
            let mut cfg = by_name(["cc_matrix", "ho_tails"][g.index(2)]).unwrap();
            cfg.seeds = g.u64_in(1, 2);
            let parse = |jsonl: &str| RunTrace::parse_bytes(jsonl.as_bytes()).unwrap();
            let mut cases: Vec<CaseTrace> = cfg
                .cases()
                .into_iter()
                .map(|c| {
                    let segments = g.usize_in(1, 2);
                    let trace = parse(&gen_stream(g, segments));
                    CaseTrace {
                        scenario: c.scenario,
                        rc: c.rc,
                        seed: c.seed,
                        trace,
                        gaps_ms: vec![],
                    }
                })
                .collect();
            if g.chance(0.3) {
                let (scenario, rc) = cfg.groups().swap_remove(g.index(cfg.groups().len()));
                cases.retain(|c| c.scenario != scenario || c.rc != rc);
            }
            if g.chance(0.3) {
                let trace = parse(&gen_stream(g, 1));
                let extra = CaseTrace {
                    scenario: "extra".into(),
                    rc: None,
                    seed: 9,
                    trace,
                    gaps_ms: vec![],
                };
                cases.push(extra);
            }
            let baseline = match g.index(3) {
                0 => None,
                1 => Some(parse(&(0..cases.len()).map(|_| gen_stream(g, 1)).collect::<String>())),
                _ => Some(parse(&gen_stream(g, cases.len() + 1))),
            };
            let base = baseline.as_ref();
            let (fold, oracle) = (reduce(&cfg, &cases, base), oracle::reduce(&cfg, &cases, base));
            // Every reduced value, down to a zero's sign, which no table
            // cell shows.
            prop_assert_eq!(format!("{fold:?}"), format!("{oracle:?}"));
            let fold = render(&cfg, &cases, base, fold);
            let oracle = render(&cfg, &cases, base, oracle);
            prop_assert_eq!(fold.text, oracle.text);
            prop_assert_eq!(fold.failures, oracle.failures);
            Ok(())
        });
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
