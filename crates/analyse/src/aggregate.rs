//! Pooling and reduction: many traces → per-probe distributions and
//! per-source rollups.
//!
//! Aggregation semantics (pinned in DESIGN.md §12):
//!
//! * **Gauges and events** pool every finite sample value — a probe
//!   that fires 6 000 times across 3 seeds contributes 18 000 samples
//!   to its distribution.
//! * **Counters** are increments, not levels; pooling raw increments
//!   would only measure the emission granularity. Each *(segment,
//!   source)* within each trace therefore contributes its total as one
//!   sample — a
//!   3-seed single-session group reduces to a 3-sample distribution of
//!   run totals, and a concatenated suite artifact (one trace, one
//!   source tag per case segment) pools to exactly the same samples as
//!   the per-case traces it was concatenated from. That equivalence is
//!   what makes `--baseline` comparisons apples-to-apples.
//! * NaN samples (JSON `null`s) are dropped before reduction; they have
//!   no rank.
//!
//! Everything here is order-deterministic: probes keep first-appearance
//! order at pool level and reports sort by name, so identical inputs
//! reduce to identical tables.

use crate::ingest::{Interner, Rec, RunTrace};
use poi360_metrics::dist::quantiles;
use poi360_sim::trace::ProbeKind;

/// Reduced distribution of one probe across a pool of traces.
#[derive(Clone, Debug)]
pub struct ProbeStats {
    /// Probe name (`layer.signal`).
    pub name: String,
    /// Kind as first seen; a name never legitimately changes kind.
    pub kind: ProbeKind,
    /// Samples pooled (per-trace totals for counters).
    pub samples: u64,
    /// 50th percentile.
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Sample pool across any number of traces (typically the seeds of one
/// `scenario × controller` study group).
#[derive(Clone, Debug, Default)]
pub struct Pool {
    probes: Vec<(String, ProbeKind, Vec<f64>)>,
    traces: u64,
}

impl Pool {
    /// An empty pool.
    pub fn new() -> Pool {
        Pool::default()
    }

    /// Index of `name`'s bucket, opened with `kind` on first sight.
    fn slot(&mut self, name: &str, kind: ProbeKind) -> usize {
        self.probes.iter().position(|(n, _, _)| n == name).unwrap_or_else(|| {
            self.probes.push((name.to_string(), kind, Vec::new()));
            self.probes.len() - 1
        })
    }

    /// Fold one trace into the pool.
    pub fn add(&mut self, trace: &RunTrace) {
        self.traces += 1;
        // Trace-local probe id -> pool bucket, resolved by name the first
        // time this trace needs it rather than once per record.
        let mut slots: Vec<Option<usize>> = vec![None; trace.probes.len()];
        let mut counters = CounterTotals::default();
        for rec in &trace.records {
            if !rec.value.is_finite() {
                continue;
            }
            match rec.kind {
                ProbeKind::Counter => counters.add(rec),
                ProbeKind::Gauge | ProbeKind::Event => {
                    let slot = *slots[rec.name as usize]
                        .get_or_insert_with(|| self.slot(trace.probes.name(rec.name), rec.kind));
                    self.probes[slot].2.push(rec.value);
                }
            }
        }
        for ((_, _, id), total) in counters.0 {
            self.push_counter_total(trace.probes.name(id), total);
        }
    }

    fn push_counter_total(&mut self, name: &str, total: f64) {
        let slot = self.slot(name, ProbeKind::Counter);
        self.probes[slot].2.push(total);
    }

    /// Traces folded in so far.
    pub fn traces(&self) -> u64 {
        self.traces
    }

    /// Reduce to per-probe stats, sorted by probe name. All three
    /// quantiles of a probe come from one selection pass over one copy of
    /// its samples; a report that needs the stats twice should keep the
    /// result.
    pub fn stats(&self) -> Vec<ProbeStats> {
        let mut out: Vec<ProbeStats> = self
            .probes
            .iter()
            .filter_map(|(name, kind, samples)| {
                let [median, p95, p99] = quantiles(samples, [0.50, 0.95, 0.99])?;
                Some(ProbeStats {
                    name: name.clone(),
                    kind: *kind,
                    samples: samples.iter().filter(|v| !v.is_nan()).count() as u64,
                    median,
                    p95,
                    p99,
                })
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// Counter increments summed per *(segment, source, probe)* of one trace,
/// in first-appearance order: each total lands in a pool as one sample.
#[derive(Default)]
struct CounterTotals(Vec<((u32, u32, u32), f64)>);

impl CounterTotals {
    fn add(&mut self, rec: &Rec) {
        let key = (rec.seg, rec.src, rec.name);
        match self.0.iter_mut().find(|(k, _)| *k == key) {
            Some((_, total)) => *total += rec.value,
            None => self.0.push((key, rec.value)),
        }
    }
}

/// Fold only `trace`'s counters into `pools`, the totals of run segment
/// `seg` into `pools[pool_of(seg)]` (`None` leaves a segment out): one
/// pass splits a concatenated suite artifact into per-scenario counter
/// pools, which is what lets a drift gate compare a scenario's run totals
/// with that scenario's, not with the mixture of all of them.
pub fn pool_counters_by_segment(
    pools: &mut [Pool],
    trace: &RunTrace,
    pool_of: impl Fn(u32) -> Option<usize>,
) {
    let mut counters = CounterTotals::default();
    for rec in &trace.records {
        if rec.kind == ProbeKind::Counter && rec.value.is_finite() {
            counters.add(rec);
        }
    }
    for ((seg, _, id), total) in counters.0 {
        if let Some(pool) = pool_of(seg).and_then(|k| pools.get_mut(k)) {
            pool.push_counter_total(trace.probes.name(id), total);
        }
    }
}

/// Per-source rollup: how much each cell / flow / session emitted.
#[derive(Clone, Debug)]
pub struct SrcStats {
    /// Source tag as stamped by the recorder (`session`, `fg.00`, ...).
    pub src: String,
    /// Probe records from this source.
    pub records: u64,
    /// Distinct probe names this source emitted.
    pub probes: u64,
    /// First emission time, µs.
    pub first_t_us: u64,
    /// Last emission time, µs.
    pub last_t_us: u64,
}

/// Roll up any number of traces by source tag, pooling same-named
/// sources (across seeds the tags coincide by construction). Output is
/// sorted by tag so reports are stable however the pool was filled.
pub fn src_rollup<'a>(traces: impl IntoIterator<Item = &'a RunTrace>) -> Vec<SrcStats> {
    /// One pooled source: records, which pooled probes it emitted, span.
    struct Acc {
        records: u64,
        emitted: Vec<bool>,
        first_t_us: u64,
        last_t_us: u64,
    }
    // Tags and probe names pooled across traces; each trace's own ids
    // are mapped onto them once, so the record loop compares no strings.
    let (mut tags, mut names) = (Interner::new(), Interner::new());
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

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(lines: &[&str]) -> RunTrace {
        RunTrace::parse_bytes(lines.join("\n").as_bytes()).expect("test trace parses")
    }

    fn rec(t: u64, src: &str, name: &str, kind: &str, value: f64) -> String {
        format!(r#"{{"t_us":{t},"src":"{src}","name":"{name}","kind":"{kind}","value":{value}}}"#)
    }

    #[test]
    fn gauges_pool_samples_and_counters_pool_per_trace_totals() {
        let a = trace(&[
            &rec(1, "s", "pacer.rate_bps", "gauge", 1.0),
            &rec(2, "s", "pacer.rate_bps", "gauge", 3.0),
            &rec(2, "s", "video.frame_encoded", "counter", 1.0),
            &rec(3, "s", "video.frame_encoded", "counter", 1.0),
        ]);
        // The second trace meets the probes in the other order, so its own
        // ids for them are swapped.
        let b = trace(&[
            &rec(1, "s", "video.frame_encoded", "counter", 1.0),
            &rec(2, "s", "pacer.rate_bps", "gauge", 5.0),
        ]);
        let mut pool = Pool::new();
        pool.add(&a);
        pool.add(&b);
        assert_eq!(pool.traces(), 2);
        let stats = pool.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "pacer.rate_bps", "stats sorted by name");
        assert_eq!(stats[0].samples, 3, "every gauge sample pooled");
        assert_eq!(stats[0].median, 3.0);
        let frames = &stats[1];
        assert_eq!(frames.name, "video.frame_encoded");
        assert_eq!(frames.samples, 2, "one total per trace, not one per increment");
        assert_eq!(frames.median, 1.5, "totals are 2 and 1");
        assert_eq!(frames.kind, ProbeKind::Counter);
    }

    #[test]
    fn percentiles_come_from_the_pooled_distribution() {
        let lines: Vec<String> =
            (0..100).map(|i| rec(i + 1, "s", "x.y", "event", i as f64)).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let mut pool = Pool::new();
        pool.add(&trace(&refs));
        let s = &pool.stats()[0];
        assert_eq!(s.samples, 100);
        assert!((s.median - 49.5).abs() < 1e-9);
        assert!((s.p95 - 94.05).abs() < 1e-9);
        assert!((s.p99 - 98.01).abs() < 1e-9);
    }

    #[test]
    fn nan_samples_are_dropped_before_reduction() {
        let t = trace(&[
            &rec(1, "s", "x.y", "gauge", 2.0),
            r#"{"t_us":2,"src":"s","name":"x.y","kind":"gauge","value":null}"#,
        ]);
        let mut pool = Pool::new();
        pool.add(&t);
        let s = &pool.stats()[0];
        assert_eq!(s.samples, 1);
        assert_eq!(s.median, 2.0);
    }

    #[test]
    fn concatenated_suite_pools_like_its_per_case_traces() {
        let a_lines = [
            rec(1, "rlf.FBCC.s1", "video.frame_encoded", "counter", 1.0),
            rec(2, "rlf.FBCC.s1", "video.frame_encoded", "counter", 1.0),
            rec(2, "rlf.FBCC.s1", "pacer.rate_bps", "gauge", 4.0),
        ];
        let b_lines = [
            rec(1, "rlf.FBCC.s2", "video.frame_encoded", "counter", 1.0),
            rec(2, "rlf.FBCC.s2", "pacer.rate_bps", "gauge", 8.0),
        ];
        let mut per_case = Pool::new();
        per_case.add(&trace(&a_lines.iter().map(String::as_str).collect::<Vec<_>>()));
        per_case.add(&trace(&b_lines.iter().map(String::as_str).collect::<Vec<_>>()));
        let all: Vec<&str> = a_lines.iter().chain(&b_lines).map(String::as_str).collect();
        let mut concatenated = Pool::new();
        concatenated.add(&trace(&all));
        let (p, c) = (per_case.stats(), concatenated.stats());
        assert_eq!(p.len(), c.len());
        for (x, y) in p.iter().zip(&c) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.samples, y.samples, "counter totals split per source tag: {}", x.name);
            assert_eq!(x.median, y.median);
            assert_eq!(x.p99, y.p99);
        }
    }

    #[test]
    fn src_rollup_pools_by_tag_and_sorts() {
        let a = trace(&[
            &rec(5, "fg.01", "x.y", "event", 1.0),
            &rec(1, "cell", "cell.prb_grant", "event", 1.0),
            &rec(2, "cell", "cell.load", "gauge", 0.5),
        ]);
        let b = trace(&[&rec(9, "cell", "cell.prb_grant", "event", 2.0)]);
        let roll = src_rollup([&a, &b]);
        assert_eq!(roll.len(), 2);
        assert_eq!(roll[0].src, "cell");
        assert_eq!(roll[0].records, 3, "same tag pools across traces");
        assert_eq!(roll[0].probes, 2);
        assert_eq!((roll[0].first_t_us, roll[0].last_t_us), (1, 9));
        assert_eq!(roll[1].src, "fg.01");
        assert_eq!(roll[1].records, 1);
    }
}
