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
//! * Non-finite samples are dropped before pooling: NaN (JSON `null`)
//!   has no rank, and an infinity (a literal such as `1e999`, which
//!   `str::parse` reads as `inf`) would only pin a tail or poison a
//!   counter total. That holds for gauge and event samples and for each
//!   counter increment.
//! * **Exact size.** [`Pool::add`] counts a trace's samples per probe
//!   before it stores them, so every probe buffer is reserved once per
//!   trace at exactly its new length, and [`Pool::stats`] consumes the
//!   pool, reducing each buffer in place and freeing it before the next.
//!
//! Everything here is order-deterministic: probes keep first-appearance
//! order at pool level and reports sort by name, so identical inputs
//! reduce to identical tables.

use crate::ingest::{Interner, Rec, RunTrace};
use poi360_metrics::dist::quantiles_in_place;
use poi360_sim::trace::ProbeKind::{self, Counter};

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

    /// Index of `name`'s bucket, if it has one.
    fn find(&self, name: &str) -> Option<usize> {
        self.probes.iter().position(|(n, _, _)| n == name)
    }

    /// Index of `name`'s bucket, opened with `kind` on first sight.
    fn slot(&mut self, name: &str, kind: ProbeKind) -> usize {
        self.find(name).unwrap_or_else(|| {
            self.probes.push((name.to_string(), kind, Vec::new()));
            self.probes.len() - 1
        })
    }

    /// Fold one trace into the pool: every finite gauge and event sample,
    /// then one total per counter and `(segment, source)`.
    pub fn add(&mut self, trace: &RunTrace) {
        self.traces += 1;
        let samples = trace.records.iter().filter(|rec| rec.kind != Counter);
        let finite = samples.filter(|rec| rec.value.is_finite());
        self.append(&trace.probes, finite.map(|rec| (rec.name, rec.kind, rec.value)));
        let totals = CounterTotals::of(trace).0.into_iter();
        self.append(&trace.probes, totals.map(|((_, _, id), total)| (id, Counter, total)));
    }

    /// Append `samples` — trace-local probe id, kind, value — to their
    /// buckets in stream order. A first pass counts each probe's samples,
    /// so each bucket (and the bucket list) grows once, to exactly its new
    /// length; a bucket opens with the kind of its first sample.
    fn append<I>(&mut self, probes: &Interner, samples: I)
    where
        I: Iterator<Item = (u16, ProbeKind, f64)> + Clone,
    {
        // Per trace-local id: its bucket, how many samples it takes, and
        // the kind it opens with; the ids in first-appearance order.
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

    /// Traces folded in so far.
    pub fn traces(&self) -> u64 {
        self.traces
    }

    /// Reduce to per-probe stats, sorted by probe name. The pool is
    /// consumed: each probe's three quantiles come from one selection pass
    /// inside its own buffer, which is freed before the next probe's, so
    /// reducing holds no copy. A report that needs the stats twice keeps
    /// the result.
    pub fn stats(self) -> Vec<ProbeStats> {
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

/// Counter increments summed per *(segment, source, probe)* of one trace,
/// in first-appearance order: each total lands in a pool as one sample.
struct CounterTotals(Vec<((u16, u16, u16), f64)>);

impl CounterTotals {
    /// The totals of `trace`'s finite counter increments.
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

/// Fold only `trace`'s counters into `pools`, the totals of run segment
/// `seg` into `pools[pool_of(seg)]` (`None` leaves a segment out): one
/// pass splits a concatenated suite artifact into per-scenario counter
/// pools, which is what lets a drift gate compare a scenario's run totals
/// with that scenario's, not with the mixture of all of them.
pub fn pool_counters_by_segment(
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

    /// `str::parse` reads `1e999` as `inf`; an infinite gauge sample and
    /// an infinite counter increment are dropped like NaN, on both pooling
    /// paths, so neither pins a tail nor makes a run total infinite.
    #[test]
    fn infinite_samples_and_increments_are_dropped() {
        let t = trace(&[
            &rec(1, "s", "x.level", "gauge", 2.0),
            r#"{"t_us":2,"src":"s","name":"x.level","kind":"gauge","value":1e999}"#,
            r#"{"t_us":3,"src":"s","name":"x.level","kind":"gauge","value":-1e999}"#,
            &rec(4, "s", "x.count", "counter", 1.0),
            r#"{"t_us":5,"src":"s","name":"x.count","kind":"counter","value":1e999}"#,
            &rec(6, "s", "x.count", "counter", 1.0),
        ]);
        assert_eq!(t.records[1].value, f64::INFINITY, "the literal reads as inf");
        assert_eq!(t.records[4].value, f64::INFINITY);
        let mut pool = Pool::new();
        pool.add(&t);
        let stats = pool.stats();
        let summary: Vec<(&str, u64, f64)> =
            stats.iter().map(|s| (s.name.as_str(), s.samples, s.median)).collect();
        assert_eq!(summary, [("x.count", 1, 2.0), ("x.level", 1, 2.0)]);
        let mut by_segment = vec![Pool::new()];
        pool_counters_by_segment(&mut by_segment, &t, |_| Some(0));
        let [pool] = <[Pool; 1]>::try_from(by_segment).unwrap();
        let stats = pool.stats();
        assert_eq!((stats.len(), stats[0].samples, stats[0].median), (1, 1, 2.0));
    }

    /// `dist::quantiles` as it was while `Pool::stats` reduced a copy of
    /// each probe: selection over a copy of the ranked samples, a tied
    /// zero's sign read back off the untouched input afterwards. The
    /// oracle of the in-place reduction.
    fn copied_quantiles(values: &[f64], qs: [f64; 3]) -> Option<[f64; 3]> {
        let mut ranked: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        let last = ranked.len().checked_sub(1)?;
        let picks = qs.map(|q| {
            let pos = q * last as f64;
            let lo = pos.floor() as usize;
            (lo, pos.ceil() as usize, pos - lo as f64)
        });
        let mut settled = 0;
        while let Some(k) =
            picks.iter().flat_map(|&(lo, hi, _)| [lo, hi]).filter(|&k| k >= settled).min()
        {
            ranked[settled..].select_nth_unstable_by(k - settled, f64::total_cmp);
            settled = k + 1;
        }
        let at = |k: usize| {
            if ranked[k] != 0.0 {
                return ranked[k];
            }
            let negatives = values.iter().filter(|&&v| v < 0.0).count();
            values.iter().copied().filter(|&v| v == 0.0).nth(k - negatives).unwrap_or(ranked[k])
        };
        Some(picks.map(|(lo, hi, frac)| at(lo) * (1.0 - frac) + at(hi) * frac))
    }

    #[test]
    fn by_value_stats_match_the_copying_quantiles_bit_for_bit() {
        let mut g = poi360_testkit::prop::Gen::from_seed(0x5e1ec7);
        let random: Vec<f64> = (0..100_000).map(|_| g.f64_in(-1e3, 1e3)).collect();
        let zeros = [0.0, -0.0];
        let sprinkled: Vec<f64> = (0..100_000)
            .map(|_| if g.chance(0.4) { zeros[g.index(2)] } else { g.f64_in(-1e3, 1e3) })
            .collect();
        let sets: [(&str, Vec<f64>); 8] = [
            ("signed zeros", vec![-0.0, 0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0]),
            ("signed zeros after negatives", vec![0.0, -1.0, -0.0, 0.0, -2.0, -0.0, 0.0, 3.0]),
            ("NaN among the samples", vec![f64::NAN, 3.0, -0.0, f64::NAN, 0.0, 1.0, f64::NAN]),
            ("one sample", vec![-0.0]),
            ("one sample and NaN", vec![f64::NAN, 7.25]),
            ("all equal", vec![2.5; 1_000]),
            ("10^5 random", random),
            ("10^5 random, 40 % signed zeros", sprinkled),
        ];
        for (what, values) in sets {
            let lines: Vec<String> = values
                .iter()
                .enumerate()
                .map(|(t, v)| {
                    let value = if v.is_nan() { "null".to_string() } else { format!("{v:?}") };
                    format!(
                        r#"{{"t_us":{t},"src":"s","name":"x.y","kind":"gauge","value":{value}}}"#
                    )
                })
                .collect();
            let mut pool = Pool::new();
            pool.add(&trace(&lines.iter().map(String::as_str).collect::<Vec<_>>()));
            let stats = pool.stats();
            let want = copied_quantiles(&values, [0.50, 0.95, 0.99]).unwrap();
            let got = [stats[0].median, stats[0].p95, stats[0].p99];
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{what}: {got:?}");
            let ranked = values.iter().filter(|v| !v.is_nan()).count() as u64;
            assert_eq!(stats[0].samples, ranked, "{what}");
        }
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
