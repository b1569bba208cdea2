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
//! * **Two walks, exact size.** A [`Tally`] walks each trace once: it
//!   counts the trace's samples per probe, sums its counter totals and,
//!   for a report, gathers its per-source rollup. [`Tally::store`]
//!   reserves every probe buffer once, at exactly its length, and walks
//!   each trace once more to store the samples. The [`Fold`] it returns
//!   remembers where each trace's samples sit in every buffer, so any
//!   group of the folded traces reduces off the one pool
//!   (`Fold::stats_of`) instead of being pooled again. [`Pool::add`] is
//!   the one-trace fold; [`Pool::stats`] consumes the pool, reducing each
//!   buffer in place and freeing it before the next.
//! * Names and source tags map through hashed [`Interner`]s and counter
//!   totals through an index, so a trace with tens of thousands of
//!   probes folds in time linear in its size.
//!
//! Everything here is order-deterministic: a bucket holds its samples in
//! fold order (trace after trace; in a trace, its gauge and event samples
//! in stream order, then its counter totals in first-appearance order)
//! and reports sort by name, so identical inputs reduce to identical
//! tables.

use crate::ingest::{Interner, RunTrace};
use poi360_metrics::dist::quantiles_in_place;
use poi360_sim::trace::ProbeKind::{self, Counter};
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;

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

/// `name`'s stats over `samples`, reduced in place; `None` when no
/// sample has a rank.
fn reduce(name: String, kind: ProbeKind, samples: &mut [f64]) -> Option<ProbeStats> {
    let ranked = samples.iter().filter(|v| !v.is_nan()).count() as u64;
    let [median, p95, p99] = quantiles_in_place(samples, [0.50, 0.95, 0.99])?;
    Some(ProbeStats { name, kind, samples: ranked, median, p95, p99 })
}

/// One probe's pooled samples and the kind of its first.
#[derive(Clone, Debug)]
struct Bucket {
    kind: ProbeKind,
    samples: Vec<f64>,
}

/// Sample pool across any number of traces (typically the seeds of one
/// `scenario × controller` study group).
#[derive(Clone, Debug, Default)]
pub struct Pool {
    /// Every probe name folded in; bucket `k` is name `k`'s, empty for a
    /// name that never had a finite sample.
    names: Interner,
    buckets: Vec<Bucket>,
    traces: u64,
}

impl Pool {
    /// An empty pool.
    pub fn new() -> Pool {
        Pool::default()
    }

    /// Fold one trace into the pool: every finite gauge and event sample,
    /// then one total per counter and `(segment, source)`. Each bucket
    /// the trace reaches grows once, to exactly its new length.
    pub fn add(&mut self, trace: &RunTrace) {
        *self = Tally::extend(std::mem::take(self), vec![trace], false).store().pool;
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
        let buckets = self.names.into_names().into_iter().zip(self.buckets);
        let mut out: Vec<ProbeStats> = buckets
            .filter_map(|(name, Bucket { kind, mut samples })| reduce(name, kind, &mut samples))
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// Where one trace's samples sit in one bucket of a [`Fold`].
#[derive(Clone, Debug)]
struct Fill {
    bucket: u32,
    /// The kind of the trace's first sample there: its first finite gauge
    /// or event sample's, else `Counter`.
    kind: ProbeKind,
    samples: Range<usize>,
}

/// One counter total of one trace: the finite increments of one
/// *(segment, source, probe)*, summed in stream order.
#[derive(Clone, Copy, Debug)]
struct Total {
    seg: u16,
    bucket: u32,
    value: f64,
}

/// One source of one trace, as its rollup row needs it.
#[derive(Clone, Debug)]
struct Source {
    tag: u32,
    records: u64,
    first_t_us: u64,
    last_t_us: u64,
    /// Its probes' buckets: a range of [`Ledger::emitted`].
    emitted: Range<usize>,
}

/// What a fold keeps besides the samples, trace by trace: entry `t` of
/// each `*_ends` list is where trace `t`'s entries end.
#[derive(Clone, Debug, Default)]
struct Ledger {
    fills: Vec<Fill>,
    fill_ends: Vec<usize>,
    totals: Vec<Total>,
    total_ends: Vec<usize>,
    sources: Vec<Source>,
    source_ends: Vec<usize>,
    emitted: Vec<u32>,
    /// Source tags across the folded traces.
    tags: Interner,
}

/// Trace `t`'s entries of the list `ends` closes.
fn span(ends: &[usize], t: usize) -> Range<usize> {
    t.checked_sub(1).map_or(0, |prev| ends[prev])..ends[t]
}

/// The count walks of a fold: what each bucket takes from the traces,
/// their counter totals and rollup, and no sample stored yet.
/// [`Tally::store`] finishes the fold.
pub struct Tally<'a> {
    fold: Fold,
    traces: Vec<&'a RunTrace>,
    /// Each trace's probe ids mapped onto buckets, trace after trace.
    ids: Vec<u32>,
    /// Per bucket: the samples this fold adds to it.
    grow: Vec<usize>,
}

impl<'a> Tally<'a> {
    /// Count `traces` into an empty pool, one walk each; with `rollup`,
    /// the walk also gathers what `Fold::rollup` reads.
    pub fn new(traces: Vec<&'a RunTrace>, rollup: bool) -> Tally<'a> {
        Tally::extend(Pool::new(), traces, rollup)
    }

    fn extend(pool: Pool, traces: Vec<&'a RunTrace>, rollup: bool) -> Tally<'a> {
        let fold = Fold { pool, ledger: Ledger::default() };
        let mut tally = Tally { fold, traces: Vec::new(), ids: Vec::new(), grow: Vec::new() };
        for trace in &traces {
            tally.count(trace, Walk::of(trace, rollup));
        }
        tally.traces = traces;
        tally
    }

    /// Take one trace's walk into the tally: open a bucket per new probe
    /// name, and note where each probe's samples will go, the counter
    /// totals and the sources.
    fn count(&mut self, trace: &RunTrace, walk: Walk) {
        let Fold { pool, ledger } = &mut self.fold;
        pool.traces += 1;
        let ids = pool.names.intern_all(&trace.probes);
        pool.buckets.reserve_exact(pool.names.len() - pool.buckets.len());
        pool.buckets
            .resize_with(pool.names.len(), || Bucket { kind: Counter, samples: Vec::new() });
        self.grow.resize(pool.names.len(), 0);

        for (local, count) in walk.counts.iter().enumerate() {
            let taken = count.samples + count.totals;
            if taken == 0 {
                continue;
            }
            let (bucket, kind) = (ids[local], if count.samples > 0 { count.kind } else { Counter });
            let start = pool.buckets[bucket as usize].samples.len() + self.grow[bucket as usize];
            if start == 0 {
                pool.buckets[bucket as usize].kind = kind;
            }
            self.grow[bucket as usize] += taken;
            ledger.fills.push(Fill { bucket, kind, samples: start..start + taken });
        }
        let totals = walk.totals.iter().map(|&t| Total { bucket: ids[t.bucket as usize], ..t });
        ledger.totals.extend(totals);
        for (src, acc) in walk.srcs.iter().enumerate().filter(|(_, acc)| acc.records > 0) {
            let start = ledger.emitted.len();
            for (w, &word) in acc.emitted.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    ledger.emitted.push(ids[64 * w + bits.trailing_zeros() as usize]);
                    bits &= bits - 1;
                }
            }
            ledger.sources.push(Source {
                tag: ledger.tags.intern(trace.srcs.name(src as u32)),
                records: acc.records,
                first_t_us: acc.first_t_us,
                last_t_us: acc.last_t_us,
                emitted: start..ledger.emitted.len(),
            });
        }
        ledger.fill_ends.push(ledger.fills.len());
        ledger.total_ends.push(ledger.totals.len());
        ledger.source_ends.push(ledger.sources.len());
        self.ids.extend(ids);
    }

    /// Reserve every bucket once, to exactly its new length, and store
    /// the samples: each trace's gauge and event samples in stream
    /// order, then its counter totals. Allocates one buffer per bucket
    /// that takes samples and nothing else.
    pub fn store(self) -> Fold {
        let Tally { mut fold, traces, ids, grow } = self;
        let Fold { pool, ledger } = &mut fold;
        for (bucket, &taken) in pool.buckets.iter_mut().zip(&grow).filter(|(_, n)| **n > 0) {
            bucket.samples.reserve_exact(taken);
        }
        let mut first_id = 0;
        for (t, trace) in traces.iter().enumerate() {
            let ids = &ids[first_id..first_id + trace.probes.len()];
            first_id += trace.probes.len();
            let samples = trace.records.iter().filter(|rec| rec.kind != Counter);
            for rec in samples.filter(|rec| rec.value.is_finite()) {
                pool.buckets[ids[usize::from(rec.name)] as usize].samples.push(rec.value);
            }
            for total in &ledger.totals[span(&ledger.total_ends, t)] {
                pool.buckets[total.bucket as usize].samples.push(total.value);
            }
        }
        fold
    }
}

/// One trace-local probe in a count walk.
#[derive(Clone, Copy, Debug)]
struct Count {
    /// Finite gauge and event samples, and the kind of the first.
    samples: usize,
    kind: ProbeKind,
    /// Counter totals: distinct *(segment, source)* keys.
    totals: usize,
}

/// One trace-local source in a count walk.
#[derive(Clone, Debug, Default)]
struct SrcAcc {
    records: u64,
    first_t_us: u64,
    last_t_us: u64,
    /// Bitset over trace-local probe ids.
    emitted: Vec<u64>,
}

/// No total yet.
const NO_TOTAL: usize = usize::MAX;

/// No source yet: source ids stop short of `u16::MAX`.
const NO_SRC: u16 = u16::MAX;

/// What one trace's count walk found, under the trace's own probe and
/// source ids.
struct Walk {
    counts: Vec<Count>,
    /// Its counter totals in first-appearance order, each `bucket` still
    /// the trace-local probe id.
    totals: Vec<Total>,
    /// Per source, with a rollup; else empty.
    srcs: Vec<SrcAcc>,
}

impl Walk {
    /// One pass over `trace`'s records; with `rollup`, each source's
    /// records, span and probes too.
    fn of(trace: &RunTrace, rollup: bool) -> Walk {
        let acc = SrcAcc { first_t_us: u64::MAX, ..SrcAcc::default() };
        let mut walk = Walk {
            counts: vec![Count { samples: 0, kind: Counter, totals: 0 }; trace.probes.len()],
            totals: Vec::new(),
            srcs: if rollup { vec![acc; trace.srcs.len()] } else { Vec::new() },
        };
        match rollup {
            true => walk.walk::<true>(trace),
            false => walk.walk::<false>(trace),
        }
        walk
    }

    fn walk<const ROLLUP: bool>(&mut self, trace: &RunTrace) {
        // Per trace-local probe id: the *(segment, source)* it was last
        // summed under and that total's index, so the common case — a
        // probe that keeps firing from one source — never consults
        // `index`, which holds every counter key of the trace.
        let mut last = vec![((0, 0), NO_TOTAL); trace.probes.len()];
        let mut index: HashMap<(u16, u16, u16), usize> = HashMap::new();
        // The rollup tallies a run of records from one source in locals and
        // adds it to that source's when the source changes; a probe sets
        // its source's bit only when its source differs from last time.
        let (mut src, mut records, mut first_t_us, mut last_t_us) = (0, 0, u64::MAX, 0);
        let mut emitted_by = vec![NO_SRC; if ROLLUP { trace.probes.len() } else { 0 }];
        for rec in &trace.records {
            let local = usize::from(rec.name);
            if ROLLUP {
                if rec.src != src {
                    self.add_run(src, records, first_t_us, last_t_us);
                    (src, records, first_t_us, last_t_us) = (rec.src, 0, u64::MAX, 0);
                }
                records += 1;
                first_t_us = first_t_us.min(rec.t_us);
                last_t_us = last_t_us.max(rec.t_us);
                if emitted_by[local] != rec.src {
                    emitted_by[local] = rec.src;
                    let emitted = &mut self.srcs[usize::from(rec.src)].emitted;
                    if emitted.len() <= local / 64 {
                        emitted.resize(local / 64 + 1, 0);
                    }
                    emitted[local / 64] |= 1 << (local % 64);
                }
            }
            if !rec.value.is_finite() {
                continue;
            }
            if rec.kind != Counter {
                let count = &mut self.counts[local];
                if count.samples == 0 {
                    count.kind = rec.kind;
                }
                count.samples += 1;
                continue;
            }
            let key = (rec.seg, rec.src);
            let (last_key, last_at) = last[local];
            let at = if last_at != NO_TOTAL && last_key == key {
                last_at
            } else {
                match index.entry((rec.seg, rec.src, rec.name)) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let totals = &mut self.totals;
                        e.insert(totals.len());
                        last[local] = (key, totals.len());
                        self.counts[local].totals += 1;
                        totals.push(Total { seg: rec.seg, bucket: local as u32, value: rec.value });
                        continue;
                    }
                }
            };
            last[local] = (key, at);
            self.totals[at].value += rec.value;
        }
        if ROLLUP {
            self.add_run(src, records, first_t_us, last_t_us);
        }
    }

    /// Add a run of `records` records from `src`, emitted from
    /// `first_t_us` to `last_t_us`, to that source's tallies.
    fn add_run(&mut self, src: u16, records: u64, first_t_us: u64, last_t_us: u64) {
        if records > 0 {
            let acc = &mut self.srcs[usize::from(src)];
            acc.records += records;
            acc.first_t_us = acc.first_t_us.min(first_t_us);
            acc.last_t_us = acc.last_t_us.max(last_t_us);
        }
    }
}

/// A pool of many traces with what its count walks learned: which
/// samples each trace put in each bucket, every counter total and, if
/// gathered, each source's rollup. Traces are numbered in the order the
/// [`Tally`] took them.
#[derive(Clone, Debug)]
pub struct Fold {
    pool: Pool,
    ledger: Ledger,
}

impl Fold {
    /// The stats of the pool `members` would make on their own, in that
    /// order, sorted by name: each probe's samples are copied out of the
    /// pool into `scratch`, member by member, and reduced there, so the
    /// pool keeps its order. A probe's kind is its first member's.
    pub(crate) fn stats_of(&self, members: &[usize], scratch: &mut Vec<f64>) -> Vec<ProbeStats> {
        let ledger = &self.ledger;
        let mut fills: Vec<(u32, usize, &Fill)> = members
            .iter()
            .enumerate()
            .flat_map(|(k, &t)| {
                ledger.fills[span(&ledger.fill_ends, t)].iter().map(move |f| (f.bucket, k, f))
            })
            .collect();
        fills.sort_unstable_by_key(|&(bucket, k, _)| (bucket, k));
        let mut out: Vec<ProbeStats> = fills
            .chunk_by(|a, b| a.0 == b.0)
            .filter_map(|run| {
                let samples = &self.pool.buckets[run[0].0 as usize].samples;
                scratch.clear();
                scratch.reserve_exact(run.iter().map(|(_, _, f)| f.samples.len()).sum());
                for (_, _, fill) in run {
                    scratch.extend_from_slice(&samples[fill.samples.clone()]);
                }
                reduce(self.pool.names.name(run[0].0).to_string(), run[0].2.kind, scratch)
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Counter stats of `pools` pools: trace `t`'s totals of run segment
    /// `seg` go to pool `pool_of(t, seg)` (`None` leaves them out), in
    /// fold order. Each pool's stats are sorted by name. One pass splits a
    /// concatenated suite artifact into per-scenario counter pools, which
    /// is what lets a drift gate compare a scenario's run totals with that
    /// scenario's, not with the mixture of all of them.
    pub(crate) fn counter_stats(
        &self,
        pools: usize,
        pool_of: impl Fn(usize, u16) -> Option<usize>,
    ) -> Vec<Vec<ProbeStats>> {
        let ledger = &self.ledger;
        let mut picks: Vec<(usize, u32, usize)> = Vec::new();
        for t in 0..ledger.total_ends.len() {
            for at in span(&ledger.total_ends, t) {
                let total = &ledger.totals[at];
                if let Some(k) = pool_of(t, total.seg) {
                    picks.push((k, total.bucket, at));
                }
            }
        }
        picks.sort_unstable();
        let mut out = vec![Vec::new(); pools];
        let mut scratch = Vec::new();
        for run in picks.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            scratch.clear();
            scratch.extend(run.iter().map(|&(_, _, at)| ledger.totals[at].value));
            let name = self.pool.names.name(run[0].1).to_string();
            out[run[0].0].extend(reduce(name, Counter, &mut scratch));
        }
        for stats in &mut out {
            stats.sort_by(|a, b| a.name.cmp(&b.name));
        }
        out
    }

    /// Roll `members` up by source tag, pooling same-named sources
    /// (across seeds the tags coincide by construction). Output is sorted
    /// by tag. Needs a [`Tally`] that gathered the rollup.
    pub(crate) fn rollup(&self, members: &[usize]) -> Vec<SrcStats> {
        let ledger = &self.ledger;
        let mut sources: Vec<&Source> =
            members.iter().flat_map(|&t| &ledger.sources[span(&ledger.source_ends, t)]).collect();
        sources.sort_by_key(|s| s.tag);
        // The tag whose run last counted each bucket.
        let mut counted = vec![u32::MAX; self.pool.buckets.len()];
        let mut out: Vec<SrcStats> = sources
            .chunk_by(|a, b| a.tag == b.tag)
            .map(|run| {
                let tag = run[0].tag;
                let mut probes = 0;
                for &bucket in run.iter().flat_map(|s| &ledger.emitted[s.emitted.clone()]) {
                    if counted[bucket as usize] != tag {
                        counted[bucket as usize] = tag;
                        probes += 1;
                    }
                }
                SrcStats {
                    src: ledger.tags.name(tag).to_string(),
                    records: run.iter().map(|s| s.records).sum(),
                    probes,
                    first_t_us: run.iter().map(|s| s.first_t_us).min().unwrap_or(u64::MAX),
                    last_t_us: run.iter().map(|s| s.last_t_us).max().unwrap_or(0),
                }
            })
            .collect();
        out.sort_by(|a, b| a.src.cmp(&b.src));
        out
    }

    /// The pool alone: what the fold learned besides the samples is freed.
    pub fn into_pool(self) -> Pool {
        self.pool
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
        let fold = Tally::new(vec![&t], false).store();
        let [stats] = <[Vec<ProbeStats>; 1]>::try_from(fold.counter_stats(1, |_, _| Some(0)))
            .expect("one pool");
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
        let roll = Tally::new(vec![&a, &b], true).store().rollup(&[0, 1]);
        assert_eq!(roll.len(), 2);
        assert_eq!(roll[0].src, "cell");
        assert_eq!(roll[0].records, 3, "same tag pools across traces");
        assert_eq!(roll[0].probes, 2);
        assert_eq!((roll[0].first_t_us, roll[0].last_t_us), (1, 9));
        assert_eq!(roll[1].src, "fg.01");
        assert_eq!(roll[1].records, 1);
    }
}
