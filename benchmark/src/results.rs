//! `results.json`: what a spans-off run stores, and `--compare`, which
//! applies the end-to-end bounds to two such files.

use crate::adapter::{parse_json, JsonValue};
use crate::harness::{Better, EndToEnd, WorkloadResult, END_TO_END, RAW};
use crate::layers::Layers;
use crate::stats::Quartiles;
use std::fmt::Write as _;

/// Who produced a results file, and how.
#[derive(Clone, Debug)]
pub struct Stamp {
    pub commit: String,
    pub seed: u64,
    pub width: usize,
    pub nproc: usize,
    pub rustc: String,
}

impl Stamp {
    pub fn write_fields(&self, out: &mut String) {
        write!(
            out,
            "\"commit\":{},\"seed\":{},\"width\":{},\"nproc\":{},\"rustc\":{}",
            json_string(&self.commit),
            self.seed,
            self.width,
            self.nproc,
            json_string(&self.rustc),
        )
        .expect("writing to a String cannot fail");
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON: every digit, `null` when not finite.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Render the results of a spans-off run. The PR that adds or corrects the
/// benchmark claims no gain, hence the constant `"claim": null`.
pub fn render(stamp: &Stamp, results: &[WorkloadResult]) -> String {
    let mut out = String::from("{\n\"stamp\":{");
    stamp.write_fields(&mut out);
    out.push_str("},\n\"claim\":null,\n\"workloads\":{");
    for (k, r) in results.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        write!(
            out,
            "\n{}:{{\"sim_digest\":\"{:016x}\",\"ops_attempted\":{},\"ops_failed\":{},\"reps\":{},\n \"metrics\":{{",
            json_string(r.name),
            r.digest(),
            r.ops_attempted,
            r.ops_failed,
            r.reps.len(),
        )
        .expect("String write");
        for (m, metric) in END_TO_END.iter().enumerate() {
            let q = r.quartiles(metric.name);
            let samples: Vec<String> =
                r.samples(metric.name).iter().map(|&v| json_number(v)).collect();
            write!(
                out,
                "{}\n  {}:{{\"unit\":{},\"value\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"samples\":[{}]}}",
                if m > 0 { "," } else { "" },
                json_string(metric.name),
                json_string(metric.unit),
                json_number(r.value(metric)),
                json_number(q.median),
                json_number(q.q1),
                json_number(q.q3),
                q.n,
                samples.join(","),
            )
            .expect("String write");
        }
        out.push_str("},\n \"raw\":{");
        for (k, (raw, unit)) in RAW.iter().enumerate() {
            let q = r.quartiles(raw);
            write!(
                out,
                "{}{}:{{\"unit\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
                if k > 0 { "," } else { "" },
                json_string(raw),
                json_string(unit),
                json_number(q.median),
                json_number(q.q1),
                json_number(q.q3),
                q.n,
            )
            .expect("String write");
        }
        out.push_str("},\n \"counts\":{");
        for (c, (name, value)) in r.counts().iter().enumerate() {
            let sep = if c > 0 { "," } else { "" };
            write!(out, "{sep}{}:{}", json_string(name), json_number(*value))
                .expect("String write");
        }
        out.push_str("}}");
    }
    out.push_str("\n}\n}\n");
    out
}

/// Render the per-layer table of a span pass: each value with its unit and
/// the end-to-end metric and workloads it should move.
pub fn render_layers(stamp: &Stamp, layers: &Layers) -> String {
    let mut out = String::from("{\n\"stamp\":{");
    stamp.write_fields(&mut out);
    out.push_str("},\n\"claim\":null,\n\"layers\":{");
    for (k, (m, value)) in layers.rows().enumerate() {
        let on: Vec<String> = m.on.iter().map(|w| json_string(w)).collect();
        write!(
            out,
            "{}\n{}:{{\"value\":{},\"unit\":{},\"better\":{},\"moves\":{},\"on\":[{}]}}",
            if k > 0 { "," } else { "" },
            json_string(&m.name),
            json_number(value.unwrap_or(f64::NAN)),
            json_string(m.unit),
            json_string(m.better.as_str()),
            json_string(m.moves),
            on.join(","),
        )
        .expect("String write");
    }
    out.push_str("\n}\n}\n");
    out
}

/// The verdict on one (workload, metric) row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// The spread between runs exceeds the bound and the two sides overlap:
    /// neither a regression nor its absence can be shown.
    Unresolved,
    /// Worse by more than the bound, or gone from the newer file.
    Worse,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// Judge the change `b` against the parent `a` on one metric.
pub fn judge(a: &[f64], b: &[f64], metric: &EndToEnd) -> Verdict {
    let (qa, qb) = (Quartiles::of(a), Quartiles::of(b));
    // Orient so that larger is better.
    let sign = if metric.better == Better::Higher { 1.0 } else { -1.0 };
    let gain = sign * ((metric.value)(&qb) - (metric.value)(&qa));
    let scale = (metric.value)(&qa).abs().max(f64::MIN_POSITIVE);
    let extreme = |v: &[f64], pick: fn(f64, f64) -> f64| {
        v.iter().map(|x| sign * x).reduce(pick).expect("a metric has samples")
    };
    // Every run of the change reads better (worse) than every run of the parent.
    let b_clear_above = extreme(b, f64::min) > extreme(a, f64::max);
    let b_clear_below = extreme(b, f64::max) < extreme(a, f64::min);
    let noisy = qa.spread().max(qb.spread()) > metric.bound;
    if -gain / scale > metric.bound {
        return if noisy && !b_clear_below { Verdict::Unresolved } else { Verdict::Worse };
    }
    if noisy {
        return if b_clear_above { Verdict::Improved } else { Verdict::Unresolved };
    }
    // One pair of runs cannot resolve less than the bound (the same binary
    // has read 19 % faster a minute later, every repetition ahead), so a
    // gain counts once it exceeds both the bound and the parent's own
    // quartile distance; a smaller one needs the paired protocol.
    if b_clear_above && gain / scale > metric.bound && gain > (qa.q3 - qa.q1).abs() {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One printed row of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a_value: f64,
    /// `None` when the newer file no longer has the metric.
    pub b_value: Option<f64>,
    pub verdict: Verdict,
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose `sim_digest` differs (or is gone) in the newer file.
    pub digest_mismatches: Vec<String>,
}

impl Comparison {
    /// False when a row is worse, or a digest moved without permission.
    pub fn passes(&self, allow_digest_change: bool) -> bool {
        let worse = self.rows.iter().any(|r| r.verdict == Verdict::Worse);
        let drifted = !allow_digest_change && !self.digest_mismatches.is_empty();
        !(worse || drifted)
    }
}

fn samples_of(workload: &JsonValue, metric: &str) -> Option<Vec<f64>> {
    let samples = workload.get("metrics")?.get(metric)?.get("samples")?.as_array()?;
    let values: Vec<f64> = samples.iter().filter_map(JsonValue::as_f64).collect();
    (!values.is_empty() && values.len() == samples.len()).then_some(values)
}

/// Compare two results files, `a` the parent and `b` the change: one row per
/// (workload, end-to-end metric) of `a`, judged by the benchmark's bounds.
pub fn compare(a: &str, b: &str) -> Result<Comparison, String> {
    let a = parse_json(a).map_err(|e| format!("first file: {e}"))?;
    let b = parse_json(b).map_err(|e| format!("second file: {e}"))?;
    let mut out = Comparison::default();
    for name in crate::adapter::WORKLOADS {
        let Some(wa) = a.get("workloads").and_then(|w| w.get(name)) else { continue };
        let wb = b.get("workloads").and_then(|w| w.get(name));
        let digest =
            |w: &JsonValue| w.get("sim_digest").and_then(JsonValue::as_str).map(String::from);
        if wb.and_then(digest) != digest(wa) {
            out.digest_mismatches.push(name.to_string());
        }
        for metric in &END_TO_END {
            let Some(sa) = samples_of(wa, metric.name) else { continue };
            let sb = wb.and_then(|w| samples_of(w, metric.name));
            let verdict = match &sb {
                Some(sb) => judge(&sa, sb, metric),
                None => Verdict::Worse,
            };
            out.rows.push(Row {
                workload: name.to_string(),
                metric: metric.name,
                a_value: metric.value_of(&sa),
                b_value: sb.map(|s| metric.value_of(&s)),
                verdict,
            });
        }
    }
    if out.rows.is_empty() {
        return Err("the first file holds no workload results".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{CpuTimes, RepOutput, RepSample};

    fn result(name: &'static str, walls: &[f64], digest: u64) -> WorkloadResult {
        let reps = walls
            .iter()
            .map(|&wall_s| RepSample {
                wall_s,
                peak_heap_bytes: 10 << 20,
                allocs: 5,
                cpu: CpuTimes::default(),
                out: RepOutput {
                    sim_s: 100.0,
                    ops_attempted: 2,
                    ops_failed: 0,
                    digest,
                    counts: vec![("records", 12.0)],
                },
            })
            .collect();
        WorkloadResult::from_samples(name, reps, vec![0.5, 0.5, 0.5], vec![0.05; walls.len()])
    }

    fn stamp() -> Stamp {
        Stamp {
            commit: "abc".into(),
            seed: 360,
            width: 2,
            nproc: 2,
            rustc: "rustc 1.95 \"x\"".into(),
        }
    }

    #[test]
    fn rendered_results_parse_back() {
        let text = render(&stamp(), &[result("paper_grid", &[1.0, 1.01, 0.99], 7)]);
        let v = parse_json(&text).expect("results.json is JSON");
        assert_eq!(v.get("claim"), Some(&JsonValue::Null));
        assert_eq!(
            v.get("stamp").unwrap().get("rustc").unwrap().as_str(),
            Some("rustc 1.95 \"x\"")
        );
        let w = v.get("workloads").unwrap().get("paper_grid").unwrap();
        assert_eq!(w.get("sim_digest").unwrap().as_str(), Some("0000000000000007"));
        assert_eq!(samples_of(w, "sim_s_per_ref_s").unwrap().len(), 3);
        let raw = w.get("raw").unwrap().get("sim_s_per_wall_s").unwrap();
        assert_eq!(raw.get("median").unwrap().as_f64(), Some(100.0));
        assert_eq!(w.get("counts").unwrap().get("records").unwrap().as_f64(), Some(12.0));
    }

    #[test]
    fn rendered_layers_parse_back_with_what_each_row_moves() {
        let mut layers = Layers::new();
        layers.set("lte.cell.subframe_us.ue500", 97.5);
        let v = parse_json(&render_layers(&stamp(), &layers)).expect("layers.json is JSON");
        assert_eq!(v.get("claim"), Some(&JsonValue::Null));
        let row = v.get("layers").unwrap().get("lte.cell.subframe_us.ue500").unwrap();
        assert_eq!(row.get("value").unwrap().as_f64(), Some(97.5));
        assert_eq!(row.get("moves").unwrap().as_str(), Some("sim_s_per_ref_s"));
        assert_eq!(row.get("on").unwrap().as_array().unwrap()[0].as_str(), Some("cell_crowded"));
        let unmeasured = v.get("layers").unwrap().get("sim.rng.normal_ns").unwrap();
        assert_eq!(unmeasured.get("value"), Some(&JsonValue::Null));
    }

    #[test]
    fn judge_applies_the_bound_the_spread_and_the_overlap() {
        let median = |q: &Quartiles| q.median;
        let metric =
            |better, bound| EndToEnd { name: "m", unit: "u", better, bound, value: median };
        let (higher, lower) = (metric(Better::Higher, 0.10), metric(Better::Lower, 0.10));
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(&steady, &steady, &higher), Verdict::Unchanged);
        let faster: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&steady, &faster, &higher), Verdict::Improved);
        assert_eq!(judge(&steady, &faster, &lower), Verdict::Worse);
        let slightly: Vec<f64> = steady.iter().map(|v| v * 0.95).collect();
        assert_eq!(judge(&steady, &slightly, &higher), Verdict::Unchanged, "inside the bound");
        let a_bit_faster: Vec<f64> = steady.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&steady, &a_bit_faster, &higher), Verdict::Unchanged, "inside it too");
        // Spread wider than the bound, sides overlapping: nothing can be shown.
        let noisy_a = [100.0, 140.0, 70.0, 120.0, 85.0];
        let noisy_b = [80.0, 110.0, 60.0, 95.0, 70.0];
        assert_eq!(judge(&noisy_a, &noisy_b, &higher), Verdict::Unresolved);
        // ... unless every run of one side beats every run of the other.
        let far_below = [10.0, 14.0, 7.0, 12.0, 8.5];
        assert_eq!(judge(&noisy_a, &far_below, &higher), Verdict::Worse);
        let far_above = [1000.0, 1400.0, 700.0, 1200.0, 850.0];
        assert_eq!(judge(&noisy_a, &far_above, &higher), Verdict::Improved);
        // A bound of zero: any failure where there was none is worse.
        let none = metric(Better::Lower, 0.0);
        assert_eq!(judge(&[0.0], &[0.0], &none), Verdict::Unchanged);
        assert_eq!(judge(&[0.0], &[0.02], &none), Verdict::Worse);
        // A metric valued by its lower quartile is compared by it.
        let by_q1 = EndToEnd { value: |q| q.q1, ..metric(Better::Lower, 0.10) };
        let (a, b) = ([1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5], [1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 1.5]);
        assert_eq!(Quartiles::of(&b).median, 1.5);
        assert_ne!(
            judge(&a, &b, &by_q1),
            Verdict::Worse,
            "the medians differ, the quartiles do not"
        );
    }

    #[test]
    fn compare_reads_two_files_and_gates_on_worse_and_on_digests() {
        let parent = render(&stamp(), &[result("paper_grid", &[1.0, 1.01, 0.99, 1.0, 1.0], 7)]);
        let same = compare(&parent, &parent).unwrap();
        assert_eq!(same.rows.len(), END_TO_END.len());
        assert!(same.rows.iter().all(|r| r.verdict == Verdict::Unchanged));
        assert!(same.passes(false));

        let slower = render(&stamp(), &[result("paper_grid", &[1.5, 1.51, 1.49, 1.5, 1.5], 7)]);
        let c = compare(&parent, &slower).unwrap();
        let speed = c.rows.iter().find(|r| r.metric == "sim_s_per_ref_s").unwrap();
        assert_eq!(speed.verdict, Verdict::Worse);
        assert!(!c.passes(false));
        assert_eq!(compare(&slower, &parent).unwrap().rows[0].verdict, Verdict::Improved);

        let drifted = render(&stamp(), &[result("paper_grid", &[1.0, 1.01, 0.99, 1.0, 1.0], 8)]);
        let c = compare(&parent, &drifted).unwrap();
        assert_eq!(c.digest_mismatches, ["paper_grid"]);
        assert_eq!((c.passes(false), c.passes(true)), (false, true));
    }

    #[test]
    fn a_vanished_metric_or_workload_is_worse() {
        let parent = render(&stamp(), &[result("trace_read", &[1.0, 1.0, 1.0], 7)]);
        let without_heap = parent.replace("\"peak_heap_mib\"", "\"renamed\"");
        let c = compare(&parent, &without_heap).unwrap();
        let heap = c.rows.iter().find(|r| r.metric == "peak_heap_mib").unwrap();
        assert_eq!((heap.verdict, heap.b_value), (Verdict::Worse, None));
        assert!(!c.passes(true));

        let other = render(&stamp(), &[result("paper_grid", &[1.0, 1.0, 1.0], 7)]);
        let c = compare(&parent, &other).unwrap();
        assert!(c.rows.iter().all(|r| r.verdict == Verdict::Worse));
        assert_eq!(c.digest_mismatches, ["trace_read"]);
        assert!(compare("{}", &parent).is_err(), "nothing to compare is an error");
        assert!(compare("not json", &parent).is_err());
    }
}
