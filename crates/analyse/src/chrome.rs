//! Chrome `trace_event` export: one probe trace → a JSON document that
//! `chrome://tracing` / Perfetto load directly, for flame-style
//! inspection of subframe timing.
//!
//! Mapping (the format reference is the trace_event spec's stable
//! subset — `ph`, `ts` in µs, one `pid` per trace, one `tid` per
//! probe source):
//!
//! * events whose name ends in `_ns` are duration measurements (the
//!   perf plane's `perf.tick_ns` subframe timings) → complete events
//!   (`"ph":"X"`) at `ts = t_us` with `dur = value / 1000` µs;
//! * gauges and counters → counter events (`"ph":"C"`) so they render
//!   as stacked time series;
//! * every other event → an instant (`"ph":"i"`, thread scope).
//!
//! Sources are named via `"M"` thread-name metadata records, emitted
//! first in source-id order. Everything is in stream order after that,
//! so the export is byte-deterministic.

use crate::ingest::RunTrace;
use poi360_sim::json::{write_json_string, ToJson};
use poi360_sim::trace::ProbeKind;

/// Render the trace_event JSON document (`{"traceEvents":[...]}`). Every
/// field goes straight into the one output buffer, in the order a
/// `JsonObject` would put it.
pub fn chrome_trace(trace: &RunTrace) -> String {
    let mut out = String::with_capacity(64 + trace.records.len() * 128);
    out.push_str("{\"traceEvents\":[");
    let mut sep = "\n";
    for (id, src) in trace.srcs.names().enumerate() {
        out.push_str(sep);
        sep = ",\n";
        out.push_str("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":");
        (id as u64 + 1).write_json(&mut out);
        out.push_str(",\"args\":{\"name\":");
        write_json_string(src, &mut out);
        out.push_str("}}");
    }
    for rec in &trace.records {
        let name = trace.probes.name(rec.name);
        out.push_str(sep);
        sep = ",\n";
        out.push_str("{\"name\":");
        write_json_string(name, &mut out);
        out.push_str(",\"cat\":\"probe\",\"pid\":1,\"tid\":");
        (rec.src as u64 + 1).write_json(&mut out);
        out.push_str(",\"ts\":");
        (rec.t_us as f64).write_json(&mut out);
        match rec.kind {
            ProbeKind::Event if name.ends_with("_ns") => {
                out.push_str(",\"ph\":\"X\",\"dur\":");
                (rec.value / 1_000.0).write_json(&mut out);
            }
            ProbeKind::Gauge | ProbeKind::Counter => out.push_str(",\"ph\":\"C\""),
            ProbeKind::Event => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
        }
        out.push_str(",\"args\":{\"value\":");
        rec.value.write_json(&mut out);
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_sim::json::parse_json;

    #[test]
    fn export_is_valid_json_with_the_right_phases() {
        let jsonl = concat!(
            r#"{"t_us":1000,"src":"perf.window","name":"perf.tick_ns","kind":"event","value":57000}"#,
            "\n",
            r#"{"t_us":1000,"src":"perf.window","name":"cell.load","kind":"gauge","value":0.7}"#,
            "\n",
            r#"{"t_us":2000,"src":"session","name":"video.mode_switch","kind":"event","value":3}"#,
            "\n",
        );
        let trace = RunTrace::parse_bytes(jsonl.as_bytes()).unwrap();
        let doc = chrome_trace(&trace);
        let v = parse_json(&doc).expect("chrome export is valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
        // 2 thread-name metadata records + 3 probe records.
        assert_eq!(events.len(), 5);
        let phase = |i: usize| events[i].get("ph").unwrap().as_str().unwrap();
        assert_eq!(phase(0), "M");
        assert_eq!(phase(1), "M");
        assert_eq!(phase(2), "X", "_ns event becomes a complete event");
        assert_eq!(events[2].get("dur").unwrap().as_f64(), Some(57.0), "ns -> µs");
        assert_eq!(events[2].get("ts").unwrap().as_f64(), Some(1000.0));
        assert_eq!(phase(3), "C", "gauge becomes a counter track");
        assert_eq!(phase(4), "i", "plain event becomes an instant");
        let tid = |i: usize| events[i].get("tid").unwrap().as_f64().unwrap();
        assert_eq!(tid(2), 1.0);
        assert_eq!(tid(4), 2.0, "second source gets the next tid");
    }

    #[test]
    fn export_is_deterministic() {
        let jsonl =
            r#"{"t_us":1,"src":"s","name":"a.b_ns","kind":"event","value":100}"#.to_string();
        let t1 = RunTrace::parse_bytes(jsonl.as_bytes()).unwrap();
        let t2 = RunTrace::parse_bytes(jsonl.as_bytes()).unwrap();
        assert_eq!(chrome_trace(&t1), chrome_trace(&t2));
    }
}
