//! A trace built to be large where the analyse crate's lookups could be
//! quadratic: 60 000 probe names and 60 000 counter keys. It must pool
//! and report correctly, and in seconds even in a debug build. A linear
//! search per name or key — a bucket scan per probe id, a key scan per
//! counter record, a find per row of a delta table — would make about
//! 10^9 string or key compares here, minutes of debug-build time.

use poi360_analyse::aggregate::Pool;
use poi360_analyse::ingest::RunTrace;
use poi360_analyse::report::{study_report, CaseTrace};
use poi360_analyse::study::by_name;

/// Gauge names `g.NNNNN` and counter names `c.NNNNN`, this many each.
const HALF: usize = 30_000;

/// One stamped run: gauge `g.i` samples `i` once; counter `c.i` counts
/// `i + 1` from source `a` (in two increments) and `i + 2` from source
/// `b`, so it has two keys and two run totals.
fn hostile_trace() -> String {
    let mut jsonl =
        String::from(r#"{"meta":"poi360.trace","schema":2,"commit":"c","argv":[],"seed":1}"#);
    jsonl.push('\n');
    let mut line = |t: usize, src: &str, name: String, kind: &str, value: usize| {
        jsonl.push_str(&format!(
            r#"{{"t_us":{t},"src":"{src}","name":"{name}","kind":"{kind}","value":{value}}}"#
        ));
        jsonl.push('\n');
    };
    for i in 0..HALF {
        line(i, "a", format!("g.{i:05}"), "gauge", i);
    }
    for i in 0..HALF {
        line(HALF + i, "a", format!("c.{i:05}"), "counter", i);
        line(HALF + i, "b", format!("c.{i:05}"), "counter", i + 2);
        line(HALF + i, "a", format!("c.{i:05}"), "counter", 1);
    }
    jsonl
}

#[test]
fn sixty_thousand_probes_and_counter_keys_pool_and_report_in_linear_time() {
    let trace = RunTrace::parse_bytes(hostile_trace().as_bytes()).expect("the trace parses");
    assert_eq!((trace.probes.len(), trace.records.len()), (2 * HALF, 4 * HALF));

    let mut pool = Pool::new();
    pool.add(&trace);
    let stats = pool.stats();
    assert_eq!(stats.len(), 2 * HALF, "one row per probe name");
    let (counters, gauges) = stats.split_at(HALF);
    for (i, (c, g)) in counters.iter().zip(gauges).enumerate() {
        assert_eq!(
            (g.name.as_str(), g.samples, g.median),
            (format!("g.{i:05}").as_str(), 1, i as f64)
        );
        let want = (format!("c.{i:05}"), 2, i as f64 + 1.5);
        assert_eq!((c.name.clone(), c.samples, c.median), want, "two keys, two run totals");
    }

    // The whole report, drift-gated against the same trace as baseline:
    // every probe in each table, nothing flagged.
    let cfg = by_name("cc_matrix").expect("preset exists");
    let case = CaseTrace {
        scenario: "baseline".into(),
        rc: Some("fbcc".into()),
        seed: 1,
        trace: trace.clone(),
        gaps_ms: Vec::new(),
    };
    let report = study_report(&cfg, &[case], Some(&trace));
    assert_eq!(report.failures, 0, "a trace does not drift from itself");
    let rows = |name: &str| report.text.lines().filter(|l| l.contains(name)).count();
    // Probe table, the fbcc-vs-gcc table, the pooled gate and, for a
    // counter, the per-scenario gate.
    assert_eq!(rows("g.29999 "), 3);
    assert_eq!(rows("c.12345 "), 4);
    assert!(report.text.ends_with("study gate: 0 failure(s), 1 warning(s)\n"), "{}", {
        let tail = report.text.len().saturating_sub(400);
        &report.text[tail..]
    });
}
