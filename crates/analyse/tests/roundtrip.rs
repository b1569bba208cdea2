//! Ingest-layer integration tests: a generative JSONL round-trip
//! property (everything a `JsonlSink` writes comes back through
//! `RunTrace` unchanged, by the record-shaped shortcut and by the
//! generic JSON path alike, and as the schema 1 lines of the same
//! emissions read back), a mutation fuzz holding the shortcut to the
//! generic path's verdict, hostile documents, probe-id errors at every
//! chunk cut, and an exhaustiveness check that every generated
//! `bench_results/*.jsonl` artifact still ingests — on the shortcut — and
//! that the fault smoke's artifact refers to its probes by id.

use poi360_analyse::ingest::{Interner, Rec, RunTrace};
use poi360_sim::json::parse_json;
use poi360_sim::time::SimTime;
use poi360_sim::trace::{
    JsonlRecord, JsonlSink, LineProbe, ProbeKind, RunMeta, TraceRecord, TraceSink, MAX_PROBE_IDS,
    TRACE_SCHEMA_VERSION,
};
use poi360_testkit::prop::{CaseError, Gen};
use poi360_testkit::{prop_assert, prop_assert_eq, prop_check};

/// Probe-name pool — `TraceRecord` names are `&'static str` by design,
/// so properties draw from a fixed set rather than generating strings.
const NAMES: &[&str] = &[
    "cell.prb_used",
    "fbcc.rate_kbps",
    "video.psnr_db",
    "ho.gap_ms",
    "cell.tick_ns",
    "zelle.güte",
];

/// Source-tag pool: the suites' real shapes, non-ASCII tags, and tags
/// the writer has to escape (which the shortcut must leave to the
/// generic path).
const SRCS: &[&str] = &[
    "fg.00",
    "bg.01",
    "rlf.fbcc",
    "convoy.s1",
    "",
    "zelle.07.ü",
    "セル.03",
    "we\"ird",
    "we\"ird\n",
    "two\nlines",
    "back\\slash",
    "bell\u{7}",
];

/// Values whose spelling is a special case somewhere: the writer's
/// `null`, signed zero, exponents in both directions, integers at the
/// edge of what an `f64` counts exactly, the subnormal floor.
const VALUES: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    -2.25,
    1e-7,
    -3.5e-9,
    1e16,
    1e300,
    9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
    9_007_199_254_740_993.0,
    -9_007_199_254_740_991.0,
    0.1 + 0.2,
    f64::MIN_POSITIVE,
    5e-324,
    f64::MAX,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Largest timestamp the writer spells in 15 digits.
const T_US_15_DIGITS: u64 = 999_999_999_999_999;

fn gen_record(g: &mut Gen) -> (usize, TraceRecord) {
    let kind = match g.u8_in(0, 2) {
        0 => ProbeKind::Counter,
        1 => ProbeKind::Gauge,
        _ => ProbeKind::Event,
    };
    let value = if g.chance(0.4) { VALUES[g.index(VALUES.len())] } else { g.f64_in(-1e9, 1e9) };
    // Mostly the real range; sometimes the full 15 digits the shortcut
    // takes; sometimes beyond them, up to the 2^53 the codec can carry.
    let t_us = match g.u8_in(0, 9) {
        0 => g.u64_in(T_US_15_DIGITS + 1, 1 << 53),
        1 => g.u64_in(1 << 40, T_US_15_DIGITS),
        _ => g.u64_in(0, 1 << 40),
    };
    let rec = TraceRecord {
        at: SimTime::from_micros(t_us),
        name: NAMES[g.index(NAMES.len())],
        kind,
        value,
    };
    (g.index(SRCS.len()), rec)
}

/// What a traced run hands its sink.
enum Emission {
    Stamp(RunMeta),
    Record(usize, TraceRecord),
}

/// A stamp naming `seed`.
fn stamp(seed: u64) -> RunMeta {
    RunMeta { schema: TRACE_SCHEMA_VERSION, commit: "abc".into(), argv: vec!["t".into()], seed }
}

/// Up to 40 emissions with a stamp now and then. Most records come from
/// a pool of up to four `(src, name, kind)`, so probes recur within a
/// segment and later lines refer to them by id.
fn gen_emissions(g: &mut Gen) -> Vec<Emission> {
    let pool = g.vec_of(1, 4, gen_record);
    g.vec_of(0, 40, |g| {
        if g.chance(0.1) {
            // The real stamp, with the commit and argv this binary sees; a
            // seed anywhere the JSON codec keeps integers exact, up to 2^53.
            return Emission::Stamp(RunMeta::current(g.u64_in(0, (1 << 53) - 1)));
        }
        let (mut src, mut rec) = gen_record(g);
        if g.chance(0.7) {
            let (s, r) = pool[g.index(pool.len())];
            (src, rec.name, rec.kind) = (s, r.name, r.kind);
        }
        Emission::Record(src, rec)
    })
}

/// The bytes a `JsonlSink` writes for `emissions`, and its line count.
fn sink_bytes(emissions: &[Emission]) -> (Vec<u8>, u64) {
    let mut sink = JsonlSink::to_writer(Vec::new());
    for e in emissions {
        match e {
            Emission::Stamp(meta) => sink.stamp(meta),
            Emission::Record(src, rec) => sink.record(SRCS[*src], rec),
        }
    }
    sink.flush();
    let lines = sink.lines();
    (sink.into_inner(), lines)
}

/// The bytes schema 1 wrote for `emissions`: every record line names its
/// probe.
fn schema_1_bytes(emissions: &[Emission]) -> Vec<u8> {
    let mut out = String::new();
    for e in emissions {
        match e {
            Emission::Stamp(meta) => out.push_str(&meta.to_jsonl()),
            Emission::Record(src, rec) => out.push_str(&named_line(rec, SRCS[*src], None)),
        }
        out.push('\n');
    }
    out.into_bytes()
}

/// `rec`'s line (no newline) from source `src` when it names its probe
/// and gives it `id` (`None`: a schema 1 line, which gives none).
fn named_line(rec: &TraceRecord, src: &str, id: Option<u64>) -> String {
    record_line(rec, LineProbe::Names { id, src, name: rec.name, kind: rec.kind })
}

/// `rec`'s line when it refers to its probe by `id`.
fn ref_line(rec: &TraceRecord, id: u64) -> String {
    record_line(rec, LineProbe::Refers { id })
}

fn record_line(rec: &TraceRecord, probe: LineProbe<&str>) -> String {
    let mut out = String::new();
    JsonlRecord { t_us: rec.at.as_micros(), probe, value: rec.value }.write_jsonl(&mut out);
    out
}

/// True when the writer spells a source tag without an escape.
fn plain(src: &str) -> bool {
    !src.chars().any(|c| c == '"' || c == '\\' || (c as u32) < 0x20)
}

/// The same document with a blank after every line: still the same
/// JSON, but no longer the writer's bytes, so every record goes through
/// the generic path.
fn force_generic(jsonl: &str) -> String {
    jsonl.lines().map(|l| format!("{l} \n")).collect()
}

/// Two records carry the same bits (`==` would let -0.0 pass for 0.0 and
/// fail NaN against itself).
fn same_bits(a: &Rec, b: &Rec) -> bool {
    (a.t_us, a.seg, a.src, a.name, a.kind, a.value.to_bits())
        == (b.t_us, b.seg, b.src, b.name, b.kind, b.value.to_bits())
}

/// Two traces hold the same stamps, name tables and records, bit for
/// bit; how many records took the generic path may differ.
fn same_trace(got: &RunTrace, want: &RunTrace, what: &str) -> Result<(), CaseError> {
    prop_assert_eq!(&got.metas, &want.metas);
    prop_assert!(got.srcs.names().eq(want.srcs.names()), "{what}: sources");
    prop_assert!(got.probes.names().eq(want.probes.names()), "{what}: probe names");
    prop_assert_eq!(got.records.len(), want.records.len());
    for (a, b) in got.records.iter().zip(&want.records) {
        prop_assert!(same_bits(a, b), "{what}: {a:?} vs {b:?}");
    }
    Ok(())
}

fn parse(bytes: &[u8]) -> Result<RunTrace, CaseError> {
    RunTrace::parse_bytes(bytes).map_err(|e| CaseError::fail(format!("parse failed: {e}")))
}

/// Sink → parse preserves record count, order, segments, timestamps,
/// interned names/sources, kinds, and finite values exactly; non-finite
/// values travel as JSON `null` and come back as NaN. The record-shaped
/// shortcut and the generic JSON path read the same bits out of the same
/// lines, and every line the writer spells without an escape takes the
/// shortcut: every line that refers to its probe by id, and every one
/// that names a plain tag.
#[test]
fn jsonl_roundtrip_preserves_every_record() {
    prop_check!("jsonl_roundtrip", 96, |g| {
        let emissions = gen_emissions(g);
        let (bytes, lines) = sink_bytes(&emissions);

        // Each record with its segment and whether its line names it.
        let (mut recs, mut metas, mut named) = (Vec::new(), Vec::new(), Vec::new());
        for e in &emissions {
            match e {
                Emission::Stamp(meta) => {
                    metas.push(meta.clone());
                    named.clear();
                }
                Emission::Record(src, rec) => {
                    let probe = (*src, rec.name, rec.kind);
                    let names = !named.contains(&probe);
                    if names {
                        named.push(probe);
                    }
                    recs.push((*src, rec, metas.len() as u16, names));
                }
            }
        }
        prop_assert_eq!(lines, recs.len() as u64);

        let trace = parse(&bytes)?;
        prop_assert_eq!(trace.records.len(), recs.len());
        prop_assert_eq!(&trace.metas, &metas);
        for (parsed, &(src, rec, seg, _)) in trace.records.iter().zip(&recs) {
            prop_assert_eq!(parsed.t_us, rec.at.as_micros());
            prop_assert_eq!(parsed.seg, seg);
            prop_assert_eq!(trace.srcs.name(parsed.src), SRCS[src]);
            prop_assert_eq!(trace.probes.name(parsed.name), rec.name);
            prop_assert_eq!(parsed.kind, rec.kind);
            if rec.value.is_finite() {
                prop_assert_eq!(parsed.value.to_bits(), rec.value.to_bits());
            } else {
                prop_assert!(parsed.value.is_nan(), "null round-trips to NaN");
            }
        }
        let off_shortcut = recs
            .iter()
            .filter(|&&(src, rec, _, names)| {
                rec.at.as_micros() > T_US_15_DIGITS || (names && !plain(SRCS[src]))
            })
            .count();
        prop_assert_eq!(trace.generic_records(), off_shortcut as u64);

        let text = std::str::from_utf8(&bytes).expect("the sink writes UTF-8");
        let generic = parse(force_generic(text).as_bytes())?;
        prop_assert_eq!(generic.generic_records(), recs.len() as u64);
        same_trace(&generic, &trace, "generic path")
    });
}

/// Byte offsets where `RunTrace::parse_chunked(bytes, chunks)` starts its
/// chunks after the first, by the rule it documents: chunk `k` of `n`
/// starts at the first line start at or after byte `⌊len·k/n⌋`.
fn cuts(bytes: &[u8], chunks: usize) -> Vec<usize> {
    let line_start = |at: usize| at == 0 || bytes[at - 1] == b'\n';
    let mut out: Vec<usize> = (1..chunks)
        .filter_map(|k| (bytes.len() * k / chunks..bytes.len()).find(|&at| line_start(at)))
        .filter(|&at| at > 0)
        .collect();
    out.dedup();
    out
}

/// What each line of a document is to the id scheme: a stamp, a line
/// that gives `id`, one that refers to `id`, or one that does neither
/// (a schema 1 record).
#[derive(Clone, Copy, Debug, PartialEq)]
enum IdUse {
    Stamp,
    Gives(u64),
    Refers(u64),
    Neither,
}

fn id_use(line: &str) -> IdUse {
    let v = parse_json(line).expect("a well-formed line");
    let id = v.get("id").and_then(|id| id.as_f64()).map(|id| id as u64);
    match (v.get("meta"), id, v.get("src")) {
        (Some(_), _, _) => IdUse::Stamp,
        (None, Some(id), Some(_)) => IdUse::Gives(id),
        (None, Some(id), None) => IdUse::Refers(id),
        (None, None, _) => IdUse::Neither,
    }
}

/// Lines of a chunk cut that refer to an id a line in an earlier chunk
/// gave: the references only the merge can resolve.
fn refs_across_cuts(uses: &[IdUse], starts: &[usize], cut: &[usize]) -> usize {
    let chunk_of = |at: usize| cut.iter().filter(|&&c| c <= at).count();
    let (mut given_in, mut across) = (Vec::new(), 0);
    for (k, &u) in uses.iter().enumerate() {
        match u {
            IdUse::Stamp => given_in.clear(),
            IdUse::Gives(_) => given_in.push(chunk_of(starts[k])),
            IdUse::Refers(id) => {
                let given = given_in.get(id as usize).copied();
                across += usize::from(given.is_some_and(|c| c < chunk_of(starts[k])));
            }
            IdUse::Neither => {}
        }
    }
    across
}

/// A `JsonlSink` stream reads back to exactly what the schema 1 lines of
/// the same emissions read back to — one `RunTrace`, stamps, tables and
/// records bit for bit — at every chunk count from 1 to 8. The emissions
/// cover several stamps, escaped and non-ASCII tags, `null`, ±0, 1e16 and
/// 2^53 ± 1; the property counts that references really fell in a later
/// chunk than the line that gave their id.
#[test]
fn a_sink_stream_reads_as_the_schema_1_lines_of_its_emissions() {
    let mut across = 0;
    prop_check!("schema_1_oracle", 192, |g| {
        let emissions = gen_emissions(g);
        let want = RunTrace::parse_chunked(&schema_1_bytes(&emissions), 1)
            .map_err(|e| CaseError::fail(format!("schema 1 bytes: {e}")))?;
        let (bytes, _) = sink_bytes(&emissions);
        let text = std::str::from_utf8(&bytes).expect("the sink writes UTF-8");
        let uses: Vec<IdUse> = text.lines().map(id_use).collect();
        let starts: Vec<usize> =
            text.lines().scan(0, |at, l| Some(std::mem::replace(at, *at + l.len() + 1))).collect();
        for chunks in 1..=8 {
            across += refs_across_cuts(&uses, &starts, &cuts(&bytes, chunks));
            let got = RunTrace::parse_chunked(&bytes, chunks)
                .map_err(|e| CaseError::fail(format!("{chunks} chunks: {e}")))?;
            same_trace(&got, &want, &format!("{chunks} chunks"))?;
        }
        Ok(())
    });
    assert!(across > 0, "no reference ever fell in a later chunk than its id");
}

/// Bytes a one-byte edit may put into a line: JSON structure, number
/// bytes, blanks, and the letters of `null`, `id` and the kind names.
const EDIT_BYTES: &[u8] = b"\"\\{}[]:,.-+eE0123456789 \tnulcotrgavx_id";

/// Writes record lines as a sink does — in a run segment, a probe's
/// first line names it with the next id and its later lines refer to it —
/// but hands each line to the test to place, spell or break.
#[derive(Default)]
struct Writer {
    named: Vec<(usize, &'static str, ProbeKind)>,
}

impl Writer {
    /// A stamp's line, which starts a segment.
    fn stamp(&mut self, meta: &RunMeta) -> String {
        self.named.clear();
        meta.to_jsonl()
    }

    /// `rec`'s line from `SRCS[src]`, with the ids the segment gave
    /// before it.
    fn line(&mut self, src: usize, rec: &TraceRecord) -> (String, u64) {
        let (probe, given) = ((src, rec.name, rec.kind), self.named.len() as u64);
        let line = match self.named.iter().position(|&p| p == probe) {
            Some(id) => ref_line(rec, id as u64),
            None => {
                self.named.push(probe);
                named_line(rec, SRCS[src], Some(given))
            }
        };
        (line, given)
    }
}

/// A record from `pool` most of the time, else a fresh one.
fn pooled_record(g: &mut Gen, pool: &[(usize, TraceRecord)]) -> (usize, TraceRecord) {
    let (mut src, mut rec) = gen_record(g);
    if g.chance(0.7) {
        let (s, r) = pool[g.index(pool.len())];
        (src, rec.name, rec.kind) = (s, r.name, r.kind);
    }
    (src, rec)
}

/// One record of each layout, whole or mutated one byte at a time, as
/// the last line of a document whose first three lines give ids 0, 1 and
/// 2: whenever the shortcut still reads the line, the document reads to
/// the same records, or fails with the same error, when every line takes
/// the generic path. It may decline anything; it may not accept what the
/// generic path rejects, nor read it differently.
#[test]
fn shortcut_never_outvotes_the_generic_path() {
    prop_check!("jsonl_mutation", 2048, |g| {
        let mut doc = String::new();
        for id in 0..3 {
            let (src, rec) = gen_record(g);
            doc.push_str(&named_line(&rec, SRCS[src], Some(id)));
            doc.push('\n');
        }
        let (src, rec) = gen_record(g);
        let line = match g.u8_in(0, 3) {
            0 => named_line(&rec, SRCS[src], None),
            1 => named_line(&rec, SRCS[src], Some(g.u64_in(2, 4))),
            _ => ref_line(&rec, g.u64_in(0, 4)),
        };
        let mut bytes = line.into_bytes();
        if g.chance(0.9) {
            // ASCII for ASCII keeps the line UTF-8.
            let ascii: Vec<usize> = (0..bytes.len()).filter(|&k| bytes[k].is_ascii()).collect();
            let at = ascii[g.index(ascii.len())];
            let edit = EDIT_BYTES[g.index(EDIT_BYTES.len())];
            match g.u8_in(0, 2) {
                0 => bytes[at] = edit,
                1 => bytes.insert(at, edit),
                _ => drop(bytes.remove(at)),
            }
        }
        let line = String::from_utf8(bytes).expect("ASCII edits keep the line UTF-8");
        let Some(read) = TraceRecord::read_jsonl(&line) else { return Ok(()) };
        doc.push_str(&line);
        let (shaped, generic) = (full_outcome(&doc), full_outcome(&force_generic(&doc)));
        prop_assert!(
            shaped == generic,
            "shortcut read {read:?} out of {line:?}: {shaped:?}, generic path: {generic:?}"
        );
        Ok(())
    });
}

const STAMP: &str =
    r#"{"meta":"poi360.trace","schema":2,"commit":"abc","argv":["reproduce"],"seed":7}"#;
const RATE: &str =
    r#"{"t_us":1000,"src":"fg.00","name":"pacer.rate_bps","kind":"gauge","value":2500000.0}"#;
const FRAME: &str =
    r#"{"t_us":2000,"src":"fg.00","name":"video.frame_encoded","kind":"counter","value":1.0}"#;

/// `line` giving its probe `id`.
fn giving(line: &str, id: u64) -> String {
    line.replacen(",\"src\"", &format!(",\"id\":{id},\"src\""), 1)
}

/// A record of `FRAME`'s value at `t_us` referring to `id`.
fn frame_ref(t_us: u64, id: u64) -> String {
    format!(r#"{{"t_us":{t_us},"id":{id},"value":1.0}}"#)
}

/// One ingested record: `(t_us, seg, src, name, kind, value bits)`.
type Row = (u64, u16, String, String, ProbeKind, u64);

/// What a document ingests to, or the `line N` its typed error names.
type Outcome = Result<Vec<Row>, String>;

fn rows(t: &RunTrace) -> Vec<Row> {
    t.records
        .iter()
        .map(|r| {
            let (src, name) = (t.srcs.name(r.src), t.probes.name(r.name));
            (r.t_us, r.seg, src.to_string(), name.to_string(), r.kind, r.value.to_bits())
        })
        .collect()
}

fn outcome(doc: &str) -> Outcome {
    match RunTrace::parse_bytes(doc.as_bytes()) {
        Ok(t) => Ok(rows(&t)),
        Err(e) => {
            let (line, _) = e.split_once(": ").unwrap_or_else(|| panic!("untyped error {e:?}"));
            assert!(line.starts_with("line "), "error names no line: {e:?}");
            Err(line.to_string())
        }
    }
}

/// What a document ingests to, stamps and all, or its whole error.
fn full_outcome(doc: &str) -> Result<(Vec<Row>, Vec<RunMeta>), String> {
    RunTrace::parse_chunked(doc.as_bytes(), 1).map(|t| (rows(&t), t.metas))
}

/// Hostile documents (ROADMAP 7c) through both ingest paths: spelled as
/// the writer spells records (the shortcut) and with a blank after each
/// colon (the generic path). Each ingests to the same records either
/// way — the ones the pre-shortcut reader produced — or fails with an
/// error naming the same 1-based line. Nothing panics.
#[test]
fn hostile_documents_ingest_or_fail_with_a_line_number() {
    let rate = |seg: u16| -> Row {
        (1000, seg, "fg.00".into(), "pacer.rate_bps".into(), ProbeKind::Gauge, 2.5e6f64.to_bits())
    };
    let frame = |seg: u16, t_us: u64| -> Row {
        let name = "video.frame_encoded".into();
        (t_us, seg, "fg.00".into(), name, ProbeKind::Counter, 1.0f64.to_bits())
    };
    let line = |n: u32| -> Outcome { Err(format!("line {n}")) };
    let reordered =
        r#"{"value":1.0,"kind":"counter","name":"video.frame_encoded","src":"fg.00","t_us":2000}"#;
    let dup_late = r#"{"t_us":1000,"src":"fg.00","name":"pacer.rate_bps","kind":"gauge","value":2500000.0,"value":9.0}"#;
    let dup_early = r#"{"t_us":1000,"t_us":9,"src":"fg.00","name":"pacer.rate_bps","kind":"gauge","value":2500000.0}"#;
    let (rate0, frame0, frame1) = (giving(RATE, 0), giving(FRAME, 0), giving(FRAME, 1));
    let cases: Vec<(&str, String, Outcome)> = vec![
        (
            "record cut mid-line, no trailing newline",
            format!("{STAMP}\n{RATE}\n{}", &FRAME[..FRAME.len() - 30]),
            line(3),
        ),
        ("record cut inside its value", format!("{RATE}\n{}", &FRAME[..FRAME.len() - 2]), line(2)),
        (
            "CRLF line endings",
            format!("{STAMP}\r\n{rate0}\r\n{frame1}\r\n{}\r\n", frame_ref(3000, 1)),
            Ok(vec![rate(1), frame(1, 2000), frame(1, 3000)]),
        ),
        (
            "blank lines between records",
            format!("\n{RATE}\n\n   \n{FRAME}\n\n"),
            Ok(vec![rate(0), frame(0, 2000)]),
        ),
        ("blank lines still count", format!("\n\n{RATE}\n\nnot json\n"), line(5)),
        ("a UTF-8 byte-order mark", format!("\u{feff}{RATE}\n"), line(1)),
        (
            "a stamp between records of one source",
            format!("{STAMP}\n{FRAME}\n{STAMP}\n{FRAME}\n"),
            Ok(vec![frame(1, 2000), frame(2, 2000)]),
        ),
        ("reordered keys", format!("{RATE}\n{reordered}\n"), Ok(vec![rate(0), frame(0, 2000)])),
        ("a duplicate key after the record", format!("{dup_late}\n"), Ok(vec![rate(0)])),
        ("a duplicate key inside the record", format!("{dup_early}\n"), Ok(vec![rate(0)])),
        (
            "a fractional timestamp",
            format!("{RATE}\n{}\n", FRAME.replace("2000", "2000.5")),
            line(2),
        ),
        ("a timestamp beyond 2^53", format!("{}\n", FRAME.replace("2000", "1e300")), line(1)),
        (
            "the largest timestamp the codec carries",
            format!("{}\n", FRAME.replace("2000", "9007199254740992")),
            Ok(vec![frame(0, 1 << 53)]),
        ),
        (
            "schema 1 and 2 lines in one segment",
            format!("{RATE}\n{frame0}\n{RATE}\n{}\n", frame_ref(3000, 0)),
            Ok(vec![rate(0), frame(0, 2000), rate(0), frame(0, 3000)]),
        ),
        (
            "a stamp starts the ids again",
            format!("{STAMP}\n{rate0}\n{STAMP}\n{frame0}\n{}\n", frame_ref(3000, 0)),
            Ok(vec![rate(1), frame(2, 2000), frame(2, 3000)]),
        ),
        (
            "a reference to an id not yet given",
            format!("{rate0}\n{}\n", frame_ref(3000, 1)),
            line(2),
        ),
        (
            "a reference across a stamp",
            format!("{frame0}\n{STAMP}\n{}\n", frame_ref(3000, 0)),
            line(3),
        ),
        ("an id given out of turn", format!("{frame1}\n"), line(1)),
        (
            "two unstamped streams concatenated",
            format!("{rate0}\n{frame1}\n{}\n{rate0}\n", frame_ref(3000, 1)),
            line(4),
        ),
        ("a negative id", format!("{}\n", frame_ref(3000, 0).replace(":0", ":-1")), line(1)),
        (
            "a fractional id",
            format!("{frame0}\n{}\n", frame_ref(3000, 0).replace(":0", ":0.5")),
            line(2),
        ),
        (
            "an id with only some of the names",
            format!("{}\n", frame0.replace(r#""name":"video.frame_encoded","#, "")),
            line(1),
        ),
    ];
    for (what, doc, want) in cases {
        assert_eq!(outcome(&doc), want, "{what}, as the writer spells it");
        let spaced = doc.replace("\":", "\": ");
        assert_eq!(outcome(&spaced), want, "{what}, through the generic path");
    }
    // The stamp really splits the counter: one total per segment.
    let split =
        RunTrace::parse_bytes(format!("{STAMP}\n{FRAME}\n{STAMP}\n{FRAME}\n").as_bytes()).unwrap();
    let mut pool = poi360_analyse::aggregate::Pool::new();
    pool.add(&split);
    assert_eq!(pool.stats()[0].samples, 2);
    // The timestamp errors say what is wrong, not only where.
    let err = RunTrace::parse_bytes(FRAME.replace("2000", "1.5").as_bytes()).unwrap_err();
    assert_eq!(err, "line 1: non-integer `t_us` 1.5");
}

/// A probe-id error names its line and says what is wrong, the same
/// whatever chunks the document is cut into — also when the segment the
/// line is in started chunks before it, so that only the merge can tell
/// the line is wrong. Each document is a stamp, two probes named, then a
/// run of references before and after the bad line.
#[test]
fn probe_id_errors_are_typed_and_the_same_at_every_cut() {
    let (rate0, frame1) = (giving(RATE, 0), giving(FRAME, 1));
    let filler: String = (0..40).map(|k| format!("{}\n", frame_ref(3000 + k, k % 2))).collect();
    let cases = [
        (frame_ref(9000, 2), "probe id 2 is not given in its segment"),
        (frame_ref(9000, 123_456_789), "probe id 123456789 is not given in its segment"),
        (giving(RATE, 3), "probe id 3 given where the segment's next id is 2"),
        // The head of a second stream, appended without its stamp.
        (rate0.clone(), "probe id 0 given where the segment's next id is 2"),
        (giving(RATE, 65_535), "more than 65535 probe ids in one segment"),
    ];
    for (bad, what) in cases {
        let doc = format!("{STAMP}\n{rate0}\n{frame1}\n{filler}{bad}\n{filler}");
        let want = format!("line 44: {what}");
        for chunks in 1..=8 {
            for doc in [doc.clone(), doc.replace("\":", "\": ")] {
                let err = RunTrace::parse_chunked(doc.as_bytes(), chunks).err();
                assert_eq!(err.as_deref(), Some(want.as_str()), "{chunks} chunks: {bad}");
            }
        }
    }
}

/// A segment gives at most 65 535 ids, 0 to 65 534, each of which a
/// later line can refer to; a line giving one more fails, at every cut.
#[test]
fn a_segment_gives_65535_probe_ids() {
    let mut doc = format!("{STAMP}\n");
    for id in 0..MAX_PROBE_IDS {
        doc.push_str(&giving(RATE, id));
        doc.push('\n');
    }
    let last = frame_ref(3000, MAX_PROBE_IDS - 1);
    let full = format!("{doc}{last}\n{STAMP}\n{}\n", giving(FRAME, 0));
    let over = format!("{doc}{}\n{last}\n", giving(FRAME, MAX_PROBE_IDS));
    let want = format!("line {}: more than 65535 probe ids in one segment", MAX_PROBE_IDS + 2);
    for chunks in 1..=4 {
        let tr = RunTrace::parse_chunked(full.as_bytes(), chunks).unwrap();
        assert_eq!(tr.len() as u64, MAX_PROBE_IDS + 2, "{chunks} chunks");
        let probe = |k: usize| tr.probes.name(tr.records[k].name);
        assert_eq!(probe(tr.len() - 2), "pacer.rate_bps", "the last id given resolves");
        assert_eq!(probe(tr.len() - 1), "video.frame_encoded", "and the next stamp starts over");
        let err = RunTrace::parse_chunked(over.as_bytes(), chunks).err();
        assert_eq!(err.as_deref(), Some(want.as_str()), "{chunks} chunks");
    }
}

/// One generated document line, by what it is.
enum Line {
    /// A record line, with the ids its segment gave before it (`None`
    /// for a schema 1 line, which gives and uses none).
    Record(String, Option<u64>),
    Stamp(String),
    Blank(&'static str),
    /// Half a line and then `#`, or a byte that is not UTF-8.
    Corrupt(Vec<u8>),
    /// A record line whose id its segment cannot have at that point.
    BadId(String),
}

impl Line {
    fn bytes(&self) -> &[u8] {
        match self {
            Line::Record(s, _) | Line::Stamp(s) | Line::BadId(s) => s.as_bytes(),
            Line::Blank(s) => s.as_bytes(),
            Line::Corrupt(b) => b,
        }
    }
}

/// A parse cut into any number of chunks is the one-chunk parse, field
/// for field: records (segments included), both interners in order,
/// stamps and the generic-path count, or the same error — the earliest
/// failing line's `line N` and message, however many chunks fail, or the
/// offset of the first byte that is not UTF-8. The documents mix writer
/// lines that name probes with ids and refer to them, schema 1 lines,
/// escaped tags (generic path), stamps, blank lines, CRLF endings, a
/// missing final newline, corrupted lines and lines giving or referring to
/// an id out of turn, short enough that up to eight chunks cut them
/// everywhere; the property counts that stamps really landed on cuts and
/// next to them, that failures really split across chunks, and that bad
/// ids really fell in chunks their segment started before.
#[test]
fn chunked_parse_is_the_one_chunk_parse() {
    let (mut stamp_on_cut, mut stamp_before_cut, mut split_failures) = (0, 0, 0);
    let mut bad_id_after_cut = 0;
    prop_check!("chunked_parse", 128, |g| {
        let pool = g.vec_of(1, 4, gen_record);
        let mut writer = Writer::default();
        let mut lines = g.vec_of(0, 48, |g| match g.u8_in(0, 9) {
            0 | 1 => Line::Stamp(writer.stamp(&stamp(g.u64_in(0, 99)))),
            2 => Line::Blank(["", "  ", "\t"][g.index(3)]),
            _ => {
                let (src, rec) = pooled_record(g, &pool);
                if g.chance(0.1) {
                    Line::Record(named_line(&rec, SRCS[src], None), None)
                } else {
                    let (line, given) = writer.line(src, &rec);
                    Line::Record(line, Some(given))
                }
            }
        });
        for _ in 0..g.usize_in(0, 2) {
            if lines.is_empty() {
                break;
            }
            let at = g.index(lines.len());
            if let (Line::Record(text, Some(given)), true) = (&lines[at], g.chance(0.5)) {
                let bad = match id_use(text) {
                    IdUse::Gives(id) => {
                        [id + 1 + g.u64_in(0, 2), 0][g.index(1 + usize::from(id > 0))]
                    }
                    _ => given + g.u64_in(0, 2),
                };
                let id = match id_use(text) {
                    IdUse::Gives(id) | IdUse::Refers(id) => id,
                    _ => unreachable!("a line with ids"),
                };
                let text = text.replacen(&format!("\"id\":{id},"), &format!("\"id\":{bad},"), 1);
                lines[at] = Line::BadId(text);
                continue;
            }
            let text = lines[at].bytes();
            let half =
                (0..=text.len() / 2).rev().find(|&k| std::str::from_utf8(&text[..k]).is_ok());
            let mut bad = text[..half.unwrap_or(0)].to_vec();
            bad.push(if g.chance(0.2) { 0xff } else { b'#' });
            lines[at] = Line::Corrupt(bad);
        }
        let crlf = g.chance(0.3);
        let (mut doc, mut starts) = (Vec::new(), Vec::new());
        for (k, line) in lines.iter().enumerate() {
            starts.push(doc.len());
            doc.extend_from_slice(line.bytes());
            if k + 1 < lines.len() || g.chance(0.5) {
                doc.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
            }
        }
        let faulty: Vec<usize> = (0..lines.len())
            .filter(|&k| matches!(lines[k], Line::Corrupt(_) | Line::BadId(_)))
            .collect();
        let not_utf8 = std::str::from_utf8(&doc).is_err();

        let whole = RunTrace::parse_chunked(&doc, 1);
        match (&whole, faulty.first()) {
            (Err(e), _) if not_utf8 => prop_assert!(e.starts_with("not UTF-8: "), "{e}"),
            (Err(e), Some(&k)) => {
                prop_assert!(e.starts_with(&format!("line {}: ", k + 1)), "{e}")
            }
            (Ok(_), None) => {}
            (got, _) => return Err(CaseError::fail(format!("faulty lines {faulty:?}: {got:?}"))),
        }
        for chunks in 2..=8 {
            let cut = cuts(&doc, chunks);
            let chunk_of = |k: usize| cut.iter().filter(|&&c| c <= starts[k]).count();
            let mut segment_start = 0;
            for (k, line) in lines.iter().enumerate() {
                match line {
                    Line::Stamp(_) => {
                        stamp_on_cut += usize::from(cut.contains(&starts[k]));
                        let next = starts.get(k + 1);
                        stamp_before_cut += usize::from(next.is_some_and(|s| cut.contains(s)));
                        segment_start = k;
                    }
                    Line::BadId(_) if Some(&k) == faulty.first() => {
                        bad_id_after_cut += usize::from(chunk_of(segment_start) < chunk_of(k));
                    }
                    _ => {}
                }
            }
            if let [a, b, ..] = faulty[..] {
                split_failures += usize::from(chunk_of(a) != chunk_of(b));
            }
            match (&whole, RunTrace::parse_chunked(&doc, chunks)) {
                (Err(want), Err(got)) => prop_assert_eq!(&got, want),
                (Ok(want), Ok(got)) => {
                    same_trace(&got, want, &format!("{chunks} chunks"))?;
                    prop_assert_eq!(got.generic_records(), want.generic_records());
                }
                (want, got) => {
                    return Err(CaseError::fail(format!("{chunks} chunks {got:?} vs one {want:?}")))
                }
            }
        }
        Ok(())
    });
    assert!(stamp_on_cut > 0 && stamp_before_cut > 0, "{stamp_on_cut} / {stamp_before_cut}");
    assert!(split_failures > 0, "no two failing lines ever fell into different chunks");
    assert!(bad_id_after_cut > 0, "no bad id ever fell in a chunk after its segment's start");
}

/// What the line loop the record cursor replaced reads from a document.
#[derive(Default)]
struct LineLoop {
    metas: Vec<RunMeta>,
    probes: Interner,
    srcs: Interner,
    records: Vec<Rec>,
    generic_records: u64,
}

/// A probe as the oracle keeps it: source, name and kind.
type Given = (String, String, ProbeKind);

/// The ingest loop before the record cursor, kept as its oracle:
/// `str::lines`, then `TraceRecord::read_jsonl` on each line, with both
/// names interned by the interner's own scan and probe ids given and
/// looked up in a table of the segment's probes. A line it declines is
/// read as the last line of a document whose lines before it give the
/// segment's probes their ids again — which the generic path alone
/// reads — with the error's line number moved to where the line stands.
fn line_loop(doc: &[u8]) -> Result<LineLoop, String> {
    let text = std::str::from_utf8(doc).map_err(|e| format!("not UTF-8: {e}"))?;
    let mut out = LineLoop::default();
    let mut given: Vec<Given> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let at_line = |e: String| format!("line {}: {e}", idx + 1);
        let seg = short(out.metas.len() as u32);
        let push = |out: &mut LineLoop, r: Rec, (src, name, _): &Given| {
            let (src, name) = (short(out.srcs.intern(src)), short(out.probes.intern(name)));
            out.records.push(Rec { seg, src, name, ..r });
        };
        if let Some(r) = TraceRecord::read_jsonl(line) {
            let probe = match r.probe {
                LineProbe::Names { id, src, name, kind } => {
                    let probe = (src.to_string(), name.to_string(), kind);
                    if let Some(id) = id {
                        let next = given.len() as u64;
                        if id >= MAX_PROBE_IDS {
                            let e = format!("more than {MAX_PROBE_IDS} probe ids in one segment");
                            return Err(at_line(e));
                        }
                        if id != next {
                            let e = format!(
                                "probe id {id} given where the segment's next id is {next}"
                            );
                            return Err(at_line(e));
                        }
                        given.push(probe.clone());
                    }
                    probe
                }
                LineProbe::Refers { id } => {
                    let e = || at_line(format!("probe id {id} is not given in its segment"));
                    usize::try_from(id).ok().and_then(|k| given.get(k)).cloned().ok_or_else(e)?
                }
            };
            let rec = Rec { t_us: r.t_us, value: r.value, seg, src: 0, name: 0, kind: probe.2 };
            push(&mut out, rec, &probe);
            continue;
        }
        let mut context = String::new();
        for (id, (src, name, kind)) in given.iter().enumerate() {
            let (src, name, kind) = (src.as_str(), name.as_str(), *kind);
            let probe = LineProbe::Names { id: Some(id as u64), src, name, kind };
            JsonlRecord { t_us: 0, probe, value: 0.0 }.write_jsonl(&mut context);
            context.push('\n');
        }
        let before =
            RunTrace::parse_chunked(context.as_bytes(), 1).expect("the probes given again");
        context.push_str(line);
        let alone = RunTrace::parse_chunked(context.as_bytes(), 1).map_err(|e| {
            let at = format!("line {}: ", given.len() + 1);
            let msg = e.strip_prefix(&at).unwrap_or_else(|| panic!("{e:?} names {at:?}"));
            at_line(msg.to_string())
        })?;
        out.generic_records += alone.generic_records() - before.generic_records();
        if let Some(r) = alone.records.get(given.len()).copied() {
            let probe =
                (alone.srcs.name(r.src).to_string(), alone.probes.name(r.name).to_string(), r.kind);
            push(&mut out, r, &probe);
            // The generic path's rule: an id with any of the names gives it.
            let v = parse_json(line).expect("a line that ingested is JSON");
            if v.get("id").is_some() && ["src", "name", "kind"].iter().any(|k| v.get(k).is_some()) {
                given.push(probe);
            }
        }
        if !alone.metas.is_empty() {
            given.clear();
        }
        out.metas.extend(alone.metas);
    }
    Ok(out)
}

/// A segment or id of the oracle's short documents as a record holds it.
fn short(id: u32) -> u16 {
    u16::try_from(id).expect("generated documents hold few stamps and names")
}

/// Value tokens the writer never spells, or spells at a fast-path edge:
/// exponents, 17 significant digits, signed zero, `null`, leading zeros,
/// a bare point, a bare sign, 22 and 23 fraction digits, and garbage.
const ODD_VALUES: &[&str] = &[
    "1e5",
    "-2.5E-3",
    "1e999",
    "0.30000000000000004",
    "12345678901234567",
    "-0.0",
    "-0",
    "null",
    "007",
    "-00.50",
    "1.",
    "-.5",
    "-",
    "1.2.3",
    "+1",
    "0.0000000000000000000001",
    "0.00000000000000000000001",
    "999999999999999",
    "9999999999999999",
    "nan",
    "1}",
];

/// The record cursor against the line loop it replaced, at every chunk
/// count from 1 to 8: the same records (bits, segments), both interners
/// in order, the same stamps and `generic_records`, or the same error text
/// under the same line number. The documents mix writer lines (naming
/// probes with ids and referring to them, schema 1 lines, escaped and
/// non-ASCII tags, 16-digit timestamps), writer lines with odd value
/// tokens, one-byte mutations of writer lines, stamps and blank lines,
/// ended by `\n`, `\r\n` or `\r\r\n`, with the final line sometimes
/// unterminated and then sometimes ending in a bare `\r`, and now and then
/// a byte that is not UTF-8 anywhere in the document.
#[test]
fn record_cursor_is_the_line_loop_it_replaced() {
    prop_check!("record_cursor", 256, |g| {
        let pool = g.vec_of(1, 4, gen_record);
        let mut writer = Writer::default();
        let lines = g.vec_of(0, 40, |g| -> Vec<u8> {
            let (src, rec) = pooled_record(g, &pool);
            let writer_line = |writer: &mut Writer, g: &mut Gen| {
                if g.chance(0.15) {
                    named_line(&rec, SRCS[src], None)
                } else {
                    writer.line(src, &rec).0
                }
            };
            match g.u8_in(0, 11) {
                0 => writer.stamp(&stamp(5)).into_bytes(),
                1 => ["", "  ", "\t", "\r"][g.index(4)].as_bytes().to_vec(),
                2 | 3 => {
                    let line = writer_line(&mut writer, g);
                    let at = line.rfind(":").expect("a value") + 1;
                    let odd = ODD_VALUES[g.index(ODD_VALUES.len())];
                    format!("{}{odd}}}", &line[..at]).into_bytes()
                }
                4 | 5 => {
                    let mut bytes = writer_line(&mut writer, g).into_bytes();
                    let ascii: Vec<usize> =
                        (0..bytes.len()).filter(|&k| bytes[k].is_ascii()).collect();
                    let at = ascii[g.index(ascii.len())];
                    let edit = EDIT_BYTES[g.index(EDIT_BYTES.len())];
                    match g.u8_in(0, 2) {
                        0 => bytes[at] = edit,
                        1 => bytes.insert(at, edit),
                        _ => drop(bytes.remove(at)),
                    }
                    bytes
                }
                _ => writer_line(&mut writer, g).into_bytes(),
            }
        });
        let mut doc = Vec::new();
        for (k, line) in lines.iter().enumerate() {
            doc.extend_from_slice(line);
            if k + 1 < lines.len() || g.chance(0.5) {
                let ending: &[u8] =
                    [b"\n".as_slice(), b"\r\n", b"\r\r\n"][g.u8_in(0, 5) as usize / 2];
                doc.extend_from_slice(ending);
            } else if g.chance(0.3) {
                doc.push(b'\r');
            }
        }
        if g.chance(0.02) {
            doc.insert(g.index(doc.len() + 1), 0xff);
        }

        let want = line_loop(&doc);
        for chunks in 1..=8 {
            match (&want, RunTrace::parse_chunked(&doc, chunks)) {
                (Err(want), Err(got)) => prop_assert_eq!(&got, want),
                (Ok(want), Ok(got)) => {
                    prop_assert_eq!(got.records.len(), want.records.len());
                    for (a, b) in got.records.iter().zip(&want.records) {
                        prop_assert!(same_bits(a, b), "{chunks} chunks {a:?} vs lines {b:?}");
                    }
                    prop_assert!(got.srcs.names().eq(want.srcs.names()));
                    prop_assert!(got.probes.names().eq(want.probes.names()));
                    prop_assert_eq!(&got.metas, &want.metas);
                    prop_assert_eq!(got.generic_records(), want.generic_records);
                }
                (want, got) => {
                    let want = want.as_ref().map(|w| w.records.len());
                    return Err(CaseError::fail(format!(
                        "{chunks} chunks {:?} vs lines {want:?}",
                        got.map(|t| t.len())
                    )));
                }
            }
        }
        Ok(())
    });
}

/// Every JSONL artifact in `bench_results/` must ingest without error —
/// the analyse layer may never fall behind the probe plane's output
/// format — and every probe record in it must take the record-shaped
/// shortcut: a writer-layout change that `read_jsonl` does not follow
/// would still ingest, five times slower, and nothing else would say so.
/// The artifacts are generated (gitignored), so a fresh clone has none
/// and the test passes vacuously; `ci.sh` re-runs this test after the
/// trace/faults/mobility/study smokes have written theirs, which is
/// where it bites.
#[test]
fn every_jsonl_artifact_on_disk_parses() {
    let Ok(entries) = std::fs::read_dir(poi360_testkit::results_dir()) else { return };
    for entry in entries {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        let trace = std::fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| RunTrace::parse_bytes(&bytes))
            .unwrap_or_else(|e| panic!("{} does not ingest: {e}", path.display()));
        assert!(!trace.is_empty(), "{} parsed to an empty trace", path.display());
        assert_eq!(
            trace.generic_records(),
            0,
            "{}: records fell back to the generic JSON path",
            path.display()
        );
    }
}

/// Bytes per record the fault smoke's artifact may hold: a line that
/// refers to its probe by id is about 35; one that names it is about 100.
const MAX_SMOKE_BYTES_PER_RECORD: f64 = 45.0;

/// `reproduce study faults --smoke`'s artifact (when a run has written
/// it; `ci.sh` does before this sweep) refers to its probes by id: at most
/// [`MAX_SMOKE_BYTES_PER_RECORD`] bytes per record, as many records as it
/// has lines that are not stamps (no line only defines), and, rendered as
/// schema 1 lines that name every probe, it reads back to the same trace
/// at every chunk count from 1 to 8. A writer change that quietly named
/// probes on every line again fails here.
#[test]
fn the_fault_smoke_artifact_refers_to_its_probes_by_id() {
    let path = poi360_testkit::results_dir().join("study_faults_smoke.jsonl");
    let Ok(bytes) = std::fs::read(&path) else { return };
    let trace = RunTrace::parse_bytes(&bytes).expect("the smoke artifact ingests");
    let records =
        bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty() && !l.starts_with(b"{\"meta\":"));
    assert_eq!(trace.len(), records.count(), "one record per line that is not a stamp");
    let per_record = bytes.len() as f64 / trace.len() as f64;
    assert!(per_record <= MAX_SMOKE_BYTES_PER_RECORD, "{per_record:.1} bytes per record");

    let mut schema_1 = String::new();
    let mut metas = trace.metas.iter();
    let mut seg = 0;
    for r in &trace.records {
        for meta in metas.by_ref().take(usize::from(r.seg - seg)) {
            schema_1.push_str(&meta.to_jsonl());
            schema_1.push('\n');
        }
        seg = r.seg;
        let (src, name) = (trace.srcs.name(r.src), trace.probes.name(r.name));
        let probe = LineProbe::Names { id: None, src, name, kind: r.kind };
        JsonlRecord { t_us: r.t_us, probe, value: r.value }.write_jsonl(&mut schema_1);
        schema_1.push('\n');
    }
    for meta in metas {
        schema_1.push_str(&meta.to_jsonl());
        schema_1.push('\n');
    }
    let want = RunTrace::parse_chunked(schema_1.as_bytes(), 1).expect("schema 1 lines ingest");
    for chunks in 1..=8 {
        let got = RunTrace::parse_chunked(&bytes, chunks).expect("the smoke artifact ingests");
        same_trace(&got, &want, &format!("{chunks} chunks")).unwrap_or_else(|e| panic!("{e:?}"));
    }
}
