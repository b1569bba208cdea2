//! Ingest-layer integration tests: a generative JSONL round-trip
//! property (everything a `JsonlSink` writes comes back through
//! `RunTrace` unchanged, by the record-shaped shortcut and by the
//! generic JSON path alike), a mutation fuzz holding the shortcut to the
//! generic path's verdict, hostile documents, and an exhaustiveness
//! check that every generated `bench_results/*.jsonl` artifact still
//! ingests — on the shortcut.

use poi360_analyse::ingest::{Interner, Rec, RunTrace};
use poi360_sim::time::SimTime;
use poi360_sim::trace::{JsonlSink, ProbeKind, RunMeta, TraceRecord, TraceSink};
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
    9_007_199_254_740_992.0,
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

/// True when the writer spells this line in the exact layout
/// `TraceRecord::read_jsonl` takes: no escape in the tag, a timestamp of
/// at most 15 digits.
fn shortcut_applies(src: &str, rec: &TraceRecord) -> bool {
    !src.chars().any(|c| c == '"' || c == '\\' || (c as u32) < 0x20)
        && rec.at.as_micros() <= T_US_15_DIGITS
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

fn parse(bytes: &[u8]) -> Result<RunTrace, CaseError> {
    RunTrace::parse_bytes(bytes).map_err(|e| CaseError::fail(format!("parse failed: {e}")))
}

/// Sink → parse preserves record count, order, timestamps, interned
/// names/sources, kinds, and finite values exactly; non-finite values
/// travel as JSON `null` and come back as NaN. The record-shaped
/// shortcut and the generic JSON path read the same bits out of the same
/// lines, and every line the writer spells without an escape takes the
/// shortcut.
#[test]
fn jsonl_roundtrip_preserves_every_record() {
    prop_check!("jsonl_roundtrip", 96, |g| {
        let stamp = g.chance(0.8);
        // The JSON codec carries numbers as f64, so integers round-trip
        // exactly only up to 2^53 — far beyond any real seed.
        let seed = g.u64_in(0, (1 << 53) - 1);
        let recs = g.vec_of(0, 40, gen_record);

        let mut sink = JsonlSink::to_writer(Vec::new());
        if stamp {
            sink.stamp(&RunMeta::current(seed));
        }
        for (src, rec) in &recs {
            sink.record(SRCS[*src], rec);
        }
        sink.flush();
        prop_assert!(!sink.had_io_error());
        prop_assert_eq!(sink.lines(), recs.len() as u64);
        let bytes = sink.into_inner();

        let trace = parse(&bytes)?;
        prop_assert_eq!(trace.records.len(), recs.len());
        prop_assert_eq!(trace.metas.len(), usize::from(stamp));
        if stamp {
            prop_assert_eq!(trace.metas[0].seed, seed);
        }
        for (parsed, (src, rec)) in trace.records.iter().zip(&recs) {
            prop_assert_eq!(parsed.t_us, rec.at.as_micros());
            prop_assert_eq!(trace.srcs.name(parsed.src), SRCS[*src]);
            prop_assert_eq!(trace.probes.name(parsed.name), rec.name);
            prop_assert_eq!(parsed.kind, rec.kind);
            if rec.value.is_finite() {
                prop_assert_eq!(parsed.value.to_bits(), rec.value.to_bits());
            } else {
                prop_assert!(parsed.value.is_nan(), "null round-trips to NaN");
            }
        }
        let off_shortcut =
            recs.iter().filter(|(src, rec)| !shortcut_applies(SRCS[*src], rec)).count();
        prop_assert_eq!(trace.generic_records(), off_shortcut as u64);

        let text = std::str::from_utf8(&bytes).expect("the sink writes UTF-8");
        let generic = parse(force_generic(text).as_bytes())?;
        prop_assert_eq!(generic.generic_records(), recs.len() as u64);
        prop_assert_eq!(&generic.metas, &trace.metas);
        prop_assert!(generic.srcs.names().eq(trace.srcs.names()));
        prop_assert!(generic.probes.names().eq(trace.probes.names()));
        prop_assert_eq!(generic.records.len(), trace.records.len());
        for (a, b) in generic.records.iter().zip(&trace.records) {
            prop_assert!(same_bits(a, b), "generic {a:?} vs shortcut {b:?}");
        }
        Ok(())
    });
}

/// Bytes a one-byte edit may put into a line: JSON structure, number
/// bytes, blanks, and the letters of `null` and the kind names.
const EDIT_BYTES: &[u8] = b"\"\\{}[]:,.-+eE0123456789 \tnulcotrgavx_";

/// One-byte mutations of valid lines: whenever the shortcut still reads
/// a record, the generic path accepts the same line and reads the same
/// record. It may decline anything; it may not accept what the generic
/// path rejects, nor read it differently.
#[test]
fn shortcut_never_outvotes_the_generic_path() {
    prop_check!("jsonl_mutation", 2048, |g| {
        let (src, rec) = gen_record(g);
        let mut bytes = rec.to_jsonl(SRCS[src]).into_bytes();
        // ASCII for ASCII keeps the line UTF-8.
        let ascii: Vec<usize> = (0..bytes.len()).filter(|&k| bytes[k].is_ascii()).collect();
        let at = ascii[g.index(ascii.len())];
        let edit = EDIT_BYTES[g.index(EDIT_BYTES.len())];
        match g.u8_in(0, 2) {
            0 => bytes[at] = edit,
            1 => bytes.insert(at, edit),
            _ => drop(bytes.remove(at)),
        }
        let line = String::from_utf8(bytes).expect("ASCII edits keep the line UTF-8");

        let generic = RunTrace::parse_str(&force_generic(&line));
        let Some(read) = TraceRecord::read_jsonl(&line) else { return Ok(()) };
        let generic = match generic {
            Ok(t) => t,
            Err(e) => {
                return Err(CaseError::fail(format!(
                    "shortcut read {read:?} out of {line:?}, which the generic path rejects: {e}"
                )))
            }
        };
        prop_assert!(generic.records.len() == 1, "{line:?} is one record");
        let rec = generic.records[0];
        let want = (
            rec.t_us,
            generic.srcs.name(rec.src),
            generic.probes.name(rec.name),
            rec.kind,
            rec.value.to_bits(),
        );
        let got = (read.t_us, read.src, read.name, read.kind, read.value.to_bits());
        prop_assert!(got == want, "{line:?}: shortcut {got:?}, generic {want:?}");
        Ok(())
    });
}

const STAMP: &str =
    r#"{"meta":"poi360.trace","schema":1,"commit":"abc","argv":["reproduce"],"seed":7}"#;
const RATE: &str =
    r#"{"t_us":1000,"src":"fg.00","name":"pacer.rate_bps","kind":"gauge","value":2500000.0}"#;
const FRAME: &str =
    r#"{"t_us":2000,"src":"fg.00","name":"video.frame_encoded","kind":"counter","value":1.0}"#;

/// One ingested record: `(t_us, seg, src, name, kind, value bits)`.
type Row = (u64, u32, String, String, ProbeKind, u64);

/// What a document ingests to, or the `line N` its typed error names.
type Outcome = Result<Vec<Row>, String>;

fn outcome(doc: &str) -> Outcome {
    match RunTrace::parse_str(doc) {
        Ok(t) => Ok(t
            .records
            .iter()
            .map(|r| {
                let (src, name) = (t.srcs.name(r.src), t.probes.name(r.name));
                (r.t_us, r.seg, src.to_string(), name.to_string(), r.kind, r.value.to_bits())
            })
            .collect()),
        Err(e) => {
            let (line, _) = e.split_once(": ").unwrap_or_else(|| panic!("untyped error {e:?}"));
            assert!(line.starts_with("line "), "error names no line: {e:?}");
            Err(line.to_string())
        }
    }
}

/// Hostile documents (ROADMAP 7c) through both ingest paths: spelled as
/// the writer spells records (the shortcut) and with a blank after each
/// colon (the generic path). Each ingests to the same records either
/// way — the ones the pre-shortcut reader produced — or fails with an
/// error naming the same 1-based line. Nothing panics.
#[test]
fn hostile_documents_ingest_or_fail_with_a_line_number() {
    let rate = |seg: u32| -> Row {
        (1000, seg, "fg.00".into(), "pacer.rate_bps".into(), ProbeKind::Gauge, 2.5e6f64.to_bits())
    };
    let frame = |seg: u32, t_us: u64| -> Row {
        let name = "video.frame_encoded".into();
        (t_us, seg, "fg.00".into(), name, ProbeKind::Counter, 1.0f64.to_bits())
    };
    let line = |n: u32| -> Outcome { Err(format!("line {n}")) };
    let reordered =
        r#"{"value":1.0,"kind":"counter","name":"video.frame_encoded","src":"fg.00","t_us":2000}"#;
    let dup_late = r#"{"t_us":1000,"src":"fg.00","name":"pacer.rate_bps","kind":"gauge","value":2500000.0,"value":9.0}"#;
    let dup_early = r#"{"t_us":1000,"t_us":9,"src":"fg.00","name":"pacer.rate_bps","kind":"gauge","value":2500000.0}"#;
    let cases: Vec<(&str, String, Outcome)> = vec![
        (
            "record cut mid-line, no trailing newline",
            format!("{STAMP}\n{RATE}\n{}", &FRAME[..FRAME.len() - 30]),
            line(3),
        ),
        ("record cut inside its value", format!("{RATE}\n{}", &FRAME[..FRAME.len() - 2]), line(2)),
        (
            "CRLF line endings",
            format!("{STAMP}\r\n{RATE}\r\n{FRAME}\r\n"),
            Ok(vec![rate(1), frame(1, 2000)]),
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
    ];
    for (what, doc, want) in cases {
        assert_eq!(outcome(&doc), want, "{what}, as the writer spells it");
        let spaced = doc.replace("\":", "\": ");
        assert_eq!(outcome(&spaced), want, "{what}, through the generic path");
    }
    // The stamp really splits the counter: one total per segment.
    let split = RunTrace::parse_str(&format!("{STAMP}\n{FRAME}\n{STAMP}\n{FRAME}\n")).unwrap();
    let mut pool = poi360_analyse::aggregate::Pool::new();
    pool.add(&split);
    assert_eq!(pool.stats()[0].samples, 2);
    // The timestamp errors say what is wrong, not only where.
    let err = RunTrace::parse_str(&FRAME.replace("2000", "1.5")).unwrap_err();
    assert_eq!(err, "line 1: non-integer `t_us` 1.5");
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

/// One generated document line, by what it is.
enum Line {
    Record(String),
    Stamp(String),
    Blank(&'static str),
    /// Half a line and then `#`, or a byte that is not UTF-8.
    Corrupt(Vec<u8>),
}

impl Line {
    fn bytes(&self) -> &[u8] {
        match self {
            Line::Record(s) | Line::Stamp(s) => s.as_bytes(),
            Line::Blank(s) => s.as_bytes(),
            Line::Corrupt(b) => b,
        }
    }
}

/// A parse cut into any number of chunks is the one-chunk parse, field
/// for field: records (segments included), both interners in order,
/// stamps and the generic-path count, or the same error — the earliest
/// failing line's `line N`, however many chunks fail, or the offset of
/// the first byte that is not UTF-8. The documents mix writer lines,
/// escaped tags (generic path), stamps, blank lines, CRLF endings, a
/// missing final newline and corrupted lines, short enough that up to
/// eight chunks cut them everywhere; the property counts that stamps
/// really landed on cuts and next to them, and that failures really split
/// across chunks.
#[test]
fn chunked_parse_is_the_one_chunk_parse() {
    let (mut stamp_on_cut, mut stamp_before_cut, mut split_failures) = (0, 0, 0);
    prop_check!("chunked_parse", 128, |g| {
        let mut lines = g.vec_of(0, 48, |g| match g.u8_in(0, 9) {
            0 | 1 => Line::Stamp(
                RunMeta {
                    schema: 1,
                    commit: "abc".into(),
                    argv: Vec::new(),
                    seed: g.u64_in(0, 99),
                }
                .to_jsonl(),
            ),
            2 => Line::Blank(["", "  ", "\t"][g.index(3)]),
            _ => {
                let (src, rec) = gen_record(g);
                Line::Record(rec.to_jsonl(SRCS[src]))
            }
        });
        for _ in 0..g.usize_in(0, 2) {
            if !lines.is_empty() {
                let at = g.index(lines.len());
                let text = lines[at].bytes();
                let half =
                    (0..=text.len() / 2).rev().find(|&k| std::str::from_utf8(&text[..k]).is_ok());
                let mut bad = text[..half.unwrap_or(0)].to_vec();
                bad.push(if g.chance(0.2) { 0xff } else { b'#' });
                lines[at] = Line::Corrupt(bad);
            }
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
        let corrupt: Vec<usize> =
            (0..lines.len()).filter(|&k| matches!(lines[k], Line::Corrupt(_))).collect();
        let not_utf8 = std::str::from_utf8(&doc).is_err();

        let whole = RunTrace::parse_chunked(&doc, 1);
        match (&whole, corrupt.first()) {
            (Err(e), _) if not_utf8 => prop_assert!(e.starts_with("not UTF-8: "), "{e}"),
            (Err(e), Some(&k)) => {
                prop_assert!(e.starts_with(&format!("line {}: ", k + 1)), "{e}")
            }
            (Ok(_), None) => {}
            (got, _) => return Err(CaseError::fail(format!("corrupt lines {corrupt:?}: {got:?}"))),
        }
        for chunks in 2..=8 {
            let cut = cuts(&doc, chunks);
            for (k, line) in lines.iter().enumerate() {
                if let Line::Stamp(_) = line {
                    stamp_on_cut += usize::from(cut.contains(&starts[k]));
                    let next = starts.get(k + 1);
                    stamp_before_cut += usize::from(next.is_some_and(|s| cut.contains(s)));
                }
            }
            let chunk_of = |k: usize| cut.iter().filter(|&&c| c <= starts[k]).count();
            if let [a, b, ..] = corrupt[..] {
                split_failures += usize::from(chunk_of(a) != chunk_of(b));
            }
            match (&whole, RunTrace::parse_chunked(&doc, chunks)) {
                (Err(want), Err(got)) => prop_assert_eq!(&got, want),
                (Ok(want), Ok(got)) => {
                    prop_assert_eq!(got.records.len(), want.records.len());
                    for (a, b) in got.records.iter().zip(&want.records) {
                        prop_assert!(same_bits(a, b), "{chunks} chunks {a:?} vs one {b:?}");
                    }
                    prop_assert!(got.srcs.names().eq(want.srcs.names()));
                    prop_assert!(got.probes.names().eq(want.probes.names()));
                    prop_assert_eq!(&got.metas, &want.metas);
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

/// The ingest loop before the record cursor, kept as its oracle:
/// `str::lines`, then `TraceRecord::read_jsonl` on each line with both
/// names interned by the interner's own scan, and any line it declines
/// read on its own as a one-line document — which the generic path alone
/// reads — with the error's line number moved to where the line stands.
fn line_loop(doc: &[u8]) -> Result<LineLoop, String> {
    let text = std::str::from_utf8(doc).map_err(|e| format!("not UTF-8: {e}"))?;
    let mut out = LineLoop::default();
    for (idx, line) in text.lines().enumerate() {
        let seg = out.metas.len() as u32;
        if let Some(r) = TraceRecord::read_jsonl(line) {
            let (src, name) = (out.srcs.intern(r.src), out.probes.intern(r.name));
            out.records.push(Rec { t_us: r.t_us, seg, src, name, kind: r.kind, value: r.value });
            continue;
        }
        let alone = RunTrace::parse_chunked(line.as_bytes(), 1).map_err(|e| {
            let msg = e.strip_prefix("line 1: ").unwrap_or_else(|| panic!("{e:?} names line 1"));
            format!("line {}: {msg}", idx + 1)
        })?;
        assert_eq!(alone.generic_records(), alone.len() as u64, "{line:?}: generic path only");
        for r in &alone.records {
            let src = out.srcs.intern(alone.srcs.name(r.src));
            let name = out.probes.intern(alone.probes.name(r.name));
            out.records.push(Rec { seg, src, name, ..*r });
        }
        out.generic_records += alone.generic_records();
        out.metas.extend(alone.metas);
    }
    Ok(out)
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
/// under the same line number. The documents mix writer lines (escaped and
/// non-ASCII tags, 16-digit timestamps), writer lines with odd value
/// tokens, one-byte mutations of writer lines, stamps and blank lines,
/// ended by `\n`, `\r\n` or `\r\r\n`, with the final line sometimes
/// unterminated and then sometimes ending in a bare `\r`, and now and then
/// a byte that is not UTF-8 anywhere in the document.
#[test]
fn record_cursor_is_the_line_loop_it_replaced() {
    prop_check!("record_cursor", 256, |g| {
        let lines = g.vec_of(0, 40, |g| -> Vec<u8> {
            let (src, rec) = gen_record(g);
            let writer = rec.to_jsonl(SRCS[src]);
            match g.u8_in(0, 11) {
                0 => RunMeta { schema: 1, commit: "abc".into(), argv: Vec::new(), seed: 5 }
                    .to_jsonl()
                    .into_bytes(),
                1 => ["", "  ", "\t", "\r"][g.index(4)].as_bytes().to_vec(),
                2 | 3 => {
                    let at = writer.rfind(":").expect("a value") + 1;
                    let odd = ODD_VALUES[g.index(ODD_VALUES.len())];
                    format!("{}{odd}}}", &writer[..at]).into_bytes()
                }
                4 | 5 => {
                    let mut bytes = writer.into_bytes();
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
                _ => writer.into_bytes(),
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
