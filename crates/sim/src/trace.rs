//! The instrumentation plane: typed probes, pluggable sinks, per-session
//! recorders.
//!
//! POI360's control loops are only explicable by correlating signals across
//! layers — firmware-buffer occupancy against PHY throughput against pacing
//! rate against per-frame quality (the paper's own Figs. 9–14 are exactly
//! such correlations). Before this module, every crate hand-rolled its own
//! [`TimeSeries`] plumbing into `SessionReport` and the interesting
//! *decisions* (FBCC congestion verdicts, PF grant shares, compression mode
//! switches) were invisible without code edits. The trace plane replaces
//! that with one vocabulary:
//!
//! * **Probes** are named measurements. Names are `&'static str` in
//!   `layer.signal` form (`fbcc.congestion_detected`, `cell.prb_grant`,
//!   `pacer.rate_bps`, `video.mode_switch`), so a record carries a pointer,
//!   never a copy of the name. A sink that writes text names each
//!   distinct `(src, name, kind)` once per run segment: [`JsonlSink`]
//!   gives it an id on that line and writes only the id after, so per
//!   record it formats the timestamp and the value. Three kinds:
//!   - *counters* ([`Recorder::count`]) — monotonically accumulated `u64`s,
//!     retained per recorder (frames encoded, congestion detections);
//!   - *gauges* ([`Recorder::gauge`]) — timestamped scalar samples retained
//!     as a [`TimeSeries`] channel per recorder; `SessionReport` series are
//!     derived from these channels at the end of a run;
//!   - *events* ([`Recorder::event`]) — timestamped records forwarded to the
//!     sink only, never retained in memory, for high-frequency signals
//!     (per-subframe PRB grants) that would bloat a 90 s run.
//! * **Sinks** ([`TraceSink`]) receive every probe emission. The null sink
//!   (simply the absence of one — [`Recorder::null`]) reduces `event()` to
//!   a branch on an `Option`; [`RingSink`] keeps the last N records for
//!   tests; [`JsonlSink`] renders one JSON object per line onto its byte
//!   stream for offline analysis.
//! * **Recorders** are per-session handles threaded through construction.
//!   Each [`Recorder`] owns its gauge/counter channels (so parallel sessions
//!   never share state) and optionally forwards to a sink. Handles are
//!   `Arc<Mutex<…>>`, so a session — recorder, channels, sink handle and
//!   all — is `Send` and may be shipped to a worker shard; the sharded
//!   grid driver gives each entity its own [`BufferSink`] and merges the
//!   buffers into the real sink in fixed entity order at each subframe
//!   barrier, so the merged stream is identical at any shard width.
//!   Cloning a recorder shares its channels — that is how one session
//!   hands the same registry to its pacer, encoder, and rate controller.
//!
//! Determinism contract: probes observe, they never influence. A recorder
//! draws no randomness, schedules no events, and never changes a control
//! decision; swapping sinks (or removing the recorder entirely) must leave
//! simulation output byte-identical. The determinism suite pins this.

use crate::json::{self, JsonObject, JsonOut, JsonValue};
use crate::series::TimeSeries;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Version of the JSONL trace format. Bump when the record or metadata
/// shape changes; `poi360-analyse` warns when it aggregates across
/// mismatched versions. Version 2 names a probe on its first line of a run
/// segment and refers to it by id after ([`LineProbe`]); version 1 named
/// it on every line, and its lines still read.
pub const TRACE_SCHEMA_VERSION: u64 = 2;

/// Probe ids one run segment may give: `0..MAX_PROBE_IDS`. A
/// [`JsonlSink`] names a probe met past them on every line, as version 1
/// did; a reader refuses a line that gives an id past them.
pub const MAX_PROBE_IDS: u64 = u16::MAX as u64;

/// The git commit of the working tree, or `"unknown"` outside one.
/// Stamped into JSONL metadata records (and the `benchmark/` results) so
/// every artifact is attributable to a revision.
/// `git` is spawned once per process: a suite stamps dozens of sinks.
pub fn git_commit() -> String {
    static COMMIT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    COMMIT
        .get_or_init(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        })
        .clone()
}

/// Provenance metadata stamped as the leading record of a JSONL trace
/// artifact. A metadata line is distinguished from probe records by its
/// `"meta"` field; [`RunMeta::from_json`] is the inverse used by
/// `poi360-analyse`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMeta {
    /// Trace format version ([`TRACE_SCHEMA_VERSION`] at write time).
    pub schema: u64,
    /// Git commit of the producing tree (`"unknown"` outside one).
    pub commit: String,
    /// Command line of the producing process.
    pub argv: Vec<String>,
    /// Seed of the traced run.
    pub seed: u64,
}

impl RunMeta {
    /// Metadata for the current process at the current schema version.
    pub fn current(seed: u64) -> RunMeta {
        RunMeta {
            schema: TRACE_SCHEMA_VERSION,
            commit: git_commit(),
            argv: std::env::args().collect(),
            seed,
        }
    }

    /// Render the metadata JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        JsonObject::new()
            .field("meta", &"poi360.trace")
            .field("schema", &self.schema)
            .field("commit", &self.commit)
            .field("argv", &self.argv)
            .field("seed", &self.seed)
            .finish()
    }

    /// True when a parsed JSONL line is a metadata record.
    pub fn is_meta(v: &JsonValue) -> bool {
        v.get("meta").and_then(|m| m.as_str()) == Some("poi360.trace")
    }

    /// Parse a metadata record back out of a JSONL line. `None` when the
    /// line is not a metadata record at all; `Some(Err)` when it claims
    /// to be one but is malformed.
    pub fn from_json(v: &JsonValue) -> Option<Result<RunMeta, String>> {
        if !RunMeta::is_meta(v) {
            return None;
        }
        let parse = || -> Result<RunMeta, &'static str> {
            let schema = v
                .get("schema")
                .and_then(|s| s.as_f64())
                .ok_or("meta record without a numeric `schema`")?;
            let commit = v
                .get("commit")
                .and_then(|c| c.as_str())
                .ok_or("meta record without a `commit` string")?
                .to_string();
            let argv = v
                .get("argv")
                .and_then(|a| a.as_array())
                .ok_or("meta record without an `argv` array")?
                .iter()
                .map(|s| s.as_str().map(str::to_string).ok_or("non-string argv entry"))
                .collect::<Result<Vec<_>, _>>()?;
            let seed =
                v.get("seed").and_then(|s| s.as_f64()).ok_or("meta record without a `seed`")?;
            Ok(RunMeta { schema: schema as u64, commit, argv, seed: seed as u64 })
        };
        Some(parse().map_err(|e: &str| e.to_string()))
    }
}

/// What kind of measurement a [`TraceRecord`] carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// A monotonic accumulation; `value` is the increment, not the total.
    Counter,
    /// An instantaneous scalar sample.
    Gauge,
    /// A point event, forwarded to the sink but not retained.
    Event,
}

impl ProbeKind {
    /// Stable lowercase name used in JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            ProbeKind::Counter => "counter",
            ProbeKind::Gauge => "gauge",
            ProbeKind::Event => "event",
        }
    }

    /// Inverse of [`ProbeKind::as_str`]; `None` for any other spelling.
    pub fn parse(s: &str) -> Option<ProbeKind> {
        match s {
            "counter" => Some(ProbeKind::Counter),
            "gauge" => Some(ProbeKind::Gauge),
            "event" => Some(ProbeKind::Event),
            _ => None,
        }
    }
}

/// One probe emission as seen by a sink.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// Simulation time of the emission.
    pub at: SimTime,
    /// Static probe name, `layer.signal` convention.
    pub name: &'static str,
    /// Counter, gauge, or event.
    pub kind: ProbeKind,
    /// Sample value (counter increments are cast to `f64`).
    pub value: f64,
}

/// `{"t_us":<t>`: the piece of a line before its middle.
///
/// A JSONL line is three pieces: this head, the middle
/// [`LineProbe::write_middle`] renders from what the line says of its
/// probe, and [`write_tail`]. [`JsonlRecord::write_jsonl`] joins them,
/// [`JsonlSink`] joins them straight into the bytes of its stream and
/// copies each probe's later middle, and [`TracePrefix`] joins them with
/// the source tag left out, so these three functions are the one
/// definition of the line. The field order (`t_us`, `id`, `src`, `name`,
/// `kind`, `value`) is pinned by the round-trip tests and must match what
/// [`JsonObject`] would emit.
fn write_head<B: JsonOut + ?Sized>(t_us: u64, out: &mut B) {
    out.push_str("{\"t_us\":");
    json::write_u64(t_us, out);
}

/// `<value>}`: the piece after the middle.
fn write_tail<B: JsonOut + ?Sized>(value: f64, out: &mut B) {
    json::write_f64(value, out);
    out.push_str("}");
}

/// What a record line says about its probe. Within a run segment (from
/// one [`RunMeta`] stamp to the next) the first line of a probe names it
/// and gives it the segment's next id, counted from 0; every later line
/// refers to it by that id alone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LineProbe<S> {
    /// The line names its probe: source tag, probe name and kind. `id`
    /// is the one it gives the probe: `None` on a schema 1 line, which
    /// gives none, and past [`MAX_PROBE_IDS`].
    Names {
        /// The id given, if any.
        id: Option<u64>,
        /// Source tag.
        src: S,
        /// Probe name.
        name: S,
        /// Counter, gauge, or event.
        kind: ProbeKind,
    },
    /// The line refers to the probe its segment gave `id`.
    Refers {
        /// An id a line before it in its segment gave.
        id: u64,
    },
}

impl LineProbe<&str> {
    /// The middle of a line, between its timestamp and its value:
    /// `[,"id":K],"src":…,"name":…,"kind":…,"value":` on a line that names
    /// its probe, `,"id":K,"value":` on one that refers to it. Returns
    /// where the source tag's escaped text starts in `out` on a line that
    /// names its probe.
    fn write_middle<B: JsonOut + ?Sized>(&self, out: &mut B) -> Option<usize> {
        let id = match *self {
            LineProbe::Names { id, .. } => id,
            LineProbe::Refers { id } => Some(id),
        };
        if let Some(id) = id {
            out.push_str(",\"id\":");
            json::write_u64(id, out);
        }
        let mut tag_at = None;
        if let LineProbe::Names { src, name, kind, .. } = *self {
            out.push_str(",\"src\":");
            // Past the tag's opening quote.
            tag_at = Some(out.byte_len() + 1);
            json::write_json_string(src, out);
            out.push_str(",\"name\":");
            json::write_json_string(name, out);
            out.push_str(",\"kind\":");
            json::write_json_string(kind.as_str(), out);
        }
        out.push_str(",\"value\":");
        tag_at
    }
}

/// One probe record line, its strings borrowed, as
/// [`JsonlRecord::write_jsonl`] renders it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JsonlRecord<'a> {
    /// Simulation time, microseconds.
    pub t_us: u64,
    /// The probe, named or referred to by id.
    pub probe: LineProbe<&'a str>,
    /// Sample value; `null` (a non-finite float at write time) is NaN.
    pub value: f64,
}

impl JsonlRecord<'_> {
    /// Write this record's line, without a newline, and return where the
    /// source tag's escaped text starts in `out` when the line names its
    /// probe. A record that names its probe without an id is a schema 1
    /// line: tests render streams that way to compare them with what
    /// schema 1 wrote.
    pub fn write_jsonl<B: JsonOut + ?Sized>(&self, out: &mut B) -> Option<usize> {
        write_head(self.t_us, out);
        let tag_at = self.probe.write_middle(out);
        write_tail(self.value, out);
        tag_at
    }
}

/// One probe record as [`RawJsonlRecord::read_front`] finds it in raw
/// bytes: a [`JsonlRecord`] whose strings are the bytes between their
/// quotes, not yet known to be UTF-8.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RawJsonlRecord<'a> {
    /// Simulation time, microseconds.
    pub t_us: u64,
    /// The probe, named or referred to by id.
    pub probe: LineProbe<&'a [u8]>,
    /// Sample value; `null` (a non-finite float at write time) is NaN.
    pub value: f64,
}

impl<'a> RawJsonlRecord<'a> {
    /// The cursor over [`JsonlSink`]'s record lines: recognise
    /// exactly the byte layouts it emits at the front of `bytes` —
    /// `{"t_us":<digits>,"id":<digits>,"value":<number|null>}`, and
    /// `{"t_us":<digits>[,"id":<digits>],"src":"…","name":"…","kind":"counter|gauge|event","value":<number|null>}`
    /// with 1-15 digits per integer, no whitespace and no backslash or
    /// newline in any string, then a `\n` or the end of `bytes` — and hand
    /// back the fields as slices of `bytes` with what follows that newline,
    /// allocating nothing. A reader walks a document record by record with
    /// it: finding the end of the line is the parse. Every byte it takes is
    /// ASCII it checked, except the two strings' contents: whether those
    /// are UTF-8 is the caller's question.
    ///
    /// This is a shortcut, not a second definition of the format: it
    /// returns `None` the moment a byte is not what the writer would have
    /// put there (an escaped string, reordered keys, a 16-digit integer,
    /// trailing blanks, a `\r` before the newline), and the caller then
    /// runs the line through [`crate::json::parse_json`], which alone
    /// decides what ingests and what the error says. Whatever it does
    /// return is what that generic path would have read from the same
    /// bytes: 15 digits stay below 2^53, where `f64` still holds every
    /// integer, and the value is the one `str::parse::<f64>` reads from
    /// the same token (see [`short_decimal`]). Whether an id was given
    /// before a line uses it is the reader's question too.
    pub fn read_front(b: &'a [u8]) -> Option<(RawJsonlRecord<'a>, &'a [u8])> {
        let (t_us, mut at) = digits(b, skip(b, 0, b"{\"t_us\":")?)?;
        let mut id = None;
        if let Some(id_at) = skip(b, at, b",\"id\":") {
            let (k, end) = digits(b, id_at)?;
            (id, at) = (Some(k), end);
        }
        let probe = match (id, skip(b, at, b",\"value\":")) {
            (Some(id), Some(value_at)) => {
                at = value_at;
                LineProbe::Refers { id }
            }
            _ => {
                let src_at = skip(b, at, b",\"src\":\"")?;
                let src_end = plain_string_end(b, src_at)?;
                let name_at = skip(b, src_end, b"\",\"name\":\"")?;
                let name_end = plain_string_end(b, name_at)?;
                at = skip(b, name_end, b"\",\"kind\":\"")?;
                // The first byte decides the kind; the rest must spell it.
                let (kind, spelled): (ProbeKind, &[u8]) = match b.get(at)? {
                    b'c' => (ProbeKind::Counter, b"counter\",\"value\":"),
                    b'g' => (ProbeKind::Gauge, b"gauge\",\"value\":"),
                    b'e' => (ProbeKind::Event, b"event\",\"value\":"),
                    _ => return None,
                };
                at = skip(b, at, spelled)?;
                let (src, name) = (&b[src_at..src_end], &b[name_at..name_end]);
                LineProbe::Names { id, src, name, kind }
            }
        };
        let (value, at) = match skip(b, at, b"null") {
            Some(end) => (f64::NAN, end),
            None => number(b, at)?,
        };
        let at = skip(b, at, b"}")?;
        let rest = match b.get(at) {
            None => &[],
            Some(b'\n') => &b[at + 1..],
            Some(_) => return None,
        };
        Some((RawJsonlRecord { t_us, probe, value }, rest))
    }
}

/// The integer of 1 to 15 decimal digits at `at`, and the index after
/// them.
fn digits(b: &[u8], mut at: usize) -> Option<(u64, usize)> {
    let (start, mut n) = (at, 0u64);
    while let Some(&d @ b'0'..=b'9') = b.get(at) {
        if at - start == 15 {
            return None;
        }
        n = n * 10 + u64::from(d - b'0');
        at += 1;
    }
    (at > start).then_some((n, at))
}

/// `at` moved past `lit` when `b` spells it there.
fn skip(b: &[u8], at: usize, lit: &[u8]) -> Option<usize> {
    b.get(at..)?.starts_with(lit).then_some(at + lit.len())
}

/// Index of the closing quote of the JSON string whose contents start at
/// `at`, when they need no unescaping and stay on one line: `None` at a
/// backslash, a newline or the end of `b`. Eight bytes per step: a byte
/// of `w` equal to `c` is a zero byte of `w ^ c·0x0101…`, and
/// `(x - 0x0101…) & !x & 0x8080…` sets the high bit of every zero byte
/// of `x` — exactly at the lowest one, as a borrow only runs upward — so
/// the lowest set bit over the three stop bytes is the first of them.
fn plain_string_end(b: &[u8], mut at: usize) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    let zeros = |x: u64| x.wrapping_sub(ONES) & !x & (ONES << 7);
    let stops = |w: u64| {
        zeros(w ^ (ONES * u64::from(b'"')))
            | zeros(w ^ (ONES * u64::from(b'\\')))
            | zeros(w ^ (ONES * u64::from(b'\n')))
    };
    while let Some(word) = b[at..].first_chunk::<8>() {
        let hit = stops(u64::from_le_bytes(*word));
        if hit != 0 {
            at += hit.trailing_zeros() as usize / 8;
            return (b[at] == b'"').then_some(at);
        }
        at += 8;
    }
    let end = at + b[at..].iter().position(|&c| matches!(c, b'"' | b'\\' | b'\n'))?;
    (b[end] == b'"').then_some(end)
}

/// Bytes the generic JSON lexer takes into a number token.
fn is_number_byte(c: u8) -> bool {
    matches!(c, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
}

/// The number token at `start` and the index after it, read as the
/// generic path reads it: the lexer takes a `-` or a digit and then every
/// number byte, and `str::parse::<f64>` reads the token. A short decimal
/// takes [`short_decimal`]; any other token goes through that same
/// `str::parse`. `str::parse` also reads `inf` and `nan` spellings, which
/// the lexer refuses; they and overflowing exponents are the only ways to
/// a non-finite result, so a finite one proves the token was made of
/// number bytes, and a non-finite one is declined.
fn number(b: &[u8], start: usize) -> Option<(f64, usize)> {
    if !matches!(b.get(start), Some(b'-' | b'0'..=b'9')) {
        return None;
    }
    if let Some(read) = short_decimal(b, start) {
        return Some(read);
    }
    let len = b[start..].iter().position(|&c| !is_number_byte(c)).unwrap_or(b.len() - start);
    let token = std::str::from_utf8(&b[start..start + len]).ok()?;
    let value = token.parse().ok().filter(|v: &f64| v.is_finite())?;
    Some((value, start + len))
}

/// `10^k` for every `k` whose power of ten an `f64` holds exactly:
/// `10^k = 2^k·5^k` and `5^22 < 2^53`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The value of a number token of the form `-?digits[.digits]` at
/// `start` — at most 15 significant digits (leading zeros do not count),
/// at most 22 after the point, no exponent — and the index after it;
/// `None` for any other token. Such a token is `±m / 10^k` with
/// `m < 10^15 < 2^53` and `k ≤ 22`, so `m as f64` and `10^k` are both
/// exact and the division rounds the exact quotient once, to nearest:
/// the correctly rounded value, which is what `str::parse::<f64>`
/// returns for the same token. The sign is applied after, so `-0` is
/// `-0.0` as there.
fn short_decimal(b: &[u8], start: usize) -> Option<(f64, usize)> {
    let neg = b.get(start) == Some(&b'-');
    let mut at = start + usize::from(neg);
    let (mut m, mut significant, mut digits, mut point) = (0u64, 0u32, 0usize, None);
    loop {
        match b.get(at) {
            Some(&d @ b'0'..=b'9') => {
                // Wraps only after 19 significant digits, long declined.
                m = m.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                significant += u32::from(m != 0);
                digits += 1;
            }
            Some(b'.') if point.is_none() => point = Some(digits),
            _ => break,
        }
        at += 1;
    }
    let fraction = digits - point.unwrap_or(digits);
    if digits == 0
        || significant > 15
        || fraction > 22
        || b.get(at).is_some_and(|&c| is_number_byte(c))
    {
        return None;
    }
    let value = m as f64 / POW10[fraction];
    Some((if neg { -value } else { value }, at))
}

/// Receiver of probe emissions.
///
/// Contract: a sink is a pure observer. It must not panic on any record and
/// must tolerate interleaved sources (`src` distinguishes them). The handle
/// type is `Arc<Mutex<…>>`, so a sink may be shared across shard threads —
/// but deterministic artifacts require deterministic *record order*, which
/// concurrent emission does not give; parallel drivers must emit into
/// per-entity [`BufferSink`]s and merge them in fixed entity order at a
/// barrier instead of writing to a shared sink mid-epoch. Sinks may buffer;
/// [`TraceSink::flush`] is called when a driver wants bytes on disk.
pub trait TraceSink: Send {
    /// Accept one record from source `src`.
    fn record(&mut self, src: &str, rec: &TraceRecord);

    /// Flush any buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// Shared handle to a sink, cloneable across recorders (and shards).
pub type SinkHandle = Arc<Mutex<dyn TraceSink>>;

/// A sink that drops everything. [`Recorder::null`] avoids even the virtual
/// call, so this type exists mainly to document the bottom of the lattice
/// and for tests that need a real (if inert) sink object.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _src: &str, _rec: &TraceRecord) {}
}

/// In-memory sink retaining the most recent `cap` records, for tests.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    records: VecDeque<(String, TraceRecord)>,
}

impl RingSink {
    /// A ring holding at most `cap` records (oldest evicted first).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "a RingSink needs room for at least one record");
        RingSink { cap, records: VecDeque::with_capacity(cap.min(1024)) }
    }

    /// Wrap in the shared-handle type recorders expect.
    pub fn shared(cap: usize) -> Arc<Mutex<RingSink>> {
        Arc::new(Mutex::new(RingSink::new(cap)))
    }

    /// The retained `(src, record)` pairs, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &(String, TraceRecord)> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, src: &str, rec: &TraceRecord) {
        // Once the ring is full, recycle the evicted record's `String`
        // instead of allocating a fresh one per record.
        let mut slot = if self.records.len() == self.cap {
            self.records.pop_front().map(|(s, _)| s).unwrap_or_default()
        } else {
            String::new()
        };
        slot.clear();
        slot.push_str(src);
        self.records.push_back((slot, *rec));
    }
}

/// Per-entity staging sink for sharded drivers.
///
/// A parallel driver cannot let shard threads write to the real sink
/// directly — interleaving would depend on the schedule. Instead each
/// entity (cell, flow, grid) records into its own `BufferSink`, and at the
/// epoch barrier the driver drains the buffers into the real sink in fixed
/// entity order. Within one entity, records keep emission order; across
/// entities, the drain order is the canonical order — so the merged stream
/// is byte-identical at any shard width, including width 1.
///
/// `TraceRecord` carries no source string, so the buffer stores only the
/// records; [`BufferSink::drain_into`] stamps the entity's `src` when it
/// replays them. A recorder's own `src` is therefore ignored while staged
/// records sit in the buffer — give each entity its own buffer and pass the
/// matching `src` at drain time.
#[derive(Debug, Default)]
pub struct BufferSink {
    records: Vec<TraceRecord>,
}

impl BufferSink {
    /// An empty buffer.
    pub fn new() -> Self {
        BufferSink::default()
    }

    /// Wrap in the shared-handle type recorders expect.
    pub fn shared() -> Arc<Mutex<BufferSink>> {
        Arc::new(Mutex::new(BufferSink::new()))
    }

    /// Number of staged records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Replay every staged record into `sink` under source `src`, in
    /// emission order, then clear the buffer (capacity is retained so the
    /// steady state stays allocation-free).
    pub fn drain_into(&mut self, src: &str, sink: &mut dyn TraceSink) {
        for rec in &self.records {
            sink.record(src, rec);
        }
        self.records.clear();
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, _src: &str, rec: &TraceRecord) {
        self.records.push(*rec);
    }
}

/// One probe of a source in [`ProbeIds`].
#[derive(Clone)]
struct Named {
    name: &'static str,
    kind: ProbeKind,
    /// The id the probe was given: `None` past [`MAX_PROBE_IDS`].
    id: Option<u64>,
    /// What the probe's later lines carry between head and tail: its
    /// reference `,"id":K,"value":`, or past [`MAX_PROBE_IDS`] the whole
    /// middle that names it.
    later: Vec<u8>,
    /// Where the source tag's text starts in `later`, when it names.
    tag_at: Option<usize>,
}

impl Named {
    /// `(src, name, kind)` given `id`, its later middle rendered.
    fn new(src: &str, name: &'static str, kind: ProbeKind, id: Option<u64>) -> Named {
        let mut later = Vec::new();
        let tag_at = match id {
            Some(id) => LineProbe::Refers { id }.write_middle(&mut later),
            None => LineProbe::Names { id, src, name, kind }.write_middle(&mut later),
        };
        Named { name, kind, id, later, tag_at }
    }
}

/// Every probe a sink has named in the current run segment, and the id
/// each was given.
#[derive(Default)]
struct ProbeIds {
    /// Per source tag, its probes. Sources are matched by content, never
    /// by address: a dropped tag's allocation can come back as another
    /// tag. Names are matched by address first, then by text: two copies
    /// of one literal (possible across codegen units) are one probe, so no
    /// id depends on how a build laid its literals out.
    sources: Vec<(String, Vec<Named>)>,
    /// Index into `sources` of the last record's source; records come in
    /// runs of one source.
    current: usize,
    /// Ids given so far in this segment: the next probe's id.
    given: u64,
}

impl ProbeIds {
    /// The probes `src` has named, `src` now the current source.
    fn of(&mut self, src: &str) -> &mut Vec<Named> {
        if self.sources.get(self.current).is_none_or(|(s, _)| s != src) {
            self.current = match self.sources.iter().position(|(s, _)| s == src) {
                Some(k) => k,
                None => {
                    self.sources.push((src.to_string(), Vec::new()));
                    self.sources.len() - 1
                }
            };
        }
        &mut self.sources[self.current].1
    }

    /// `(src, rec.name, rec.kind)`, once a line of this segment has named
    /// that probe.
    fn later(&mut self, src: &str, rec: &TraceRecord) -> Option<&Named> {
        let probes = self.of(src);
        let k = match probes
            .iter()
            .position(|p| std::ptr::eq(p.name, rec.name) && p.kind == rec.kind)
        {
            Some(k) => k,
            None => {
                // Another copy of a literal already named: same probe, same
                // id, and the copy's address finds it from now on.
                let twin = probes.iter().find(|p| p.name == rec.name && p.kind == rec.kind)?;
                probes.push(Named { name: rec.name, ..twin.clone() });
                probes.len() - 1
            }
        };
        Some(&probes[k])
    }

    /// Name `rec`'s probe from `src` for the rest of the segment, with the
    /// next id while there is one, and return the record's line, which
    /// does the naming.
    fn name<'a>(&mut self, src: &'a str, rec: &TraceRecord) -> JsonlRecord<'a> {
        let id = (self.given < MAX_PROBE_IDS).then_some(self.given);
        self.given += u64::from(id.is_some());
        self.of(src).push(Named::new(src, rec.name, rec.kind, id));
        let probe = LineProbe::Names { id, src, name: rec.name, kind: rec.kind };
        JsonlRecord { t_us: rec.at.as_micros(), probe, value: rec.value }
    }

    /// Append `rec`'s line from `src` and its newline to `out`: the line
    /// that names its probe, or its head, the probe's later middle and
    /// its tail. Returns where `src`'s escaped text starts in `out` on a
    /// line that names its probe.
    fn write_line(&mut self, src: &str, rec: &TraceRecord, out: &mut Vec<u8>) -> Option<usize> {
        let tag_at = match self.later(src, rec) {
            Some(named) => {
                write_head(rec.at.as_micros(), out);
                let middle = out.len();
                out.extend_from_slice(&named.later);
                let tag_at = named.tag_at.map(|k| middle + k);
                write_tail(rec.value, out);
                tag_at
            }
            None => self.name(src, rec).write_jsonl(out),
        };
        out.push(b'\n');
        tag_at
    }

    /// These probes and ids under `src` instead of the one source that
    /// named them: what a segment holds once `src` has recorded the
    /// records that named them.
    fn renamed(&self, src: &str) -> ProbeIds {
        let sources = self
            .sources
            .iter()
            .map(|(_, probes)| {
                let probes = probes.iter().map(|p| Named::new(src, p.name, p.kind, p.id)).collect();
                (src.to_string(), probes)
            })
            .collect();
        ProbeIds { sources, current: 0, given: self.given }
    }
}

/// Streaming JSONL sink: one JSON object per probe emission, written through
/// the in-repo JSON writer.
///
/// Within a run segment — everything after a [`JsonlSink::stamp`], or
/// the whole stream of an unstamped sink — a probe's first line names it
/// and gives it the next id; its later lines carry that id instead
/// (see [`LineProbe`]).
///
/// Each line is rendered once, as bytes, straight onto the end of the
/// stream: the one write path. The stream is the `Vec<u8>` the sink owns
/// (`W` is only ever that; every method is on `JsonlSink<Vec<u8>>`), so
/// a line cannot be refused and a warmed sink allocates only as the
/// stream outgrows its capacity.
pub struct JsonlSink<W> {
    out: W,
    lines: u64,
    /// The probes of the current segment: a later record formats only
    /// its timestamp and value.
    ids: ProbeIds,
}

impl JsonlSink<Vec<u8>> {
    /// Stream records onto the end of `out`.
    pub fn to_writer(out: Vec<u8>) -> Self {
        JsonlSink { out, lines: 0, ids: ProbeIds::default() }
    }

    /// Write a [`RunMeta`] record, which starts a run segment: ids start
    /// again from 0 after it. A sink that holds one run is stamped right
    /// after it is created, before any probe record; metadata lines are
    /// not counted in [`JsonlSink::lines`].
    pub fn stamp(&mut self, meta: &RunMeta) {
        self.out.extend_from_slice(meta.to_jsonl().as_bytes());
        self.out.push(b'\n');
        self.ids = ProbeIds::default();
    }

    /// Probe-record lines written so far (metadata lines not included).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Consume the sink and hand back its stream (for byte-level
    /// comparison of two runs, say).
    pub fn into_inner(self) -> Vec<u8> {
        self.out
    }

    /// Write `prefix`'s lines from source `src` at the start of this run
    /// segment, and take over the ids they gave: the bytes, line count and
    /// ids recording the prefix's records from `src` would have left, with
    /// only `src` formatted here. Refused, with nothing written, when the
    /// segment has given an id already.
    pub fn splice(&mut self, prefix: &TracePrefix, src: &str) -> Result<(), String> {
        if self.ids.given > 0 {
            return Err(format!("this segment has given {} ids already", self.ids.given));
        }
        let mut tag = Vec::new();
        json::write_json_string(src, &mut tag);
        // The prefix keeps the quotes; the escaped text goes between them.
        let tag = &tag[1..tag.len() - 1];
        prefix.write_from(tag, &mut self.out);
        self.lines += prefix.records();
        self.ids = prefix.ids.renamed(src);
        Ok(())
    }
}

/// The opening records of a run, formatted once for whichever source
/// tag a stream gives them: [`JsonlSink::splice`] writes them at the start
/// of a run segment. It is a sink that formats each record on arrival into
/// the line [`JsonlSink`] would write for it from a source whose tag is
/// yet to be written, keeps where that tag goes, and drops the record.
/// Like a [`BufferSink`] it holds one source's records, whatever tag the
/// recorder passes.
#[derive(Default)]
pub struct TracePrefix {
    /// The lines, each naming line with an empty source tag.
    bytes: Vec<u8>,
    /// Where a tag's escaped text goes in `bytes`, ascending.
    tags: Vec<usize>,
    /// The probes the lines named and the ids they gave.
    ids: ProbeIds,
    /// Records formatted.
    records: u64,
}

impl TracePrefix {
    /// Records formatted into the prefix: each is a line of every stream
    /// it is spliced into.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Give back the growth slack: a prefix is kept while every stream it
    /// opens runs.
    pub fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.tags.shrink_to_fit();
    }

    /// Append the lines to `out` with the escaped tag `tag` written in.
    fn write_from(&self, tag: &[u8], out: &mut Vec<u8>) {
        let mut from = 0;
        for &at in &self.tags {
            out.extend_from_slice(&self.bytes[from..at]);
            out.extend_from_slice(tag);
            from = at;
        }
        out.extend_from_slice(&self.bytes[from..]);
    }
}

impl TraceSink for TracePrefix {
    fn record(&mut self, _src: &str, rec: &TraceRecord) {
        if let Some(at) = self.ids.write_line("", rec, &mut self.bytes) {
            self.tags.push(at);
        }
        self.records += 1;
    }
}

/// Run `run` against a fresh in-memory JSONL sink — stamped with `meta`
/// first when one is given — and return its result with every byte the
/// sink received. This is the one way the workspace captures a traced
/// run for byte-level comparison or artifact concatenation. The sink is
/// lent as its concrete type so a caller can also read
/// [`JsonlSink::lines`] mid-run; `sink.clone()`
/// coerces to a [`SinkHandle`] wherever a driver wants one. A thread of
/// `run` that panicked while holding the sink does not cost the bytes
/// written before the panic: the sink is taken through [`lock`].
pub fn capture<T>(
    meta: Option<&RunMeta>,
    run: impl FnOnce(&Arc<Mutex<JsonlSink<Vec<u8>>>>) -> T,
) -> (T, Vec<u8>) {
    let sink = Arc::new(Mutex::new(JsonlSink::to_writer(Vec::new())));
    if let Some(meta) = meta {
        lock(&sink).stamp(meta);
    }
    let out = run(&sink);
    let mut sink = lock(&sink);
    // A captured stream is kept (concatenated, re-parsed) long after the
    // run: hand it back without the doubling slack it grew with.
    let mut bytes = std::mem::take(&mut sink.out);
    bytes.shrink_to_fit();
    (out, bytes)
}

impl TraceSink for JsonlSink<Vec<u8>> {
    fn record(&mut self, src: &str, rec: &TraceRecord) {
        self.ids.write_line(src, rec, &mut self.out);
        self.lines += 1;
    }
}

/// Gauge channels and counters owned by one recorder (shared by clones).
#[derive(Clone, Debug, Default)]
struct Channels {
    gauges: Vec<(&'static str, TimeSeries)>,
    counters: Vec<(&'static str, u64)>,
    out_of_order_drops: u64,
}

/// Where the channel `name` sits in `channels`: the one name lookup.
/// Static names make pointer equality the common fast path; the text
/// comparison runs for a name asked for by text and for distinct
/// instantiations of the same literal (possible across codegen units).
fn find<T>(channels: &[(&'static str, T)], name: &str) -> Option<usize> {
    channels.iter().position(|&(n, _)| std::ptr::eq(n, name) || n == name)
}

/// The channel `name`, opened empty if it is not there yet.
fn open<'a, T: Default>(channels: &'a mut Vec<(&'static str, T)>, name: &'static str) -> &'a mut T {
    let k = find(channels, name).unwrap_or_else(|| {
        channels.push((name, T::default()));
        channels.len() - 1
    });
    &mut channels[k].1
}

/// Lock a recorder's channels or sink even if a thread panicked while
/// holding them. A panic mid-emission leaves at worst one partial sample or
/// record of the case that panicked; refusing the lock instead would take
/// down every other recorder on a shared [`SinkHandle`] with it.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A per-session probe handle.
///
/// Cheap to clone (two `Arc` bumps); clones share the gauge/counter channels
/// and the sink, which is how one session distributes the same recorder to
/// its pacer, encoder, uplink, and rate controller. Distinct sessions must
/// construct distinct recorders so channels are never contended; the
/// recorder is `Send`, so a whole session can be shipped to a worker shard,
/// but a correct driver still serializes the *emission order* it wants
/// (per-entity [`BufferSink`]s merged at a barrier).
#[derive(Clone)]
pub struct Recorder {
    channels: Arc<Mutex<Channels>>,
    sink: Option<SinkHandle>,
    src: Arc<str>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::null()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("src", &self.src)
            .field("has_sink", &self.sink.is_some())
            .field("channels", &self.channels)
            .finish()
    }
}

impl Recorder {
    /// A recorder with no sink: gauges and counters are retained for report
    /// derivation, `event()` compiles down to a branch on a `None`.
    pub fn null() -> Self {
        Recorder {
            channels: Arc::new(Mutex::new(Channels::default())),
            sink: None,
            src: Arc::from("session"),
        }
    }

    /// A recorder forwarding every emission to `sink`, tagged as coming
    /// from `src` ("session", "cell", "fg.00", ...).
    pub fn to_sink(sink: SinkHandle, src: &str) -> Self {
        Recorder {
            channels: Arc::new(Mutex::new(Channels::default())),
            sink: Some(sink),
            src: Arc::from(src),
        }
    }

    /// A recorder whose channels start as a deep copy of this one's —
    /// every gauge series, counter and the out-of-order count — forwarding
    /// to `sink` as `src`. From here on the two share nothing: what a
    /// branched session reports through, so its report also counts what
    /// was retained before the branch.
    pub fn fork(&self, sink: SinkHandle, src: &str) -> Self {
        Recorder {
            channels: Arc::new(Mutex::new(lock(&self.channels).clone())),
            sink: Some(sink),
            src: Arc::from(src),
        }
    }

    /// Record a gauge sample: retained in the named channel and forwarded
    /// to the sink. Out-of-order samples are rejected by
    /// [`TimeSeries::try_push`] and counted instead of silently corrupting
    /// windowed reductions; see [`Recorder::out_of_order_drops`].
    pub fn gauge(&self, name: &'static str, at: SimTime, value: f64) {
        {
            let mut ch = lock(&self.channels);
            if open(&mut ch.gauges, name).try_push(at, value).is_err() {
                ch.out_of_order_drops += 1;
                debug_assert!(false, "out-of-order gauge sample on {name}");
                return;
            }
        }
        self.emit(name, at, ProbeKind::Gauge, value);
    }

    /// Increment the named counter by `n` and forward the increment.
    pub fn count(&self, name: &'static str, at: SimTime, n: u64) {
        *open(&mut lock(&self.channels).counters, name) += n;
        self.emit(name, at, ProbeKind::Counter, n as f64);
    }

    /// Record a point event: sink-only, nothing retained. With no sink this
    /// is a single branch, so per-subframe call sites stay effectively free.
    pub fn event(&self, name: &'static str, at: SimTime, value: f64) {
        if self.sink.is_none() {
            return;
        }
        self.emit(name, at, ProbeKind::Event, value);
    }

    fn emit(&self, name: &'static str, at: SimTime, kind: ProbeKind, value: f64) {
        if let Some(sink) = &self.sink {
            lock(sink).record(&self.src, &TraceRecord { at, name, kind, value });
        }
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        let ch = lock(&self.channels);
        find(&ch.counters, name).map_or(0, |k| ch.counters[k].1)
    }

    /// Move the named gauge channel out of the recorder (empty series if the
    /// probe never fired), shrunk to its length. Reports call this once at
    /// the end of a run so the samples transfer without a copy and without
    /// the growth slack the live channel needed.
    pub fn take_gauge(&self, name: &str) -> TimeSeries {
        let mut ch = lock(&self.channels);
        match find(&ch.gauges, name) {
            Some(idx) => {
                let mut series = std::mem::take(&mut ch.gauges[idx].1);
                series.shrink_to_fit();
                series
            }
            None => TimeSeries::new(),
        }
    }

    /// Snapshot of a gauge channel without consuming it.
    pub fn gauge_series(&self, name: &str) -> TimeSeries {
        let ch = lock(&self.channels);
        find(&ch.gauges, name).map_or_else(TimeSeries::new, |k| ch.gauges[k].1.clone())
    }

    /// Gauge samples rejected for arriving out of chronological order.
    pub fn out_of_order_drops(&self) -> u64 {
        lock(&self.channels).out_of_order_drops
    }

    /// Flush the attached sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            lock(sink).flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, JsonValue};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// `rec`'s line from source `src` (no newline) when it names its
    /// probe and gives it `id`, written piece by piece with no memo.
    fn named_line(rec: &TraceRecord, src: &str, id: Option<u64>) -> String {
        let probe = LineProbe::Names { id, src, name: rec.name, kind: rec.kind };
        let mut out = String::new();
        JsonlRecord { t_us: rec.at.as_micros(), probe, value: rec.value }.write_jsonl(&mut out);
        out
    }

    /// `rec`'s line when it refers to its probe by `id`.
    fn ref_line(rec: &TraceRecord, id: u64) -> String {
        let probe = LineProbe::Refers { id };
        let mut out = String::new();
        JsonlRecord { t_us: rec.at.as_micros(), probe, value: rec.value }.write_jsonl(&mut out);
        out
    }

    /// `rec`'s schema 1 line from source `src`: it names its probe and
    /// gives it no id.
    fn jsonl_line(rec: &TraceRecord, src: &str) -> String {
        named_line(rec, src, None)
    }

    /// The lines a sink writes, modelled without its memo: a probe is one
    /// `(src, name text, kind)`, named with the next id on its first line.
    #[derive(Default)]
    struct Model {
        named: Vec<(String, &'static str, ProbeKind)>,
    }

    impl Model {
        fn line(&mut self, src: &str, rec: &TraceRecord) -> String {
            let same = |(s, n, k): &(String, &str, ProbeKind)| {
                s == src && *n == rec.name && *k == rec.kind
            };
            match self.named.iter().position(same) {
                Some(id) => ref_line(rec, id as u64),
                None => {
                    self.named.push((src.to_string(), rec.name, rec.kind));
                    named_line(rec, src, Some(self.named.len() as u64 - 1))
                }
            }
        }
    }

    #[test]
    fn null_recorder_retains_gauges_and_counters() {
        let rec = Recorder::null();
        rec.gauge("pacer.rate_bps", t(1), 1.0e6);
        rec.gauge("pacer.rate_bps", t(2), 2.0e6);
        rec.count("video.frame_encoded", t(2), 1);
        rec.count("video.frame_encoded", t(3), 1);
        rec.event("cell.prb_grant", t(3), 40.0); // dropped: no sink
        assert_eq!(rec.gauge_series("pacer.rate_bps").len(), 2);
        assert_eq!(rec.counter("video.frame_encoded"), 2);
        assert_eq!(rec.counter("never.fired"), 0);
        let taken = rec.take_gauge("pacer.rate_bps");
        assert_eq!(taken.len(), 2);
        assert!(rec.gauge_series("pacer.rate_bps").is_empty(), "take moves the samples out");
    }

    #[test]
    fn clones_share_channels() {
        let rec = Recorder::null();
        let clone = rec.clone();
        clone.count("fbcc.congestion_detected", t(5), 1);
        clone.gauge("uplink.phy_rate_bps", t(5), 9.0e6);
        assert_eq!(rec.counter("fbcc.congestion_detected"), 1);
        assert_eq!(rec.gauge_series("uplink.phy_rate_bps").len(), 1);
    }

    #[test]
    fn fork_copies_channels_then_shares_nothing() {
        let rec = Recorder::null();
        rec.count("video.frame_encoded", t(1), 2);
        rec.gauge("pacer.rate_bps", t(1), 1.0e6);
        let ring = RingSink::shared(8);
        let fork = rec.fork(ring.clone(), "rlf.fbcc");
        assert_eq!(fork.counter("video.frame_encoded"), 2, "counters copied");
        assert_eq!(fork.gauge_series("pacer.rate_bps").len(), 1, "gauges copied");

        fork.count("video.frame_encoded", t(2), 1);
        fork.gauge("pacer.rate_bps", t(2), 2.0e6);
        rec.gauge("pacer.rate_bps", t(3), 3.0e6);
        assert_eq!(rec.counter("video.frame_encoded"), 2, "the fork's counts stay its own");
        assert_eq!(fork.gauge_series("pacer.rate_bps").values(), vec![1.0e6, 2.0e6]);
        assert_eq!(rec.gauge_series("pacer.rate_bps").values(), vec![1.0e6, 3.0e6]);
        let srcs: Vec<String> = ring.lock().unwrap().records().map(|(s, _)| s.clone()).collect();
        assert_eq!(srcs, ["rlf.fbcc", "rlf.fbcc"], "only what the fork emits reaches its sink");
    }

    #[test]
    fn ring_sink_sees_all_kinds_and_evicts_oldest() {
        let ring = RingSink::shared(2);
        let rec = Recorder::to_sink(ring.clone(), "fg.00");
        rec.count("a.one", t(1), 1);
        rec.gauge("a.two", t(2), 2.0);
        rec.event("a.three", t(3), 3.0);
        let sink = ring.lock().unwrap();
        assert_eq!(sink.len(), 2, "capacity 2 evicts the oldest");
        let names: Vec<&str> = sink.records().map(|(_, r)| r.name).collect();
        assert_eq!(names, ["a.two", "a.three"]);
        let (src, last) = sink.records().last().unwrap();
        assert_eq!(src, "fg.00");
        assert_eq!(last.kind, ProbeKind::Event);
        assert_eq!(last.value, 3.0);
    }

    #[test]
    fn a_case_panicking_on_a_shared_sink_leaves_other_recorders_working() {
        let ring = RingSink::shared(8);
        let crashed = Recorder::to_sink(ring.clone(), "case.0");
        crashed.count("a.frames", t(1), 1);
        let joined = std::thread::spawn(move || {
            let _held = lock(crashed.sink.as_ref().expect("a sink"));
            panic!("a case panics while it holds the shared sink");
        })
        .join();
        assert!(joined.is_err() && ring.is_poisoned(), "the sink must be poisoned");

        let survivor = Recorder::to_sink(ring.clone(), "case.1");
        survivor.gauge("a.rate", t(2), 2.0);
        survivor.count("a.frames", t(3), 3);
        survivor.event("a.burst", t(4), 4.0);
        survivor.flush();
        assert_eq!(survivor.counter("a.frames"), 3);
        assert_eq!(survivor.take_gauge("a.rate").len(), 1);
        let sink = lock(&ring);
        let seen: Vec<(&str, &str)> = sink.records().map(|(s, r)| (s.as_str(), r.name)).collect();
        assert_eq!(
            seen,
            [
                ("case.0", "a.frames"),
                ("case.1", "a.rate"),
                ("case.1", "a.frames"),
                ("case.1", "a.burst")
            ]
        );
    }

    #[test]
    fn capture_keeps_the_bytes_of_a_run_that_panicked_holding_the_sink() {
        let meta = RunMeta::current(3);
        let rec = TraceRecord { at: t(1), name: "a.b", kind: ProbeKind::Gauge, value: 1.5 };
        let (joined, bytes) = capture(Some(&meta), |sink| {
            let sink = Arc::clone(sink);
            std::thread::spawn(move || {
                let mut held = lock(&sink);
                held.record("case.0", &rec);
                panic!("a traced run panics while it holds the sink");
            })
            .join()
        });
        assert!(joined.is_err(), "the run's thread must have panicked");
        let want = format!("{}\n{}\n", meta.to_jsonl(), named_line(&rec, "case.0", Some(0)));
        assert_eq!(String::from_utf8(bytes).unwrap(), want);
    }

    #[test]
    fn out_of_order_gauge_is_dropped_and_counted() {
        let rec = Recorder::null();
        rec.gauge("x.y", t(10), 1.0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rec.gauge("x.y", t(5), 2.0);
        }));
        if cfg!(debug_assertions) {
            assert!(result.is_err(), "debug builds assert on out-of-order gauges");
        } else {
            assert!(result.is_ok());
            assert_eq!(rec.out_of_order_drops(), 1);
            assert_eq!(rec.gauge_series("x.y").len(), 1);
        }
    }

    #[test]
    fn jsonl_record_round_trips_through_parser() {
        let rec = TraceRecord {
            at: t(1500),
            name: "fbcc.congestion_detected",
            kind: ProbeKind::Counter,
            value: 1.0,
        };
        let named = ["t_us", "src", "name", "kind", "value"];
        let defining = ["t_us", "id", "src", "name", "kind", "value"];
        for (line, keys) in [
            (jsonl_line(&rec, "session"), &named[..]),
            (named_line(&rec, "session", Some(12)), &defining[..]),
            (ref_line(&rec, 12), &["t_us", "id", "value"][..]),
        ] {
            let v = parse_json(&line).expect("sink output must be valid JSON");
            assert_eq!(v.get("t_us").unwrap().as_f64(), Some(1_500_000.0));
            assert_eq!(v.get("value").unwrap().as_f64(), Some(1.0));
            if keys.contains(&"id") {
                assert_eq!(v.get("id").unwrap().as_f64(), Some(12.0));
            }
            if keys.contains(&"src") {
                assert_eq!(v.get("src").unwrap().as_str(), Some("session"));
                assert_eq!(v.get("name").unwrap().as_str(), Some("fbcc.congestion_detected"));
                assert_eq!(v.get("kind").unwrap().as_str(), Some("counter"));
            }
            // Field order is part of the format: stable across runs.
            match v {
                JsonValue::Object(members) => {
                    let got: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(got, keys);
                }
                other => panic!("expected object, got {other:?}"),
            }
        }
    }

    #[test]
    fn jsonl_lines_match_the_json_object_writer_bytes() {
        // The hand-rolled hot-path writers — the line's three pieces and
        // the sink's memoized middles — must stay byte-identical to the generic
        // JsonObject layout with the integers through `{}` and the value
        // through `{:?}`: goldens and the CI `cmp` gates pin JSONL
        // artifacts at the byte level.
        let values = [
            0.0,
            -0.0,
            1e6,
            -2.25,
            9_000.0,
            1e16,
            9_999_999_999_999_998.0,
            9_007_199_254_740_991.0,
            9_007_199_254_740_993.0,
            f64::from_bits(1),
            1e-7,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let names = ["a.b", "pacer.rate_bps", "x.y"];
        let kinds = [ProbeKind::Counter, ProbeKind::Gauge, ProbeKind::Event];
        let mut sink = JsonlSink::to_writer(Vec::new());
        let (mut want, mut named) = (String::new(), Vec::new());
        for (k, &value) in values.iter().enumerate() {
            let at = SimTime::from_micros([0, 1_500_000, 7_000, 999_999_999_999_999][k % 4]);
            let rec = TraceRecord { at, name: names[k % 3], kind: kinds[k / 3 % 3], value };
            let value = if value.is_finite() { format!("{value:?}") } else { "null".into() };
            let t_us = rec.at.as_micros();
            for src in ["session", "cell.07", "we\"ird\n"] {
                let strings = JsonObject::new()
                    .field("src", &src)
                    .field("name", &rec.name)
                    .field("kind", &rec.kind.as_str())
                    .finish();
                let strings = &strings[1..strings.len() - 1];
                let v1 = format!("{{\"t_us\":{t_us},{strings},\"value\":{value}}}");
                assert_eq!(jsonl_line(&rec, src), v1, "src={src:?} rec={rec:?}");
                let line = match named.iter().position(|&p| p == (src, rec.name, rec.kind)) {
                    Some(id) => {
                        let line = format!("{{\"t_us\":{t_us},\"id\":{id},\"value\":{value}}}");
                        assert_eq!(ref_line(&rec, id as u64), line, "src={src:?} rec={rec:?}");
                        line
                    }
                    None => {
                        let id = named.len();
                        named.push((src, rec.name, rec.kind));
                        let line =
                            format!("{{\"t_us\":{t_us},\"id\":{id},{strings},\"value\":{value}}}");
                        let by_parts = named_line(&rec, src, Some(id as u64));
                        assert_eq!(by_parts, line, "src={src:?} rec={rec:?}");
                        line
                    }
                };
                sink.record(src, &rec);
                want.push_str(&line);
                want.push('\n');
            }
        }
        assert!(named.len() < values.len() * 3, "some probes must come back by id");
        assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), want);
    }

    #[test]
    fn jsonl_sink_keys_probes_by_text_not_address() {
        let rec = TraceRecord { at: t(3), name: "a.b", kind: ProbeKind::Gauge, value: 1.5 };
        let mut sink = JsonlSink::to_writer(Vec::new());
        let (mut model, mut want) = (Model::default(), Vec::new());
        let mut record = |sink: &mut JsonlSink<Vec<u8>>, src: &str, rec: &TraceRecord| {
            sink.record(src, rec);
            want.push(model.line(src, rec));
        };
        // Two sources of equal text in different allocations are one
        // source.
        let (a, b) = (String::from("fg.00"), String::from("fg.00"));
        assert!(!std::ptr::eq(a.as_ptr(), b.as_ptr()));
        record(&mut sink, &a, &rec);
        record(&mut sink, &b, &rec);
        // One source's text replaced in the same allocation: the address
        // a freed tag can hand to the next one.
        let mut reused = String::from("cell.0");
        record(&mut sink, &reused, &rec);
        let address = reused.as_ptr();
        reused.clear();
        reused.push_str("cell.1");
        assert!(std::ptr::eq(address, reused.as_ptr()));
        record(&mut sink, &reused, &rec);
        // A source dropped and another allocated in its place.
        drop(a);
        let c = String::from("fg.01");
        record(&mut sink, &c, &rec);
        record(&mut sink, &b, &rec);
        // A second copy of a name's literal is the same probe, before and
        // after the copy's address is known.
        let copy: &'static str = Box::leak(String::from("a.b").into_boxed_str());
        assert!(!std::ptr::eq(copy, rec.name));
        let twin = TraceRecord { name: copy, ..rec };
        record(&mut sink, &b, &twin);
        record(&mut sink, &b, &twin);
        record(&mut sink, &c, &TraceRecord { kind: ProbeKind::Event, ..twin });
        record(&mut sink, &b, &rec);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().collect::<Vec<_>>(), want);
        assert_eq!(text.matches("\"name\"").count(), 5, "{text}");
    }

    #[test]
    fn a_stamp_starts_the_ids_again() {
        let a = TraceRecord { at: t(1), name: "a.b", kind: ProbeKind::Gauge, value: 1.0 };
        let b = TraceRecord { name: "c.d", ..a };
        let meta = RunMeta { schema: 2, commit: "abc".into(), argv: Vec::new(), seed: 4 };
        let mut sink = JsonlSink::to_writer(Vec::new());
        sink.record("s", &a);
        sink.record("s", &b);
        sink.stamp(&meta);
        sink.record("s", &b);
        sink.record("s", &a);
        sink.record("s", &b);
        let want = [
            named_line(&a, "s", Some(0)),
            named_line(&b, "s", Some(1)),
            meta.to_jsonl(),
            named_line(&b, "s", Some(0)),
            named_line(&a, "s", Some(1)),
            ref_line(&b, 0),
        ];
        assert_eq!(sink.lines(), 5);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().collect::<Vec<_>>(), want);
    }

    #[test]
    fn past_the_last_id_a_probe_names_itself_on_every_line() {
        let a = TraceRecord { at: t(1), name: "a.b", kind: ProbeKind::Gauge, value: 1.0 };
        let b = TraceRecord { name: "c.d", ..a };
        let mut sink = JsonlSink::to_writer(Vec::new());
        sink.ids.given = MAX_PROBE_IDS - 1;
        for rec in [a, b, b, a, b] {
            sink.record("s", &rec);
        }
        let last = MAX_PROBE_IDS - 1;
        let want = [
            named_line(&a, "s", Some(last)),
            jsonl_line(&b, "s"),
            jsonl_line(&b, "s"),
            ref_line(&a, last),
            jsonl_line(&b, "s"),
        ];
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().collect::<Vec<_>>(), want);
    }

    /// What the cursor reads from `line` when it is the whole input: one
    /// record and nothing after it.
    fn read_line(line: &str) -> Option<RawJsonlRecord<'_>> {
        let (rec, rest) = RawJsonlRecord::read_front(line.as_bytes())?;
        rest.is_empty().then_some(rec)
    }

    #[test]
    fn read_front_inverts_the_line_writer() {
        let cases = [
            (0, "a.b", ProbeKind::Counter, 0.0),
            (1500, "pacer.rate_bps", ProbeKind::Gauge, 1e6),
            (7, "x.y", ProbeKind::Event, -2.25),
            (7, "x.y", ProbeKind::Event, -0.0),
            (7, "x.y", ProbeKind::Event, 1e-7),
            (7, "x.y", ProbeKind::Gauge, f64::NAN),
            (999_999_999_999, "x.y", ProbeKind::Gauge, f64::MAX),
        ];
        for (ms, name, kind, value) in cases {
            let rec = TraceRecord { at: t(ms), name, kind, value };
            let want = if value.is_finite() { value } else { f64::NAN };
            for id in [None, Some(0), Some(7), Some(999_999_999_999_999)] {
                for src in ["session", "cell.07", "", "zelle.ü"] {
                    let line = named_line(&rec, src, id);
                    let back = read_line(&line).expect("the writer's own layout");
                    assert_eq!(back.t_us, rec.at.as_micros());
                    let (src, name) = (src.as_bytes(), name.as_bytes());
                    assert_eq!(back.probe, LineProbe::Names { id, src, name, kind }, "{line}");
                    assert_eq!(back.value.to_bits(), want.to_bits(), "{line}");
                }
                // An escaped tag is the generic path's business.
                assert_eq!(read_line(&named_line(&rec, "we\"ird\n", id)), None);
                let Some(id) = id else { continue };
                let line = ref_line(&rec, id);
                let back = read_line(&line).expect("the writer's own layout");
                assert_eq!((back.t_us, back.probe), (rec.at.as_micros(), LineProbe::Refers { id }));
                assert_eq!(back.value.to_bits(), want.to_bits(), "{line}");
            }
        }
    }

    #[test]
    fn read_front_declines_whatever_is_not_the_writers_layout() {
        let line = |t: &str, value: &str| {
            format!(r#"{{"t_us":{t},"src":"s","name":"a.b","kind":"gauge","value":{value}}}"#)
        };
        assert!(read_line(&line("1", "2.5")).is_some());
        assert!(read_line(&line("999999999999999", "2.5")).is_some());
        // Values `str::parse` would take but the JSON lexer does not, and
        // ones only the generic path may judge.
        for value in ["+5", ".5", "inf", "-inf", "nan", "NaN", "infinity", "1e999", "", "-"] {
            assert_eq!(read_line(&line("1", value)), None, "value {value:?}");
        }
        for value in ["nul", "nulll", "true", "\"1\"", "1 ", " 1", "1,\"value\":2", "[1]", "1}"] {
            assert_eq!(read_line(&line("1", value)), None, "value {value:?}");
        }
        let integers = ["", "-1", "1.5", "1e3", "1000000000000000", " 1", "0x10", "\"1\"", "null"];
        for t_us in integers {
            assert_eq!(read_line(&line(t_us, "1")), None, "t_us {t_us:?}");
        }
        let ok = line("1", "1");
        let defining = ok.replace(",\"src\"", ",\"id\":3,\"src\"");
        let reference = r#"{"t_us":1,"id":3,"value":1}"#;
        assert!(read_line(&defining).is_some());
        assert!(read_line(reference).is_some());
        for id in integers {
            for other in [defining.replace(":3", &format!(":{id}")), reference.replace('3', id)] {
                assert_eq!(read_line(&other), None, "{other:?}");
            }
        }
        for other in [
            ok.replace("gauge", "histogram"),
            ok.replace("\"s\"", "\"s\\u0041\""),
            ok.replace("\":", "\": "),
            ok.replace("\"src\"", "\"source\""),
            format!("{ok} "),
            format!(" {ok}"),
            ok[..ok.len() - 1].to_string(),
            ok.replace(r#""src":"s","name":"a.b""#, r#""name":"a.b","src":"s""#),
            String::new(),
            // A line that names no probe must give an id.
            r#"{"t_us":1,"value":1}"#.into(),
            // The id goes right after the timestamp.
            ok.replace(",\"value\"", ",\"id\":3,\"value\""),
            reference.replace(r#""t_us":1,"id":3"#, r#""id":3,"t_us":1"#),
            reference.replace(",\"value\"", ",\"kind\":\"gauge\",\"value\""),
            defining.replace(":3", ":3,\"id\":3"),
        ] {
            assert_eq!(read_line(&other), None, "{other:?}");
        }
    }

    /// `short_decimal` (when it takes a token) and `number` (always) read
    /// the bits `str::parse::<f64>` reads, and `short_decimal` takes
    /// exactly the tokens of at most 15 significant and 22 fraction digits.
    #[test]
    fn short_decimal_is_str_parse_bit_for_bit() {
        let check = |token: &str, short: bool| {
            let want: f64 = token.parse().unwrap_or_else(|e| panic!("{token:?}: {e}"));
            let b = token.as_bytes();
            match short_decimal(b, 0) {
                Some((v, end)) => {
                    assert!(short, "{token:?} is not a short decimal");
                    assert_eq!((end, v.to_bits()), (b.len(), want.to_bits()), "{token:?}: {v}");
                }
                None => assert!(!short, "{token:?} is a short decimal"),
            }
            let (v, end) = number(b, 0).unwrap_or_else(|| panic!("{token:?} declined"));
            assert_eq!((end, v.to_bits()), (b.len(), want.to_bits()), "{token:?}: {v}");
        };
        for (token, short) in [
            ("0", true),
            ("-0", true),
            ("-0.0", true),
            ("00", true),
            ("-00.000", true),
            ("1.", true),
            ("-.5", true),
            ("0.30000000000000004", false),
            ("999999999999999", true),
            ("9999999999999999", false),
            ("000999999999999999.", true),
            ("0.0000000000000000000001", true),
            ("0.00000000000000000000001", false),
            ("123456789012345.0000000", false),
            ("12345678.9012345", true),
            ("2500000.0", true),
        ] {
            check(token, short);
        }
        // Signs, leading zeros, every point position, and the 15/16
        // significant-digit and 22/23 fraction-digit edges.
        let mut rng = crate::rng::SimRng::from_seed(0x5107_dec1);
        let mut pick = |n: u64| rng.next_u64() % n;
        let (mut digits, mut token) = (String::new(), String::new());
        let mut short_seen = 0;
        for _ in 0..1_000_000 {
            let significant = 1 + pick(16) as usize;
            let many_zeros = pick(4) == 0;
            let zeros = pick(if many_zeros { 26 } else { 4 }) as usize;
            digits.clear();
            digits.extend(std::iter::repeat_n('0', zeros));
            digits.push(char::from(b'1' + pick(9) as u8));
            for _ in 1..significant {
                digits.push(char::from(b'0' + pick(10) as u8));
            }
            let n = digits.len();
            let fraction = match pick(5) {
                0 => 0,
                1 | 2 => pick(n as u64 + 1) as usize,
                _ => (21 + pick(3) as usize).min(n),
            };
            token.clear();
            if pick(2) == 0 {
                token.push('-');
            }
            let (int, frac) = digits.split_at(n - fraction);
            token.push_str(if int.is_empty() { "0" } else { int });
            if fraction > 0 || pick(8) == 0 {
                token.push('.');
                token.push_str(frac);
            }
            let short = significant <= 15 && fraction <= 22;
            short_seen += usize::from(short);
            check(&token, short);
        }
        assert!((500_000..1_000_000).contains(&short_seen), "{short_seen} short decimals");
    }

    #[test]
    fn read_front_walks_a_document_line_by_line() {
        let a = TraceRecord { at: t(1), name: "a.b", kind: ProbeKind::Gauge, value: 2.5 };
        let b = TraceRecord { at: t(2), name: "c.d", kind: ProbeKind::Event, value: f64::NAN };
        let doc = format!(
            "{}\n{}\n{}\n{}",
            jsonl_line(&a, "s"),
            named_line(&b, "t", Some(0)),
            ref_line(&a, 0),
            jsonl_line(&a, "ü")
        );
        let read = RawJsonlRecord::read_front;
        let (first, rest) = read(doc.as_bytes()).expect("a writer line");
        let names = |id, src: &'static [u8], name: &'static [u8], kind| LineProbe::Names {
            id,
            src,
            name,
            kind,
        };
        assert_eq!(first.t_us, 1000);
        assert_eq!(first.probe, names(None, b"s", b"a.b", ProbeKind::Gauge));
        assert_eq!(first.value, 2.5);
        let (second, rest) = read(rest).expect("a writer line");
        assert_eq!(second.probe, names(Some(0), b"t", b"c.d", ProbeKind::Event));
        assert!(second.value.is_nan());
        let (third, rest) = read(rest).expect("a writer line");
        assert_eq!(
            (third.t_us, third.probe, third.value),
            (1000, LineProbe::Refers { id: 0 }, 2.5)
        );
        let (fourth, rest) = read(rest).expect("the last line, unterminated");
        assert_eq!((fourth.probe, rest), (names(None, "ü".as_bytes(), b"a.b", a.kind), &b""[..]));
        // A string never runs past its line, whatever follows there.
        let split = b"{\"t_us\":1,\"src\":\"a\nb\",\"name\":\"x\",\"kind\":\"gauge\",\"value\":1}";
        assert_eq!(read(split), None);
        // The strings' bytes are handed back unjudged.
        let raw = b"{\"t_us\":1,\"src\":\"\xff\",\"name\":\"x\",\"kind\":\"gauge\",\"value\":1}";
        let (back, _) = read(raw).expect("a writer line");
        assert_eq!(back.probe, names(None, b"\xff", b"x", ProbeKind::Gauge));
        // A `\r` before the newline is the generic path's business.
        for line in [jsonl_line(&a, "s"), ref_line(&a, 0)] {
            assert_eq!(RawJsonlRecord::read_front(format!("{line}\r\n").as_bytes()), None);
        }
    }

    /// A prefix formatted once and spliced into a freshly stamped sink as
    /// `src`'s, then the continuation recorded, writes what recording the
    /// prefix's records from `src` and then the continuation wrote — byte
    /// for byte, and the same `lines()` — at any branch point (none, so an
    /// empty prefix, included), for a tag that needs escaping, probes first
    /// met after the branch, a second copy of a name's literal on either
    /// side of it, a second source after it, and up to and past the last id.
    #[test]
    fn a_spliced_prefix_writes_what_recording_its_records_wrote() {
        let copy: &'static str = Box::leak(String::from("a.b").into_boxed_str());
        let names = ["a.b", "c.d", "e.f", copy];
        let kinds = [ProbeKind::Counter, ProbeKind::Gauge, ProbeKind::Event];
        let meta = RunMeta { schema: 2, commit: "abc".into(), argv: Vec::new(), seed: 4 };
        let mut rng = crate::rng::SimRng::from_seed(0x5b1ce);
        let mut records = Vec::new();
        let (mut late_probes, mut past_the_last_id) = (0, 0);
        for round in 0..2_000 {
            records.clear();
            let mut at = 0;
            for _ in 0..rng.below(40) {
                at += rng.below(3_000);
                let value = match rng.below(4) {
                    0 => f64::NAN,
                    1 => rng.below(20_000) as f64,
                    _ => rng.uniform_range(-1e6, 1e6),
                };
                let name = names[rng.below(4) as usize];
                let kind = kinds[rng.below(3) as usize];
                records.push(TraceRecord { at: SimTime::from_micros(at), name, kind, value });
            }
            let branch = rng.below(records.len() as u64 + 1) as usize;
            let src = ["fbcc.s1", "we\"ird\n", ""][round % 3];
            let first_id = if rng.chance(0.25) { MAX_PROBE_IDS - 3 } else { 0 };
            let other = |k: usize| k > branch && k.is_multiple_of(5);

            let mut recorded = JsonlSink::to_writer(Vec::new());
            recorded.stamp(&meta);
            recorded.ids.given = first_id;
            for (k, rec) in records.iter().enumerate() {
                recorded.record(if other(k) { "cell.07" } else { src }, rec);
            }

            let mut prefix = TracePrefix::default();
            prefix.ids.given = first_id;
            for rec in &records[..branch] {
                prefix.record("ignored", rec);
            }
            assert_eq!(prefix.records(), branch as u64);
            let mut spliced = JsonlSink::to_writer(Vec::new());
            spliced.stamp(&meta);
            spliced.splice(&prefix, src).expect("a freshly stamped sink");
            for (k, rec) in records.iter().enumerate().skip(branch) {
                spliced.record(if other(k) { "cell.07" } else { src }, rec);
            }

            assert_eq!(spliced.lines(), recorded.lines(), "round {round}");
            let (want, got) = (recorded.into_inner(), spliced.into_inner());
            assert!(got == want, "round {round}:\n{}", String::from_utf8_lossy(&got));
            let named_before = |rec: &TraceRecord| {
                records[..branch].iter().any(|r| r.name == rec.name && r.kind == rec.kind)
            };
            late_probes += usize::from(records[branch..].iter().any(|r| !named_before(r)));
            past_the_last_id += usize::from(
                String::from_utf8_lossy(&want).contains(&format!("\"id\":{}", MAX_PROBE_IDS - 1))
                    && branch > 0,
            );
        }
        assert!(late_probes > 500 && past_the_last_id > 50, "{late_probes} {past_the_last_id}");
    }

    #[test]
    fn a_splice_into_a_segment_that_gave_ids_is_refused() {
        let rec = TraceRecord { at: t(1), name: "a.b", kind: ProbeKind::Gauge, value: 1.0 };
        let mut prefix = TracePrefix::default();
        prefix.record("ignored", &rec);
        let mut sink = JsonlSink::to_writer(Vec::new());
        sink.record("s", &rec);
        assert!(sink.splice(&prefix, "s").is_err(), "the segment gave id 0");
        assert_eq!((sink.lines(), sink.out.len()), (1, named_line(&rec, "s", Some(0)).len() + 1));
        // A stamp starts a segment that has given none.
        sink.stamp(&RunMeta { schema: 2, commit: "abc".into(), argv: Vec::new(), seed: 4 });
        assert!(sink.splice(&prefix, "s").is_ok());
        assert_eq!(sink.lines(), 2);
    }

    #[test]
    fn jsonl_sink_line_scratch_does_not_leak_stale_bytes() {
        // A long line followed by a short one: with a reused scratch the
        // short line must not carry the long line's tail.
        let mut sink = JsonlSink::to_writer(Vec::new());
        let long = TraceRecord {
            at: t(123_456),
            name: "grid.interference_db_very_long_probe_name",
            kind: ProbeKind::Gauge,
            value: 1.234_567_890_123e-7,
        };
        let short = TraceRecord { at: t(1), name: "a.b", kind: ProbeKind::Counter, value: 1.0 };
        sink.record("cell.with.a.long.source.identifier", &long);
        sink.record("s", &short);
        sink.record("cell.with.a.long.source.identifier", &long);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let want = format!(
            "{}\n{}\n{}\n",
            named_line(&long, "cell.with.a.long.source.identifier", Some(0)),
            named_line(&short, "s", Some(1)),
            ref_line(&long, 0),
        );
        assert_eq!(text, want);
    }

    #[test]
    fn ring_sink_eviction_recycles_srcs_without_corruption() {
        let mut ring = RingSink::new(2);
        let rec = TraceRecord { at: t(1), name: "a.b", kind: ProbeKind::Gauge, value: 0.0 };
        for src in ["a-rather-long-source-name", "x", "medium.src", "y"] {
            ring.record(src, &rec);
        }
        let got: Vec<&str> = ring.records().map(|(src, _)| src.as_str()).collect();
        assert_eq!(got, ["medium.src", "y"], "recycled strings must carry only the new src");
    }

    #[test]
    fn run_meta_round_trips_and_is_distinguished_from_records() {
        let meta = RunMeta {
            schema: TRACE_SCHEMA_VERSION,
            commit: "0123456789abcdef0123456789abcdef01234567".into(),
            argv: vec!["reproduce".into(), "study".into(), "cc_matrix".into()],
            seed: 77,
        };
        let line = meta.to_jsonl();
        let v = parse_json(&line).expect("meta line is valid JSON");
        assert!(RunMeta::is_meta(&v));
        let back = RunMeta::from_json(&v).expect("is a meta record").expect("parses");
        assert_eq!(back, meta);
        // A probe record is not a metadata record.
        let rec = TraceRecord { at: t(1), name: "a.b", kind: ProbeKind::Gauge, value: 1.0 };
        let rec_v = parse_json(&jsonl_line(&rec, "s")).unwrap();
        assert!(!RunMeta::is_meta(&rec_v));
        assert!(RunMeta::from_json(&rec_v).is_none());
    }

    #[test]
    fn run_meta_rejects_malformed_meta_lines() {
        let v = parse_json(r#"{"meta":"poi360.trace","schema":"one"}"#).unwrap();
        let err = RunMeta::from_json(&v).expect("claims to be meta").unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn sink_stamp_writes_leading_meta_line() {
        let mut sink = JsonlSink::to_writer(Vec::new());
        sink.stamp(&RunMeta::current(9));
        let r = TraceRecord { at: t(1), name: "a.b", kind: ProbeKind::Gauge, value: 2.0 };
        sink.record("s", &r);
        assert_eq!(sink.lines(), 1, "meta lines are not probe records");
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = parse_json(lines[0]).unwrap();
        assert!(RunMeta::is_meta(&first));
        assert_eq!(RunMeta::from_json(&first).unwrap().unwrap().seed, 9);
        assert!(!RunMeta::is_meta(&parse_json(lines[1]).unwrap()));
    }

    #[test]
    fn recorder_and_sink_handles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Recorder>();
        assert_send::<SinkHandle>();
        assert_send::<BufferSink>();
    }

    #[test]
    fn buffer_sink_replays_in_order_under_drain_src() {
        let buf = BufferSink::shared();
        let rec = Recorder::to_sink(buf.clone(), "ignored-while-staged");
        rec.gauge("a.one", t(1), 1.0);
        rec.count("a.two", t(2), 3);
        rec.event("a.three", t(3), 4.0);
        assert_eq!(buf.lock().unwrap().len(), 3);

        let mut ring = RingSink::new(8);
        buf.lock().unwrap().drain_into("cell.07", &mut ring);
        assert!(buf.lock().unwrap().is_empty(), "drain clears the buffer");
        let got: Vec<(String, &'static str)> =
            ring.records().map(|(src, r)| (src.clone(), r.name)).collect();
        assert_eq!(
            got,
            vec![
                ("cell.07".to_string(), "a.one"),
                ("cell.07".to_string(), "a.two"),
                ("cell.07".to_string(), "a.three"),
            ],
            "emission order kept, drain src stamped"
        );
    }

    #[test]
    fn buffer_sink_drain_retains_capacity_for_recycling() {
        let mut buf = BufferSink::new();
        let rec = TraceRecord { at: t(1), name: "a.b", kind: ProbeKind::Gauge, value: 1.0 };
        for _ in 0..64 {
            TraceSink::record(&mut buf, "ignored", &rec);
        }
        let mut ring = RingSink::new(8);
        buf.drain_into("cell.00", &mut ring);
        assert!(buf.is_empty());
        assert!(buf.records.capacity() >= 64, "drain must not give the backing storage back");
        // A second fill of the same size stays within the retained capacity.
        let cap = buf.records.capacity();
        for _ in 0..64 {
            TraceSink::record(&mut buf, "ignored", &rec);
        }
        assert_eq!(buf.records.capacity(), cap);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut sink = JsonlSink::to_writer(Vec::new());
        let r1 =
            TraceRecord { at: t(1), name: "cell.prb_grant", kind: ProbeKind::Event, value: 40.0 };
        let r2 =
            TraceRecord { at: t(2), name: "cell.prb_grant", kind: ProbeKind::Event, value: 38.0 };
        let r3 =
            TraceRecord { at: t(2), name: "pacer.rate_bps", kind: ProbeKind::Gauge, value: 1e6 };
        sink.record("cell", &r1);
        sink.record("cell", &r2);
        sink.record("session", &r3);
        assert_eq!(sink.lines(), 3);
        let text = String::from_utf8(std::mem::take(&mut sink.out)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            parse_json(line).expect("every JSONL line parses");
        }
    }
}
