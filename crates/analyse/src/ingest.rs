//! JSONL ingest: probe trace artifacts → typed, indexed run records.
//!
//! A trace file is a sequence of JSON objects, one per line: zero or
//! more [`RunMeta`] stamps (one per producing run — suite artifacts
//! concatenate several runs) interleaved before each run's probe
//! records. A stamp starts a run segment. In a segment, a probe's first
//! record `{t_us, id, src, name, kind, value}` names it and gives it the
//! segment's next id; its later records are `{t_us, id, value}`. A record
//! without an id (schema 1 wrote only those) names its probe and gives
//! nothing. Parsing interns the `src` and `name` strings into dense ids
//! in first-appearance order — the stream itself is deterministic, so the
//! ids are too — and keeps the records in stream order so downstream
//! consumers can rely on both.
//!
//! A document is parsed in newline-aligned chunks on the shared worker
//! pool, each into its own window of one `records` reservation with
//! names interned per chunk; a merge then renumbers ids and segments into
//! what one pass over the whole document assigns, and resolves the
//! records that refer to ids an earlier chunk gave. A serial parse is the
//! one-chunk case of the same code. Within a chunk one cursor walks the
//! bytes record by record; only lines not in the writer's layouts are cut
//! out and read as JSON.
//!
//! A record is 24 bytes, its segment and ids 16-bit: a trace holds at
//! most [`MAX_IDS`] stamps, sources and probe names, and one past that is
//! an error, not a wrapped id.

use poi360_sim::json::{parse_json, JsonValue};
use poi360_sim::trace::{
    LineProbe, ProbeKind, RawJsonlRecord, RunMeta, TraceRecord, MAX_PROBE_IDS, TRACE_SCHEMA_VERSION,
};
use poi360_sim::workers;
use std::hash::{BuildHasher, RandomState};
use std::str::Utf8Error;

/// Dense string interner: ids are assigned in first-appearance order,
/// which is stable because the probe stream itself is deterministic.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    names: Vec<String>,
    /// Open-addressed table of ids ([`NO_ID`] an empty slot), a power of
    /// two at most half full: a lookup costs the same at any table size (a
    /// hostile trace can hold 65 535 names), and each name is held once.
    slots: Vec<u32>,
    hasher: RandomState,
}

/// An empty [`Interner`] slot.
const NO_ID: u32 = u32::MAX;

impl Interner {
    /// Id for `name`, allocating the next id on first sight.
    pub fn intern(&mut self, name: &str) -> u32 {
        let mut at = self.probe(&self.slots, name);
        if let Some(&id) = self.slots.get(at).filter(|&&id| id != NO_ID) {
            return id;
        }
        if self.slots.len() < 2 * (self.names.len() + 1) {
            let mut slots = vec![NO_ID; (2 * self.slots.len()).max(16)];
            for (id, known) in self.names.iter().enumerate() {
                let free = self.probe(&slots, known);
                slots[free] = id as u32;
            }
            self.slots = slots;
            at = self.probe(&self.slots, name);
        }
        let id = self.names.len() as u32;
        self.slots[at] = id;
        self.names.push(name.to_string());
        id
    }

    /// Intern every name of `other`, growing the name list once, to
    /// exactly its new length; returns `other`'s ids mapped onto this
    /// interner's, indexed by `other`'s id.
    pub(crate) fn intern_all(&mut self, other: &Interner) -> Vec<u32> {
        let known = |name: &str| {
            self.slots.get(self.probe(&self.slots, name)).is_some_and(|&id| id != NO_ID)
        };
        let new = other.names().filter(|&name| !known(name)).count();
        self.names.reserve_exact(new);
        other.names().map(|name| self.intern(name)).collect()
    }

    /// The slot of `slots` that holds `name`'s id, else the empty slot
    /// where it would go (0 while `slots` is unallocated).
    fn probe(&self, slots: &[u32], name: &str) -> usize {
        let Some(mask) = slots.len().checked_sub(1) else { return 0 };
        let mut at = self.hasher.hash_one(name) as usize & mask;
        while slots[at] != NO_ID && self.names[slots[at] as usize] != name {
            at = (at + 1) & mask;
        }
        at
    }

    /// The name behind an id — a record's `u16` or an interner's `u32`
    /// (panics on a foreign id).
    pub fn name(&self, id: impl Into<u32>) -> &str {
        &self.names[id.into() as usize]
    }

    /// Number of distinct names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All names in id order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// All names in id order, handed over.
    pub(crate) fn into_names(self) -> Vec<String> {
        self.names
    }
}

/// One probe record with its strings swapped for interned ids, in 24
/// bytes: segment and ids are 16-bit, which is why a trace holds at most
/// [`MAX_IDS`] stamps, sources and probe names.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rec {
    /// Simulation time, microseconds.
    pub t_us: u64,
    /// Sample value; `null` in the JSONL (a non-finite float at write
    /// time) comes back as NaN.
    pub value: f64,
    /// Run segment this record belongs to: 0 before any metadata stamp,
    /// incremented at each stamp. Concatenated suite artifacts reuse
    /// source tags (`fg.00`) across cases; the segment id is what keeps
    /// their counter totals apart.
    pub seg: u16,
    /// Interned source tag (see [`RunTrace::srcs`]).
    pub src: u16,
    /// Interned probe name (see [`RunTrace::probes`]).
    pub name: u16,
    /// Counter, gauge, or event.
    pub kind: ProbeKind,
}

const _: () = assert!(size_of::<Rec>() == 24);

/// Stamps, distinct sources and distinct probe names a trace may hold,
/// each: a record carries its segment (0 before the first stamp) and its
/// two ids in 16 bits.
pub const MAX_IDS: usize = u16::MAX as usize;

/// The 16-bit id of a table entry, or `None` past [`MAX_IDS`] entries.
fn narrow(id: u32) -> Option<u16> {
    u16::try_from(id).ok().filter(|&id| usize::from(id) < MAX_IDS)
}

/// The error for the line that holds the stamp, source or probe name
/// (`what`) one past [`MAX_IDS`].
fn over_limit(what: &str) -> String {
    format!("more than {MAX_IDS} {what} in one trace")
}

/// A record's 16-bit source and probe ids, or the limit error.
fn ids(src: u32, name: u32) -> Result<(u16, u16), String> {
    let src = narrow(src).ok_or_else(|| over_limit("sources"))?;
    Ok((src, narrow(name).ok_or_else(|| over_limit("probe names"))?))
}

/// A parsed trace artifact: metadata stamps, interned name tables, and
/// every probe record in stream order.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    /// Provenance stamps, in stream order — one per run segment for
    /// concatenated suite artifacts, possibly empty for pre-stamp files.
    pub metas: Vec<RunMeta>,
    /// Probe-name table (`cell.prb_grant`, ...).
    pub probes: Interner,
    /// Source-tag table (`session`, `rlf.fbcc.s1`, `fg.00`, ...).
    pub srcs: Interner,
    /// Probe records in stream order.
    pub records: Vec<Rec>,
    /// Probe records that the writer-layout shortcut declined and the
    /// generic JSON path read instead.
    generic_records: u64,
}

/// The shortest line that can hold a probe record — a reference to its
/// probe, one-digit numbers — which bounds how many records an input of a
/// given size can reserve room for.
const MIN_RECORD_LINE: usize = r#"{"t_us":0,"id":0,"value":0}"#.len() + 1;

/// Newlines in `bytes`. A `u8` sum per 255-byte chunk cannot overflow
/// and stays in byte lanes, which the compiler vectorises; one `usize`
/// accumulator for the whole slice does not, and reads four times slower.
fn count_newlines(bytes: &[u8]) -> usize {
    bytes.chunks(255).map(|c| c.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>() as usize).sum()
}

/// Smallest piece [`RunTrace::parse_bytes`] cuts a document into: below it
/// the pool dispatch and the per-chunk name tables cost more than the
/// lines a helper would take over.
const MIN_CHUNK_BYTES: usize = 192 << 10;

/// What a record window holds until its chunk writes there.
const VACANT: Rec = Rec { t_us: 0, value: 0.0, seg: 0, src: 0, name: 0, kind: ProbeKind::Event };

/// The `name` of a record that refers to an id an earlier chunk gave,
/// with the id in `src`, until the merge resolves it: no probe name has
/// this id (at most [`MAX_IDS`] of them, numbered from 0).
const UNRESOLVED: u16 = u16::MAX;

/// Largest timestamp or id the generic path takes: the JSON codec
/// carries numbers as `f64`, which holds every integer only up to 2^53.
const MAX_EXACT: f64 = (1u64 << 53) as f64;

fn field_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(JsonValue::Null) => Ok(f64::NAN),
        Some(x) => x.as_f64().ok_or_else(|| format!("non-numeric `{key}`")),
        None => Err(format!("record without `{key}`")),
    }
}

/// A field that holds a non-negative integer, such as `t_us` or `id`.
fn field_integer(v: &JsonValue, key: &str) -> Result<u64, String> {
    let x = field_f64(v, key)?;
    if !x.is_finite() || x < 0.0 {
        return Err(format!("non-finite or negative `{key}` {x}"));
    }
    if x.fract() != 0.0 || x > MAX_EXACT {
        return Err(format!("non-integer `{key}` {x}"));
    }
    Ok(x as u64)
}

fn field_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(|x| x.as_str()).ok_or_else(|| format!("record without a `{key}` string"))
}

/// A chunk's error for bytes that are not UTF-8. It never reaches the
/// caller: [`RunTrace::parse_chunked`] answers any failure by checking
/// the whole input first, which names the offset in the document.
fn not_utf8(e: Utf8Error) -> String {
    format!("not UTF-8: {e}")
}

/// A probe as a record holds it: source, name and kind.
type Probe = (u16, u16, ProbeKind);

/// The probe ids a chunk has seen given in one run segment.
#[derive(Default)]
struct SegmentIds {
    /// The id of `probes[0]`: 0 where the segment starts in the chunk.
    /// Where it started in an earlier chunk, the first id the chunk sees
    /// given there (`None` before one), presumed to follow on from what
    /// the earlier chunks gave; the merge checks that.
    base: Option<u64>,
    /// The probe of each id from `base` on.
    probes: Vec<Probe>,
}

/// One newline-aligned piece of a document being parsed: it fills its own
/// window of the shared `records` buffer and its own metas and name
/// tables (`part`), with ids and segments local to the chunk until
/// [`RunTrace::parse_chunked`] merges the pieces.
struct Chunk<'a> {
    bytes: &'a [u8],
    /// Newlines in `bytes`.
    newlines: usize,
    /// Lines of the document before this chunk.
    first_line: usize,
    window: &'a mut [Rec],
    /// What the chunk leaves the merge.
    parsed: Parsed,
}

/// What a chunk leaves the merge once its window is given back.
#[derive(Default)]
struct Parsed {
    /// Records written to the front of the window.
    filled: usize,
    /// The window's length.
    room: usize,
    /// Stamps, name tables and the generic-path count; `records` unused.
    part: RunTrace,
    /// Ids of the segment the chunk ends in (so far, while it parses).
    segment: SegmentIds,
    /// Ids of the segment the chunk starts in, once a stamp has ended it.
    opening: Option<SegmentIds>,
    /// The highest id a record referred to that an earlier chunk must have
    /// given: such records hold [`UNRESOLVED`] until the merge.
    deferred: Option<u64>,
    /// The first failing line's error, numbered within the document, or
    /// [`not_utf8`]'s.
    error: Option<String>,
}

impl Parsed {
    /// The probe a record that names one is of, with the id its line
    /// gives it, if any: that id must be the segment's next.
    fn give(&mut self, id: Option<u64>, probe: Probe) -> Result<Probe, String> {
        let Some(id) = id else { return Ok(probe) };
        if id >= MAX_PROBE_IDS {
            return Err(format!("more than {MAX_PROBE_IDS} probe ids in one segment"));
        }
        let segment = &mut self.segment;
        let next = *segment.base.get_or_insert(id) + segment.probes.len() as u64;
        if id != next {
            return Err(format!("probe id {id} given where the segment's next id is {next}"));
        }
        segment.probes.push(probe);
        Ok(probe)
    }

    /// The probe a line of this segment gave `id`. An id from before the
    /// segment's first in this chunk comes back as `(id, UNRESOLVED, _)`:
    /// an earlier chunk gave it, if anything did.
    fn refer(&mut self, id: u64) -> Result<Probe, String> {
        match self.segment.base {
            Some(base) if id >= base => {
                let given =
                    usize::try_from(id - base).ok().and_then(|k| self.segment.probes.get(k));
                given.copied().ok_or_else(|| format!("probe id {id} is not given in its segment"))
            }
            _ => {
                self.deferred = self.deferred.max(Some(id));
                // An id past 16 bits is past what a segment holds, which
                // the merge refuses before it resolves anything.
                Ok((u16::try_from(id).unwrap_or(u16::MAX), UNRESOLVED, ProbeKind::Event))
            }
        }
    }

    /// A stamp: the segment ends and the next starts with no ids.
    fn stamp(&mut self) {
        let ended =
            std::mem::replace(&mut self.segment, SegmentIds { base: Some(0), probes: Vec::new() });
        self.opening.get_or_insert(ended);
    }
}

impl<'a> Chunk<'a> {
    fn new(bytes: &'a [u8]) -> Chunk<'a> {
        Chunk { bytes, newlines: 0, first_line: 0, window: &mut [], parsed: Parsed::default() }
    }

    /// Records the window must have room for: a record line holds at least
    /// `MIN_RECORD_LINE` bytes with its newline, and only a chunk's last
    /// line can lack one.
    fn room(&self) -> usize {
        let lines = self.newlines + usize::from(!self.bytes.ends_with(b"\n"));
        lines.min((self.bytes.len() + 1) / MIN_RECORD_LINE)
    }

    /// Ingest every line, stopping at the first that fails or holds bytes
    /// that are not UTF-8. One cursor walks the bytes: a line the writer
    /// produced is read field by field up to its newline by
    /// [`RawJsonlRecord::read_front`]; a line that names its probe has
    /// both names checked for UTF-8 and interned (every other byte the
    /// cursor takes is ASCII it matched). Any
    /// other line is cut where `str::lines` cuts it — at the newline, less
    /// one `\r` before it — checked for UTF-8 and handed to
    /// [`Chunk::push_line`].
    fn parse(&mut self) -> Result<(), String> {
        let (mut rest, mut line) = (self.bytes, self.first_line);
        while !rest.is_empty() {
            line += 1;
            let at_line = |e: String| format!("line {line}: {e}");
            if let Some((r, after)) = RawJsonlRecord::read_front(rest) {
                let (src, name, kind) = match r.probe {
                    LineProbe::Names { id, src, name, kind } => {
                        let part = &mut self.parsed.part;
                        let src = part.srcs.intern(std::str::from_utf8(src).map_err(not_utf8)?);
                        let name = std::str::from_utf8(name).map_err(not_utf8)?;
                        let (src, name) = ids(src, part.probes.intern(name)).map_err(at_line)?;
                        self.parsed.give(id, (src, name, kind)).map_err(at_line)?
                    }
                    LineProbe::Refers { id } => self.parsed.refer(id).map_err(at_line)?,
                };
                // At most `MAX_IDS`: the stamp past it stops the chunk.
                let seg = self.parsed.part.metas.len() as u16;
                self.push(Rec { t_us: r.t_us, value: r.value, seg, src, name, kind });
                rest = after;
                continue;
            }
            let (text, after) = match rest.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    let text = &rest[..nl];
                    (text.strip_suffix(b"\r").unwrap_or(text), &rest[nl + 1..])
                }
                None => (rest, &[][..]),
            };
            let text = std::str::from_utf8(text).map_err(not_utf8)?;
            self.push_line(text).map_err(at_line)?;
            rest = after;
        }
        Ok(())
    }

    fn push(&mut self, rec: Rec) {
        // In bounds: the window has room for as many records as the
        // chunk has lines and bytes for (`parse_chunked`).
        self.window[self.parsed.filled] = rec;
        self.parsed.filled += 1;
    }

    /// Ingest one line the cursor declined. A writer line that only its
    /// `\r\n` ending kept off the cursor still takes the allocation-free
    /// [`TraceRecord::read_jsonl`] shortcut; everything else — stamps,
    /// blanks, escaped strings, foreign layouts, garbage — goes through
    /// the generic JSON path, which defines what ingests and owns every
    /// error message. A line with an `id` and none of `src`, `name` and
    /// `kind` refers to its probe; any other needs all three.
    fn push_line(&mut self, line: &str) -> Result<(), String> {
        let parsed = &mut self.parsed;
        let seg = parsed.part.metas.len() as u16;
        let rec = if let Some(r) = TraceRecord::read_jsonl(line) {
            let (src, name, kind) = match r.probe {
                LineProbe::Names { id, src, name, kind } => {
                    let part = &mut parsed.part;
                    let (src, name) = ids(part.srcs.intern(src), part.probes.intern(name))?;
                    parsed.give(id, (src, name, kind))?
                }
                LineProbe::Refers { id } => parsed.refer(id)?,
            };
            Rec { t_us: r.t_us, value: r.value, seg, src, name, kind }
        } else {
            if line.trim().is_empty() {
                return Ok(());
            }
            let v = parse_json(line)?;
            if let Some(meta) = RunMeta::from_json(&v) {
                parsed.part.metas.push(meta?);
                if parsed.part.metas.len() > MAX_IDS {
                    return Err(over_limit("stamps"));
                }
                parsed.stamp();
                return Ok(());
            }
            let t_us = field_integer(&v, "t_us")?;
            let id = match v.get("id") {
                Some(_) => Some(field_integer(&v, "id")?),
                None => None,
            };
            let (src, name, kind) = match id {
                Some(id) if ["src", "name", "kind"].iter().all(|&k| v.get(k).is_none()) => {
                    parsed.refer(id)?
                }
                _ => {
                    let part = &mut parsed.part;
                    let src = part.srcs.intern(field_str(&v, "src")?);
                    let (src, name) = ids(src, part.probes.intern(field_str(&v, "name")?))?;
                    let kind_str = field_str(&v, "kind")?;
                    let kind = ProbeKind::parse(kind_str)
                        .ok_or_else(|| format!("unknown probe kind {kind_str:?}"))?;
                    parsed.give(id, (src, name, kind))?
                }
            };
            let value = field_f64(&v, "value")?;
            parsed.part.generic_records += 1;
            Rec { t_us, value, seg, src, name, kind }
        };
        self.push(rec);
        Ok(())
    }
}

impl RunTrace {
    /// Parse a JSONL document from raw bytes (suite harnesses hand traces
    /// around as `Vec<u8>` for byte-identity checks); errors carry 1-based
    /// line numbers. The document is cut
    /// into one chunk per worker of the pool width
    /// (`sim::workers::worker_threads`), none under a few hundred KiB, so
    /// a short trace parses on the calling thread alone.
    pub fn parse_bytes(bytes: &[u8]) -> Result<RunTrace, String> {
        let chunks = workers::worker_threads().min(bytes.len() / MIN_CHUNK_BYTES);
        RunTrace::parse_chunked(bytes, chunks)
    }

    /// [`RunTrace::parse_bytes`] with the document cut into at most
    /// `chunks` pieces, whatever its size: chunk `k` of `n` starts at the
    /// first line start at or after byte `⌊len·k/n⌋`, and empty pieces are
    /// dropped. Every cut yields the same trace, bit for bit, and the same
    /// error — the earliest failing line's — as one chunk does.
    ///
    /// A first pool pass counts each chunk's newlines. A second parses each
    /// chunk into a disjoint window of one `records` reservation, sized
    /// from the chunk's newlines and bytes (no more records than lines, no
    /// more than the bytes can hold), checking UTF-8 as it goes; only a
    /// failure checks the whole input at once. The merge closes the gaps
    /// stamps and blank lines left, in the same pass renumbering each later
    /// chunk's ids into first-appearance order, offsetting its segments
    /// by the stamps before it and resolving its references to probe ids
    /// earlier chunks gave. No record is copied elsewhere.
    ///
    /// A record that refers to a probe id its segment has not given, or
    /// gives one that is not the segment's next — two streams concatenated
    /// without the stamp between them give id 0 twice — fails at its line
    /// (`line N: probe id 0 given where the segment's next id is 12`), as
    /// does one that gives an id past [`MAX_PROBE_IDS`]. A chunk that
    /// starts inside a segment cannot tell such a line from a good one
    /// until the merge knows what the chunks before it gave; when the
    /// merge finds one, one chunk over the whole input names the line.
    ///
    /// A trace with more than [`MAX_IDS`] stamps, distinct sources or
    /// distinct probe names fails with `line N: more than 65535 sources in
    /// one trace` (or `stamps`, `probe names`), N the line that holds the
    /// one past the limit. A chunk checks its own tables as it goes and
    /// the merge checks the document's as it renumbers; when only the
    /// merge finds a table past the limit, one chunk over the whole input
    /// names the line. No id wraps.
    pub fn parse_chunked(bytes: &[u8], chunks: usize) -> Result<RunTrace, String> {
        let pieces = chunks.max(1);
        let mut parts = Vec::with_capacity(pieces);
        let mut start = 0;
        for k in 1..=pieces {
            let at = bytes.len() * k / pieces;
            let end = match at.checked_sub(1) {
                Some(before) if k < pieces => {
                    bytes[before..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |i| at + i)
                }
                _ => at,
            };
            // Cut points only move forward, so `end >= start`.
            if end > start || (k == pieces && parts.is_empty()) {
                parts.push(Chunk::new(&bytes[start..end]));
                start = end;
            }
        }
        let pool = workers::global();
        let width = parts.len();
        pool.for_each_mut(width, &mut parts, |_, c| c.newlines = count_newlines(c.bytes));

        let mut records = vec![VACANT; parts.iter().map(Chunk::room).sum()];
        let (mut rest, mut first_line) = (records.as_mut_slice(), 0);
        for c in &mut parts {
            c.first_line = first_line;
            first_line += c.newlines;
            let (window, tail) = std::mem::take(&mut rest).split_at_mut(c.room());
            c.window = window;
            rest = tail;
        }
        if let Some(first) = parts.first_mut() {
            // The document's first segment starts here, with no ids.
            first.parsed.segment.base = Some(0);
        }
        pool.for_each_mut(width, &mut parts, |_, c| c.parsed.error = c.parse().err());
        if parts.iter().any(|c| c.parsed.error.is_some()) {
            // Bytes that are not UTF-8 anywhere outrank every failing line,
            // and only the whole input can name their offset. Input that
            // holds them always fails some chunk: a chunk checks every
            // byte it takes (`Chunk::parse`).
            std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
        }
        // The windows end here; each chunk leaves its fill and tables.
        let pieces: Vec<Parsed> =
            parts.into_iter().map(|c| Parsed { room: c.window.len(), ..c.parsed }).collect();
        let mut pieces = pieces.into_iter();
        let first = pieces.next().unwrap_or_default();
        let (mut len, mut at, mut out, mut error) =
            (first.filled, first.room, first.part, first.error);
        // The probes the segment open after the merged chunks gave, by id.
        let mut given = first.segment.probes;
        let mut merged = false;
        for p in pieces {
            if error.is_some() {
                break;
            }
            // The first chunk's ids and segments are already the
            // document's; a later one's are renumbered into them, unless
            // the document's tables outgrow a record's 16 bits on the way.
            merged = true;
            // At most `MAX_IDS`, or the chunk before would have stopped.
            let seg_base = out.metas.len() as u16;
            let src_ids: Option<Vec<u16>> =
                p.part.srcs.names().map(|n| narrow(out.srcs.intern(n))).collect();
            let name_ids: Option<Vec<u16>> =
                p.part.probes.names().map(|n| narrow(out.probes.intern(n))).collect();
            out.metas.extend(p.part.metas);
            let (Some(src_ids), Some(name_ids), false) =
                (src_ids, name_ids, out.metas.len() > MAX_IDS)
            else {
                break;
            };
            // The chunk's opening segment continues the one open here: the
            // ids it gave must follow on from `given`, and the ones it
            // left unresolved must be among them.
            let carried = given.len() as u64;
            let opening = p.opening.as_ref().unwrap_or(&p.segment);
            if opening.base.is_some_and(|b| b != carried)
                || p.deferred.is_some_and(|id| id >= carried)
            {
                return RunTrace::parse_chunked(bytes, 1);
            }
            out.generic_records += p.part.generic_records;
            let document = |(src, name, kind): Probe| {
                (src_ids[usize::from(src)], name_ids[usize::from(name)], kind)
            };
            // One pass moves each record down over the gaps, renumbers
            // or resolves it; `len <= at`, so it never reads a slot it
            // already wrote.
            for k in 0..p.filled {
                let rec = records[at + k];
                let (src, name, kind) = if rec.name == UNRESOLVED {
                    given[usize::from(rec.src)]
                } else {
                    document((rec.src, rec.name, rec.kind))
                };
                records[len + k] = Rec { seg: rec.seg + seg_base, src, name, kind, ..rec };
            }
            if p.opening.is_some() {
                given.clear();
            }
            given.extend(p.segment.probes.into_iter().map(document));
            len += p.filled;
            at += p.room;
            error = p.error;
        }
        if let Some(what) = out.table_over_limit() {
            // A chunk stops at the line that takes its own tables past a
            // limit, but the line that takes the document's past one
            // depends on the names before the chunk: the one-chunk parse,
            // which meets every line in order, is the one that names it.
            let serial = if merged { RunTrace::parse_chunked(bytes, 1).err() } else { error };
            return Err(serial.unwrap_or_else(|| over_limit(what)));
        }
        if let Some(e) = error {
            return Err(e);
        }
        records.truncate(len);
        out.records = records;
        Ok(out)
    }

    /// The table holding more than [`MAX_IDS`] entries, if one does.
    fn table_over_limit(&self) -> Option<&'static str> {
        [
            (self.metas.len(), "stamps"),
            (self.srcs.len(), "sources"),
            (self.probes.len(), "probe names"),
        ]
        .into_iter()
        .find(|&(entries, _)| entries > MAX_IDS)
        .map(|(_, what)| what)
    }

    /// Probe records the generic JSON path had to read because they were
    /// not in the writer's exact layout. 0 for anything a `JsonlSink`
    /// wrote with backslash-free source tags; the ingest sweep holds the
    /// generated artifacts to that, so a writer-layout change cannot
    /// silently put every reader back on the slow path.
    pub fn generic_records(&self) -> u64 {
        self.generic_records
    }

    /// Number of probe records (metadata stamps excluded).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace carries no probe records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Provenance sanity warnings: missing stamps, schema drift against
    /// this build, disagreeing commits across the segments of one
    /// artifact. Warnings, not errors — old artifacts stay readable.
    pub fn meta_warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.metas.is_empty() && !self.records.is_empty() {
            out.push("trace carries no metadata stamp (written before the stamp existed?)".into());
        }
        let mut schemas: Vec<u64> = self.metas.iter().map(|m| m.schema).collect();
        schemas.sort_unstable();
        schemas.dedup();
        for schema in schemas {
            if schema != TRACE_SCHEMA_VERSION {
                out.push(format!("trace schema v{schema} != this build's v{TRACE_SCHEMA_VERSION}"));
            }
        }
        let mut commits: Vec<&str> = self.metas.iter().map(|m| m.commit.as_str()).collect();
        commits.sort_unstable();
        commits.dedup();
        if commits.len() > 1 {
            out.push(format!(
                "trace segments come from {} different commits ({})",
                commits.len(),
                commits.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        r#"{"meta":"poi360.trace","schema":2,"commit":"abc","argv":["reproduce"],"seed":7}"#,
        "\n",
        r#"{"t_us":1000,"id":0,"src":"session","name":"pacer.rate_bps","kind":"gauge","value":2500000}"#,
        "\n",
        r#"{"t_us":2000,"id":1,"src":"cell","name":"cell.prb_grant","kind":"event","value":40}"#,
        "\n",
        r#"{"t_us":2000,"src":"session","name":"video.frame_encoded","kind":"counter","value":1}"#,
        "\n",
        r#"{"t_us":3000,"id":0,"value":null}"#,
        "\n",
    );

    #[test]
    fn parses_records_metas_and_interns_in_first_seen_order() {
        let tr = RunTrace::parse_bytes(SAMPLE.as_bytes()).expect("sample parses");
        assert_eq!(tr.metas.len(), 1);
        assert_eq!(tr.metas[0].seed, 7);
        assert_eq!(tr.len(), 4);
        let srcs: Vec<&str> = tr.srcs.names().collect();
        assert_eq!(srcs, ["session", "cell"], "ids in first-appearance order");
        let probes: Vec<&str> = tr.probes.names().collect();
        assert_eq!(probes, ["pacer.rate_bps", "cell.prb_grant", "video.frame_encoded"]);
        assert_eq!(tr.records[0].kind, ProbeKind::Gauge);
        assert_eq!(tr.records[1].kind, ProbeKind::Event);
        assert_eq!(tr.records[2].kind, ProbeKind::Counter);
        assert!(tr.records[3].value.is_nan(), "JSON null comes back as NaN");
        assert_eq!((tr.records[3].src, tr.records[3].name), (0, 0), "id 0 is the session's rate");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = format!("{SAMPLE}{}", r#"{"t_us":4000,"src":"s","name":"x.y"}"#);
        let err = RunTrace::parse_bytes(bad.as_bytes()).unwrap_err();
        assert!(err.starts_with("line 6:"), "{err}");
        assert!(err.contains("kind"), "{err}");
        let bad_kind = r#"{"t_us":1,"src":"s","name":"x.y","kind":"histogram","value":1}"#;
        let err = RunTrace::parse_bytes(bad_kind.as_bytes()).unwrap_err();
        assert!(err.contains("unknown probe kind"), "{err}");
        let err = RunTrace::parse_bytes(b"not json").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn meta_warnings_flag_missing_stamp_schema_and_commit_drift() {
        let unstamped = SAMPLE.lines().skip(1).collect::<Vec<_>>().join("\n");
        let tr = RunTrace::parse_bytes(unstamped.as_bytes()).unwrap();
        assert_eq!(tr.meta_warnings().len(), 1);
        assert!(tr.meta_warnings()[0].contains("no metadata stamp"));

        let drifted = format!(
            "{}\n{}\n{SAMPLE}",
            r#"{"meta":"poi360.trace","schema":99,"commit":"abc","argv":[],"seed":1}"#,
            r#"{"meta":"poi360.trace","schema":1,"commit":"def","argv":[],"seed":2}"#,
        );
        let tr = RunTrace::parse_bytes(drifted.as_bytes()).unwrap();
        let warnings = tr.meta_warnings();
        assert!(warnings.iter().any(|w| w.contains("schema v99")), "{warnings:?}");
        assert!(warnings.iter().any(|w| w.contains("2 different commits")), "{warnings:?}");

        let clean = RunTrace::parse_bytes(SAMPLE.as_bytes()).unwrap();
        assert!(clean.meta_warnings().is_empty());
    }

    /// A document of `n` lines, each bringing one more of `what`: a
    /// stamp (then one record, in the last segment), or a record with a
    /// source tag or probe name no line before it had.
    fn one_more_per_line(what: &str, n: usize) -> String {
        let mut doc = String::new();
        for k in 0..n {
            let line = match what {
                "stamps" => {
                    r#"{"meta":"poi360.trace","schema":1,"commit":"abc","argv":[],"seed":1}"#.into()
                }
                "sources" => {
                    format!(r#"{{"t_us":{k},"src":"s{k}","name":"x.y","kind":"gauge","value":1}}"#)
                }
                _ => format!(r#"{{"t_us":{k},"src":"s","name":"p{k}","kind":"gauge","value":1}}"#),
            };
            doc.push_str(&line);
            doc.push('\n');
        }
        if what == "stamps" {
            doc.push_str(r#"{"t_us":1,"src":"s","name":"x.y","kind":"event","value":1}"#);
            doc.push('\n');
        }
        doc
    }

    /// 65 535 stamps, sources or probe names parse, into the largest
    /// segment and ids a record holds; one more is the same error at every
    /// cut — also when only the merge sees the document's tables overflow,
    /// and when a later line fails as well.
    #[test]
    fn a_trace_holds_65535_stamps_sources_and_probe_names() {
        for what in ["stamps", "sources", "probe names"] {
            let full = one_more_per_line(what, MAX_IDS);
            let over = one_more_per_line(what, MAX_IDS + 1);
            let want = format!("line {}: more than 65535 {what} in one trace", MAX_IDS + 1);
            for chunks in 1..=4 {
                let tr = RunTrace::parse_chunked(full.as_bytes(), chunks).unwrap();
                let last = tr.records.last().copied().unwrap();
                let (entries, top) = match what {
                    "stamps" => (tr.metas.len(), last.seg),
                    "sources" => (tr.srcs.len(), last.src),
                    _ => (tr.probes.len(), last.name),
                };
                assert_eq!(entries, MAX_IDS, "{what}, {chunks} chunks");
                let top_id = if what == "stamps" { u16::MAX } else { u16::MAX - 1 };
                assert_eq!(top, top_id, "{what}, {chunks} chunks");
                for doc in [over.clone(), format!("{over}not json\n")] {
                    let err = RunTrace::parse_chunked(doc.as_bytes(), chunks).err();
                    assert_eq!(err.as_deref(), Some(want.as_str()), "{chunks} chunks");
                }
                let early = format!("not json\n{over}");
                let err = RunTrace::parse_chunked(early.as_bytes(), chunks).err();
                assert!(err.is_some_and(|e| e.starts_with("line 1: ")), "{what}, {chunks} chunks");
            }
        }
    }

    #[test]
    fn empty_input_is_an_empty_trace() {
        let tr = RunTrace::parse_bytes(b"\n  \n").unwrap();
        assert!(tr.is_empty());
        assert!(tr.metas.is_empty());
        assert!(tr.meta_warnings().is_empty(), "an empty trace is not suspicious");
    }
}
