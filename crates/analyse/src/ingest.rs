//! JSONL ingest: probe trace artifacts → typed, indexed run records.
//!
//! A trace file is a sequence of JSON objects, one per line: zero or
//! more [`RunMeta`] stamps (one per producing run — suite artifacts
//! concatenate several runs) interleaved before each run's probe
//! records `{t_us, src, name, kind, value}`. Parsing interns the `src`
//! and `name` strings into dense ids in first-appearance order — the
//! stream itself is deterministic, so the ids are too — and keeps the
//! records in stream order so downstream consumers can rely on both.
//!
//! A document is parsed in newline-aligned chunks on the shared worker
//! pool, each into its own window of one `records` reservation with
//! names interned per chunk; a merge then renumbers ids and segments into
//! what one pass over the whole document assigns. A serial parse is the
//! one-chunk case of the same code. Within a chunk one cursor walks the
//! bytes record by record; only lines not in the writer's layout are cut
//! out and read as JSON.

use poi360_sim::json::{parse_json, JsonValue};
use poi360_sim::trace::{ProbeKind, RawJsonlRecord, RunMeta, TraceRecord, TRACE_SCHEMA_VERSION};
use poi360_sim::workers;
use std::str::Utf8Error;

/// Dense string interner: ids are assigned in first-appearance order,
/// which is stable because the probe stream itself is deterministic.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    names: Vec<String>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Id for `name`, allocating the next id on first sight. The name
    /// population is small (tens of probes, at most hundreds of
    /// sources), so a linear scan beats hashing here.
    pub fn intern(&mut self, name: &str) -> u32 {
        match self.names.iter().position(|n| n == name) {
            Some(idx) => idx as u32,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u32
            }
        }
    }

    /// The name behind an id (panics on a foreign id).
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
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
}

/// One probe record with its strings swapped for interned ids.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rec {
    /// Simulation time, microseconds.
    pub t_us: u64,
    /// Run segment this record belongs to: 0 before any metadata stamp,
    /// incremented at each stamp. Concatenated suite artifacts reuse
    /// source tags (`fg.00`) across cases; the segment id is what keeps
    /// their counter totals apart.
    pub seg: u32,
    /// Interned source tag (see [`RunTrace::srcs`]).
    pub src: u32,
    /// Interned probe name (see [`RunTrace::probes`]).
    pub name: u32,
    /// Counter, gauge, or event.
    pub kind: ProbeKind,
    /// Sample value; `null` in the JSONL (a non-finite float at write
    /// time) comes back as NaN.
    pub value: f64,
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

/// The shortest line that can hold a probe record — five keys, empty
/// strings, one-digit numbers — which bounds how many records an input
/// of a given size can reserve room for.
const MIN_RECORD_LINE: usize =
    r#"{"t_us":0,"src":"","name":"","kind":"gauge","value":0}"#.len() + 1;

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
const VACANT: Rec = Rec { t_us: 0, seg: 0, src: 0, name: 0, kind: ProbeKind::Event, value: 0.0 };

/// Largest timestamp the generic path takes: the JSON codec carries
/// numbers as `f64`, which holds every integer only up to 2^53.
const MAX_T_US: f64 = (1u64 << 53) as f64;

fn field_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(JsonValue::Null) => Ok(f64::NAN),
        Some(x) => x.as_f64().ok_or_else(|| format!("non-numeric `{key}`")),
        None => Err(format!("record without `{key}`")),
    }
}

fn field_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(|x| x.as_str()).ok_or_else(|| format!("record without a `{key}` string"))
}

/// Slots of a [`NameCache`].
const NAME_SLOTS: usize = 64;

/// A direct-mapped cache in front of one [`Interner`]: a name hashes to
/// one of 64 slots, which remembers the last name seen there and its id.
/// A hit skips the interner's linear scan; a miss (a new name, or another
/// one that hashes to the same slot) asks the interner and takes the
/// slot over. Ids still come from the interner alone, so they stay in
/// first-appearance order whatever the cache holds. A name is checked for
/// UTF-8 when it takes a slot, so a hit — the same bytes — needs no
/// check. Fixed size, borrowed names: it allocates nothing.
struct NameCache<'a> {
    slots: [Option<(&'a [u8], u32)>; NAME_SLOTS],
}

impl<'a> NameCache<'a> {
    fn new() -> NameCache<'a> {
        NameCache { slots: [None; NAME_SLOTS] }
    }

    /// `interner.intern(name)`, from the cache when it holds `name`.
    fn intern(&mut self, name: &'a [u8], interner: &mut Interner) -> Result<u32, Utf8Error> {
        let slot = &mut self.slots[name_slot(name)];
        match *slot {
            Some((cached, id)) if cached == name => Ok(id),
            _ => {
                let id = interner.intern(std::str::from_utf8(name)?);
                *slot = Some((name, id));
                Ok(id)
            }
        }
    }
}

/// The [`NameCache`] slot of `name`: its length and first and last eight
/// bytes (sources differ at the end, `fg.00` / `fg.01`; probes anywhere),
/// multiplied through and cut to the top six bits.
fn name_slot(name: &[u8]) -> usize {
    let word = |w: &[u8]| w.iter().fold(0u64, |acc, &c| acc << 8 | u64::from(c));
    let (head, tail) = match (name.first_chunk::<8>(), name.last_chunk::<8>()) {
        (Some(head), Some(tail)) => (u64::from_le_bytes(*head), u64::from_le_bytes(*tail)),
        _ => (word(name), 0),
    };
    let mixed =
        (head ^ tail.rotate_left(29) ^ name.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (mixed >> (64 - NAME_SLOTS.trailing_zeros())) as usize
}

/// A chunk's error for bytes that are not UTF-8. It never reaches the
/// caller: [`RunTrace::parse_chunked`] answers any failure by checking
/// the whole input first, which names the offset in the document.
fn not_utf8(e: Utf8Error) -> String {
    format!("not UTF-8: {e}")
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
    /// Records written to the front of `window`.
    filled: usize,
    /// Stamps, name tables and the generic-path count; `records` unused.
    part: RunTrace,
    /// Caches in front of `part.srcs` and `part.probes`.
    src_cache: NameCache<'a>,
    name_cache: NameCache<'a>,
    /// The first failing line's error, numbered within the document, or
    /// [`not_utf8`]'s.
    error: Option<String>,
}

impl<'a> Chunk<'a> {
    fn new(bytes: &'a [u8]) -> Chunk<'a> {
        Chunk {
            bytes,
            newlines: 0,
            first_line: 0,
            window: &mut [],
            filled: 0,
            part: RunTrace::default(),
            src_cache: NameCache::new(),
            name_cache: NameCache::new(),
            error: None,
        }
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
    /// [`RawJsonlRecord::read_front`], with both names interned through
    /// the caches, which also check them for UTF-8 (every other byte the
    /// cursor takes is ASCII it matched). Any other line is cut where
    /// `str::lines` cuts it — at the newline, less one `\r` before it —
    /// checked for UTF-8 and handed to [`Chunk::push_line`].
    fn parse(&mut self) -> Result<(), String> {
        let (mut rest, mut line) = (self.bytes, self.first_line);
        while !rest.is_empty() {
            line += 1;
            if let Some((r, after)) = RawJsonlRecord::read_front(rest) {
                let src = self.src_cache.intern(r.src, &mut self.part.srcs).map_err(not_utf8)?;
                let name =
                    self.name_cache.intern(r.name, &mut self.part.probes).map_err(not_utf8)?;
                let seg = self.part.metas.len() as u32;
                self.push(Rec { t_us: r.t_us, seg, src, name, kind: r.kind, value: r.value });
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
            self.push_line(text).map_err(|e| format!("line {line}: {e}"))?;
            rest = after;
        }
        Ok(())
    }

    fn push(&mut self, rec: Rec) {
        // In bounds: the window has room for as many records as the
        // chunk has lines and bytes for (`parse_chunked`).
        self.window[self.filled] = rec;
        self.filled += 1;
    }

    /// Ingest one line the cursor declined. A writer line that only its
    /// `\r\n` ending kept off the cursor still takes the allocation-free
    /// [`TraceRecord::read_jsonl`] shortcut; everything else — stamps,
    /// blanks, escaped strings, foreign layouts, garbage — goes through
    /// the generic JSON path, which defines what ingests and owns every
    /// error message.
    fn push_line(&mut self, line: &str) -> Result<(), String> {
        let part = &mut self.part;
        let seg = part.metas.len() as u32;
        let rec = if let Some(r) = TraceRecord::read_jsonl(line) {
            let (src, name) = (part.srcs.intern(r.src), part.probes.intern(r.name));
            Rec { t_us: r.t_us, seg, src, name, kind: r.kind, value: r.value }
        } else {
            if line.trim().is_empty() {
                return Ok(());
            }
            let v = parse_json(line)?;
            if let Some(meta) = RunMeta::from_json(&v) {
                part.metas.push(meta?);
                return Ok(());
            }
            let t = field_f64(&v, "t_us")?;
            if !t.is_finite() || t < 0.0 {
                return Err(format!("non-finite or negative `t_us` {t}"));
            }
            if t.fract() != 0.0 || t > MAX_T_US {
                return Err(format!("non-integer `t_us` {t}"));
            }
            let src = part.srcs.intern(field_str(&v, "src")?);
            let name = part.probes.intern(field_str(&v, "name")?);
            let kind_str = field_str(&v, "kind")?;
            let kind = ProbeKind::parse(kind_str)
                .ok_or_else(|| format!("unknown probe kind {kind_str:?}"))?;
            let value = field_f64(&v, "value")?;
            part.generic_records += 1;
            Rec { t_us: t as u64, seg, src, name, kind, value }
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
    /// chunk's ids into first-appearance order and offsetting its segments
    /// by the stamps before it. No record is copied elsewhere.
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
        pool.for_each_mut(width, &mut parts, |_, c| c.error = c.parse().err());
        if parts.iter().any(|c| c.error.is_some()) {
            // Bytes that are not UTF-8 anywhere outrank every failing line,
            // and only the whole input can name their offset. Input that
            // holds them always fails some chunk: a chunk checks every
            // byte it takes (`Chunk::parse`).
            std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
        }
        if let Some(e) = parts.iter_mut().find_map(|c| c.error.take()) {
            return Err(e);
        }

        // The windows end here; each chunk leaves its fill and its tables.
        let pieces: Vec<_> =
            parts.into_iter().map(|c| (c.filled, c.window.len(), c.part)).collect();
        let mut pieces = pieces.into_iter();
        let (mut len, mut at, mut out) = pieces.next().unwrap_or_default();
        for (filled, room, part) in pieces {
            // The first chunk's ids and segments are already the
            // document's; a later one's are renumbered into them.
            let seg_base = out.metas.len() as u32;
            let src_ids: Vec<u32> = part.srcs.names().map(|n| out.srcs.intern(n)).collect();
            let name_ids: Vec<u32> = part.probes.names().map(|n| out.probes.intern(n)).collect();
            out.metas.extend(part.metas);
            out.generic_records += part.generic_records;
            // One pass moves each record down over the gaps and renumbers
            // it; `len <= at`, so it never reads a slot it already wrote.
            for k in 0..filled {
                let rec = records[at + k];
                records[len + k] = Rec {
                    seg: rec.seg + seg_base,
                    src: src_ids[rec.src as usize],
                    name: name_ids[rec.name as usize],
                    ..rec
                };
            }
            len += filled;
            at += room;
        }
        records.truncate(len);
        out.records = records;
        Ok(out)
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
        r#"{"meta":"poi360.trace","schema":1,"commit":"abc","argv":["reproduce"],"seed":7}"#,
        "\n",
        r#"{"t_us":1000,"src":"session","name":"pacer.rate_bps","kind":"gauge","value":2500000}"#,
        "\n",
        r#"{"t_us":2000,"src":"cell","name":"cell.prb_grant","kind":"event","value":40}"#,
        "\n",
        r#"{"t_us":2000,"src":"session","name":"video.frame_encoded","kind":"counter","value":1}"#,
        "\n",
        r#"{"t_us":3000,"src":"session","name":"pacer.rate_bps","kind":"gauge","value":null}"#,
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

    /// Names that share a cache slot evict each other back and forth; the
    /// ids are still the interner's, in first-appearance order.
    #[test]
    fn names_that_share_a_cache_slot_keep_first_appearance_ids() {
        let names: Vec<String> = (0..300).map(|k| format!("probe.{k}")).collect();
        let mut by_slot = vec![Vec::new(); NAME_SLOTS];
        for name in &names {
            by_slot[name_slot(name.as_bytes())].push(name.as_str());
        }
        let crowded: Vec<&Vec<&str>> = by_slot.iter().filter(|s| s.len() >= 3).collect();
        assert!(crowded.len() >= 8, "too few shared slots to exercise eviction");
        // Within each shared slot, each name then the one before it, twice
        // over: every lookup after the first round misses or evicts. The
        // source tags are the names too, in the opposite order.
        let mut seq = Vec::new();
        for _ in 0..2 {
            for slot in &crowded {
                for pair in slot.windows(2) {
                    seq.extend([pair[1], pair[0]]);
                }
            }
        }
        let mut doc = String::new();
        for (k, name) in seq.iter().enumerate() {
            let src = seq[seq.len() - 1 - k];
            doc.push_str(&format!(
                "{{\"t_us\":{k},\"src\":\"{src}\",\"name\":\"{name}\",\"kind\":\"gauge\",\"value\":1.0}}\n"
            ));
        }
        let tr = RunTrace::parse_chunked(doc.as_bytes(), 1).unwrap();
        assert_eq!(tr.generic_records(), 0);
        let (mut probes, mut srcs) = (Interner::new(), Interner::new());
        for (k, rec) in tr.records.iter().enumerate() {
            assert_eq!(rec.name, probes.intern(seq[k]), "record {k}");
            assert_eq!(rec.src, srcs.intern(seq[seq.len() - 1 - k]), "record {k}");
        }
        assert!(tr.probes.names().eq(probes.names()) && tr.srcs.names().eq(srcs.names()));
    }

    #[test]
    fn empty_input_is_an_empty_trace() {
        let tr = RunTrace::parse_bytes(b"\n  \n").unwrap();
        assert!(tr.is_empty());
        assert!(tr.metas.is_empty());
        assert!(tr.meta_warnings().is_empty(), "an empty trace is not suspicious");
    }
}
