//! Hand-rolled JSON writing and parsing.
//!
//! The workspace builds offline against an empty registry, so instead of
//! `serde` the measurement plane serializes through what is kept here in
//! the kernel crate, where every other crate can use it:
//!
//! * [`ToJson`] — append a JSON representation to a `String`. Reports
//!   and aggregates implement it so the `reproduce` harness can emit
//!   machine-readable output.
//! * [`write_u64`], [`write_f64`] and [`write_json_string`] — the number
//!   and string writers, generic over [`JsonOut`]: the `ToJson` impls call
//!   them on a `String`, the trace sinks on the `Vec<u8>` of a JSONL
//!   stream.
//! * [`parse_json`] — a small recursive-descent parser into [`JsonValue`],
//!   added for the instrumentation plane so tests can round-trip trace
//!   records through the same writer that produced them.
//!
//! The surface is deliberately minimal to stay auditable: the parser exists
//! for verification (round-tripping what the writer emits), not as a general
//! serde replacement. The `key=value` study format is parsed where it is
//! used, in `analyse::study`.

use std::fmt::Write as _;

/// Serialize a value as JSON into a caller-provided buffer.
pub trait ToJson {
    /// Append this value's JSON representation to `out`.
    fn write_json(&self, out: &mut String);

    /// Convenience: render to a fresh string.
    fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }
}

/// What the writers below append to: a `String` for [`ToJson`], a
/// `Vec<u8>` for the trace lines `trace::JsonlSink` writes as bytes. They
/// append whole `str`s and ASCII only, so the one definition of each
/// writer serves both: a `String` stays UTF-8 without a check, and a
/// `Vec<u8>` takes the bytes as they are.
pub trait JsonOut {
    /// Append `s`.
    fn push_str(&mut self, s: &str);
    /// Append ASCII bytes (on a `String`, a byte above ASCII would become
    /// the `char` of that number; no writer here appends one).
    fn push_ascii(&mut self, bytes: &[u8]);
    /// Append the shortest digits that round-trip `v`, as `{v:?}` prints
    /// them.
    fn push_f64_debug(&mut self, v: f64);
    /// Bytes held, all appended ones included.
    fn byte_len(&self) -> usize;
}

impl JsonOut for String {
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }
    fn push_ascii(&mut self, bytes: &[u8]) {
        self.extend(bytes.iter().map(|&b| char::from(b)));
    }
    fn push_f64_debug(&mut self, v: f64) {
        let _ = write!(self, "{v:?}");
    }
    fn byte_len(&self) -> usize {
        self.len()
    }
}

impl JsonOut for Vec<u8> {
    fn push_str(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }
    fn push_ascii(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    fn push_f64_debug(&mut self, v: f64) {
        // Writing into a `Vec` cannot fail.
        let _ = std::io::Write::write_fmt(self, format_args!("{v:?}"));
    }
    fn byte_len(&self) -> usize {
        self.len()
    }
}

/// Escape and quote a string per RFC 8259.
///
/// The unescaped runs between escapes go in whole: probe names and source
/// tags never need escaping, so on the trace path this is two quotes around
/// one copy.
pub fn write_json_string<B: JsonOut + ?Sized>(s: &str, out: &mut B) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push_str("\"");
    let mut rest = s;
    // Every byte that needs an escape is ASCII, so `k` and `k + 1` are
    // character boundaries.
    while let Some(k) = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(&rest[..k]);
        match rest.as_bytes()[k] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => out.push_ascii(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 15)],
            ]),
        }
        rest = &rest[k + 1..];
    }
    out.push_str(rest);
    out.push_str("\"");
}

/// `"00"`, `"01"`, … `"99"`: two digits per lookup.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Append the decimal digits of `v`: what `{v}` prints, without a pass
/// through the formatting machinery.
pub fn write_u64<B: JsonOut + ?Sized>(mut v: u64, out: &mut B) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        start -= 2;
        digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        start -= 2;
        digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        digits[start] = b'0' + v as u8;
    }
    out.push_ascii(&digits[start..]);
}

/// Append `v` as JSON: what `{v:?}` prints for a finite value, `null`
/// for the rest.
pub fn write_f64<B: JsonOut + ?Sized>(v: f64, out: &mut B) {
    let magnitude = v.abs();
    // An integral value below 1e16 is where `{:?}` prints every digit of
    // the integer and then `.0` (from 1e16 up it switches to exponent
    // form). Above 2^53 such values are even, with neighbours 2 apart, so
    // the shortest round-trip digits are the integer's own. Most trace
    // values are counts and bit totals that take this path.
    if magnitude < 1e16 && (magnitude as u64) as f64 == magnitude {
        if v.is_sign_negative() {
            out.push_str("-");
        }
        write_u64(magnitude as u64, out);
        out.push_str(".0");
    } else if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        out.push_f64_debug(v);
    } else {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        write_f64(*self, out);
    }
}

macro_rules! impl_tojson_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                write_u64(*self as u64, out);
            }
        }
    )*};
}
impl_tojson_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_tojson_signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                if *self < 0 {
                    out.push('-');
                }
                write_u64(self.unsigned_abs() as u64, out);
            }
        }
    )*};
}
impl_tojson_signed!(i8, i16, i32, i64, isize);

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_json_string(self, out);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_json_string(self, out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (k, v) in self.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl ToJson for crate::time::SimTime {
    fn write_json(&self, out: &mut String) {
        self.as_micros().write_json(out);
    }
}

impl ToJson for crate::time::SimDuration {
    fn write_json(&self, out: &mut String) {
        self.as_micros().write_json(out);
    }
}

impl ToJson for crate::series::TimeSeries {
    /// A series serializes as `[[t_us, value], ...]`.
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (k, (t, v)) in self.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            (t, v).write_json(out);
        }
        out.push(']');
    }
}

/// Incremental JSON object writer: `field()` for each key, then `finish()`.
///
/// Keys are written in call order, so a struct's `ToJson` impl produces
/// the same byte sequence every run — the determinism tests rely on that.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    /// Start an object.
    pub fn new() -> JsonObject {
        JsonObject { buf: String::from("{"), any: false }
    }

    /// Append one `"key": value` member.
    pub fn field(mut self, key: &str, value: &dyn ToJson) -> JsonObject {
        if self.any {
            self.buf.push(',');
        }
        write_json_string(key, &mut self.buf);
        self.buf.push(':');
        value.write_json(&mut self.buf);
        self.any = true;
        self
    }

    /// Close the object and append it to `out`.
    pub fn write(mut self, out: &mut String) {
        self.buf.push('}');
        out.push_str(&self.buf);
    }

    /// Close the object and return it.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON document.
///
/// Objects keep their members in document order (a `Vec`, not a map) so a
/// round-trip through [`parse_json`] can also check field ordering, which
/// the determinism suites care about.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null` (also what the writer emits for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number; the sim only ever writes values that fit an `f64`.
    Number(f64),
    /// A string, with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, members in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up an object member by key; `None` for non-objects too.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse one complete JSON document; trailing non-whitespace is an error.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = JsonParser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!("unexpected {:?} at byte {}", other as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        token
            .parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number {token:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // The writer only emits \u for control chars, so
                            // surrogate pairs never occur; reject them rather
                            // than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("invalid \\u escape {code:#06x}"))?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| format!("invalid \\u escape {hex:?}"))?;
        self.pos = end;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::TimeSeries;
    use crate::time::SimTime;

    #[test]
    fn scalars_render() {
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(42u64.to_json(), "42");
        assert_eq!((-7i64).to_json(), "-7");
        assert_eq!(true.to_json(), "true");
        assert_eq!("a\"b\\c\n".to_json(), r#""a\"b\\c\n""#);
    }

    #[test]
    fn containers_render() {
        assert_eq!(vec![1u64, 2, 3].to_json(), "[1,2,3]");
        assert_eq!((1u64, 2.5f64).to_json(), "[1,2.5]");
        assert_eq!(Option::<u64>::None.to_json(), "null");
        assert_eq!(Some(3u64).to_json(), "3");
    }

    #[test]
    fn objects_preserve_field_order() {
        let s = JsonObject::new().field("b", &1u64).field("a", &"x").finish();
        assert_eq!(s, r#"{"b":1,"a":"x"}"#);
    }

    #[test]
    fn series_renders_pairs() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_millis(1), 2.0);
        ts.push(SimTime::from_millis(2), 3.5);
        assert_eq!(ts.to_json(), "[[1000,2.0],[2000,3.5]]");
    }

    #[test]
    fn parser_handles_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("-2.5e3").unwrap(), JsonValue::Number(-2500.0));
        assert_eq!(parse_json(r#""a\"b\\c\n""#).unwrap().as_str(), Some("a\"b\\c\n"));
        assert_eq!(parse_json(r#""\u0007""#).unwrap().as_str(), Some("\u{7}"));
    }

    #[test]
    fn parser_handles_containers_and_order() {
        let v = parse_json(r#" {"b": [1, 2.5, null], "a": {"x": true}} "#).unwrap();
        let members = match &v {
            JsonValue::Object(m) => m,
            other => panic!("expected object, got {other:?}"),
        };
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(v.get("b").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().get("x").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{\"a\":1,}").is_err());
        assert!(parse_json("[1 2]").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn writer_output_round_trips_through_parser() {
        let doc = JsonObject::new()
            .field("label", &"fbcc \"busy\"")
            .field("rate", &1.25e6f64)
            .field("nan", &f64::NAN)
            .field("series", &{
                let mut ts = TimeSeries::new();
                ts.push(SimTime::from_millis(1), 2.0);
                ts
            })
            .finish();
        let v = parse_json(&doc).unwrap();
        assert_eq!(v.get("label").unwrap().as_str(), Some("fbcc \"busy\""));
        assert_eq!(v.get("rate").unwrap().as_f64(), Some(1.25e6));
        assert_eq!(v.get("nan").unwrap(), &JsonValue::Null);
        let series = v.get("series").unwrap().as_array().unwrap();
        assert_eq!(series[0].as_array().unwrap()[0].as_f64(), Some(1000.0));
    }
}
