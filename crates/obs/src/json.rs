//! The workspace's one JSON module: a depth-capped reader
//! ([`JsonValue::parse`]), the one string escaper ([`push_str`]) and
//! number writer ([`push_f64`]), compact and pretty renderers over
//! [`JsonValue`], and the schema-stable [`JsonSnapshot`] of a
//! [`MemorySink`].
//!
//! Written by hand because the workspace builds offline with no
//! serialization dependency. The serving wire protocol, the `stats`
//! reply, every `BENCH_*.json` file and the metrics snapshot all read
//! and write JSON through this module.
//!
//! The snapshot schema is intentionally boring and diff-friendly:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "counters":       { "<name>": <u64>, ... },
//!   "values":         { "<name>": {"count": n, "sum": s, "min": m, "max": M}, ... },
//!   "spans":          { "<name>": {"count": n, "total_ns": t, "min_ns": m, "max_ns": M}, ... },
//!   "events":         [ {"name": "<name>", "fields": {"<k>": <f64>, ...}}, ... ],
//!   "dropped_events": <u64>
//! }
//! ```
//!
//! Map keys are sorted (inherited from [`MemorySink`]'s `BTreeMap`s),
//! events keep arrival order, and non-finite floats render as `null`,
//! so identical telemetry always renders byte-identical JSON.

use std::fmt::Write as _;

use crate::memory::MemorySink;

/// The `schema_version` stamped into every snapshot. Bump when the
/// layout above changes shape (adding new counter *names* is not a
/// schema change).
pub const SCHEMA_VERSION: u32 = 1;

/// Maximum nesting depth [`JsonValue::parse`] accepts; deeper input is
/// rejected (protects the recursive-descent parser from stack
/// exhaustion on hostile lines).
pub const MAX_DEPTH: usize = 32;

/// A parsed (or to-be-rendered) JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Integers are exact up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in document order (duplicate keys kept; `get`
    /// returns the first).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed).
    /// Numbers and `\u` escapes follow RFC 8259 exactly.
    ///
    /// # Errors
    /// A human-readable description of the first syntax problem.
    pub fn parse(src: &str) -> Result<JsonValue, String> {
        let mut p = Parser { src, pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != src.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// An object with `fields` in the given order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// First field named `key`, if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The truth value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Moves the value of the first member named `key` out of an object,
    /// leaving `null` in its place (so a later duplicate of the key never
    /// surfaces, as with [`get`](Self::get)).
    pub fn take(&mut self, key: &str) -> Option<JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, JsonValue::Null)),
            _ => None,
        }
    }

    /// The owned string, if this is a string.
    pub fn into_string(self) -> Option<String> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The owned elements, if this is an array.
    pub fn into_array(self) -> Option<Vec<JsonValue>> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// One line with no whitespace, for line-delimited protocols.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, 0, false);
        out
    }

    /// The document form every `BENCH_*.json` file and the metrics
    /// snapshot use: the top two levels put one member per line at a
    /// two-space indent, anything deeper stays on one line with `", "`
    /// and `": "` separators. Ends with a newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, 2, true);
        out.push('\n');
        out
    }

    /// Appends `self`, breaking non-empty containers at `depth <
    /// broken` one member per line; `spaced` adds the blanks after `,`
    /// and `:` inside unbroken containers.
    fn write(&self, out: &mut String, depth: usize, broken: usize, spaced: bool) {
        let members: Vec<(Option<&str>, &JsonValue)> = match self {
            JsonValue::Null => return out.push_str("null"),
            JsonValue::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => return push_f64(out, *n),
            JsonValue::Str(s) => return push_str(out, s),
            JsonValue::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            JsonValue::Obj(fields) => fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        };
        let (open, close) = if matches!(self, JsonValue::Arr(_)) { ('[', ']') } else { ('{', '}') };
        let breaks = depth < broken && !members.is_empty();
        out.push(open);
        for (i, (key, v)) in members.into_iter().enumerate() {
            if breaks {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.extend(std::iter::repeat_n(' ', 2 * (depth + 1)));
            } else if i > 0 {
                out.push_str(if spaced { ", " } else { "," });
            }
            if let Some(key) = key {
                push_str(out, key);
                out.push_str(if spaced { ": " } else { ":" });
            }
            v.write(out, depth + 1, broken, spaced);
        }
        if breaks {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', 2 * depth));
        }
        out.push(close);
    }
}

/// Builds a [`JsonValue`] object from `"key": value` pairs, in order;
/// each value goes through `JsonValue::from`.
///
/// ```
/// let doc = qpl_obs::json_obj! { "cores": 2usize, "note": "x", "rows": vec![1.5, 2.0] };
/// assert_eq!(doc.to_compact(), r#"{"cores":2,"note":"x","rows":[1.5,2]}"#);
/// ```
#[macro_export]
macro_rules! json_obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::JsonValue::object([$(($key, $crate::json::JsonValue::from($value))),*])
    };
}

macro_rules! from_impls {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for JsonValue {
            fn from($v: $t) -> Self {
                $e
            }
        })*
    };
}

// Integers are exact up to 2^53.
from_impls! {
    f64 => |v| JsonValue::Num(v),
    u64 => |v| JsonValue::Num(v as f64),
    usize => |v| JsonValue::Num(v as f64),
    bool => |v| JsonValue::Bool(v),
    &str => |v| JsonValue::Str(v.to_string()),
    String => |v| JsonValue::Str(v),
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// `None` renders as `null`.
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if matches!(c, ' ' | '\t' | '\r' | '\n') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.pos += want.len_utf8();
            Ok(())
        } else {
            Err(format!("expected '{want}' at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => self.string().map(JsonValue::Str),
            Some('t') => self.literal("true", JsonValue::Bool(true)),
            Some('f') => self.literal("false", JsonValue::Bool(false)),
            Some('n') => self.literal("null", JsonValue::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{c}' at offset {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`; a
    /// leading zero ends the integer part, so `01` leaves `1` trailing.
    fn number(&mut self) -> Result<JsonValue, String> {
        let bytes = self.src.as_bytes();
        let digits = |p: &mut usize| {
            let from = *p;
            while bytes.get(*p).is_some_and(u8::is_ascii_digit) {
                *p += 1;
            }
            *p > from
        };
        let start = self.pos;
        let bad = || format!("bad number at offset {start}");
        let mut p = start + usize::from(bytes[start] == b'-');
        if bytes.get(p) == Some(&b'0') {
            p += 1;
        } else if !digits(&mut p) {
            return Err(bad());
        }
        if bytes.get(p) == Some(&b'.') {
            p += 1;
            if !digits(&mut p) {
                return Err(bad());
            }
        }
        if matches!(bytes.get(p), Some(b'e' | b'E')) {
            p += 1;
            if matches!(bytes.get(p), Some(b'+' | b'-')) {
                p += 1;
            }
            if !digits(&mut p) {
                return Err(bad());
            }
        }
        self.pos = p;
        self.src[start..p].parse::<f64>().map(JsonValue::Num).map_err(|_| bad())
    }

    /// Copies each run up to the next quote, backslash or control byte
    /// as one slice. Those stop bytes are ASCII, so every run ends on a
    /// char boundary.
    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let bytes = self.src.as_bytes();
        let mut out = String::new();
        loop {
            let run = bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let Some(len) = run else {
                return Err("unterminated string".to_string());
            };
            out.push_str(&self.src[self.pos..self.pos + len]);
            self.pos += len + 1;
            match bytes[self.pos - 1] {
                b'"' => return Ok(out),
                b'\\' => self.escape(&mut out)?,
                _ => return Err("raw control character in string".to_string()),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let Some(c) = self.peek() else {
            return Err("unterminated escape".to_string());
        };
        self.pos += c.len_utf8();
        match c {
            '"' | '\\' | '/' => out.push(c),
            'b' => out.push('\u{0008}'),
            'f' => out.push('\u{000c}'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hi = self.hex4()?;
                let ch = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair; an unpaired surrogate degrades to
                    // the replacement character rather than an error.
                    if self.src[self.pos..].starts_with("\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if (0xDC00..0xE000).contains(&lo) {
                            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code).unwrap_or('\u{FFFD}')
                        } else {
                            '\u{FFFD}'
                        }
                    } else {
                        '\u{FFFD}'
                    }
                } else {
                    char::from_u32(hi).unwrap_or('\u{FFFD}')
                };
                out.push(ch);
            }
            other => return Err(format!("bad escape \\{other}")),
        }
        Ok(())
    }

    /// Exactly four hex digits (no sign, unlike `from_str_radix`).
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err("bad \\u escape".to_string());
        }
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect('{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some('}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect('[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some(']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }
}

/// Appends a JSON string literal with the escapes JSON requires.
#[inline]
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an `f64` as a JSON number through its shortest round-trip
/// `Display` (parsing it back gives the identical bits); non-finite
/// values become `null` (JSON has no NaN/Infinity).
#[inline]
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A rendered, schema-stable JSON view of everything a [`MemorySink`]
/// recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonSnapshot {
    value: JsonValue,
    json: String,
}

impl JsonSnapshot {
    /// Render `sink`'s current contents.
    pub fn capture(sink: &MemorySink) -> Self {
        // The sink's own drop count is surfaced twice: as the legacy
        // top-level `dropped_events` field and as a synthetic counter
        // under the canonical cross-crate name, merged into sorted
        // position so consumers that only read the counters map (the
        // serve stats endpoint, the snapshot schema check) still see it.
        let mut counters: std::collections::BTreeMap<&str, u64> = sink.counters().collect();
        *counters.entry(crate::names::obs::EVENTS_DROPPED).or_insert(0) += sink.dropped_events();
        let values = sink.values().map(|(name, v)| {
            (name, crate::json_obj! { "count": v.count, "sum": v.sum, "min": v.min, "max": v.max })
        });
        let spans = sink.spans().map(|(name, s)| {
            let span = crate::json_obj! {
                "count": s.count, "total_ns": s.total_ns, "min_ns": s.min_ns, "max_ns": s.max_ns
            };
            (name, span)
        });
        let events: Vec<JsonValue> = sink
            .events()
            .iter()
            .map(|e| {
                let fields = JsonValue::object(e.fields.iter().map(|&(k, v)| (k, v.into())));
                crate::json_obj! { "name": e.name, "fields": fields }
            })
            .collect();
        let value = crate::json_obj! {
            "schema_version": f64::from(SCHEMA_VERSION),
            "counters": JsonValue::object(counters.into_iter().map(|(name, n)| (name, n.into()))),
            "values": JsonValue::object(values),
            "spans": JsonValue::object(spans),
            "events": events,
            "dropped_events": sink.dropped_events(),
        };
        let json = value.to_pretty();
        JsonSnapshot { value, json }
    }

    /// The rendered JSON document (ends with a newline).
    pub fn as_str(&self) -> &str {
        &self.json
    }

    /// The snapshot as a value, e.g. for a schema check.
    pub fn as_value(&self) -> &JsonValue {
        &self.value
    }

    /// The document rendered as one line, with the same `", "` and
    /// `": "` separators as the pretty form, for embedding a snapshot
    /// inside a line-delimited wire protocol.
    pub fn as_line(&self) -> String {
        let mut out = String::with_capacity(self.json.len());
        self.value.write(&mut out, 0, 0, true);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MetricsSink;

    fn sample_sink() -> MemorySink {
        let mut sink = MemorySink::new();
        sink.counter("b.hits", 7);
        sink.counter("a.misses", 2);
        sink.value("cost", 1.5);
        sink.value("cost", 2.5);
        sink.span_ns("phase", 1000);
        sink.event("decide", &[("delta", -0.25), ("accept", 1.0)]);
        sink
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("-2.5e2").unwrap(), JsonValue::Num(-250.0));
        for (text, n) in [("0", 0.0), ("-0", -0.0), ("0.5", 0.5), ("1E+2", 100.0), ("7e-1", 0.7)] {
            assert_eq!(JsonValue::parse(text).unwrap(), JsonValue::Num(n), "{text}");
        }
        assert_eq!(
            JsonValue::parse("\"a\\n\\u0041\\\"\"").unwrap(),
            JsonValue::Str("a\nA\"".to_string())
        );
        let v = JsonValue::parse(r#"{"a":[1,2,{"b":"c"}],"d":null}"#).unwrap();
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        let arr = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[1], JsonValue::Num(2.0));
        assert_eq!(arr[2].get("b").and_then(JsonValue::as_str), Some("c"));
        // `take` moves the first duplicate out, like `get` reads it, and
        // never lets a later duplicate surface in its place.
        let mut dup = JsonValue::parse(r#"{"q":"one","q":"two","a":[true]}"#).unwrap();
        assert_eq!(dup.take("q").and_then(JsonValue::into_string), Some("one".to_string()));
        assert_eq!(dup.take("q"), Some(JsonValue::Null));
        assert_eq!(
            dup.take("a").and_then(JsonValue::into_array),
            Some(vec![JsonValue::Bool(true)])
        );
        assert_eq!(dup.take("z"), None);
        assert_eq!(JsonValue::Num(1.0).take("q"), None);
    }

    #[test]
    fn surrogate_pairs_and_unicode() {
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::Str("😀".to_string())
        );
        // Unpaired surrogate degrades, never errors or panics.
        assert_eq!(
            JsonValue::parse("\"\\ud83dx\"").unwrap(),
            JsonValue::Str("\u{FFFD}x".to_string())
        );
        assert_eq!(JsonValue::parse("\"héllo\"").unwrap(), JsonValue::Str("héllo".to_string()));
        // Multi-byte runs between escapes are copied whole.
        assert_eq!(
            JsonValue::parse("\"héllo\\n wörld \\\"ñ\\\" 😀\\t終わり\\\\\"").unwrap(),
            JsonValue::Str("héllo\n wörld \"ñ\" 😀\t終わり\\".to_string())
        );
        // A surrogate pair between plain-text runs.
        assert_eq!(
            JsonValue::parse("\"ab é\\ud83d\\ude00cd ü\"").unwrap(),
            JsonValue::Str("ab é😀cd ü".to_string())
        );
    }

    #[test]
    fn rejects_malformed_input_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "nul",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "{} trailing",
            "1.2.3",
            "{\"a\":1,}",
            "\"\\q\"",
            "\"\\u12\"",
            "\u{1}",
            // RFC 8259 numbers: no leading zeros, digits on both sides
            // of the point, digits after the exponent.
            "01",
            "-01",
            "1.",
            "-.5",
            "1.e5",
            "-",
            "1e",
            "1e+",
            "+1",
            "[01]",
            // `\u` takes exactly four hex digits, unsigned.
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\ud83d\\u+e00\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        // A raw control byte deep inside a long run is still refused.
        let long = format!("\"{}é\u{1f}{}\"", "x".repeat(300), "y".repeat(300));
        assert_eq!(JsonValue::parse(&long), Err("raw control character in string".to_string()));
        // Depth bomb: rejected, not a stack overflow.
        let bomb = "[".repeat(200) + &"]".repeat(200);
        assert!(JsonValue::parse(&bomb).is_err());
    }

    #[test]
    fn renderers_round_trip_through_the_reader() {
        let doc = crate::json_obj! {
            "name": "a\"b\\c\nd", "big": 9_007_199_254_740_991u64, "none": Option::<f64>::None,
            "flag": true, "rows": vec![crate::json_obj! { "w1": 0.1 }], "empty": Vec::<f64>::new(),
        };
        let compact = doc.to_compact();
        let want = r#"{"name":"a\"b\\c\nd","big":9007199254740991,"none":null,"flag":true,"rows":[{"w1":0.1}],"empty":[]}"#;
        assert_eq!(compact, want);
        let pretty = doc.to_pretty();
        assert!(pretty.contains("\n  \"rows\": [\n    {\"w1\": 0.1}\n  ],\n"), "{pretty}");
        for text in [compact, pretty] {
            assert_eq!(JsonValue::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn snapshot_has_all_top_level_keys() {
        let snap = JsonSnapshot::capture(&sample_sink());
        let parsed = JsonValue::parse(snap.as_str()).unwrap();
        assert_eq!(&parsed, snap.as_value());
        for key in ["schema_version", "counters", "values", "spans", "events", "dropped_events"] {
            assert!(parsed.get(key).is_some(), "missing {key} in {}", snap.as_str());
        }
    }

    #[test]
    fn snapshot_renders_its_documented_layout() {
        let snap = JsonSnapshot::capture(&sample_sink());
        assert_eq!(
            snap.as_str(),
            "{\n  \"schema_version\": 1,\n  \"counters\": {\n    \"a.misses\": 2,\n    \
             \"b.hits\": 7,\n    \"obs.events_dropped\": 0\n  },\n  \"values\": {\n    \
             \"cost\": {\"count\": 2, \"sum\": 4, \"min\": 1.5, \"max\": 2.5}\n  },\n  \
             \"spans\": {\n    \"phase\": {\"count\": 1, \"total_ns\": 1000, \"min_ns\": 1000, \
             \"max_ns\": 1000}\n  },\n  \"events\": [\n    {\"name\": \"decide\", \"fields\": \
             {\"delta\": -0.25, \"accept\": 1}}\n  ],\n  \"dropped_events\": 0\n}\n"
        );
    }

    #[test]
    fn empty_sink_still_renders_every_section() {
        let snap = JsonSnapshot::capture(&MemorySink::new());
        let json = snap.as_str();
        assert!(json.contains("\"obs.events_dropped\": 0"));
        assert!(json.contains("\"events\": []"));
        assert!(json.contains("\"dropped_events\": 0"));
    }

    #[test]
    fn capped_event_drops_surface_as_the_canonical_counter() {
        let mut sink = MemorySink::with_max_events(2);
        for _ in 0..5 {
            sink.event("e", &[]);
        }
        let snap = JsonSnapshot::capture(&sink);
        let counters = snap.as_value().get("counters").unwrap();
        assert_eq!(counters.get("obs.events_dropped").and_then(JsonValue::as_f64), Some(3.0));
        assert!(snap.as_str().contains("\"obs.events_dropped\": 3"), "{}", snap.as_str());
        assert!(snap.as_str().contains("\"dropped_events\": 3"));

        // Drop counts survive a shard merge: two sinks over cap sum.
        let mut other = MemorySink::with_max_events(2);
        for _ in 0..4 {
            other.event("e", &[]);
        }
        sink.merge_from(&other);
        let merged = JsonSnapshot::capture(&sink);
        // 3 own + 2 of other's (other's cap already dropped 2) + 2
        // overflowing this sink's full buffer = 7.
        assert!(merged.as_str().contains("\"obs.events_dropped\": 7"), "{}", merged.as_str());
    }

    #[test]
    fn as_line_is_single_line_and_content_preserving() {
        let mut sink = sample_sink();
        sink.counter("tricky\nname", 1); // escaped newline must survive
        let snap = JsonSnapshot::capture(&sink);
        let line = snap.as_line();
        assert!(!line.contains('\n'), "still multi-line: {line}");
        assert!(line.contains("\"tricky\\nname\": 1"), "escaped content lost: {line}");
        assert!(line.contains("\"schema_version\": 1"));
        let opens = line.matches(['{', '[']).count();
        let closes = line.matches(['}', ']']).count();
        assert_eq!(opens, closes, "unbalanced after flattening:\n{line}");
    }

    #[test]
    fn non_finite_values_render_null() {
        let mut sink = MemorySink::new();
        sink.value("bad", f64::NAN);
        let snap = JsonSnapshot::capture(&sink);
        assert!(snap.as_str().contains("null"));
        assert!(!snap.as_str().contains("NaN"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        push_str(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }
}
