//! A minimal JSON value, parser, and renderer.
//!
//! The workspace's only JSON stack: every wire format in the tree — Chrome
//! trace export, report `--json` output, and the `ptsim-serve` HTTP API —
//! is built on this module. [`Json`] is the document model, [`parse_json`]
//! the strict recursive-descent reader, and [`Json::render`] the writer.
//! The [`ToJson`]/[`FromJson`] traits give structured types a round-trip,
//! declared once per record by [`json_record!`](crate::json_record).
//! Numbers ride on `f64`, exact for every integer up to 2^53: an integer
//! field reads only a whole number in `0..=`[`MAX_EXACT_INT`], so a value
//! that would truncate or saturate is an error naming the key. Writing
//! stays exact because `SimConfig::validate` bounds every count, latency
//! and timing, keeping cycle counts and byte totals far below 2^53.
//!
//! # Examples
//!
//! ```
//! use ptsim_common::json::{parse_json, Json};
//!
//! let doc = parse_json(r#"{"cycles": 1200, "jobs": ["a", "b"]}"#)?;
//! assert_eq!(doc.get("cycles").and_then(Json::as_num), Some(1200.0));
//! let text = doc.render();
//! assert_eq!(parse_json(&text)?, doc);
//! # Ok::<(), String>(())
//! ```

use crate::cycles::Cycle;
use std::collections::HashMap;
use std::fmt::Write as _;

/// The largest integer every integer field reads: 2^53, the last one an
/// `f64` holds exactly.
pub const MAX_EXACT_INT: u64 = 1 << 53;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, ready for [`Json::set`] chaining.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (exact up to 2^53).
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// A `u64` value. Exact up to 2^53; larger magnitudes (never produced
    /// by the simulator) round to the nearest representable `f64`.
    pub fn u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Appends a field to an object (panics on non-objects — builder use
    /// only).
    #[must_use]
    pub fn set(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A required object field, as a typed error on absence.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing field {key:?}"))
    }

    /// A required numeric field.
    pub fn req_num(&self, key: &str) -> Result<f64, String> {
        self.req(key)?.as_num().ok_or_else(|| format!("field {key:?} must be a number"))
    }

    /// A required integer field read as `u64`: a whole number in
    /// `0..=`[`MAX_EXACT_INT`].
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.field(key)
    }

    /// An object field converted by its type's [`FromJson`], with the key
    /// named in any error. A missing key reads as `null`, so an `Option`
    /// field may be left out; any other type reports `missing field "key"`.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, String> {
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| format!("field {key:?}: {e}")),
            None => T::from_json(&Json::Null).map_err(|_| format!("missing field {key:?}")),
        }
    }

    /// A required string field.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.req(key)?.as_str().ok_or_else(|| format!("field {key:?} must be a string"))
    }

    /// Renders the value as compact JSON text that [`parse_json`] reads
    /// back identically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => render_num(*n, out),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_num(n: f64, out: &mut String) {
    // Writing into a `String` cannot fail.
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional fallback.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's shortest round-trip float formatting.
        let _ = write!(out, "{n}");
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Escapes `s` for embedding between the quotes of a JSON string literal:
/// quotes, backslashes, and control characters (`\n`, `\r`, `\t` short,
/// the rest as `\u00XX`). The workspace's one string escaper — [`Json::render`]
/// and the hand-assembled writers (Chrome traces, `/metrics.json`, check
/// reports) all go through it.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

fn escape_into(s: &str, out: &mut String) {
    // Every character that needs escaping is ASCII, so scanning bytes finds
    // them, and the runs in between are copied as whole slices.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Renders a type as a [`Json`] document.
pub trait ToJson {
    /// The JSON document for this value.
    fn to_json(&self) -> Json;

    /// The rendered JSON text.
    fn to_json_string(&self) -> String {
        self.to_json().render()
    }
}

/// Reconstructs a type from a [`Json`] document.
pub trait FromJson: Sized {
    /// Parses the value, with a human-readable error naming the offending
    /// field.
    fn from_json(v: &Json) -> Result<Self, String>;

    /// Parses from JSON text.
    fn from_json_str(s: &str) -> Result<Self, String> {
        Self::from_json(&parse_json(s)?)
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

/// Declares the JSON form of an existing record once, from its field list.
///
/// Each field's key is its name and the keys render in list order; each
/// value converts through its own type's [`ToJson`]/[`FromJson`]. The
/// generated bodies destructure the whole type, so a field left off the
/// list is a compile error, not a key silently missing from a cache key.
/// Three forms:
///
/// - `json_record!(Type { a, b })` generates [`ToJson`] and [`FromJson`];
/// - `json_record!(ToJson for Type { a, b })` generates only [`ToJson`],
///   for an output record that nothing parses;
/// - `json_record!(enum Type { A, B })` maps each unit variant to and from
///   its name as a string.
///
/// # Examples
///
/// ```
/// use ptsim_common::json::{FromJson, ToJson};
/// use ptsim_common::json_record;
///
/// #[derive(Debug, PartialEq)]
/// struct Link { lanes: u64, latency_ns: f64, spare: Option<u64> }
/// json_record!(Link { lanes, latency_ns, spare });
///
/// let link = Link { lanes: 4, latency_ns: 2.5, spare: None };
/// assert_eq!(link.to_json_string(), r#"{"lanes":4,"latency_ns":2.5,"spare":null}"#);
/// assert_eq!(Link::from_json_str(r#"{"lanes":4,"latency_ns":2.5}"#)?, link);
/// assert!(Link::from_json_str(r#"{"lanes":2.5,"latency_ns":1}"#).unwrap_err().contains("lanes"));
/// # Ok::<(), String>(())
/// ```
///
/// A field left off the list does not compile:
///
/// ```compile_fail
/// use ptsim_common::json_record;
///
/// struct Link { lanes: u64, latency_ns: f64 }
/// json_record!(Link { lanes });
/// ```
#[macro_export]
macro_rules! json_record {
    (enum $ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::str(match self {
                    $($ty::$variant => stringify!($variant),)+
                })
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> ::std::result::Result<Self, String> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok($ty::$variant),)+
                    _ => Err(format!("bad {} {v:?}", stringify!($ty))),
                }
            }
        }
    };
    (ToJson for $ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let $ty { $($field),+ } = self;
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(), $crate::json::ToJson::to_json($field)),)+
                ])
            }
        }
    };
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        $crate::json_record!(ToJson for $ty { $($field),+ });

        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> ::std::result::Result<Self, String> {
                Ok($ty { $($field: v.field(stringify!($field))?),+ })
            }
        }
    };
}

/// Reads a whole number in `0..=`[`MAX_EXACT_INT`]; anything else would
/// truncate or saturate on the cast.
fn exact_int(v: &Json) -> Result<u64, String> {
    match v.as_num() {
        Some(n) if n >= 0.0 && n <= MAX_EXACT_INT as f64 && n.fract() == 0.0 => Ok(n as u64),
        _ => Err(format!("expected a whole number in 0..=2^53, got {}", v.render())),
    }
}

macro_rules! integer_json {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }

        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, String> {
                let n = exact_int(v)?;
                <$ty>::try_from(n).map_err(|_| format!("{n} does not fit a {}", stringify!($ty)))
            }
        }
    )+};
}

integer_json!(u64, usize, u32);

impl ToJson for Cycle {
    fn to_json(&self) -> Json {
        Json::u64(self.raw())
    }
}

impl FromJson for Cycle {
    fn from_json(v: &Json) -> Result<Self, String> {
        exact_int(v).map(Cycle::new)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_num().ok_or_else(|| format!("expected a number, got {}", v.render()))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| format!("expected a boolean, got {}", v.render()))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::str(self)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::str(*self)
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("expected a string, got {}", v.render()))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_arr().ok_or("expected an array")?.iter().map(T::from_json).collect()
    }
}

impl ToJson for HashMap<u32, u64> {
    fn to_json(&self) -> Json {
        // Deterministic rendering: sort by key.
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort();
        Json::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), Json::u64(*v))).collect())
    }
}

impl FromJson for HashMap<u32, u64> {
    fn from_json(v: &Json) -> Result<Self, String> {
        let Json::Obj(fields) = v else {
            return Err("expected an object of tag -> bytes".into());
        };
        fields
            .iter()
            .map(|(k, v)| {
                let tag = k.parse::<u32>().map_err(|_| format!("bad tag key {k:?}"))?;
                Ok((tag, u64::from_json(v).map_err(|e| format!("tag {k:?}: {e}"))?))
            })
            .collect()
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { src: s, bytes: s.as_bytes(), pos: 0 }
    }

    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(&format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("bad number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash as one
            // slice: both are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..].iter().position(|&b| matches!(b, b'"' | b'\\'));
            let Some(run) = run else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            // The run stopped at a quote (done) or a backslash (an escape).
            if self.bump() == Some(b'"') {
                return Ok(out);
            }
            match self.bump() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    if self.pos + 4 > self.bytes.len() {
                        return Err(self.err("truncated \\u escape"));
                    }
                    let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                        .map_err(|_| self.err("bad \\u escape"))?;
                    let cp =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogates are not produced by our writers.
                    out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                }
                _ => return Err(self.err("bad escape")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(fields)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a JSON document, rejecting trailing data.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_basic_values() {
        let v = parse_json(r#"{"a":[1,2.5,-3],"b":"x\ny","c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        let Json::Arr(items) = v.get("a").unwrap() else { panic!() };
        assert_eq!(items[2], Json::Num(-3.0));
    }

    #[test]
    fn escape_handles_quotes_and_control() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn strings_mixing_plain_runs_escapes_and_multibyte_round_trip() {
        for s in ["", "plain", "é→✓ 🚀", "a\"b\\c\nd\re\tf\u{1}g\u{1f}", "\"", "end\\", "ü\u{7}ü"]
        {
            let text = Json::str(s).render();
            assert_eq!(parse_json(&text).unwrap(), Json::str(s), "{text}");
        }
        assert_eq!(Json::str("é\u{1}ü\"").render(), "\"é\\u0001ü\\\"\"");
        assert_eq!(parse_json(r#""aééb\/c""#).unwrap(), Json::str("aééb/c"));
        assert!(parse_json(r#""abc"#).unwrap_err().contains("unterminated"));
        assert!(parse_json(r#""a\qb""#).unwrap_err().contains("bad escape"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("[] trailing").is_err());
    }

    #[test]
    fn render_parse_round_trips() {
        let doc = Json::obj()
            .set("name", Json::str("a \"quoted\"\nname"))
            .set("n", Json::u64(123456789))
            .set("pi", Json::Num(3.25))
            .set("flags", Json::Arr(vec![Json::Bool(true), Json::Null]))
            .set("nested", Json::obj().set("x", Json::num(0)));
        let text = doc.render();
        assert_eq!(parse_json(&text).unwrap(), doc);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::u64(940).render(), "940");
        assert_eq!(Json::Num(940.0).render(), "940");
        assert_eq!(Json::Num(940.5).render(), "940.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(-0.125).render(), "-0.125");
        assert_eq!(Json::Num(1e300).render(), format!("{}", 1e300));
    }

    #[test]
    fn req_helpers_name_the_field() {
        let doc = parse_json(r#"{"n": 3, "s": "x", "b": false}"#).unwrap();
        assert_eq!(doc.req_u64("n").unwrap(), 3);
        assert_eq!(doc.req_str("s").unwrap(), "x");
        assert!(!doc.field::<bool>("b").unwrap());
        assert!(doc.field::<bool>("n").unwrap_err().contains("\"n\""));
        assert_eq!(doc.field::<Option<u64>>("absent").unwrap(), None);
        assert_eq!(doc.field::<u64>("absent").unwrap_err(), r#"missing field "absent""#);
        assert!(doc.req("missing").unwrap_err().contains("missing"));
        assert!(doc.req_num("s").unwrap_err().contains("\"s\""));
    }

    #[test]
    fn tag_maps_round_trip_deterministically() {
        let mut m = HashMap::new();
        m.insert(7u32, 1024u64);
        m.insert(1u32, 64u64);
        let text = m.to_json().render();
        assert_eq!(text, r#"{"1":64,"7":1024}"#, "keys must be sorted");
        assert_eq!(HashMap::<u32, u64>::from_json_str(&text).unwrap(), m);
    }

    /// Negatives, fractions and magnitudes past 2^53 would truncate or
    /// saturate on the cast, so every integer type rejects them.
    #[test]
    fn negative_values_are_rejected_for_u64_fields() {
        for bad in ["2.5", "1e20", "9007199254740994", "true", "\"3\"", "null"] {
            let doc = parse_json(&format!(r#"{{"n": {bad}}}"#)).unwrap();
            let err = doc.req_u64("n").unwrap_err();
            assert!(err.contains("\"n\""), "{bad}: {err}");
            assert!(doc.field::<usize>("n").is_err(), "{bad}");
            assert!(doc.field::<u32>("n").is_err(), "{bad}");
            assert!(doc.field::<Cycle>("n").is_err(), "{bad}");
        }
        let doc = parse_json(r#"{"max": 9007199254740992, "big": 4294967296}"#).unwrap();
        assert_eq!(doc.req_u64("max").unwrap(), MAX_EXACT_INT);
        assert_eq!(doc.req_u64("big").unwrap(), 1 << 32);
        assert!(doc.field::<u32>("big").unwrap_err().contains("\"big\""));
        assert!(doc.field::<u32>("max").is_err());
    }
}
