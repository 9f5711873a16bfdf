//! The workspace's one JSON implementation: a [`Json`] value, a compact and
//! a pretty writer, a recursive-descent parser, and the [`ToJson`] trait.
//!
//! Every sidecar, export and configuration file goes through this module,
//! and the output is byte-identical to serde_json's: pretty output indents
//! by two spaces and writes `"key": value`, empty containers print as
//! `[]`/`{}`, there is no trailing newline, finite floats print in Rust's
//! shortest round-trip `{:?}` form (`45.0`), non-finite floats print
//! `null`, and strings escape `"`, `\`, `\b`, `\f`, `\n`, `\r`, `\t` and the
//! other control characters (`\u001f`), nothing else.
//!
//! [`ToJson`] is implemented by hand next to each type that reaches a
//! file, emitting the shape serde's derive would: field names as keys in
//! declaration order ([`impl_to_json!`](crate::impl_to_json)), externally
//! tagged enums with unit variants as bare strings, `None` as `null`,
//! tuples as arrays, maps as objects.
//!
//! The parser accepts exactly RFC 8259 JSON and reports anything else as
//! a [`JsonError`] with its byte offset. It never panics: nesting deeper
//! than 128 levels (serde_json's limit) is an error, not a stack overflow.
//!
//! ```
//! use tracer::json::{Json, ToJson};
//!
//! let v = Json::object([("name", "probe".to_json()), ("hits", 3u64.to_json())]);
//! assert_eq!(v.to_string(), r#"{"name":"probe","hits":3}"#);
//! assert_eq!(v.pretty(), "{\n  \"name\": \"probe\",\n  \"hits\": 3\n}");
//! assert_eq!(Json::parse(v.pretty()), Ok(v));
//! ```

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Nesting depth beyond which the parser gives up (serde_json's limit).
const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Integers keep their exact value. The parser yields [`Json::I64`] only
/// for negative integers, and `i64::to_json` follows the same rule, so a
/// written value parses back equal. Objects keep keys in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A number with a fraction or exponent, or an integer outside the
    /// 64-bit ranges.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys in insertion order.
    Object(Vec<(String, Json)>),
}

/// Why a document could not be parsed, or a parsed value could not be
/// read as the type a caller expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The text is not JSON; `offset` is the byte where parsing stopped.
    Syntax {
        /// Byte offset into the input.
        offset: usize,
        /// What was wrong there.
        reason: &'static str,
    },
    /// The document is JSON but a field is missing, mistyped or out of
    /// range.
    Field {
        /// The offending field's name.
        field: String,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, reason } => write!(f, "{reason} at byte {offset}"),
            JsonError::Field { field, reason } => write!(f, "field `{field}`: {reason}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Conversion into a [`Json`] value with the shape serde's derive emits.
pub trait ToJson {
    /// The value as JSON.
    fn to_json(&self) -> Json;
}

/// Implements [`ToJson`] from a hand-written list of a type's JSON shape,
/// the one serde's derive emits:
///
/// * `impl_to_json!(struct Point { x, label });` — an object of the listed
///   fields, keyed by field name, in the order given;
/// * `impl_to_json!(enum Color);` — a fieldless enum as the bare string of
///   its variant name (its derived `Debug`).
#[macro_export]
macro_rules! impl_to_json {
    (struct $ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::object([
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field))),+
                ])
            }
        }
    };
    (enum $ty:ty) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Str(format!("{self:?}"))
            }
        }
    };
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// [`JsonError::Syntax`] at the first problem: invalid syntax or UTF-8,
    /// a lone surrogate escape, a number beyond `f64`, nesting beyond 128
    /// levels, or trailing content.
    pub fn parse(input: impl AsRef<[u8]>) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_ref(), pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }

    /// Pretty output: two-space indent, `"key": value`, no trailing
    /// newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// The value of `key` when `self` is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Reads the required object field `name` through `convert`.
    ///
    /// # Errors
    ///
    /// [`JsonError::Field`] when the field is missing, or when `convert`
    /// rejects it (the message says it expected `expected`).
    pub fn field<T>(
        &self,
        name: &str,
        expected: &str,
        convert: impl FnOnce(&Json) -> Option<T>,
    ) -> Result<T, JsonError> {
        let fail = |reason: String| JsonError::Field { field: name.to_owned(), reason };
        let value = self.get(name).ok_or_else(|| fail("missing field".to_owned()))?;
        convert(value).ok_or_else(|| fail(format!("expected {expected}, found {value}")))
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer, if this is a non-negative one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The `(key, value)` pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Writes `self`; `indent` is the current depth for pretty output,
    /// `None` for compact.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => write!(out, "{n}").expect("writing to a String"),
            Json::I64(n) => write!(out, "{n}").expect("writing to a String"),
            Json::F64(x) if x.is_finite() => write!(out, "{x:?}").expect("writing to a String"),
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => write_seq(out, indent, "[]", items, |out, item, inner| {
                item.write(out, inner);
            }),
            Json::Object(fields) => write_seq(out, indent, "{}", fields, |out, (k, v), inner| {
                write_str(out, k);
                out.push_str(if inner.is_some() { ": " } else { ":" });
                v.write(out, inner);
            }),
        }
    }
}

/// Writes a sequence between the two characters of `brackets`; pretty
/// output puts each element on its own line one level deeper.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    brackets: &str,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T, Option<usize>),
) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    out.push_str(&brackets[..1]);
    let inner = indent.map(|d| d + 1);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(depth) = inner {
            newline(out, depth);
        }
        write_item(out, item, inner);
    }
    if let (Some(depth), false) = (indent, items.is_empty()) {
        newline(out, depth);
    }
    out.push_str(&brackets[1..]);
}

/// Writes `s` as a quoted JSON string, escaping as serde_json does.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => write!(out, "\\u{:04x}", u32::from(c)).expect("writing to a String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Compact output: no whitespace at all.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &'static str) -> JsonError {
        JsonError::Syntax { offset: self.pos, reason }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(depth + 1, b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.seq(depth + 1, b'}', |p| {
                    p.skip_ws();
                    if p.peek() != Some(b'"') {
                        return Err(p.err("expected a string key"));
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    if p.peek() != Some(b':') {
                        return Err(p.err("expected `:`"));
                    }
                    p.pos += 1;
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Object(fields))
            }
            Some(_) => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &'static str, value: Json) -> Result<Json, JsonError> {
        for &b in word.as_bytes() {
            if self.peek() != Some(b) {
                return Err(self.err("invalid literal"));
            }
            self.pos += 1;
        }
        Ok(value)
    }

    /// Parses the comma-separated elements of an array or object, from its
    /// opening bracket through `close`.
    fn seq(
        &mut self,
        depth: usize,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or a closing bracket")),
            }
        }
    }

    /// Parses a string literal starting at its opening quote.
    fn string(&mut self) -> Result<String, JsonError> {
        let start = self.pos;
        self.pos += 1;
        let mut buf = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    buf.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(0..=0x1f) => return Err(self.err("control character in string")),
                Some(b) => {
                    buf.push(b);
                    self.pos += 1;
                }
            }
        }
        self.pos += 1;
        String::from_utf8(buf)
            .map_err(|_| JsonError::Syntax { offset: start, reason: "invalid UTF-8 in string" })
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            None => return Err(self.err("unterminated string")),
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                        return Err(self.err("lone surrogate in string"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("lone surrogate in string"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                return char::from_u32(code).ok_or_else(|| self.err("lone surrogate in string"));
            }
            Some(_) => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Consumes a run of digits, failing when it is empty.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        let int_start = self.pos;
        self.digits()?;
        if self.bytes[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(JsonError::Syntax { offset: int_start, reason: "leading zero" });
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        // digits, signs, `.` and `e` only, so the slice is always UTF-8
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            if negative {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(n.to_json());
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::F64(x)),
            _ => Err(JsonError::Syntax { offset: start, reason: "number out of range" }),
        }
    }
}

/// `ToJson` for the scalars whose `Json` variant they convert into.
macro_rules! scalar_to_json {
    ($($ty:ty => $variant:ident),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::$variant((*self).into())
            }
        }
    )+};
}

scalar_to_json!(bool => Bool, u8 => U64, u64 => U64, f64 => F64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

/// Non-negative values become [`Json::U64`], as the parser reads them.
impl ToJson for i64 {
    fn to_json(&self) -> Json {
        u64::try_from(*self).map_or(Json::I64(*self), Json::U64)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for Cow<'_, str> {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_json(&self) -> Json {
        Json::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syntax_offset(text: &str) -> usize {
        match Json::parse(text) {
            Err(JsonError::Syntax { offset, .. }) => offset,
            other => panic!("{text:?} should be a syntax error, got {other:?}"),
        }
    }

    #[test]
    fn pretty_output_matches_serde_json_layout() {
        let v = Json::object([
            ("a", Json::Array(vec![Json::U64(1), (-2i64).to_json()])),
            ("empty_list", Json::Array(vec![])),
            ("empty_map", Json::Object(vec![])),
            ("nested", Json::object([("x", Json::Null)])),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [\n    1,\n    -2\n  ],\n  \"empty_list\": [],\n  \"empty_map\": {},\n  \
             \"nested\": {\n    \"x\": null\n  }\n}"
        );
        assert_eq!(
            v.to_string(),
            r#"{"a":[1,-2],"empty_list":[],"empty_map":{},"nested":{"x":null}}"#
        );
    }

    #[test]
    fn numbers_print_like_serde_json() {
        assert_eq!(Json::F64(45.0).to_string(), "45.0");
        assert_eq!(Json::F64(0.1).to_string(), "0.1");
        assert_eq!(Json::F64(61996633.0).to_string(), "61996633.0");
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::NEG_INFINITY).to_string(), "null");
        assert_eq!(Json::U64(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(i64::MIN.to_json().to_string(), "-9223372036854775808");
    }

    #[test]
    fn strings_escape_like_serde_json() {
        let s = "a\"b\\c\nd\u{1}\u{8}\u{c}\t\r\u{7f}é/".to_json();
        assert_eq!(s.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\\b\\f\\t\\r\u{7f}é/\"");
        assert_eq!(Json::parse(s.to_string()), Ok(s));
    }

    #[test]
    fn parses_numbers_exactly() {
        assert_eq!(Json::parse("18446744073709551615"), Ok(Json::U64(u64::MAX)));
        assert_eq!(Json::parse("-9223372036854775808"), Ok(Json::I64(i64::MIN)));
        assert_eq!(Json::parse("-0"), Ok(Json::U64(0)));
        assert_eq!(Json::parse("18446744073709551616"), Ok(Json::F64(18446744073709551616.0)));
        assert_eq!(Json::parse("1.5e3"), Ok(Json::F64(1500.0)));
        assert_eq!(Json::parse(" 7 "), Ok(Json::U64(7)));
    }

    #[test]
    fn parses_escapes_and_surrogate_pairs() {
        assert_eq!(Json::parse(r#""é\/😀""#), Ok("é/😀".to_json()));
    }

    #[test]
    fn rejects_malformed_input_with_offsets() {
        assert_eq!(syntax_offset(""), 0);
        assert_eq!(syntax_offset("nul"), 3);
        assert_eq!(syntax_offset("[1,]"), 3);
        assert_eq!(syntax_offset("[1 2]"), 3);
        assert_eq!(syntax_offset("{\"a\" 1}"), 5);
        assert_eq!(syntax_offset("{1:2}"), 1);
        assert_eq!(syntax_offset("01"), 0);
        assert_eq!(syntax_offset("1."), 2);
        assert_eq!(syntax_offset("1e400"), 0);
        assert_eq!(syntax_offset("\"a\u{1}\""), 2);
        assert_eq!(syntax_offset(r#""\x""#), 2);
        assert_eq!(syntax_offset(r#""\ud83d""#), 7);
        assert_eq!(syntax_offset("{} x"), 3);
        assert_eq!(syntax_offset(&"[".repeat(MAX_DEPTH + 1)), MAX_DEPTH);
        assert!(Json::parse([b'"', 0xff, b'"']).is_err(), "invalid UTF-8");
    }

    #[test]
    fn field_errors_name_the_field() {
        let v = Json::parse(r#"{"n": "x"}"#).unwrap();
        let err = v.field("n", "an integer", Json::as_u64).unwrap_err();
        assert_eq!(err.to_string(), "field `n`: expected an integer, found \"x\"");
        let err = v.field("m", "an integer", Json::as_u64).unwrap_err();
        assert_eq!(err.to_string(), "field `m`: missing field");
    }

    #[test]
    fn std_types_take_serde_shapes() {
        let mut map = BTreeMap::new();
        map.insert("k".to_owned(), (1usize, Some(2.5), None::<u64>));
        assert_eq!(map.to_json().to_string(), r#"{"k":[1,2.5,null]}"#);
        assert_eq!([10u8, 11, 12, 13].to_json().to_string(), "[10,11,12,13]");
        struct Point {
            x: u64,
            label: String,
        }
        crate::impl_to_json!(struct Point { x, label });
        let p = Point { x: 3, label: "p".to_owned() };
        assert_eq!(p.to_json().to_string(), r#"{"x":3,"label":"p"}"#);
        #[derive(Debug)]
        enum Color {
            DarkRed,
        }
        crate::impl_to_json!(enum Color);
        assert_eq!(Color::DarkRed.to_json(), "DarkRed".to_json());
    }
}
