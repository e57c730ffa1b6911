//! Dependency-free JSON values with deterministic serialization — the
//! workspace's one JSON layer.
//!
//! Two kinds of file go through it, and both need bytes that are
//! *identical* across runs and thread schedules: the artifacts of the
//! experiment regenerators and the benchmark harness (`results/<id>.json`,
//! `BENCH_experiments.json`, span traces — the CI determinism gate
//! literally `cmp`s them), and the state `abrctl` persists beside a disk
//! image (the embedded disk model, `*.fs.json`, `*.wl.json`, workload
//! traces, the counts and stats sidecars). This module provides:
//!
//! * [`JsonValue`] — an order-preserving JSON tree (object keys keep
//!   insertion order, so serial and parallel runs emit identical bytes).
//! * [`jsn!`](crate::jsn) — a `serde_json::json!`-style constructor macro.
//! * Deterministic writers ([`JsonValue::pretty`], `Display`): floats are
//!   printed with Rust's shortest round-trip representation, objects in
//!   insertion order, no locale or hash-order dependence anywhere.
//! * A strict parser ([`JsonValue::parse`]) for `abrctl report` and for
//!   reading artifacts back in tests.
//! * [`FromJson`] and [`JsonValue::at`] for reading persisted state back:
//!   each persisted type writes itself with a hand-written `to_json` and
//!   reads itself back with `FromJson::from_json`. Persisted objects list
//!   their keys in sorted order, integer-keyed maps included
//!   ([`JsonValue::keyed_by_u64`]) — the order those files have had since
//!   the format began.

use std::collections::BTreeMap;
use std::fmt;

/// An order-preserving JSON value.
///
/// Integers keep their signedness ([`JsonValue::Int`] / [`JsonValue::UInt`])
/// so `u64` reference counts survive a write/parse round trip exactly;
/// numeric comparisons across variants are supported via `PartialEq`.
#[derive(Debug, Clone, Default)]
pub enum JsonValue {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (counts can exceed `i64::MAX`).
    UInt(u64),
    /// A double. Non-finite values serialize as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, JsonValue)>),
}

static NULL: JsonValue = JsonValue::Null;

impl JsonValue {
    /// An empty object.
    pub fn object() -> JsonValue {
        JsonValue::Object(Vec::new())
    }

    /// An empty array.
    pub fn array() -> JsonValue {
        JsonValue::Array(Vec::new())
    }

    /// Insert (or replace) `key` in an object. Turns `Null` into an
    /// object first; panics on any other non-object variant.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) {
        if matches!(self, JsonValue::Null) {
            *self = JsonValue::object();
        }
        let JsonValue::Object(entries) = self else {
            panic!("insert on non-object JsonValue");
        };
        let key = key.into();
        let value = value.into();
        if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            entries.push((key, value));
        }
    }

    /// Append to an array. Turns `Null` into an array first; panics on
    /// any other non-array variant.
    pub fn push(&mut self, value: impl Into<JsonValue>) {
        if matches!(self, JsonValue::Null) {
            *self = JsonValue::array();
        }
        let JsonValue::Array(items) = self else {
            panic!("push on non-array JsonValue");
        };
        items.push(value.into());
    }

    /// `true` for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// The boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Any numeric variant as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Any integral variant as `i64` (floats only when exactly integral).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            JsonValue::UInt(n) => i64::try_from(*n).ok(),
            JsonValue::Float(x) if x.fract() == 0.0 && x.abs() < 9.0e15 => Some(*x as i64),
            _ => None,
        }
    }

    /// Any non-negative integral variant as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => u64::try_from(*n).ok(),
            JsonValue::UInt(n) => Some(*n),
            JsonValue::Float(x) if x.fract() == 0.0 && *x >= 0.0 && *x < 9.0e15 => Some(*x as u64),
            _ => None,
        }
    }

    /// The string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an `Array`.
    pub fn as_array(&self) -> Option<&Vec<JsonValue>> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The entries, if this is an `Object`.
    pub fn as_object(&self) -> Option<&Vec<(String, JsonValue)>> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object field by key (`None` on missing key or non-object).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(o) => o.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element by index (`None` when out of range or non-array).
    pub fn get_idx(&self, idx: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Array(a) => a.get(idx),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline —
    /// the on-disk artifact format. Deterministic byte-for-byte.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(entries) if !entries.is_empty() => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => {
                use fmt::Write as _;
                let _ = write!(out, "{other}");
            }
        }
    }

    /// Parse a JSON document (strict: one value, nothing but whitespace
    /// after it).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for JsonValue {
    /// Compact serialization. Floats use Rust's shortest round-trip
    /// formatting (`{:?}`), which is deterministic; non-finite floats
    /// become `null` (JSON has no NaN/Inf).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Int(n) => write!(f, "{n}"),
            JsonValue::UInt(n) => write!(f, "{n}"),
            JsonValue::Float(x) if x.is_finite() => write!(f, "{x:?}"),
            JsonValue::Float(_) => f.write_str("null"),
            JsonValue::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::with_capacity(k.len() + 2);
                    write_escaped(&mut buf, k);
                    f.write_str(&buf)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse error with byte offset context, or a well-formed document of
/// the wrong shape for the type reading it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input (`None` for shape errors).
    pub offset: Option<usize>,
}

impl JsonError {
    /// A shape error: the document parsed but does not hold the value.
    pub fn new(message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)?;
        match self.offset {
            Some(offset) => write!(f, " at byte {offset}"),
            None => Ok(()),
        }
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            message: msg.into(),
            offset: Some(self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected byte `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our
                            // artifacts; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        #[expect(clippy::expect_used, reason = "the number scan accepts ASCII only")]
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonError {
                message: format!("invalid number `{text}`"),
                offset: Some(start),
            })
    }
}

// ---- indexing ----------------------------------------------------------

impl std::ops::Index<&str> for JsonValue {
    type Output = JsonValue;
    /// Lenient indexing like `serde_json`: missing keys yield `Null`.
    fn index(&self, key: &str) -> &JsonValue {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for JsonValue {
    type Output = JsonValue;
    /// Lenient indexing: out-of-range yields `Null`.
    fn index(&self, idx: usize) -> &JsonValue {
        self.get_idx(idx).unwrap_or(&NULL)
    }
}

// ---- equality ----------------------------------------------------------

impl PartialEq for JsonValue {
    /// Structural equality; numbers compare across variants
    /// (`Int(2) == Float(2.0)`).
    fn eq(&self, other: &JsonValue) -> bool {
        use JsonValue::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Array(a), Array(b)) => a == b,
            (Object(a), Object(b)) => a == b,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        }
    }
}

macro_rules! impl_num_eq {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for JsonValue {
            fn eq(&self, other: &$t) -> bool {
                self.as_f64() == Some(*other as f64)
            }
        }
        impl PartialEq<JsonValue> for $t {
            fn eq(&self, other: &JsonValue) -> bool {
                other == self
            }
        }
    )*};
}
impl_num_eq!(i8, i16, i32, i64, u8, u16, u32, u64, usize, f32, f64);

impl PartialEq<bool> for JsonValue {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<str> for JsonValue {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for JsonValue {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

// ---- conversions -------------------------------------------------------

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(v: $t) -> JsonValue {
                JsonValue::Int(v as i64)
            }
        }
    )*};
}
impl_from_int!(i8, i16, i32, i64, isize);

macro_rules! impl_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(v: $t) -> JsonValue {
                JsonValue::UInt(v as u64)
            }
        }
    )*};
}
impl_from_uint!(u8, u16, u32, u64, usize);

impl From<f32> for JsonValue {
    fn from(v: f32) -> JsonValue {
        JsonValue::Float(f64::from(v))
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> JsonValue {
        JsonValue::Float(v)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> JsonValue {
        JsonValue::Bool(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> JsonValue {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> JsonValue {
        JsonValue::Str(v)
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> JsonValue {
        v.map_or(JsonValue::Null, Into::into)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> JsonValue {
        JsonValue::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Clone + Into<JsonValue>> From<&[T]> for JsonValue {
    fn from(v: &[T]) -> JsonValue {
        JsonValue::Array(v.iter().cloned().map(Into::into).collect())
    }
}

/// References to convertible values (e.g. the `Vec<&u64>` an iterator
/// `collect` produces) serialize like the values themselves.
impl<T: Clone + Into<JsonValue>> From<&T> for JsonValue {
    fn from(v: &T) -> JsonValue {
        v.clone().into()
    }
}

impl<A: Into<JsonValue>, B: Into<JsonValue>> From<(A, B)> for JsonValue {
    fn from((a, b): (A, B)) -> JsonValue {
        JsonValue::Array(vec![a.into(), b.into()])
    }
}

impl<A: Into<JsonValue>, B: Into<JsonValue>, C: Into<JsonValue>> From<(A, B, C)> for JsonValue {
    fn from((a, b, c): (A, B, C)) -> JsonValue {
        JsonValue::Array(vec![a.into(), b.into(), c.into()])
    }
}

// ---- reading persisted state -------------------------------------------

/// A value that reads itself back from the JSON its `to_json` wrote.
///
/// Integers narrow checked: a count that does not fit its field is an
/// error, never a silent truncation.
pub trait FromJson: Sized {
    /// Rebuild the value, or say what in `v` does not fit.
    fn from_json(v: &JsonValue) -> Result<Self, JsonError>;
}

impl JsonValue {
    /// Field `key` of an object, read as `T`; an error names the field.
    pub fn at<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        let field = self
            .get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))?;
        T::from_json(field).map_err(|e| JsonError::new(format!("`{key}`: {}", e.message)))
    }

    /// An object over integer keys, listed in the order their decimal
    /// strings sort ("10" before "9").
    pub fn keyed_by_u64(entries: impl IntoIterator<Item = (u64, JsonValue)>) -> JsonValue {
        let mut entries: Vec<(String, JsonValue)> = entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        JsonValue::Object(entries)
    }
}

fn expected(what: &str) -> JsonError {
    JsonError::new(format!("expected {what}"))
}

macro_rules! impl_from_json_uint {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_json(v: &JsonValue) -> Result<$t, JsonError> {
                let n = v.as_u64().ok_or_else(|| expected("an unsigned integer"))?;
                <$t>::try_from(n)
                    .map_err(|_| JsonError::new(format!("{n} does not fit in {}", stringify!($t))))
            }
        }
    )*};
}
impl_from_json_uint!(u32, u64, usize);

impl FromJson for f64 {
    fn from_json(v: &JsonValue) -> Result<f64, JsonError> {
        v.as_f64().ok_or_else(|| expected("a number"))
    }
}

impl FromJson for bool {
    fn from_json(v: &JsonValue) -> Result<bool, JsonError> {
        v.as_bool().ok_or_else(|| expected("a boolean"))
    }
}

impl FromJson for String {
    fn from_json(v: &JsonValue) -> Result<String, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| expected("a string"))
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &JsonValue) -> Result<Option<T>, JsonError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &JsonValue) -> Result<Vec<T>, JsonError> {
        let items = v.as_array().ok_or_else(|| expected("an array"))?;
        items.iter().map(T::from_json).collect()
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &JsonValue) -> Result<(A, B), JsonError> {
        match v.as_array().map(Vec::as_slice) {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(expected("a pair")),
        }
    }
}

/// The inverse of [`JsonValue::keyed_by_u64`].
impl<V: FromJson> FromJson for BTreeMap<u64, V> {
    fn from_json(v: &JsonValue) -> Result<BTreeMap<u64, V>, JsonError> {
        let entries = v.as_object().ok_or_else(|| expected("an object"))?;
        entries
            .iter()
            .map(|(k, v)| {
                let key = k
                    .parse()
                    .map_err(|_| JsonError::new(format!("key `{k}` is not a u64")))?;
                let value =
                    V::from_json(v).map_err(|e| JsonError::new(format!("`{k}`: {}", e.message)))?;
                Ok((key, value))
            })
            .collect()
    }
}

/// Build a [`JsonValue`] with `serde_json::json!`-like syntax.
///
/// Supported forms: `jsn!(null)`, `jsn!(expr)`, `jsn!([e1, e2, ...])`,
/// and `jsn!({ "key": expr, ... })`. Unlike `serde_json`, nested
/// object/array *literals* inside an object must be wrapped in their own
/// `jsn!` call (`"inner": jsn!({ ... })`) — expression values are
/// otherwise arbitrary.
///
/// ```
/// use abr_sim::jsn;
/// let v = jsn!({ "id": "fig8", "points": vec![1.0, 2.5], "meta": jsn!({ "n": 2 }) });
/// assert_eq!(v["points"][1], 2.5);
/// assert_eq!(v.to_string(), r#"{"id":"fig8","points":[1.0,2.5],"meta":{"n":2}}"#);
/// ```
#[macro_export]
macro_rules! jsn {
    (null) => {
        $crate::json::JsonValue::Null
    };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::json::JsonValue::Array(vec![ $($crate::json::JsonValue::from($elem)),* ])
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {{
        #[allow(unused_mut, reason = "an empty object literal inserts nothing")]
        let mut obj = $crate::json::JsonValue::object();
        $( obj.insert($key, $crate::json::JsonValue::from($value)); )*
        obj
    }};
    ($other:expr) => {
        $crate::json::JsonValue::from($other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_nested_values() {
        let rows = vec![jsn!({ "a": 1 }), jsn!({ "a": 2 })];
        let v = jsn!({
            "name": "x",
            "rows": rows,
            "pair": (3u64, 4.5f64),
            "none": Option::<u64>::None,
            "flag": true,
        });
        assert_eq!(v["rows"][1]["a"], 2);
        assert_eq!(v["pair"][0], 3);
        assert!(v["none"].is_null());
        assert_eq!(v["flag"], true);
        assert!(v["missing"].is_null());
    }

    #[test]
    fn compact_and_pretty_roundtrip() {
        let v = jsn!({
            "s": "a \"quoted\"\nline",
            "n": -7,
            "u": 18_446_744_073_709_551_615u64,
            "f": 1.55,
            "arr": jsn!([1, jsn!(null), jsn!({ "k": 2.0 })]),
        });
        for text in [v.to_string(), v.pretty()] {
            let back = JsonValue::parse(&text).expect("parses");
            assert_eq!(back, v);
        }
    }

    #[test]
    fn pretty_output_is_stable() {
        let v = jsn!({ "b": 1, "a": jsn!([true, jsn!(null)]) });
        assert_eq!(
            v.pretty(),
            "{\n  \"b\": 1,\n  \"a\": [\n    true,\n    null\n  ]\n}\n"
        );
        // Insertion order, not alphabetical.
        assert!(v.pretty().find("\"b\"").unwrap() < v.pretty().find("\"a\"").unwrap());
    }

    #[test]
    fn float_formatting_is_roundtrip_and_integral_floats_keep_a_dot() {
        assert_eq!(jsn!(2.0f64).to_string(), "2.0");
        assert_eq!(jsn!(0.1f64).to_string(), "0.1");
        assert_eq!(jsn!(f64::NAN).to_string(), "null");
        let x = 1.0 / 3.0;
        let JsonValue::Float(back) = JsonValue::parse(&jsn!(x).to_string()).unwrap() else {
            panic!("float expected");
        };
        assert_eq!(back, x);
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"\\x\"",
            "{\"a\":}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn numbers_preserve_signedness() {
        let v = JsonValue::parse("[9223372036854775808, -3, 2.5]").unwrap();
        assert!(matches!(v[0], JsonValue::UInt(_)));
        assert!(matches!(v[1], JsonValue::Int(-3)));
        assert!(matches!(v[2], JsonValue::Float(_)));
        assert_eq!(v[0].as_u64(), Some(9223372036854775808));
        assert_eq!(v[1].as_i64(), Some(-3));
    }

    #[test]
    fn persisted_state_reads_back_checked() {
        let v = JsonValue::keyed_by_u64([(9, jsn!([1, 2])), (10, jsn!([3, 4]))]);
        assert_eq!(v.to_string(), r#"{"10":[3,4],"9":[1,2]}"#);
        let back: BTreeMap<u64, (u32, f64)> = FromJson::from_json(&v).unwrap();
        assert_eq!(back[&9], (1, 2.0));
        let doc = jsn!({ "n": 4_294_967_312u64, "s": "x" });
        assert_eq!(doc.at::<u64>("n"), Ok(4_294_967_312));
        let narrow = doc.at::<u32>("n").unwrap_err().to_string();
        assert_eq!(narrow, "`n`: 4294967312 does not fit in u32");
        assert_eq!(
            doc.at::<u32>("m").unwrap_err().to_string(),
            "missing field `m`"
        );
        assert!(doc.at::<bool>("s").is_err());
        assert_eq!(doc.at::<Option<String>>("s"), Ok(Some("x".to_string())));
        // Files written before this module held persisted state spelled
        // floats as `{}` (plus ".0"); the two spellings differ only for
        // |x| < 1e-4 or >= 1e16, and those still read back equal.
        for (old, x) in [("0.00005", 5e-5), ("100000000000000000000.0", 1e20)] {
            assert_ne!(jsn!(x).to_string(), old);
            assert_eq!(f64::from_json(&JsonValue::parse(old).unwrap()), Ok(x));
        }
    }

    #[test]
    fn insert_replaces_existing_keys() {
        let mut v = JsonValue::object();
        v.insert("k", 1);
        v.insert("k", 2);
        assert_eq!(v.as_object().unwrap().len(), 1);
        assert_eq!(v["k"], 2);
    }
}
