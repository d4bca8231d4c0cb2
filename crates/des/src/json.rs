//! A minimal, deterministic JSON value model, and the table codec every
//! document is generated from.
//!
//! Every JSON document the workspace writes or reads goes through this
//! model: scenario specs (`qic-core`), campaign records and checkpoint
//! manifests (`qic-sweep`), cache records and service requests
//! (`qic-serve`), the bench trajectory (`qic-bench`) and the trace
//! validators (`qic-probe`). It lives here, at the bottom of the crate
//! graph, so each of them can use it; `qic_sweep::json` re-exports it
//! under its established path. It is deliberately small:
//!
//! * integers are kept apart from floats (`i128` holds every `u64`
//!   seed and every `i64` ratio losslessly);
//! * floats emit with Rust's shortest-roundtrip `Display`, so
//!   `parse(emit(x)) == x` bit-for-bit (including `-0.0`; non-finite
//!   values emit as `null` — lossless records use [`Exact`] instead);
//! * objects preserve insertion order, making emission deterministic;
//! * decoding is strict: [`check_fields`] rejects unknown and duplicate
//!   fields, so a typo can never silently configure nothing.
//!
//! # The table codec
//!
//! [`Field`] converts one value to and from [`Json`]. [`record!`]
//! derives it for a struct from one table of its fields, [`tagged!`]
//! for an enum from one row per variant, and [`labels!`] for types
//! written as a label string; a few types with no fixed field list
//! ([`Metrics`], `qic_sweep::AxisValue`) write theirs by hand. The
//! scenario spec, the campaign record, the checkpoint manifest, the
//! serve cache record and the bench trajectory are all tables, so each
//! states its fields once and its encoder, decoder and strict field
//! check cannot drift apart. Three rules are written here once: the
//! bit-exact float ([`Exact`]), the `record`/`version` envelope of
//! versioned documents ([`check_envelope`]) and strict field checking.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::metrics::Metrics;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no `.`/exponent). `i128` covers `u64`.
    Int(i128),
    /// A float literal.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A JSON syntax or schema error. A syntax error carries the byte
/// offset where it was detected and displays as invalid JSON there; a
/// schema error (the document parsed but has the wrong shape) has no
/// offset and displays as its problem alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input of a syntax error; `None` for a
    /// schema error.
    pub at: Option<usize>,
    /// What went wrong.
    pub problem: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(at) => write!(f, "invalid JSON at byte {at}: {}", self.problem),
            None => f.write_str(&self.problem),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// A schema-level error (no offset): the document parsed but did
    /// not match the expected shape.
    pub fn schema_err(problem: impl Into<String>) -> JsonError {
        JsonError {
            at: None,
            problem: problem.into(),
        }
    }

    /// The value as a string; schema error naming `ctx` otherwise (all
    /// the typed accessors follow this pattern so codecs read linearly).
    pub fn str_of(&self, ctx: &str) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(Json::schema_err(format!(
                "{ctx}: expected a string, got {other:?}"
            ))),
        }
    }

    /// The value as an integer of type `T`, named `ty` in the range
    /// error.
    fn int_of<T: TryFrom<i128>>(&self, ctx: &str, ty: &str) -> Result<T, JsonError> {
        match self {
            Json::Int(v) => T::try_from(*v)
                .map_err(|_| Json::schema_err(format!("{ctx}: {v} out of {ty} range"))),
            other => Err(Json::schema_err(format!(
                "{ctx}: expected an integer, got {other:?}"
            ))),
        }
    }

    /// The value as a `u64`.
    pub fn u64_of(&self, ctx: &str) -> Result<u64, JsonError> {
        self.int_of(ctx, "u64")
    }

    /// The value as a `u32`.
    pub fn u32_of(&self, ctx: &str) -> Result<u32, JsonError> {
        self.int_of(ctx, "u32")
    }

    /// The value as a `u16`.
    pub fn u16_of(&self, ctx: &str) -> Result<u16, JsonError> {
        self.int_of(ctx, "u16")
    }

    /// The value as an `i64`.
    pub fn i64_of(&self, ctx: &str) -> Result<i64, JsonError> {
        self.int_of(ctx, "i64")
    }

    /// The value as an `i32`.
    pub fn i32_of(&self, ctx: &str) -> Result<i32, JsonError> {
        self.int_of(ctx, "i32")
    }

    /// The value as an `f64`; integer literals widen (a hand-written
    /// rate of `0` is fine).
    pub fn f64_of(&self, ctx: &str) -> Result<f64, JsonError> {
        match self {
            Json::Float(v) => Ok(*v),
            Json::Int(v) => Ok(*v as f64),
            other => Err(Json::schema_err(format!(
                "{ctx}: expected a number, got {other:?}"
            ))),
        }
    }

    /// The value as a `bool`.
    pub fn bool_of(&self, ctx: &str) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(Json::schema_err(format!(
                "{ctx}: expected a boolean, got {other:?}"
            ))),
        }
    }

    /// The value as a `usize`.
    pub fn usize_of(&self, ctx: &str) -> Result<usize, JsonError> {
        self.int_of(ctx, "usize")
    }

    /// The value as an array's item list.
    pub fn arr_of(&self, ctx: &str) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(Json::schema_err(format!(
                "{ctx}: expected an array, got {other:?}"
            ))),
        }
    }

    /// The value as an object's field list.
    pub fn obj_of(&self, ctx: &str) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(Json::schema_err(format!(
                "{ctx}: expected an object, got {other:?}"
            ))),
        }
    }

    /// Serialises the value (compact, deterministic).
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    // Shortest-roundtrip Display, with a float marker kept
                    // so the parser reads the value back as a float.
                    let text = format!("{v}");
                    let needs_marker = !text.contains(['.', 'e', 'E']);
                    out.push_str(&text);
                    if needs_marker {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (name, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(name, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first syntax problem,
    /// including arrays and objects nested deeper than [`MAX_DEPTH`]
    /// (the parser recurses per level, so unbounded nesting would
    /// overflow the stack instead of failing).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            at: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.text.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

/// Writes `s` as a JSON string literal.
pub fn write_str(s: &str, out: &mut String) {
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

/// Builds an object from `(name, value)` pairs (codec convenience).
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Looks a required field up in an object; the object is expected to
/// have been vetted by [`check_fields`] first.
///
/// # Errors
///
/// A schema error naming `ctx` when the field is missing.
pub fn get<'a>(fields: &'a [(String, Json)], name: &str, ctx: &str) -> Result<&'a Json, JsonError> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| Json::schema_err(format!("{ctx}: missing field {name:?}")))
}

/// Looks an optional field up in an object (`None` when absent — used
/// for fields later schema versions added, so older documents keep
/// parsing).
pub fn get_opt<'a>(fields: &'a [(String, Json)], name: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Rejects unknown or duplicate fields, so typos fail loudly instead of
/// silently configuring nothing.
///
/// # Errors
///
/// A schema error naming `ctx` and the offending field.
pub fn check_fields(
    fields: &[(String, Json)],
    allowed: &[&str],
    ctx: &str,
) -> Result<(), JsonError> {
    for (i, (name, _)) in fields.iter().enumerate() {
        if !allowed.contains(&name.as_str()) {
            return Err(Json::schema_err(format!(
                "{ctx}: unknown field {name:?} (expected one of {allowed:?})"
            )));
        }
        if fields[..i].iter().any(|(k, _)| k == name) {
            return Err(Json::schema_err(format!("{ctx}: duplicate field {name:?}")));
        }
    }
    Ok(())
}

/// The deepest array/object nesting [`Json::parse`] accepts. Every
/// document the workspace writes nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    at: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, problem: impl Into<String>) -> JsonError {
        JsonError {
            at: Some(self.at),
            problem: problem.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one nesting level down, refusing to
    /// go past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one step.
            // Both delimiters are ASCII and the input is a `&str`, so the
            // run is whole UTF-8 and slicing it never splits a character.
            let start = self.at;
            while let Some(c) = self.peek() {
                match c {
                    b'"' | b'\\' => break,
                    c if c < 0x20 => return Err(self.err("unescaped control character in string")),
                    _ => self.at += 1,
                }
            }
            out.push_str(&self.text[start..self.at]);
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.at += 1;
            if c == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.at += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .text
                        .as_bytes()
                        .get(self.at..self.at + 4)
                        .ok_or_else(|| self.err("truncated \\u escape"))?;
                    // Exactly four hex digits (`from_str_radix` alone
                    // would also take a sign).
                    let code = std::str::from_utf8(hex)
                        .ok()
                        .filter(|h| h.bytes().all(|d| d.is_ascii_hexdigit()))
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.err("invalid \\u escape"))?;
                    self.at += 4;
                    // Basic-plane scalars only (enough for the labels these
                    // documents use; surrogate pairs are rejected
                    // explicitly).
                    let ch = char::from_u32(code)
                        .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                    out.push(ch);
                }
                other => return Err(self.err(format!("unknown escape \\{}", other as char))),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.at += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.at += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        let text = &self.text[start..self.at];
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err(format!("invalid number {text:?}")))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| self.err(format!("invalid integer {text:?}")))
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

// --- Table codec -------------------------------------------------------------

/// A value with a JSON form: what the table codec is built from.
pub trait Field: Sized {
    /// The value as JSON.
    fn encode(&self) -> Json;
    /// Reads the value back; `ctx` names it in error messages.
    fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError>;
}

/// Numbers and booleans: `$of` reads one back, widening `as` writes it.
macro_rules! scalars {
    ($($ty:ty => $of:ident, $json:ident as $wide:ty;)*) => {$(
        impl Field for $ty {
            fn encode(&self) -> Json {
                Json::$json(*self as $wide)
            }
            fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
                v.$of(ctx)
            }
        }
    )*};
}

scalars! {
    u16 => u16_of, Int as i128;
    u32 => u32_of, Int as i128;
    u64 => u64_of, Int as i128;
    i32 => i32_of, Int as i128;
    i64 => i64_of, Int as i128;
    usize => usize_of, Int as i128;
    f64 => f64_of, Float as f64;
    bool => bool_of, Bool as bool;
}

impl Field for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }
    fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
        v.str_of(ctx).map(str::to_string)
    }
}

impl<T: Field> Field for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }
    fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
        v.arr_of(ctx)?.iter().map(|x| T::decode(x, ctx)).collect()
    }
}

/// A present value is set; absence is the `#[optional]` rule's business.
impl<T: Field> Field for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }
    fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
        T::decode(v, ctx).map(Some)
    }
}

impl<T: Field> Field for Box<T> {
    fn encode(&self) -> Json {
        T::encode(self)
    }
    fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
        T::decode(v, ctx).map(Box::new)
    }
}

/// A borrowed value encodes in place; a decoded one is owned.
impl<T: Field + Clone> Field for Cow<'_, T> {
    fn encode(&self) -> Json {
        T::encode(self)
    }
    fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
        T::decode(v, ctx).map(Cow::Owned)
    }
}

/// A two-element array.
impl<A: Field, B: Field> Field for (A, B) {
    fn encode(&self) -> Json {
        Json::Arr(vec![self.0.encode(), self.1.encode()])
    }
    fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
        match v.arr_of(ctx)? {
            [a, b] => Ok((A::decode(a, ctx)?, B::decode(b, ctx)?)),
            _ => Err(Json::schema_err(format!(
                "{ctx}: expected a two-item array"
            ))),
        }
    }
}

/// An object with one field per key, in key order.
impl<T: Field> Field for BTreeMap<String, T> {
    fn encode(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.encode())).collect())
    }
    fn decode(v: &Json, ctx: &str) -> Result<Self, JsonError> {
        let mut out = BTreeMap::new();
        for (key, value) in v.obj_of(ctx)? {
            let value = T::decode(value, key)?;
            if out.insert(key.clone(), value).is_some() {
                return Err(Json::schema_err(format!("{ctx}: duplicate field {key:?}")));
            }
        }
        Ok(out)
    }
}

/// Metric names are the keys; values are [`Exact`].
impl Field for Metrics {
    fn encode(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_exact()))
                .collect(),
        )
    }
    fn decode(v: &Json, _: &str) -> Result<Self, JsonError> {
        let mut m = Metrics::new();
        for (name, v) in v.obj_of("replicate metrics")? {
            if m.get(name).is_some() {
                return Err(Json::schema_err(format!(
                    "replicate metrics: duplicate metric {name:?}"
                )));
            }
            m.push(name.clone(), f64::from_exact(v, "metric value")?);
        }
        Ok(m)
    }
}

/// Bit-exact floats, the `#[exact]` row kind of lossless records: a
/// finite value rides the shortest-roundtrip literal (`-0.0` keeps its
/// sign); a non-finite one, which a JSON number cannot carry, is the
/// tagged string `"NaN"`, `"Inf"` or `"-Inf"`. An absent `Option` is
/// `null`.
pub trait Exact: Sized {
    /// The value as JSON.
    fn to_exact(&self) -> Json;
    /// Reads the value back; `ctx` names it in error messages.
    fn from_exact(v: &Json, ctx: &str) -> Result<Self, JsonError>;
}

impl Exact for f64 {
    fn to_exact(&self) -> Json {
        match *self {
            v if v.is_finite() => Json::Float(v),
            v if v.is_nan() => Json::Str("NaN".into()),
            v if v > 0.0 => Json::Str("Inf".into()),
            _ => Json::Str("-Inf".into()),
        }
    }
    fn from_exact(v: &Json, ctx: &str) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => match s.as_str() {
                "NaN" => Ok(f64::NAN),
                "Inf" => Ok(f64::INFINITY),
                "-Inf" => Ok(f64::NEG_INFINITY),
                other => Err(Json::schema_err(format!(
                    "{ctx}: expected a number or NaN/Inf/-Inf, got {other:?}"
                ))),
            },
            v => v.f64_of(ctx),
        }
    }
}

impl Exact for Option<f64> {
    fn to_exact(&self) -> Json {
        self.map_or(Json::Null, |v| v.to_exact())
    }
    fn from_exact(v: &Json, ctx: &str) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            v => f64::from_exact(v, ctx).map(Some),
        }
    }
}

/// Appends `key: value` (a table row).
pub fn put<T: Field>(out: &mut Vec<(String, Json)>, key: &str, value: &T) {
    out.push((key.to_string(), value.encode()));
}

/// Appends `key: value` unless `value` is its type's `Default` (an
/// `#[optional]` row).
pub fn put_optional<T: Field + Default + PartialEq>(
    out: &mut Vec<(String, Json)>,
    key: &str,
    value: &T,
) {
    if *value != T::default() {
        put(out, key, value);
    }
}

/// Reads the required field `key` of an object named `ctx`.
///
/// # Errors
///
/// A schema error when the field is missing or does not decode.
pub fn take<T: Field>(fields: &[(String, Json)], key: &str, ctx: &str) -> Result<T, JsonError> {
    T::decode(get(fields, key, ctx)?, key)
}

/// Reads the field `key`, or `Default` when it is absent.
///
/// # Errors
///
/// A schema error when the field is present and does not decode.
pub fn take_optional<T: Field + Default>(
    fields: &[(String, Json)],
    key: &str,
) -> Result<T, JsonError> {
    get_opt(fields, key).map_or_else(|| Ok(T::default()), |v| T::decode(v, key))
}

/// Checks a versioned document's `record` tag, then its `version`.
///
/// # Errors
///
/// A schema error naming `ctx` on a missing or wrong tag, or on any
/// version other than `version`.
pub fn check_envelope(
    fields: &[(String, Json)],
    tag: &str,
    version: u32,
    ctx: &str,
) -> Result<(), JsonError> {
    let found = get(fields, "record", ctx)?.str_of("record")?;
    if found != tag {
        return Err(Json::schema_err(format!(
            "{ctx}: unexpected record tag {found:?}, expected {tag:?}"
        )));
    }
    let found = get(fields, "version", ctx)?.u32_of("version")?;
    if found != version {
        return Err(Json::schema_err(format!(
            "{ctx}: version {found}, this build reads version {version}"
        )));
    }
    Ok(())
}

/// Derives [`Field`] for structs from one table per struct:
///
/// ```text
/// record! {
///     Type<'a> "ctx" envelope "tag" VERSION {
///         field, #[optional] field, #[exact] field, field as "key",
///         …; derived = expr, …
///     }
/// }
/// ```
///
/// Rows are in emission order, and `ctx` names the object in error
/// messages. Each row names a field once; its encoder, decoder and
/// [`check_fields`] entry all come from that mention, and the decoder
/// builds a struct literal, so a field missing from a table fails to
/// compile.
///
/// * `#[optional]`: emitted only when it differs from `Default`, and
///   `Default` when absent, so blocks later schemas added stay out of
///   older documents byte for byte.
/// * `#[exact]`: an [`Exact`] float.
/// * `as "key"`: the document's name for the field.
/// * `<'a>`: the type's one lifetime parameter, if it has one (a
///   `Cow<'a, T>` field encodes a borrowed value without copying it).
/// * `envelope "tag" VERSION`: the document opens with
///   `"record": "tag", "version": VERSION`, and decoding checks both
///   ([`check_envelope`]).
/// * Fields after `;` are not in the document: decoding computes them
///   from the fields read before.
#[macro_export]
macro_rules! record {
    (@put optional $out:ident, $key:expr, $v:expr) => {
        $crate::json::put_optional(&mut $out, $key, $v)
    };
    (@put exact $out:ident, $key:expr, $v:expr) => {
        $out.push(($key.to_string(), $crate::json::Exact::to_exact($v)))
    };
    (@put $out:ident, $key:expr, $v:expr) => {
        $crate::json::put(&mut $out, $key, $v)
    };
    (@take optional $f:ident, $key:expr, $ctx:literal) => {
        $crate::json::take_optional($f, $key)
    };
    (@take exact $f:ident, $key:expr, $ctx:literal) => {
        $crate::json::Exact::from_exact($crate::json::get($f, $key, $ctx)?, $key)
    };
    (@take $f:ident, $key:expr, $ctx:literal) => {
        $crate::json::take($f, $key, $ctx)
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    // Names the envelope's `record` key; taking `$tag` lets it sit in
    // the optional envelope group.
    (@record $tag:literal) => { "record" };
    ($($ty:ident $(<$lt:lifetime>)? $ctx:literal $(envelope $tag:literal $version:ident)? {
        $($(#[$opt:ident])? $field:ident $(as $key:literal)?),* $(,)?
        $(; $($derived:ident = $init:expr),* $(,)?)?
    })*) => {$(
        impl $(<$lt>)? $crate::json::Field for $ty $(<$lt>)? {
            fn encode(&self) -> $crate::json::Json {
                let mut out = Vec::with_capacity([$(stringify!($field)),*].len() + 2);
                $(
                    out.push(("record".into(), $crate::json::Json::Str($tag.into())));
                    $crate::json::put(&mut out, "version", &$version);
                )?
                $($crate::record!(
                    @put $($opt)? out, $crate::record!(@key $field $($key)?), &self.$field
                );)*
                $crate::json::Json::Obj(out)
            }
            fn decode(
                v: &$crate::json::Json,
                _: &str,
            ) -> Result<Self, $crate::json::JsonError> {
                let f = v.obj_of($ctx)?;
                $crate::json::check_fields(
                    f,
                    &[
                        $($crate::record!(@record $tag), "version",)?
                        $($crate::record!(@key $field $($key)?)),*
                    ],
                    $ctx,
                )?;
                $($crate::json::check_envelope(f, $tag, $version, $ctx)?;)?
                $(let $field = $crate::record!(
                    @take $($opt)? f, $crate::record!(@key $field $($key)?), $ctx
                )?;)*
                $($(let $derived = $init;)*)?
                Ok($ty { $($field,)* $($($derived,)*)? })
            }
        }
    )*};
}

/// Derives [`Field`] for enums from one row per variant:
/// `Type "ctx" "tag" { Variant "value" { field, … }, … }`. The `tag`
/// field carries the variant's value and comes first. A row may add
/// `=> "name"` after the value; the table then also generates
/// `axis_name`, the campaign axis each variant sweeps.
#[macro_export]
macro_rules! tagged {
    ($ty:ident $ctx:literal $tag:literal {
        $($variant:ident $value:literal => $name:literal { $($field:ident),* }),* $(,)?
    }) => {
        $crate::tagged!($ty $ctx $tag { $($variant $value { $($field),* }),* });
        impl $ty {
            /// The campaign axis this variant sweeps.
            pub(crate) fn axis_name(&self) -> &'static str {
                match self {
                    $($ty::$variant { .. } => $name),*
                }
            }
        }
    };
    ($ty:ident $ctx:literal $tag:literal {
        $($variant:ident $value:literal { $($field:ident),* }),* $(,)?
    }) => {
        impl $crate::json::Field for $ty {
            fn encode(&self) -> $crate::json::Json {
                let mut out = Vec::with_capacity(4);
                match self {
                    $($ty::$variant { $($field),* } => {
                        out.push(($tag.to_string(), $crate::json::Json::Str($value.into())));
                        $($crate::json::put(&mut out, stringify!($field), $field);)*
                    })*
                }
                $crate::json::Json::Obj(out)
            }
            fn decode(
                v: &$crate::json::Json,
                _: &str,
            ) -> Result<Self, $crate::json::JsonError> {
                let f = v.obj_of($ctx)?;
                match $crate::json::get(f, $tag, $ctx)?.str_of($tag)? {
                    $($value => {
                        $crate::json::check_fields(f, &[$tag, $(stringify!($field)),*], $ctx)?;
                        Ok($ty::$variant {
                            $($field: $crate::json::take(f, stringify!($field), $ctx)?),*
                        })
                    })*
                    other => Err($crate::json::Json::schema_err(format!(
                        concat!("unknown ", $ctx, " kind {:?}"),
                        other
                    ))),
                }
            }
        }
    };
}

/// Derives [`Field`] for types written as their label string: `$emit`
/// renders the label, the type's own `parse` reads it back, and an
/// unknown label names `$noun`.
#[macro_export]
macro_rules! labels {
    ($($ty:ty: $noun:literal, $emit:ident;)*) => {$(
        impl $crate::json::Field for $ty {
            fn encode(&self) -> $crate::json::Json {
                $crate::json::Json::Str(self.$emit().into())
            }
            fn decode(
                v: &$crate::json::Json,
                ctx: &str,
            ) -> Result<Self, $crate::json::JsonError> {
                let label = v.str_of(ctx)?;
                <$ty>::parse(label).ok_or_else(|| {
                    $crate::json::Json::schema_err(format!(concat!("unknown ", $noun, " {:?}"), label))
                })
            }
        }
    )*};
}

pub use crate::{labels, record, tagged};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let v = obj(vec![
            ("name", Json::Str("fig16:\"Tiny\"".into())),
            ("seed", Json::Int(u64::MAX as i128)),
            ("ratio", Json::Arr([0, 1, 2, 4, 8].map(Json::Int).to_vec())),
            ("rate", Json::Float(1e-9)),
            ("whole", Json::Float(2.0)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            ("nested", Json::Arr(vec![obj(vec![("x", Json::Int(-3))])])),
        ]);
        let text = v.emit();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn whole_floats_stay_floats() {
        let text = Json::Float(2.0).emit();
        assert_eq!(text, "2.0");
        assert_eq!(Json::parse(&text).unwrap(), Json::Float(2.0));
    }

    #[test]
    fn negative_zero_round_trips_with_its_sign() {
        let text = Json::Float(-0.0).emit();
        assert_eq!(text, "-0.0", "the float marker keeps -0 a float");
        match Json::parse(&text).unwrap() {
            Json::Float(v) => assert!(v.to_bits() == (-0.0f64).to_bits(), "sign bit lost"),
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn big_integers_are_lossless() {
        let seed = u64::MAX - 1;
        let text = Json::Int(i128::from(seed)).emit();
        assert_eq!(Json::parse(&text).unwrap().u64_of("seed").unwrap(), seed);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\\n\" : [ 1 , 2.5 ] , \"b\" : \"\\u0041\" } ").unwrap();
        let fields = v.obj_of("doc").unwrap();
        assert_eq!(fields[0].0, "a\n");
        assert_eq!(fields[0].1, Json::Arr(vec![Json::Int(1), Json::Float(2.5)]));
        assert_eq!(fields[1].1, Json::Str("A".into()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "nul",
            "1 2",
            "\"abc",
            "{\"a\" 1}",
            "01a",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Deep nesting is a structured error, not a stack overflow.
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.problem.contains("nested deeper"), "{err}");
        assert_eq!(err.at, Some(MAX_DEPTH));
        let deep_obj = "{\"a\":".repeat(100_000);
        assert!(Json::parse(&deep_obj).is_err());
        // The limit itself still parses.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A quadratic scan takes tens of seconds on a million characters;
        // a linear one takes milliseconds, even in a debug build.
        let long = "x".repeat(1_000_000);
        let text = format!("{{\"label\": \"{long}\"}}");
        let start = std::time::Instant::now();
        let v = Json::parse(&text).unwrap();
        let took = start.elapsed();
        assert_eq!(
            get(v.obj_of("doc").unwrap(), "label", "doc").unwrap(),
            &Json::Str(long)
        );
        assert!(took.as_secs_f64() < 2.0, "1 MB string took {took:?}");
    }

    #[test]
    fn control_byte_in_a_long_run_reports_its_own_offset() {
        let text = format!("\"{}\u{1}{}\"", "a".repeat(5000), "b".repeat(10));
        let err = Json::parse(&text).unwrap_err();
        assert!(err.problem.contains("control character"), "{err}");
        assert_eq!(err.at, Some(5001), "the quote, then 5000 plain bytes");
        assert_eq!(text.as_bytes()[5001], 1);
    }

    #[test]
    fn schema_errors_read_apart_from_syntax_errors() {
        // A syntax error at the first byte keeps its offset…
        for bad in ["", "x"] {
            let err = Json::parse(bad).unwrap_err();
            assert_eq!(err.at, Some(0), "{bad:?}");
            assert!(
                err.to_string().starts_with("invalid JSON at byte 0: "),
                "{err}"
            );
        }
        // …and a document of the wrong shape is not called invalid JSON.
        let v = Json::parse("{\"op\": \"metrics\", \"pad\": 1}").unwrap();
        let err = check_fields(v.obj_of("metrics").unwrap(), &["op"], "metrics").unwrap_err();
        assert_eq!(err.at, None);
        assert!(
            err.to_string()
                .starts_with("metrics: unknown field \"pad\""),
            "{err}"
        );
        assert!(!err.to_string().contains("invalid JSON"), "{err}");
    }

    #[test]
    fn multi_byte_utf8_round_trips() {
        let label = "Fig. 16 — ψ";
        let v = obj(vec![("label", Json::Str(label.into()))]);
        let text = v.emit();
        assert_eq!(text, format!("{{\"label\": \"{label}\"}}"));
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Escapes between multi-byte runs keep both sides whole.
        assert_eq!(
            Json::parse("\"ψ\\n—\\u00e9ψ\"").unwrap(),
            Json::Str("ψ\n—éψ".into())
        );
    }

    #[test]
    fn bad_unicode_escapes_are_structured_errors() {
        for bad in [
            "\"\\u\"",
            "\"\\u12\"",
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u00g0\"",
            "\"\\ud800\"",
            "\"\\u00\u{e9}\"",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.problem.contains("\\u"), "{bad:?}: {err}");
        }
        assert_eq!(Json::parse("\"\\u00E9\"").unwrap(), Json::Str("é".into()));
    }

    #[derive(Debug, PartialEq)]
    struct Doc {
        name: String,
        rate: f64,
        spread: Option<f64>,
        tags: Vec<u32>,
        len: usize,
    }

    record! {
        Doc "doc" envelope "doc" VERSION {
            name as "title", #[exact] rate, #[exact] spread, #[optional] tags;
            len = Vec::len(&tags),
        }
    }

    const VERSION: u32 = 3;

    #[test]
    fn record_tables_write_their_envelope_rows_and_options() {
        let doc = Doc {
            name: "a".into(),
            rate: f64::NEG_INFINITY,
            spread: None,
            tags: vec![],
            len: 0,
        };
        let text = doc.encode().emit();
        assert_eq!(
            text,
            r#"{"record": "doc", "version": 3, "title": "a", "rate": "-Inf", "spread": null}"#
        );
        assert_eq!(Doc::decode(&Json::parse(&text).unwrap(), "").unwrap(), doc);
        let tagged = text.replace("null}", r#"-0.0, "tags": [4, 5]}"#);
        let back = Doc::decode(&Json::parse(&tagged).unwrap(), "").unwrap();
        assert_eq!(back.spread.map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(
            (&back.tags[..], back.len),
            (&[4, 5][..], 2),
            "derived from the rows"
        );
        assert_eq!(back.encode().emit(), tagged);
    }

    #[test]
    fn record_tables_reject_unknown_fields_tags_and_versions() {
        let text = r#"{"record": "doc", "version": 3, "title": "a", "rate": 1, "spread": null}"#;
        let decode = |t: &str| {
            Doc::decode(&Json::parse(t).unwrap(), "")
                .unwrap_err()
                .problem
        };
        assert!(decode(&text.replace("title", "name")).contains("unknown field \"name\""));
        assert!(decode(&text.replace("3", "4")).contains("version 4, this build reads version 3"));
        assert!(decode(&text.replace("\"doc\"", "\"dog\"")).contains("record tag \"dog\""));
        assert!(decode(&text.replace(", \"version\": 3", "")).contains("missing field"));
        assert!(decode(&text.replace("1", "\"Infinity\"")).contains("NaN/Inf/-Inf"));
    }

    #[test]
    fn schema_helpers_reject_mismatches() {
        let fields = vec![("a".to_string(), Json::Int(1))];
        assert!(get(&fields, "a", "t").is_ok());
        assert!(get(&fields, "b", "t").is_err());
        assert!(check_fields(&fields, &["a"], "t").is_ok());
        assert!(check_fields(&fields, &["b"], "t").is_err());
        let dup = vec![
            ("a".to_string(), Json::Int(1)),
            ("a".to_string(), Json::Int(2)),
        ];
        assert!(check_fields(&dup, &["a"], "t").is_err());
        assert!(Json::Int(1).str_of("t").is_err());
        assert!(Json::Str("x".into()).u64_of("t").is_err());
        assert!(Json::Int(-1).u32_of("t").is_err());
        assert!(Json::Int(70000).u16_of("t").is_err());
    }
}
