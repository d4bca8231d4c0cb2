//! A minimal, deterministic JSON value model for strict codecs.
//!
//! Every JSON document the workspace writes or reads goes through this
//! model: scenario specs (`qic-core`), campaign records and checkpoint
//! manifests (`qic-sweep`), cache records and service requests (`qic-serve`), the bench trajectory
//! (`qic-bench`) and the trace validators (`qic-probe`). It lives here,
//! at the bottom of the crate graph, so each of them can use it;
//! `qic_sweep::json` re-exports it under its established path. It is
//! deliberately small:
//!
//! * integers are kept apart from floats (`i128` holds every `u64`
//!   seed and every `i64` ratio losslessly);
//! * floats emit with Rust's shortest-roundtrip `Display`, so
//!   `parse(emit(x)) == x` bit-for-bit (including `-0.0`; non-finite
//!   values emit as `null` — codecs that must round-trip them encode
//!   strings instead);
//! * objects preserve insertion order, making emission deterministic;
//! * decoding is strict: [`check_fields`] rejects unknown and duplicate
//!   fields, so a typo can never silently configure nothing.

use std::fmt;
use std::fmt::Write as _;

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

/// A JSON syntax or schema error, with the byte offset where it was
/// detected (syntax errors only; schema errors use offset 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input (0 for schema-level errors).
    pub at: usize,
    /// What went wrong.
    pub problem: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.problem)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// A schema-level error (offset 0): the document parsed but did not
    /// match the expected shape.
    pub fn schema_err(problem: impl Into<String>) -> JsonError {
        JsonError {
            at: 0,
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

    /// The value as a `u64`.
    pub fn u64_of(&self, ctx: &str) -> Result<u64, JsonError> {
        match self {
            Json::Int(v) => u64::try_from(*v)
                .map_err(|_| Json::schema_err(format!("{ctx}: {v} out of u64 range"))),
            other => Err(Json::schema_err(format!(
                "{ctx}: expected an integer, got {other:?}"
            ))),
        }
    }

    /// The value as a `u32`.
    pub fn u32_of(&self, ctx: &str) -> Result<u32, JsonError> {
        match self {
            Json::Int(v) => u32::try_from(*v)
                .map_err(|_| Json::schema_err(format!("{ctx}: {v} out of u32 range"))),
            other => Err(Json::schema_err(format!(
                "{ctx}: expected an integer, got {other:?}"
            ))),
        }
    }

    /// The value as a `u16`.
    pub fn u16_of(&self, ctx: &str) -> Result<u16, JsonError> {
        match self {
            Json::Int(v) => u16::try_from(*v)
                .map_err(|_| Json::schema_err(format!("{ctx}: {v} out of u16 range"))),
            other => Err(Json::schema_err(format!(
                "{ctx}: expected an integer, got {other:?}"
            ))),
        }
    }

    /// The value as an `i64`.
    pub fn i64_of(&self, ctx: &str) -> Result<i64, JsonError> {
        match self {
            Json::Int(v) => i64::try_from(*v)
                .map_err(|_| Json::schema_err(format!("{ctx}: {v} out of i64 range"))),
            other => Err(Json::schema_err(format!(
                "{ctx}: expected an integer, got {other:?}"
            ))),
        }
    }

    /// The value as an `i32`.
    pub fn i32_of(&self, ctx: &str) -> Result<i32, JsonError> {
        match self {
            Json::Int(v) => i32::try_from(*v)
                .map_err(|_| Json::schema_err(format!("{ctx}: {v} out of i32 range"))),
            other => Err(Json::schema_err(format!(
                "{ctx}: expected an integer, got {other:?}"
            ))),
        }
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
        match self {
            Json::Int(v) => usize::try_from(*v)
                .map_err(|_| Json::schema_err(format!("{ctx}: {v} out of usize range"))),
            other => Err(Json::schema_err(format!(
                "{ctx}: expected an integer, got {other:?}"
            ))),
        }
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
fn write_str(s: &str, out: &mut String) {
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
            at: self.at,
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
        assert_eq!(err.at, MAX_DEPTH);
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
        assert_eq!(err.at, 5001, "the quote, then 5000 plain bytes");
        assert_eq!(text.as_bytes()[err.at], 1);
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
