//! A minimal JSON reader/writer for the workspace's structured
//! artifacts: the golden-KAT files of `saber-verify` and the
//! `ServiceReport` snapshots of `saber-service`.
//!
//! The workspace is offline (no `serde`), and those schemas need only
//! objects, arrays, strings, numbers and booleans. Objects preserve
//! insertion order so generated files diff cleanly. Integers stay exact
//! in `i64`; a number with a fraction or exponent parses as
//! [`Value::Float`] (the `BENCH_*.json` reports carry measured
//! `ns_per_*` rates), written back via Rust's shortest round-trip
//! `f64` formatting.
//!
//! The reader follows the RFC 8259 grammar: it refuses raw control
//! characters inside strings and numbers with leading zeros, and decodes
//! every escape, an escaped UTF-16 surrogate pair as one char. It
//! recurses once per nested array or object, so it refuses documents
//! nested deeper than [`MAX_DEPTH`] with a [`ParseError`] instead of
//! exhausting the stack on hostile input.

use std::fmt;

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// workspace's own documents nest at most about 6 levels (a metrics
/// snapshot); the limit leaves ample headroom while keeping the
/// recursion far inside a thread's stack.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (exact, no fraction or exponent in the text).
    Int(i64),
    /// A non-integral number (bench-report rates and ratios).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, if this is a number of either kind.
    #[must_use]
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Int(i) => {
                // Intentional precision loss for |i| > 2^53: callers use
                // this for measured rates, not exact counters.
                #[allow(clippy::cast_precision_loss)]
                Some(*i as f64)
            }
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: `get(key)` then `as_str`, with a descriptive error.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped key.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("missing or non-string field {key:?}"))
    }

    /// Convenience: `get(key)` then `as_int`, with a descriptive error.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped key.
    pub fn int_field(&self, key: &str) -> Result<i64, String> {
        self.get(key)
            .and_then(Value::as_int)
            .ok_or_else(|| format!("missing or non-integer field {key:?}"))
    }
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.error(format!("expected {:?}", byte as char))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            self.error(format!("expected {text}"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => self.error(format!("unexpected byte {:?}", other as char)),
            None => self.error("unexpected end of input"),
        }
    }

    /// Parses one array or object (`inner`) one level deeper, refusing
    /// at the opening bracket that would exceed [`MAX_DEPTH`].
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return self.error(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let value = inner(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return self.error("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.error("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.error("unterminated string"),
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return self.error("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(0..=0x1f) => return self.error("control character in string"),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control character. All are ASCII, so the run ends
                    // on a char boundary of the input `&str`.
                    let start = self.pos;
                    self.pos += self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Reads the four hex digits after `\u` (at `pos`), and a second
    /// `\uXXXX` when the first is a high surrogate; leaves `pos` on the
    /// last digit. A lone or reversed surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let bytes = self.bytes;
        let unit = |at: usize| {
            bytes
                .get(at..at + 4)
                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u32::from_str_radix(h, 16).ok())
        };
        let c = match unit(self.pos + 1) {
            Some(high @ 0xd800..=0xdbff)
                if bytes.get(self.pos + 5..self.pos + 7) == Some(b"\\u") =>
            {
                match unit(self.pos + 7) {
                    Some(low @ 0xdc00..=0xdfff) => {
                        self.pos += 6;
                        char::from_u32(0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00))
                    }
                    _ => None,
                }
            }
            Some(code) => char::from_u32(code),
            None => None,
        };
        match c {
            Some(c) => {
                self.pos += 4;
                Ok(c)
            }
            None => self.error("bad \\u escape"),
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') if self.bytes.get(self.pos + 1).is_some_and(u8::is_ascii_digit) => {
                return self.error("leading zero in number");
            }
            Some(b'0'..=b'9') => {}
            _ => return self.error("expected digit"),
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return self.error("expected digit after '.'");
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return self.error("expected digit in exponent");
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        if is_float {
            text.parse()
                .ok()
                .filter(|f: &f64| f.is_finite())
                .map(Value::Float)
                .ok_or_else(|| ParseError {
                    offset: start,
                    message: format!("bad number {text:?}"),
                })
        } else {
            text.parse().map(Value::Int).map_err(|_| ParseError {
                offset: start,
                message: format!("bad integer {text:?}"),
            })
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.error("trailing data after document");
    }
    Ok(value)
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(out: &mut String, value: &Value, indent: usize) {
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) if f.is_finite() => {
            // `{:?}` is Rust's shortest round-trip form and always keeps
            // a '.' or exponent, so the value re-parses as Float.
            out.push_str(&format!("{f:?}"));
        }
        Value::Float(_) => out.push_str("null"),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Array(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&inner);
                write_value(out, item, indent + 1);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(entries) if entries.is_empty() => out.push_str("{}"),
        Value::Object(entries) => {
            out.push_str("{\n");
            for (i, (key, item)) in entries.iter().enumerate() {
                out.push_str(&inner);
                write_string(out, key);
                out.push_str(": ");
                write_value(out, item, indent + 1);
                out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Serializes a value as pretty-printed JSON (2-space indent, trailing
/// newline) — the canonical on-disk form of the KAT files.
#[must_use]
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let doc = Value::Object(vec![
            ("name".into(), Value::Str("ring_mul".into())),
            ("count".into(), Value::Int(-3)),
            ("ok".into(), Value::Bool(true)),
            ("nothing".into(), Value::Null),
            (
                "vectors".into(),
                Value::Array(vec![
                    Value::Object(vec![("a".into(), Value::Str("00ff".into()))]),
                    Value::Int(7),
                ]),
            ),
        ]);
        assert_eq!(parse(&write(&doc)).unwrap(), doc);
    }

    #[test]
    fn order_is_preserved() {
        let text = r#"{"z": 1, "a": 2}"#;
        let Value::Object(entries) = parse(text).unwrap() else {
            panic!("expected object");
        };
        assert_eq!(entries[0].0, "z");
        assert_eq!(entries[1].0, "a");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let doc = Value::Str("line\n\"quoted\"\tend\\".into());
        assert_eq!(parse(&write(&doc)).unwrap(), doc);
        assert_eq!(parse(r#""Aé""#).unwrap(), Value::Str("Aé".into()));
        // Multi-byte runs on both sides of escapes.
        let doc = Value::Str("é\\日本\"ü\nñ€".into());
        assert_eq!(parse(&write(&doc)).unwrap(), doc);
        assert_eq!(parse(r#""é\u00e9日""#).unwrap(), Value::Str("éé日".into()));
        // `\u` takes exactly four hex digits: no sign, no short form.
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u041""#).is_err());
        // Every control character survives the writer's escapes.
        let doc = Value::Str((0u8..0x20).map(char::from).collect());
        assert_eq!(parse(&write(&doc)).unwrap(), doc);
    }

    #[test]
    fn rfc8259_grammar_cases() {
        // (document, Some(value) if the RFC 8259 grammar accepts it).
        let str_value = |s: &str| Some(Value::Str(s.into()));
        let cases: &[(&str, Option<Value>)] = &[
            // string = quotation-mark *char quotation-mark; every escape.
            (r#""\b\f\n\r\t\"\\\/""#, str_value("\u{8}\u{c}\n\r\t\"\\/")),
            (r#""\u0000\u001F""#, str_value("\u{0}\u{1f}")),
            // A surrogate pair escapes one char beyond the BMP.
            (r#""\ud83d\ude00""#, str_value("\u{1f600}")),
            (r#""\uD834\uDD1E""#, str_value("\u{1d11e}")),
            (r#""\ud83d""#, None),
            (r#""\ude00""#, None),
            (r#""\ude00\ud83d""#, None),
            (r#""\ud83d\u0041""#, None),
            (r#""\ud83dx""#, None),
            (r#""\a""#, None),
            // unescaped = %x20-21 / %x23-5B / %x5D-10FFFF.
            ("\"a\nb\"", None),
            ("\"a\tb\"", None),
            ("\"\u{0}\"", None),
            ("\"\u{1f}\"", None),
            ("\"\u{7f}\"", str_value("\u{7f}")),
            // int = zero / ( digit1-9 *DIGIT ).
            ("0", Some(Value::Int(0))),
            ("-0", Some(Value::Int(0))),
            ("10", Some(Value::Int(10))),
            ("[0]", Some(Value::Array(vec![Value::Int(0)]))),
            ("0.5", Some(Value::Float(0.5))),
            ("-0.25", Some(Value::Float(-0.25))),
            ("0e1", Some(Value::Float(0.0))),
            ("1E+2", Some(Value::Float(100.0))),
            ("012", None),
            ("[012]", None),
            ("-01", None),
            ("00", None),
            ("01.5", None),
            // number = [ minus ] int [ frac ] [ exp ].
            ("-", None),
            ("-.5", None),
            (".5", None),
            ("+1", None),
        ];
        for (text, expected) in cases {
            assert_eq!(parse(text).ok(), *expected, "{text:?}");
        }
    }

    #[test]
    fn errors_carry_offsets() {
        let err = parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(parse("[1, 2").is_err());
        assert!(parse("1.").is_err(), "a bare trailing dot is not a number");
        assert!(parse("1e").is_err(), "an empty exponent is not a number");
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn nesting_is_accepted_up_to_the_limit() {
        let arrays = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&arrays).is_ok());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());
    }

    #[test]
    fn nesting_past_the_limit_is_refused_at_the_crossing_bracket() {
        let text = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&text).unwrap_err();
        assert_eq!(
            err.offset, MAX_DEPTH,
            "the bracket that opens level limit + 1"
        );
        assert!(err.message.contains("nesting"), "{err}");
        // Objects and arrays count toward the same limit.
        let mixed = format!(
            "{}[]{}",
            r#"{"a":"#.repeat(MAX_DEPTH),
            "}".repeat(MAX_DEPTH)
        );
        assert_eq!(parse(&mixed).unwrap_err().offset, 5 * MAX_DEPTH);
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        let err = parse(&r#"{"a":"#.repeat(100_000)).unwrap_err();
        assert_eq!(err.offset, 5 * MAX_DEPTH);
    }

    #[test]
    fn floats_roundtrip_shortest_form() {
        assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(parse("-2.25e3").unwrap(), Value::Float(-2250.0));
        assert_eq!(parse("24498.0").unwrap(), Value::Float(24498.0));
        // Integers without a fraction stay exact Ints.
        assert_eq!(parse("24498").unwrap(), Value::Int(24498));
        let doc = Value::Array(vec![Value::Float(0.1), Value::Float(1e300), Value::Int(7)]);
        assert_eq!(parse(&write(&doc)).unwrap(), doc);
        assert!(
            write(&Value::Float(24498.0)).contains("24498.0"),
            "floats keep their dot"
        );
        assert_eq!(Value::Float(1.5).as_number(), Some(1.5));
        assert_eq!(Value::Int(3).as_number(), Some(3.0));
        assert_eq!(Value::Str("x".into()).as_number(), None);
    }

    #[test]
    fn field_helpers_report_missing_keys() {
        let doc = parse(r#"{"a": "x", "n": 3}"#).unwrap();
        assert_eq!(doc.str_field("a").unwrap(), "x");
        assert_eq!(doc.int_field("n").unwrap(), 3);
        assert!(doc.str_field("missing").unwrap_err().contains("missing"));
        assert!(doc.str_field("n").is_err(), "type mismatch is an error");
    }
}
