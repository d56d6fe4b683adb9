//! The workspace's one JSON codec: a writer that appends objects to a
//! `String`, and a reader that parses a document, or a JSONL document
//! one line at a time, into [`Value`]s.
//!
//! Every exporter (trace, telemetry and profile JSONL, the device
//! counters, the `--json` reports, the lint documents, the bench
//! summaries) writes through [`object`] or [`line()`]: fields appear in
//! call order, and string escaping and comma placement live here
//! alone. Every reader parses through [`parse`] or [`lines`], so all of
//! them accept the same grammar and fail the same way, with a
//! [`DecodeError`] that names the line. A document cut anywhere inside
//! a line never parses.
//!
//! The crate has no dependencies, so the codec is hand-written. It
//! reads RFC 8259 JSON, except that a number is a [`Value::Num`] when
//! it is a non-negative integer that fits a `u64` and a
//! [`Value::Float`] otherwise.

use std::collections::BTreeMap;
use std::fmt::{self, Display, Write as _};

/// Deepest nesting of arrays and objects the reader accepts. It
/// recurses once per level, so without a bound a corrupt file such as
/// `[[[[…` would overflow the stack. No document written here nests
/// deeper than three.
pub const MAX_DEPTH: usize = 64;

/// An object being appended to a string; see [`object`] and [`line()`].
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

/// One JSON object; `fields` writes its fields, in the order they will
/// appear.
pub fn object(fields: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, fields);
    out
}

/// Append one JSONL line to `out`: an object written as by [`object`],
/// then a newline.
pub fn line(out: &mut String, fields: impl FnOnce(&mut Object<'_>)) {
    write_object(out, fields);
    out.push('\n');
}

fn write_object(out: &mut String, fields: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    fields(&mut Object {
        out: &mut *out,
        empty: true,
    });
    out.push('}');
}

impl Object<'_> {
    fn key(&mut self, key: &str) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        push_str(self.out, key);
        self.out.push(':');
    }

    /// A bare value written with its `Display`: an integer, a float in
    /// whatever fixed format the caller chose (`format_args!("{x:.3}")`),
    /// or `null`.
    pub fn num(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.key(key);
        // Writing to a `String` cannot fail.
        let _ = write!(self.out, "{value}");
        self
    }

    /// A string, escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        push_str(self.out, value);
        self
    }

    /// A nested object.
    pub fn object(&mut self, key: &str, fields: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        self.key(key);
        write_object(self.out, fields);
        self
    }

    /// An array with one object per item, each written by `fields`.
    pub fn objects<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut fields: impl FnMut(&mut Object<'_>, T),
    ) -> &mut Self {
        self.array(key, items, |out, item| {
            write_object(out, |o| fields(o, item))
        })
    }

    /// An array of bare values (see [`Object::num`]).
    pub fn nums<T: Display>(
        &mut self,
        key: &str,
        values: impl IntoIterator<Item = T>,
    ) -> &mut Self {
        self.array(key, values, |out, v| {
            let _ = write!(out, "{v}");
        })
    }

    fn array<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut write_item: impl FnMut(&mut String, T),
    ) -> &mut Self {
        self.key(key);
        self.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            write_item(self.out, item);
        }
        self.out.push(']');
        self
    }
}

/// Append `s` as a quoted JSON string.
fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer that fits a `u64`.
    Num(u64),
    /// Any other number (a fraction, an exponent, a sign, or too large
    /// for a `u64`).
    Float(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; a repeated key keeps its last value.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value of a [`Value::Num`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value of a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items of a [`Value::Arr`].
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Any number as `f64` (integers widen losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
}

/// Why a JSON or JSONL document did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for DecodeError {}

/// Parse one complete JSON document. Anything but whitespace after the
/// value is an error.
pub fn parse(text: &str) -> Result<Value, DecodeError> {
    let mut p = Parser {
        text,
        b: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value().and_then(|v| match p.peek() {
        None => Ok(v),
        Some(_) => Err("trailing bytes after the value".to_string()),
    });
    value.map_err(|reason| {
        let before = &p.b[..p.pos.min(p.b.len())];
        let line_start = before
            .iter()
            .rposition(|&c| c == b'\n')
            .map_or(0, |i| i + 1);
        DecodeError {
            line: 1 + before.iter().filter(|&&c| c == b'\n').count(),
            reason: format!("{reason} at column {}", 1 + before.len() - line_start),
        }
    })
}

/// One non-blank line of a JSONL document, parsed, with accessors that
/// report a missing or mistyped field as a [`DecodeError`] on this line.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// 1-based line number.
    pub number: usize,
    /// The line's value.
    pub value: Value,
}

impl Line {
    /// A [`DecodeError`] on this line.
    pub fn error(&self, reason: impl Into<String>) -> DecodeError {
        DecodeError {
            line: self.number,
            reason: reason.into(),
        }
    }

    fn field(&self, key: &str) -> Result<&Value, DecodeError> {
        self.value
            .get(key)
            .ok_or_else(|| self.error(format!("missing {key}")))
    }

    /// The unsigned integer field `key`.
    pub fn u64(&self, key: &str) -> Result<u64, DecodeError> {
        self.field(key)?
            .as_u64()
            .ok_or_else(|| self.error(format!("{key} is not an unsigned integer")))
    }

    /// The unsigned integer field `key`, which must fit a `u32`.
    pub fn u32(&self, key: &str) -> Result<u32, DecodeError> {
        u32::try_from(self.u64(key)?).map_err(|_| self.error(format!("{key} exceeds u32")))
    }

    /// The string field `key`.
    pub fn str(&self, key: &str) -> Result<&str, DecodeError> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| self.error(format!("{key} is not a string")))
    }
}

/// The non-blank lines of a JSONL document, each parsed as one JSON
/// value, in order.
pub fn lines(doc: &str) -> impl Iterator<Item = Result<Line, DecodeError>> + '_ {
    doc.lines()
        .enumerate()
        .filter(|(_, text)| !text.trim().is_empty())
        .map(|(i, text)| {
            let number = i + 1;
            parse(text)
                .map(|value| Line { number, value })
                .map_err(|e| DecodeError { line: number, ..e })
        })
}

/// A recursive-descent reader. `pos` only ever moves past ASCII bytes
/// or whole runs of string content, so it stays on a char boundary.
struct Parser<'a> {
    text: &'a str,
    b: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    /// The next byte after whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.b.get(self.pos).copied()
    }

    /// Consume `c` if it is the next byte after whitespace.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    /// Consume `c`, which must come next in the enclosing `what`.
    fn require(&mut self, c: u8, what: &str) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else if self.peek().is_none() {
            Err(format!("unterminated {what}"))
        } else {
            Err(format!("expected `{}` in {what}", c as char))
        }
    }

    /// After an item of an array or object: `true` past a `,`, `false`
    /// past the closing byte.
    fn more(&mut self, close: u8, what: &str) -> Result<bool, String> {
        if self.eat(b',') {
            return Ok(true);
        }
        self.require(close, what)?;
        Ok(false)
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => self.nested(Self::object_body),
            Some(b'[') => self.nested(Self::array_body),
            Some(b'"') => {
                self.pos += 1;
                self.string().map(Value::Str)
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => {
                let rest = &self.text[self.pos..];
                let len = rest
                    .find(|c: char| !c.is_ascii_alphanumeric())
                    .unwrap_or(rest.len());
                let value = match &rest[..len] {
                    "true" => Value::Bool(true),
                    "false" => Value::Bool(false),
                    "null" => Value::Null,
                    _ => {
                        let bad: String = rest.chars().take(len.max(1)).collect();
                        return Err(format!("unexpected `{bad}`"));
                    }
                };
                self.pos += len;
                Ok(value)
            }
        }
    }

    /// Step into an array or object, bounded by [`MAX_DEPTH`].
    fn nested(&mut self, body: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        self.pos += 1; // `{` or `[`
        let value = body(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.pos += self.b[start..]
            .iter()
            .take_while(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
            .count();
        let text = &self.text[start..self.pos];
        match text.parse() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => text
                .parse()
                .map(Value::Float)
                .map_err(|_| format!("invalid number `{text}`")),
        }
    }

    /// After the opening quote: the string up to its closing quote.
    fn string(&mut self) -> Result<String, String> {
        let mut out = String::new();
        loop {
            let run = self.b[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20);
            let Some(n) = run else {
                self.pos = self.b.len();
                return Err("unterminated string".to_string());
            };
            out.push_str(&self.text[self.pos..self.pos + n]);
            self.pos += n + 1;
            let c = match self.b[self.pos - 1] {
                b'"' => return Ok(out),
                b'\\' => match self.b.get(self.pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => {
                        let hex = self.text.get(self.pos + 1..self.pos + 5).unwrap_or("");
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        self.pos += 4;
                        // A lone UTF-16 surrogate has no char; no writer
                        // here emits one.
                        char::from_u32(code).unwrap_or('\u{fffd}')
                    }
                    Some(_) => return Err("bad escape".to_string()),
                },
                _ => return Err("control character in string".to_string()),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// After `[`: items up to the closing `]`.
    fn array_body(&mut self) -> Result<Value, String> {
        let mut items = Vec::new();
        if !self.eat(b']') {
            loop {
                items.push(self.value()?);
                if !self.more(b']', "array")? {
                    break;
                }
            }
        }
        Ok(Value::Arr(items))
    }

    /// After `{`: members up to the closing `}`.
    fn object_body(&mut self) -> Result<Value, String> {
        let mut map = BTreeMap::new();
        if !self.eat(b'}') {
            loop {
                self.require(b'"', "object")?;
                let key = self.string()?;
                self.require(b':', "object")?;
                let value = self.value().map_err(|e| format!("{key}: {e}"))?;
                map.insert(key, value);
                if !self.more(b'}', "object")? {
                    break;
                }
            }
        }
        Ok(Value::Obj(map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2, {"b": "x\ny", "c": true}], "d": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        let inner = &v.get("a").unwrap().as_arr().unwrap()[2];
        assert_eq!(inner.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(inner.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
    }

    #[test]
    fn floats_parse_as_float_leaves() {
        let v = parse(r#"{"kops": 12.345, "neg": -3, "exp": 1.5e3, "int": 7}"#).unwrap();
        assert_eq!(v.get("kops").unwrap().as_f64(), Some(12.345));
        assert_eq!(v.get("neg").unwrap().as_f64(), Some(-3.0));
        assert_eq!(v.get("exp").unwrap().as_f64(), Some(1500.0));
        assert_eq!(v.get("int"), Some(&Value::Num(7)));
        assert_eq!(v.get("int").unwrap().as_f64(), Some(7.0));
        assert!(parse("{\"bad\": 1.}").is_ok(), "lenient empty fraction");
        assert!(parse("{\"bad\": .5}").is_err(), "no leading-dot numbers");
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} x").is_err());
        assert!(parse(r#"{"a": "#).is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn unicode_escapes_and_multibyte_round_trip() {
        assert_eq!(parse("\"a\\u00e9b\"").unwrap().as_str(), Some("a\u{e9}b"));
        assert_eq!(parse(r#""aéb""#).unwrap().as_str(), Some("aéb"));
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(200_000)).expect_err("too deep");
        assert!(err.reason.contains("nesting deeper than"), "{err}");
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&past).is_err());
    }

    #[test]
    fn writer_escapes_and_keeps_field_order() {
        let out = object(|o| {
            o.str("z", "say \"hi\"\\\n\u{1}")
                .num("a", 7)
                .num("f", format_args!("{:.3}", 1.5))
                .nums("b", [1u64, 2])
                .object("o", |o| {
                    o.num("n", "null");
                })
                .objects("l", 0..2u32, |o, i| {
                    o.num("i", i);
                });
        });
        assert_eq!(
            out,
            r#"{"z":"say \"hi\"\\\n\u0001","a":7,"f":1.500,"b":[1,2],"o":{"n":null},"l":[{"i":0},{"i":1}]}"#
        );
        let v = parse(&out).unwrap();
        assert_eq!(v.get("z").unwrap().as_str(), Some("say \"hi\"\\\n\u{1}"));
    }

    #[test]
    fn errors_name_the_line_and_the_field() {
        let err = parse("{\n\"a\": 1,\n\"b\": fast}").expect_err("bad token");
        assert_eq!(err.line, 3);
        assert!(err.reason.contains("b: unexpected `fast`"), "{err}");
        let doc = "{\"n\":1}\n\n{\"n\":\"x\"}\n{\"n\":";
        let got: Vec<_> = lines(doc).collect();
        assert_eq!(got.len(), 3, "the blank line is skipped");
        let second = got[1].as_ref().unwrap();
        assert_eq!(second.number, 3);
        assert_eq!(second.u64("n").unwrap_err().line, 3);
        assert!(second.u64("m").unwrap_err().reason.contains("missing m"));
        assert_eq!(got[2].as_ref().unwrap_err().line, 4);
    }
}
