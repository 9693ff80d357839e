//! A minimal JSON reader/writer for the wire protocol.
//!
//! The server speaks newline-delimited JSON objects whose values are only
//! strings, numbers, booleans, arrays, and flat objects — no external
//! serialization crate is needed (or available in the offline build), so
//! this module implements exactly the subset the protocol uses, plus full
//! string escaping so arbitrary identifiers round-trip.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All numbers are kept as f64 (the protocol only uses integers small
    /// enough to be exact).
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// BTreeMap keeps encoding deterministic for tests and transcripts.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?.get(key)
    }

    /// Serializes to compact JSON.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::Str(s) => encode_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Builds an object value from key/value pairs.
///
/// ```
/// use cla_serve::json::{obj, Value};
/// let v = obj([("ok", Value::Bool(true)), ("n", 3u64.into())]);
/// assert_eq!(v.encode(), r#"{"n":3,"ok":true}"#);
/// ```
pub fn obj<I: IntoIterator<Item = (&'static str, Value)>>(pairs: I) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    cla_obs::escape_json(s, out);
    out.push('"');
}

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub msg: String,
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is copied as one
            // run and validated once, so a string costs its own length.
            // Both are ASCII, so a run of a `&str` ends on a boundary.
            let rest = &self.bytes[self.pos..];
            let Some(run) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            let text = std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid utf-8"))?;
            out.push_str(text);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
            self.pos += 1;
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
                    if self.pos + 4 > self.bytes.len() {
                        return Err(self.err("short \\u escape"));
                    }
                    let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                        .map_err(|_| self.err("bad \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs are outside the protocol's
                    // alphabet; map them to the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(self.err("bad escape")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_protocol_shapes() {
        for src in [
            r#"{"cmd":"points-to","var":"p"}"#,
            r#"{"ok":true,"set":["x","y"],"us":12}"#,
            r#"{"nested":{"a":[1,2,3],"b":null},"f":false}"#,
            r#"[]"#,
            r#"{}"#,
            r#""just a string""#,
            r#"-17"#,
        ] {
            let v = parse(src).unwrap();
            assert_eq!(parse(&v.encode()).unwrap(), v, "through {src}");
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}f→".to_string());
        let enc = v.encode();
        assert_eq!(parse(&enc).unwrap(), v);
        // Parsing standard escapes produced elsewhere also works.
        assert_eq!(parse(r#""A\n\/""#).unwrap(), Value::Str("A\n/".to_string()));
    }

    #[test]
    fn runs_and_escapes_meet_on_any_boundary() {
        // Multi-byte scalars directly before and after an escape, before
        // the closing quote, and as the whole string; `\u` escapes first,
        // last, back to back and against a multi-byte neighbour.
        for (src, want) in [
            (r#""é\n→""#, "é\n→"),
            (r#""\té""#, "\té"),
            (r#""a→""#, "a→"),
            (r#""→""#, "→"),
            (r#""""#, ""),
            (r#""\u0041""#, "A"),
            (r#""\u00e9\u2192""#, "é→"),
            (r#""x\u0041y""#, "xAy"),
            (r#""→\u0041→""#, "→A→"),
            (r#""\\\"\/""#, "\\\"/"),
            (r#""\ud800""#, "\u{fffd}"),
        ] {
            assert_eq!(parse(src), Ok(Value::Str(want.to_string())), "{src}");
        }
    }

    #[test]
    fn strings_that_end_early_are_errors_at_the_end() {
        // Unterminated mid-run (after a multi-byte scalar too), in the
        // middle of an escape, and in the middle of a `\u`.
        for bad in [
            r#""abc"#,
            r#""ab→"#,
            r#""abc\"#,
            r#""abc\u00"#,
            r#""abc\u00→""#,
            r#""abc\q""#,
            r#"{"k":"v"#,
        ] {
            let e = parse(bad).unwrap_err();
            assert!(e.at <= bad.len(), "{bad:?}: {e:?}");
        }
        assert_eq!(parse(r#""abc"#).unwrap_err().at, 4);
        assert_eq!(parse(r#""abc"#).unwrap_err().msg, "unterminated string");
    }

    #[test]
    fn a_megabyte_reply_parses_in_time_linear_in_its_length() {
        // A `points-to` reply with 28 000 targets. A parser that looks at
        // the rest of the line for every character needs minutes for this
        // even when optimised; linear in the line it is milliseconds.
        let targets: Vec<Value> = (0..28_000u64)
            .map(|id| obj([("id", id.into()), ("name", format!("gv{id}_fieldé").into())]))
            .collect();
        let line = obj([
            ("ok", true.into()),
            ("var", "p".into()),
            ("targets", Value::Arr(targets)),
            ("cached", false.into()),
        ])
        .encode();
        assert!(line.len() > 1_000_000, "{} bytes", line.len());
        let t = std::time::Instant::now();
        let v = parse(&line).unwrap();
        let took = t.elapsed();
        assert_eq!(
            v.get("targets").and_then(Value::as_arr).unwrap().len(),
            28_000
        );
        assert_eq!(v.encode(), line);
        assert!(took.as_secs() < 2, "{} bytes took {took:?}", line.len());
    }

    #[test]
    fn errors_have_positions() {
        for bad in ["{", "[1,", r#"{"a"}"#, "tru", "1 2", r#""unterminated"#] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let e = parse("[1, @]").unwrap_err();
        assert!(e.at >= 4, "position {e:?}");
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"cmd":"alias","n":5,"flag":true,"set":["a"]}"#).unwrap();
        assert_eq!(v.get("cmd").and_then(Value::as_str), Some("alias"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("flag").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("set").and_then(Value::as_arr).map(<[Value]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn obj_builder_is_deterministic() {
        let a = obj([("b", 1u64.into()), ("a", 2u64.into())]);
        assert_eq!(a.encode(), r#"{"a":2,"b":1}"#);
    }
}
