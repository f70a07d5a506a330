//! Offline stand-in for the `serde_json` crate.
//!
//! Prints and parses JSON over the serde shim's [`Value`] data model.
//! Covers the API surface the `oxbar` workspace uses — [`to_string`],
//! [`to_string_pretty`], and [`from_str`] — with full round-trip fidelity
//! for finite `f64` values (Rust's shortest-round-trip float formatting).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// JSON serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` as a compact JSON string.
///
/// # Errors
///
/// Infallible for the shim's data model; kept fallible for API parity.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` as human-readable JSON (2-space indent).
///
/// # Errors
///
/// Infallible for the shim's data model; kept fallible for API parity.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Converts a serializable value into a [`Value`] tree.
///
/// # Errors
///
/// Infallible for the shim's data model; kept fallible for API parity.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

/// Deserializes a `T` from a JSON string.
///
/// # Errors
///
/// Returns an error on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse(s)?;
    Ok(T::from_value(&value)?)
}

/// Deserializes a `T` from an already-parsed [`Value`].
///
/// # Errors
///
/// Returns an error on a shape mismatch with `T`.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    Ok(T::from_value(&value)?)
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                // `{}` on f64 is shortest-round-trip and never scientific,
                // so the output is both valid JSON and lossless.
                out.push_str(&x.to_string());
            } else {
                // JSON has no NaN/Infinity; mirror serde_json's `null`.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            write_seq(
                out,
                items.iter(),
                indent,
                level,
                ('[', ']'),
                |out, item, lvl| {
                    write_value(out, item, indent, lvl);
                },
            );
        }
        Value::Object(fields) => {
            write_seq(
                out,
                fields.iter(),
                indent,
                level,
                ('{', '}'),
                |out, (k, v), lvl| {
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, v, indent, lvl);
                },
            );
        }
    }
}

fn write_seq<I: ExactSizeIterator>(
    out: &mut String,
    items: I,
    indent: Option<usize>,
    level: usize,
    (open, close): (char, char),
    mut write_item: impl FnMut(&mut String, I::Item, usize),
) {
    out.push(open);
    let len = items.len();
    for (i, item) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (level + 1)));
        }
        write_item(out, item, level + 1);
        if i + 1 < len {
            out.push(',');
        }
    }
    if len > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * level));
        }
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting the parser accepts (the limit the real
/// `serde_json` uses). The parser recurses once per level, so without a
/// bound a small hostile document could overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

fn parse(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(value)
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Parses one array or object one nesting level down, refusing to
    /// open more than [`MAX_DEPTH`] levels.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    /// Reads the four hex digits of a `\uXXXX` escape starting at `at`.
    fn hex_escape(&self, at: usize) -> Result<u32> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| Error("truncated \\u escape".to_string()))?;
        let hex = std::str::from_utf8(hex).map_err(|_| Error("invalid \\u escape".to_string()))?;
        u32::from_str_radix(hex, 16).map_err(|_| Error("invalid \\u escape".to_string()))
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".to_string())),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex_escape(self.pos + 1)?;
                            self.pos += 4;
                            let scalar = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: a low-surrogate \uXXXX
                                // must follow (RFC 8259 §7).
                                if self.bytes.get(self.pos + 1..self.pos + 3)
                                    != Some(br"\u".as_slice())
                                {
                                    return Err(Error("unpaired surrogate escape".to_string()));
                                }
                                let low = self.hex_escape(self.pos + 3)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(Error("invalid low surrogate escape".to_string()));
                                }
                                self.pos += 6;
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| Error("invalid \\u escape".to_string()))?,
                            );
                        }
                        other => {
                            return Err(Error(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 encoded char.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| Error("invalid UTF-8".to_string()))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
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
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".to_string()))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Value::Object(vec![
            ("a".to_string(), Value::Float(0.1)),
            (
                "b".to_string(),
                Value::Array(vec![Value::Int(-3), Value::Bool(true), Value::Null]),
            ),
            ("c".to_string(), Value::Str("x\"\n\\y".to_string())),
        ]);
        let compact = {
            let mut s = String::new();
            write_value(&mut s, &v, None, 0);
            s
        };
        assert_eq!(parse(&compact).unwrap(), v);
        let pretty = {
            let mut s = String::new();
            write_value(&mut s, &v, Some(2), 0);
            s
        };
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        // "😀" (escaped surrogate pair) decodes to U+1F600.
        let escaped_pair = "\"\\ud83d\\ude00\"";
        assert_eq!(
            parse(escaped_pair).unwrap(),
            Value::Str("\u{1F600}".to_string())
        );
        let embedded = "\"a\\ud83d\\ude00z\"";
        assert_eq!(
            parse(embedded).unwrap(),
            Value::Str("a\u{1F600}z".to_string())
        );
        // Non-escaped UTF-8 passes through unchanged.
        assert_eq!(
            parse("\"\u{e9}\u{1F600}\"").unwrap(),
            Value::Str("\u{e9}\u{1F600}".to_string())
        );
        assert!(parse(r#""\ud83d""#).is_err()); // unpaired high surrogate
        assert!(parse(r#""\ud83dA""#).is_err()); // bad low surrogate
        assert!(parse(r#""\udc00""#).is_err()); // lone low surrogate
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let deepest = parse(&nest(MAX_DEPTH)).unwrap();
        let mut value = &deepest;
        for _ in 1..MAX_DEPTH {
            match value {
                Value::Array(items) => value = &items[0],
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(value, &Value::Array(Vec::new()));
        assert!(parse(&nest(MAX_DEPTH + 1))
            .unwrap_err()
            .to_string()
            .contains("nesting deeper than 128"));
        assert!(parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        // Far deeper than any stack could recurse: a structured error.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e-15, 123_456_789.123_456_78, -2.5e10] {
            let mut s = String::new();
            write_value(&mut s, &Value::Float(x), None, 0);
            match parse(&s).unwrap() {
                Value::Float(back) => assert_eq!(back, x),
                Value::Int(i) => assert_eq!(i as f64, x),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
