//! A small JSON document type with rendering and parsing.
//!
//! [`Value`] replaces the `serde` derives the workspace used to carry:
//! types implement [`ToJson`] by hand, which keeps the wire format
//! explicit and reviewable. JSON is an output format: the tools write
//! models, lint reports, metrics, stats and traces with it, and read
//! none of them back (the one model reader is the `.nfm` text format in
//! `nf-model::text`). [`Value::parse`] reads the JSON the tools take as
//! input: workload traces, `json-check` and language-server messages.
//!
//! Objects preserve insertion order (they are association lists, not
//! hash maps) so rendering is deterministic.

use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (JSON numbers without fraction/exponent).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

/// Errors from [`Value::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Serialize a type to a [`Value`].
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Value;
}

impl Value {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(es) => Some(es),
            _ => None,
        }
    }

    /// Render to compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Float(v) => {
                if v.is_finite() {
                    // Keep a float marker so the value re-parses as a
                    // float, not an integer.
                    let s = format!("{v}");
                    let has_marker = s.contains(['.', 'e', 'E']);
                    out.push_str(&s);
                    if !has_marker {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/inf
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(es) => {
                if es.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    e.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (full input must be consumed).
    pub fn parse(src: &str) -> Result<Value, JsonError> {
        let bytes = src.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                msg: "trailing input".into(),
                offset: pos,
            });
        }
        Ok(v)
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn err(msg: impl Into<String>, pos: usize) -> JsonError {
    JsonError {
        msg: msg.into(),
        offset: pos,
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(err(format!("expected '{}'", c as char), *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut es = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(es));
            }
            loop {
                es.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(es));
                    }
                    _ => return Err(err("expected ',' or ']'", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(err("expected ',' or '}'", *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err(format!("expected '{lit}'"), *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err("truncated \\u escape", *pos))?;
                        let s =
                            std::str::from_utf8(hex).map_err(|_| err("bad \\u escape", *pos))?;
                        let cp =
                            u32::from_str_radix(s, 16).map_err(|_| err("bad \\u escape", *pos))?;
                        // Surrogates are replaced; the workspace never
                        // emits them.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character.
                let rest =
                    std::str::from_utf8(&b[*pos..]).map_err(|_| err("invalid utf-8", *pos))?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    let mut is_float = false;
    if b.get(*pos) == Some(&b'.') {
        is_float = true;
        *pos += 1;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        is_float = true;
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).unwrap();
    if text.is_empty() || text == "-" {
        return Err(err("expected a value", start));
    }
    if is_float {
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| err("bad number", start))
    } else {
        // Fall back to float on i64 overflow.
        match text.parse::<i64>() {
            Ok(v) => Ok(Value::Int(v)),
            Err(_) => text
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| err("bad number", start)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Str("hello \"world\"\n\t\\".into()),
            Value::Str("unicode: ⊤ λ".into()),
        ] {
            assert_eq!(Value::parse(&v.render()).unwrap(), v, "{}", v.render());
        }
    }

    #[test]
    fn float_roundtrips() {
        for f in [0.5, -123.25, 1e18] {
            let v = Value::Float(f);
            match Value::parse(&v.render()).unwrap() {
                Value::Float(g) => assert_eq!(g, f),
                other => panic!("expected float, got {other:?}"),
            }
        }
        // Whole floats keep a fraction marker so the type survives.
        assert_eq!(Value::Float(3.0).render(), "3.0");
    }

    #[test]
    fn containers_roundtrip() {
        let v = Value::Object(vec![
            ("a".into(), Value::Array(vec![Value::Int(1), Value::Null])),
            ("b".into(), Value::Object(vec![])),
            ("empty".into(), Value::Array(vec![])),
        ]);
        assert_eq!(Value::parse(&v.render()).unwrap(), v);
        assert_eq!(Value::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Value::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        match &v {
            Value::Object(fields) => {
                assert_eq!(fields[0].0, "z");
                assert_eq!(fields[1].0, "a");
            }
            _ => unreachable!(),
        }
        assert_eq!(v.get("z"), Some(&Value::Int(1)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_errors_carry_offsets() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        let e = Value::parse("[1, oops]").unwrap_err();
        assert!(e.offset >= 4, "{e}");
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Value::parse(" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(
            v,
            Value::Object(vec![(
                "k".into(),
                Value::Array(vec![Value::Int(1), Value::Int(2)])
            )])
        );
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(
            Value::parse("\"\\u0041\\u00e9\"").unwrap(),
            Value::Str("Aé".into())
        );
    }
}
