//! Minimal JSON value, writer, and parser.
//!
//! The build environment has no crate registry (so no `serde_json`); shard
//! manifests are small, flat documents, and this module implements exactly
//! what they need. Numbers are kept as their raw token text so `u128`
//! counters (entry counts of trillion-edge products) round-trip exactly —
//! nothing is forced through `f64`.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its literal text (exact u128 round-trip).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Number from any displayable integer/float token.
    pub fn num<T: fmt::Display>(v: T) -> Json {
        Json::Num(v.to_string())
    }

    /// String value.
    pub fn str(v: &str) -> Json {
        Json::Str(v.to_string())
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required member lookup, with the key in the error.
    ///
    /// # Errors
    ///
    /// A message naming the missing key.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing key {key:?}"))
    }

    /// The integer under `key`.
    ///
    /// # Errors
    ///
    /// A message naming the key when it is missing or not a `u64`.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.req(key)?
            .as_u64()
            .ok_or_else(|| format!("{key} is not an integer"))
    }

    /// The integer under `key`.
    ///
    /// # Errors
    ///
    /// A message naming the key when it is missing or not a `u128`.
    pub fn req_u128(&self, key: &str) -> Result<u128, String> {
        self.req(key)?
            .as_u128()
            .ok_or_else(|| format!("{key} is not an integer"))
    }

    /// The value as u128 (integer tokens only).
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as u64.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as usize.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parse a JSON document.
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(s) => write!(f, "{s}"),
            Json::Str(s) => {
                write!(f, "\"")?;
                for c in s.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        '\r' => write!(f, "\\r")?,
                        '\t' => write!(f, "\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", Json::Str(k.clone()))?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => {
            parse_lit(b, pos, b"true")?;
            Ok(Json::Bool(true))
        }
        Some(b'f') => {
            parse_lit(b, pos, b"false")?;
            Ok(Json::Bool(false))
        }
        Some(b'n') => {
            parse_lit(b, pos, b"null")?;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            if *pos == start {
                return Err(format!("unexpected character at byte {pos}"));
            }
            let tok = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            // validate the token parses as a number
            tok.parse::<f64>()
                .map_err(|_| format!("bad number {tok:?}"))?;
            Ok(Json::Num(tok.to_string()))
        }
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() - *pos >= lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
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
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // copy a full UTF-8 scalar
                let s = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let ch = s.chars().next().ok_or("unterminated string")?;
                out.push(ch);
                *pos += ch.len_utf8();
                let _ = c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u128_roundtrip_exact() {
        let big = u128::MAX;
        let doc = Json::obj(vec![("n", Json::num(big))]);
        let parsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed.req("n").unwrap().as_u128(), Some(big));
        assert_eq!(parsed.req_u128("n"), Ok(big));
        // the refusals every manifest, run.json and /shards reader gives
        assert_eq!(parsed.req_u64("n"), Err("n is not an integer".into()));
        assert_eq!(parsed.req_u128("m"), Err("missing key \"m\"".into()));
    }

    #[test]
    fn nested_document_roundtrips() {
        let doc = Json::obj(vec![
            ("name", Json::str("shard \"3\"\n")),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::num(1), Json::num(2.5), Json::str("x")]),
            ),
            ("inner", Json::obj(vec![("k", Json::num(7u64))])),
        ]);
        let text = doc.to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("shard \"3\"\n"));
        assert_eq!(parsed.get("items").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            parsed.get("inner").unwrap().get("k").unwrap().as_u64(),
            Some(7)
        );
    }

    #[test]
    fn whitespace_and_errors() {
        let parsed = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : false } ").unwrap();
        assert_eq!(parsed.get("b").unwrap().as_bool(), Some(false));
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"abc").is_err());
        assert!(Json::req(&Json::parse("{}").unwrap(), "missing").is_err());
    }

    #[test]
    fn unicode_escapes() {
        let parsed = Json::parse("\"a\\u00e9b\"").unwrap();
        assert_eq!(parsed.as_str(), Some("aéb"));
        let ctl = Json::Str("\u{1}".into()).to_string();
        assert_eq!(ctl, "\"\\u0001\"");
        assert_eq!(Json::parse(&ctl).unwrap().as_str(), Some("\u{1}"));
    }
}
