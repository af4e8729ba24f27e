//! Minimal strict JSON: the parser behind the daemon's wire protocol and
//! every in-tree reader of exported JSON, and the number/string formatting
//! every hand-rolled writer shares.
//!
//! The build environment is offline, so nothing can use `serde`; this
//! hand-rolled recursive-descent parser covers exactly RFC 8259 — objects,
//! arrays, strings (with escapes and surrogate pairs), numbers, booleans,
//! null — and nothing more. It is strict on purpose: trailing garbage,
//! unterminated literals, and over-deep nesting are errors, because a
//! request the parser half-understands must be refused, not guessed at.
//!
//! Numbers keep their raw lexeme so integer fields (seeds, override values)
//! round-trip exactly: `as_u64` re-parses the lexeme as an integer instead
//! of detouring through `f64` and silently losing precision above 2⁵³.
//!
//! [`Json::encode`] is the inverse direction: a compact single-line
//! serialization (`gmh-benchmark --check` quotes names with it, and the
//! parser's round-trip tests lean on it). Object keys encode in `BTreeMap`
//! order, so output is deterministic and diff-friendly.

use std::collections::BTreeMap;

/// Maximum nesting depth accepted before the parser refuses the document
/// (protects the connection thread's stack from `[[[[…` bombs).
pub const MAX_DEPTH: usize = 64;

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw lexeme (see module docs).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if this is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(lex) => lex.parse().ok(),
            _ => None,
        }
    }

    /// The value as a float, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(lex) => lex.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// Serializes the value as one compact RFC 8259 document (no
    /// whitespace, keys in `BTreeMap` order, never a raw newline — safe
    /// for line-delimited streams).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(lex) => out.push_str(lex),
            Json::Str(s) => encode_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
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

fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&json_escape(s));
    out.push('"');
}

/// Formats a float as a JSON-safe number (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:.6}");
        // Trim trailing zeros but keep at least one decimal digit off.
        let t = s.trim_end_matches('0').trim_end_matches('.');
        if t.is_empty() || t == "-" {
            "0".to_string()
        } else {
            t.to_string()
        }
    } else {
        "0".to_string()
    }
}

/// Escapes a string for inclusion in a JSON string literal, per RFC 8259:
/// quote, backslash, and all control characters (the common ones
/// short-form, the rest as `\u00XX`).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

/// Parses one complete JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with its
/// byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", char::from(b))))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            if map.insert(key, val).is_some() {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
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
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so boundaries
                    // are trustworthy).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .peek()
                        .is_some_and(|b| b & 0xC0 == 0x80 /* continuation */)
                    {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let v = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + v;
            self.pos += 1;
        }
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("unpaired surrogate"));
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("malformed number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("malformed number"));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: start..pos spans only ASCII digit/sign/dot/exponent bytes, so \
                the slice is valid UTF-8."
        )]
        let lex = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number lexeme");
        Ok(Json::Num(lex.to_string()))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn big_integers_do_not_lose_precision() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,{"b":"c"},null],"d":{}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![
                Json::Num("1".into()),
                Json::Obj(
                    [("b".to_string(), Json::Str("c".into()))]
                        .into_iter()
                        .collect()
                ),
                Json::Null,
            ])
        );
        assert_eq!(v.get("d").unwrap().as_obj().unwrap().len(), 0);
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\ndAé""#).unwrap().as_str(),
            Some("a\"b\\c\ndAé")
        );
        // Surrogate pair for 🙂 (U+1F642).
        assert_eq!(parse(r#""🙂""#).unwrap().as_str(), Some("🙂"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "{'a':1}",
            "tru",
            "01x",
            "1 2",
            "\"unterminated",
            r#""\q""#,
            r#""\ud800""#,
            "{\"a\":1,\"a\":2}",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_over_deep_nesting() {
        let mut doc = String::new();
        for _ in 0..=MAX_DEPTH {
            doc.push('[');
        }
        doc.push('1');
        for _ in 0..=MAX_DEPTH {
            doc.push(']');
        }
        assert!(parse(&doc).is_err());
    }

    #[test]
    fn control_characters_rejected_raw_accepted_escaped() {
        assert!(parse("\"a\nb\"").is_err());
        assert_eq!(parse(r#""a\nb""#).unwrap().as_str(), Some("a\nb"));
    }

    #[test]
    fn encode_round_trips_and_stays_single_line() {
        for doc in [
            r#"{"a":[1,{"b":"c"},null],"d":{}}"#,
            r#"{"n":18446744073709551615}"#,
            "true",
            r#""tab\there""#,
        ] {
            let v = parse(doc).unwrap();
            let enc = v.encode();
            assert!(!enc.contains('\n'), "LDJSON safety: {enc}");
            assert_eq!(parse(&enc).unwrap(), v, "round-trip of {doc}");
        }
    }

    #[test]
    fn encode_escapes_controls_and_quotes() {
        let v = Json::Str("a\"b\\c\nd\u{1}e".to_string());
        assert_eq!(v.encode(), "\"a\\\"b\\\\c\\nd\\u0001e\"");
        assert_eq!(parse(&v.encode()).unwrap(), v);
    }
}
