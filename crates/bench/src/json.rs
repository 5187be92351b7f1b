//! Minimal, dependency-free JSON reader.
//!
//! The run reports and sweep artifacts are *written* by hand-rolled
//! serializers ([`crate::report`], `aq-harness`) so their bytes stay
//! deterministic; this module is the matching reader used by the
//! regression gate (`aq-sweep diff`) and the round-trip tests. It parses
//! standard JSON — objects, arrays, strings with escapes, numbers,
//! booleans, null — into a [`Json`] tree. Object members keep *document
//! order* (stored as a `Vec`, not a map), so re-rendering a parsed
//! document is deterministic too.
//!
//! Errors carry a byte offset; inputs here are machine-written artifacts,
//! so diagnostics stay simple.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (counts and ids in reports).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // Exactness intended: ids/counts must have survived the f64
            // round-trip losslessly to count as integers.
            Json::Num(n) if *n >= 0.0 && n.fract() <= 0.0 => Some(*n as u64),
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
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members in document order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Member `key`, or an error naming `ctx` (the enclosing record).
    pub(crate) fn member(&self, key: &str, ctx: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("{ctx}: missing `{key}`"))
    }

    /// Member `key` converted to `T`; the error names `ctx`, the key and
    /// what was expected there.
    pub fn field<T: FromJson>(&self, key: &str, ctx: &str) -> Result<T, String> {
        T::from_json(self.member(key, ctx)?)
            .ok_or_else(|| format!("{ctx}: `{key}` is not {}", T::expected()))
    }

    /// Member `key` as an array slice.
    pub fn arr_field(&self, key: &str, ctx: &str) -> Result<&[Json], String> {
        self.member(key, ctx)?
            .as_arr()
            .ok_or_else(|| format!("{ctx}: `{key}` is not an array"))
    }

    /// Member `key` as object members in document order.
    pub fn obj_field(&self, key: &str, ctx: &str) -> Result<&[(String, Json)], String> {
        self.member(key, ctx)?
            .as_obj()
            .ok_or_else(|| format!("{ctx}: `{key}` is not an object"))
    }
}

/// A type [`Json::field`] can read out of one JSON value.
pub trait FromJson: Sized {
    /// What the value must be, for the error message (`an unsigned integer`).
    fn expected() -> String;
    /// The value as `Self`, `None` when it has another shape.
    fn from_json(v: &Json) -> Option<Self>;
}

macro_rules! from_json {
    ($($t:ty, $expected:literal, $conv:expr;)*) => {$(
        impl FromJson for $t {
            fn expected() -> String {
                $expected.to_string()
            }
            fn from_json(v: &Json) -> Option<Self> {
                $conv(v)
            }
        }
    )*};
}
from_json! {
    u64, "an unsigned integer", Json::as_u64;
    u32, "an unsigned 32-bit integer", |v: &Json| u32::try_from(v.as_u64()?).ok();
    f64, "a number", Json::as_f64;
    bool, "a bool", Json::as_bool;
    String, "a string", |v: &Json| v.as_str().map(str::to_string);
}

impl<T: FromJson> FromJson for Option<T> {
    fn expected() -> String {
        format!("null or {}", T::expected())
    }
    fn from_json(v: &Json) -> Option<Self> {
        match v {
            Json::Null => Some(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn expected() -> String {
        format!("an array (each item {})", T::expected())
    }
    fn from_json(v: &Json) -> Option<Self> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

/// `s` as a quoted JSON string literal, escaped while it is written —
/// the one string writer behind every artifact serializer.
pub fn escape(s: &str) -> impl fmt::Display + '_ {
    Escaped(s)
}

struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use fmt::Write as _;
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// A parse failure at a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

/// Deepest array/object nesting [`parse`] follows. The artifacts nest at
/// most 5 deep; the cap turns a hostile `[[[[...` into an error before the
/// recursion can exhaust the stack.
const MAX_DEPTH: u32 = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting deeper than 64 levels"));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number `{text}`")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Reports only emit control-character escapes;
                            // surrogate pairs are out of scope.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next delimiter in one piece.
                    // `pos` only ever steps over ASCII bytes or whole runs,
                    // and both delimiters are ASCII, so the slice starts
                    // and ends on char boundaries.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse(r#"{"a":1,"b":[true,null,-2.5,"x\n"],"c":{"d":1e3}}"#).expect("parse");
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        let b = doc.get("b").and_then(Json::as_arr).expect("array");
        assert_eq!(b[0].as_bool(), Some(true));
        assert_eq!(b[1], Json::Null);
        assert_eq!(b[2].as_f64(), Some(-2.5));
        assert_eq!(b[3].as_str(), Some("x\n"));
        assert_eq!(
            doc.get("c").and_then(|c| c.get("d")).and_then(Json::as_f64),
            Some(1000.0)
        );
    }

    #[test]
    fn object_member_order_is_preserved() {
        let doc = parse(r#"{"z":1,"a":2}"#).expect("parse");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        let deep = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(64)).is_ok());
        let err = parse(&deep(65)).expect_err("65 levels");
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.at, 64);
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
        // Depth is nesting, not a count of containers.
        assert!(parse(&format!("[{}]", "[[1]],".repeat(100) + "0")).is_ok());
    }

    #[test]
    fn typed_accessors_name_the_context_the_key_and_the_expectation() {
        let doc =
            parse(r#"{"n":3,"f":-0.5,"s":"x","o":null,"a":[1,2],"m":{"k":1}}"#).expect("parse");
        assert_eq!(doc.field::<u64>("n", "rec"), Ok(3));
        assert_eq!(doc.field::<u32>("n", "rec"), Ok(3));
        assert_eq!(doc.field::<f64>("f", "rec"), Ok(-0.5));
        assert_eq!(doc.field::<String>("s", "rec"), Ok("x".to_string()));
        assert_eq!(doc.field::<Option<u64>>("o", "rec"), Ok(None));
        assert_eq!(doc.field::<Option<u64>>("n", "rec"), Ok(Some(3)));
        assert_eq!(doc.field::<Vec<u64>>("a", "rec"), Ok(vec![1, 2]));
        assert_eq!(doc.arr_field("a", "rec").map(<[Json]>::len), Ok(2));
        assert_eq!(
            doc.obj_field("m", "rec").map(<[(String, Json)]>::len),
            Ok(1)
        );
        let err = |r: Result<u64, String>| r.expect_err("must fail");
        assert_eq!(err(doc.field("zz", "rec")), "rec: missing `zz`");
        assert_eq!(
            err(doc.field("f", "rec")),
            "rec: `f` is not an unsigned integer"
        );
        assert_eq!(
            doc.field::<Vec<f64>>("s", "rec"),
            Err("rec: `s` is not an array (each item a number)".to_string())
        );
        assert_eq!(
            doc.arr_field("m", "rec").expect_err("object"),
            "rec: `m` is not an array"
        );
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        for s in [
            "plain",
            "q\"uote\\slash",
            "line\nbreak\ttab\rcr",
            "\u{1}ctl",
            "π — ü",
        ] {
            let lit = escape(s).to_string();
            assert_eq!(
                parse(&lit).expect("parses"),
                Json::Str(s.to_string()),
                "{lit}"
            );
        }
        assert_eq!(escape("a\"b\n\u{2}").to_string(), r#""a\"b\n\u0002""#);
    }

    #[test]
    fn string_runs_stop_at_escapes_and_quotes() {
        let doc = parse(r#"["", "ab\\cd\"ef", "π\u0041π", "tail\\"]"#).expect("parse");
        let arr = doc.as_arr().expect("array");
        assert_eq!(arr[0].as_str(), Some(""));
        assert_eq!(arr[1].as_str(), Some("ab\\cd\"ef"));
        assert_eq!(arr[2].as_str(), Some("πAπ"));
        assert_eq!(arr[3].as_str(), Some("tail\\"));
        assert!(parse(r#""open"#).is_err());
        assert!(parse("\"bad \\q escape\"").is_err());
        assert!(parse("\"cut \\u00").is_err());
    }

    #[test]
    fn unicode_escapes_and_multibyte_text() {
        let doc = parse(r#"["A", "π"]"#).expect("parse");
        let arr = doc.as_arr().expect("array");
        assert_eq!(arr[0].as_str(), Some("A"));
        assert_eq!(arr[1].as_str(), Some("π"));
    }
}
