//! Offline stand-in for `serde_json`, providing the API subset this
//! workspace uses: `to_string`, `to_vec`, `from_slice`, `from_str`,
//! `Value`, and the `json!` macro.
//!
//! Values round-trip through the patched `serde` crate's [`Content`]
//! tree. The emitted text matches real serde_json's compact format:
//! struct fields in declaration order, externally-tagged enums, floats
//! always carrying a decimal point, strings with standard JSON escapes.
//!
//! One deliberate divergence: `json!` objects preserve insertion order
//! rather than sorting keys the way serde_json's default `BTreeMap`
//! backend does. Every consumer in this workspace either parses the
//! output or compares it against output of the same binary, so key order
//! only needs to be deterministic, which insertion order is.

use serde::{Content, DeError, Serialize};
use std::fmt::Write as _;

/// Errors from serialization or deserialization.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.to_string())
    }
}

/// `Result` alias matching serde_json.
pub type Result<T> = std::result::Result<T, Error>;

/// A JSON value, thinly wrapping the serde [`Content`] tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Value(pub Content);

impl Value {
    /// JSON `null`.
    #[allow(non_upper_case_globals)]
    pub const Null: Value = Value(Content::Null);

    /// Builds a boolean value.
    pub fn from_bool(b: bool) -> Value {
        Value(Content::Bool(b))
    }

    /// Builds an array value.
    pub fn array(items: Vec<Value>) -> Value {
        Value(Content::Seq(items.into_iter().map(|v| v.0).collect()))
    }

    /// Builds an object value with insertion-ordered keys.
    pub fn object(entries: Vec<(String, Value)>) -> Value {
        Value(Content::Map(
            entries.into_iter().map(|(k, v)| (k, v.0)).collect(),
        ))
    }
}

impl Serialize for Value {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

impl serde::Deserialize for Value {
    fn from_content(content: &Content) -> std::result::Result<Self, DeError> {
        Ok(Value(content.clone()))
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        write_content(&self.0, &mut out);
        f.write_str(&out)
    }
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    Ok(Value(value.to_content()))
}

/// Serializes a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content(&value.to_content(), &mut out);
    Ok(out)
}

/// Serializes a value to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Deserializes a value from JSON text.
pub fn from_str<T: serde::de::DeserializeOwned>(text: &str) -> Result<T> {
    let content = Parser::new(text).parse_document()?;
    T::from_content(&content).map_err(Error::from)
}

/// Deserializes a value from JSON bytes.
pub fn from_slice<T: serde::de::DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let text =
        std::str::from_utf8(bytes).map_err(|e| Error(format!("invalid UTF-8 in JSON: {e}")))?;
    from_str(text)
}

// --------------------------------------------------------------------------
// Writer
// --------------------------------------------------------------------------

fn write_content(content: &Content, out: &mut String) {
    // `fmt::Write` for `String` never fails.
    match content {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Content::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Content::F64(x) => {
            if x.is_finite() {
                let start = out.len();
                let _ = write!(out, "{x}");
                // ryu always keeps a fractional part; Rust's shortest
                // display drops ".0" — restore it for format parity.
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                // serde_json writes non-finite floats as null.
                out.push_str("null");
            }
        }
        Content::Str(s) => write_json_string(s, out),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_content(item, out);
            }
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(k, out);
                out.push(':');
                write_content(v, out);
            }
            out.push('}');
        }
    }
}

/// Writes `s` as a JSON string, copying each run that needs no escape in
/// one piece. Every escaped byte (`"`, `\`, below 0x20) is ASCII, and
/// ASCII never occurs inside a multi-byte UTF-8 sequence, so each run
/// boundary is a char boundary.
fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// --------------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------------

/// Nesting depth at which parsing fails, as in serde_json: 127 nested
/// arrays or objects parse, the 128th is refused. It bounds the parser's
/// recursion, so no input can overflow the stack of the thread decoding
/// it.
const RECURSION_LIMIT: u32 = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    remaining_depth: u32,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            remaining_depth: RECURSION_LIMIT,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
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

    fn eat(&mut self, b: u8, what: &str) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn parse_document(&mut self) -> Result<Content> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    fn parse_value(&mut self) -> Result<Content> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Content::Null),
            Some(b't') => self.parse_keyword("true", Content::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Content::Bool(false)),
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("expected JSON value")),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing to go past
    /// [`RECURSION_LIMIT`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Content>) -> Result<Content> {
        self.remaining_depth -= 1;
        if self.remaining_depth == 0 {
            return Err(self.err("recursion limit exceeded"));
        }
        let value = parse(self);
        self.remaining_depth += 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: Content) -> Result<Content> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid keyword"))
        }
    }

    fn parse_array(&mut self) -> Result<Content> {
        self.eat(b'[', "expected `[`")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Content> {
        self.eat(b'{', "expected `{`")?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':', "expected `:`")?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one piece. Both are
            // ASCII, so the run ends on a char boundary of the already
            // validated text.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.text[self.pos..run]);
            self.pos = run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.parse_escape(&mut out)?,
            }
        }
    }

    /// Decodes the escape at `self.pos` (a `\`) onto `out`.
    fn parse_escape(&mut self, out: &mut String) -> Result<()> {
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
                let mut code = self.hex4(self.pos + 1)?;
                self.pos += 4;
                // A high surrogate directly followed by a `\u` low
                // surrogate is one scalar (how ASCII-only encoders write
                // non-BMP chars). Any other surrogate is lone and becomes
                // U+FFFD; what follows it is decoded on its own.
                if (0xD800..0xDC00).contains(&code)
                    && self.bytes[self.pos + 1..].starts_with(b"\\u")
                {
                    if let Ok(low @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 3) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        self.pos += 6;
                    }
                }
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err(self.err("invalid escape")),
        }
        self.pos += 1;
        Ok(())
    }

    /// Reads the four hex digits of a `\u` escape starting at `at`;
    /// errors point at the escape's `u`.
    fn hex4(&self, at: usize) -> Result<u32> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        std::str::from_utf8(hex)
            .ok()
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn parse_number(&mut self) -> Result<Content> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
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
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Content::I64(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Content::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

// --------------------------------------------------------------------------
// json! macro
// --------------------------------------------------------------------------

/// Builds a [`Value`] from JSON-like syntax, mirroring `serde_json::json!`.
#[macro_export]
macro_rules! json {
    ($($json:tt)+) => {
        $crate::json_internal!($($json)+)
    };
}

/// Implementation detail of [`json!`]; the tt-muncher from serde_json.
#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    // Done with trailing comma.
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    // Done without trailing comma.
    (@array [$($elems:expr),*]) => {
        vec![$($elems),*]
    };
    // Next element is `null`.
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    // Next element is `true`.
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    // Next element is `false`.
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    // Next element is an array.
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    // Next element is a map.
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    // Next element is an expression followed by comma.
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    // Last element is an expression with no trailing comma.
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    // Comma after the most recent element.
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // Done.
    (@object $object:ident () () ()) => {};
    // Insert the current entry followed by trailing comma.
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        $object.push((($($key)+).into(), $value));
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    // Current entry followed by unexpected token (missing comma).
    (@object $object:ident [$($key:tt)+] ($value:expr) $unexpected:tt $($rest:tt)*) => {
        $crate::json_unexpected!($unexpected);
    };
    // Insert the last entry without trailing comma.
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        $object.push((($($key)+).into(), $value));
    };
    // Next value is `null`.
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    // Next value is `true`.
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    // Next value is `false`.
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    // Next value is an array.
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    // Next value is a map.
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    // Next value is an expression followed by comma.
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    // Last value is an expression with no trailing comma.
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    // Missing value for last entry.
    (@object $object:ident ($($key:tt)+) (:) $copy:tt) => {
        $crate::json_internal!();
    };
    // Missing colon and value.
    (@object $object:ident ($($key:tt)+) () $copy:tt) => {
        $crate::json_internal!();
    };
    // Munch a token into the current key.
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) $copy);
    };

    // ---- Entry points ----
    (null) => {
        $crate::Value::Null
    };
    (true) => {
        $crate::Value::from_bool(true)
    };
    (false) => {
        $crate::Value::from_bool(false)
    };
    ([]) => {
        $crate::Value::array(vec![])
    };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => {
        $crate::Value::object(vec![])
    };
    ({ $($tt:tt)+ }) => {
        {
            let mut object: ::std::vec::Vec<(::std::string::String, $crate::Value)> =
                ::std::vec::Vec::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            $crate::Value::object(object)
        }
    };
    // Any Serialize expression.
    ($other:expr) => {
        $crate::to_value(&$other).expect("json!: serialization failed")
    };
}

/// Implementation detail of [`json!`]: reports a missing comma.
#[macro_export]
#[doc(hidden)]
macro_rules! json_unexpected {
    () => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<String> {
        from_str::<String>(text)
    }

    /// `\uXXXX` escapes of the UTF-16 code units `units`.
    fn esc(units: &[u32]) -> String {
        units.iter().fold(String::new(), |mut out, u| {
            let _ = write!(out, "\\u{u:04x}");
            out
        })
    }

    fn parse_err(text: &str) -> String {
        from_str::<Value>(text).unwrap_err().to_string()
    }

    #[test]
    fn every_escape_decodes() {
        assert_eq!(
            parse(&format!(r#""\"\\\/\b\f\n\r\t{}""#, esc(&[0x41, 0xe9]))).unwrap(),
            "\"\\/\u{8}\u{c}\n\r\tAé"
        );
    }

    #[test]
    fn multibyte_utf8_next_to_escapes() {
        // 2-, 3- and 4-byte scalars on both sides of every kind of escape.
        assert_eq!(
            parse(r#""é\n中\"😀\\é中😀\t""#).unwrap(),
            "é\n中\"😀\\é中😀\t"
        );
        assert_eq!(parse(r#""\n""#).unwrap(), "\n");
        assert_eq!(parse(r#""😀""#).unwrap(), "😀");
        assert_eq!(parse(r#""""#).unwrap(), "");
    }

    #[test]
    fn surrogate_pairs_combine_into_one_scalar() {
        let pair = esc(&[0xd83d, 0xde00]);
        assert_eq!(parse(&format!(r#""{pair}""#)).unwrap(), "😀");
        assert_eq!(parse(&format!(r#""a{pair}b""#)).unwrap(), "a😀b");
        assert_eq!(parse(&format!(r#""{pair}{pair}""#)).unwrap(), "😀😀");
        let extremes = esc(&[0xd800, 0xdc00, 0xdbff, 0xdfff]);
        assert_eq!(
            parse(&format!(r#""{extremes}""#)).unwrap(),
            "\u{10000}\u{10ffff}"
        );
        let upper = pair.to_ascii_uppercase().replace("\\U", "\\u");
        assert_eq!(parse(&format!(r#""{upper}""#)).unwrap(), "😀");
    }

    #[test]
    fn lone_surrogates_become_replacement_chars() {
        let (high, low, a) = (esc(&[0xd83d]), esc(&[0xde00]), esc(&[0x41]));
        let cases = [
            (high.clone(), "\u{fffd}"),
            (low.clone(), "\u{fffd}"),
            (format!("{high}x"), "\u{fffd}x"),
            // What follows a lone high surrogate is decoded on its own.
            (format!("{high}{a}"), "\u{fffd}A"),
            (format!("{high}\\n"), "\u{fffd}\n"),
            (format!("{high}{high}{low}"), "\u{fffd}😀"),
            (format!("{low}{high}"), "\u{fffd}\u{fffd}"),
        ];
        for (body, want) in cases {
            assert_eq!(parse(&format!(r#""{body}""#)).unwrap(), want, "{body}");
        }
        assert_eq!(
            parse_err(&format!(r#""{high}\uzzzz""#)),
            "invalid \\u escape at byte 8"
        );
    }

    #[test]
    fn raw_control_characters_are_accepted() {
        assert_eq!(parse("\"a\u{1}\tb\n\u{1f}\"").unwrap(), "a\u{1}\tb\n\u{1f}");
    }

    #[test]
    fn errors_name_the_byte() {
        assert_eq!(parse_err(r#""abc"#), "unterminated string at byte 4");
        assert_eq!(parse_err(r#""ab\"#), "invalid escape at byte 4");
        assert_eq!(parse_err(r#""a\x""#), "invalid escape at byte 3");
        assert_eq!(parse_err(r#""\u12""#), "truncated \\u escape at byte 2");
        assert_eq!(parse_err(r#""\u12g4""#), "invalid \\u escape at byte 2");
        assert_eq!(
            parse_err("1 2"),
            "trailing characters after JSON value at byte 2"
        );
        assert_eq!(
            parse_err(r#"{"a":"b"} x"#),
            "trailing characters after JSON value at byte 10"
        );
    }

    #[test]
    fn recursion_limit_matches_serde_json() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nest(127)).is_ok());
        assert_eq!(
            parse_err(&nest(128)),
            "recursion limit exceeded at byte 127"
        );
        assert_eq!(
            parse_err(&nest(100_000)),
            "recursion limit exceeded at byte 127"
        );
        let objects = format!("{}1{}", r#"{"a":"#.repeat(128), "}".repeat(128));
        assert_eq!(parse_err(&objects), "recursion limit exceeded at byte 635");
        // Depth is nesting, not the number of containers.
        let wide = format!("[{}]", vec![nest(100); 1000].join(","));
        assert!(from_str::<Value>(&wide).is_ok());
    }

    #[test]
    fn writer_goldens() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
        assert_eq!(to_string(&0.25f64).unwrap(), "0.25");
        assert_eq!(
            to_string(&1e300f64).unwrap(),
            format!("1{}.0", "0".repeat(300))
        );
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
        assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
        assert_eq!(
            to_string("a\"b\\c\n\r\t\u{8}\u{c}\u{0}\u{1f}\u{7f}é中😀").unwrap(),
            r#""a\"b\\c\n\r\t\b\f\u0000\u001f"#.to_string() + "\u{7f}é中😀\""
        );
        assert_eq!(to_string("").unwrap(), r#""""#);
    }

    #[test]
    fn numbers_round_trip() {
        for text in [
            "0",
            "-1",
            "18446744073709551615",
            "-9223372036854775808",
            "0.5",
            "1e3",
        ] {
            let value: Value = from_str(text).unwrap();
            assert_eq!(from_str::<Value>(&value.to_string()).unwrap(), value);
        }
    }

    #[test]
    fn a_mebibyte_document_round_trips_in_linear_time() {
        let pieces = [
            "plain ascii text ",
            "é中😀",
            "\"quoted\"",
            "back\\slash",
            "\n\t\u{1}",
        ];
        let mut strings = Vec::new();
        let mut bytes = 0;
        while bytes < 1 << 20 {
            let s: String = pieces
                .iter()
                .cycle()
                .skip(strings.len())
                .take(24)
                .copied()
                .collect();
            bytes += s.len();
            strings.push(Value(Content::Str(s)));
        }
        let doc = Value::array(strings);
        let started = std::time::Instant::now();
        let text = doc.to_string();
        let back: Value = from_str(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(back, doc);
        assert!(text.len() > 1 << 20);
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "1 MiB round trip took {elapsed:?}"
        );
    }
}
