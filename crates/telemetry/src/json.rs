//! A minimal JSON value type, serializer, and parser.
//!
//! The hermetic workspace vendors a no-op `serde`, so the journal cannot
//! lean on `serde_json`; this module is the homegrown replacement. It
//! supports exactly the JSON the [`crate::Journal`] emits — objects,
//! arrays, strings, finite numbers, booleans, null — and parses any
//! RFC 8259 document (including `\uXXXX` escapes and UTF-16 surrogate
//! pairs) so journals round-trip through [`Json::parse`] bit-faithfully.
//!
//! Hardening choices, since the parser also consumes artifacts that may
//! not have been written by this crate:
//!
//! * Nesting deeper than [`MAX_DEPTH`] is rejected with a parse error
//!   instead of overflowing the stack on adversarial input like
//!   `[[[[…`.
//! * Duplicate object keys are retained in document order by the value
//!   type (so serialization is bit-faithful), but lookup via
//!   [`Json::get`] is **last-wins** — the same rule as `serde_json` and
//!   most RFC 8259 consumers.

use std::fmt;

/// Maximum array/object nesting depth the parser accepts. Journal events
/// nest two or three levels; 128 is far beyond anything legitimate while
/// keeping adversarial `[[[[…` inputs from overflowing the call stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; integers up to 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (order is preserved so serialized
    /// journals are deterministic). Duplicate keys are kept as parsed;
    /// [`Json::get`] resolves them last-wins.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (`None` for other variants). When the
    /// object carries duplicate keys the **last** occurrence wins, per
    /// the de-facto RFC 8259 consumer convention.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an integer, if it is one and integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 9.007_199_254_740_992e15 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

/// Writes a number the way the journal does: integral finite values print
/// without a fraction (round-trip exact up to 2^53), other finite values
/// use Rust's shortest round-trip formatting, and non-finite values become
/// `null` (JSON has no NaN/Inf).
fn write_num(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        return f.write_str("null");
    }
    if n.fract() == 0.0 && n.abs() <= 9.007_199_254_740_992e15 {
        write!(f, "{}", n as i64)
    } else {
        write!(f, "{n}")
    }
}

/// Renders a number as [`Json::Num`] does, for writers that stream a
/// document without building its tree.
pub(crate) struct JsonNum(pub(crate) f64);

impl fmt::Display for JsonNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_num(f, self.0)
    }
}

/// Renders a string as [`Json::Str`] does (quoted and escaped), for
/// writers that stream a document without building its tree.
pub(crate) struct JsonStr<'a>(pub(crate) &'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_str(f, self.0)
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_num(f, *n),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (k, (key, value)) in fields.iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current array/object nesting depth (guarded by [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Bumps the nesting depth (failing past [`MAX_DEPTH`]); callers
    /// decrement on the way out.
    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.descend()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
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
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                        b'u' => {
                            let unit = self.hex_unit()?;
                            match unit {
                                // High surrogate: a low surrogate escape
                                // must follow; the pair combines into one
                                // supplementary-plane scalar (RFC 8259
                                // §7 / UTF-16 decoding).
                                0xD800..=0xDBFF => {
                                    if self.peek() != Some(b'\\') {
                                        return Err(self.err("high surrogate not followed by \\u"));
                                    }
                                    self.pos += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(self.err("high surrogate not followed by \\u"));
                                    }
                                    self.pos += 1;
                                    let low = self.hex_unit()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(
                                            self.err("high surrogate followed by a non-low unit")
                                        );
                                    }
                                    let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    out.push(
                                        char::from_u32(code).expect(
                                            "combined surrogate pair is a valid scalar value",
                                        ),
                                    );
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(self.err("lone low surrogate"));
                                }
                                _ => out.push(
                                    char::from_u32(unit).expect("BMP non-surrogate is a scalar"),
                                ),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Parses the four hex digits of a `\uXXXX` escape (the `\u` itself
    /// already consumed) into a UTF-16 code unit.
    fn hex_unit(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let unit = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-3", "0.25", "1e-9", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            let again = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, again, "{text}");
        }
    }

    #[test]
    fn object_preserves_field_order() {
        let v = Json::parse(r#"{"b":1,"a":[2,3],"c":{"d":null}}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"b":1,"a":[2,3],"c":{"d":null}}"#);
        assert_eq!(v.get("b").and_then(Json::as_i64), Some(1));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{1}f√";
        let text = Json::Str(s.to_string()).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
        assert_eq!(Json::parse(r#""A\n""#).unwrap().as_str(), Some("A\n"));
    }

    #[test]
    fn numbers_print_integers_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(-0.5).to_string(), "-0.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn float_shortest_form_round_trips_bits() {
        for n in [0.1, 2.0 / 3.0, 1e-300, 123456.789, f64::MIN_POSITIVE] {
            let text = Json::Num(n).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(n.to_bits(), back.to_bits(), "{text}");
        }
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("1 2").is_err(), "trailing garbage rejected");
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
        assert_eq!(
            Json::parse("\"\\uD834\\uDD1E\"").unwrap().as_str(),
            Some("\u{1D11E}"),
            "musical G clef (upper-case hex), the RFC 8259 example"
        );
        // A decoded pair re-serializes as the literal character and
        // round-trips.
        let v = Json::parse("\"x\\ud83d\\ude00y\"").unwrap();
        assert_eq!(v.as_str(), Some("x\u{1F600}y"));
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        for bad in [
            r#""\ud83d""#,       // lone high at end of string
            r#""\ud83dxx""#,     // high followed by plain chars
            r#""\ud83d\n""#,     // high followed by a non-\u escape
            r#""\ud83d\ud83d""#, // high followed by another high
            r#""\ude00""#,       // lone low
            r#""\ud83dA""#,      // high followed by a BMP unit
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn nesting_past_max_depth_is_rejected_not_overflowed() {
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok(), "exactly MAX_DEPTH levels parse");
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = Json::parse(&too_deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Unclosed deep nesting must also fail via the guard, not the
        // stack: this is the actual adversarial shape (no closers).
        let adversarial = "[".repeat(100_000);
        assert!(Json::parse(&adversarial).is_err());
        let mixed = "{\"a\":[".repeat(MAX_DEPTH);
        assert!(Json::parse(&mixed).is_err(), "objects count toward depth");
    }

    #[test]
    fn duplicate_keys_parse_and_resolve_last_wins() {
        let v = Json::parse(r#"{"a":1,"b":2,"a":3}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_i64), Some(3), "last wins");
        assert_eq!(v.get("b").and_then(Json::as_i64), Some(2));
        // Serialization keeps the document order bit-faithfully.
        assert_eq!(v.to_string(), r#"{"a":1,"b":2,"a":3}"#);
    }
}
