//! A hand-rolled JSON document model, writer, and strict parser.
//!
//! No serde: the workspace builds offline with zero external
//! dependencies. The writer is escaping-correct (quotes, backslashes,
//! all control characters via `\u00XX` or the short forms) and maps
//! non-finite floats to `null`, since JSON has no NaN/Infinity. Object
//! keys keep insertion order so reports are stable and diffable.

use std::fmt::{self, Write as _};

/// A JSON value. Integers are kept exact in a dedicated variant
/// instead of being forced through `f64` (counters can exceed 2^53).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer written without a decimal point.
    Int(i64),
    /// A finite float; non-finite values serialise as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be populated with [`Json::push`].
    #[must_use]
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// An object from `(key, value)` pairs, preserving order.
    pub fn object_from<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Appends a `(key, value)` pair to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not `Json::Object`.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        match self {
            Json::Object(pairs) => pairs.push((key.into(), value.into())),
            other => panic!("Json::push on non-object {other:?}"),
        }
    }

    /// An array from values.
    pub fn array(values: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(values.into_iter().collect())
    }

    /// The value under `key` if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves the value under `key` out of an object, leaving `null` in
    /// its place: the owning twin of [`Json::get`], for decoders that
    /// keep the strings of a parsed document instead of copying them.
    /// Like `get`, it finds the first pair with that key.
    pub fn take(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Object(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Json::Null)),
            _ => None,
        }
    }

    /// The integer value, if this is `Json::Int`.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `f64`, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is `Json::Str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is `Json::Array`.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises compactly (no whitespace), into a buffer sized
    /// exactly by [`Json::compact_len`].
    #[must_use]
    pub fn to_compact_string(&self) -> String {
        let mut out = String::with_capacity(self.compact_len());
        self.write_compact(&mut out);
        out
    }

    /// The compact form followed by `\n` — one JSON Lines record — in
    /// a buffer sized exactly, so a caller can hand it to `write_all`
    /// without the reallocation a pushed newline would cost.
    #[must_use]
    pub fn to_compact_line(&self) -> String {
        let mut out = String::with_capacity(self.compact_len() + 1);
        self.write_compact(&mut out);
        out.push('\n');
        out
    }

    /// The exact byte length of [`Json::to_compact_string`], computed
    /// without writing it: strings from their lengths plus their escape
    /// widths, numbers by formatting into a counter.
    #[must_use]
    pub fn compact_len(&self) -> usize {
        match self {
            Json::Null => 4,
            Json::Bool(true) => 4,
            Json::Bool(false) => 5,
            Json::Int(n) => {
                let mut counter = ByteCounter(0);
                let _ = write!(counter, "{n}");
                counter.0
            }
            Json::Float(x) => {
                let mut counter = ByteCounter(0);
                write_f64(*x, &mut counter);
                counter.0
            }
            Json::Str(s) => escaped_len(s),
            // brackets plus one comma between each pair of items
            Json::Array(items) => {
                1 + items.len().max(1) + items.iter().map(Json::compact_len).sum::<usize>()
            }
            // as arrays, plus a colon per pair
            Json::Object(pairs) => {
                1 + pairs.len().max(1)
                    + pairs
                        .iter()
                        .map(|(k, v)| escaped_len(k) + 1 + v.compact_len())
                        .sum::<usize>()
            }
        }
    }

    /// Serialises with 2-space indentation and a trailing newline,
    /// suitable for writing to a report file.
    #[must_use]
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Appends the compact form to `out`.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => write_f64(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, depth| {
                    items[i].write(out, indent, depth);
                });
            }
            Json::Object(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, depth| {
                    write_escaped(&pairs[i].0, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, depth);
                });
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact_string())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        // counters past i64::MAX lose exactness; JSON itself has no
        // integer width limit, but the model stores i64
        i64::try_from(n).map(Json::Int).unwrap_or(Json::Float(n as f64))
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(i64::from(n))
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(String::from(s))
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// A `fmt::Write` sink that only counts the bytes written to it.
struct ByteCounter(usize);

impl fmt::Write for ByteCounter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

fn write_f64(x: f64, out: &mut impl fmt::Write) {
    if x.is_finite() {
        if x == x.trunc() && x.abs() < 1e15 {
            // keep a marker that this is a float, not an int
            let _ = write!(out, "{x:.1}");
        } else {
            let _ = write!(out, "{x}");
        }
    } else {
        // JSON has no NaN / Infinity
        let _ = out.write_str("null");
    }
}

/// How each byte is written inside a JSON string: empty for bytes
/// copied verbatim, otherwise its escape. The escaped bytes — `"`, `\\`
/// and the controls below 0x20 — are all ASCII, so every run between
/// two of them is whole UTF-8, and both the writer and the parser move
/// runs as `&str` slices.
const ESCAPED: [&str; 256] = {
    const CONTROL: [&str; 32] = [
        "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
        "\\b", "\\t", "\\n", "\\u000b", "\\f", "\\r", "\\u000e", "\\u000f",
        "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
        "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
    ];
    let mut table = [""; 256];
    let mut b = 0;
    while b < CONTROL.len() {
        table[b] = CONTROL[b];
        b += 1;
    }
    table[b'"' as usize] = "\\\"";
    table[b'\\' as usize] = "\\\\";
    table
};

/// The index of the first byte at or after `from` that a JSON string
/// escapes, or `bytes.len()`. Eight bytes are tested at a time: the
/// has-zero-byte and has-less-than word tricks flag each byte that is
/// below 0x20, `"` or `\\`. A borrow can only flag bytes *above* a real
/// match, so the lowest flag is always exact.
fn find_escape(bytes: &[u8], from: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let from = from.min(bytes.len());
    let mut words = bytes[from..].chunks_exact(8);
    let mut at = from;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let quote = x ^ (ONES * u64::from(b'"'));
        let backslash = x ^ (ONES * u64::from(b'\\'));
        let hits = ((x.wrapping_sub(ONES * 0x20) & !x)
            | (quote.wrapping_sub(ONES) & !quote)
            | (backslash.wrapping_sub(ONES) & !backslash))
            & HIGH;
        if hits != 0 {
            return at + (hits.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| !ESCAPED[usize::from(b)].is_empty())
        .map_or(bytes.len(), |i| at + i)
}

/// The written length of `s` as a JSON string, quotes included: what
/// [`write_escaped`] appends.
#[must_use]
pub fn escaped_len(s: &str) -> usize {
    let bytes = s.as_bytes();
    let mut len = s.len() + 2;
    let mut at = find_escape(bytes, 0);
    while let Some(&b) = bytes.get(at) {
        len += ESCAPED[usize::from(b)].len() - 1;
        at = find_escape(bytes, at + 1);
    }
    len
}

/// Appends `s` as a quoted, escaped JSON string — the bytes a
/// `Json::Str(s)` is written as, for callers that write a document
/// straight from borrowed text.
pub fn write_escaped(s: &str, out: &mut String) {
    let bytes = s.as_bytes();
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    loop {
        let stop = find_escape(bytes, run);
        out.push_str(&s[run..stop]);
        let Some(&b) = bytes.get(stop) else { break };
        out.push_str(ESCAPED[usize::from(b)]);
        run = stop + 1;
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..(depth + 1) * width {
                out.push(' ');
            }
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
    out.push(close);
}

/// A parse failure with the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (rejecting trailing garbage).
///
/// Strictness matches RFC 8259: no comments, no trailing commas, no
/// unquoted keys. `\uXXXX` escapes are decoded, including surrogate
/// pairs.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Decodes a string a run at a time: each run up to the next `"`,
    /// `\\` or control byte is appended as one slice. The buffer is
    /// allocated once, at the string's encoded length: that exceeds the
    /// decoded length only by what its escapes save (about 2% on proof
    /// text), and shrinking it afterwards was measured to raise the
    /// daemon's peak resident memory, as the heap splits its chunks.
    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::with_capacity(self.encoded_len());
        loop {
            let run = self.pos;
            self.pos = find_escape(self.bytes, run);
            // every stop byte is ASCII, so the run is whole UTF-8
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Bytes from the cursor to the closing quote of the string being
    /// read (or to the end of input): a bound on its decoded length,
    /// since no escape decodes longer than it is written.
    fn encoded_len(&self) -> usize {
        let mut end = find_escape(self.bytes, self.pos);
        while let Some(&b) = self.bytes.get(end) {
            match b {
                b'"' => break,
                // skip the escaped byte, which may be a quote
                b'\\' => end = find_escape(self.bytes, end + 2),
                _ => end = find_escape(self.bytes, end + 1),
            }
        }
        end.min(self.bytes.len()) - self.pos
    }

    fn escape(&mut self) -> Result<char, ParseError> {
        let b = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // high surrogate: require a following \uXXXX low half
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let code =
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code)
                            .ok_or_else(|| self.err("invalid surrogate pair"))?
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("lone low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            other => return Err(self.err(format!("invalid escape `\\{}`", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // integer part: 0 | [1-9][0-9]*
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("malformed number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII");
        if is_float {
            text.parse().map(Json::Float).map_err(|e| self.err(e.to_string()))
        } else {
            // fall back to float on i64 overflow (JSON allows bignums)
            match text.parse::<i64>() {
                Ok(n) => Ok(Json::Int(n)),
                Err(_) => text.parse().map(Json::Float).map_err(|e| self.err(e.to_string())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_specials() {
        let j = Json::from("a\"b\\c\nd\te\r\u{08}\u{0C}\u{01}\u{1F}");
        assert_eq!(
            j.to_compact_string(),
            r#""a\"b\\c\nd\te\r\b\f\u0001\u001f""#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_compact_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_compact_string(), "null");
        assert_eq!(Json::Float(f64::NEG_INFINITY).to_compact_string(), "null");
        assert_eq!(Json::Float(1.5).to_compact_string(), "1.5");
        assert_eq!(Json::Float(2.0).to_compact_string(), "2.0");
    }

    #[test]
    fn ints_stay_exact() {
        assert_eq!(Json::Int(i64::MAX).to_compact_string(), "9223372036854775807");
        assert_eq!(Json::Int(i64::MIN).to_compact_string(), "-9223372036854775808");
        assert_eq!(Json::from(42u64).to_compact_string(), "42");
    }

    #[test]
    fn object_order_is_preserved() {
        let j = Json::object_from([("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(j.to_compact_string(), r#"{"z":1,"a":2}"#);
        assert_eq!(j.get("a"), Some(&Json::Int(2)));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn pretty_output_is_indented_and_reparses() {
        let j = Json::object_from([
            ("list", Json::array([Json::Int(1), Json::Null])),
            ("empty", Json::Array(vec![])),
            ("nested", Json::object_from([("k", Json::Bool(true))])),
        ]);
        let pretty = j.to_pretty_string();
        assert!(pretty.contains("\n  \"list\": [\n    1,\n    null\n  ],"));
        assert!(pretty.contains("\"empty\": []"));
        assert_eq!(parse(&pretty).expect("reparse"), j);
    }

    #[test]
    fn parser_roundtrips_unicode_and_escapes() {
        let original = Json::from("päivä \u{1F600} \"q\" \\ \u{0}");
        let parsed = parse(&original.to_compact_string()).expect("parse");
        assert_eq!(parsed, original);
        // surrogate-pair escape decodes to the astral char
        assert_eq!(
            parse(r#""\ud83d\ude00""#).expect("parse"),
            Json::from("\u{1F600}")
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "{'a':1}", "[1 2]", "01", "1.", "1e",
            "\"\\x\"", "\"\\ud800\"", "tru", "nullx", "[1]]",
            "\"raw\u{01}control\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn find_escape_stops_at_every_special_byte_at_every_alignment() {
        // neighbours of the special bytes, and bytes whose high bit
        // would confuse a careless word trick
        let clean = [0x20u8, 0x21, 0x23, 0x5b, 0x5d, 0x7f, 0x80, 0xa2, 0xdc, 0xff];
        let special: Vec<u8> = (0u8..0x20).chain([b'"', b'\\']).collect();
        for len in 0..24 {
            for (k, &fill) in clean.iter().enumerate() {
                let mut bytes: Vec<u8> = (0..len).map(|i| clean[(i + k) % clean.len()]).collect();
                assert_eq!(find_escape(&bytes, 0), len, "clean fill {fill:#x}");
                for at in 0..len {
                    for &b in &special {
                        let saved = bytes[at];
                        bytes[at] = b;
                        for from in 0..=at {
                            assert_eq!(find_escape(&bytes, from), at, "{b:#x} at {at} of {len}");
                        }
                        assert_eq!(find_escape(&bytes, at + 1), len);
                        bytes[at] = saved;
                    }
                }
            }
        }
        assert_eq!(find_escape(b"ab", 5), 2, "a start past the end is the end");
    }

    #[test]
    fn compact_len_is_the_exact_written_length() {
        let doc = Json::object_from([
            ("s", Json::from("a\"b\\c\n\u{1}\u{1f}\u{e4}\u{1f600}")),
            ("ints", Json::array([Json::Int(0), Json::Int(-7), Json::Int(i64::MIN)])),
            ("floats", Json::array([Json::Float(2.0), Json::Float(-0.5), Json::Float(1e300)])),
            ("nan", Json::Float(f64::NAN)),
            ("flags", Json::array([Json::Bool(true), Json::Bool(false), Json::Null])),
            ("empty", Json::object_from([("a", Json::Array(vec![])), ("b", Json::object())])),
        ]);
        for value in [doc.clone(), Json::Array(vec![]), Json::object(), Json::from("")] {
            let written = value.to_compact_string();
            assert_eq!(value.compact_len(), written.len(), "{written}");
            assert_eq!(written.capacity(), written.len(), "sized exactly");
            let line = value.to_compact_line();
            assert_eq!(line, format!("{written}\n"));
            assert_eq!(line.capacity(), line.len(), "sized exactly");
        }
    }

    #[test]
    fn parsed_strings_are_allocated_once_at_their_encoded_length() {
        let doc = r#"["plain","esc\n\"aped\u00e4","\ud83d\ude00"]"#;
        let Json::Array(items) = parse(doc).expect("parse") else {
            panic!("array expected");
        };
        let encoded = [5, 17, 12];
        for (item, encoded) in items.into_iter().zip(encoded) {
            let Json::Str(s) = item else { panic!("string expected") };
            assert_eq!(s.capacity(), encoded, "{s:?}");
        }
    }

    #[test]
    fn parser_accepts_numbers() {
        assert_eq!(parse("-0").expect("p"), Json::Int(0));
        assert_eq!(parse("123").expect("p"), Json::Int(123));
        assert_eq!(parse("-4.5e2").expect("p"), Json::Float(-450.0));
        assert_eq!(parse("1E+3").expect("p"), Json::Float(1000.0));
        // i64 overflow falls back to float
        assert_eq!(
            parse("99999999999999999999").expect("p"),
            Json::Float(1e20)
        );
    }
}
