//! Minimal recursive-descent JSON parser used by the metrics validator,
//! and [`quote`], the one JSON string writer every exporter in the
//! workspace shares.
//!
//! Hand-rolled because the workspace is offline and dependency-free, and
//! deliberately non-standard in one way: objects are kept as `(key,
//! value)` pairs in source order, preserving duplicates. The validator
//! needs to check exactly the properties a map type would erase — key
//! ordering and uniqueness.

/// A parsed JSON value; object members keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A finite number (`NaN`/`Infinity` literals are parse errors).
    Number(f64),
    /// A string literal, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as `(key, value)` pairs in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// First member with the given key, when this is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    #[must_use]
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members in source order, when this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Description of the failure.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (one value, trailing whitespace only).
///
/// # Errors
/// Returns a [`ParseError`] when the text is not a single well-formed
/// JSON value, or when a number literal is outside `f64`'s finite range.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos < parser.bytes.len() {
        return Err(parser.error("trailing data after document"));
    }
    Ok(value)
}

/// `s` as a JSON string literal, quotes included. `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` by name, other control
/// characters as `\u00XX`; everything else passes through unchanged.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect_byte(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", char::from(byte))))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.error("bad number slice"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| self.error(&format!("invalid number '{text}'")))?;
        if !n.is_finite() {
            return Err(self.error(&format!("number '{text}' is not finite")));
        }
        Ok(Value::Number(n))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(c) if c < 0x20 => return Err(self.error("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar; the input is a &str, so a
                    // char boundary always exists here.
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| b >= 0x80 && (b & 0xc0) == 0x80) {
                        self.pos += 1;
                    }
                    if let Some(chunk) = self
                        .bytes
                        .get(start..self.pos)
                        .and_then(|b| std::str::from_utf8(b).ok())
                    {
                        out.push_str(chunk);
                    }
                }
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let c = self.peek().ok_or_else(|| self.error("truncated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: require a low surrogate next.
                    self.expect_byte(b'\\')?;
                    self.expect_byte(b'u')?;
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                } else {
                    hi
                };
                let ch = char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))?;
                out.push(ch);
            }
            _ => return Err(self.error("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.error("truncated \\u"))?;
            let digit = match c {
                b'0'..=b'9' => u32::from(c - b'0'),
                b'a'..=b'f' => u32::from(c - b'a') + 10,
                b'A'..=b'F' => u32::from(c - b'A') + 10,
                _ => return Err(self.error("non-hex digit in \\u escape")),
            };
            v = (v << 4) | digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_round_trips_through_parse() {
        for s in [
            "",
            "plain",
            "q\"uo\\te",
            "nl\ncr\rtab\t",
            "ctl\u{1}\u{1f}",
            "µs ✓",
        ] {
            assert_eq!(parse(&quote(s)), Ok(Value::String(s.to_owned())), "{s:?}");
        }
        assert_eq!(quote("a\u{1}b"), "\"a\\u0001b\"");
    }
}
