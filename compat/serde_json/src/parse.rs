//! Strict recursive-descent JSON parser producing a `Content` tree, whole
//! or — through [`Reader`] — one object member at a time.

use crate::Error;
use serde::Content;

pub(crate) fn parse(input: &str) -> Result<Content, Error> {
    let mut p = Reader::new(input);
    let value = p.value()?;
    p.end()?;
    Ok(value)
}

/// A cursor over JSON text for documents too large to hold as one tree:
/// [`Self::object`] walks an object member by member, and the caller
/// decides per member whether to descend further or take the member's
/// [`Self::value`] as a tree, build from it and drop it.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(input: &'a str) -> Reader<'a> {
        let mut reader = Reader {
            bytes: input.as_bytes(),
            pos: 0,
        };
        reader.skip_ws();
        reader
    }

    /// Succeeds if only whitespace is left.
    pub fn end(mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Content) -> Result<Content, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// Parse the value at the cursor into a tree.
    pub fn value(&mut self) -> Result<Content, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Content::Null),
            Some(b't') => self.literal("true", Content::Bool(true)),
            Some(b'f') => self.literal("false", Content::Bool(false)),
            Some(b'"') => self.string().map(Content::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.map(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Content, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Content::Seq(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Parse the object at the cursor member by member: `member` is called
    /// with each key, cursor on that member's value, and must consume it
    /// (with [`Self::value`] or a nested [`Self::object`]).
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, String) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn map(&mut self) -> Result<Content, Error> {
        let mut entries = Vec::new();
        self.object(|reader, key| {
            entries.push((key, reader.value()?));
            Ok(())
        })?;
        Ok(Content::Map(entries))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // fast path: run of plain bytes
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, Error> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // high surrogate: must be followed by \uDC00..=\uDFFF
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.err("unpaired surrogate in \\u escape"));
            }
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.err("invalid low surrogate in \\u escape"));
            }
            let c = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
            char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))
        } else if (0xDC00..0xE000).contains(&first) {
            Err(self.err("unpaired low surrogate in \\u escape"))
        } else {
            char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
        }
    }

    fn number(&mut self) -> Result<Content, Error> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(self.err("invalid number"));
        }
        // leading zeros are invalid JSON (except a lone 0)
        if self.pos - int_start > 1 && self.bytes[int_start] == b'0' {
            return Err(self.err("number with leading zero"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("number with empty fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("number with empty exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            let v: f64 = text.parse().map_err(|_| self.err("unparseable float"))?;
            Ok(Content::F64(v))
        } else if negative {
            match text.parse::<i64>() {
                Ok(v) => Ok(Content::I64(v)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Content::F64)
                    .map_err(|_| self.err("unparseable integer")),
            }
        } else {
            match text.parse::<u64>() {
                Ok(v) => Ok(Content::U64(v)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Content::F64)
                    .map_err(|_| self.err("unparseable integer")),
            }
        }
    }
}
