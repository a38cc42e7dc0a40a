//! JSON serialization for diagnostics (`papar check --format json`).
//!
//! The build environment has no registry access, so there is no serde here:
//! the writer and the reader are hand-rolled for the one shape we emit — an
//! array of flat objects with string and integer values — and a test in
//! `tests/golden.rs` asserts the round trip.

use crate::diag::{Code, Diagnostic, Severity};
use papar_config::xml::Span;

/// Serialize diagnostics as a JSON array, one object per diagnostic:
///
/// ```json
/// [{"code":"P001","severity":"error","doc":"workflow","line":3,"col":12,
///   "message":"unknown argument '$input_fil'"}]
/// ```
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"code\":{},\"severity\":{},\"doc\":{},\"line\":{},\"col\":{},\"message\":{}}}",
            quote(d.code.as_str()),
            quote(d.severity.as_str()),
            quote(&d.doc),
            d.span.line,
            d.span.col,
            quote(&d.message)
        ));
    }
    out.push(']');
    out
}

/// Parse the output of [`to_json`] back into diagnostics.
pub fn from_json(s: &str) -> Result<Vec<Diagnostic>, String> {
    let mut p = JsonParser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let diags = p.parse_array()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(diags)
}

fn quote(s: &str) -> String {
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

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.pos < self.bytes.len() && self.bytes[self.pos] == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn parse_array(&mut self) -> Result<Vec<Diagnostic>, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            self.skip_ws();
            out.push(self.parse_object()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Diagnostic, String> {
        self.expect(b'{')?;
        let mut code = None;
        let mut severity = None;
        let mut doc = None;
        let mut line = None;
        let mut col = None;
        let mut message = None;
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                break;
            }
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            match key.as_str() {
                "code" => {
                    let s = self.parse_string()?;
                    code = Some(Code::parse(&s).ok_or(format!("unknown code '{s}'"))?);
                }
                "severity" => {
                    let s = self.parse_string()?;
                    severity = Some(Severity::parse(&s).ok_or(format!("unknown severity '{s}'"))?);
                }
                "doc" => doc = Some(self.parse_string()?),
                "message" => message = Some(self.parse_string()?),
                "line" => line = Some(self.parse_number()?),
                "col" => col = Some(self.parse_number()?),
                other => return Err(format!("unknown key '{other}'")),
            }
            self.skip_ws();
            if self.peek() == Some(b',') {
                self.pos += 1;
            }
        }
        Ok(Diagnostic {
            code: code.ok_or("missing 'code'")?,
            severity: severity.ok_or("missing 'severity'")?,
            message: message.ok_or("missing 'message'")?,
            doc: doc.ok_or("missing 'doc'")?,
            span: Span {
                line: line.ok_or("missing 'line'")?,
                col: col.ok_or("missing 'col'")?,
            },
        })
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape")?;
                            let v = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            out.push(char::from_u32(v).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                b => {
                    // Re-sync to char boundary: strings are valid UTF-8, so
                    // collect the full multi-byte sequence.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let width = match b {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        if start + width > self.bytes.len() {
                            return Err("truncated UTF-8 sequence".into());
                        }
                        let s = std::str::from_utf8(&self.bytes[start..start + width])
                            .map_err(|_| "invalid UTF-8 in string")?;
                        out.push_str(s);
                        self.pos = start + width;
                    }
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<usize, String> {
        let start = self.pos;
        while self.peek().map(|b| b.is_ascii_digit()).unwrap_or(false) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|e| format!("bad number: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_special_characters() {
        let d = Diagnostic::error(
            Code::P008,
            "workflow",
            Span::new(1, 1),
            "bad policy '{>=,\t\"x\"}'\\n",
        );
        let parsed = from_json(&to_json(std::slice::from_ref(&d))).unwrap();
        assert_eq!(parsed, vec![d]);
    }

    #[test]
    fn empty_list() {
        assert_eq!(to_json(&[]), "[]");
        assert_eq!(from_json("[]").unwrap(), vec![]);
        assert_eq!(from_json(" [ ] ").unwrap(), vec![]);
    }

    #[test]
    fn rejects_malformed() {
        assert!(from_json("").is_err());
        assert!(from_json("[{}]").is_err());
        assert!(from_json("[] trailing").is_err());
        assert!(from_json("[{\"code\":\"XYZ\"}]").is_err());
    }

    #[test]
    fn non_ascii_round_trips() {
        let d = Diagnostic::warning(Code::W001, "workflow", Span::new(2, 3), "naïve café ✓");
        assert_eq!(
            from_json(&to_json(std::slice::from_ref(&d))).unwrap(),
            vec![d]
        );
    }
}
