//! JSON for the serving layer: the workspace's one writer
//! ([`osql_trace::json`], re-exported here) and the request reader.
//!
//! The reader accepts exactly the request shape the API documents (one
//! object, string or null values) and rejects everything else with a
//! message suitable for a 400 body.

pub use osql_trace::json::{array, string_array, write_escaped, ObjectWriter};

/// Render the standard `{"error": ...}` body.
pub fn error_body(message: &str) -> String {
    let mut obj = ObjectWriter::new();
    obj.str_field("error", message);
    obj.finish()
}

// ---- reader ------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// The four hex digits of a `\u` escape — exactly four, ASCII only.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(digits.iter().fold(0, |acc, d| acc * 16 + (*d as char).to_digit(16).unwrap_or(0)))
    }

    /// After a high surrogate: the low surrogate escaped next, consumed;
    /// `None`, with nothing consumed, when anything else follows.
    fn low_surrogate(&mut self) -> Option<u32> {
        let start = self.pos;
        if self.bytes[start..].starts_with(b"\\u") {
            self.pos += 2;
            if let Ok(low @ 0xDC00..=0xDFFF) = self.hex4() {
                return Some(low);
            }
        }
        self.pos = start;
        None
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let unit = self.hex4()?;
                            // a UTF-16 surrogate pair is one char; a lone
                            // surrogate is U+FFFD
                            let c = match unit {
                                0xD800..=0xDBFF => self.low_surrogate().and_then(|low| {
                                    let high = (unit - 0xD800) << 10;
                                    char::from_u32(0x10000 + high + (low - 0xDC00))
                                }),
                                _ => char::from_u32(unit),
                            };
                            out.push(c.unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // multi-byte UTF-8: re-decode from the byte before pos
                    let start = self.pos - 1;
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let c = rest.chars().next().expect("non-empty utf-8");
                    self.pos = start + c.len_utf8();
                    out.push(c);
                }
            }
        }
    }
}

/// Parse one flat JSON object whose values are strings (or `null`,
/// which is skipped). Returns `(key, value)` pairs in document order.
pub fn parse_string_object(body: &[u8]) -> Result<Vec<(String, String)>, String> {
    let mut r = Reader { bytes: body, pos: 0 };
    r.skip_ws();
    r.expect(b'{').map_err(|_| "request body must be a JSON object".to_string())?;
    let mut fields = Vec::new();
    r.skip_ws();
    if r.peek() == Some(b'}') {
        r.pos += 1;
    } else {
        loop {
            r.skip_ws();
            let key = r.string()?;
            r.skip_ws();
            r.expect(b':')?;
            r.skip_ws();
            if r.literal("null") {
                // absent value
            } else if r.peek() == Some(b'"') {
                let value = r.string()?;
                fields.push((key, value));
            } else {
                return Err(format!("field \"{key}\" must be a string"));
            }
            r.skip_ws();
            match r.peek() {
                Some(b',') => r.pos += 1,
                Some(b'}') => {
                    r.pos += 1;
                    break;
                }
                _ => return Err("expected ',' or '}' in object".into()),
            }
        }
    }
    r.skip_ws();
    if r.pos != body.len() {
        return Err("trailing bytes after JSON object".into());
    }
    Ok(fields)
}

/// Look up a field parsed by [`parse_string_object`].
pub fn field<'a>(fields: &'a [(String, String)], key: &str) -> Option<&'a str> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_round_trips_strings() {
        let body = r#" {"db_id":"x","question":"total \"sales\" é?","evidence":null} "#;
        let fields = parse_string_object(body.as_bytes()).unwrap();
        assert_eq!(field(&fields, "db_id"), Some("x"));
        assert_eq!(field(&fields, "question"), Some("total \"sales\" é?"));
        assert_eq!(field(&fields, "evidence"), None);
    }

    #[test]
    fn reader_rejects_malformed_bodies() {
        assert!(parse_string_object(b"[1,2]").is_err());
        assert!(parse_string_object(b"{\"a\":1}").is_err());
        assert!(parse_string_object(b"{\"a\":\"b\"} extra").is_err());
        assert!(parse_string_object(b"{\"a\":\"b\"").is_err());
        assert!(parse_string_object(b"{}").unwrap().is_empty());
    }

    #[test]
    fn an_escaped_surrogate_pair_reads_as_the_raw_utf8() {
        // what Python's `json.dumps` sends for a non-BMP character
        let escaped = parse_string_object(br#"{"q":"sales \ud83d\ude00 up"}"#).unwrap();
        let raw = parse_string_object("{\"q\":\"sales 😀 up\"}".as_bytes()).unwrap();
        assert_eq!(escaped, raw);
        let upper = parse_string_object(br#"{"q":"sales \uD83D\uDE00 up"}"#).unwrap();
        assert_eq!(upper, raw);
    }

    #[test]
    fn a_lone_surrogate_reads_as_the_replacement_character() {
        for (body, want) in [
            (r#"{"q":"a\ud83db"}"#, "a\u{fffd}b"),
            (r#"{"q":"a\ude00b"}"#, "a\u{fffd}b"),
            (r#"{"q":"a\ud83d"}"#, "a\u{fffd}"),
            (r#"{"q":"\ud83d\u0041"}"#, "\u{fffd}A"),
            (r#"{"q":"\ud83d\ud83d\ude00"}"#, "\u{fffd}😀"),
        ] {
            let fields = parse_string_object(body.as_bytes()).unwrap();
            assert_eq!(field(&fields, "q"), Some(want), "{body}");
        }
    }

    #[test]
    fn a_unicode_escape_is_exactly_four_hex_digits() {
        let short = r#"{"q":"\u04"}"#;
        for body in [r#"{"q":"\u+041"}"#, r#"{"q":"\u-041"}"#, short, r#"{"q":"\u00é9"}"#] {
            assert!(parse_string_object(body.as_bytes()).is_err(), "{body}");
        }
        assert!(parse_string_object(br#"{"q":"\ud83d\u+041"}"#).is_err());
        let fields = parse_string_object(br#"{"q":"\u00e9\u00C9"}"#).unwrap();
        assert_eq!(field(&fields, "q"), Some("éÉ"));
    }

    #[test]
    fn reader_handles_multibyte_utf8() {
        let fields = parse_string_object("{\"q\":\"café ≠ 咖啡\"}".as_bytes()).unwrap();
        assert_eq!(field(&fields, "q"), Some("café ≠ 咖啡"));
    }
}
