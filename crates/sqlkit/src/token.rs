//! SQL tokenizer.
//!
//! Accepts the identifier quoting styles seen in BIRD gold SQL:
//! `` `backticks` ``, `"double quotes"`, `[brackets]`, plus single-quoted
//! string literals with `''` escaping.
//!
//! Tokens borrow their text from the SQL: a name or a string is copied
//! only where a doubled quote inside it has to be resolved, and otherwise
//! once, by the parser, into the tree.

use crate::error::{SqlError, SqlResult};
use std::borrow::Cow;

/// A lexical token with its byte position in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// Kind and payload.
    pub kind: TokenKind<'a>,
    /// Byte offset of the first character.
    pub pos: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// Bare or quoted identifier (quotes stripped, doubled quotes
    /// resolved). The bool records whether it was quoted (quoted
    /// identifiers are never keywords).
    Ident(Cow<'a, str>, bool),
    /// Single-quoted string literal (escapes resolved).
    Str(Cow<'a, str>),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Real(f64),
    /// Punctuation / operator.
    Punct(Punct),
    /// End of input.
    Eof,
}

/// Punctuation and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Punct {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semi,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=` or `==`
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `||`
    Concat,
}

/// Tokenize a SQL string.
pub fn tokenize(sql: &str) -> SqlResult<Vec<Token<'_>>> {
    let bytes = sql.as_bytes();
    let mut out = Vec::with_capacity(sql.len() / 4 + 4);
    let mut i = 0usize;
    // `i` is always on a character boundary: every arm below consumes
    // whole characters, and at least one.
    while let Some(c) = sql[i..].chars().next() {
        match c {
            c if c.is_ascii_whitespace() => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(SqlError::Lex {
                            pos: start,
                            msg: "unterminated block comment".into(),
                        });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            '\'' => {
                let (s, next) = read_quoted(sql, i)?;
                out.push(Token { kind: TokenKind::Str(s), pos: i });
                i = next;
            }
            '`' | '"' => {
                let (s, next) = read_quoted(sql, i)?;
                out.push(Token { kind: TokenKind::Ident(s, true), pos: i });
                i = next;
            }
            '[' => {
                let end = sql[i + 1..]
                    .find(']')
                    .map(|k| i + 1 + k)
                    .ok_or_else(|| SqlError::Lex { pos: i, msg: "unterminated [identifier]".into() })?;
                out.push(Token { kind: TokenKind::Ident(Cow::Borrowed(&sql[i + 1..end]), true), pos: i });
                i = end + 1;
            }
            '0'..='9' => {
                let (tok, next) = read_number(sql, i)?;
                out.push(Token { kind: tok, pos: i });
                i = next;
            }
            '.' if bytes
                .get(i + 1)
                .map(|b| b.is_ascii_digit())
                .unwrap_or(false) =>
            {
                let (tok, next) = read_number(sql, i)?;
                out.push(Token { kind: tok, pos: i });
                i = next;
            }
            c if c.is_alphabetic() || c == '_' => {
                let rest = &sql[i..];
                let len = rest
                    .find(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
                    .unwrap_or(rest.len());
                out.push(Token { kind: TokenKind::Ident(Cow::Borrowed(&rest[..len]), false), pos: i });
                i += len;
            }
            _ => {
                let (p, len) = read_punct(bytes, i)
                    .ok_or_else(|| SqlError::Lex { pos: i, msg: format!("unexpected character {c:?}") })?;
                out.push(Token { kind: TokenKind::Punct(p), pos: i });
                i += len;
            }
        }
    }
    out.push(Token { kind: TokenKind::Eof, pos: sql.len() });
    Ok(out)
}

fn read_punct(bytes: &[u8], i: usize) -> Option<(Punct, usize)> {
    let two = |a: u8, b: u8| bytes.get(i) == Some(&a) && bytes.get(i + 1) == Some(&b);
    if two(b'<', b'>') {
        return Some((Punct::Ne, 2));
    }
    if two(b'!', b'=') {
        return Some((Punct::Ne, 2));
    }
    if two(b'<', b'=') {
        return Some((Punct::Le, 2));
    }
    if two(b'>', b'=') {
        return Some((Punct::Ge, 2));
    }
    if two(b'=', b'=') {
        return Some((Punct::Eq, 2));
    }
    if two(b'|', b'|') {
        return Some((Punct::Concat, 2));
    }
    let p = match bytes[i] {
        b'(' => Punct::LParen,
        b')' => Punct::RParen,
        b',' => Punct::Comma,
        b'.' => Punct::Dot,
        b';' => Punct::Semi,
        b'*' => Punct::Star,
        b'+' => Punct::Plus,
        b'-' => Punct::Minus,
        b'/' => Punct::Slash,
        b'%' => Punct::Percent,
        b'=' => Punct::Eq,
        b'<' => Punct::Lt,
        b'>' => Punct::Gt,
        _ => return None,
    };
    Some((p, 1))
}

/// The text quoted by the ASCII quote at `start`, and the offset past its
/// closing quote. A doubled quote inside (`''` in a string, `""` or
/// `` `` `` in an identifier) stands for one; only such a text is copied.
fn read_quoted(sql: &str, start: usize) -> SqlResult<(Cow<'_, str>, usize)> {
    let bytes = sql.as_bytes();
    let quote = bytes[start];
    let body = start + 1;
    let mut resolved: Option<String> = None;
    // `at` and `copied` stay on character boundaries: a UTF-8 sequence
    // holds no ASCII byte
    let mut copied = body;
    let mut from = body;
    while let Some(at) = bytes[from..].iter().position(|&b| b == quote).map(|k| from + k) {
        if bytes.get(at + 1) == Some(&quote) {
            resolved.get_or_insert_with(String::new).push_str(&sql[copied..=at]);
            copied = at + 2;
            from = at + 2;
            continue;
        }
        let text = match resolved {
            None => Cow::Borrowed(&sql[body..at]),
            Some(mut s) => {
                s.push_str(&sql[copied..at]);
                Cow::Owned(s)
            }
        };
        return Ok((text, at + 1));
    }
    Err(SqlError::Lex { pos: start, msg: format!("unterminated {} quote", quote as char) })
}

fn read_number(sql: &str, start: usize) -> SqlResult<(TokenKind<'static>, usize)> {
    let bytes = sql.as_bytes();
    let mut i = start;
    let mut is_real = false;
    while i < bytes.len() {
        match bytes[i] as char {
            '0'..='9' => i += 1,
            '.' if !is_real => {
                is_real = true;
                i += 1;
            }
            'e' | 'E' => {
                is_real = true;
                i += 1;
                if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                    i += 1;
                }
            }
            _ => break,
        }
    }
    let text = &sql[start..i];
    if is_real {
        text.parse::<f64>()
            .map(|v| (TokenKind::Real(v), i))
            .map_err(|e| SqlError::Lex { pos: start, msg: format!("bad real literal: {e}") })
    } else {
        match text.parse::<i64>() {
            Ok(v) => Ok((TokenKind::Int(v), i)),
            // overflow: fall back to real, as SQLite does
            Err(_) => text
                .parse::<f64>()
                .map(|v| (TokenKind::Real(v), i))
                .map_err(|e| SqlError::Lex { pos: start, msg: format!("bad literal: {e}") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind<'_>> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        let k = kinds("SELECT a, b FROM t WHERE x >= 1.5");
        assert_eq!(k[0], TokenKind::Ident("SELECT".into(), false));
        assert!(k.contains(&TokenKind::Punct(Punct::Ge)));
        assert!(k.contains(&TokenKind::Real(1.5)));
    }

    #[test]
    fn quoted_identifiers() {
        let k = kinds("`First Date` \"Second Col\" [Third One]");
        assert_eq!(k[0], TokenKind::Ident("First Date".into(), true));
        assert_eq!(k[1], TokenKind::Ident("Second Col".into(), true));
        assert_eq!(k[2], TokenKind::Ident("Third One".into(), true));
    }

    #[test]
    fn string_escapes() {
        let k = kinds("'it''s'");
        assert_eq!(k[0], TokenKind::Str("it's".into()));
    }

    /// A name or a string borrows its text from the SQL unless a doubled
    /// quote inside it had to be resolved, and prints as it always did:
    /// error messages show a token's `Debug` text.
    #[test]
    fn text_is_borrowed_unless_a_doubled_quote_is_resolved() {
        let sql = "SELECT `a b`, \"c\", [d e], 'f', 'it''s', \"x\"\"y\", `p``q`, ''''";
        let borrowed: Vec<bool> = kinds(sql)
            .iter()
            .filter_map(|k| match k {
                TokenKind::Ident(s, _) | TokenKind::Str(s) => Some(matches!(s, Cow::Borrowed(_))),
                _ => None,
            })
            .collect();
        assert_eq!(borrowed, [true, true, true, true, true, false, false, false, false]);
        let texts: Vec<String> = kinds(sql).iter().map(|k| format!("{k:?}")).collect();
        assert_eq!(texts[0], r#"Ident("SELECT", false)"#);
        assert_eq!(texts[9], r#"Str("it's")"#);
        assert_eq!(texts[11], r#"Ident("x\"y", true)"#);
        assert_eq!(texts[13], r#"Ident("p`q", true)"#);
        assert_eq!(texts[15], r#"Str("'")"#);
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("SELECT -- hi\n 1 /* block */ + 2");
        assert!(k.contains(&TokenKind::Int(1)));
        assert!(k.contains(&TokenKind::Int(2)));
        assert_eq!(k.len(), 5); // SELECT 1 + 2 EOF
    }

    #[test]
    fn two_char_operators() {
        let k = kinds("a <> b != c || d == e");
        assert_eq!(
            k.iter()
                .filter(|t| matches!(t, TokenKind::Punct(Punct::Ne)))
                .count(),
            2
        );
        assert!(k.contains(&TokenKind::Punct(Punct::Concat)));
        assert!(k.contains(&TokenKind::Punct(Punct::Eq)));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(tokenize("'abc"), Err(SqlError::Lex { .. })));
        assert!(matches!(tokenize("[abc"), Err(SqlError::Lex { .. })));
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("4.25")[0], TokenKind::Real(4.25));
        assert_eq!(kinds("1e2")[0], TokenKind::Real(100.0));
        assert_eq!(kinds(".5")[0], TokenKind::Real(0.5));
        // i64 overflow degrades to real
        assert!(matches!(kinds("99999999999999999999")[0], TokenKind::Real(_)));
    }

    #[test]
    fn unicode_identifiers() {
        let k = kinds("héllo");
        assert_eq!(k[0], TokenKind::Ident("héllo".into(), false));
        // a letter whose UTF-8 lead byte (0xD7) is not a Latin-1 letter
        assert_eq!(kinds("\u{5d0}b")[0], TokenKind::Ident("\u{5d0}b".into(), false));
    }

    /// `tokenize(sql)` on its own thread. The failure this guards against
    /// is a loop that never returns and allocates as it spins, so a missed
    /// deadline takes the test process down instead of leaving that
    /// thread running behind a failed assertion.
    fn tokenize_within_deadline(sql: &str) -> SqlResult<Vec<Token<'_>>> {
        let (tx, rx) = std::sync::mpsc::channel();
        let owned = sql.to_owned();
        // the tokens borrow the thread's copy: it sends back whether it
        // returned, and a run that returned once returns again here
        std::thread::spawn(move || tx.send(tokenize(&owned).map(drop)));
        match rx.recv_timeout(std::time::Duration::from_secs(1)) {
            Ok(Ok(())) => tokenize(sql),
            Ok(Err(e)) => Err(e),
            Err(_) => {
                // straight to stderr: the harness's capture dies with the process
                use std::io::Write as _;
                let _ = writeln!(std::io::stderr(), "tokenize({sql:?}) did not return within 1 s");
                std::process::abort();
            }
        }
    }

    /// Termination, and the shape of whatever comes back: at most one
    /// token per byte plus `Eof`, at increasing character boundaries — or
    /// a `Lex` error at one.
    fn assert_bounded(sql: &str) -> SqlResult<Vec<Token<'_>>> {
        let result = tokenize_within_deadline(sql);
        match &result {
            Ok(tokens) => {
                assert!(tokens.len() <= sql.len() + 1, "{sql:?}: {} tokens", tokens.len());
                assert_eq!(tokens.last().map(|t| &t.kind), Some(&TokenKind::Eof), "{sql:?}");
                for pair in tokens.windows(2) {
                    assert!(pair[0].pos < pair[1].pos, "{sql:?}: {pair:?}");
                }
                assert!(tokens.iter().all(|t| sql.is_char_boundary(t.pos)), "{sql:?}");
            }
            Err(SqlError::Lex { pos, .. }) => {
                assert!(*pos < sql.len() && sql.is_char_boundary(*pos), "{sql:?}: pos {pos}");
            }
            Err(other) => panic!("{sql:?}: tokenize returned {other:?}"),
        }
        result
    }

    /// What a real model leaves in its SQL — smart quotes, dashes, an
    /// ellipsis, a no-break space, CJK punctuation, emoji, `×`/`÷` — is
    /// none of it alphanumeric: each is a `Lex` error naming the character
    /// at its byte offset, bare or mid-statement.
    #[test]
    fn non_ascii_punctuation_is_a_lex_error_naming_the_char() {
        let artefacts = [
            '\u{2018}', '\u{2019}', '\u{201c}', '\u{201d}', '\u{2013}', '\u{2014}', '\u{2026}',
            '\u{a0}', '\u{3001}', '\u{3002}', '\u{ff0c}', '\u{1f600}', '\u{d7}', '\u{f7}',
        ];
        for c in artefacts {
            for sql in [
                c.to_string(),
                format!("SELECT 1 {c}"),
                format!("SELECT Name{c} FROM Patient WHERE age > 1"),
                format!("SELECT é{c}"),
            ] {
                match assert_bounded(&sql) {
                    Err(SqlError::Lex { pos, msg }) => {
                        assert_eq!(Some(pos), sql.find(c), "{sql:?}");
                        assert_eq!(msg, format!("unexpected character {c:?}"), "{sql:?}");
                    }
                    other => panic!("{sql:?}: {other:?}"),
                }
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(600))]

            /// Arbitrary text: half printable ASCII (the SQL alphabet),
            /// half any scalar value up to the supplementary planes.
            #[test]
            fn arbitrary_text_tokenizes_in_bounded_time_and_space(
                points in prop::collection::vec(0u32..0x4_0000, 0..24),
            ) {
                let sql: String = points
                    .iter()
                    .map(|&p| if p % 2 == 0 { 0x20 + (p / 2) % 0x5f } else { p / 2 })
                    .map(|cp| char::from_u32(cp).unwrap_or('\u{fffd}'))
                    .collect();
                let _ = assert_bounded(&sql);
            }
        }
    }
}
