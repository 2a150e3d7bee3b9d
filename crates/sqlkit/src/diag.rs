//! Diagnostics: source spans, severities, and machine-readable findings.
//!
//! The analyzer ([`crate::analyze`]) reports everything it knows as
//! [`Diagnostic`] values: a stable code (`E01xx` name resolution, `E02xx`
//! type/shape, `W03xx` lints), a byte [`Span`] into the analyzed SQL, a
//! human message, and an optional help line ("did you mean ...?"). The
//! renderer prints rustc-style caret frames so a diagnostic points at the
//! offending characters of the candidate SQL.

use serde::{Deserialize, Serialize};

/// A half-open byte range `[start, end)` into the SQL source text.
///
/// Spans are *metadata*, not semantics: every span compares equal to every
/// other span, so a parsed (spanned) AST stays `==` to a hand-built or
/// structurally rewritten one. The alignment agents compare and splice
/// subtrees from different sources, and the test suite builds span-less
/// trees with [`crate::ast::Expr::col`]-style shorthands; a semantic
/// `PartialEq` on spans would break both.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl PartialEq for Span {
    fn eq(&self, _: &Span) -> bool {
        true // spans are metadata; see the type-level docs
    }
}

impl Eq for Span {}

impl Span {
    /// A span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// The empty placeholder span (no source location known).
    pub fn empty() -> Span {
        Span::default()
    }

    /// Does this span point at actual source text?
    pub fn is_real(&self) -> bool {
        self.end > self.start
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Is the span empty (a placeholder)?
    pub fn is_empty(&self) -> bool {
        !self.is_real()
    }

    /// Smallest span covering both operands; placeholders are ignored.
    pub fn merge(&self, other: Span) -> Span {
        match (self.is_real(), other.is_real()) {
            (true, true) => Span::new(self.start.min(other.start), self.end.max(other.end)),
            (true, false) => *self,
            _ => other,
        }
    }
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// The statement is semantically broken (name or shape error).
    Error,
    /// Suspicious but executable (lint finding).
    Warning,
}

impl Severity {
    /// Lowercase display name, as rendered in the caret frame header.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One analyzer finding, machine-readable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable code: `E01xx` resolution, `E02xx` type/shape, `W03xx` lint.
    pub code: String,
    /// Error or warning.
    pub severity: Severity,
    /// Where in the SQL source; may be a placeholder ([`Span::is_empty`]).
    pub span: Span,
    /// Human-readable message.
    pub message: String,
    /// Optional "did you mean ...?" style help line.
    pub help: Option<String>,
}

impl Diagnostic {
    /// An error diagnostic.
    pub fn error(code: &str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code: code.to_owned(),
            severity: Severity::Error,
            span,
            message: message.into(),
            help: None,
        }
    }

    /// A warning diagnostic.
    pub fn warning(code: &str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code: code.to_owned(),
            severity: Severity::Warning,
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Attach a help line.
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    /// One-line rendering: `error[E0102]: no such column: Nam`.
    pub fn headline(&self) -> String {
        format!("{}[{}]: {}", self.severity.as_str(), self.code, self.message)
    }

    /// Full rustc-style rendering against the SQL source, with a caret
    /// frame under the offending characters when the span is real:
    ///
    /// ```text
    /// error[E0102]: no such column: Nam
    ///   |
    ///   | SELECT Nam FROM Patient
    ///   |        ^^^
    ///   = help: did you mean `Name`?
    /// ```
    pub fn render(&self, sql: &str) -> String {
        let mut out = self.headline();
        if self.span.is_real() && self.span.end <= sql.len() {
            // spans count bytes, the frame counts characters: widen both
            // ends to the characters they fall inside
            let start = sql.floor_char_boundary(self.span.start);
            let end = sql.ceil_char_boundary(self.span.end);
            let (line, line_start) = line_of(sql, start);
            let col = sql[line_start..start].chars().count();
            // carets cover the span but never run past the line
            let line_len = line.chars().count();
            let width = sql[start..end].chars().count();
            let width = width.clamp(1, line_len.saturating_sub(col).max(1));
            out.push_str("\n  |\n  | ");
            out.push_str(line);
            out.push_str("\n  | ");
            out.push_str(&" ".repeat(col));
            out.push_str(&"^".repeat(width));
        }
        if let Some(help) = &self.help {
            out.push_str("\n  = help: ");
            out.push_str(help);
        }
        out
    }
}

/// Render a batch of diagnostics, blank-line separated.
pub fn render_all(diags: &[Diagnostic], sql: &str) -> String {
    diags.iter().map(|d| d.render(sql)).collect::<Vec<_>>().join("\n\n")
}

/// The source line containing byte `pos` and the byte offset of its start.
fn line_of(sql: &str, pos: usize) -> (&str, usize) {
    let start = sql[..pos.min(sql.len())].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let end = sql[start..].find('\n').map(|i| start + i).unwrap_or(sql.len());
    (&sql[start..end], start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_always_compare_equal() {
        assert_eq!(Span::new(3, 7), Span::new(20, 25));
        assert_eq!(Span::empty(), Span::new(1, 2));
    }

    #[test]
    fn span_merge_prefers_real_spans() {
        let m = Span::new(4, 8).merge(Span::new(1, 6));
        assert_eq!((m.start, m.end), (1, 8));
        let m = Span::empty().merge(Span::new(2, 5));
        assert_eq!((m.start, m.end), (2, 5));
        let m = Span::new(2, 5).merge(Span::empty());
        assert_eq!((m.start, m.end), (2, 5));
    }

    #[test]
    fn render_points_at_source() {
        let sql = "SELECT Nam FROM Patient";
        let d = Diagnostic::error("E0102", Span::new(7, 10), "no such column: Nam")
            .with_help("did you mean `Name`?");
        let r = d.render(sql);
        assert!(r.starts_with("error[E0102]: no such column: Nam"), "{r}");
        assert!(r.contains("| SELECT Nam FROM Patient"), "{r}");
        assert!(r.contains("|        ^^^"), "{r}");
        assert!(r.contains("= help: did you mean `Name`?"), "{r}");
    }

    #[test]
    fn render_skips_caret_for_placeholder_spans() {
        let d = Diagnostic::warning("W0302", Span::empty(), "always-false predicate");
        let r = d.render("SELECT 1 WHERE 1 = 2");
        assert_eq!(r, "warning[W0302]: always-false predicate");
    }

    #[test]
    fn render_handles_multiline_sql() {
        let sql = "SELECT x\nFROM Ghost";
        let d = Diagnostic::error("E0101", Span::new(14, 19), "no such table: Ghost");
        let r = d.render(sql);
        assert!(r.contains("| FROM Ghost"), "{r}");
        assert!(r.contains("|      ^^^^^"), "{r}");
        assert!(!r.contains("SELECT x\n  | FROM"), "only the offending line: {r}");
    }

    /// A span that starts or ends inside a multi-byte character widens to
    /// the whole character instead of slicing through it.
    #[test]
    fn render_clamps_spans_to_char_boundaries() {
        let sql = "SELECT né FROM t"; // é is bytes 8..10
        for (start, end) in [(8, 9), (9, 10), (7, 9), (9, 11)] {
            let r = Diagnostic::error("E0001", Span::new(start, end), "x").render(sql);
            assert!(r.contains("| SELECT né FROM t\n"), "{start}..{end}: {r}");
            let carets = r.lines().last().unwrap();
            let want = match (start, end) {
                (7, 9) => "  |        ^^",
                (9, 11) => "  |         ^^",
                _ => "  |         ^",
            };
            assert_eq!(carets, want, "{start}..{end}");
        }
    }

    #[test]
    fn render_all_joins_with_blank_lines() {
        let sql = "SELECT a FROM t";
        let d1 = Diagnostic::error("E0101", Span::empty(), "one");
        let d2 = Diagnostic::warning("W0303", Span::empty(), "two");
        let r = render_all(&[d1, d2], sql);
        assert_eq!(r, "error[E0101]: one\n\nwarning[W0303]: two");
    }
}
