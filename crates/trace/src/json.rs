//! The workspace's one JSON writer.
//!
//! Every crate under `crates/` that emits JSON — flight records, the
//! trace JSONL dump, the SLO report, every server response body — builds
//! it here, so string escaping (RFC 8259) and number formatting exist
//! once. It lives in this crate because `osql-trace` is the bottom of
//! the dependency graph; `osql_server::json` re-exports it next to the
//! request *reader*.

use std::fmt::Write as _;

/// Append `s` to `out` as a JSON string literal (quotes included).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Incremental writer for one JSON object. Nested objects and arrays are
/// rendered first and attached with [`ObjectWriter::raw_field`].
pub struct ObjectWriter {
    buf: String,
    first: bool,
}

impl ObjectWriter {
    /// Start an object (`{` written).
    pub fn new() -> Self {
        ObjectWriter { buf: String::from("{"), first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_escaped(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Add a string field.
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        write_escaped(&mut self.buf, value);
        self
    }

    /// Add an unsigned integer field.
    pub fn u64_field(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Add an unsigned integer field, or null for `None`.
    pub fn opt_u64_field(&mut self, key: &str, value: Option<u64>) -> &mut Self {
        match value {
            Some(value) => self.u64_field(key, value),
            None => self.raw_field(key, "null"),
        }
    }

    /// Add a float field with 2 decimal places (non-finite becomes null).
    pub fn f64_field(&mut self, key: &str, value: f64) -> &mut Self {
        self.f64_field_with(key, value, 2)
    }

    /// Add a float field with `decimals` places. Non-finite values
    /// become null: JSON has no spelling for them.
    pub fn f64_field_with(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        self.key(key);
        let _ = if value.is_finite() {
            write!(self.buf, "{value:.decimals$}")
        } else {
            write!(self.buf, "null")
        };
        self
    }

    /// Add a boolean field.
    pub fn bool_field(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Add a field whose value is already-rendered JSON.
    pub fn raw_field(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Close the object and return its text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for ObjectWriter {
    fn default() -> Self {
        Self::new()
    }
}

fn bracketed<T>(items: impl IntoIterator<Item = T>, push: impl Fn(&mut String, T)) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(&mut out, item);
    }
    out.push(']');
    out
}

/// Render a JSON array of string literals.
pub fn string_array(items: impl IntoIterator<Item = impl AsRef<str>>) -> String {
    bracketed(items, |out, item| write_escaped(out, item.as_ref()))
}

/// Render a JSON array whose items are already-rendered JSON.
pub fn array(items: impl IntoIterator<Item = impl AsRef<str>>) -> String {
    bracketed(items, |out, item| out.push_str(item.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_nests() {
        let mut obj = ObjectWriter::new();
        obj.str_field("q", "say \"hi\"\n\u{1}")
            .u64_field("n", 3)
            .bool_field("ok", true)
            .f64_field("ms", 1.5)
            .f64_field_with("burn", 2.0 / 3.0, 4)
            .f64_field_with("nan", f64::NAN, 4)
            .raw_field("ids", &string_array(["a", "b\\"]))
            .raw_field("objs", &array(["{}", "1"]));
        assert_eq!(
            obj.finish(),
            r#"{"q":"say \"hi\"\n\u0001","n":3,"ok":true,"ms":1.50,"burn":0.6667,"nan":null,"ids":["a","b\\"],"objs":[{},1]}"#
        );
        assert_eq!(array(Vec::<String>::new()), "[]");
    }
}
