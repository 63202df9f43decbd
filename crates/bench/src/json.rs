//! The one JSON writer behind the `BENCH_*.json` files that the
//! `bench_regression_check` gate reads.
//!
//! A bench report is a [`Json`] tree built field by field, so key order is
//! the order the binary lists its fields in.  The writer owns every
//! formatting decision: string quoting, commas, number rendering
//! (non-finite numbers become `null`, which the gate's reader skips) and
//! the file write.
//!
//! ```
//! use bench_support::json::Json;
//!
//! let report = Json::object([
//!     ("bench", "demo".into()),
//!     ("quick", true.into()),
//!     ("points", Json::Array(vec![Json::object([("qps", 12.5.into())])])),
//!     ("ratio", f64::NAN.into()),
//! ]);
//! assert_eq!(
//!     report.render(),
//!     "{\n  \"bench\": \"demo\",\n  \"quick\": true,\n  \"points\": [\n    \
//!      {\"qps\": 12.5}\n  ],\n  \"ratio\": null\n}\n"
//! );
//! ```

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An exact unsigned integer (counts, sizes, axis values).
    Int(u64),
    /// A measurement; rendered `null` when not finite.
    Num(f64),
    /// A string, quoted and escaped on output.
    Str(String),
    /// An array; at the top level of a document, one element per line.
    Array(Vec<Json>),
    /// An object whose fields keep their insertion order.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// An object with `fields` in the given order.
    pub fn object(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(fields.into_iter().collect())
    }

    /// The document text: a top-level object puts each field on its own
    /// line, and a top-level array field puts each element on its own
    /// line; everything nested deeper is written inline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.emit(0, &mut out);
        out.push('\n');
        out
    }

    /// Writes [`render`](Self::render) to `path`.
    ///
    /// # Errors
    /// Any I/O error from creating or writing the file.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    fn emit(&self, depth: usize, out: &mut String) {
        match self {
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // `Display` for `f64` is the shortest text that parses back to
            // the same value, and never uses exponent notation.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => quote(s, out),
            Json::Array(items) => {
                let items = items.iter().map(|item| (None, item));
                emit_list(('[', ']'), items, depth, depth == 1, out);
            }
            Json::Object(fields) => {
                let fields = fields.iter().map(|(key, value)| (Some(*key), value));
                emit_list(('{', '}'), fields, depth, depth == 0, out);
            }
        }
    }
}

/// Writes the elements of an array or object between `brackets`, each on
/// its own line when `one_per_line`, else inline after `", "`.
fn emit_list<'a>(
    brackets: (char, char),
    elements: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
    depth: usize,
    one_per_line: bool,
    out: &mut String,
) {
    let indent = "  ".repeat(depth + 1);
    out.push(brackets.0);
    let len = elements.len();
    for (i, (key, value)) in elements.enumerate() {
        if one_per_line {
            out.push('\n');
            out.push_str(&indent);
        } else if i > 0 {
            out.push(' ');
        }
        if let Some(key) = key {
            quote(key, out);
            out.push_str(": ");
        }
        value.emit(depth + 1, out);
        if i + 1 < len {
            out.push(',');
        }
    }
    if one_per_line {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(brackets.1);
}

fn quote(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Int(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_round_trip_and_non_finite_is_null() {
        for x in [0.0, 1.0, 0.1 + 0.2, 1e-7, 123_456.789, -2.5] {
            let text = Json::Num(x).render();
            assert_eq!(text.trim().parse::<f64>().unwrap(), x, "{text}");
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(x).render(), "null\n");
        }
        assert_eq!(Json::from(7usize).render(), "7\n");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::from("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\u000ad\\u0001\"\n"
        );
    }

    #[test]
    fn nested_values_are_inline_and_commas_separate_elements() {
        let doc = Json::object([
            (
                "gate",
                Json::object([("a", 1u64.into()), ("b", false.into())]),
            ),
            ("list", Json::Array(vec![1u64.into(), 2u64.into()])),
            ("empty", Json::Array(Vec::new())),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"gate\": {\"a\": 1, \"b\": false},\n  \"list\": [\n    1,\n    2\n  ],\n  \
             \"empty\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn write_reports_io_errors() {
        let doc = Json::object([("x", 1u64.into())]);
        let missing_dir = std::env::temp_dir()
            .join(format!("bench_json_no_such_dir_{}", std::process::id()))
            .join("out.json");
        assert!(doc.write(missing_dir.to_str().unwrap()).is_err());
    }
}
