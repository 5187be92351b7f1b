//! Diagnostic rendering: text and JSON.
//!
//! Both formats are pure functions of the (already sorted) diagnostic
//! list, with no timestamps, absolute paths, or map iteration anywhere —
//! repeated runs over the same tree produce byte-identical output, which
//! is what lets CI diff the JSON artifact directly.

use crate::Diagnostic;

/// Output format selected by `aq-lint --format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable `path:line: [rule] message` lines.
    Text,
    /// A stable JSON document (see [`render_json`]).
    Json,
}

impl Format {
    /// Parse a `--format` argument.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "json" => Some(Format::Json),
            _ => None,
        }
    }
}

/// Render diagnostics in the given format.
pub fn render(format: Format, diags: &[Diagnostic]) -> String {
    match format {
        Format::Text => render_text(diags),
        Format::Json => render_json(diags),
    }
}

fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// Escape a string for a JSON literal (quotes not included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// `{"diagnostics": [...], "total": n}` with one object per diagnostic in
/// (path, line, rule, message) order and per-rule counts alongside, so the
/// document parses with `aq_bench::json` and diffs cleanly.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \
             \"message\": \"{}\", \"snippet\": \"{}\"}}",
            json_escape(&d.path),
            d.line,
            json_escape(&d.rule),
            json_escape(&d.message),
            json_escape(&d.snippet)
        ));
    }
    if diags.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str("  \"counts\": {");
    let counts = per_rule_counts(diags);
    for (i, (rule, n)) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {}", json_escape(rule), n));
    }
    if counts.is_empty() {
        out.push_str("},\n");
    } else {
        out.push_str("\n  },\n");
    }
    out.push_str(&format!("  \"total\": {}\n}}\n", diags.len()));
    out
}

/// Diagnostic count per rule, sorted by rule name.
pub fn per_rule_counts(diags: &[Diagnostic]) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for d in diags {
        match counts.binary_search_by(|(r, _)| r.as_str().cmp(&d.rule)) {
            Ok(i) => counts[i].1 += 1,
            Err(i) => counts.insert(i, (d.rule.clone(), 1)),
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(path: &str, line: usize, rule: &str, msg: &str) -> Diagnostic {
        Diagnostic {
            path: path.to_string(),
            line,
            rule: rule.to_string(),
            message: msg.to_string(),
            snippet: "let x = 1;".to_string(),
        }
    }

    #[test]
    fn json_is_stable_and_counts_per_rule() {
        let diags = vec![
            diag("a.rs", 1, "no-wall-clock", "call of `Instant::now`"),
            diag("a.rs", 9, "no-float-eq", "`==` on a float"),
            diag("b.rs", 2, "no-wall-clock", "call of `SystemTime::now`"),
        ];
        let one = render_json(&diags);
        let two = render_json(&diags);
        assert_eq!(one, two);
        assert!(one.contains("\"total\": 3"));
        assert!(one.contains("\"no-wall-clock\": 2"));
        assert!(one.contains("\"no-float-eq\": 1"));
    }

    #[test]
    fn empty_documents_are_well_formed() {
        assert!(render_json(&[]).contains("\"total\": 0"));
    }

    #[test]
    fn escaping_handles_quotes_and_backslashes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let d = diag("a.rs", 1, "r", "uses `\"x\\y\"`");
        assert!(render_json(&[d]).contains("uses `\\\"x\\\\y\\\"`"));
    }
}
