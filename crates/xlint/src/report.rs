//! Rendering: human-readable findings and the `--json` machine format.

use crate::lints::{Finding, Waived};
use std::fmt::Write as _;

/// Full result of a lint run over a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that stand (not waived). Nonempty fails `--deny`.
    pub active: Vec<Finding>,
    /// Findings silenced by inline waivers.
    pub waived: Vec<Waived>,
}

impl Report {
    /// Sort both sections for deterministic output.
    pub fn normalize(&mut self) {
        let key = |f: &Finding| (f.file.clone(), f.line, f.lint);
        self.active.sort_by_key(key);
        self.waived.sort_by_key(|w| key(&w.finding));
    }
}

/// Escape a string for JSON.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

fn finding_json(f: &Finding, extra: Option<(&str, &str)>) -> String {
    let mut s = format!(
        "{{\"lint\":\"{}\",\"file\":\"{}\",\"line\":{},\"excerpt\":\"{}\",\"message\":\"{}\",\"hint\":\"{}\"",
        f.lint.id(),
        json_escape(&f.file),
        f.line,
        json_escape(&f.excerpt),
        json_escape(f.lint.message()),
        json_escape(f.lint.hint()),
    );
    if let Some((k, v)) = extra {
        let _ = write!(s, ",\"{}\":\"{}\"", k, json_escape(v));
    }
    s.push('}');
    s
}

fn join_indented(items: Vec<String>) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    format!("[\n    {}\n  ]", items.join(",\n    "))
}

/// Render the report as JSON (stable field and element order).
pub fn to_json(r: &Report) -> String {
    let findings: Vec<String> = r.active.iter().map(|f| finding_json(f, None)).collect();
    let waived: Vec<String> =
        r.waived.iter().map(|w| finding_json(&w.finding, Some(("reason", &w.reason)))).collect();
    format!(
        "{{\n  \"findings\": {},\n  \"waived\": {},\n  \"summary\": {{\"active\":{},\"waived\":{}}}\n}}\n",
        join_indented(findings),
        join_indented(waived),
        r.active.len(),
        r.waived.len(),
    )
}

/// Render the report for humans.
pub fn to_text(r: &Report) -> String {
    let mut out = String::new();
    for f in &r.active {
        let _ = writeln!(out, "{}:{}: {} — {}", f.file, f.line, f.lint.id(), f.lint.message());
        let _ = writeln!(out, "    | {}", f.excerpt);
        let _ = writeln!(out, "    = hint: {}", f.lint.hint());
    }
    let _ = writeln!(out, "xlint: {} active finding(s), {} waived", r.active.len(), r.waived.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::Lint;

    #[test]
    fn json_is_escaped_and_stable() {
        let mut r = Report::default();
        r.active.push(Finding {
            lint: Lint::X006,
            file: "a/b.rs".into(),
            line: 3,
            excerpt: "x.expect(\"boom\")".into(),
        });
        let j = to_json(&r);
        assert!(j.contains("\\\"boom\\\""));
        assert!(j.contains("\"summary\": {\"active\":1,\"waived\":0}"));
    }
}
