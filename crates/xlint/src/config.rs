//! `xlint.toml` — lint configuration plus the grandfathered-finding baseline.
//!
//! The container has no crates.io access, so this is a hand-rolled parser for
//! the small TOML subset the config actually uses: `[section]` /
//! `[[baseline]]` headers, `key = "string"`, `key = integer`, and string
//! arrays (single- or multi-line). Anything else is a parse error — the
//! config is checked in, so failing loudly beats guessing.

use std::fmt;

/// One grandfathered finding: suppresses up to `count` findings of `lint` in
/// `file`. A written `reason` is mandatory — the baseline is a debt register,
/// not an allowlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Lint id, e.g. `"X003"`.
    pub lint: String,
    /// Root-relative file the findings live in (`/`-separated).
    pub file: String,
    /// How many findings of `lint` in `file` this entry covers.
    pub count: usize,
    /// Why the finding is grandfathered rather than fixed.
    pub reason: String,
}

/// Parsed configuration: path scoping for the path-sensitive lints plus the
/// baseline. Defaults (when `xlint.toml` is absent) match this repository.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (relative to the root) walked for `.rs` files.
    pub walk_roots: Vec<String>,
    /// Path prefixes excluded from the walk (lint fixtures, vendored code).
    pub walk_exclude: Vec<String>,
    /// Crates whose output bytes are pinned: X005 bans `HashMap`/`HashSet`
    /// there. Entries are path prefixes.
    pub x005_pinned: Vec<String>,
    /// Library source trees where X006 bans `unwrap`/`expect`/`panic!`.
    pub x006_scopes: Vec<String>,
    /// The designated timing modules: the only places allowed to read the
    /// wall clock (X007). Entries are path prefixes.
    pub x007_timing_modules: Vec<String>,
    /// Service source trees where X009 bans bare blocking `.recv()` calls.
    /// Entries are path prefixes.
    pub x009_service: Vec<String>,
    /// The designated wait modules inside the X009 scopes: the only places
    /// allowed to block (they own the timeout/shutdown discipline).
    pub x009_wait_modules: Vec<String>,
    /// Path prefixes where X011 bans direct construction of per-rank cell
    /// assignments (`Partition::from_assignments`): the byte-pinned crates
    /// and everything that partitions data for them.
    pub x011_pinned: Vec<String>,
    /// The partition modules inside the X011 scopes — the single source of
    /// truth allowed to construct assignments directly.
    pub x011_partition_modules: Vec<String>,
    /// Path prefixes whose functions X014 checks for transitive panic
    /// reachability. Empty falls back to `x006_scopes` (X014 is the flow
    /// upgrade of X006).
    pub x014_scopes: Vec<String>,
    /// Grandfathered findings.
    pub baseline: Vec<BaselineEntry>,
}

impl Config {
    /// Effective X014 scope: explicit `[x014] scopes`, else X006's.
    pub fn x014_effective_scopes(&self) -> &[String] {
        if self.x014_scopes.is_empty() {
            &self.x006_scopes
        } else {
            &self.x014_scopes
        }
    }
}

impl Default for Config {
    fn default() -> Config {
        Config {
            walk_roots: vec!["crates", "src", "tests", "examples"]
                .into_iter()
                .map(String::from)
                .collect(),
            walk_exclude: vec!["crates/xlint/tests/fixtures".to_string()],
            x005_pinned: [
                "crates/render/",
                "crates/compositing/",
                "crates/strawman/",
                "crates/conduit/",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            x006_scopes: [
                "crates/core/src/",
                "crates/render/src/",
                "crates/compositing/src/",
                "crates/sched/src/",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            x007_timing_modules: Vec::new(),
            x009_service: vec!["crates/feasd/src/".to_string()],
            x009_wait_modules: Vec::new(),
            x011_pinned: [
                "crates/mesh/",
                "crates/render/",
                "crates/compositing/",
                "crates/strawman/",
                "crates/conduit/",
                "crates/sched/",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            x011_partition_modules: vec!["crates/mesh/src/partition.rs".to_string()],
            x014_scopes: Vec::new(),
            baseline: Vec::new(),
        }
    }
}

impl Config {
    /// A scoping config for the fixture tests: every path-sensitive lint
    /// applies everywhere, no baseline, no timing modules.
    pub fn for_fixtures() -> Config {
        Config {
            walk_roots: vec![".".to_string()],
            walk_exclude: Vec::new(),
            x005_pinned: vec![String::new()],
            x006_scopes: vec![String::new()],
            x007_timing_modules: Vec::new(),
            x009_service: vec![String::new()],
            x009_wait_modules: Vec::new(),
            x011_pinned: vec![String::new()],
            x011_partition_modules: Vec::new(),
            x014_scopes: Vec::new(),
            baseline: Vec::new(),
        }
    }
}

/// Error from parsing `xlint.toml`.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xlint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError { line, message: message.into() }
}

/// Strip a trailing `#` comment that is outside string quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse a quoted string starting at the first char of `s`.
fn parse_string(s: &str, line: usize) -> Result<String, ConfigError> {
    let s = s.trim();
    if !s.starts_with('"') || !s.ends_with('"') || s.len() < 2 {
        return Err(err(line, format!("expected a quoted string, got `{s}`")));
    }
    Ok(s[1..s.len() - 1].to_string())
}

/// Load `xlint.toml` from the tree root `root`; defaults when absent.
pub fn load(root: &std::path::Path) -> Result<Config, String> {
    let path = root.join("xlint.toml");
    if !path.is_file() {
        return Ok(Config::default());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    parse(&text).map_err(|e| e.to_string())
}

/// Parse the text of `xlint.toml`.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut cfg = Config::default();
    // `[x007]` etc. replace the defaults when present, so the file is the
    // single source of truth once it exists.
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            if name.trim() != "baseline" {
                return Err(err(lineno, format!("unknown array-of-tables `[[{name}]]`")));
            }
            section = "baseline".to_string();
            cfg.baseline.push(BaselineEntry {
                lint: String::new(),
                file: String::new(),
                count: 1,
                reason: String::new(),
            });
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_string();
            match section.as_str() {
                "walk" | "x005" | "x006" | "x007" | "x009" | "x011" | "x014" => {}
                other => return Err(err(lineno, format!("unknown section `[{other}]`"))),
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
        };
        let key = key.trim();
        let mut value = value.trim().to_string();
        // Multi-line arrays: keep consuming lines until the closing bracket.
        if value.starts_with('[') && !value.ends_with(']') {
            for (_, more) in lines.by_ref() {
                let more = strip_comment(more).trim();
                value.push(' ');
                value.push_str(more);
                if more.ends_with(']') {
                    break;
                }
            }
            if !value.ends_with(']') {
                return Err(err(lineno, "unterminated array"));
            }
        }
        let parse_array = |v: &str| -> Result<Vec<String>, ConfigError> {
            let inner = v
                .strip_prefix('[')
                .and_then(|x| x.strip_suffix(']'))
                .ok_or_else(|| err(lineno, format!("expected an array for `{key}`")))?;
            inner
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| parse_string(s, lineno))
                .collect()
        };
        match (section.as_str(), key) {
            ("walk", "roots") => cfg.walk_roots = parse_array(&value)?,
            ("walk", "exclude") => cfg.walk_exclude = parse_array(&value)?,
            ("x005", "pinned") => cfg.x005_pinned = parse_array(&value)?,
            ("x006", "scopes") => cfg.x006_scopes = parse_array(&value)?,
            ("x007", "timing_modules") => cfg.x007_timing_modules = parse_array(&value)?,
            ("x009", "service") => cfg.x009_service = parse_array(&value)?,
            ("x009", "wait_modules") => cfg.x009_wait_modules = parse_array(&value)?,
            ("x011", "pinned") => cfg.x011_pinned = parse_array(&value)?,
            ("x011", "partition_modules") => cfg.x011_partition_modules = parse_array(&value)?,
            ("x014", "scopes") => cfg.x014_scopes = parse_array(&value)?,
            ("baseline", k) => {
                let entry = cfg
                    .baseline
                    .last_mut()
                    .ok_or_else(|| err(lineno, "baseline key outside `[[baseline]]`"))?;
                match k {
                    "lint" => entry.lint = parse_string(&value, lineno)?,
                    "file" => entry.file = parse_string(&value, lineno)?,
                    "reason" => entry.reason = parse_string(&value, lineno)?,
                    "count" => {
                        entry.count = value
                            .parse()
                            .map_err(|_| err(lineno, format!("bad count `{value}`")))?
                    }
                    other => return Err(err(lineno, format!("unknown baseline key `{other}`"))),
                }
            }
            (sec, k) => return Err(err(lineno, format!("unknown key `{k}` in section `[{sec}]`"))),
        }
    }
    for (i, b) in cfg.baseline.iter().enumerate() {
        if b.lint.is_empty() || b.file.is_empty() {
            return Err(err(0, format!("baseline entry #{} missing lint/file", i + 1)));
        }
        if b.reason.trim().is_empty() {
            return Err(err(
                0,
                format!(
                    "baseline entry #{} ({} in {}) has no reason — grandfathered findings \
                     must carry a written justification",
                    i + 1,
                    b.lint,
                    b.file
                ),
            ));
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_baseline() {
        let text = r##"
# comment
[x007]
timing_modules = [
  "crates/bench/",      # harness
  "crates/render/src/counters.rs",
]

[[baseline]]
lint = "X003"
file = "crates/foo/src/lib.rs"
count = 2
reason = "legacy counters, tracked in ROADMAP"
"##;
        let cfg = parse(text).unwrap();
        assert_eq!(
            cfg.x007_timing_modules,
            vec!["crates/bench/".to_string(), "crates/render/src/counters.rs".to_string()]
        );
        assert_eq!(cfg.baseline.len(), 1);
        assert_eq!(cfg.baseline[0].count, 2);
        assert_eq!(cfg.baseline[0].lint, "X003");
    }

    #[test]
    fn x011_arrays_parse() {
        let text = "[x011]\npinned = [\"a/\"]\npartition_modules = [\"a/src/partition.rs\"]\n";
        let cfg = parse(text).unwrap();
        assert_eq!(cfg.x011_pinned, vec!["a/".to_string()]);
        assert_eq!(cfg.x011_partition_modules, vec!["a/src/partition.rs".to_string()]);
    }

    #[test]
    fn baseline_without_reason_is_rejected() {
        let text = "[[baseline]]\nlint = \"X001\"\nfile = \"a.rs\"\n";
        let e = parse(text).unwrap_err();
        assert!(e.message.contains("no reason"), "{e}");
    }

    #[test]
    fn unknown_section_is_rejected() {
        assert!(parse("[nope]\n").is_err());
    }
}
