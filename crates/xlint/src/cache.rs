//! Content-hash-keyed incremental cache for the per-file lint pass.
//!
//! The cache stores each file's [`FileReport`] (findings + waived, the
//! output of the X001–X011 masked-line pass and the token-level X007 pass)
//! keyed by an FNV-1a hash of the file's bytes, under a header keyed by a
//! hash of the effective configuration. A config change — including
//! `xlint.toml` edits — therefore invalidates everything, and a content
//! change invalidates exactly that file.
//!
//! The cross-file results (the call graph and the flow lints
//! X012–X014) are deliberately *not* cached: they depend on every file at
//! once, and recomputing them from the always-reparsed syntax is cheap. A
//! warm run is byte-identical to a cold run by construction — the cache
//! can only substitute per-file results for inputs proven unchanged.
//!
//! Format (version-stamped, tab-separated, one record per line):
//!
//! ```text
//! xlint-cache v1 <config-hash-hex>
//! = <rel>\t<content-hash-hex>
//! F\t<lint-id>\t<line>\t<excerpt>
//! W\t<lint-id>\t<line>\t<excerpt>\t<reason>
//! ```
//!
//! Any parse irregularity discards the whole cache — a cold run is always
//! correct, so failing open costs one re-lint, never a wrong finding.

use crate::lints::{FileReport, Finding, Lint, Waived};
use std::collections::HashMap;
use std::path::Path;

const HEADER: &str = "xlint-cache v1";

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Hash the effective configuration. The `Debug` form covers every field,
/// so any scoping or baseline change reads as a different config.
pub fn config_hash(cfg: &crate::config::Config) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}

/// The loaded cache: per-file content hash + stored report.
#[derive(Default)]
pub struct Cache {
    entries: HashMap<String, (u64, FileReport)>,
}

impl Cache {
    /// The stored report for `rel`, if its content hash still matches.
    pub fn get(&self, rel: &str, content_hash: u64) -> Option<FileReport> {
        let (h, fr) = self.entries.get(rel)?;
        (*h == content_hash)
            .then(|| FileReport { findings: fr.findings.clone(), waived: fr.waived.clone() })
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some(c) => out.push(c),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Load the cache, returning empty on absence, version/config mismatch, or
/// any corruption.
pub fn load(path: &Path, cfg_hash: u64) -> Cache {
    let Ok(text) = std::fs::read_to_string(path) else { return Cache::default() };
    parse(&text, cfg_hash).unwrap_or_default()
}

fn parse(text: &str, cfg_hash: u64) -> Option<Cache> {
    let mut lines = text.lines();
    let header = lines.next()?;
    let rest = header.strip_prefix(HEADER)?.trim();
    if u64::from_str_radix(rest, 16).ok()? != cfg_hash {
        return None;
    }
    let mut cache = Cache::default();
    let mut current: Option<(String, u64)> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split('\t');
        let tag = fields.next()?;
        match tag {
            "=" => {
                let rel = unesc(fields.next()?);
                let hash = u64::from_str_radix(fields.next()?, 16).ok()?;
                cache.entries.insert(rel.clone(), (hash, FileReport::default()));
                current = Some((rel, hash));
            }
            "F" | "W" => {
                let (rel, _) = current.as_ref()?;
                let lint = Lint::from_id(fields.next()?)?;
                let line_no: usize = fields.next()?.parse().ok()?;
                let excerpt = unesc(fields.next()?);
                let finding = Finding { lint, file: rel.clone(), line: line_no, excerpt };
                let entry = &mut cache.entries.get_mut(rel)?.1;
                if tag == "F" {
                    entry.findings.push(finding);
                } else {
                    let reason = unesc(fields.next()?);
                    entry.waived.push(Waived { finding, reason });
                }
            }
            _ => return None,
        }
    }
    Some(cache)
}

/// Write the cache for this run. Errors are returned for the caller to
/// ignore or log — a failed save only costs the next run its warm start.
pub fn save(
    path: &Path,
    cfg_hash: u64,
    entries: &[(String, u64, FileReport)],
) -> std::io::Result<()> {
    let mut out = format!("{HEADER} {cfg_hash:016x}\n");
    for (rel, hash, fr) in entries {
        out.push_str(&format!("=\t{}\t{hash:016x}\n", esc(rel)));
        for f in &fr.findings {
            out.push_str(&format!("F\t{}\t{}\t{}\n", f.lint.id(), f.line, esc(&f.excerpt)));
        }
        for w in &fr.waived {
            out.push_str(&format!(
                "W\t{}\t{}\t{}\t{}\n",
                w.finding.lint.id(),
                w.finding.line,
                esc(&w.finding.excerpt),
                esc(&w.reason)
            ));
        }
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(rel: &str) -> FileReport {
        FileReport {
            findings: vec![Finding {
                lint: Lint::X006,
                file: rel.to_string(),
                line: 3,
                excerpt: "x.unwrap()\twith a tab".into(),
            }],
            waived: vec![Waived {
                finding: Finding {
                    lint: Lint::X007,
                    file: rel.to_string(),
                    line: 9,
                    excerpt: "Instant::now()".into(),
                },
                reason: "demo\njitter".into(),
            }],
        }
    }

    #[test]
    fn round_trips_with_escapes() {
        let dir = std::env::temp_dir().join("xlint-cache-test-rt");
        let path = dir.join("cache.v1");
        let entries = vec![("a/b.rs".to_string(), 0xdead_beef_u64, sample_report("a/b.rs"))];
        save(&path, 42, &entries).unwrap();
        let cache = load(&path, 42);
        let fr = cache.get("a/b.rs", 0xdead_beef).expect("hit");
        assert_eq!(fr.findings, entries[0].2.findings);
        assert_eq!(fr.waived, entries[0].2.waived);
        assert!(cache.get("a/b.rs", 0xdead_beef + 1).is_none(), "content change misses");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_mismatch_discards_everything() {
        let dir = std::env::temp_dir().join("xlint-cache-test-cfg");
        let path = dir.join("cache.v1");
        save(&path, 1, &[("a.rs".to_string(), 7, FileReport::default())]).unwrap();
        assert!(load(&path, 2).is_empty());
        assert!(!load(&path, 1).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_fails_open() {
        assert!(parse("xlint-cache v1 002a\ngarbage line here\n", 42).is_none());
        assert!(parse("not a cache\n", 42).is_none());
    }

    #[test]
    fn config_hash_tracks_scoping_changes() {
        let a = crate::config::Config::default();
        let mut b = crate::config::Config::default();
        b.x007_timing_modules.push("crates/new/".into());
        assert_ne!(config_hash(&a), config_hash(&b));
    }
}
