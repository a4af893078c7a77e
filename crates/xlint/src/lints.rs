//! The lint catalog and the per-file checking pass.
//!
//! Every lint is a repo-specific invariant backing the bit-exact-parallel
//! guarantee (`tests/parallel_exactness.rs`) or the predicted-vs-measured
//! discipline of the performance study; DESIGN.md ("Determinism invariants")
//! documents the why of each. The checks are substring lints over masked
//! per-line views of the file — deliberately simple, tuned to this
//! codebase's idiom, and paired with an inline waiver syntax for the cases
//! the heuristics get wrong: `// xlint::allow(X00n): reason`.
//!
//! The views come from the token stream ([`masked_lines`]): one keeps only
//! the code (string/char literal interiors and comments blanked to spaces),
//! the other only the comment text. A pattern matched on the code view can
//! then never fire inside a string literal or a doc comment, and waiver /
//! `SAFETY:` / `ORDERING:` detection reads the comment view exclusively.

use crate::config::Config;
use crate::lexer::{class_runs, lex, CharClass, Token};

/// The lint catalog. Three ids are retired and not reused. X008 and X010
/// compared hand-kept model-family lists across files, and the list now
/// exists once (`perfmodel::models::Family::ALL`). X009 banned a bare
/// `.recv()` in `crates/feasd/src/`, and could not fire: the only channel
/// type a crate here can name is `std::sync::mpsc`, which X001 bans on the
/// line that would create the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Malformed waiver (missing reason). Never waivable itself.
    X000,
    /// Raw `std::thread::{spawn,scope}` / `std::sync::mpsc` outside the shims.
    X001,
    /// `unsafe` without an adjacent `// SAFETY:` comment.
    X002,
    /// Atomic `Ordering::` without an adjacent `// ORDERING:` justification.
    X003,
    /// Unordered parallel float reduction outside the shim.
    X004,
    /// `HashMap`/`HashSet` in a crate whose output bytes are pinned.
    X005,
    /// `unwrap`/`expect`/`panic!` in non-test library code of modeled crates.
    X006,
    /// Wall-clock reads outside the designated timing modules.
    X007,
    /// Direct construction of a per-rank cell assignment
    /// (`Partition::from_assignments`) outside the partition module in a
    /// byte-pinned crate.
    X011,
    /// Flow lint: a function outside the timing modules calls a function
    /// that transitively reaches a wall-clock read (laundered clock).
    X012,
    /// Flow lint: lock-order cycle in the workspace guard-nesting graph
    /// (potential deadlock).
    X013,
    /// Flow lint: a function in a modeled crate transitively reaches
    /// `panic!`/`unwrap`/`expect` through non-test code outside X006's scope.
    X014,
}

/// Every lint, in id order.
pub const ALL_LINTS: [Lint; 12] = [
    Lint::X000,
    Lint::X001,
    Lint::X002,
    Lint::X003,
    Lint::X004,
    Lint::X005,
    Lint::X006,
    Lint::X007,
    Lint::X011,
    Lint::X012,
    Lint::X013,
    Lint::X014,
];

impl Lint {
    /// Stable id string, e.g. `"X003"`.
    pub fn id(&self) -> &'static str {
        match self {
            Lint::X000 => "X000",
            Lint::X001 => "X001",
            Lint::X002 => "X002",
            Lint::X003 => "X003",
            Lint::X004 => "X004",
            Lint::X005 => "X005",
            Lint::X006 => "X006",
            Lint::X007 => "X007",
            Lint::X011 => "X011",
            Lint::X012 => "X012",
            Lint::X013 => "X013",
            Lint::X014 => "X014",
        }
    }

    /// One-line description of the violated invariant.
    pub fn message(&self) -> &'static str {
        match self {
            Lint::X000 => "xlint waiver without a reason",
            Lint::X001 => "raw std::thread / std::sync::mpsc outside the concurrency shims",
            Lint::X002 => "`unsafe` without an adjacent `// SAFETY:` comment",
            Lint::X003 => "atomic Ordering without an adjacent `// ORDERING:` justification",
            Lint::X004 => "unordered parallel float reduction outside the shim",
            Lint::X005 => "HashMap/HashSet in a byte-pinned crate",
            Lint::X006 => "unwrap/expect/panic! in non-test library code",
            Lint::X007 => "wall-clock read outside the designated timing modules",
            Lint::X011 => {
                "per-rank cell assignment built outside the partition module in a \
                 byte-pinned crate"
            }
            Lint::X012 => "call into a function that transitively reaches a wall-clock read",
            Lint::X013 => "lock-order cycle across guard-nesting scopes (potential deadlock)",
            Lint::X014 => "call into non-test code that transitively reaches panic!/unwrap/expect",
        }
    }

    /// How to fix (or legitimately silence) the finding.
    pub fn hint(&self) -> &'static str {
        match self {
            Lint::X000 => "write `// xlint::allow(X00n): <reason>` — the reason is mandatory",
            Lint::X001 => {
                "use the crossbeam shim's scoped threads or the rayon shim's pool so the \
                 parallel-exactness guarantees apply"
            }
            Lint::X002 => "state the invariant that makes this sound in a `// SAFETY:` comment",
            Lint::X003 => {
                "justify why this memory ordering suffices in a `// ORDERING:` comment \
                 (e.g. \"Relaxed: independent counter, read after join\")"
            }
            Lint::X004 => {
                "float addition is order-sensitive: reduce via the shim's fixed fold-partition \
                 (dpp::reduce) or collect and sum sequentially"
            }
            Lint::X005 => {
                "iteration order of hashed containers is unspecified: use BTreeMap/BTreeSet \
                 or sort before iterating"
            }
            Lint::X006 => "return the crate's error type instead of panicking",
            Lint::X007 => {
                "route timing through PhaseTimer / calibration / bench so predicted and \
                 measured clocks can't silently mix; or add the module to \
                 x007_timing_modules in crates/xlint/src/config.rs if it IS measurement code"
            }
            Lint::X011 => {
                "partitions that feed pinned pixels must come from the deterministic \
                 bisection (Partition::bisect / weighted_bisect) so every rank's cell set \
                 is a pure function of (centroids, weights, ranks); keep \
                 from_assignments to mesh::partition and test code, or waive with a \
                 written reason for a deliberately synthetic layout"
            }
            Lint::X012 => {
                "the callee wraps a clock read X007 can't see from this line: move the \
                 wrapper into x007_timing_modules if it IS measurement code, take the \
                 time as a parameter instead, or waive the wrapper's X007 finding with a \
                 written reason (a sanctioned wrapper stops the taint)"
            }
            Lint::X013 => {
                "two locks are acquired in opposite orders on different paths: pick one \
                 global order (document it where the locks are declared) and restructure \
                 the offending path, or waive the acquisition with a written reason if \
                 the paths provably cannot interleave"
            }
            Lint::X014 => {
                "a panic in a dependency of modeled code crashes the study mid-run: make \
                 the callee return an error, handle the failure at this call site, or \
                 waive with a written reason if the panic is a can't-happen invariant"
            }
        }
    }
}

/// One reported lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which invariant was violated.
    pub lint: Lint,
    /// Root-relative `/`-separated path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

/// A finding silenced by an inline waiver, with the written reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waived {
    /// The silenced finding.
    pub finding: Finding,
    /// The reason from the waiver comment.
    pub reason: String,
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that stand.
    pub findings: Vec<Finding>,
    /// Findings silenced by a well-formed waiver.
    pub waived: Vec<Waived>,
}

const ATOMIC_ORDERINGS: [&str; 5] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

const PAR_SOURCES: [&str; 5] =
    ["par_iter", "into_par_iter", "par_chunks", "par_windows", "par_bridge"];

const FLOAT_REDUCERS: [&str; 4] = ["sum::<f32>", "sum::<f64>", "product::<f32>", "product::<f64>"];

pub(crate) fn path_in(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

/// One source line split into its code part and its comment part. Both
/// strings preserve column positions (masked spans become spaces).
#[derive(Debug, Clone)]
pub struct MaskedLine {
    /// Code with comments and literal contents blanked.
    pub code: String,
    /// Comment text (line + block comments) with everything else blanked.
    pub comment: String,
}

impl MaskedLine {
    /// True when the line holds no code at all (blank or comment-only) —
    /// the adjacency rule for justification comments walks over such lines.
    pub fn is_comment_or_blank(&self) -> bool {
        self.code.trim().is_empty()
    }
}

/// Split `src` into per-line code/comment views under its token stream.
/// Literal framing (quotes, prefixes, hashes) stays code; a newline splits
/// both views whatever it sits in, so line numbers always match the source.
pub fn masked_lines(src: &str, tokens: &[Token]) -> Vec<MaskedLine> {
    // Blanking keeps columns and line breaks: one space per char.
    fn blank(view: &mut String, text: &str) {
        view.extend(text.chars().map(|c| if c == '\n' { '\n' } else { ' ' }));
    }
    let mut code = String::with_capacity(src.len());
    let mut comment = String::with_capacity(src.len());
    for (text, class) in class_runs(src, tokens) {
        match class {
            CharClass::Code => {
                code.push_str(text);
                blank(&mut comment, text);
            }
            CharClass::Comment => {
                blank(&mut code, text);
                comment.push_str(text);
            }
            CharClass::LiteralInterior => {
                blank(&mut code, text);
                blank(&mut comment, text);
            }
        }
    }
    code.lines()
        .zip(comment.lines())
        .map(|(c, k)| MaskedLine { code: c.to_string(), comment: k.to_string() })
        .collect()
}

/// Does `hay` contain `needle` as a standalone word (no identifier chars on
/// either side)?
pub fn contains_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok =
            !hay[after..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// The justification-comment adjacency rule: the marker counts if it appears
/// in the comment on the same line or anywhere in the contiguous run of
/// comment-only/blank lines immediately above.
fn adjacent_comment_contains(lines: &[MaskedLine], at: usize, marker: &str) -> bool {
    if lines[at].comment.contains(marker) {
        return true;
    }
    let mut i = at;
    while i > 0 {
        i -= 1;
        if !lines[i].is_comment_or_blank() {
            return false;
        }
        if lines[i].comment.contains(marker) {
            return true;
        }
    }
    false
}

/// Waiver lookup for `lint` at line `at`. Returns:
/// `None` — no waiver present; `Some(Ok(reason))` — well-formed waiver;
/// `Some(Err(line))` — waiver present but missing its reason (X000 at `line`).
pub(crate) fn waiver_for(
    lines: &[MaskedLine],
    at: usize,
    lint: Lint,
) -> Option<Result<String, usize>> {
    let check = |i: usize| -> Option<Result<String, usize>> {
        let c = &lines[i].comment;
        let pos = c.find("xlint::allow(")?;
        let rest = &c[pos + "xlint::allow(".len()..];
        let close = rest.find(')')?;
        let ids: Vec<&str> = rest[..close].split(',').map(str::trim).collect();
        if !ids.contains(&lint.id()) {
            return None;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            Some(Err(i))
        } else {
            Some(Ok(reason.to_string()))
        }
    };
    if let Some(r) = check(at) {
        return Some(r);
    }
    let mut i = at;
    while i > 0 {
        i -= 1;
        if !lines[i].is_comment_or_blank() {
            return None;
        }
        if let Some(r) = check(i) {
            return Some(r);
        }
    }
    None
}

/// Everything one file contributes: the per-file lint report plus the
/// extracted structure the cross-file flow lints consume.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    pub report: FileReport,
    pub syntax: crate::syntax::FileSyntax,
    pub lines: Vec<MaskedLine>,
}

/// Is this a test-crate file? (Every fn inside counts as test code.)
pub(crate) fn is_test_file(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// Lint one file. `rel` is the root-relative `/`-separated path used for all
/// path-scoped decisions and reporting.
pub fn lint_file(rel: &str, source: &str, cfg: &Config) -> FileReport {
    analyze_file(rel, source, cfg).report
}

/// Lint one file and keep the token-level structure for the flow pass:
/// lex once, then extract and build the views from that one token stream.
pub fn analyze_file(rel: &str, source: &str, cfg: &Config) -> FileAnalysis {
    let tokens = lex(source);
    let syntax = crate::syntax::extract(source, &tokens, is_test_file(rel));
    let lines = masked_lines(source, &tokens);
    let tests: Vec<bool> = (1..=lines.len()).map(|line| syntax.is_test_line(line)).collect();
    let mut raw_hits: Vec<(Lint, usize)> = Vec::new();

    for (i, l) in lines.iter().enumerate() {
        let code = l.code.as_str();

        // X001 — raw std concurrency primitives.
        if code.contains("std::thread::spawn")
            || code.contains("std::thread::scope")
            || code.contains("std::sync::mpsc")
        {
            raw_hits.push((Lint::X001, i));
        }

        // X002 — unsafe without SAFETY.
        if contains_word(code, "unsafe") && !adjacent_comment_contains(&lines, i, "SAFETY:") {
            raw_hits.push((Lint::X002, i));
        }

        // X003 — atomic orderings without ORDERING.
        if ATOMIC_ORDERINGS.iter().any(|o| code.contains(o))
            && !adjacent_comment_contains(&lines, i, "ORDERING:")
        {
            raw_hits.push((Lint::X003, i));
        }

        // X004 — parallel float reduction. The reducer call and the `par_*`
        // source may sit on different lines of one chained statement; walk
        // back through the statement's continuation lines.
        if FLOAT_REDUCERS.iter().any(|r| code.contains(r)) {
            let mut stmt = String::new();
            let mut j = i;
            loop {
                stmt.insert_str(0, lines[j].code.as_str());
                if j == 0 {
                    break;
                }
                let prev = lines[j - 1].code.trim_end();
                if prev.ends_with(';') || prev.ends_with('{') || prev.ends_with('}') {
                    break;
                }
                j -= 1;
                if i - j > 12 {
                    break;
                }
            }
            if PAR_SOURCES.iter().any(|p| stmt.contains(p)) {
                raw_hits.push((Lint::X004, i));
            }
        }

        // X005 — hashed containers in byte-pinned crates.
        if path_in(rel, cfg.x005_pinned)
            && (contains_word(code, "HashMap") || contains_word(code, "HashSet"))
        {
            raw_hits.push((Lint::X005, i));
        }

        // X006 — panics in non-test library code of the modeled crates.
        if path_in(rel, cfg.x006_scopes)
            && !tests[i]
            && (code.contains(".unwrap()")
                || code.contains(".expect(")
                || contains_word(code, "panic!"))
        {
            raw_hits.push((Lint::X006, i));
        }

        // X011 — per-rank cell assignments are single-sourced: in the
        // byte-pinned crates only the partition module (and test code) may
        // call the `from_assignments` escape hatch.
        if path_in(rel, cfg.x011_pinned)
            && !path_in(rel, cfg.x011_partition_modules)
            && !tests[i]
            && code.contains("from_assignments(")
        {
            raw_hits.push((Lint::X011, i));
        }
    }

    // X007 — wall-clock reads outside the timing modules, now found at the
    // token level: `Instant::now` / `SystemTime::now` including `use … as`
    // aliases and fn-pointer laundering (`let f = Instant::now;`), which the
    // old substring check missed. The per-line hit is the direct-source
    // special case of X012's taint pass.
    if !path_in(rel, cfg.x007_timing_modules) {
        let mut clock_lines: Vec<usize> = syntax.file_clock_lines.clone();
        for f in &syntax.fns {
            clock_lines.extend(f.clock_lines.iter().copied());
        }
        clock_lines.sort_unstable();
        clock_lines.dedup();
        for line in clock_lines {
            raw_hits.push((Lint::X007, line - 1));
        }
    }

    FileAnalysis { report: file_report(rel, &lines, raw_hits), syntax, lines }
}

/// Turn raw (lint, line) hits into a report, honoring inline waivers.
pub(crate) fn file_report(
    rel: &str,
    lines: &[MaskedLine],
    raw_hits: Vec<(Lint, usize)>,
) -> FileReport {
    let mut report = FileReport::default();
    for (lint, i) in raw_hits {
        let finding = Finding {
            lint,
            file: rel.to_string(),
            line: i + 1,
            excerpt: lines[i].code.trim().to_string(),
        };
        match waiver_for(lines, i, lint) {
            Some(Ok(reason)) => report.waived.push(Waived { finding, reason }),
            Some(Err(waiver_line)) => {
                // Malformed waiver: report it AND let the original stand —
                // a reasonless waiver must not buy silence.
                report.findings.push(Finding {
                    lint: Lint::X000,
                    file: rel.to_string(),
                    line: waiver_line + 1,
                    excerpt: lines[waiver_line].comment.trim().to_string(),
                });
                report.findings.push(finding);
            }
            None => report.findings.push(finding),
        }
    }
    report.findings.sort_by_key(|a| (a.line, a.lint));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::for_fixtures()
    }

    fn mask(src: &str) -> Vec<MaskedLine> {
        masked_lines(src, &lex(src))
    }

    #[test]
    fn comments_and_strings_are_separated() {
        let src = "let x = \"std::thread::spawn\"; // std::sync::mpsc here\nlet y = 1;\n";
        let m = mask(src);
        assert!(!m[0].code.contains("spawn"));
        assert!(!m[0].code.contains("mpsc"));
        assert!(m[0].comment.contains("mpsc"));
        assert!(m[1].code.contains("let y"));
    }

    #[test]
    fn nested_block_comments_and_raw_strings() {
        let src = "/* a /* nested */ still */ code();\nlet s = r#\"unsafe \"quoted\"\"#; more();\n";
        let m = mask(src);
        assert!(m[0].code.contains("code()"));
        assert!(m[0].comment.contains("nested"));
        assert!(!m[1].code.contains("unsafe"));
        assert!(m[1].code.contains("more()"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> char { '\"' }\nlet q = 'y';\n";
        let m = mask(src);
        // The quote char literal must not open a string state.
        assert!(m[1].code.contains("let q"));
        assert!(m[0].code.contains("&'a str"));
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("x unsafe {", "unsafe"));
        assert!(!contains_word("unsafely", "unsafe"));
        assert!(!contains_word("an_unsafe", "unsafe"));
        assert!(contains_word("panic!(\"\")", "panic!"));
    }

    #[test]
    fn multiline_block_comment_attribution() {
        let src = "/* SAFETY:\n   spans lines */\nunsafe { work() }\n";
        let m = mask(src);
        assert!(m[0].comment.contains("SAFETY:"));
        assert!(m[0].is_comment_or_blank());
        assert!(m[1].is_comment_or_blank());
        assert!(m[2].code.contains("unsafe"));
    }

    #[test]
    fn x001_fires_and_waives() {
        let src = "fn a() { std::thread::scope(|s| {}); }\n\
                   // xlint::allow(X001): exercising the raw API on purpose\n\
                   fn b() { std::thread::spawn(|| {}); }\n";
        let r = lint_file("m/src/lib.rs", src, &cfg());
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].lint, Lint::X001);
        assert_eq!(r.findings[0].line, 1);
        assert_eq!(r.waived.len(), 1);
        assert_eq!(r.waived[0].finding.line, 3);
    }

    #[test]
    fn x002_safety_adjacency() {
        let src = "// SAFETY: disjoint indices\nunsafe { go() }\n\nunsafe { bad() }\n";
        let r = lint_file("m/src/lib.rs", src, &cfg());
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].line, 4);
    }

    #[test]
    fn x003_ordering_same_line() {
        let src = "x.load(Ordering::Relaxed); // ORDERING: counter, read after join\n\
                   y.store(1, Ordering::SeqCst);\n";
        let r = lint_file("m/src/lib.rs", src, &cfg());
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].lint, Lint::X003);
        assert_eq!(r.findings[0].line, 2);
    }

    #[test]
    fn x004_multiline_statement() {
        let src = "let s = data\n    .par_iter()\n    .map(|x| x * 2.0)\n    .sum::<f32>();\n\
                   let t = data.iter().sum::<f32>();\n";
        let r = lint_file("m/src/lib.rs", src, &cfg());
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].lint, Lint::X004);
        assert_eq!(r.findings[0].line, 4);
    }

    #[test]
    fn x006_skips_test_mod() {
        let src = "fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let r = lint_file("crates/core/src/lib.rs", src, &Config::workspace());
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].line, 1);
    }

    #[test]
    fn x006_out_of_scope_crate_is_clean() {
        let r =
            lint_file("crates/mesh/src/lib.rs", "fn f() { x.unwrap(); }\n", &Config::workspace());
        assert!(r.findings.is_empty());
    }

    #[test]
    fn x007_timing_module_allowlist() {
        let mut c = cfg();
        c.x007_timing_modules = &["m/src/timer.rs"];
        let src = "let t0 = std::time::Instant::now();\n";
        assert!(lint_file("m/src/timer.rs", src, &c).findings.is_empty());
        assert_eq!(lint_file("m/src/other.rs", src, &c).findings.len(), 1);
    }

    #[test]
    fn x011_partition_module_and_tests_pass() {
        let mut c = cfg();
        c.x011_pinned = &["crates/mesh/"];
        c.x011_partition_modules = &["crates/mesh/src/partition.rs"];
        let src = "let p = Partition::from_assignments(v, 4);\n";
        assert_eq!(lint_file("crates/mesh/src/field.rs", src, &c).findings.len(), 1);
        assert_eq!(lint_file("crates/mesh/src/field.rs", src, &c).findings[0].lint, Lint::X011);
        // The partition module, test code, and out-of-scope paths all pass.
        assert!(lint_file("crates/mesh/src/partition.rs", src, &c).findings.is_empty());
        assert!(lint_file("crates/mesh/tests/part.rs", src, &c).findings.is_empty());
        assert!(lint_file("crates/bench/src/tables.rs", src, &c).findings.is_empty());
    }

    #[test]
    fn reasonless_waiver_is_x000_and_does_not_silence() {
        let src = "// xlint::allow(X001)\nstd::thread::spawn(|| {});\n";
        let r = lint_file("m/src/lib.rs", src, &cfg());
        let ids: Vec<&str> = r.findings.iter().map(|f| f.lint.id()).collect();
        assert!(ids.contains(&"X000") && ids.contains(&"X001"), "{ids:?}");
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "// std::thread::spawn in prose\nlet s = \"Ordering::SeqCst unsafe\";\n";
        let r = lint_file("m/src/lib.rs", src, &cfg());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
