//! Golden-file tests: each fixture injects positive, waived, and negative
//! cases for one lint; the full JSON report is pinned in
//! `fixtures/x00N.expected.json`. Regenerate with
//! `XLINT_BLESS=1 cargo test -p xlint --test golden` and review the diff.
//!
//! The last test pins parallel determinism on the actual binary (the rayon
//! shim sizes its global pool once per process): `RAYON_NUM_THREADS=1` and
//! `4` must print identical bytes.

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use xlint::{lint_file, to_json, Config, Lint, Report};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures")
}

fn run_fixture(name: &str) -> Report {
    let src = fs::read_to_string(fixture_dir().join(format!("{name}.rs")))
        .unwrap_or_else(|e| panic!("read fixture {name}.rs: {e}"));
    let fr = lint_file(&format!("{name}.rs"), &src, &Config::for_fixtures());
    let mut report = Report { active: fr.findings, waived: fr.waived };
    report.normalize();
    report
}

/// Compare against the pinned JSON, and independently assert the fixture's
/// structure so a blind re-bless can't silently pin an empty report.
fn check(name: &str, lint: Lint, min_active: usize, min_waived: usize) {
    let report = run_fixture(name);
    assert!(
        report.active.iter().filter(|f| f.lint == lint).count() >= min_active,
        "{name}: expected >= {min_active} active {} findings, got:\n{}",
        lint.id(),
        xlint::to_text(&report)
    );
    assert!(
        report.waived.iter().filter(|w| w.finding.lint == lint).count() >= min_waived,
        "{name}: expected >= {min_waived} waived {} findings, got:\n{}",
        lint.id(),
        xlint::to_text(&report)
    );
    for w in &report.waived {
        assert!(!w.reason.trim().is_empty(), "{name}: waiver without reason");
    }

    let actual = to_json(&report);
    let expected_path = fixture_dir().join(format!("{name}.expected.json"));
    if std::env::var_os("XLINT_BLESS").is_some() {
        fs::write(&expected_path, &actual).expect("write expected json");
    }
    let expected = fs::read_to_string(&expected_path)
        .unwrap_or_else(|e| panic!("read {name}.expected.json ({e}); bless with XLINT_BLESS=1"));
    assert_eq!(
        actual, expected,
        "{name}: report drifted from golden file; re-bless with XLINT_BLESS=1 if intended"
    );
}

#[test]
fn x000_reasonless_waiver() {
    // The malformed waiver is reported and the underlying X001 still stands.
    let report = run_fixture("x000");
    assert!(report.active.iter().any(|f| f.lint == Lint::X000));
    assert!(report.active.iter().any(|f| f.lint == Lint::X001));
    check("x000", Lint::X000, 1, 0);
}

#[test]
fn x001_raw_thread_primitives() {
    check("x001", Lint::X001, 3, 1);
}

#[test]
fn x002_unsafe_without_safety() {
    check("x002", Lint::X002, 1, 1);
}

#[test]
fn x003_ordering_without_justification() {
    check("x003", Lint::X003, 2, 1);
}

#[test]
fn x004_parallel_float_reduction() {
    check("x004", Lint::X004, 2, 1);
}

#[test]
fn x005_hashed_containers() {
    check("x005", Lint::X005, 3, 1);
}

#[test]
fn x006_panics_in_library_code() {
    check("x006", Lint::X006, 5, 1);
}

#[test]
fn x007_wall_clock_reads() {
    // Three positives: a plain read, a `use`-aliased read, and a fn-pointer
    // mention of `::now` (no call parens) — the latter two are invisible to
    // a substring scan for the type names.
    check("x007", Lint::X007, 3, 1);
}

#[test]
fn x011_partition_construction_outside_the_partition_module() {
    check("x011", Lint::X011, 2, 1);
}

// ---------------------------------------------------------------------------
// Flow lints (X012–X014): cross-file, so each fixture is a small set of
// virtual files run through the full per-file + call-graph pipeline.
// ---------------------------------------------------------------------------

fn run_flow_fixture(rels: &[&str], cfg: &Config) -> Report {
    let sources: Vec<(String, String)> = rels
        .iter()
        .map(|rel| {
            let path = fixture_dir().join("flow").join(rel);
            (
                rel.to_string(),
                fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("read flow fixture {rel}: {e}")),
            )
        })
        .collect();
    let pairs: Vec<(&str, &str)> = sources.iter().map(|(r, s)| (r.as_str(), s.as_str())).collect();
    xlint::lint_flow_files(&pairs, cfg)
}

fn check_flow(name: &str, report: &Report, lint: Lint, min_active: usize, min_waived: usize) {
    assert!(
        report.active.iter().filter(|f| f.lint == lint).count() >= min_active,
        "{name}: expected >= {min_active} active {} findings, got:\n{}",
        lint.id(),
        xlint::to_text(report)
    );
    assert!(
        report.waived.iter().filter(|w| w.finding.lint == lint).count() >= min_waived,
        "{name}: expected >= {min_waived} waived {} findings, got:\n{}",
        lint.id(),
        xlint::to_text(report)
    );
    for w in &report.waived {
        assert!(!w.reason.trim().is_empty(), "{name}: waiver without reason");
    }
    let actual = to_json(report);
    let expected_path = fixture_dir().join("flow").join(format!("{name}.expected.json"));
    if std::env::var_os("XLINT_BLESS").is_some() {
        fs::write(&expected_path, &actual).expect("write expected json");
    }
    let expected = fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!("read flow/{name}.expected.json ({e}); bless with XLINT_BLESS=1")
    });
    assert_eq!(
        actual, expected,
        "{name}: report drifted from golden file; re-bless with XLINT_BLESS=1 if intended"
    );
}

#[test]
fn x012_clock_taint_through_alias_launder() {
    // The acceptance scenario: the clock read in x012_util.rs is laundered
    // through `use std::time::Instant as Tick`, and the consumer file never
    // mentions a clock type at all. A line-based substring scan for
    // `Instant`/`SystemTime` sees nothing in either file.
    let util = fs::read_to_string(fixture_dir().join("flow").join("x012_util.rs")).unwrap();
    let read_line = util.lines().find(|l| l.contains("::now")).expect("clock read present");
    assert!(
        !read_line.contains("Instant") && !read_line.contains("SystemTime"),
        "the laundered read must not name a clock type on its line: {read_line}"
    );

    let report = run_flow_fixture(&["x012_util.rs", "x012_render.rs"], &Config::for_fixtures());
    // Token-level X007 catches the aliased direct read; X012 catches the
    // consumer that only reaches the clock through the call graph.
    assert!(
        report.active.iter().any(|f| f.lint == Lint::X007 && f.file == "x012_util.rs"),
        "aliased direct read should be X007:\n{}",
        xlint::to_text(&report)
    );
    assert!(
        report.active.iter().any(|f| f.lint == Lint::X012 && f.file == "x012_render.rs"),
        "laundered consumer should be X012:\n{}",
        xlint::to_text(&report)
    );
    check_flow("x012", &report, Lint::X012, 1, 1);
}

#[test]
fn x012_sees_into_a_function_with_an_array_type_in_its_signature() {
    // `stamp(dims: [usize; 3]) -> [f64; 2]` has two `;` before its body. It
    // must still be an item with a body, or the call graph has no `stamp`
    // and its caller `frame` looks clock-free.
    let report = run_flow_fixture(&["x012_array_sig.rs"], &Config::for_fixtures());
    check_flow("x012_array_sig", &report, Lint::X012, 1, 0);
}

#[test]
fn x013_lock_order_cycle() {
    let report = run_flow_fixture(&["x013.rs"], &Config::for_fixtures());
    check_flow("x013", &report, Lint::X013, 1, 1);
    // `consistent` uses the same order as `ab`: exactly the two cycles
    // (a/b active, c/d waived), nothing more.
    assert_eq!(report.active.iter().filter(|f| f.lint == Lint::X013).count(), 1);
}

#[test]
fn x014_panic_reachability_from_modeled_code() {
    // Only the model file is in the modeled scopes; the dependency's panics
    // are out of scope (no X006), but modeled callers inherit the risk.
    let cfg = Config { x006_scopes: &["x014_model.rs"], ..Config::for_fixtures() };
    let report = run_flow_fixture(&["x014_model.rs", "x014_dep.rs"], &cfg);
    assert!(
        !report.active.iter().any(|f| f.lint == Lint::X006),
        "dependency panics are out of X006 scope:\n{}",
        xlint::to_text(&report)
    );
    assert!(
        report.active.iter().all(|f| f.file == "x014_model.rs" || f.lint != Lint::X014),
        "X014 lands on modeled callers only:\n{}",
        xlint::to_text(&report)
    );
    check_flow("x014", &report, Lint::X014, 1, 1);
}

#[test]
fn negatives_do_not_fire() {
    // Every fixture's negative section must stay silent: the only active
    // findings allowed are the fixture's own lint (plus the X000/X001 pair
    // in the x000 fixture).
    let allowed: &[(&str, &[Lint])] = &[
        ("x000", &[Lint::X000, Lint::X001]),
        ("x001", &[Lint::X001]),
        ("x002", &[Lint::X002]),
        ("x003", &[Lint::X003]),
        ("x004", &[Lint::X004]),
        ("x005", &[Lint::X005]),
        ("x006", &[Lint::X006]),
        ("x007", &[Lint::X007]),
        ("x011", &[Lint::X011]),
    ];
    for (name, lints) in allowed {
        let report = run_fixture(name);
        for f in &report.active {
            assert!(
                lints.contains(&f.lint),
                "{name}: unexpected {} at line {}: {}",
                f.lint.id(),
                f.line,
                f.excerpt
            );
        }
    }
}

/// A small lintable tree in a fresh temp dir: one clean file, one X001
/// finding, one waiver.
fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("xlint-golden-it-{tag}"));
    fs::remove_dir_all(&root).ok();
    fs::create_dir_all(root.join("src")).unwrap();
    fs::write(
        root.join("src").join("a.rs"),
        "pub fn spawny() {\n    std::thread::spawn(|| {});\n}\n",
    )
    .unwrap();
    fs::write(
        root.join("src").join("b.rs"),
        "pub fn fine() -> u32 {\n    // xlint::allow(X001): fixture waiver\n    std::thread::spawn(|| {});\n    2\n}\n",
    )
    .unwrap();
    fs::write(root.join("src").join("c.rs"), "pub fn quiet() {}\n").unwrap();
    root
}

/// `RAYON_NUM_THREADS=1` and `=4` must produce byte-identical reports: the
/// parallel per-file pass merges in walk order, never in completion order.
#[test]
fn thread_count_does_not_change_output() {
    let root = fresh_root("threads");
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_xlint"))
            .args(["--json", "--root"])
            .arg(&root)
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("run xlint binary");
        assert!(out.status.success(), "xlint exited nonzero: {:?}", out);
        out.stdout
    };
    let single = run("1");
    let four = run("4");
    assert!(!single.is_empty());
    assert_eq!(single, four, "thread count leaked into the report");

    fs::remove_dir_all(&root).ok();
}
