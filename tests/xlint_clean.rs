//! The workspace must stay xlint-clean: zero active findings, a capped
//! number of inline waivers, each with a written reason, and a scope table
//! that names only paths that exist.

use std::path::Path;

#[test]
fn workspace_has_no_active_xlint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = xlint::run_root(root).expect("xlint run failed");
    assert!(
        report.active.is_empty(),
        "active xlint findings (fix or waive with a reason):\n{}",
        xlint::to_text(&report)
    );
}

/// The debt register is the inline waivers, so their number cannot grow
/// unseen: today's ten are seven X006, two X014 and one X007.
#[test]
fn inline_waivers_stay_capped() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = xlint::run_root(root).expect("xlint run failed");
    assert!(
        report.waived.len() <= 10,
        "{} waivers — fix a finding instead of waiving one more:\n{}",
        report.waived.len(),
        xlint::to_json(&report)
    );
}

#[test]
fn waivers_all_carry_reasons() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = xlint::run_root(root).expect("xlint run failed");
    for w in &report.waived {
        assert!(
            !w.reason.trim().is_empty(),
            "waiver at {}:{} has no reason",
            w.finding.file,
            w.finding.line
        );
    }
}

/// A prefix that names nothing scopes nothing: a renamed crate would fall
/// out of its lint silently. The destructuring is exhaustive on purpose, so
/// a new scope list cannot be added without being checked here.
#[test]
fn every_scope_prefix_names_a_path_that_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let xlint::Config {
        walk_roots,
        walk_exclude,
        x005_pinned,
        x006_scopes,
        x007_timing_modules,
        x011_pinned,
        x011_partition_modules,
    } = xlint::Config::workspace();
    for (list, prefixes) in [
        ("walk_roots", walk_roots),
        ("walk_exclude", walk_exclude),
        ("x005_pinned", x005_pinned),
        ("x006_scopes", x006_scopes),
        ("x007_timing_modules", x007_timing_modules),
        ("x011_pinned", x011_pinned),
        ("x011_partition_modules", x011_partition_modules),
    ] {
        assert!(!prefixes.is_empty(), "{list} is empty");
        for prefix in prefixes {
            assert!(root.join(prefix).exists(), "{list}: `{prefix}` names no path under the root");
        }
    }
}

/// The flow lints (X012 clock taint, X013 lock-order cycles, X014 panic
/// reachability) run on every workspace pass and must stay at zero *active*
/// findings; violations are either fixed or carry a written waiver. The
/// waived set is pinned loosely (>=) so adding code can't silently disable
/// the passes: the core → mesh panic-invariant waivers are expected to stay.
/// (X013 has no workspace waiver to count; that pass is pinned by the `x013`
/// flow fixture in `crates/xlint/tests/golden.rs`.)
#[test]
fn flow_lints_run_and_stay_burned_down() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = xlint::run_root(root).expect("xlint run failed");
    for lint in [xlint::Lint::X012, xlint::Lint::X013, xlint::Lint::X014] {
        assert!(
            !report.active.iter().any(|f| f.lint == lint),
            "active {} findings:\n{}",
            lint.id(),
            xlint::to_text(&report)
        );
    }
    let waived_x014 = report.waived.iter().filter(|w| w.finding.lint == xlint::Lint::X014).count();
    assert!(waived_x014 >= 1, "the core slice/faces invariant waivers should still be exercised");
}
