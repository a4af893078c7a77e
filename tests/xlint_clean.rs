//! The workspace must stay xlint-clean: zero active findings, and the
//! grandfathered baseline must stay small, justified, and non-stale.

use std::path::Path;

#[test]
fn workspace_has_no_active_xlint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (report, _cfg) = xlint::run_root(root).expect("xlint run failed");
    assert!(
        report.active.is_empty(),
        "active xlint findings (fix or waive with a reason):\n{}",
        xlint::to_text(&report)
    );
}

#[test]
fn baseline_stays_small_and_justified() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (report, cfg) = xlint::run_root(root).expect("xlint run failed");
    assert!(
        report.baselined.len() <= 5,
        "baseline grew to {} findings — fix debt instead of grandfathering more",
        report.baselined.len()
    );
    for entry in &cfg.baseline {
        assert!(
            entry.reason.trim().len() >= 10,
            "baseline entry {} in {} needs a real written reason",
            entry.lint,
            entry.file
        );
    }
    assert!(
        report.stale_baseline.is_empty(),
        "stale baseline capacity (shrink counts in xlint.toml):\n{}",
        xlint::to_text(&report)
    );
}

#[test]
fn waivers_all_carry_reasons() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (report, _cfg) = xlint::run_root(root).expect("xlint run failed");
    for w in &report.waived {
        assert!(
            !w.reason.trim().is_empty(),
            "waiver at {}:{} has no reason",
            w.finding.file,
            w.finding.line
        );
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
    let (report, _cfg) = xlint::run_root(root).expect("xlint run failed");
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
