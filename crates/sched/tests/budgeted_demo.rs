//! Acceptance tests for the budgeted demo loop (ISSUE 2, criteria a and b):
//! a 64-rank LULESH-driven run must keep at least 95% of cycles within the
//! render budget while the unscheduled baseline blows it, and the online
//! refit must strictly reduce median prediction error between the first and
//! last quartile of cycles.

use sched::{run_budgeted_demo, DemoConfig};
use sims::Lulesh;

#[test]
fn lulesh_scheduled_run_keeps_budget_while_unscheduled_blows_it() {
    let mut sim = Lulesh::new(10);
    let scheduled = run_budgeted_demo(&mut sim, &DemoConfig::quick(true));

    let mut sim = Lulesh::new(10);
    let blind = run_budgeted_demo(&mut sim, &DemoConfig::quick(false));

    assert_eq!(scheduled.budget_s, blind.budget_s, "both runs judge the same budget");
    assert!(
        scheduled.adherence() >= 0.95,
        "scheduled adherence {} < 0.95 (budget {} s)",
        scheduled.adherence(),
        scheduled.budget_s
    );
    assert!(
        blind.adherence() < 0.5,
        "unscheduled baseline should blow the budget, adherence {}",
        blind.adherence()
    );
    // The budget only holds because the scheduler actually intervened.
    assert!(scheduled.degraded_total() > 0, "expected at least one degraded frame");
    assert_eq!(blind.degraded_total(), 0, "the blind run must not degrade anything");
}

#[test]
fn online_refit_strictly_reduces_prediction_error() {
    let mut sim = Lulesh::new(10);
    let report = run_budgeted_demo(&mut sim, &DemoConfig::quick(true));

    let first = report.first_quartile_error();
    let last = report.last_quartile_error();
    assert!(
        last < first,
        "median abs rel error must strictly drop: first quartile {first}, last quartile {last}"
    );
    // The prior is off by the demo's `PRIOR_SCALE` (60%); converged predictions
    // should sit near the executor's noise floor.
    assert!(first > 0.15, "first-quartile error {first} should reflect the bad prior");
    assert!(last < 0.10, "last-quartile error {last} should be near the noise level");
}

#[test]
fn all_three_proxies_hold_the_budget() {
    let mut lulesh = Lulesh::new(10);
    let mut kripke = sims::Kripke::new(12);
    let mut clover = sims::Cloverleaf::new(12);
    let sims: [&mut dyn sims::ProxySim; 3] = [&mut lulesh, &mut kripke, &mut clover];
    for sim in sims {
        let report = run_budgeted_demo(sim, &DemoConfig::quick(true));
        assert!(
            report.adherence() >= 0.95,
            "{}: adherence {} < 0.95",
            report.sim,
            report.adherence()
        );
    }
}
