//! The scheduler's per-job receipts: a golden of the receipt log of a
//! 20-cycle LULESH `run_budgeted_demo`, and the demo's pairing of every
//! executed job with exactly its two samples.

use sched::{run_budgeted_demo, CycleRecord, DemoConfig, Receipt};
use sims::Lulesh;

fn demo_cycles(cycles: usize) -> Vec<CycleRecord> {
    let mut sim = Lulesh::new(10);
    run_budgeted_demo(&mut sim, &DemoConfig { cycles, ..DemoConfig::quick(true) }).cycles
}

/// Every field of a receipt that the Table-16 split reads, at the precision
/// of `repro_out/sched_trajectory.csv`.
fn receipt_line(r: &Receipt) -> String {
    let secs = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{s:.6e}"));
    let (job, obs) = (r.job, r.observed);
    let what = match (r.request, job) {
        (None, _) => "unpriced".to_string(),
        (Some(q), None) => format!("{} {}x{} rejected", q.renderer.name(), q.width, q.height),
        (Some(_), Some(j)) => format!("{} {}@{}", j.cfg.renderer.name(), j.rung.label(), j.width),
    };
    format!(
        "  L{} {what} | ap {} {} | t(map) {} t(obs) {} measured {} | build {} {} | comp {} {}",
        r.level,
        secs(job.map(|j| j.mapped.active_pixels)),
        secs(obs.map(|o| o.active_pixels)),
        secs(job.map(|j| j.local_s)),
        secs(obs.map(|_| r.t_obs_s)),
        secs(obs.map(|o| o.render_seconds)),
        secs(job.map(|j| j.build_s)),
        secs(obs.map(|o| o.build_seconds)),
        secs(job.map(|j| j.comp_s)),
        secs(r.exchange_s),
    )
}

fn receipt_log(cycles: &[CycleRecord]) -> String {
    let mut log = String::new();
    for c in cycles {
        log.push_str(&format!(
            "c{} L{} budget {:.6e} predicted {:.6e} actual {:.6e} refit {:?} rejected {:?}\n",
            c.cycle,
            c.level,
            c.budget_s,
            c.predicted_s(),
            c.actual_s(),
            c.refit.refitted,
            c.refit.rejected,
        ));
        for r in &c.receipts {
            log.push_str(&receipt_line(r));
            log.push('\n');
        }
    }
    log
}

/// The receipt log of 20 scheduled LULESH cycles, byte for byte. The demo
/// runs on a simulated clock, so this is a function of the code alone; a
/// change that is meant to move it replaces `golden/receipts_lulesh_20.txt`
/// with the log this test prints on failure.
#[test]
fn lulesh_receipt_log_matches_its_golden() {
    let log = receipt_log(&demo_cycles(20));
    let golden = include_str!("golden/receipts_lulesh_20.txt");
    assert!(log == golden, "receipt log moved; new log:\n{log}");
}

/// Each admitted or degraded job of the demo is executed once and reports
/// one render and one exchange, so each priced receipt holds exactly those
/// two samples, and no sample is left over to open an unpriced receipt.
/// Dropped frames execute nothing.
#[test]
fn every_demo_job_is_matched_by_its_two_samples() {
    let cycles = demo_cycles(40);
    let mut jobs = 0;
    for c in &cycles {
        for r in &c.receipts {
            assert!(r.request.is_some(), "c{}: unpriced receipt {r:?}", c.cycle);
            match r.job {
                Some(_) => {
                    assert!(r.observed.is_some() && r.exchange_s.is_some(), "{r:?}");
                    jobs += 1;
                }
                None => assert!(r.observed.is_none() && r.exchange_s.is_none(), "{r:?}"),
            }
        }
        let sum = c.admitted() + c.degraded() + c.rejected();
        assert_eq!(sum as usize, c.receipts.len());
    }
    assert!(jobs > 40, "{jobs} jobs in 40 cycles");
}
