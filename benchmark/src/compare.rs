//! `--compare a.json b.json`: two result sets of this benchmark, judged by
//! the bounds in `BENCHMARK.json`. One row per (workload, end-to-end metric)
//! with both medians, the ratio with its base, both spreads, and a verdict.

use crate::json::{self, Json};
use crate::stats::{median, spread};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the bound cannot
    /// tell a change from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `a` is the base, `b` the candidate. Worsening is the share of `a`'s
/// median by which `b`'s median is worse.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let ratio = if ma == 0.0 { 1.0 } else { mb / ma };
    let worsening = if lower_is_better { ratio - 1.0 } else { 1.0 - ratio };
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let every_run_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let verdict = if worsening > bound {
        Verdict::Regressed
    } else if spread(a).max(spread(b)) > bound && !every_run_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (ratio, verdict)
}

/// workload -> metric -> values of the untraced runs, plus failures seen.
struct ResultSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failed: BTreeMap<String, f64>,
}

/// Reads either a summary (`{"runs":[...]}`) or a single result file.
fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let single = [doc.clone()];
    let runs = match doc.get("runs") {
        Some(runs) => runs.as_arr(),
        None => &single,
    };
    let mut set = ResultSet { values: BTreeMap::new(), failed: BTreeMap::new() };
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: a run without a workload"))?;
        *set.failed.entry(workload.to_string()).or_default() +=
            run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if run.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let metrics = run.get("metrics").map(Json::as_obj).unwrap_or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                let by_metric = set.values.entry(workload.to_string()).or_default();
                by_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// Prints the table; `Ok(true)` when every row is `ok`.
pub fn compare(spec_path: &str, path_a: &str, path_b: &str) -> Result<bool, String> {
    let spec_text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = json::parse(&spec_text).map_err(|e| format!("{spec_path}: {e}"))?;
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut all_ok = true;
    println!(
        "{:<28} {:<16} {:>13} {:>13} {:>9} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a", "spread a", "spread b", "bound"
    );
    for (workload, metrics_a) in &a.values {
        let Some(metrics_b) = b.values.get(workload) else {
            println!("{workload:<28} missing from {path_b}");
            all_ok = false;
            continue;
        };
        for m in spec.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = m.get("better").and_then(Json::as_str) != Some("higher");
            let (Some(va), Some(vb)) = (metrics_a.get(name), metrics_b.get(name)) else {
                println!("{workload:<28} {name:<16} missing");
                all_ok = false;
                continue;
            };
            let (ratio, verdict) = judge(va, vb, lower, bound);
            all_ok &= verdict == Verdict::Ok;
            println!(
                "{workload:<28} {name:<16} {:>13.6} {:>13.6} {ratio:>9.4} {:>9.4} {:>9.4} {bound:>6.2}  {}",
                median(va),
                median(vb),
                spread(va),
                spread(vb),
                verdict.label()
            );
        }
        // Any failed operation is a regression, whatever the timings say.
        let failed = a.failed.get(workload).copied().unwrap_or(0.0)
            + b.failed.get(workload).copied().unwrap_or(0.0);
        if failed > 0.0 {
            println!("{workload:<28} {:<16} {failed} operations failed  regressed", "failed");
            all_ok = false;
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Within the bound, tight spread.
        assert_eq!(judge(&base, &[1.05, 1.04, 1.06], true, 0.10).1, Verdict::Ok);
        // Past the bound.
        assert_eq!(judge(&base, &[1.15, 1.14, 1.16], true, 0.10).1, Verdict::Regressed);
        // A higher-is-better metric that drops regresses; one that rises is ok.
        assert_eq!(judge(&base, &[0.85, 0.84, 0.86], false, 0.10).1, Verdict::Regressed);
        assert_eq!(judge(&base, &[1.30, 1.31, 1.29], false, 0.10).1, Verdict::Ok);
        // Medians agree but the spread is wider than the bound.
        let noisy = [0.7, 1.0, 1.3, 0.8, 1.2];
        assert_eq!(judge(&base, &noisy, true, 0.10).1, Verdict::Unresolved);
        // ... unless every run of b beats every run of a.
        let fast_noisy = [0.3, 0.5, 0.7, 0.4, 0.6];
        assert_eq!(judge(&base, &fast_noisy, true, 0.10).1, Verdict::Ok);
        let (ratio, _) = judge(&[2.0], &[3.0], true, 0.25);
        assert_eq!(ratio, 1.5);
    }
}
