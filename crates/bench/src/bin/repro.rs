//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p bench-harness --release --bin repro -- <id>... [--full]
//!   <id>:  an id of `EXPERIMENTS` (run with no argument to list them)
//!          | images | all (every `EXPERIMENTS` row, in table order)
//!   --full: paper-shaped sizes (minutes-to-hours); default is quick scale
//! ```
//!
//! Every experiment prints its table and writes a CSV artifact under
//! `repro_out/`. Exits nonzero if any requested stage fails, so CI smoke
//! runs cannot silently pass over a panicking experiment.

use baselines::tuned::Profile;
use bench_harness::{figures, tables, write_artifact, Scale, TextTable};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One experiment: renders its table at the requested scale.
type Experiment = fn(Scale) -> TextTable;

/// The one list of experiment ids: `all`, the usage line and the dispatch in
/// [`run`] all read it.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", |s| tables::table_rt_fps(s, false)),
    ("table2", |s| tables::table_rt_fps(s, true)),
    ("table3", |s| tables::table_rays_comparison(s, Profile::Optix)),
    ("table4", |s| tables::table_rays_comparison(s, Profile::Embree)),
    ("table5", tables::table5),
    ("table6", tables::table6),
    ("table7", tables::table7),
    ("table8", tables::table8),
    ("table9", tables::table9),
    ("table10", |_| tables::table10()),
    ("table11", tables::table11),
    ("table12", tables::table12),
    ("table13", tables::table13),
    ("table14", tables::table14),
    ("table15", tables::table15),
    ("table16", tables::table16),
    ("table17", tables::table17),
    ("fig4", |s| figures::fig_phase_sweep(s, false)),
    ("fig5", |s| figures::fig_phase_sweep(s, true)),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
    ("fig13", figures::fig13),
    ("fig14", figures::fig14),
    ("fig15", figures::fig15),
    ("ablations", tables::ablations),
    ("compression", tables::compression),
    ("dfb", tables::dfb),
    ("sched", tables::sched_demo),
    ("feasd", tables::feasd_demo),
    ("rebalance", tables::rebalance),
    ("scaling", tables::scaling),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--full") { Scale::Full } else { Scale::Quick };
    let ids: Vec<&str> = args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();
    if ids.is_empty() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        eprintln!("usage: repro <{}|images|all> [--full]", ids.join("|"));
        std::process::exit(2);
    }
    let mut failures = Vec::new();
    for id in ids {
        if id == "images" {
            if catch_unwind(AssertUnwindSafe(|| bench_harness::images::all(scale))).is_err() {
                failures.push("images");
            }
            continue;
        }
        if id == "all" {
            for &(t, _) in EXPERIMENTS {
                if catch_unwind(AssertUnwindSafe(|| run(t, scale))).is_err() {
                    failures.push(t);
                }
            }
        } else if catch_unwind(AssertUnwindSafe(|| run(id, scale))).is_err() {
            failures.push(id);
        }
    }
    if !failures.is_empty() {
        eprintln!("FAILED stages: {}", failures.join(", "));
        std::process::exit(1);
    }
}

fn run(id: &str, scale: Scale) {
    let ((), seconds) = dpp::timed(|| {
        let Some(&(_, experiment)) = EXPERIMENTS.iter().find(|&&(e, _)| e == id) else {
            eprintln!("unknown experiment id: {id}");
            std::process::exit(2);
        };
        let table = experiment(scale);
        println!("{}", table.render());
        write_artifact(&format!("{id}.csv"), &table.to_csv());
    });
    println!("[{id} done in {seconds:.1}s]\n");
}
