//! The repo's benchmark: five in situ workloads, end-to-end metrics with
//! bounds, and a traced run that breaks a cycle down by layer. See README.md
//! in this directory and BENCHMARK.json at the repo root.
//!
//! ```text
//! insitu-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! insitu-benchmark [--seed <n>] [--seconds <s>] [--runs <k>] [--out <file>]
//! insitu-benchmark --compare <a.json> <b.json>
//! ```
//!
//! The first form is one run of one workload; its last line of output is the
//! result as one JSON object. The second runs every workload, each in a
//! child process of its own, `k` times untraced (seeds `n..n+k`) and once
//! traced, and writes all results to one summary file for `--compare`.

mod calib;
mod compare;
mod host;
mod json;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::Json;
use run::RunConfig;
use spec::WORKLOADS;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  insitu-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  insitu-benchmark [--seed <n>] [--seconds <s>] [--runs <k>] [--out <file>]
  insitu-benchmark --compare <a.json> <b.json>";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    runs: usize,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { runs: 1, ..Args::default() };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                args.seed = value(&mut it, flag)?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 =
                    value(&mut it, flag)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--runs" => {
                args.runs = value(&mut it, flag)?.parse().map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => args.out = Some(value(&mut it, flag)?),
            "--compare" => args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// `BENCHMARK.json`, one directory above this package.
fn spec_path() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json").to_string()
}

/// `run_seconds` of `BENCHMARK.json`: how long a run measures unless told.
fn default_seconds() -> f64 {
    std::fs::read_to_string(spec_path())
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|spec| spec.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(20.0)
}

fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let name = WORKLOADS
        .into_iter()
        .find(|w| *w == workload)
        .ok_or_else(|| format!("unknown workload `{workload}`; one of {}", WORKLOADS.join(", ")))?;
    let cfg = RunConfig {
        workload: name,
        seed: args.seed,
        seconds: args.seconds.unwrap_or_else(default_seconds),
        trace: args.trace,
    };
    let report = run::run(&cfg).map_err(|e| format!("{workload}: {e}"))?;
    print!("{}", report.table());
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// Every workload in a child process of its own (fresh pool, fresh latched
/// `DPP_*` grains, its own `VmHWM`), untraced `runs` times and traced once.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = args.seconds.unwrap_or_else(default_seconds);
    let mut runs = Vec::new();
    let mut all_correct = true;
    for name in WORKLOADS {
        let plan = (0..args.runs).map(|i| (args.seed + i as u64, false)).chain([(args.seed, true)]);
        for (seed, trace) in plan {
            let status = Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .status()
                .map_err(|e| format!("{name}: {e}"))?;
            all_correct &= status.success();
            let kind = if trace { "layers" } else { "e2e" };
            let path = run::out_dir().join(format!("{name}.{kind}.json"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            runs.push(json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    let summary = Json::obj([
        ("benchmark", Json::str("insitu-benchmark")),
        ("host", host::stamp(host::pool_threads())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Arr(runs)),
        ("claim", Json::Null),
    ]);
    let out = match &args.out {
        Some(path) => std::path::PathBuf::from(path),
        None => run::out_dir().join("summary.json"),
    };
    std::fs::write(&out, summary.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("summary written to {}", out.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The global pool (isosurfacing and the compositing exchanges use it)
    // gets the same thread count as the renderer pool; set before anything
    // touches it, because the pool latches its size on first use.
    std::env::set_var("RAYON_NUM_THREADS", host::pool_threads().to_string());

    let outcome = if let Some((a, b)) = &args.compare {
        compare::compare(&spec_path(), a, b)
    } else if let Some(workload) = &args.workload {
        run_one(workload, &args)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("insitu-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
