//! CLI for the repo-native lint pass.
//!
//! ```text
//! cargo run -p xlint --              # report findings, exit 0
//! cargo run -p xlint -- --deny       # exit 1 on any active finding
//! cargo run -p xlint -- --json       # machine-readable output
//! cargo run -p xlint -- --stats      # engine counters + wall time on stderr
//! cargo run -p xlint -- --root DIR   # lint the tree under DIR
//! ```
//!
//! Usage: `xlint [--deny] [--json] [--stats] [--root DIR]`.
//! Every run lints every file; there is no state between runs.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: xlint [--deny] [--json] [--stats] [--root DIR]";

fn main() -> ExitCode {
    // The one sanctioned wall-clock read in this crate: the CLI stopwatch
    // for `--stats` (this file is one of `x007_timing_modules`).
    let t0 = std::time::Instant::now();
    let mut deny = false;
    let mut json = false;
    let mut stats_out = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--stats" => stats_out = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xlint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("xlint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    // `cargo run -p xlint` runs from the workspace root; fall back to the
    // manifest's parent-of-parent so the binary also works when invoked from
    // inside a crate directory.
    let root = root.unwrap_or_else(workspace_root);
    let (report, stats) = match xlint::run_with_stats(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xlint: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", xlint::to_json(&report));
    } else {
        print!("{}", xlint::to_text(&report));
    }
    if stats_out {
        eprint!("{}", stats.render(Some(t0.elapsed().as_millis())));
    }
    if deny && !report.active.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Find the enclosing workspace root: the nearest ancestor of the current
/// directory holding a `Cargo.toml` with `[workspace]`.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
