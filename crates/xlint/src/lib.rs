//! `xlint` — the repo-native static-analysis pass.
//!
//! Walks every `.rs` file under the roots in [`Config::workspace`]
//! (`crates/`, `src/`, `tests/`, `examples/` — the shims are deliberately
//! *not* walked: they are the blessed implementation layer the lints push
//! callers toward) and enforces the determinism & concurrency invariants
//! behind the bit-exact-parallel guarantee. See DESIGN.md § "Determinism
//! invariants" for the catalog rationale and `Lint` for the machine view.
//!
//! A finding is silenced one way, which leaves a written trail: an inline
//! `// xlint::allow(X00n): reason` on or directly above the line.

pub mod callgraph;
pub mod config;
pub mod flow;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod syntax;

pub use config::Config;
pub use lints::{lint_file, FileReport, Finding, Lint, Waived};
pub use report::{to_json, to_text, Report};

use rayon::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Collect every `.rs` file under `root` selected by the config, as sorted
/// root-relative `/`-separated paths.
pub fn collect_files(root: &Path, cfg: &Config) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for wr in cfg.walk_roots {
        let dir = root.join(wr);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        } else if dir.is_file() && wr.ends_with(".rs") {
            out.push(dir);
        }
    }
    let mut rels: Vec<String> = out
        .into_iter()
        .filter_map(|p| {
            let rel = p.strip_prefix(root).ok()?.to_string_lossy().replace('\\', "/");
            let rel = rel.strip_prefix("./").unwrap_or(&rel).to_string();
            let excluded = lints::path_in(&rel, cfg.walk_exclude)
                || rel.split('/').any(|c| c == "target" || c == "fixtures");
            (!excluded).then_some(rel)
        })
        .collect();
    rels.sort();
    rels.dedup();
    Ok(rels)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lint the tree under `root` with this repository's scopes. This is the
/// whole programmatic entry point; the workspace test calls it, and the CLI
/// calls [`run_with_stats`] underneath it.
pub fn run_root(root: &Path) -> Result<Report, String> {
    run_with_stats(root).map(|(report, _)| report)
}

/// Run the per-file lints plus the cross-file flow pass (X012–X014) over a
/// set of in-memory `(rel, source)` files. This is the harness the flow
/// golden fixtures use: the flow lints need multiple virtual files (a
/// modeled caller plus an out-of-scope dependency) without a tree on disk.
pub fn lint_flow_files(files: &[(&str, &str)], cfg: &Config) -> Report {
    let analyzed = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), lints::analyze_file(rel, src, cfg)))
        .collect();
    let (mut report, _) = cross_file(analyzed, &HashMap::new(), cfg);
    report.normalize();
    report
}

/// [`run_root`], also returning the engine counters behind `--stats`: one
/// parallel pass that reads, lexes, extracts and lints each file once, then
/// the cross-file passes.
pub fn run_with_stats(root: &Path) -> Result<(Report, callgraph::GraphStats), String> {
    let cfg = &Config::workspace();
    let files = collect_files(root, cfg).map_err(|e| format!("walking {root:?}: {e}"))?;

    // The rayon shim's ordered collect keeps results in walk order
    // regardless of worker count.
    let analyzed: Vec<Result<(String, lints::FileAnalysis), String>> = files
        .par_iter()
        .map(|rel| {
            let source = std::fs::read_to_string(root.join(rel))
                .map_err(|e| format!("reading {rel}: {e}"))?;
            Ok((rel.clone(), lints::analyze_file(rel, &source, cfg)))
        })
        .collect();
    let analyzed: Vec<_> = analyzed.into_iter().collect::<Result<_, _>>()?;

    let (mut report, stats) = cross_file(analyzed, &callgraph::workspace_crate_names(root), cfg);
    report.normalize();
    Ok((report, stats))
}

/// Merge the per-file results in walk order, then run the cross-file passes
/// over them: the workspace call graph and the flow lints X012–X014.
fn cross_file(
    mut analyzed: Vec<(String, lints::FileAnalysis)>,
    crate_names: &HashMap<String, String>,
    cfg: &Config,
) -> (Report, callgraph::GraphStats) {
    let mut report = Report::default();
    for (_, a) in &mut analyzed {
        report.active.append(&mut a.report.findings);
        report.waived.append(&mut a.report.waived);
    }
    let graph_files: Vec<_> = analyzed.iter().map(|(rel, a)| (rel.as_str(), &a.syntax)).collect();
    let graph = callgraph::build(&graph_files, crate_names);
    let flow_files: Vec<flow::FlowFile> = analyzed
        .iter()
        .map(|(rel, a)| flow::FlowFile { rel, lines: &a.lines, syntax: &a.syntax })
        .collect();
    let fr = flow::run(&flow_files, &graph, cfg);
    report.active.extend(fr.findings);
    report.waived.extend(fr.waived);
    (report, graph.stats)
}
