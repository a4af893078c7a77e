//! `xlint` — the repo-native static-analysis pass.
//!
//! Walks every `.rs` file under the configured roots (`crates/`, `src/`,
//! `tests/`, `examples/` by default — the shims are deliberately *not*
//! walked: they are the blessed implementation layer the lints push callers
//! toward) and enforces the determinism & concurrency invariants behind the
//! bit-exact-parallel guarantee. See DESIGN.md § "Determinism invariants"
//! for the catalog rationale and `Lint` for the machine view.
//!
//! Findings can be silenced two ways, both leaving a written trail:
//! * inline: `// xlint::allow(X00n): reason` on or directly above the line;
//! * `xlint.toml` `[[baseline]]` entries for grandfathered debt.

pub mod callgraph;
pub mod config;
pub mod flow;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod sarif;
pub mod syntax;

pub use config::{BaselineEntry, Config, ConfigError};
pub use lints::{lint_file, FileReport, Finding, Lint, Waived};
pub use report::{to_json, to_text, Report};
pub use sarif::to_sarif;

use rayon::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Collect every `.rs` file under `root` selected by the config, as sorted
/// root-relative `/`-separated paths.
pub fn collect_files(root: &Path, cfg: &Config) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for wr in &cfg.walk_roots {
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
            let excluded = cfg.walk_exclude.iter().any(|e| rel.starts_with(e.as_str()))
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

/// Engine counters for `--stats`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stats {
    /// Files walked.
    pub files: usize,
    /// Call-graph size and call-resolution precision ledger.
    pub graph: callgraph::GraphStats,
}

impl Stats {
    /// Human-readable rendering; `wall_ms` is measured by the CLI (the
    /// library never reads the clock — X007 applies to xlint too).
    pub fn render(&self, wall_ms: Option<u128>) -> String {
        let g = &self.graph;
        let mut out = String::new();
        out.push_str(&format!(
            "xlint stats: {} files, {} tokens, {} functions, {} call edges\n",
            self.files, g.tokens, g.fns, g.edges
        ));
        out.push_str(&format!(
            "  call resolution: {} path + {} method resolved; \
             {} external, {} constructor, {} ambiguous-method, \
             {} unmatched-method, {} unresolved\n",
            g.resolved,
            g.resolved_method,
            g.external,
            g.constructor,
            g.ambiguous_method,
            g.unmatched_method,
            g.unresolved
        ));
        if let Some(ms) = wall_ms {
            out.push_str(&format!("  wall time: {ms} ms\n"));
        }
        out
    }
}

/// Load `xlint.toml` from `root` (defaults when absent), lint the tree, and
/// apply the baseline. This is the whole programmatic entry point; the CLI
/// and the workspace test are thin wrappers over it and [`run_with_config`].
pub fn run_root(root: &Path) -> Result<(Report, Config), String> {
    let cfg = config::load(root)?;
    let (report, _) = run_with_config(root, &cfg)?;
    Ok((report, cfg))
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

/// Lint the tree under `root` with an explicit config: one parallel pass
/// that reads, lexes, extracts and lints each file once, then the cross-file
/// passes. Also returns the engine counters behind `--stats`.
pub fn run_with_config(root: &Path, cfg: &Config) -> Result<(Report, Stats), String> {
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

    let (mut report, graph) = cross_file(analyzed, &callgraph::workspace_crate_names(root), cfg);
    apply_baseline(&mut report, cfg);
    report.normalize();
    Ok((report, Stats { files: files.len(), graph }))
}

/// Merge the per-file results in walk order, then run the cross-file passes
/// over them: the workspace call graph and the flow lints X012–X014.
fn cross_file(
    analyzed: Vec<(String, lints::FileAnalysis)>,
    crate_names: &HashMap<String, String>,
    cfg: &Config,
) -> (Report, callgraph::GraphStats) {
    let mut report = Report::default();
    let mut graph_files = Vec::with_capacity(analyzed.len());
    let mut views = Vec::with_capacity(analyzed.len());
    for (rel, a) in analyzed {
        report.active.extend(a.report.findings);
        report.waived.extend(a.report.waived);
        graph_files.push((rel, a.syntax));
        views.push(a.lines);
    }
    let graph = callgraph::build(&graph_files, crate_names);
    let flow_files: Vec<flow::FlowFile> = graph_files
        .iter()
        .zip(&views)
        .map(|((rel, syntax), lines)| flow::FlowFile { rel, lines, syntax })
        .collect();
    let fr = flow::run(&flow_files, &graph, cfg);
    report.active.extend(fr.findings);
    report.waived.extend(fr.waived);
    (report, graph.stats)
}

/// Move baseline-covered findings out of `active`, tracking leftover
/// (stale) baseline capacity.
fn apply_baseline(report: &mut Report, cfg: &Config) {
    let mut remaining: Vec<(usize, BaselineEntry)> =
        cfg.baseline.iter().map(|b| (b.count, b.clone())).collect();
    let mut active = Vec::new();
    for f in report.active.drain(..) {
        let slot = remaining
            .iter_mut()
            .find(|(left, b)| *left > 0 && b.lint == f.lint.id() && b.file == f.file);
        match slot {
            Some((left, _)) => {
                *left -= 1;
                report.baselined.push(f);
            }
            None => active.push(f),
        }
    }
    report.active = active;
    report.stale_baseline = remaining
        .into_iter()
        .filter(|(left, _)| *left > 0)
        .map(|(left, mut b)| {
            b.count = left;
            b
        })
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_absorbs_up_to_count_and_reports_stale() {
        let mut cfg = Config::for_fixtures();
        cfg.baseline.push(BaselineEntry {
            lint: "X001".into(),
            file: "m.rs".into(),
            count: 3,
            reason: "legacy".into(),
        });
        let mut report = Report::default();
        for line in [1, 2] {
            report.active.push(Finding {
                lint: Lint::X001,
                file: "m.rs".into(),
                line,
                excerpt: String::new(),
            });
        }
        report.active.push(Finding {
            lint: Lint::X002,
            file: "m.rs".into(),
            line: 9,
            excerpt: String::new(),
        });
        apply_baseline(&mut report, &cfg);
        assert_eq!(report.active.len(), 1);
        assert_eq!(report.baselined.len(), 2);
        assert_eq!(report.stale_baseline.len(), 1);
        assert_eq!(report.stale_baseline[0].count, 1);
    }
}
