//! The flow-aware lints: X012 clock taint, X013 lock-order cycles, X014
//! panic-path reachability. All three run over the workspace call graph
//! built by [`crate::callgraph`].
//!
//! ## Barrier + frontier semantics
//!
//! Naive transitive taint would flag every ancestor of a violation — one
//! laundered clock read would light up half the workspace. Both taint lints
//! instead report at the *frontier* and stop at *barriers*:
//!
//! * **Sources** are functions that directly contain the violation
//!   (an unwaived clock read outside the timing modules for X012; an
//!   unwaived panic outside X006's accounted scope for X014).
//! * **Barriers** are sanctioned functions taint cannot flow out of:
//!   anything in an `x007_timing_modules` file (that *is* the measurement
//!   API), and any function whose direct violations are all waived with a
//!   written reason — one waiver on the wrapper covers every caller.
//! * **Findings** land on the first in-scope caller: each reported function
//!   is itself accounted, so its own callers stay clean. Fixing or waiving
//!   the frontier silences the subtree above it.
//!
//! Taint still travels *through* functions that can never be reported
//! (out-of-scope helpers for X014), which is what makes the lints
//! flow-aware rather than one-hop.

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::lints::MaskedLine;
use crate::lints::{self, FileReport, Lint};
use crate::syntax::FileSyntax;

/// Per-file inputs the flow pass needs.
pub struct FlowFile<'a> {
    pub rel: &'a str,
    pub lines: &'a [MaskedLine],
    pub syntax: &'a FileSyntax,
}

/// Run X012/X013/X014 over the workspace. Returned findings/waivers carry
/// absolute file paths and 1-based lines, unsorted (the caller normalizes).
pub fn run(files: &[FlowFile], graph: &CallGraph, cfg: &Config) -> FileReport {
    let mut hits: Vec<(Lint, usize, usize)> = Vec::new(); // (lint, file_idx, line0)
    clock_taint(files, graph, cfg, &mut hits);
    panic_taint(files, graph, cfg, &mut hits);
    lock_cycles(files, graph, &mut hits);

    hits.sort_unstable_by_key(|&(lint, f, l)| (f, l, lint));
    hits.dedup();
    let mut out = FileReport::default();
    let mut i = 0;
    while i < hits.len() {
        let file_idx = hits[i].1;
        let mut per_file: Vec<(Lint, usize)> = Vec::new();
        while i < hits.len() && hits[i].1 == file_idx {
            per_file.push((hits[i].0, hits[i].2));
            i += 1;
        }
        let fr = lints::file_report(files[file_idx].rel, files[file_idx].lines, per_file);
        out.findings.extend(fr.findings);
        out.waived.extend(fr.waived);
    }
    out
}

/// Is the violation on `line0` sanctioned by an inline waiver for `lint`?
fn line_waived(lines: &[MaskedLine], line0: usize, lint: Lint) -> bool {
    matches!(lints::waiver_for(lines, line0, lint), Some(Ok(_)))
}

/// Shared taint engine: BFS the reverse call graph from `sources`, flowing
/// only through `pass_through` nodes, then report each `reportable`
/// non-source node with an edge into the tainted set.
fn taint_findings(
    graph: &CallGraph,
    files: &[FlowFile],
    lint: Lint,
    sources: &[bool],
    pass_through: &[bool],
    reportable: &[bool],
    hits: &mut Vec<(Lint, usize, usize)>,
) {
    let n = graph.nodes.len();
    let mut tainted = sources.to_vec();
    let mut queue: Vec<usize> = (0..n).filter(|&i| tainted[i]).collect();
    while let Some(s) = queue.pop() {
        for &caller in &graph.callers[s] {
            if !tainted[caller] && pass_through[caller] {
                tainted[caller] = true;
                queue.push(caller);
            }
        }
    }
    for i in 0..n {
        if !reportable[i] || sources[i] {
            continue;
        }
        let node = &graph.nodes[i];
        let item = &files[node.file_idx].syntax.fns[node.fn_idx];
        for e in &graph.callees[i] {
            if tainted[e.callee] {
                hits.push((lint, node.file_idx, item.calls[e.call_idx].line - 1));
            }
        }
    }
}

/// X012 — functions outside the timing modules that call into a transitive
/// wall-clock read. Direct reads are X007's per-line business; this lint
/// covers the callers line-based analysis cannot see.
fn clock_taint(
    files: &[FlowFile],
    graph: &CallGraph,
    cfg: &Config,
    hits: &mut Vec<(Lint, usize, usize)>,
) {
    let n = graph.nodes.len();
    let in_timing: Vec<bool> =
        files.iter().map(|f| lints::path_in(f.rel, cfg.x007_timing_modules)).collect();
    let mut sources = vec![false; n];
    let mut pass_through = vec![false; n];
    let mut reportable = vec![false; n];
    for (i, node) in graph.nodes.iter().enumerate() {
        let f = &files[node.file_idx];
        let item = &f.syntax.fns[node.fn_idx];
        if in_timing[node.file_idx] {
            continue; // sanctioned measurement code: barrier, never tainted
        }
        // A clock-reading fn is a source unless every read is waived (a
        // waived wrapper is a sanctioned barrier — its callers are covered
        // by the written reason).
        let unwaived_read =
            item.clock_lines.iter().any(|&l| !line_waived(f.lines, l - 1, Lint::X007));
        sources[i] = unwaived_read;
        reportable[i] = !node.is_test;
        // Taint flows through nodes that can never carry a finding (test
        // helpers) so prod → test-helper → clock chains still surface.
        pass_through[i] = node.is_test && !unwaived_read;
    }
    taint_findings(graph, files, Lint::X012, &sources, &pass_through, &reportable, hits);
}

/// X014 — functions in the modeled scope (`x006_scopes`) that transitively
/// reach `panic!`/`unwrap`/`expect` through non-test code. Direct panics
/// inside the scope are X006-accounted (active or waived) and do not taint;
/// the lint exists for the panics *outside* it which modeled code depends on.
fn panic_taint(
    files: &[FlowFile],
    graph: &CallGraph,
    cfg: &Config,
    hits: &mut Vec<(Lint, usize, usize)>,
) {
    let n = graph.nodes.len();
    let modeled: Vec<bool> = files.iter().map(|f| lints::path_in(f.rel, cfg.x006_scopes)).collect();
    let mut sources = vec![false; n];
    let mut pass_through = vec![false; n];
    let mut reportable = vec![false; n];
    for (i, node) in graph.nodes.iter().enumerate() {
        let f = &files[node.file_idx];
        let item = &f.syntax.fns[node.fn_idx];
        if node.is_test {
            continue; // test code may panic, and nothing modeled calls it
        }
        if modeled[node.file_idx] {
            reportable[i] = true; // its own panics are X006's: neither source nor conduit
        } else {
            sources[i] = item.panic_lines.iter().any(|&l| !line_waived(f.lines, l - 1, Lint::X014));
            pass_through[i] = !sources[i];
        }
    }
    taint_findings(graph, files, Lint::X014, &sources, &pass_through, &reportable, hits);
}

/// X013 — lock-order cycles. Replays every non-test function's guard
/// intervals (acquisitions, `drop()` releases, statement/block scoping,
/// `let`-bound guard-returning calls) against the call graph's transitive
/// acquire sets, builds the "a held while acquiring b" graph over lock
/// identities, and reports every strongly connected component.
fn lock_cycles(files: &[FlowFile], graph: &CallGraph, hits: &mut Vec<(Lint, usize, usize)>) {
    let n = graph.nodes.len();

    // Lock identity, stable across call sites: `self.field` qualifies with
    // the impl type (one identity per struct field), `UPPER` statics stay
    // global, everything else (params, locals) qualifies with the owning
    // function so same-named params in different fns can't alias.
    let qual = |node_idx: usize, name: &str| -> String {
        let node = &graph.nodes[node_idx];
        if let Some(rest) = name.strip_prefix("self.") {
            let owner = node.impl_type.clone().unwrap_or_else(|| node.display());
            format!("{owner}.{rest}")
        } else if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            name.to_string()
        } else {
            format!("{}::{}", node.display(), name)
        }
    };

    // Direct acquires per node, then the transitive fixpoint over callees.
    let direct: Vec<Vec<String>> = (0..n)
        .map(|i| {
            let node = &graph.nodes[i];
            let item = &files[node.file_idx].syntax.fns[node.fn_idx];
            let mut v: Vec<String> = item.locks.iter().map(|l| qual(i, &l.name)).collect();
            v.sort();
            v.dedup();
            v
        })
        .collect();
    let mut trans = direct.clone();
    loop {
        let mut changed = false;
        for i in 0..n {
            let mut add: Vec<String> = Vec::new();
            for e in &graph.callees[i] {
                for t in &trans[e.callee] {
                    if !trans[i].contains(t) && !add.contains(t) {
                        add.push(t.clone());
                    }
                }
            }
            if !add.is_empty() {
                trans[i].extend(add);
                trans[i].sort();
                trans[i].dedup();
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges with provenance: (from, to, file_idx, line0).
    let mut edges: Vec<(String, String, usize, usize)> = Vec::new();
    for i in 0..n {
        let node = &graph.nodes[i];
        if node.is_test {
            continue;
        }
        let item = &files[node.file_idx].syntax.fns[node.fn_idx];
        // What does each event acquire? Locks: themselves. Calls: the
        // callee's transitive set (entered and released inside the call).
        let mut events: Vec<(u32, Vec<String>, usize)> = Vec::new(); // (seq, acquired, line)
        for l in &item.locks {
            events.push((l.seq, vec![qual(i, &l.name)], l.line));
        }
        for (ci, c) in item.calls.iter().enumerate() {
            let mut acq: Vec<String> = Vec::new();
            for e in graph.callees[i].iter().filter(|e| e.call_idx == ci) {
                acq.extend(trans[e.callee].iter().cloned());
            }
            if !acq.is_empty() {
                events.push((c.seq, acq, c.line));
            }
        }
        events.sort_by_key(|e| e.0);
        // Holders: every lock over its interval, plus `let`-bound calls as
        // pseudo-holds of the callee's *direct* acquires (the returned
        // guard).
        let mut holders: Vec<(u32, u32, Vec<String>)> = Vec::new();
        for l in &item.locks {
            holders.push((l.seq, l.end_seq, vec![qual(i, &l.name)]));
        }
        for (ci, c) in item.calls.iter().enumerate() {
            if !c.bound {
                continue;
            }
            let mut held: Vec<String> = Vec::new();
            for e in graph.callees[i].iter().filter(|e| e.call_idx == ci) {
                held.extend(direct[e.callee].iter().cloned());
            }
            if !held.is_empty() {
                holders.push((c.seq, c.end_seq, held));
            }
        }
        for (h_start, h_end, held) in &holders {
            for (seq, acquired, line) in &events {
                if *seq > *h_start && *seq < *h_end {
                    for h in held {
                        for a in acquired {
                            edges.push((h.clone(), a.clone(), node.file_idx, line - 1));
                        }
                    }
                }
            }
        }
    }
    edges.sort();
    edges.dedup();

    // Strongly connected components over lock names (plus self-loops).
    let mut names: Vec<&String> = edges.iter().flat_map(|e| [&e.0, &e.1]).collect();
    names.sort();
    names.dedup();
    let idx_of = |s: &String| names.binary_search(&s).unwrap();
    let m = names.len();
    let mut reach = vec![vec![false; m]; m];
    for (a, b, _, _) in &edges {
        reach[idx_of(a)][idx_of(b)] = true;
    }
    for k in 0..m {
        let via = reach[k].clone();
        for row in reach.iter_mut() {
            if row[k] {
                for (dst, &r) in row.iter_mut().zip(&via) {
                    *dst = *dst || r;
                }
            }
        }
    }
    // Component id = smallest mutually-reachable name index; a single name
    // is cyclic only via a self-edge.
    let mut comp: Vec<Option<usize>> = vec![None; m];
    for a in 0..m {
        for b in 0..m {
            if (a == b && reach[a][a]) || (a != b && reach[a][b] && reach[b][a]) {
                let c = comp[a].unwrap_or(a).min(a);
                comp[a] = Some(c);
                comp[b] = Some(comp[b].map_or(c, |x| x.min(c)));
            }
        }
    }
    let mut comps: Vec<usize> = comp.iter().flatten().copied().collect();
    comps.sort_unstable();
    comps.dedup();
    for c in comps {
        // One finding per cycle, at the first in-cycle acquisition site.
        let best = edges
            .iter()
            .filter(|(a, b, _, _)| {
                comp[idx_of(a)] == Some(c)
                    && comp[idx_of(b)] == Some(c)
                    && (a != b || reach[idx_of(a)][idx_of(a)])
            })
            .min_by_key(|(_, _, f, l)| (files[*f].rel, *l))
            .map(|(_, _, f, l)| (*f, *l));
        if let Some((file_idx, line0)) = best {
            hits.push((Lint::X013, file_idx, line0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::lexer::lex;
    use crate::syntax::extract;
    use std::collections::HashMap;

    struct World {
        files: Vec<(String, String)>,
    }

    fn run_flow(world: &World, cfg: &Config) -> FileReport {
        let parsed: Vec<(String, FileSyntax, Vec<MaskedLine>)> = world
            .files
            .iter()
            .map(|(rel, src)| {
                let toks = lex(src);
                let lines = lints::masked_lines(src, &toks);
                (rel.clone(), extract(src, &toks, lints::is_test_file(rel)), lines)
            })
            .collect();
        let for_graph: Vec<(&str, &FileSyntax)> =
            parsed.iter().map(|(r, s, _)| (r.as_str(), s)).collect();
        let graph = callgraph::build(&for_graph, &HashMap::new());
        let flow_files: Vec<FlowFile> =
            parsed.iter().map(|(r, s, l)| FlowFile { rel: r, lines: l, syntax: s }).collect();
        run(&flow_files, &graph, cfg)
    }

    fn cfg_with_timing(timing: crate::config::Paths) -> Config {
        Config { x007_timing_modules: timing, ..Config::for_fixtures() }
    }

    fn lints_at(r: &FileReport, lint: Lint) -> Vec<(String, usize)> {
        r.findings.iter().filter(|f| f.lint == lint).map(|f| (f.file.clone(), f.line)).collect()
    }

    #[test]
    fn x012_flags_caller_of_laundered_clock() {
        let world = World {
            files: vec![
                (
                    "util.rs".into(),
                    "use std::time::Instant as Tick;\npub fn stamp() -> Tick { Tick::now() }\n"
                        .into(),
                ),
                (
                    "render.rs".into(),
                    "pub fn frame() { let t = util::stamp(); go(t); }\npub fn outer() { frame(); }\nfn go(_t: std::time::Instant) {}\n"
                        .into(),
                ),
            ],
        };
        let r = run_flow(&world, &cfg_with_timing(&[]));
        assert_eq!(
            lints_at(&r, Lint::X012),
            vec![("render.rs".to_string(), 1)],
            "frontier caller flagged, its own caller covered"
        );
    }

    #[test]
    fn x012_timing_module_is_a_barrier() {
        let world = World {
            files: vec![
                (
                    "timing.rs".into(),
                    "pub fn phase_start() { let _ = std::time::Instant::now(); }\n".into(),
                ),
                ("render.rs".into(), "pub fn frame() { timing::phase_start(); }\n".into()),
            ],
        };
        let r = run_flow(&world, &cfg_with_timing(&["timing.rs"]));
        assert!(lints_at(&r, Lint::X012).is_empty(), "calling the measurement API is sanctioned");
    }

    #[test]
    fn x012_waived_wrapper_stops_taint() {
        let world = World {
            files: vec![
                (
                    "util.rs".into(),
                    "pub fn stamp() -> std::time::Instant {\n  // xlint::allow(X007): seeded jitter for the demo, never fed to the model\n  std::time::Instant::now()\n}\n"
                        .into(),
                ),
                ("render.rs".into(), "pub fn frame() { let _ = util::stamp(); }\n".into()),
            ],
        };
        let r = run_flow(&world, &cfg_with_timing(&[]));
        assert!(lints_at(&r, Lint::X012).is_empty(), "one waiver on the wrapper covers callers");
    }

    #[test]
    fn x014_transits_out_of_scope_helpers() {
        let cfg = Config { x006_scopes: &["scoped/"], ..Config::for_fixtures() };
        let world = World {
            files: vec![
                (
                    "unscoped/util.rs".into(),
                    "pub fn a(x: Option<u32>) -> u32 { b(x) }\npub fn b(x: Option<u32>) -> u32 { x.unwrap() }\n"
                        .into(),
                ),
                (
                    "scoped/model.rs".into(),
                    "pub fn fit(x: Option<u32>) -> u32 { util::a(x) }\npub fn refit(x: Option<u32>) -> u32 { fit(x) }\n"
                        .into(),
                ),
            ],
        };
        let r = run_flow(&world, &cfg);
        assert_eq!(
            lints_at(&r, Lint::X014),
            vec![("scoped/model.rs".to_string(), 1)],
            "taint crosses the non-reportable helper, lands on the frontier"
        );
    }

    #[test]
    fn x014_in_scope_panics_are_x006s_business() {
        let cfg = Config { x006_scopes: &["scoped/"], ..Config::for_fixtures() };
        let world = World {
            files: vec![(
                "scoped/model.rs".into(),
                "pub fn inner(x: Option<u32>) -> u32 { x.unwrap() }\npub fn outer(x: Option<u32>) -> u32 { inner(x) }\n"
                    .into(),
            )],
        };
        let r = run_flow(&world, &cfg);
        assert!(
            lints_at(&r, Lint::X014).is_empty(),
            "the direct panic already carries an X006 finding; no double accounting"
        );
    }

    #[test]
    fn x014_call_site_waiver_is_honored() {
        let cfg = Config { x006_scopes: &["scoped/"], ..Config::for_fixtures() };
        let world = World {
            files: vec![
                (
                    "unscoped/util.rs".into(),
                    "pub fn b(x: Option<u32>) -> u32 { x.unwrap() }\n".into(),
                ),
                (
                    "scoped/model.rs".into(),
                    "pub fn fit(x: Option<u32>) -> u32 {\n  // xlint::allow(X014): x is produced non-empty two lines up\n  util::b(x)\n}\n"
                        .into(),
                ),
            ],
        };
        let r = run_flow(&world, &cfg);
        assert!(lints_at(&r, Lint::X014).is_empty());
        assert_eq!(r.waived.len(), 1);
        assert_eq!(r.waived[0].finding.lint, Lint::X014);
    }

    #[test]
    fn x013_opposite_order_is_a_cycle() {
        let world = World {
            files: vec![(
                "svc.rs".into(),
                "pub struct S;\nimpl S {\n  pub fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n  pub fn ba(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }\n}\n"
                    .into(),
            )],
        };
        let r = run_flow(&world, &Config::for_fixtures());
        assert_eq!(lints_at(&r, Lint::X013).len(), 1, "one finding per cycle");
    }

    #[test]
    fn x013_consistent_order_is_clean() {
        let world = World {
            files: vec![(
                "svc.rs".into(),
                "pub struct S;\nimpl S {\n  pub fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n  pub fn ab2(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n}\n"
                    .into(),
            )],
        };
        let r = run_flow(&world, &Config::for_fixtures());
        assert!(lints_at(&r, Lint::X013).is_empty());
    }

    #[test]
    fn x013_cross_fn_cycle_through_calls() {
        let world = World {
            files: vec![(
                "svc.rs".into(),
                "pub struct S;\nimpl S {\n  pub fn ab(&self) { let a = self.alpha.lock(); self.take_beta(); }\n  pub fn take_beta(&self) { let b = self.beta.lock(); }\n  pub fn ba(&self) { let b = self.beta.lock(); self.take_alpha(); }\n  pub fn take_alpha(&self) { let a = self.alpha.lock(); }\n}\n"
                    .into(),
            )],
        };
        let r = run_flow(&world, &Config::for_fixtures());
        assert_eq!(lints_at(&r, Lint::X013).len(), 1, "transitive acquires complete the cycle");
    }

    #[test]
    fn x013_drop_breaks_the_cycle() {
        let world = World {
            files: vec![(
                "svc.rs".into(),
                "pub struct S;\nimpl S {\n  pub fn ab(&self) { let a = self.alpha.lock(); drop(a); let b = self.beta.lock(); }\n  pub fn ba(&self) { let b = self.beta.lock(); drop(b); let a = self.alpha.lock(); }\n}\n"
                    .into(),
            )],
        };
        let r = run_flow(&world, &Config::for_fixtures());
        assert!(lints_at(&r, Lint::X013).is_empty(), "released guards impose no order");
    }

    #[test]
    fn x013_bound_guard_wrapper_pseudo_hold() {
        // `let g = lock_admission(&m)` holds the callee's direct lock for
        // the rest of the block — the feasd idiom.
        let world = World {
            files: vec![(
                "svc.rs".into(),
                "pub fn lock_admission(m: &M) -> G { m.lock() }\npub struct S;\nimpl S {\n  pub fn install(&self) { let t = self.table.write(); let g = lock_admission(&self.m); }\n  pub fn query(&self) { let g = lock_admission(&self.m); let t = self.table.read(); }\n}\n"
                    .into(),
            )],
        };
        let r = run_flow(&world, &Config::for_fixtures());
        assert_eq!(
            lints_at(&r, Lint::X013).len(),
            1,
            "table→admission in install, admission→table in query"
        );
    }

    #[test]
    fn x013_same_field_different_types_do_not_alias() {
        let world = World {
            files: vec![(
                "svc.rs".into(),
                "pub struct A;\nimpl A {\n  pub fn go(&self) { let s = self.stats.lock(); let q = self.queue.lock(); }\n}\npub struct B;\nimpl B {\n  pub fn go2(&self) { let q = self.queue2.lock(); let s = self.stats.lock(); }\n}\n"
                    .into(),
            )],
        };
        let r = run_flow(&world, &Config::for_fixtures());
        assert!(
            lints_at(&r, Lint::X013).is_empty(),
            "A.stats and B.stats are different locks; no cross-struct cycle"
        );
    }
}
