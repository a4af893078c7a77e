//! Workspace call graph over the extracted items.
//!
//! Every `fn` in every walked file becomes a node with a qualified path
//! `[crate, file-mods…, in-file-mods…, name]` (impl methods get a second
//! key with the `impl` type inserted before the name). Call sites resolve
//! against those keys with `use`-alias, `crate`/`self`/`super`/`Self`
//! expansion and suffix matching — good enough for intra-workspace calls,
//! with every failure mode counted in [`GraphStats`] so precision stays
//! honest (see DESIGN.md "Determinism invariants" for the caveats).

use crate::syntax::{CallSite, FileSyntax};
use std::collections::HashMap;
use std::path::Path;

/// One function node.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Root-relative file path.
    pub file_idx: usize,
    /// Index into that file's `FileSyntax::fns`.
    pub fn_idx: usize,
    /// Qualified path: `[crate, mods…, name]` (no impl type).
    pub qual: Vec<String>,
    /// Bare name (last `qual` segment).
    pub name: String,
    /// `impl`/`trait` type, if a method.
    pub impl_type: Option<String>,
    pub is_test: bool,
    pub line: usize,
}

impl FnNode {
    /// Human-readable `crate::mods::Type::name` form for messages.
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(t) => {
                let mut q = self.qual.clone();
                let name = q.pop().unwrap_or_default();
                q.push(t.clone());
                q.push(name);
                q.join("::")
            }
            None => self.qual.join("::"),
        }
    }
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Index into the caller's `FnItem::calls`.
    pub call_idx: usize,
    /// Callee node index.
    pub callee: usize,
}

/// Where every call site ended up — the precision ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStats {
    pub files: usize,
    pub tokens: usize,
    pub fns: usize,
    pub edges: usize,
    /// Path calls resolved to a workspace fn.
    pub resolved: usize,
    /// Method calls resolved via a workspace-unique impl-method name.
    pub resolved_method: usize,
    /// Path rooted outside the workspace (`std::`, shim crates, …).
    pub external: usize,
    /// `Type::method` on a type the workspace doesn't define.
    pub constructor: usize,
    /// Method name defined by several workspace impls — no edge drawn.
    pub ambiguous_method: usize,
    /// Method name no workspace impl defines (std/trait methods).
    pub unmatched_method: usize,
    /// Everything else (free-fn name not found, macro-generated, …).
    pub unresolved: usize,
}

impl GraphStats {
    /// Human-readable rendering for `--stats`; `wall_ms` is measured by the
    /// CLI (the library never reads the clock — X007 applies to xlint too).
    pub fn render(&self, wall_ms: Option<u128>) -> String {
        let mut out = format!(
            "xlint stats: {} files, {} tokens, {} functions, {} call edges\n",
            self.files, self.tokens, self.fns, self.edges
        );
        out.push_str(&format!(
            "  call resolution: {} path + {} method resolved; \
             {} external, {} constructor, {} ambiguous-method, \
             {} unmatched-method, {} unresolved\n",
            self.resolved,
            self.resolved_method,
            self.external,
            self.constructor,
            self.ambiguous_method,
            self.unmatched_method,
            self.unresolved
        ));
        if let Some(ms) = wall_ms {
            out.push_str(&format!("  wall time: {ms} ms\n"));
        }
        out
    }
}

/// The workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// Forward adjacency, per node, in call order.
    pub callees: Vec<Vec<Edge>>,
    /// Reverse adjacency, per node, deduplicated, sorted.
    pub callers: Vec<Vec<usize>>,
    pub stats: GraphStats,
}

/// Map `crates/<dir>` prefixes to package names by reading each
/// `Cargo.toml` (hyphens become underscores, as rustc does). Roots without
/// manifests (fixture trees) just fall back to path-derived names.
pub fn workspace_crate_names(root: &Path) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut add = |prefix: String, manifest: std::path::PathBuf| {
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if let Some(name) = manifest_package_name(&text) {
                map.insert(prefix, name.replace('-', "_"));
            }
        }
    };
    add(String::new(), root.join("Cargo.toml"));
    let crates = root.join("crates");
    if let Ok(rd) = std::fs::read_dir(&crates) {
        let mut dirs: Vec<_> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
        dirs.sort();
        for d in dirs {
            if d.is_dir() {
                let dir_name = d.file_name().unwrap_or_default().to_string_lossy().to_string();
                add(format!("crates/{dir_name}"), d.join("Cargo.toml"));
            }
        }
    }
    map
}

fn manifest_package_name(text: &str) -> Option<String> {
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if let Some(section) = line.strip_prefix('[') {
            in_package = section.trim_end_matches(']').trim() == "package";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Derive `(crate, module-path)` for a root-relative file path.
pub fn crate_and_mods(rel: &str, crate_names: &HashMap<String, String>) -> (String, Vec<String>) {
    let segs: Vec<&str> = rel.split('/').collect();
    let stem = |s: &str| s.strip_suffix(".rs").unwrap_or(s).to_string();
    // `…/src/…` → crate from the manifest of everything before `src`.
    if let Some(src_at) = segs.iter().position(|s| *s == "src") {
        let prefix = segs[..src_at].join("/");
        let krate = crate_names.get(&prefix).cloned().unwrap_or_else(|| {
            segs.get(src_at.wrapping_sub(1))
                .map(|s| s.replace('-', "_"))
                .unwrap_or_else(|| "crate".to_string())
        });
        let mut mods: Vec<String> =
            segs[src_at + 1..segs.len() - 1].iter().map(|s| s.to_string()).collect();
        let file = stem(segs[segs.len() - 1]);
        if !matches!(file.as_str(), "lib" | "main" | "mod") {
            mods.push(file);
        }
        return (krate, mods);
    }
    // `tests/foo.rs`, `examples/foo.rs` — each file is its own crate.
    if segs.len() >= 2 && matches!(segs[0], "tests" | "examples" | "benches") {
        return (stem(segs[segs.len() - 1]), Vec::new());
    }
    // Fixture-style flat paths: crate from the first segment.
    let krate = stem(segs[0]);
    let mut mods: Vec<String> = segs[1..].iter().map(|s| stem(s)).collect();
    if mods.last().is_some_and(|m| matches!(m.as_str(), "lib" | "main" | "mod")) {
        mods.pop();
    }
    (krate, mods)
}

/// Build the graph. `files` is `(rel_path, syntax)` in walk order.
pub fn build(files: &[(&str, &FileSyntax)], crate_names: &HashMap<String, String>) -> CallGraph {
    let mut g = CallGraph::default();
    g.stats.files = files.len();

    // Nodes + indexes.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut file_ctx: Vec<(String, Vec<String>)> = Vec::new();
    for (file_idx, (rel, syn)) in files.iter().enumerate() {
        g.stats.tokens += syn.tokens;
        let (krate, fmods) = crate_and_mods(rel, crate_names);
        for (fn_idx, f) in syn.fns.iter().enumerate() {
            let mut qual = vec![krate.clone()];
            qual.extend(fmods.iter().cloned());
            qual.extend(f.mods.iter().cloned());
            qual.push(f.name.clone());
            g.nodes.push(FnNode {
                file_idx,
                fn_idx,
                qual,
                name: f.name.clone(),
                impl_type: f.impl_type.clone(),
                is_test: f.is_test,
                line: f.decl_line,
            });
        }
        file_ctx.push((krate, fmods));
    }
    g.stats.fns = g.nodes.len();
    for (i, n) in g.nodes.iter().enumerate() {
        by_name.entry(n.name.as_str()).or_default().push(i);
    }

    // Edges.
    g.callees = vec![Vec::new(); g.nodes.len()];
    g.callers = vec![Vec::new(); g.nodes.len()];
    let mut new_edges: Vec<(usize, Edge)> = Vec::new();
    for caller in 0..g.nodes.len() {
        let node = &g.nodes[caller];
        let (krate, fmods) = &file_ctx[node.file_idx];
        let syn = &files[node.file_idx].1;
        let item = &syn.fns[node.fn_idx];
        for (call_idx, c) in item.calls.iter().enumerate() {
            let res = resolve(c, caller, &g.nodes, &by_name, files, node.file_idx, krate, fmods);
            match res {
                Resolution::To(targets, method) => {
                    if method {
                        g.stats.resolved_method += 1;
                    } else {
                        g.stats.resolved += 1;
                    }
                    for t in targets {
                        new_edges.push((caller, Edge { call_idx, callee: t }));
                    }
                }
                Resolution::External => g.stats.external += 1,
                Resolution::Constructor => g.stats.constructor += 1,
                Resolution::AmbiguousMethod => g.stats.ambiguous_method += 1,
                Resolution::UnmatchedMethod => g.stats.unmatched_method += 1,
                Resolution::Unresolved => g.stats.unresolved += 1,
            }
        }
    }
    for (caller, e) in new_edges {
        g.callees[caller].push(e);
        g.callers[e.callee].push(caller);
    }
    for c in &mut g.callers {
        c.sort_unstable();
        c.dedup();
    }
    g.stats.edges = g.callees.iter().map(|v| v.len()).sum();
    g
}

enum Resolution {
    /// Resolved to these nodes (`true` = via method-name matching).
    To(Vec<usize>, bool),
    External,
    Constructor,
    AmbiguousMethod,
    UnmatchedMethod,
    Unresolved,
}

const EXTERNAL_ROOTS: &[&str] = &["std", "core", "alloc", "rayon", "proptest", "crossbeam", "libc"];

#[allow(clippy::too_many_arguments)]
fn resolve(
    c: &CallSite,
    caller: usize,
    nodes: &[FnNode],
    by_name: &HashMap<&str, Vec<usize>>,
    files: &[(&str, &FileSyntax)],
    file_idx: usize,
    krate: &str,
    fmods: &[String],
) -> Resolution {
    let name = c.path.last().map(String::as_str).unwrap_or("");
    if c.method {
        // `.name()` — resolve only on a workspace-unique impl-method name.
        let cands: Vec<usize> = by_name
            .get(name)
            .map(|v| v.iter().copied().filter(|&i| nodes[i].impl_type.is_some()).collect())
            .unwrap_or_default();
        return match cands.len() {
            0 => Resolution::UnmatchedMethod,
            1 => Resolution::To(cands, true),
            _ => Resolution::AmbiguousMethod,
        };
    }

    // Expand the leading segment: use-aliases, then crate/self/super/Self.
    let mut path = c.path.clone();
    let uses = &files[file_idx].1.uses;
    if let Some(u) = uses.iter().find(|u| !u.glob && u.alias == path[0]) {
        let mut p = u.path.clone();
        p.extend(path.drain(1..));
        path = p;
    }
    let caller_mods: Vec<String> = {
        let mut m = fmods.to_vec();
        m.extend(files[file_idx].1.fns[nodes[caller].fn_idx].mods.iter().cloned());
        m
    };
    match path[0].as_str() {
        "crate" => path[0] = krate.to_string(),
        "self" => {
            let mut p = vec![krate.to_string()];
            p.extend(caller_mods.iter().cloned());
            p.extend(path.drain(1..));
            path = p;
        }
        "super" => {
            let mut supers = 0;
            while path.first().is_some_and(|s| s == "super") {
                supers += 1;
                path.remove(0);
            }
            let keep = caller_mods.len().saturating_sub(supers);
            let mut p = vec![krate.to_string()];
            p.extend(caller_mods[..keep].iter().cloned());
            p.append(&mut path);
            path = p;
        }
        "Self" => {
            // `Self::f()` — same impl type, same file.
            let ty = nodes[caller].impl_type.clone();
            let cands: Vec<usize> = nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| {
                    n.file_idx == file_idx && n.name == *name && n.impl_type == ty && ty.is_some()
                })
                .map(|(i, _)| i)
                .collect();
            return if cands.is_empty() {
                Resolution::Unresolved
            } else {
                Resolution::To(cands, false)
            };
        }
        _ => {}
    }

    if path.len() == 1 {
        // Bare `foo()` — same file first (deepest shared module), then a
        // workspace-unique free fn.
        let mut best: Vec<usize> = Vec::new();
        let mut best_depth = usize::MAX;
        for (i, n) in nodes.iter().enumerate() {
            if n.file_idx == file_idx && n.name == *name && n.impl_type.is_none() {
                let shared = n
                    .qual
                    .iter()
                    .zip(nodes[caller].qual.iter())
                    .take_while(|(a, b)| a == b)
                    .count();
                let depth = nodes[caller].qual.len() - shared;
                match depth.cmp(&best_depth) {
                    std::cmp::Ordering::Less => {
                        best = vec![i];
                        best_depth = depth;
                    }
                    std::cmp::Ordering::Equal => best.push(i),
                    std::cmp::Ordering::Greater => {}
                }
            }
        }
        if !best.is_empty() {
            return Resolution::To(best, false);
        }
        let cands: Vec<usize> = by_name
            .get(name)
            .map(|v| v.iter().copied().filter(|&i| nodes[i].impl_type.is_none()).collect())
            .unwrap_or_default();
        return match cands.len() {
            1 => Resolution::To(cands, false),
            _ => Resolution::Unresolved,
        };
    }

    // Multi-segment: suffix-match against each node's keys.
    let mut cands: Vec<usize> = Vec::new();
    if let Some(ids) = by_name.get(name) {
        for &i in ids {
            let n = &nodes[i];
            if suffix_matches(&path, &n.qual)
                || n.impl_type.as_ref().is_some_and(|t| {
                    let mut key = n.qual.clone();
                    let nm = key.pop().unwrap_or_default();
                    key.push(t.clone());
                    key.push(nm);
                    suffix_matches(&path, &key)
                })
            {
                cands.push(i);
            }
        }
    }
    if !cands.is_empty() {
        if cands.len() > 1 {
            // Prefer the caller's crate, then the caller's file.
            let same_crate: Vec<usize> =
                cands.iter().copied().filter(|&i| nodes[i].qual[0] == krate).collect();
            if !same_crate.is_empty() {
                cands = same_crate;
            }
            let same_file: Vec<usize> =
                cands.iter().copied().filter(|&i| nodes[i].file_idx == file_idx).collect();
            if !same_file.is_empty() {
                cands = same_file;
            }
        }
        return Resolution::To(cands, false);
    }
    if EXTERNAL_ROOTS.contains(&path[0].as_str()) {
        return Resolution::External;
    }
    // `Type::method` on an unknown type: a constructor-ish external call.
    let head = &path[path.len() - 2];
    if head.chars().next().is_some_and(|ch| ch.is_ascii_uppercase()) {
        return Resolution::Constructor;
    }
    if path.len() > 2 {
        return Resolution::External;
    }
    Resolution::Unresolved
}

fn suffix_matches(path: &[String], key: &[String]) -> bool {
    path.len() <= key.len() && key[key.len() - path.len()..] == *path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::syntax::extract;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let syntax: Vec<FileSyntax> = files
            .iter()
            .map(|(rel, src)| extract(src, &lex(src), rel.starts_with("tests/")))
            .collect();
        let files: Vec<(&str, &FileSyntax)> =
            files.iter().map(|(rel, _)| *rel).zip(&syntax).collect();
        build(&files, &HashMap::new())
    }

    fn node<'a>(g: &'a CallGraph, name: &str) -> (usize, &'a FnNode) {
        g.nodes
            .iter()
            .enumerate()
            .find(|(_, n)| n.name == name)
            .unwrap_or_else(|| panic!("no node {name}"))
    }

    fn has_edge(g: &CallGraph, from: &str, to: &str) -> bool {
        let (f, _) = node(g, from);
        let (t, _) = node(g, to);
        g.callees[f].iter().any(|e| e.callee == t)
    }

    #[test]
    fn same_file_and_cross_file_paths() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "pub fn top() { helper(); crate::util::deep(); }\npub fn helper() {}\npub mod util { pub fn deep() {} }\n",
            ),
            ("crates/b/src/lib.rs", "use a::util::deep;\npub fn other() { deep(); a::helper(); }\n"),
        ]);
        assert!(has_edge(&g, "top", "helper"));
        assert!(has_edge(&g, "top", "deep"));
        assert!(has_edge(&g, "other", "deep"), "alias-expanded cross-crate call");
        assert!(has_edge(&g, "other", "helper"), "crate-qualified cross-crate call");
    }

    #[test]
    fn method_resolution_unique_vs_ambiguous() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "pub struct S;\nimpl S { pub fn unique_m(&self) {} pub fn common(&self) {} }\npub struct T;\nimpl T { pub fn common(&self) {} }\nfn use_it(s: &S) { s.unique_m(); s.common(); s.len(); }\n",
            ),
        ]);
        assert!(has_edge(&g, "use_it", "unique_m"));
        assert_eq!(g.stats.resolved_method, 1);
        assert_eq!(g.stats.ambiguous_method, 1, ".common() matches two impls");
        assert_eq!(g.stats.unmatched_method, 1, ".len() matches nothing");
    }

    #[test]
    fn self_super_and_self_type() {
        let g = graph(&[(
            "crates/a/src/deep.rs",
            "pub fn at_root() {}\npub mod inner {\n  pub fn here() { super::at_root(); self::also_here(); }\n  pub fn also_here() {}\n}\npub struct W;\nimpl W {\n  pub fn new() -> W { W }\n  pub fn spawn() -> W { Self::new() }\n}\n",
        )]);
        assert!(has_edge(&g, "here", "at_root"), "super:: resolves to the parent module");
        assert!(has_edge(&g, "here", "also_here"), "self:: resolves in-module");
        assert!(has_edge(&g, "spawn", "new"), "Self:: resolves within the impl");
    }

    #[test]
    fn external_buckets() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn f() { std::mem::drop2(3); Vec::with_capacity(4); completely_unknown(); }\n",
        )]);
        assert_eq!(g.stats.external, 1);
        assert_eq!(g.stats.constructor, 1);
        assert_eq!(g.stats.unresolved, 1);
        assert_eq!(g.stats.edges, 0);
    }

    #[test]
    fn crate_and_mods_shapes() {
        let names = HashMap::from([
            ("crates/my-thing".to_string(), "my_thing".to_string()),
            (String::new(), "rootpkg".to_string()),
        ]);
        assert_eq!(
            crate_and_mods("crates/my-thing/src/graph/exec.rs", &names),
            ("my_thing".into(), vec!["graph".into(), "exec".into()])
        );
        assert_eq!(crate_and_mods("crates/my-thing/src/lib.rs", &names).1, Vec::<String>::new());
        assert_eq!(crate_and_mods("src/main.rs", &names).0, "rootpkg");
        assert_eq!(crate_and_mods("tests/smoke.rs", &names), ("smoke".into(), vec![]));
        assert_eq!(crate_and_mods("x012.rs", &HashMap::new()), ("x012".into(), vec![]));
    }

    #[test]
    fn tests_are_marked_and_reverse_edges_dedup() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "pub fn target() {}\nfn caller() { target(); target(); }\n"),
            ("tests/smoke.rs", "fn t() { a::target(); }\n"),
        ]);
        let (t, _) = node(&g, "target");
        let (c, _) = node(&g, "caller");
        assert_eq!(g.callees[c].len(), 2, "both call sites kept");
        assert_eq!(g.callers[t], vec![c, node(&g, "t").0], "reverse edges deduplicated");
        assert!(node(&g, "t").1.is_test);
    }
}
