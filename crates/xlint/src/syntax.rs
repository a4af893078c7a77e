//! Item extraction: from the token stream to functions, calls, and sites.
//!
//! One linear walk over the lexed tokens recovers just enough structure for
//! the flow lints: `fn` items (with their `impl`/`trait` context, in-file
//! module path, and test-ness), `use` declarations (for alias-aware clock
//! detection and call resolution), call sites, direct clock reads
//! (`Instant::now` / `SystemTime::now`, through `use … as` aliases), panic
//! sites (`.unwrap()` / `.expect(` / `panic!`), and lock acquisitions
//! (zero-argument `.lock()` / `.read()` / `.write()`) with their hold
//! scopes.
//!
//! This is deliberately not a parser. Brace depth is the only structure
//! tracked exactly; everything else is pattern-driven and documented where
//! it approximates (see DESIGN.md "Determinism invariants" for the
//! precision caveats).

use crate::lexer::{Token, TokenKind};

/// Everything extracted from one file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileSyntax {
    /// Every `fn` with a body, in declaration order (nested fns included).
    pub fns: Vec<FnItem>,
    /// Flattened `use` declarations.
    pub uses: Vec<UseDecl>,
    /// Clock-read lines outside any function body (should be rare).
    pub file_clock_lines: Vec<usize>,
    /// Inclusive 1-based line ranges of test code: each `#[cfg(test)]` /
    /// `#[test]` item from its attribute through its last token, or the
    /// whole file when it lives under a `tests/` directory.
    pub test_spans: Vec<(usize, usize)>,
    /// Token count (stats).
    pub tokens: usize,
}

impl FileSyntax {
    /// Is this 1-based line test code? The one definition every lint reads.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_spans.iter().any(|&(first, last)| first <= line && line <= last)
    }
}

/// One function item.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FnItem {
    /// The bare name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub impl_type: Option<String>,
    /// In-file module path (`mod a { mod b { … } }` → `["a","b"]`).
    pub mods: Vec<String>,
    /// 1-based line of the `fn` name.
    pub decl_line: usize,
    /// Inside `#[cfg(test)]` / `#[test]` code or declared in a test file.
    pub is_test: bool,
    /// Lines with a direct wall-clock read.
    pub clock_lines: Vec<usize>,
    /// Lines with a direct panic site (`.unwrap()`/`.expect(`/`panic!`).
    pub panic_lines: Vec<usize>,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Lock-guard acquisitions in body order.
    pub locks: Vec<LockAcq>,
}

/// One call site inside a function body.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallSite {
    /// Path segments; a method call has exactly its name.
    pub path: Vec<String>,
    /// `.name(…)` method-call syntax.
    pub method: bool,
    /// 1-based line.
    pub line: usize,
    /// Event sequence number within the function (locks + calls share it).
    pub seq: u32,
    /// Scope-end sequence: events with `seq < e < end_seq` run while this
    /// call's result (a possible lock guard) is still live.
    pub end_seq: u32,
    /// The result is `let`-bound (guard may outlive the statement).
    pub bound: bool,
}

/// One lock acquisition (`recv.lock()` / `.read()` / `.write()`, zero-arg).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LockAcq {
    /// Heuristic lock identity: the receiver path minus `self.`
    /// (`self.table.read()` → `"table"`); synthesized unique name for
    /// non-path receivers.
    pub name: String,
    /// 1-based line.
    pub line: usize,
    /// Event sequence number within the function.
    pub seq: u32,
    /// Scope-end sequence (guard lifetime, approximated to the end of the
    /// binding block, or of the statement for temporaries).
    pub end_seq: u32,
}

/// One flattened `use` declaration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UseDecl {
    /// Name this import binds (`use a::b;` → `b`, `use a::b as c;` → `c`);
    /// `"*"` for globs.
    pub alias: String,
    /// Full path segments.
    pub path: Vec<String>,
    /// `use a::b::*;`
    pub glob: bool,
}

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if",
    "while",
    "for",
    "match",
    "return",
    "loop",
    "else",
    "in",
    "as",
    "let",
    "mut",
    "ref",
    "move",
    "unsafe",
    "async",
    "await",
    "dyn",
    "box",
    "yield",
    "fn",
    "impl",
    "where",
    "pub",
    "use",
    "mod",
    "struct",
    "enum",
    "union",
    "trait",
    "type",
    "const",
    "static",
    "break",
    "continue",
    "self",
    "Self",
    "crate",
    "super",
    "drop",
    "assert",
    "debug_assert",
];

/// Extract the file's structure. `rel_is_test_file` marks the whole file as
/// test code (files under `tests/` directories).
pub fn extract(src: &str, tokens: &[Token], rel_is_test_file: bool) -> FileSyntax {
    let mut ex = Extractor {
        src,
        toks: tokens,
        i: 0,
        depth: 0,
        mods: Vec::new(),
        impls: Vec::new(),
        test_until: 0,
        fn_stack: Vec::new(),
        open: Vec::new(),
        seq: 0,
        out: FileSyntax { tokens: tokens.len(), ..Default::default() },
    };
    if rel_is_test_file {
        ex.test_until = usize::MAX;
        ex.out.test_spans.push((1, usize::MAX));
    }
    ex.run();
    ex.out
}

/// An open guard interval: a lock acquisition or a call whose result may be
/// a guard.
struct OpenInterval {
    fn_idx: usize,
    /// `true` → `locks[idx]`, `false` → `calls[idx]`.
    is_lock: bool,
    idx: usize,
    /// Brace depth at creation: the interval closes when depth drops below.
    depth: usize,
    /// Temporaries close at the next `;` at their depth.
    stmt_scoped: bool,
    /// `let <var> = …` binding, for `drop(var)` tracking.
    var: Option<String>,
}

struct Extractor<'a> {
    src: &'a str,
    toks: &'a [Token],
    i: usize,
    depth: usize,
    /// `(name, depth at declaration)` — popped when depth returns there.
    mods: Vec<(String, usize)>,
    impls: Vec<(String, usize)>,
    /// Tokens before this index belong to a test item (see `attribute`).
    test_until: usize,
    /// `(fn index in out.fns, depth at declaration)`.
    fn_stack: Vec<(usize, usize)>,
    open: Vec<OpenInterval>,
    seq: u32,
    out: FileSyntax,
}

impl<'a> Extractor<'a> {
    fn tok(&self, k: usize) -> Option<&Token> {
        self.toks.get(self.i + k)
    }

    fn text(&self, t: &Token) -> &'a str {
        t.text(self.src)
    }

    /// The `k`-th significant (non-comment) token at or after `i`.
    fn sig(&self, mut k: usize) -> Option<&Token> {
        let mut j = self.i;
        loop {
            let t = self.toks.get(j)?;
            if t.kind != TokenKind::Comment {
                if k == 0 {
                    return Some(t);
                }
                k -= 1;
            }
            j += 1;
        }
    }

    /// Is the token pair at absolute indices `(j, j+1)` a byte-adjacent `::`?
    fn is_path_sep(&self, j: usize) -> bool {
        match (self.toks.get(j), self.toks.get(j + 1)) {
            (Some(a), Some(b)) => a.is_punct(':') && b.is_punct(':') && a.end == b.start,
            _ => false,
        }
    }

    fn next_seq(&mut self) -> u32 {
        self.seq += 1;
        self.seq
    }

    fn run(&mut self) {
        while self.i < self.toks.len() {
            let t = self.toks[self.i];
            match t.kind {
                TokenKind::Comment
                | TokenKind::Lifetime
                | TokenKind::Number
                | TokenKind::Str { .. }
                | TokenKind::Char { .. } => self.i += 1,
                TokenKind::Punct('#') => self.attribute(),
                TokenKind::Punct('{') => {
                    self.depth += 1;
                    self.i += 1;
                }
                TokenKind::Punct('}') => {
                    self.close_brace();
                    self.i += 1;
                }
                TokenKind::Punct(';') => {
                    self.close_stmt();
                    self.i += 1;
                }
                TokenKind::Punct(_) => self.i += 1,
                TokenKind::Ident => self.ident(t),
            }
        }
        // EOF closes everything still open.
        let end = self.seq + 1;
        while let Some(o) = self.open.pop() {
            self.set_end(&o, end);
        }
    }

    /// `#[…]` — a test attribute marks the one item that follows it as test
    /// code; inner `#![…]` attrs are skipped.
    fn attribute(&mut self) {
        let attr_line = self.toks[self.i].line;
        let inner = self.sig(1).is_some_and(|t| t.is_punct('!'));
        let open_at = if inner { 2 } else { 1 };
        if !self.sig(open_at).is_some_and(|t| t.is_punct('[')) {
            self.i += 1;
            return;
        }
        // Scan to the matching `]`, collecting idents.
        let mut j = self.i + 1;
        while !self.toks[j].is_punct('[') {
            j += 1;
        }
        let mut bdepth = 0usize;
        let mut idents: Vec<&str> = Vec::new();
        while j < self.toks.len() {
            let t = self.toks[j];
            match t.kind {
                TokenKind::Punct('[') => bdepth += 1,
                TokenKind::Punct(']') => {
                    bdepth -= 1;
                    if bdepth == 0 {
                        j += 1;
                        break;
                    }
                }
                TokenKind::Ident => idents.push(self.text(&t)),
                _ => {}
            }
            j += 1;
        }
        // `test` marks test code unless negated (`cfg(not(test))`); inside a
        // test item there is nothing left to mark.
        let is_test = |(k, id): (usize, &&str)| *id == "test" && (k == 0 || idents[k - 1] != "not");
        if !inner && self.i >= self.test_until && idents.iter().enumerate().any(is_test) {
            let end = self.item_end(j);
            self.test_until = end + 1;
            let last_line = self.toks.get(end).map_or(usize::MAX, |t| t.line);
            self.out.test_spans.push((attr_line, last_line));
        }
        self.i = j;
    }

    /// Index of the last token of the item starting at `from`: the first `;`
    /// outside parens/brackets (a brace-less item such as `use …;` or
    /// `mod name;`) or the `}` matching the item's first `{`. An item cut
    /// short by its enclosing block (an attributed field or match arm) ends
    /// before that block's `}`; an unterminated one runs to EOF.
    fn item_end(&self, from: usize) -> usize {
        let (mut nest, mut braces) = (0usize, 0usize);
        for (j, t) in self.toks.iter().enumerate().skip(from) {
            match t.kind {
                TokenKind::Punct('(' | '[') => nest += 1,
                TokenKind::Punct(')' | ']') => nest = nest.saturating_sub(1),
                TokenKind::Punct('{') => braces += 1,
                TokenKind::Punct('}') if braces == 0 => return j - 1,
                TokenKind::Punct('}') if braces == 1 => return j,
                TokenKind::Punct('}') => braces -= 1,
                TokenKind::Punct(';') if braces == 0 && nest == 0 => return j,
                _ => {}
            }
        }
        self.toks.len()
    }

    fn close_brace(&mut self) {
        let nd = self.depth.saturating_sub(1);
        self.depth = nd;
        while self.mods.last().is_some_and(|m| m.1 >= nd) {
            self.mods.pop();
        }
        while self.impls.last().is_some_and(|m| m.1 >= nd) {
            self.impls.pop();
        }
        let end = self.seq + 1;
        let mut k = 0;
        while k < self.open.len() {
            if self.open[k].depth > nd {
                let o = self.open.remove(k);
                self.set_end(&o, end);
            } else {
                k += 1;
            }
        }
        if self.fn_stack.last().is_some_and(|f| f.1 >= nd) {
            self.fn_stack.pop();
        }
    }

    fn close_stmt(&mut self) {
        let end = self.seq + 1;
        let depth = self.depth;
        let mut k = 0;
        while k < self.open.len() {
            if self.open[k].stmt_scoped && self.open[k].depth == depth {
                let o = self.open.remove(k);
                self.set_end(&o, end);
            } else {
                k += 1;
            }
        }
    }

    fn set_end(&mut self, o: &OpenInterval, end: u32) {
        let f = &mut self.out.fns[o.fn_idx];
        if o.is_lock {
            f.locks[o.idx].end_seq = end;
        } else {
            f.calls[o.idx].end_seq = end;
        }
    }

    fn ident(&mut self, t: Token) {
        match self.text(&t) {
            "use" => {
                self.i += 1;
                let mut prefix = Vec::new();
                self.use_tree(&mut prefix);
                return;
            }
            "mod" => {
                if let Some(name) = self.sig(1).filter(|n| n.kind == TokenKind::Ident) {
                    let name = self.text(name).to_string();
                    // Only a body form (`mod x {`) opens a scope.
                    if self.sig(2).is_some_and(|b| b.is_punct('{')) {
                        self.mods.push((name, self.depth));
                    }
                    self.i += 2;
                    return;
                }
            }
            "impl" | "trait" => {
                self.impl_header();
                return;
            }
            "fn" => {
                if self.fn_item() {
                    return;
                }
            }
            "drop" => {
                // `drop(guard)` ends the guard's hold early.
                if self.sig(1).is_some_and(|p| p.is_punct('('))
                    && self.sig(3).is_some_and(|p| p.is_punct(')'))
                {
                    if let Some(v) = self.sig(2).filter(|v| v.kind == TokenKind::Ident) {
                        let var = self.text(v).to_string();
                        let end = self.seq + 1;
                        if let Some(pos) =
                            self.open.iter().rposition(|o| o.var.as_deref() == Some(var.as_str()))
                        {
                            let o = self.open.remove(pos);
                            self.set_end(&o, end);
                        }
                        self.i += 4;
                        return;
                    }
                }
            }
            word => {
                if self.fn_stack.is_empty() {
                    // Outside any fn body only clock reads are tracked.
                    if self.clock_read(word) {
                        self.out.file_clock_lines.push(t.line);
                    }
                } else {
                    self.body_ident(t, word);
                    return;
                }
            }
        }
        self.i += 1;
    }

    /// `X::now` where `X` is `Instant`/`SystemTime` or an alias of a path
    /// ending in one of them. The `(` is deliberately not required, so
    /// fn-pointer laundering (`let f = Instant::now;`) is a read too.
    fn clock_read(&self, word: &str) -> bool {
        let is_clock = word == "Instant"
            || word == "SystemTime"
            || self.out.uses.iter().any(|u| {
                u.alias == word
                    && u.path.last().is_some_and(|l| l == "Instant" || l == "SystemTime")
            });
        is_clock
            && self.is_path_sep(self.i + 1)
            && self.toks.get(self.i + 3).is_some_and(|n| n.is_ident(self.src, "now"))
    }

    /// An identifier inside a fn body: call sites, panic sites, locks.
    fn body_ident(&mut self, t: Token, word: &str) {
        let fn_idx = self.fn_stack.last().unwrap().0;
        if self.clock_read(word) {
            self.out.fns[fn_idx].clock_lines.push(t.line);
            self.i += 1;
            return;
        }
        let after_dot = self.i > 0 && self.toks[self.i - 1].is_punct('.');
        let next_is_paren = self.tok(1).is_some_and(|n| n.is_punct('('));
        let next_is_bang = self.tok(1).is_some_and(|n| n.is_punct('!'));
        if after_dot && next_is_paren && (word == "unwrap" || word == "expect") {
            self.out.fns[fn_idx].panic_lines.push(t.line);
            self.i += 2;
            return;
        }
        if next_is_bang && word == "panic" {
            self.out.fns[fn_idx].panic_lines.push(t.line);
            self.i += 2;
            return;
        }
        if after_dot
            && next_is_paren
            && self.tok(2).is_some_and(|n| n.is_punct(')'))
            && matches!(word, "lock" | "read" | "write")
        {
            self.lock_site(t, fn_idx);
            self.i += 3;
            return;
        }
        if next_is_paren && !CALL_KEYWORDS.contains(&word) {
            if after_dot {
                self.call_site(t, fn_idx, vec![word.to_string()], true);
            } else {
                let path = self.walk_back_path(word);
                self.call_site(t, fn_idx, path, false);
            }
        }
        self.i += 1;
    }

    /// Collect `a::b::word` segments by walking back over byte-adjacent `::`.
    fn walk_back_path(&self, word: &str) -> Vec<String> {
        let mut segs = vec![word.to_string()];
        let mut j = self.i;
        while j >= 3 && self.is_path_sep(j - 2) && self.toks[j - 3].kind == TokenKind::Ident {
            segs.insert(0, self.toks[j - 3].text(self.src).to_string());
            j -= 3;
        }
        segs
    }

    /// Statement context for the event starting at token `i`: walk back to
    /// the statement start and look for `let`/`match` (block-scoped guard)
    /// and a simple bound variable name.
    fn stmt_context(&self) -> (bool, Option<String>) {
        let mut j = self.i;
        while j > 0 {
            let t = self.toks[j - 1];
            match t.kind {
                TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') => break,
                TokenKind::Ident => {
                    let w = t.text(self.src);
                    if w == "let" || w == "match" {
                        let mut var = None;
                        if w == "let" {
                            let mut k = j;
                            if self.toks.get(k).is_some_and(|t| t.is_ident(self.src, "mut")) {
                                k += 1;
                            }
                            if let Some(v) = self.toks.get(k) {
                                if v.kind == TokenKind::Ident
                                    && self
                                        .toks
                                        .get(k + 1)
                                        .is_some_and(|e| e.is_punct('=') || e.is_punct(':'))
                                {
                                    var = Some(v.text(self.src).to_string());
                                }
                            }
                        }
                        return (true, var);
                    }
                }
                _ => {}
            }
            j -= 1;
        }
        (false, None)
    }

    fn call_site(&mut self, t: Token, fn_idx: usize, path: Vec<String>, method: bool) {
        let (block_scoped, var) = self.stmt_context();
        let seq = self.next_seq();
        let f = &mut self.out.fns[fn_idx];
        f.calls.push(CallSite {
            path,
            method,
            line: t.line,
            seq,
            end_seq: u32::MAX,
            bound: block_scoped,
        });
        self.open.push(OpenInterval {
            fn_idx,
            is_lock: false,
            idx: f.calls.len() - 1,
            depth: self.depth,
            stmt_scoped: !block_scoped,
            var,
        });
    }

    fn lock_site(&mut self, t: Token, fn_idx: usize) {
        let name = self.receiver_name(t);
        let (block_scoped, var) = self.stmt_context();
        let seq = self.next_seq();
        let f = &mut self.out.fns[fn_idx];
        f.locks.push(LockAcq { name, line: t.line, seq, end_seq: u32::MAX });
        self.open.push(OpenInterval {
            fn_idx,
            is_lock: true,
            idx: f.locks.len() - 1,
            depth: self.depth,
            stmt_scoped: !block_scoped,
            var,
        });
    }

    /// Heuristic lock identity from the receiver: the `.`/`::`-joined ident
    /// chain before `.lock()` (a leading `self` is kept so the flow pass can
    /// qualify it with the impl type). A non-path receiver (call or index
    /// result) falls back to `name()` for a direct call, else a site-unique
    /// placeholder that can never alias another lock.
    fn receiver_name(&self, t: Token) -> String {
        let mut j = self.i - 1; // the `.` before lock/read/write
        let mut segs: Vec<String> = Vec::new();
        loop {
            if j == 0 {
                break;
            }
            let prev = self.toks[j - 1];
            match prev.kind {
                TokenKind::Ident | TokenKind::Number => {
                    segs.insert(0, prev.text(self.src).to_string());
                    if j >= 2 && self.toks[j - 2].is_punct('.') {
                        j -= 2;
                    } else if j >= 3 && self.is_path_sep(j - 3) {
                        j -= 3;
                    } else {
                        break;
                    }
                }
                TokenKind::Punct(')') => {
                    if segs.is_empty() {
                        // `f(…).lock()` — identify by the producing call.
                        let mut pd = 0usize;
                        let mut k = j - 1;
                        loop {
                            match self.toks[k].kind {
                                TokenKind::Punct(')') => pd += 1,
                                TokenKind::Punct('(') => {
                                    pd -= 1;
                                    if pd == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            if k == 0 {
                                break;
                            }
                            k -= 1;
                        }
                        if k > 0 && self.toks[k - 1].kind == TokenKind::Ident {
                            segs.push(format!("{}()", self.toks[k - 1].text(self.src)));
                        }
                    }
                    break;
                }
                _ => break,
            }
        }
        if segs.is_empty() {
            format!("?expr:{}", t.line)
        } else {
            segs.join(".")
        }
    }

    /// `impl …` / `trait …` header: extract the subject type name and open
    /// the context at the body brace.
    fn impl_header(&mut self) {
        let mut j = self.i + 1;
        let mut angle = 0i32;
        let mut after_for: Option<usize> = None;
        let mut where_at: Option<usize> = None;
        let mut body = None;
        while j < self.toks.len() {
            let t = self.toks[j];
            match t.kind {
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') => {
                    // `->` in an `Fn() -> T` bound is not an angle close.
                    let arrow =
                        j > 0 && self.toks[j - 1].is_punct('-') && self.toks[j - 1].end == t.start;
                    if !arrow {
                        angle -= 1;
                    }
                }
                TokenKind::Punct('{') if angle <= 0 => {
                    body = Some(j);
                    break;
                }
                TokenKind::Punct(';') if angle <= 0 => break,
                TokenKind::Ident if angle <= 0 && where_at.is_none() => match self.text(&t) {
                    "for" => after_for = Some(j),
                    "where" => where_at = Some(j),
                    _ => {}
                },
                _ => {}
            }
            j += 1;
        }
        let Some(body) = body else {
            self.i = j + 1;
            return;
        };
        // Type tokens: after the last top-level `for` (or the header start),
        // up to `where` / `{`.
        let from = after_for.map(|f| f + 1).unwrap_or(self.i + 1);
        let to = where_at.unwrap_or(body);
        let mut name = String::new();
        let mut k = from;
        while k < to {
            let t = self.toks[k];
            match t.kind {
                TokenKind::Ident => {
                    let w = self.text(&t);
                    if !matches!(w, "dyn" | "mut" | "const") {
                        name = w.to_string();
                        // Stop at the path head's end: `a::b::Type<T>` →
                        // keep following `::` segments, stop at `<`.
                        if !(k + 2 < to && self.is_path_sep(k + 1)) {
                            break;
                        }
                        k += 2;
                    }
                }
                TokenKind::Punct('<') => break,
                _ => {}
            }
            k += 1;
        }
        if !name.is_empty() {
            self.impls.push((name, self.depth));
        }
        self.i = body; // main loop opens the brace
    }

    /// `fn name …` — record the item and enter its body. Returns false when
    /// this was not an item (`fn(` pointer type).
    fn fn_item(&mut self) -> bool {
        let Some(name_tok) = self.sig(1).filter(|n| n.kind == TokenKind::Ident).copied() else {
            return false;
        };
        let name = self.text(&name_tok).to_string();
        // Find the body `{` (or `;` for a bodiless trait method). Neither
        // counts inside `(...)` / `[...]`: `dims: [usize; 3]` and
        // `-> [f32; 4]` carry a `;`, a const-block length a `{`.
        let mut j = self.i + 2;
        let mut nest = 0i32;
        let mut body = None;
        while j < self.toks.len() {
            match self.toks[j].kind {
                TokenKind::Punct('(' | '[') => nest += 1,
                TokenKind::Punct(')' | ']') => nest -= 1,
                TokenKind::Punct('{') if nest <= 0 => {
                    body = Some(j);
                    break;
                }
                TokenKind::Punct(';') if nest <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        let is_test = self.i < self.test_until;
        let Some(body) = body else {
            self.i = j + 1;
            return true;
        };
        let impl_type =
            if self.fn_stack.is_empty() { self.impls.last().map(|(n, _)| n.clone()) } else { None };
        self.out.fns.push(FnItem {
            name,
            impl_type,
            mods: self.mods.iter().map(|(n, _)| n.clone()).collect(),
            decl_line: name_tok.line,
            is_test,
            ..Default::default()
        });
        self.fn_stack.push((self.out.fns.len() - 1, self.depth));
        self.i = body; // main loop opens the brace
        true
    }

    /// One `use` tree level; consumes up to (not including) the `;`.
    fn use_tree(&mut self, prefix: &mut Vec<String>) {
        loop {
            let Some(t) = self.tok(0).copied() else { return };
            match t.kind {
                TokenKind::Comment => {
                    self.i += 1;
                }
                TokenKind::Ident => {
                    let seg = self.text(&t).to_string();
                    if seg == "as" {
                        if let Some(a) = self.sig(1).filter(|a| a.kind == TokenKind::Ident) {
                            let alias = self.text(a).to_string();
                            self.out.uses.push(UseDecl {
                                alias,
                                path: prefix.clone(),
                                glob: false,
                            });
                            self.i += 2;
                        } else {
                            self.i += 1;
                        }
                        return;
                    }
                    if self.is_path_sep(self.i + 1) {
                        prefix.push(seg);
                        self.i += 3;
                    } else {
                        // Leaf. `self` re-exports the prefix itself.
                        let (alias, path) = if seg == "self" {
                            match prefix.last() {
                                Some(last) => (last.clone(), prefix.clone()),
                                None => {
                                    self.i += 1;
                                    return;
                                }
                            }
                        } else {
                            let mut p = prefix.clone();
                            p.push(seg.clone());
                            (seg, p)
                        };
                        self.i += 1;
                        // A trailing `as` is handled on the next loop pass.
                        if self.tok(0).is_some_and(|n| n.is_ident(self.src, "as")) {
                            prefix.push(path.last().cloned().unwrap_or_default());
                            continue;
                        }
                        self.out.uses.push(UseDecl { alias, path, glob: false });
                        return;
                    }
                }
                TokenKind::Punct('{') => {
                    self.i += 1;
                    loop {
                        match self.tok(0).map(|t| t.kind) {
                            Some(TokenKind::Punct('}')) => {
                                self.i += 1;
                                return;
                            }
                            Some(TokenKind::Punct(',')) | Some(TokenKind::Comment) => {
                                self.i += 1;
                            }
                            Some(_) => {
                                let mut sub = prefix.clone();
                                self.use_tree(&mut sub);
                            }
                            None => return,
                        }
                    }
                }
                TokenKind::Punct('*') => {
                    self.out.uses.push(UseDecl {
                        alias: "*".to_string(),
                        path: prefix.clone(),
                        glob: true,
                    });
                    self.i += 1;
                    return;
                }
                _ => return, // `;` or malformed — the main loop resumes here
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ex(src: &str) -> FileSyntax {
        extract(src, &lex(src), false)
    }

    #[test]
    fn fns_with_impl_and_mod_context() {
        // The last fn's signature carries `;` (array types) and a `{` (a
        // const-block length) before its body; neither ends the item.
        let src = "mod a {\n  struct S;\n  impl S {\n    fn m(&self) { helper(); }\n  }\n  fn helper() {}\n}\nfn f(a: [u8; 4], b: [u8; { N }]) -> [f32; 4] { g() }\n";
        let s = ex(src);
        assert_eq!(s.fns.len(), 3);
        assert_eq!(s.fns[2].name, "f");
        assert_eq!(s.fns[2].calls[0].path, vec!["g".to_string()]);
        assert_eq!(s.fns[0].name, "m");
        assert_eq!(s.fns[0].impl_type.as_deref(), Some("S"));
        assert_eq!(s.fns[0].mods, vec!["a".to_string()]);
        assert_eq!(s.fns[0].calls.len(), 1);
        assert_eq!(s.fns[0].calls[0].path, vec!["helper".to_string()]);
        assert_eq!(s.fns[1].name, "helper");
        assert!(s.fns[1].impl_type.is_none());
    }

    #[test]
    fn impl_trait_for_type_and_generics() {
        let src =
            "impl<T: Clone> Widget<T> for Gadget<T> where T: Default {\n  fn go(&self) {}\n}\n";
        let s = ex(src);
        assert_eq!(s.fns[0].impl_type.as_deref(), Some("Gadget"));
    }

    #[test]
    fn use_trees_flatten() {
        let src = "use std::time::Instant as Tick;\nuse a::b::{c, d as e, f::g};\nuse h::*;\n";
        let s = ex(src);
        let find = |alias: &str| s.uses.iter().find(|u| u.alias == alias).unwrap();
        assert_eq!(find("Tick").path, vec!["std", "time", "Instant"]);
        assert_eq!(find("c").path, vec!["a", "b", "c"]);
        assert_eq!(find("e").path, vec!["a", "b", "d"]);
        assert_eq!(find("g").path, vec!["a", "b", "f", "g"]);
        assert!(find("*").glob);
    }

    #[test]
    fn clock_reads_direct_and_aliased() {
        let src = "use std::time::Instant as Tick;\nfn f() { let t = Tick::now(); }\nfn g() { let t = std::time::Instant::now(); }\nfn h() { let p = Instant::now; }\n";
        let s = ex(src);
        assert_eq!(s.fns[0].clock_lines, vec![2]);
        assert_eq!(s.fns[1].clock_lines, vec![3]);
        assert_eq!(s.fns[2].clock_lines, vec![4], "fn-pointer laundering is a read");
    }

    #[test]
    fn panic_sites_exact_idents_only() {
        let src = "fn f(x: Option<u32>) -> u32 {\n  let a = x.unwrap_or(3);\n  let b = x.unwrap();\n  let c = x.expect(\"boom\");\n  if b > 9 { panic!(\"no\"); }\n  a + b + c\n}\n";
        let s = ex(src);
        assert_eq!(s.fns[0].panic_lines, vec![3, 4, 5]);
    }

    #[test]
    fn test_code_is_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() {}\n}\n#[cfg(not(test))]\nfn also_lib() {}\n#[cfg(test)]\nuse std::fmt::Debug;\n\nfn after_use() {}\n#[cfg(test)]\nconst N: usize = 3;\nfn after_const() {}\n";
        let s = ex(src);
        assert!(!s.fns[0].is_test);
        assert!(s.fns[1].is_test);
        assert!(!s.fns[2].is_test, "cfg(not(test)) is library code");
        // A test attribute binds to the next item only: the `;` that ends a
        // brace-less item consumes it.
        assert!(!s.fns[3].is_test, "cfg(test) on a `use` must not leak onto the next fn");
        assert!(!s.fns[4].is_test, "cfg(test) on a `const` must not leak onto the next fn");
        assert_eq!(s.test_spans, vec![(2, 6), (9, 10), (13, 14)]);
        assert!(s.is_test_line(10) && !s.is_test_line(12) && !s.is_test_line(15));
    }

    #[test]
    fn qualified_and_method_calls() {
        let src = "fn f() { a::b::go(); x.run(); Widget::make(); }\n";
        let s = ex(src);
        let c = &s.fns[0].calls;
        assert_eq!(c[0].path, vec!["a", "b", "go"]);
        assert!(!c[0].method);
        assert_eq!(c[1].path, vec!["run"]);
        assert!(c[1].method);
        assert_eq!(c[2].path, vec!["Widget", "make"]);
    }

    #[test]
    fn lock_scopes_nest_and_release() {
        let src = "fn f(&self) {\n  let a = self.table.write();\n  let b = self.admission.lock();\n  drop(a);\n  let c = self.queue.lock();\n}\n";
        let s = ex(src);
        let l = &s.fns[0].locks;
        assert_eq!(l.len(), 3);
        assert_eq!(l[0].name, "self.table");
        assert_eq!(l[1].name, "self.admission");
        assert_eq!(l[2].name, "self.queue");
        // a held at b's acquisition…
        assert!(l[0].seq < l[1].seq && l[1].seq < l[0].end_seq);
        // …but dropped before c's (half-open: end_seq == seq means released).
        assert!(l[0].end_seq <= l[2].seq);
        // b still held at c (no drop).
        assert!(l[1].seq < l[2].seq && l[2].seq < l[1].end_seq);
    }

    #[test]
    fn temporary_guard_releases_at_statement_end() {
        let src = "fn f(&self) {\n  self.stats.lock().push(1);\n  let g = self.other.lock();\n}\n";
        let s = ex(src);
        let l = &s.fns[0].locks;
        assert!(l[0].end_seq <= l[1].seq, "statement temporary must not nest with later locks");
    }

    #[test]
    fn bound_call_scopes_like_a_guard() {
        let src = "fn f(&self) {\n  let adm = lock_admission(&self.admission);\n  let t = self.table.read();\n  bare_call();\n}\n";
        let s = ex(src);
        let f = &s.fns[0];
        let adm = f.calls.iter().find(|c| c.path == ["lock_admission"]).unwrap();
        assert!(adm.bound);
        // The bound call's scope covers the later read acquisition.
        let read = f.locks.iter().find(|l| l.name == "self.table").unwrap();
        assert!(adm.seq < read.seq && read.seq < adm.end_seq);
        let bare = f.calls.iter().find(|c| c.path == ["bare_call"]).unwrap();
        assert!(!bare.bound);
    }

    #[test]
    fn zero_arg_read_write_only() {
        let src = "fn f(&self) { self.t.read(); buf.read(&mut x); s.write(); w.write(b); }\n";
        let s = ex(src);
        let names: Vec<&str> = s.fns[0].locks.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, vec!["self.t", "s"], "io-style read/write with args are not locks");
    }

    #[test]
    fn nested_fn_attribution() {
        let src = "fn outer() {\n  fn inner() { leaf(); }\n  top();\n}\n";
        let s = ex(src);
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].name, "outer");
        assert_eq!(s.fns[1].name, "inner");
        assert_eq!(s.fns[1].calls[0].path, vec!["leaf"]);
        assert_eq!(s.fns[0].calls[0].path, vec!["top"]);
    }
}
