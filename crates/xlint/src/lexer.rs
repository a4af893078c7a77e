//! Hand-written, zero-dependency token lexer for Rust source.
//!
//! The one scanner in this crate: `lex` turns a file into a flat stream of
//! spanned tokens, and everything else reads that stream — the item
//! extractor (`syntax.rs`), the call graph (`callgraph.rs`), and, through
//! [`class_runs`], the per-line code/comment views the substring lints
//! match on (`lints::masked_lines`).
//!
//! Deliberate simplifications:
//! * the char-vs-lifetime heuristic is lookahead-based (`'\...'` and
//!   `'x'` are literals, anything else after `'` is a lifetime or a bare
//!   quote), not parser-driven;
//! * numeric literal boundaries are approximate (good enough that `1.max`
//!   and `0..n` split correctly); the analysis layers never read numbers;
//! * every punctuation char is its own token — multi-char operators like
//!   `::` are recognized downstream via byte-adjacent spans.

/// What a token is. `Str` and `Char` carry the interior span (the content
/// between the delimiters) so classification checks can distinguish the
/// blanked literal body from the prefix/quote/hash framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including a raw `r#ident`).
    Ident,
    /// A lifetime: `'` followed by identifier chars that do not close as a
    /// char literal.
    Lifetime,
    /// Numeric literal (int or float, any base, with suffix).
    Number,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`); the interior
    /// span excludes prefix, hashes, and quotes.
    Str { interior_start: usize, interior_end: usize },
    /// Char or byte-char literal; interior span excludes the quotes.
    Char { interior_start: usize, interior_end: usize },
    /// Line or block comment, doc flavors included.
    Comment,
    /// One punctuation character.
    Punct(char),
}

/// One spanned token. Spans are byte offsets into the source; `line` is the
/// 1-based line the token starts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub start: usize,
    pub end: usize,
    pub line: usize,
}

impl Token {
    /// The token's text.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// True for identifier tokens whose text equals `word`.
    pub fn is_ident(&self, src: &str, word: &str) -> bool {
        matches!(self.kind, TokenKind::Ident) && self.text(src) == word
    }

    /// True for the punctuation char `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// Lex `src` into a token stream. Whitespace is dropped; everything else is
/// covered by exactly one token. Unterminated literals/comments run to EOF.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer { src, chars: src.char_indices().collect(), pos: 0, line: 1, out: Vec::new() }.run()
}

struct Lexer<'a> {
    src: &'a str,
    /// `(byte_offset, char)` pairs.
    chars: Vec<(usize, char)>,
    /// Index into `chars`.
    pos: usize,
    line: usize,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn peek(&self, k: usize) -> char {
        self.chars.get(self.pos + k).map(|&(_, c)| c).unwrap_or('\0')
    }

    fn byte_at(&self, k: usize) -> usize {
        self.chars.get(self.pos + k).map(|&(b, _)| b).unwrap_or(self.src.len())
    }

    /// Advance one char, tracking line numbers.
    fn bump(&mut self) {
        if self.peek(0) == '\n' {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn emit(&mut self, kind: TokenKind, start: usize, line: usize) {
        self.out.push(Token { kind, start, end: self.byte_at(0), line });
    }

    fn run(mut self) -> Vec<Token> {
        while self.pos < self.chars.len() {
            let c = self.peek(0);
            let start = self.byte_at(0);
            let line = self.line;
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == '/' {
                while self.pos < self.chars.len() && self.peek(0) != '\n' {
                    self.bump();
                }
                self.emit(TokenKind::Comment, start, line);
            } else if c == '/' && self.peek(1) == '*' {
                self.block_comment(start, line);
            } else if c == '"' {
                self.plain_string(start, line);
            } else if (c == 'r' || c == 'b') && self.raw_string_opens() {
                self.raw_string(start, line);
            } else if c == 'r' && self.peek(1) == '#' && is_ident_start(self.peek(2)) {
                // Raw identifier `r#ident` (a raw string was ruled out above:
                // `r#"` has a quote where the ident would start).
                self.bump();
                self.bump();
                while is_ident_continue(self.peek(0)) {
                    self.bump();
                }
                self.emit(TokenKind::Ident, start, line);
            } else if is_ident_start(c) {
                while is_ident_continue(self.peek(0)) {
                    self.bump();
                }
                self.emit(TokenKind::Ident, start, line);
            } else if c.is_ascii_digit() {
                self.number();
                self.emit(TokenKind::Number, start, line);
            } else if c == '\'' {
                self.quote(start, line);
            } else {
                self.bump();
                self.emit(TokenKind::Punct(c), start, line);
            }
        }
        self.out
    }

    /// Nested block comment: `/* /* */ still comment */` is one token.
    fn block_comment(&mut self, start: usize, line: usize) {
        let mut depth = 0u32;
        while self.pos < self.chars.len() {
            if self.peek(0) == '/' && self.peek(1) == '*' {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.peek(0) == '*' && self.peek(1) == '/' {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                self.bump();
            }
        }
        self.emit(TokenKind::Comment, start, line);
    }

    /// `"…"` with `\x` escapes swallowed (so `\"` cannot close the string).
    fn plain_string(&mut self, start: usize, line: usize) {
        self.bump(); // opening quote
        let interior_start = self.byte_at(0);
        while self.pos < self.chars.len() {
            if self.peek(0) == '\\' && self.peek(1) != '\0' {
                self.bump();
                self.bump();
            } else if self.peek(0) == '"' {
                let interior_end = self.byte_at(0);
                self.bump();
                self.emit(TokenKind::Str { interior_start, interior_end }, start, line);
                return;
            } else {
                self.bump();
            }
        }
        // Unterminated: interior runs to EOF.
        let interior_end = self.src.len();
        self.emit(TokenKind::Str { interior_start, interior_end }, start, line);
    }

    /// Does a raw-string opener (`r"`, `r#"`, `br"`, `rb#"`, …) start here?
    /// The prefix is at most two chars.
    fn raw_string_opens(&self) -> bool {
        // A preceding ident char would have been consumed into an Ident token
        // before we ever look here, so no prev-char check is needed.
        let mut k = 0usize;
        let mut saw_r = false;
        while self.peek(k) == 'r' || self.peek(k) == 'b' {
            saw_r |= self.peek(k) == 'r';
            k += 1;
            if k > 2 {
                return false;
            }
        }
        if !saw_r {
            return false;
        }
        while self.peek(k) == '#' {
            k += 1;
        }
        self.peek(k) == '"'
    }

    /// `r##"…"##` and byte variants: no escapes, closes on `"` + matching
    /// hashes.
    fn raw_string(&mut self, start: usize, line: usize) {
        while self.peek(0) == 'r' || self.peek(0) == 'b' {
            self.bump();
        }
        let mut hashes = 0usize;
        while self.peek(0) == '#' {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let interior_start = self.byte_at(0);
        while self.pos < self.chars.len() {
            if self.peek(0) == '"' && (0..hashes).all(|k| self.peek(1 + k) == '#') {
                let interior_end = self.byte_at(0);
                for _ in 0..1 + hashes {
                    self.bump();
                }
                self.emit(TokenKind::Str { interior_start, interior_end }, start, line);
                return;
            }
            self.bump();
        }
        let interior_end = self.src.len();
        self.emit(TokenKind::Str { interior_start, interior_end }, start, line);
    }

    /// Numeric literal: digits, `_`, radix/suffix letters, and a decimal
    /// point only when followed by a digit (so `1.max(2)` and `0..n` split).
    fn number(&mut self) {
        let mut seen_dot = false;
        loop {
            let c = self.peek(0);
            if c.is_ascii_alphanumeric() || c == '_' {
                // Exponent sign: `1e-5` / `1E+5`.
                if (c == 'e' || c == 'E')
                    && (self.peek(1) == '+' || self.peek(1) == '-')
                    && self.peek(2).is_ascii_digit()
                {
                    self.bump();
                    self.bump();
                }
                self.bump();
            } else if c == '.' && !seen_dot && self.peek(1).is_ascii_digit() {
                seen_dot = true;
                self.bump();
            } else {
                break;
            }
        }
    }

    /// `'` — char literal, lifetime, or bare quote, by lookahead: `'\…'` and
    /// `'x'` are literals.
    fn quote(&mut self, start: usize, line: usize) {
        if self.peek(1) == '\\' || (self.peek(1) != '\0' && self.peek(2) == '\'') {
            self.bump(); // opening quote
            let interior_start = self.byte_at(0);
            while self.pos < self.chars.len() {
                if self.peek(0) == '\\' && self.peek(1) != '\0' {
                    self.bump();
                    self.bump();
                } else if self.peek(0) == '\'' {
                    let interior_end = self.byte_at(0);
                    self.bump();
                    self.emit(TokenKind::Char { interior_start, interior_end }, start, line);
                    return;
                } else {
                    self.bump();
                }
            }
            let interior_end = self.src.len();
            self.emit(TokenKind::Char { interior_start, interior_end }, start, line);
        } else if is_ident_start(self.peek(1)) {
            self.bump();
            while is_ident_continue(self.peek(0)) {
                self.bump();
            }
            self.emit(TokenKind::Lifetime, start, line);
        } else {
            self.bump();
            self.emit(TokenKind::Punct('\''), start, line);
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Classification of one source char, as the masked views see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CharClass {
    /// Plain code, literal framing (quotes/prefixes/hashes), whitespace.
    Code,
    /// Inside a line or block comment.
    Comment,
    /// Inside the interior of a string/char literal (blanked in both views).
    LiteralInterior,
}

/// `src` cut into consecutive runs of one class each under `tokens`; the
/// runs concatenate back to `src` (some may be empty).
pub fn class_runs<'a>(src: &'a str, tokens: &[Token]) -> Vec<(&'a str, CharClass)> {
    let mut out = Vec::new();
    let mut at = 0usize;
    for t in tokens {
        let (start, end, class) = match t.kind {
            TokenKind::Comment => (t.start, t.end, CharClass::Comment),
            TokenKind::Str { interior_start, interior_end }
            | TokenKind::Char { interior_start, interior_end } => {
                (interior_start, interior_end, CharClass::LiteralInterior)
            }
            _ => continue,
        };
        out.push((&src[at..start], CharClass::Code));
        out.push((&src[start..end], class));
        at = end;
    }
    out.push((&src[at..], CharClass::Code));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).iter().map(|t| (t.kind, t.text(src).to_string())).collect()
    }

    #[test]
    fn idents_numbers_puncts() {
        let ts = kinds("fn f1(x: u32) -> f64 { x as f64 * 1.5e-3 }");
        assert!(ts.iter().any(|(k, s)| *k == TokenKind::Ident && s == "f1"));
        assert!(ts.iter().any(|(k, s)| *k == TokenKind::Number && s == "1.5e-3"));
        assert!(ts.iter().any(|(k, _)| *k == TokenKind::Punct('{')));
    }

    #[test]
    fn method_on_int_and_ranges_split() {
        let ts = kinds("1.max(2); 0..n; 3..=4");
        assert!(ts.iter().any(|(k, s)| *k == TokenKind::Number && s == "1"));
        assert!(ts.iter().any(|(k, s)| *k == TokenKind::Ident && s == "max"));
        assert!(ts.iter().any(|(k, s)| *k == TokenKind::Number && s == "3"));
    }

    #[test]
    fn strings_carry_interiors() {
        let src = r####"let s = r##"raw "quoted" body"##; t("x\"y");"####;
        let ts = lex(src);
        let strs: Vec<&Token> =
            ts.iter().filter(|t| matches!(t.kind, TokenKind::Str { .. })).collect();
        assert_eq!(strs.len(), 2);
        if let TokenKind::Str { interior_start, interior_end } = strs[0].kind {
            assert_eq!(&src[interior_start..interior_end], "raw \"quoted\" body");
        }
        if let TokenKind::Str { interior_start, interior_end } = strs[1].kind {
            assert_eq!(&src[interior_start..interior_end], "x\\\"y");
        }
    }

    #[test]
    fn char_vs_lifetime() {
        let ts = kinds("fn f<'a>(x: &'a str) { let c = 'y'; let e = '\\n'; }");
        assert_eq!(ts.iter().filter(|(k, _)| *k == TokenKind::Lifetime).count(), 2);
        assert_eq!(
            ts.iter().filter(|(k, _)| matches!(k, TokenKind::Char { .. })).count(),
            2,
            "{ts:?}"
        );
    }

    #[test]
    fn nested_block_comments_one_token() {
        let src = "/* a /* nested */ still */ code()";
        let ts = lex(src);
        assert_eq!(ts[0].kind, TokenKind::Comment);
        assert_eq!(ts[0].text(src), "/* a /* nested */ still */");
        assert!(ts.iter().any(|t| t.is_ident(src, "code")));
    }

    #[test]
    fn lines_are_tracked() {
        let src = "a\nb /* c\nd */ e\nf";
        let ts = lex(src);
        let find = |name: &str| ts.iter().find(|t| t.is_ident(src, name)).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 2);
        assert_eq!(find("e"), 3);
        assert_eq!(find("f"), 4);
    }

    #[test]
    fn raw_ident_is_one_token() {
        let ts = kinds("let r#type = 1;");
        assert!(ts.iter().any(|(k, s)| *k == TokenKind::Ident && s == "r#type"));
    }

    #[test]
    fn classes_cover_comments_and_interiors() {
        let src = "x /*c*/ \"sss\" 'y'";
        let runs = class_runs(src, &lex(src));
        assert_eq!(runs.iter().map(|(text, _)| *text).collect::<String>(), src);
        for (i, (c, class)) in
            runs.iter().flat_map(|&(text, class)| text.chars().map(move |c| (c, class))).enumerate()
        {
            let want = match c {
                'c' | '*' | '/' => CharClass::Comment,
                's' | 'y' => CharClass::LiteralInterior,
                _ => CharClass::Code,
            };
            assert_eq!(class, want, "char {i} `{c}`");
        }
    }
}
