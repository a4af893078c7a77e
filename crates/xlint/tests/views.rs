//! Property test: the per-line code/comment views agree with ground truth.
//!
//! Snippets are assembled from atoms (idents, puncts, plain/raw strings, char
//! literals, lifetimes, line and block comments), and the generator records
//! the class of every char it emits — it *knows* what is code, comment and
//! literal interior, so it is the oracle. String atoms carry comment openers
//! and real newlines, comment atoms carry quotes, char atoms include an
//! escaped newline: none of them may flip the class of what follows or
//! shift a column.

use proptest::prelude::*;
use xlint::lexer::{self, CharClass};
use xlint::lints::masked_lines;
use CharClass::{Code, Comment, LiteralInterior as Interior};

const IDENTS: &[&str] = &["alpha", "beta_2", "now", "lock", "x", "fname", "r#type"];
const KEYWORDS: &[&str] = &["fn", "let", "impl", "use", "mod", "match", "pub"];
const PUNCTS: &[&str] =
    &["::", "->", "{", "}", "(", ")", ";", ",", ".", "=", "&", "<", ">", "#", "!", "..="];
const STR_CHUNKS: &[&str] = &["abc", "x y", "//", "/*", "*/", "'", "0", "no{w}", "two\nlines"];
const STR_ESCAPES: &[&str] = &["\\\\", "\\\"", "\\n", "\\t", "\\'", "\\\n"];
const RAW_PLAIN: &[&str] = &["plain", "// not a comment", "x 'y'", "*/ still string"];
const RAW_HASHED: &[&str] = &["un \"safe", "a \" b", "plain too", "/* \" */"];
const CHAR_BODIES: &[&str] = &["a", "7", "*", "\"", "\\n", "\\\\", "\\'", "\\\n"];
const LIFETIMES: &[&str] = &["a", "de", "static"];
const COMMENT_TEXT: &[&str] = &["plain", "has \" quote", "star * slash", "x007 'tick'"];
const BLOCK_TEXT: &[&str] = &["text", "x \" y", "quote ' inside", "0", "two\nlines"];

fn pick<'a>(table: &'a [&'a str], bits: u64) -> &'a str {
    table[(bits % table.len() as u64) as usize]
}

/// Source text plus the class the generator assigned to each of its chars.
#[derive(Default)]
struct Gen {
    src: String,
    want: Vec<CharClass>,
}

impl Gen {
    fn emit(&mut self, text: &str, class: CharClass) {
        self.src.push_str(text);
        self.want.extend(text.chars().map(|_| class));
    }

    /// A literal: framing (prefix, hashes, quotes) is code, the body interior.
    fn literal(&mut self, open: &str, body: &str, close: &str) {
        self.emit(open, Code);
        self.emit(body, Interior);
        self.emit(close, Code);
    }

    /// Append one source atom chosen by `(kind, bits)`.
    fn atom(&mut self, kind: u8, bits: u64) {
        match kind % 10 {
            0 => self.emit(pick(IDENTS, bits), Code),
            1 => self.emit(pick(KEYWORDS, bits), Code),
            2 => self.emit(&(bits % 100_000).to_string(), Code),
            3 => self.emit(pick(PUNCTS, bits), Code),
            4 => {
                // Plain string: 1–3 pieces, each a chunk or an escape.
                let mut body = String::new();
                let mut b = bits;
                for _ in 0..(b % 3 + 1) {
                    body.push_str(pick(if b & 1 == 0 { STR_CHUNKS } else { STR_ESCAPES }, b >> 1));
                    b >>= 3;
                }
                self.literal("\"", &body, "\"");
            }
            // Raw string, 0 or 1 hashes; a hashed interior may hold bare
            // quotes (but never the `"#` terminator).
            5 if bits & 1 == 1 => self.literal("r#\"", pick(RAW_HASHED, bits >> 1), "\"#"),
            5 => self.literal("r\"", pick(RAW_PLAIN, bits >> 1), "\""),
            6 => self.literal("'", pick(CHAR_BODIES, bits), "'"),
            7 => self.emit(&format!("'{}", pick(LIFETIMES, bits)), Code),
            8 => {
                self.emit(&format!("// {}", pick(COMMENT_TEXT, bits)), Comment);
                self.emit("\n", Code);
            }
            _ => self.emit(&format!("/* {} */", pick(BLOCK_TEXT, bits)), Comment),
        }
        self.emit(" ", Code);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn views_match_the_generators_classification(
        atoms in collection::vec((any::<u8>(), any::<u64>()), 1..40)
    ) {
        let mut g = Gen::default();
        for (kind, bits) in &atoms {
            g.atom(*kind, *bits);
        }
        g.emit("\n", Code);
        let src = g.src.as_str();

        let tokens = lexer::lex(src);
        let views = masked_lines(src, &tokens);
        prop_assert_eq!(views.len(), src.lines().count(), "line count in:\n{}", src);

        let mut want = g.want.iter();
        for (line, view) in src.lines().zip(&views) {
            // Both views keep every column of the source line.
            let code: Vec<char> = view.code.chars().collect();
            let comment: Vec<char> = view.comment.chars().collect();
            prop_assert_eq!(code.len(), line.chars().count(), "code columns in:\n{}", src);
            prop_assert_eq!(comment.len(), code.len(), "comment columns in:\n{}", src);
            // Each char is kept by exactly the view its class names, and
            // blanked in the other; a literal interior is blank in both.
            for (col, c) in line.chars().enumerate() {
                let expect = match want.next() {
                    Some(Code) => (c, ' '),
                    Some(Comment) => (' ', c),
                    _ => (' ', ' '),
                };
                prop_assert_eq!((code[col], comment[col]), expect, "col {} of `{}` in:\n{}", col, line, src);
            }
            want.next(); // the newline that ended this line
        }

        // Token sanity while we have the stream: spans are in-bounds,
        // non-empty, and strictly ordered.
        let mut prev_end = 0usize;
        for t in &tokens {
            prop_assert!(t.start >= prev_end, "overlapping tokens in:\n{}", src);
            prop_assert!(t.end > t.start && t.end <= src.len());
            prev_end = t.end;
        }
    }
}
