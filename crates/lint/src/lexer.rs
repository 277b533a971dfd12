//! A minimal Rust token scanner.
//!
//! The linter must never fire on text inside string literals, character
//! literals, raw strings or comments, so rules cannot run on raw lines —
//! they run on this token stream. The scanner is deliberately lossy
//! about things rules do not care about (numeric suffixes, operator
//! jointness) but exact about the things they do: literal and comment
//! boundaries, identifier text, and line numbers.
//!
//! Handled: line (`//`) and nested block (`/* /* */ */`) comments, doc
//! comments, string/byte-string literals with escapes, raw and raw-byte
//! strings with arbitrary `#` fences, character literals vs lifetimes
//! (`'a'` vs `'a`), raw identifiers (`r#type`), and multi-byte UTF-8
//! content inside any of those.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword (`HashMap`, `fn`, `r#type`).
    Ident,
    /// Numeric literal (loosely scanned; rules ignore these).
    Number,
    /// `"..."` or `b"..."` literal, escapes resolved only for bounds.
    Str,
    /// `r"..."`, `r#"..."#`, `br#"..."#` literal.
    RawStr,
    /// `'x'`, `'\n'`, `'\u{1F600}'`.
    CharLit,
    /// `'a`, `'static`.
    Lifetime,
    /// `// ...` to end of line, including `///` and `//!` docs.
    LineComment,
    /// `/* ... */`, nesting respected.
    BlockComment,
    /// Any other single character (`.`, `:`, `{`, `<`, …).
    Punct,
}

/// One lexed token: kind, source text and 1-based start line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Token<'a> {
    pub(crate) kind: TokenKind,
    pub(crate) text: &'a str,
    pub(crate) line: u32,
}

impl<'a> Token<'a> {
    /// True for comment trivia (line or block).
    pub(crate) fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// True when this token is the identifier `word`.
    pub(crate) fn is_ident(&self, word: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == word
    }

    /// True when this token is the punctuation character `ch`.
    pub(crate) fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct && self.text.starts_with(ch)
    }
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphabetic()
}

fn is_ident_continue(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Scan `src` into tokens. Never fails: unterminated literals simply run
/// to end of input, which is good enough for lint scoping.
pub(crate) fn lex(src: &str) -> Vec<Token<'_>> {
    Lexer { src, bytes: src.as_bytes(), pos: 0, line: 1, out: Vec::new() }.run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token<'a>>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token<'a>> {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(self.pos, TokenKind::Str),
                b'\'' => self.char_or_lifetime(),
                _ if b.is_ascii_digit() => self.number(),
                _ if is_ident_start(b) => self.ident_or_prefixed_literal(),
                _ => self.punct(),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, start: usize, end: usize, line: u32) {
        self.out.push(Token { kind, text: &self.src[start..end], line });
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
        self.push(TokenKind::LineComment, start, self.pos, self.line);
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.bytes.len() && depth > 0 {
            match self.bytes[self.pos] {
                b'/' if self.peek(1) == Some(b'*') => {
                    depth += 1;
                    self.pos += 2;
                }
                b'*' if self.peek(1) == Some(b'/') => {
                    depth -= 1;
                    self.pos += 2;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.push(TokenKind::BlockComment, start, self.pos, line);
    }

    /// A `"`-delimited literal with `\` escapes, starting at `start`
    /// (which may be before `self.pos` when a `b` prefix was consumed).
    fn string(&mut self, start: usize, kind: TokenKind) {
        let line = self.line;
        self.pos += 1; // opening quote
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => self.pos += 2, // escape: skip the escaped byte
                b'"' => {
                    self.pos += 1;
                    self.push(kind, start, self.pos, line);
                    return;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.push(kind, start, self.pos, line); // unterminated
    }

    /// A raw string starting at `start`; `self.pos` is on the `r`.
    fn raw_string(&mut self, start: usize) {
        let line = self.line;
        self.pos += 1; // the 'r'
        let mut fence = 0usize;
        while self.peek(0) == Some(b'#') {
            fence += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote (caller guaranteed it)
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'"' => {
                    let mut hashes = 0usize;
                    while hashes < fence && self.peek(1 + hashes) == Some(b'#') {
                        hashes += 1;
                    }
                    if hashes == fence {
                        self.pos += 1 + fence;
                        self.push(TokenKind::RawStr, start, self.pos, line);
                        return;
                    }
                    self.pos += 1;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.push(TokenKind::RawStr, start, self.pos, line); // unterminated
    }

    /// `'a'` char literal vs `'a` lifetime. Rule (same as rustc): a `'`
    /// followed by an identifier is a char literal only when the
    /// identifier is immediately followed by a closing `'`.
    fn char_or_lifetime(&mut self) {
        let start = self.pos;
        let line = self.line;
        match self.peek(1) {
            Some(b) if is_ident_start(b) => {
                let mut j = self.pos + 2;
                while j < self.bytes.len() && is_ident_continue(self.bytes[j]) {
                    j += 1;
                }
                if self.bytes.get(j) == Some(&b'\'') {
                    self.pos = j + 1;
                    self.push(TokenKind::CharLit, start, self.pos, line);
                } else {
                    self.pos = j;
                    self.push(TokenKind::Lifetime, start, self.pos, line);
                }
            }
            Some(b'\\') => {
                // Escaped char literal: skip to the closing quote,
                // honouring `'\''` and `'\\'`.
                self.pos += 2; // quote + backslash
                self.pos += 1; // the escaped byte itself
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\'' {
                    if self.bytes[self.pos] == b'\n' {
                        self.line += 1;
                    }
                    self.pos += 1;
                }
                self.pos += 1; // closing quote
                self.push(TokenKind::CharLit, start, self.pos.min(self.bytes.len()), line);
            }
            Some(_) => {
                // Plain (possibly multi-byte) char literal.
                self.pos += 1;
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\'' {
                    self.pos += 1;
                }
                self.pos += 1;
                self.push(TokenKind::CharLit, start, self.pos.min(self.bytes.len()), line);
            }
            None => {
                self.pos += 1;
                self.push(TokenKind::Punct, start, self.pos, line);
            }
        }
    }

    fn number(&mut self) {
        let start = self.pos;
        while self.pos < self.bytes.len() && is_ident_continue(self.bytes[self.pos]) {
            self.pos += 1;
        }
        self.push(TokenKind::Number, start, self.pos, self.line);
    }

    /// An identifier, or one of the literal prefixes `r" b" br" r#"` —
    /// including raw identifiers `r#name`.
    fn ident_or_prefixed_literal(&mut self) {
        let start = self.pos;
        let b = self.bytes[self.pos];
        // Raw string / raw identifier: r" r#" r#ident
        if b == b'r' {
            match self.peek(1) {
                Some(b'"') => return self.raw_string(start),
                Some(b'#') => {
                    // r#"..."# is a raw string; r#ident is a raw identifier.
                    let mut j = self.pos + 1;
                    while self.bytes.get(j) == Some(&b'#') {
                        j += 1;
                    }
                    if self.bytes.get(j) == Some(&b'"') {
                        return self.raw_string(start);
                    }
                    // Raw identifier: skip `r#`, scan the name.
                    self.pos += 2;
                    while self.pos < self.bytes.len() && is_ident_continue(self.bytes[self.pos]) {
                        self.pos += 1;
                    }
                    return self.push(TokenKind::Ident, start, self.pos, self.line);
                }
                _ => {}
            }
        }
        // Byte string b"..." and raw byte string br"..." / br#"..."#.
        if b == b'b' {
            match self.peek(1) {
                Some(b'"') => {
                    self.pos += 1;
                    return self.string(start, TokenKind::Str);
                }
                Some(b'\'') => {
                    // Byte char literal b'x'.
                    self.pos += 1;
                    return self.char_or_lifetime_as_byte(start);
                }
                Some(b'r') if matches!(self.peek(2), Some(b'"') | Some(b'#')) => {
                    self.pos += 1;
                    return self.raw_string(start);
                }
                _ => {}
            }
        }
        while self.pos < self.bytes.len() && is_ident_continue(self.bytes[self.pos]) {
            self.pos += 1;
        }
        self.push(TokenKind::Ident, start, self.pos, self.line);
    }

    /// Body of `b'x'`; `self.pos` sits on the `'`.
    fn char_or_lifetime_as_byte(&mut self, start: usize) {
        let line = self.line;
        self.pos += 1; // the quote
        if self.peek(0) == Some(b'\\') {
            self.pos += 2;
        } else {
            self.pos += 1;
        }
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\'' {
            self.pos += 1;
        }
        self.pos = (self.pos + 1).min(self.bytes.len());
        self.push(TokenKind::CharLit, start, self.pos, line);
    }

    fn punct(&mut self) {
        let start = self.pos;
        // Advance one full UTF-8 character, not one byte.
        let ch_len = self.src[start..].chars().next().map_or(1, |c| c.len_utf8());
        self.pos += ch_len;
        self.push(TokenKind::Punct, start, self.pos, self.line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("use std::collections::HashMap;");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "use"),
                (TokenKind::Ident, "std"),
                (TokenKind::Punct, ":"),
                (TokenKind::Punct, ":"),
                (TokenKind::Ident, "collections"),
                (TokenKind::Punct, ":"),
                (TokenKind::Punct, ":"),
                (TokenKind::Ident, "HashMap"),
                (TokenKind::Punct, ";"),
            ]
        );
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = "HashMap::new() // not a comment";"#);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Str && t.contains("HashMap")));
        assert!(!toks.iter().any(|(k, t)| *k == TokenKind::Ident && *t == "HashMap"));
        assert!(!toks.iter().any(|(k, _)| *k == TokenKind::LineComment));
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = "let s = r#\"contains \"quotes\" and HashMap\"#; let t = 1;";
        let toks = kinds(src);
        let raw: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::RawStr).collect();
        assert_eq!(raw.len(), 1);
        assert!(raw[0].1.contains("HashMap"));
        // Lexing resumed correctly after the fence.
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && *t == "t"));
    }

    #[test]
    fn raw_strings_hide_comment_markers_and_orderings() {
        // Regression guard for the A2/E2/T1 generation: `//` and
        // `Ordering::Relaxed` inside a raw string are literal text, not
        // a comment and not idents the rules could fire on.
        let src = r##"let doc = r#"uses Ordering::Relaxed // not a comment"#; let x = 1;"##;
        let toks = kinds(src);
        assert!(!toks.iter().any(|(k, _)| *k == TokenKind::LineComment), "{toks:?}");
        assert!(!toks.iter().any(|(k, t)| *k == TokenKind::Ident
            && (*t == "Ordering" || *t == "Relaxed")));
        let raw: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::RawStr).collect();
        assert_eq!(raw.len(), 1);
        assert!(raw[0].1.contains("Ordering::Relaxed") && raw[0].1.contains("//"));
        // Lexing resumed correctly after the fence.
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && *t == "x"));
    }

    #[test]
    fn multiline_raw_string_with_inner_fences_stays_one_token() {
        let src = "let s = r##\"line one // slash\nr#\"inner\"# Ordering::Relaxed\n\"##;\nlet after = 2;";
        let toks = lex(src);
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::RawStr).count(), 1);
        assert!(!toks.iter().any(|t| t.is_ident("Ordering")));
        let after = toks.iter().find(|t| t.is_ident("after")).expect("after token");
        assert_eq!(after.line, 4, "line counting must survive the multiline raw string");
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let toks = kinds(r##"let a = b"bytes"; let b = br#"raw bytes"#;"##);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 1);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::RawStr).count(), 1);
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::CharLit).count(), 2);
    }

    #[test]
    fn static_lifetime_is_not_a_char() {
        let toks = kinds("&'static str");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Lifetime && *t == "'static"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner HashMap */ still comment */ real");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::BlockComment).count(), 1);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && *t == "real"));
        assert!(!toks.iter().any(|(k, t)| *k == TokenKind::Ident && *t == "HashMap"));
    }

    #[test]
    fn line_comments_capture_allow_syntax() {
        let toks = kinds("let x = 1; // wsg_lint: allow(hash-collections)\nlet y = 2;");
        let comment = toks.iter().find(|(k, _)| *k == TokenKind::LineComment);
        assert!(comment.is_some_and(|(_, t)| t.contains("allow(hash-collections)")));
    }

    #[test]
    fn line_numbers_advance_through_literals() {
        let src = "line1\nlet s = \"multi\nline\nstring\";\nlet after = 5;";
        let toks = lex(src);
        let after = toks.iter().find(|t| t.is_ident("after")).expect("after token");
        assert_eq!(after.line, 5);
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).expect("str token");
        assert_eq!(s.line, 2);
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#type = 1;");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && *t == "r#type"));
    }

    #[test]
    fn escaped_quote_in_char_literal() {
        let toks = kinds(r"let q = '\''; let x = 1;");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::CharLit).count(), 1);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && *t == "x"));
    }

    #[test]
    fn multibyte_content_survives() {
        let toks = kinds("let s = \"héllo ∞\"; let c = '∞'; let x = 1;");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && *t == "x"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::CharLit).count(), 1);
    }
}
