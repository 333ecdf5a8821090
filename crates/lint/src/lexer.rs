//! A minimal Rust lexer for the lint rules.
//!
//! The offline build environment carries no `syn`, so — in the same spirit
//! as the vendored `proptest` work-alike — the analysis runs on a
//! purpose-built token stream instead of a full AST. The lexer strips
//! comments, string/char literals and lifetimes (so `"HashMap"` in a string
//! or `// HashMap` in a comment can never trigger a rule) and returns
//! identifiers, punctuation and literal placeholders with 1-based line
//! numbers. That is exactly the surface the rules in [`crate::rules`] need:
//! path segments (`std :: time`), method calls (`. unwrap`), cast syntax
//! (`as u16`) and brace/paren structure for `match` bodies.

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
    /// Number, string, byte-string or char literal (contents stripped).
    Lit,
}

/// A token plus the 1-based source line it starts on.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based line number.
    pub line: u32,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    /// Consume a (possibly raw) string literal body; the opening delimiter
    /// has already been consumed up to and including the first `"`.
    fn skip_string(&mut self, raw: bool, hashes: usize) {
        loop {
            match self.bump() {
                None => return,
                Some('\\') if !raw => {
                    self.bump(); // escaped char (incl. \" and \\)
                }
                Some('"') => {
                    // Raw string: the close is `"` followed by `hashes`
                    // hashes; plain strings close immediately.
                    let mut seen = 0;
                    while seen < hashes && self.peek(0) == Some('#') {
                        self.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        return;
                    }
                }
                Some(_) => {}
            }
        }
    }
}

/// Lex `src` into a token stream.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
    };
    let mut out = Vec::new();
    while let Some(c) = cur.peek(0) {
        let line = cur.line;
        // Whitespace.
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == '/' && cur.peek(1) == Some('/') {
            while let Some(c) = cur.peek(0) {
                if c == '\n' {
                    break;
                }
                cur.bump();
            }
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            cur.bump();
            cur.bump();
            let mut depth = 1usize;
            while depth > 0 {
                match cur.bump() {
                    None => break,
                    Some('/') if cur.peek(0) == Some('*') => {
                        cur.bump();
                        depth += 1;
                    }
                    Some('*') if cur.peek(0) == Some('/') => {
                        cur.bump();
                        depth -= 1;
                    }
                    Some(_) => {}
                }
            }
            continue;
        }
        // Raw identifiers: `r#match`, `r#type`. Must be checked before the
        // raw-string branch (`r#"` is a string, `r#m` is an identifier) and
        // before the plain-identifier branch (which would stop at the `#`
        // and leave a stray keyword token behind — a stray `match` ident
        // derails the match-arm scanner in `rules`). The token keeps its
        // `r#` prefix so keyword comparisons never mistake `r#match` for
        // the `match` keyword.
        if c == 'r' && cur.peek(1) == Some('#') && cur.peek(2).is_some_and(is_ident_start) {
            let mut ident = String::from("r#");
            cur.bump();
            cur.bump();
            while let Some(c) = cur.peek(0) {
                if is_ident_continue(c) {
                    ident.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
            out.push(Token {
                tok: Tok::Ident(ident),
                line,
            });
            continue;
        }
        // Raw / byte strings: r"..", r#".."#, b"..", br#".."#.
        if (c == 'r' || c == 'b') && raw_string_lookahead(&cur) {
            let mut raw = false;
            while matches!(cur.peek(0), Some('r') | Some('b')) {
                raw |= cur.peek(0) == Some('r');
                cur.bump();
            }
            let mut hashes = 0usize;
            while cur.peek(0) == Some('#') {
                cur.bump();
                hashes += 1;
            }
            debug_assert_eq!(cur.peek(0), Some('"'));
            cur.bump();
            cur.skip_string(raw, hashes);
            out.push(Token {
                tok: Tok::Lit,
                line,
            });
            continue;
        }
        // Identifiers / keywords (after the raw-string check so `r#"` is
        // not mistaken for an ident).
        if is_ident_start(c) {
            let mut ident = String::new();
            while let Some(c) = cur.peek(0) {
                if is_ident_continue(c) {
                    ident.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
            out.push(Token {
                tok: Tok::Ident(ident),
                line,
            });
            continue;
        }
        // Plain strings.
        if c == '"' {
            cur.bump();
            cur.skip_string(false, 0);
            out.push(Token {
                tok: Tok::Lit,
                line,
            });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            cur.bump();
            match cur.peek(0) {
                // `'a` / `'static` lifetime (not followed by a closing
                // quote): swallow the label, emit nothing.
                Some(n) if is_ident_start(n) && cur.peek(1) != Some('\'') => {
                    while let Some(c) = cur.peek(0) {
                        if is_ident_continue(c) {
                            cur.bump();
                        } else {
                            break;
                        }
                    }
                }
                // Char literal: consume until the unescaped closing quote.
                _ => {
                    loop {
                        match cur.bump() {
                            None | Some('\'') => break,
                            Some('\\') => {
                                cur.bump();
                            }
                            Some(_) => {}
                        }
                    }
                    out.push(Token {
                        tok: Tok::Lit,
                        line,
                    });
                }
            }
            continue;
        }
        // Numbers (loose: handles 0xFF, 1_000, 1.5e-3, 4usize).
        if c.is_ascii_digit() {
            while let Some(c) = cur.peek(0) {
                let continues = c.is_alphanumeric()
                    || c == '_'
                    || (c == '.' && cur.peek(1).is_some_and(|d| d.is_ascii_digit()));
                if !continues {
                    break;
                }
                cur.bump();
            }
            out.push(Token {
                tok: Tok::Lit,
                line,
            });
            continue;
        }
        // Everything else: single punctuation character.
        cur.bump();
        out.push(Token {
            tok: Tok::Punct(c),
            line,
        });
    }
    out
}

/// Does the cursor sit on a raw/byte string prefix (`r"`, `r#`, `b"`,
/// `br"`, `br#`...)? Plain identifiers like `routes` must not match.
fn raw_string_lookahead(cur: &Cursor) -> bool {
    let mut i = 0;
    let mut saw_r = false;
    if cur.peek(i) == Some('b') {
        i += 1;
    }
    if cur.peek(i) == Some('r') {
        saw_r = true;
        i += 1;
    }
    if i == 0 {
        return false;
    }
    let mut hashes = 0usize;
    while cur.peek(i) == Some('#') {
        i += 1;
        hashes += 1;
    }
    if hashes > 0 && !saw_r {
        return false; // `b#"` is not a string prefix
    }
    cur.peek(i) == Some('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_are_stripped() {
        let src = r##"
            // HashMap in a comment
            /* HashMap /* nested */ still comment */
            let s = "HashMap in a string";
            let r = r#"HashMap raw "quoted" string"#;
            let c = 'H';
            let real = BTreeMap::new();
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "HashMap"), "{ids:?}");
        assert!(ids.iter().any(|i| i == "BTreeMap"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(ids.contains(&"str".to_string()));
        assert!(!ids.contains(&"a".to_string()), "{ids:?}");
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n  c");
        let lines: Vec<(String, u32)> = toks
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some((s, t.line)),
                _ => None,
            })
            .collect();
        assert_eq!(
            lines,
            vec![
                ("a".to_string(), 1),
                ("b".to_string(), 2),
                ("c".to_string(), 3)
            ]
        );
    }

    #[test]
    fn numbers_with_method_calls_keep_the_dot_call() {
        // `0.max(x)` must lex as Lit . max ( x ) — the `.` must not be
        // swallowed into the number.
        let toks = lex("let y = 0.max(x);");
        let has_max = toks
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "max"));
        assert!(has_max);
    }

    #[test]
    fn escaped_quotes_do_not_end_strings_early() {
        let ids = idents(r#"let s = "a \" HashMap \" b"; let t = ok;"#);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(ids.contains(&"ok".to_string()));
    }

    #[test]
    fn raw_identifiers_are_single_tokens_with_prefix() {
        // `r#match` must not decay into `r`, `#`, `match`: the stray
        // `match` keyword would send the match-arm scanner into arbitrary
        // following tokens (regression fixture simvis_lexer_edge_pass.rs).
        let toks = lex("let r#match = 5; fn r#type() {} r#Instant");
        let ids: Vec<String> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert!(ids.contains(&"r#match".to_string()), "{ids:?}");
        assert!(ids.contains(&"r#type".to_string()), "{ids:?}");
        assert!(ids.contains(&"r#Instant".to_string()), "{ids:?}");
        assert!(!ids.contains(&"match".to_string()), "{ids:?}");
        assert!(!ids.contains(&"Instant".to_string()), "{ids:?}");
        assert!(!toks.iter().any(|t| t.tok == Tok::Punct('#')), "{toks:?}");
    }

    #[test]
    fn raw_string_prefix_still_wins_over_raw_ident() {
        // `r#"..."#` is a raw string, not a raw identifier.
        let toks = lex(r###"let s = r#"HashMap"#; let ok = 1;"###);
        let ids = idents(r###"let s = r#"HashMap"#; let ok = 1;"###);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(toks.iter().any(|t| t.tok == Tok::Lit));
    }

    #[test]
    fn multi_hash_raw_strings_close_on_exact_hash_count() {
        // The `"#` inside an `r##"…"##` body is content, not a close.
        let ids = idents(r#####"let s = r##"x "# Instant "##; let ok = 1;"#####);
        assert!(!ids.contains(&"Instant".to_string()), "{ids:?}");
        assert!(ids.contains(&"ok".to_string()));
    }

    #[test]
    fn byte_raw_strings_and_byte_chars() {
        let ids = idents(r##"let b = br#"HashSet " inside"#; let c = b'x'; let ok = 1;"##);
        assert!(!ids.contains(&"HashSet".to_string()), "{ids:?}");
        assert!(!ids.contains(&"x".to_string()), "{ids:?}");
        assert!(ids.contains(&"ok".to_string()));
    }

    #[test]
    fn deeply_nested_and_star_heavy_block_comments() {
        for src in [
            "/* a /* b /* c */ b */ a */ let ok = 1;",
            "/*/**/*/ let ok = 1;",
            "/* ** /* x **/ y **/ let ok = 1;",
            "/* \" unclosed quote in comment */ let ok = 1;",
            "/* line1\n line2 /* inner\n */ outer */ let ok = 1;",
        ] {
            let ids = idents(src);
            assert_eq!(ids, vec!["let", "ok"], "src: {src}");
        }
    }

    #[test]
    fn raw_strings_spanning_lines_keep_line_numbers() {
        let toks = lex("let s = r#\"a\nb\nc\"#;\nlet ok = 1;");
        let ok_line = toks
            .iter()
            .find_map(|t| match &t.tok {
                Tok::Ident(s) if s == "ok" => Some(t.line),
                _ => None,
            })
            .expect("ok token");
        assert_eq!(ok_line, 4);
    }
}
