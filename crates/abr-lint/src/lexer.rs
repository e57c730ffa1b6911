//! A lightweight Rust tokenizer — just enough lexical structure to run
//! the repo's invariant rules, in the spirit of `abr_sim::json`'s
//! hand-rolled parser: no `syn`, no external dependencies.
//!
//! The lexer understands comments (line + nested block), string/char
//! literals (including raw strings with hashes and byte strings),
//! lifetimes, identifiers, numbers, and punctuation, and records the
//! 1-based line of every token. It also extracts `abr-lint:` annotation
//! comments and, in a second pass over the token stream, marks the
//! token ranges belonging to `#[cfg(test)]` items so rules can skip
//! test code.

use std::collections::{BTreeMap, BTreeSet};

/// Token classes the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Punct,
    /// Char/number literal (contents not preserved verbatim).
    Lit,
    /// String literal (plain, raw, or byte). `text` holds the contents
    /// between the quotes, uncooked: escape sequences stay as written.
    Str,
    /// A lifetime such as `'a`.
    Lifetime,
}

/// One token with its source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Token text (one char for punctuation, the spelling for idents).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

/// An `// abr-lint: allow(RULE, reason)` annotation found in a comment.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// The rule id inside `allow(...)`, e.g. `D001`.
    pub rule: String,
    /// The free-text reason after the comma (trimmed; may be empty —
    /// the lint reports empty reasons as malformed).
    pub reason: String,
    /// Whether the comment is the only thing on its line (then it
    /// applies to the *next* line; otherwise to its own line).
    pub own_line: bool,
}

/// The lexed form of one source file.
#[derive(Debug)]
pub struct Lexed {
    /// Token stream in source order.
    pub tokens: Vec<Tok>,
    /// `abr-lint:` annotations, in source order.
    pub annotations: Vec<Annotation>,
    /// `in_test[i]` — token `i` is inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

impl Lexed {
    /// The 1-based line each annotation *applies to*: its own line for a
    /// trailing comment, the following line for a comment on a line of
    /// its own.
    pub fn annotation_lines(&self) -> impl Iterator<Item = (u32, &Annotation)> {
        self.annotations
            .iter()
            .map(|a| (if a.own_line { a.line + 1 } else { a.line }, a))
    }

    /// Rule ids allowed per 1-based line, as the rules consume them.
    /// Validation (known rule, non-empty reason) is L001's job in
    /// [`crate::rules::lint_file`]; an unknown id here is simply inert.
    pub fn allow_lines(&self) -> BTreeMap<u32, BTreeSet<String>> {
        let mut allow: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
        for (applies_to, a) in self.annotation_lines() {
            allow.entry(applies_to).or_default().insert(a.rule.clone());
        }
        allow
    }
}

/// Tokenize `source`, extracting annotations and test-region marks.
pub fn lex(source: &str) -> Lexed {
    let b = source.as_bytes();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut tokens = Vec::new();
    let mut annotations = Vec::new();
    // Whether a token has already been emitted on the current line
    // (decides `Annotation::own_line`).
    let mut line_has_token = false;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                line_has_token = false;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let text = &source[start..i];
                // Doc comments (`///`, `//!`) are documentation — an
                // annotation example quoted in them must not register
                // as a live annotation.
                let doc = text.starts_with("///") || text.starts_with("//!");
                if !doc {
                    if let Some(a) = parse_annotation(text, line, !line_has_token) {
                        annotations.push(a);
                    }
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start_line = line;
                let start = i;
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let text = &source[start..i];
                let doc = text.starts_with("/**") || text.starts_with("/*!");
                if !doc {
                    if let Some(a) = parse_annotation(text, start_line, !line_has_token) {
                        annotations.push(a);
                    }
                }
            }
            b'"' => {
                let start_line = line;
                let content_start = i + 1;
                i = skip_string(b, i, &mut line);
                let content_end = if i > content_start && b[i - 1] == b'"' {
                    i - 1
                } else {
                    i // unterminated at EOF
                };
                tokens.push(Tok {
                    kind: TokKind::Str,
                    text: source[content_start..content_end].to_string(),
                    line: start_line,
                });
                line_has_token = true;
            }
            b'r' | b'b' if starts_raw_or_byte_string(b, i) => {
                let start_line = line;
                let (next, content) = skip_raw_or_byte_string(source, b, i, &mut line);
                i = next;
                tokens.push(Tok {
                    kind: TokKind::Str,
                    text: content,
                    line: start_line,
                });
                line_has_token = true;
            }
            b'\'' => {
                // Lifetime or char literal.
                let (next, tok) = lex_quote(source, b, i, line);
                i = next;
                tokens.push(tok);
                line_has_token = true;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < b.len() {
                    let d = b[i];
                    if d.is_ascii_alphanumeric() || d == b'_' || d == b'.' {
                        // Avoid eating `..` range punctuation after an int.
                        if d == b'.' && i + 1 < b.len() && b[i + 1] == b'.' {
                            break;
                        }
                        i += 1;
                    } else if (d == b'+' || d == b'-')
                        && matches!(b[i - 1], b'e' | b'E')
                        && b[start..i].iter().any(|x| x.is_ascii_digit())
                    {
                        i += 1; // exponent sign in a float literal
                    } else {
                        break;
                    }
                }
                tokens.push(Tok {
                    kind: TokKind::Lit,
                    text: source[start..i].to_string(),
                    line,
                });
                line_has_token = true;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                // `r#ident` raw identifiers come out as ident `r` then
                // punct `#` then the ident — close enough for our rules.
                tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: source[start..i].to_string(),
                    line,
                });
                line_has_token = true;
            }
            c => {
                tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                line_has_token = true;
                i += 1;
            }
        }
    }

    let in_test = mark_test_regions(&tokens);
    Lexed {
        tokens,
        annotations,
        in_test,
    }
}

/// Whether `b[i..]` starts a raw string (`r"`, `r#"`), byte string
/// (`b"`), or raw byte string (`br"`, `br#"`). A bare `r#ident` is NOT a
/// string.
fn starts_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if j < b.len() && b[j] == b'\'' {
            return false; // byte char b'x' — handled via skip below? No:
                          // treat as not-a-string; the b lexes as ident
                          // and '...' as a char literal, which is fine.
        }
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
        while j < b.len() && b[j] == b'#' {
            j += 1;
        }
    }
    j < b.len() && b[j] == b'"' && j > i
}

/// Skip a plain `"..."` string starting at `b[i] == b'"'`; returns the
/// index after the closing quote and counts newlines into `line`.
fn skip_string(b: &[u8], i: usize, line: &mut u32) -> usize {
    let mut i = i + 1;
    while i < b.len() {
        match b[i] {
            // An escape at the last byte must not step past EOF.
            b'\\' => i = (i + 2).min(b.len()),
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skip a raw/byte string starting at `b[i]` (`r`, `b`, or `br` prefix).
/// Returns the index after the closing delimiter and the contents
/// between the quotes.
fn skip_raw_or_byte_string(source: &str, b: &[u8], i: usize, line: &mut u32) -> (usize, String) {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    let raw = j < b.len() && b[j] == b'r';
    if raw {
        j += 1;
    }
    let mut hashes = 0;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    debug_assert!(j < b.len() && b[j] == b'"');
    if !raw {
        // Byte string `b"..."`: ordinary escape rules.
        let content_start = j + 1;
        let end = skip_string(b, j, line);
        let content_end = if end > content_start && b[end - 1] == b'"' {
            end - 1
        } else {
            end
        };
        return (end, source[content_start..content_end].to_string());
    }
    j += 1;
    let content_start = j;
    while j < b.len() {
        if b[j] == b'\n' {
            *line += 1;
            j += 1;
        } else if b[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0;
            while k < b.len() && b[k] == b'#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (k, source[content_start..j].to_string());
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    (j, source[content_start..j.min(b.len())].to_string())
}

/// Lex a `'`-introduced token: a char literal or a lifetime.
fn lex_quote(source: &str, b: &[u8], i: usize, line: u32) -> (usize, Tok) {
    let lit = |end: usize| {
        (
            end,
            Tok {
                kind: TokKind::Lit,
                text: String::new(),
                line,
            },
        )
    };
    if i + 1 >= b.len() {
        return lit(i + 1);
    }
    match b[i + 1] {
        b'\\' => {
            // Escape: skip the escaped character (it may itself be a
            // quote, as in '\''), then scan to the closing quote.
            let mut j = i + 3;
            while j < b.len() && b[j] != b'\'' {
                j += 1;
            }
            lit(j + 1)
        }
        c if c.is_ascii_alphanumeric() || c == b'_' => {
            // `'a'` is a char literal; `'a` (no closing quote after the
            // ident) is a lifetime.
            let mut j = i + 2;
            while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            if j < b.len() && b[j] == b'\'' {
                lit(j + 1)
            } else {
                (
                    j,
                    Tok {
                        kind: TokKind::Lifetime,
                        text: source[i + 1..j].to_string(),
                        line,
                    },
                )
            }
        }
        _ => {
            // `'('`, `' '`, ... : a one-char literal.
            let mut j = i + 2;
            while j < b.len() && b[j] != b'\'' {
                j += 1;
            }
            lit(j + 1)
        }
    }
}

/// Parse an `abr-lint: allow(RULE, reason)` annotation out of a comment.
fn parse_annotation(comment: &str, line: u32, own_line: bool) -> Option<Annotation> {
    let at = comment.find("abr-lint:")?;
    let rest = comment[at + "abr-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.rfind(')')?;
    let inner = &rest[..close];
    let (rule, reason) = match inner.split_once(',') {
        Some((r, why)) => (r.trim(), why.trim()),
        None => (inner.trim(), ""),
    };
    Some(Annotation {
        line,
        rule: rule.to_string(),
        reason: reason.to_string(),
        own_line,
    })
}

/// Mark tokens inside `#[cfg(test)]` items (the attribute itself, any
/// stacked attributes, and the item body through its matching `}` or
/// terminating `;`).
fn mark_test_regions(tokens: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if let Some(after_attr) = cfg_test_attr_end(tokens, i) {
            // Mark the attribute and everything through the end of the
            // item it gates.
            let mut j = after_attr;
            // Skip any further attributes stacked on the same item.
            while j < tokens.len() && tokens[j].text == "#" {
                j = skip_balanced(tokens, j + 1, "[", "]");
            }
            // Scan the item: through a matching `{...}` block (fn, mod,
            // impl) or a terminating `;` (use decl), whichever first.
            let mut depth = 0usize;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            for t in in_test.iter_mut().take(j).skip(i) {
                *t = true;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    in_test
}

/// If tokens at `i` start a `#[cfg(... test ...)]` attribute, return the
/// index one past its closing `]`.
fn cfg_test_attr_end(tokens: &[Tok], i: usize) -> Option<usize> {
    if tokens.get(i)?.text != "#" || tokens.get(i + 1)?.text != "[" {
        return None;
    }
    if tokens.get(i + 2)?.text != "cfg" || tokens.get(i + 3)?.text != "(" {
        return None;
    }
    let end = skip_balanced(tokens, i + 1, "[", "]");
    let has_test = tokens[i + 4..end.saturating_sub(1)]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == "test");
    has_test.then_some(end)
}

/// Given `tokens[open_at]` == `open`, return the index one past the
/// matching `close`.
fn skip_balanced(tokens: &[Tok], open_at: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut j = open_at;
    while j < tokens.len() {
        if tokens[j].text == open {
            depth += 1;
        } else if tokens[j].text == close {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
            // HashMap in a comment
            /* HashMap in /* a nested */ block */
            let s = "HashMap in a string";
            let r = r#"HashMap raw "quoted" here"#;
            let c = 'H';
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|t| *t == "HashMap").count(), 1);
    }

    #[test]
    fn lines_are_tracked_through_multiline_strings() {
        let src = "let a = \"x\ny\nz\";\nlet target = 1;";
        let l = lex(src);
        let t = l.tokens.iter().find(|t| t.text == "target").unwrap();
        assert_eq!(t.line, 4);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Lit).count(),
            1
        );
    }

    #[test]
    fn annotations_parse_with_rule_and_reason() {
        let src = "use std::collections::HashMap; // abr-lint: allow(D001, keyed lookups only)\n";
        let l = lex(src);
        assert_eq!(l.annotations.len(), 1);
        let a = &l.annotations[0];
        assert_eq!(a.rule, "D001");
        assert_eq!(a.reason, "keyed lookups only");
        assert!(!a.own_line);
    }

    #[test]
    fn own_line_annotation_applies_to_next_line() {
        let src = "// abr-lint: allow(P001, trusted)\nx.unwrap();\n";
        let l = lex(src);
        let (applies, a) = l.annotation_lines().next().unwrap();
        assert!(a.own_line);
        assert_eq!(applies, 2);
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n";
        let l = lex(src);
        let unwraps: Vec<(usize, bool)> = l
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.text == "unwrap")
            .map(|(i, _)| (i, l.in_test[i]))
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!unwraps[0].1, "live unwrap must not be in-test");
        assert!(unwraps[1].1, "test unwrap must be in-test");
    }

    #[test]
    fn cfg_test_attr_with_stacked_attributes() {
        let src =
            "#[cfg(test)]\n#[allow(dead_code)]\nfn helper() { a.expect(\"x\") }\nfn live() {}\n";
        let l = lex(src);
        let expect_idx = l.tokens.iter().position(|t| t.text == "expect").unwrap();
        assert!(l.in_test[expect_idx]);
        let live_idx = l.tokens.iter().position(|t| t.text == "live").unwrap();
        assert!(!l.in_test[live_idx]);
    }

    #[test]
    fn cfg_all_test_is_marked() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { fn f() { q.unwrap() } }\nfn g() { r.unwrap() }\n";
        let l = lex(src);
        let flags: Vec<bool> = l
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.text == "unwrap")
            .map(|(i, _)| l.in_test[i])
            .collect();
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn escaped_quote_char_literal_does_not_swallow_source() {
        // '\'' once ended the literal at the escaped quote, leaving the
        // real closing quote to open a bogus literal that ate source to
        // the next apostrophe.
        let src = "let q = '\\''; let escape = '\\\\'; let nl = '\\n';\nlet target = after();\n";
        let l = lex(src);
        let t = l.tokens.iter().find(|t| t.text == "target").unwrap();
        assert_eq!(t.line, 2);
        assert!(l.tokens.iter().any(|t| t.text == "after"));
    }

    #[test]
    fn doc_comments_are_not_annotations() {
        let src = "/// Use `// abr-lint: allow(D001, why)` to escape.\n\
                   //! And `// abr-lint: allow(P001, why)` likewise.\n\
                   // abr-lint: allow(C001, a real one)\nx as u32;\n";
        let l = lex(src);
        assert_eq!(l.annotations.len(), 1);
        assert_eq!(l.annotations[0].rule, "C001");
    }

    #[test]
    fn numbers_with_suffixes_and_exponents() {
        let l = lex("let x = 1_000u64 + 2.5e-3 + 0xFFusize; let r = 0..10;");
        // `..` must survive as punctuation (two dots).
        let dots = l.tokens.iter().filter(|t| t.text == ".").count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn byte_strings_are_literals() {
        let l = lex(r#"let b = b"SystemTime"; let c = br#
            "#);
        // The name must never surface as an identifier a rule would
        // match — only as string *contents*.
        assert!(l
            .tokens
            .iter()
            .all(|t| t.kind != TokKind::Ident || t.text != "SystemTime"));
    }

    #[test]
    fn string_contents_are_preserved() {
        let l = lex(r##"let a = "driver.service_us"; let b = r#"raw "metric" x"#;"##);
        let strs: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec!["driver.service_us", r#"raw "metric" x"#]);
    }

    #[test]
    fn raw_strings_with_hashes_close_on_exact_hash_count() {
        // `"#` inside an `r##"..."##` string must not terminate it, and
        // the extra `#` after a shorter close stays punctuation.
        let src = r###"let a = r##"has "# inside"##; let tail = r#"x"#; done"###;
        let l = lex(src);
        let strs: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec![r##"has "# inside"##, "x"]);
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "done"));
    }

    #[test]
    fn multiline_raw_string_tracks_lines_and_start() {
        let src = "let a = r#\"one\ntwo\nthree\"#;\nlet target = 1;";
        let l = lex(src);
        let s = l.tokens.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.line, 1, "string token carries its start line");
        let t = l.tokens.iter().find(|t| t.text == "target").unwrap();
        assert_eq!(t.line, 4);
    }

    #[test]
    fn multiline_plain_string_token_carries_start_line() {
        let l = lex("let a = \"x\ny\nz\";");
        let s = l.tokens.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.line, 1);
    }

    #[test]
    fn char_literal_vs_lifetime_disambiguation() {
        // Labeled loops, anonymous lifetimes, unicode escapes, and the
        // underscore char literal all on one pass.
        let src = "fn f<'_ignored>(x: &'_ str) { 'outer: loop { break 'outer; } \
                   let c = '\\u{1F600}'; let u = '_'; let z = 'z'; }";
        let l = lex(src);
        let lifetimes: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["_ignored", "_", "outer", "outer"]);
        let lits = l.tokens.iter().filter(|t| t.kind == TokKind::Lit).count();
        assert_eq!(lits, 3, "three char literals");
    }

    #[test]
    fn deeply_nested_block_comments_terminate() {
        let src = "/* a /* b /* c */ d */ e */ live(); /*/ not closed by that */ more();";
        let l = lex(src);
        let idents: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["live", "more"]);
    }

    #[test]
    fn unterminated_string_at_eof_does_not_panic() {
        let l = lex("let a = \"abc\\");
        assert!(l.tokens.iter().any(|t| t.kind == TokKind::Str));
        let l = lex("let a = r##\"abc\"#");
        let s = l.tokens.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.text, "abc\"#");
    }
}
