//! The hand-rolled Rust lexer both rule layers read.
//!
//! [`lex`] turns a file into a *token stream* — identifiers, punctuation,
//! literals and lifetimes with their line numbers — plus the comment text
//! of each line. The lexical rules match token sequences line by line and
//! read `audit:allow` escapes from the comments; the item parser builds the
//! flow rules' symbol graph from the same tokens. No `syn` — the
//! zero-registry-deps policy stands, so this is a small purpose-built lexer
//! that understands exactly as much Rust as the rules need: nested block
//! comments, plain/raw/byte string literals with `#` fences, char literals
//! vs lifetimes, numeric literals (including `0x…`, `_` separators,
//! exponents and tuple-index ambiguity with `..`), and the `::` path
//! separator as a single token.

/// What kind of lexeme a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `Engine`, `r#async`).
    Ident,
    /// A lifetime, without the quote (`'a` → `a`).
    Lifetime,
    /// String/char/byte/numeric literal; `text` keeps the exact source
    /// spelling so literal RNG salts can be compared for distinctness.
    Literal,
    /// The `::` path separator.
    PathSep,
    /// Any other single punctuation character.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
}

impl Tok {
    /// `true` for an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// `true` for a punctuation token with exactly this text.
    pub fn is_punct(&self, s: &str) -> bool {
        (self.kind == TokKind::Punct || self.kind == TokKind::PathSep) && self.text == s
    }
}

/// One lexed file: its tokens and the comment text on each line.
#[derive(Debug)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    /// `(line, text)` for every line holding comment text, in line order:
    /// the text without its `//`, `/*` and `*/` markers, several comments
    /// on one line concatenated.
    pub comments: Vec<(usize, String)>,
}

/// Lexes Rust source. Comments leave the token stream for
/// [`Lexed::comments`]; everything else becomes a [`Tok`].
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut comment = |line: usize, text: &[char]| match comments.last_mut() {
        _ if text.is_empty() => {}
        Some((at, s)) if *at == line => s.extend(text),
        _ => comments.push((line, text.iter().collect())),
    };
    let mut line = 1usize;
    let mut i = 0usize;

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && next == Some('/') {
            let start = i + 2;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            comment(line, &chars[start..i]);
        } else if c == '/' && next == Some('*') {
            // Each line of the comment keeps its own text; the nested
            // `/*` and `*/` markers belong to none of them.
            i += 2;
            let mut start = i;
            let mut depth = 1u32;
            while i < chars.len() && depth > 0 {
                let d = chars[i];
                let dn = chars.get(i + 1).copied();
                let step = if d == '/' && dn == Some('*') {
                    depth += 1;
                    2
                } else if d == '*' && dn == Some('/') {
                    depth -= 1;
                    2
                } else if d == '\n' {
                    1
                } else {
                    i += 1;
                    continue;
                };
                comment(line, &chars[start..i]);
                if d == '\n' {
                    line += 1;
                }
                i += step;
                start = i;
            }
            comment(line, &chars[start..i]);
        } else if let Some((text, end, newlines)) = raw_string_at(&chars, i) {
            toks.push(Tok {
                kind: TokKind::Literal,
                text,
                line,
            });
            line += newlines;
            i = end;
        } else if c == '"' || (c == 'b' && next == Some('"')) {
            let start = i;
            i += if c == 'b' { 2 } else { 1 };
            let mut newlines = 0usize;
            while i < chars.len() {
                match chars[i] {
                    '\\' => {
                        // The escaped char may be the newline of a `\`
                        // line continuation, which still ends a line.
                        newlines += usize::from(chars.get(i + 1) == Some(&'\n'));
                        i += 2;
                    }
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        newlines += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            toks.push(Tok {
                kind: TokKind::Literal,
                text: chars[start..i.min(chars.len())].iter().collect(),
                line,
            });
            line += newlines;
        } else if c == '\'' {
            i = lex_quote(&chars, i, line, &mut toks);
        } else if c.is_ascii_digit() {
            let start = i;
            i = lex_number(&chars, i);
            toks.push(Tok {
                kind: TokKind::Literal,
                text: chars[start..i].iter().collect(),
                line,
            });
        } else if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            // Raw identifiers (`r#async`) reach here only when not a raw
            // string; strip the `r#` marker so matching sees the name.
            let mut text: String = chars[start..i].iter().collect();
            if let Some(stripped) = text.strip_prefix("r#") {
                text = stripped.to_string();
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text,
                line,
            });
        } else if c == ':' && next == Some(':') {
            toks.push(Tok {
                kind: TokKind::PathSep,
                text: "::".into(),
                line,
            });
            i += 2;
        } else {
            toks.push(Tok {
                kind: TokKind::Punct,
                text: c.to_string(),
                line,
            });
            i += 1;
        }
    }
    Lexed { toks, comments }
}

/// `true` when the tokens from `at` on spell `words`, one token per word.
/// A lifetime never matches: `'HashMap` does not spell `HashMap`.
pub fn spells(toks: &[Tok], at: usize, words: &[&str]) -> bool {
    toks.get(at..at + words.len()).is_some_and(|run| {
        run.iter()
            .zip(words)
            .all(|(t, w)| t.kind != TokKind::Lifetime && t.text == *w)
    })
}

/// Lexes `r"…"`, `r#"…"#`, `br##"…"##` at `i`; returns (text, end, newlines).
fn raw_string_at(chars: &[char], i: usize) -> Option<(String, usize, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) != Some(&'"') {
        return None;
    }
    j += 1;
    let mut newlines = 0usize;
    while j < chars.len() {
        if chars[j] == '\n' {
            newlines += 1;
            j += 1;
        } else if chars[j] == '"' && (1..=hashes).all(|k| chars.get(j + k) == Some(&'#')) {
            j += 1 + hashes;
            return Some((chars[i..j].iter().collect(), j, newlines));
        } else {
            j += 1;
        }
    }
    Some((chars[i..].iter().collect(), chars.len(), newlines))
}

/// A `'` is either a char literal or a lifetime. Returns the next index.
fn lex_quote(chars: &[char], i: usize, line: usize, toks: &mut Vec<Tok>) -> usize {
    match chars.get(i + 1) {
        Some('\\') => {
            // `'\n'`, `'\u{1F600}'` — scan to the closing quote. Start at
            // the backslash so `'\''` and `'\\'` skip their escaped char
            // instead of closing (or over-running) on it.
            let mut j = i + 1;
            while j < chars.len() {
                if chars[j] == '\\' {
                    j += 2;
                } else if chars[j] == '\'' {
                    j += 1;
                    break;
                } else {
                    j += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::Literal,
                text: chars[i..j.min(chars.len())].iter().collect(),
                line,
            });
            j
        }
        Some(c) if is_ident_start(*c) && chars.get(i + 2) != Some(&'\'') => {
            // A lifetime: `'a`, `'static`.
            let mut j = i + 1;
            while j < chars.len() && is_ident_char(chars[j]) {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Lifetime,
                text: chars[i + 1..j].iter().collect(),
                line,
            });
            j
        }
        Some(_) if chars.get(i + 2) == Some(&'\'') => {
            toks.push(Tok {
                kind: TokKind::Literal,
                text: chars[i..i + 3].iter().collect(),
                line,
            });
            i + 3
        }
        _ => {
            toks.push(Tok {
                kind: TokKind::Punct,
                text: "'".into(),
                line,
            });
            i + 1
        }
    }
}

/// Lexes a numeric literal starting at a digit. Stops before `..` so range
/// expressions (`0..n`) keep their operator.
fn lex_number(chars: &[char], i: usize) -> usize {
    let mut j = i;
    if chars[j] == '0'
        && matches!(
            chars.get(j + 1),
            Some(&'x') | Some(&'X') | Some(&'b') | Some(&'B') | Some(&'o') | Some(&'O')
        )
    {
        j += 2;
        while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        return j;
    }
    while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
        j += 1;
    }
    // Fraction part — but `1..5` is a range, and `1.max(2)` a method call.
    if chars.get(j) == Some(&'.')
        && chars.get(j + 1) != Some(&'.')
        && chars.get(j + 1).copied().is_none_or(|c| !is_ident_start(c))
    {
        j += 1;
        while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
            j += 1;
        }
    }
    // Exponent.
    if matches!(chars.get(j), Some(&'e') | Some(&'E')) {
        let mut k = j + 1;
        if matches!(chars.get(k), Some(&'+') | Some(&'-')) {
            k += 1;
        }
        if chars.get(k).is_some_and(|c| c.is_ascii_digit()) {
            j = k;
            while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                j += 1;
            }
        }
    }
    // Type suffix (`u64`, `f64`, `usize`).
    while j < chars.len() && is_ident_char(chars[j]) {
        j += 1;
    }
    j
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_paths_and_calls() {
        let t = kinds("Engine::run(x)");
        assert_eq!(
            t,
            vec![
                (TokKind::Ident, "Engine".into()),
                (TokKind::PathSep, "::".into()),
                (TokKind::Ident, "run".into()),
                (TokKind::Punct, "(".into()),
                (TokKind::Ident, "x".into()),
                (TokKind::Punct, ")".into()),
            ]
        );
    }

    #[test]
    fn comments_are_stripped_but_lines_advance() {
        let toks = lex("a // c\n/* x\ny */ b").toks;
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 3);
    }

    #[test]
    fn raw_strings_with_fences_are_one_literal() {
        let toks = lex("let s = r##\"body \"# inner\"##; x").toks;
        let lit = toks.iter().find(|t| t.kind == TokKind::Literal).unwrap();
        assert!(lit.text.starts_with("r##\""));
        assert!(toks.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; }").toks;
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Literal && t.text == "'x'"));
    }

    #[test]
    fn numbers_keep_spelling_and_ranges_survive() {
        let t = kinds("0xF1E1 1_000 1.5e-3 0..n x.0");
        let lits: Vec<&str> = t
            .iter()
            .filter(|(k, _)| *k == TokKind::Literal)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(lits, vec!["0xF1E1", "1_000", "1.5e-3", "0", "0"]);
        assert!(t.iter().filter(|(_, s)| s == ".").count() >= 3, "{t:?}");
    }

    #[test]
    fn multiline_strings_advance_lines() {
        let toks = lex("let s = \"a\nb\";\nafter").toks;
        let after = toks.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(after.line, 3);
    }

    #[test]
    fn line_continuations_in_strings_advance_lines() {
        let toks = lex("let s = \"one \\\n  two\";\nafter").toks;
        let after = toks.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(after.line, 3);
    }

    #[test]
    fn line_comment_text_is_captured_per_line() {
        let lexed = lex("let x = 1; // Instant::now() here\nlet y = 2;");
        assert!(!lexed.toks.iter().any(|t| t.is_ident("Instant")));
        assert_eq!(lexed.comments, [(1, " Instant::now() here".to_string())]);
    }

    #[test]
    fn nested_block_comment_text_is_captured_per_line() {
        let lexed = lex("a /* outer /* inner */ still */ b\n/* spans\nlines */ c");
        let idents: Vec<(usize, &str)> = lexed
            .toks
            .iter()
            .map(|t| (t.line, t.text.as_str()))
            .collect();
        assert_eq!(idents, [(1, "a"), (1, "b"), (3, "c")]);
        assert_eq!(
            lexed.comments,
            [
                (1, " outer  inner  still ".to_string()),
                (2, " spans".to_string()),
                (3, "lines ".to_string()),
            ]
        );
    }

    #[test]
    fn strings_hide_escaped_quotes_and_comment_markers() {
        let lexed = lex(r#"let s = "Instant::now() \" // no comment"; f(s); // real"#);
        let lits: Vec<&str> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lits, [r#""Instant::now() \" // no comment""#]);
        assert!(lexed.toks.iter().any(|t| t.is_ident("f")));
        assert_eq!(lexed.comments, [(1, " real".to_string())]);
    }
}
