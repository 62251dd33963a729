//! Golden tests of the tokenizer and item parser against a tricky-Rust
//! corpus (`tests/fixtures/corpus/tricky.rs`): nested block comments, raw
//! strings with `#` fences, lifetimes vs char literals, macro bodies that
//! *look* like items, and multi-line strings spanning an allow window.
//!
//! The corpus lives under a `fixtures/` directory, which the workspace
//! walker never descends into — it is analysed here, never audited or
//! compiled.

use sebs_audit::parse::{parse_file, ItemKind};
use sebs_audit::rules::{audit_rust_source, is_suppressed, Rule};
use sebs_audit::token::{lex, TokKind};

const CORPUS: &str = include_str!("fixtures/corpus/tricky.rs");

#[test]
fn comments_and_strings_hide_their_tokens() {
    let toks = lex(CORPUS).toks;
    // `SystemTime` / `thread_rng` appear only in the nested block comment;
    // `HashMap` only inside the fenced raw string. None may become idents.
    for banned in ["SystemTime", "thread_rng", "HashMap"] {
        assert!(
            !toks.iter().any(|t| t.is_ident(banned)),
            "`{banned}` leaked out of a comment or string into the token stream"
        );
    }
    // The whole fenced raw string is one literal, spanning two lines, with
    // the inner `"#` not terminating it.
    let raw = toks
        .iter()
        .find(|t| t.kind == TokKind::Literal && t.text.starts_with("r##"))
        .expect("fenced raw string survives as a single literal");
    assert!(raw.text.contains("\"# not the end"));
    assert!(raw.text.contains("x.unwrap()"));
    assert!(raw.text.ends_with("\"##"));
}

#[test]
fn lifetimes_and_char_literals_are_distinguished() {
    let toks = lex(CORPUS).toks;
    let lifetimes: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    // The tokenizer stores lifetime names without the leading quote.
    for expected in ["static", "a", "h"] {
        assert!(
            lifetimes.contains(&expected),
            "lifetime {expected} missing; got {lifetimes:?}"
        );
    }
    // `'a'` and the escaped `'\''` are literals, not lifetimes.
    assert!(toks
        .iter()
        .any(|t| t.kind == TokKind::Literal && t.text == "'a'"));
    assert!(toks
        .iter()
        .any(|t| t.kind == TokKind::Literal && t.text == "'\\''"));
}

#[test]
fn parser_recovers_items_and_ignores_macro_bodies() {
    let parsed = parse_file(lex(CORPUS));
    let fn_names: Vec<&str> = parsed.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(
        fn_names,
        [
            "fences",
            "lifetimes",
            "label",
            "spans_allow_window",
            "alpha",
            "beta"
        ],
        "fn items in source order, macro-body phantoms excluded"
    );
    assert!(
        !fn_names.contains(&"phantom_fn"),
        "macro_rules! bodies must not produce items"
    );

    let label = parsed.fns.iter().find(|f| f.name == "label").unwrap();
    assert_eq!(label.impl_ctx.as_deref(), Some("Holder"));
    let alpha = parsed.fns.iter().find(|f| f.name == "alpha").unwrap();
    assert_eq!(alpha.module, ["deep"]);

    let kinds: Vec<ItemKind> = parsed.items.iter().map(|i| i.kind).collect();
    assert!(kinds.contains(&ItemKind::Macro));
    assert!(kinds.contains(&ItemKind::Struct));
    assert!(kinds.contains(&ItemKind::Mod));
}

#[test]
fn use_groups_renames_and_globs_resolve() {
    let parsed = parse_file(lex(CORPUS));
    let find = |alias: &str| {
        parsed
            .imports
            .iter()
            .find(|i| i.alias == alias)
            .unwrap_or_else(|| panic!("import `{alias}` missing"))
    };
    assert_eq!(find("W").path, ["std", "fmt", "Write"]);
    assert_eq!(find("alpha").path, ["crate", "deep", "alpha"]);
    assert_eq!(find("b").path, ["crate", "deep", "beta"]);
    let glob = parsed
        .imports
        .iter()
        .find(|i| i.glob)
        .expect("glob import recovered");
    assert_eq!(glob.path, ["crate", "deep"]);
}

#[test]
fn multi_line_string_does_not_derail_the_allow_window() {
    let (findings, allows) = audit_rust_source("crates/workloads/src/tricky.rs", CORPUS);
    // All banned tokens sit in comments or strings, so the only lexical
    // finding is the real unwrap below the multi-line string…
    let panics: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::PanicHygiene)
        .collect();
    assert_eq!(panics.len(), 1, "{findings:?}");
    assert_eq!(panics[0].snippet, "Some(7).unwrap()");
    // …and the allow six-line window above it still counts string-interior
    // lines, so the suppression lands.
    assert!(is_suppressed(panics[0], &allows));
    assert!(
        findings.iter().all(|f| f.rule == Rule::PanicHygiene),
        "only the unwrap may fire: {findings:?}"
    );
}
