//! An item-level parser over the token stream.
//!
//! Recovers what the flow rules need and nothing more: the module tree of a
//! file (inline `mod` blocks; the file's own module path comes from its
//! workspace path), `use` imports (including nested groups, renames and
//! globs), `impl`/`trait` blocks with the implementing type, and `fn` items
//! with their parameter and body token ranges. Function bodies are kept
//! opaque — the rules scan their token ranges directly — so error recovery
//! is trivial: anything unrecognised is skipped token by token, and brace
//! balance keeps the scope stack honest.

use crate::token::{spells, Lexed, Tok, TokKind};

/// Kinds of items recovered by the parser (used for item-scoped allows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Impl,
    Mod,
    Use,
    Struct,
    Enum,
    Trait,
    Const,
    Static,
    TypeAlias,
    Macro,
}

/// One recovered item with its source span.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    pub name: String,
    /// 1-based first line of the item (its first token, attributes included).
    pub start_line: usize,
    /// 1-based last line of the item.
    pub end_line: usize,
}

/// One `fn` item with enough context to become a graph symbol.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Inline-module path inside the file (`["tests"]` for a `mod tests`).
    pub module: Vec<String>,
    /// The implementing type for methods/associated functions, or the trait
    /// name for default trait methods.
    pub impl_ctx: Option<String>,
    /// Inside `#[cfg(test)]` / `#[test]` or a test module.
    pub is_test: bool,
    pub start_line: usize,
    pub end_line: usize,
    /// Token range `[start, end)` of the parameter list (excluding parens).
    pub params: (usize, usize),
    /// Token range `[start, end)` of the body (excluding outer braces);
    /// empty for bodyless trait method declarations.
    pub body: (usize, usize),
}

/// One resolved `use` import: `alias` names `path` in `module`.
#[derive(Debug, Clone)]
pub struct Import {
    /// Inline-module path the import is visible in.
    pub module: Vec<String>,
    /// The local name (`Rng` for `use x::Rng`, `d` for `use x::c as d`;
    /// empty for glob imports).
    pub alias: String,
    /// Full path segments as written, head unresolved (`crate`, `super`,
    /// `self` or a crate/module name).
    pub path: Vec<String>,
    pub glob: bool,
    /// Line of the import's last token (its alias for a rename).
    pub line: usize,
}

/// Everything the lexer and parser recovered from one file: what both
/// rule layers read.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub toks: Vec<Tok>,
    /// Per-line comment text, as [`Lexed::comments`].
    pub comments: Vec<(usize, String)>,
    pub items: Vec<Item>,
    pub fns: Vec<FnItem>,
    pub imports: Vec<Import>,
    /// Line spans `(first, last)` of the outermost items marked
    /// `#[test]` or `#[cfg(test)]`: everything inside is test code.
    pub test_spans: Vec<(usize, usize)>,
}

impl ParsedFile {
    /// `true` when `line` lies inside a test item.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(first, last)| first <= line && line <= last)
    }
}

/// Parses a lexed file into items.
pub fn parse_file(lexed: Lexed) -> ParsedFile {
    let mut out = ParsedFile {
        toks: lexed.toks,
        comments: lexed.comments,
        ..ParsedFile::default()
    };
    let mut p = Parser {
        toks: &out.toks,
        pos: 0,
        items: Vec::new(),
        fns: Vec::new(),
        imports: Vec::new(),
        test_spans: Vec::new(),
    };
    p.parse_items(&mut Vec::new(), None, false);
    out.items = p.items;
    out.fns = p.fns;
    out.imports = p.imports;
    out.test_spans = p.test_spans;
    out
}

struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
    items: Vec<Item>,
    fns: Vec<FnItem>,
    imports: Vec<Import>,
    test_spans: Vec<(usize, usize)>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(1, |t| t.line)
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.pos);
        self.pos += 1;
        t
    }

    /// Parses items until a closing `}` (or EOF). `module` is the current
    /// inline-module path; `impl_ctx` the enclosing impl/trait type.
    fn parse_items(&mut self, module: &mut Vec<String>, impl_ctx: Option<&str>, in_test: bool) {
        while let Some(t) = self.peek() {
            if t.is_punct("}") {
                return;
            }
            let item_start = t.line;
            // Attributes: `#[...]` / `#![...]`; note cfg(test) and #[test].
            let mut attr_test = false;
            while self.peek().is_some_and(|t| t.is_punct("#")) {
                attr_test |= self.parse_attribute();
            }
            // Visibility / modifiers before the keyword.
            while self
                .peek()
                .is_some_and(|t| matches!(t.text.as_str(), "pub" | "unsafe" | "async" | "extern"))
                && self.peek().is_some_and(|t| t.kind == TokKind::Ident)
            {
                let word = self.bump().map(|t| t.text.clone()).unwrap_or_default();
                if word == "pub" && self.peek().is_some_and(|t| t.is_punct("(")) {
                    self.skip_balanced("(", ")");
                }
                if word == "extern" && self.peek().is_some_and(|t| t.kind == TokKind::Literal) {
                    self.bump();
                }
            }
            // `const` may introduce `const fn` or a const item.
            let mut is_const_item = false;
            if self.peek().is_some_and(|t| t.is_ident("const")) {
                let ahead = self.toks.get(self.pos + 1);
                if ahead.is_some_and(|t| t.is_ident("fn") || t.is_ident("unsafe")) {
                    self.bump();
                } else {
                    is_const_item = true;
                }
            }
            if self.peek().is_some_and(|t| t.is_ident("unsafe")) {
                self.bump();
            }
            let Some(t) = self.peek() else {
                return;
            };
            let outermost_test = attr_test && !in_test;
            let in_test = in_test || attr_test;
            match t.text.as_str() {
                "fn" if t.kind == TokKind::Ident => {
                    self.parse_fn(item_start, module, impl_ctx, in_test);
                }
                "mod" if t.kind == TokKind::Ident => {
                    self.parse_mod(item_start, module, in_test);
                }
                "use" if t.kind == TokKind::Ident => {
                    self.parse_use(item_start, module);
                }
                "impl" if t.kind == TokKind::Ident => {
                    self.parse_impl(item_start, module, in_test);
                }
                "trait" if t.kind == TokKind::Ident => {
                    self.parse_trait(item_start, module, in_test);
                }
                "struct" | "enum" | "union" if t.kind == TokKind::Ident => {
                    let kind = if t.text == "enum" {
                        ItemKind::Enum
                    } else {
                        ItemKind::Struct
                    };
                    self.bump();
                    let name = self.ident_name();
                    self.skip_to_block_or_semi();
                    self.push_item(kind, name, item_start);
                }
                "static" | "type" if t.kind == TokKind::Ident => {
                    let kind = if t.text == "static" {
                        ItemKind::Static
                    } else {
                        ItemKind::TypeAlias
                    };
                    self.bump();
                    let name = self.ident_name();
                    self.skip_to_semi();
                    self.push_item(kind, name, item_start);
                }
                "macro_rules" => {
                    self.bump(); // macro_rules
                    if self.peek().is_some_and(|t| t.is_punct("!")) {
                        self.bump();
                    }
                    let name = self.ident_name();
                    self.skip_to_block_or_semi();
                    self.push_item(ItemKind::Macro, name, item_start);
                }
                _ if is_const_item => {
                    self.bump(); // const
                    let name = self.ident_name();
                    self.skip_to_semi();
                    self.push_item(ItemKind::Const, name, item_start);
                }
                "{" => {
                    // A stray block at item position — skip it wholesale.
                    self.skip_balanced("{", "}");
                }
                _ => {
                    // Unrecognised: recover by skipping one token.
                    self.bump();
                }
            }
            if outermost_test {
                self.test_spans.push((item_start, self.prev_line()));
            }
        }
    }

    /// Parses `#[...]`; returns `true` when the attribute marks test code:
    /// `#[test]` or `#[cfg(test)]`.
    fn parse_attribute(&mut self) -> bool {
        self.bump(); // '#'
        if self.peek().is_some_and(|t| t.is_punct("!")) {
            self.bump();
        }
        if !self.peek().is_some_and(|t| t.is_punct("[")) {
            return false;
        }
        let start = self.pos;
        self.skip_balanced("[", "]");
        let body = &self.toks[start..self.pos];
        let is = |words: &[&str]| body.len() == words.len() && spells(body, 0, words);
        is(&["[", "test", "]"]) || is(&["[", "cfg", "(", "test", ")", "]"])
    }

    fn parse_fn(
        &mut self,
        item_start: usize,
        module: &mut Vec<String>,
        impl_ctx: Option<&str>,
        in_test: bool,
    ) {
        self.bump(); // fn
        let name = self.ident_name();
        // Generics.
        if self.peek().is_some_and(|t| t.is_punct("<")) {
            self.skip_angle_brackets();
        }
        // Parameters.
        let mut params = (self.pos, self.pos);
        if self.peek().is_some_and(|t| t.is_punct("(")) {
            self.bump();
            params.0 = self.pos;
            let mut depth = 1u32;
            while let Some(t) = self.peek() {
                if t.is_punct("(") {
                    depth += 1;
                } else if t.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                self.pos += 1;
            }
            params.1 = self.pos;
            self.bump(); // ')'
        }
        // Return type / where clause: scan to body `{` or `;` at depth 0.
        let mut body = (self.pos, self.pos);
        loop {
            match self.peek() {
                None => break,
                Some(t) if t.is_punct(";") => {
                    self.bump();
                    break;
                }
                Some(t) if t.is_punct("{") => {
                    self.bump();
                    body.0 = self.pos;
                    self.skip_to_matching_brace();
                    body.1 = self.pos;
                    self.bump(); // '}'
                    break;
                }
                Some(t) if t.is_punct("<") => {
                    self.skip_angle_brackets();
                }
                Some(t) if t.is_punct("(") => {
                    self.skip_balanced("(", ")");
                }
                Some(t) if t.is_punct("[") => {
                    self.skip_balanced("[", "]");
                }
                _ => {
                    self.bump();
                }
            }
        }
        let end_line = self.prev_line();
        self.fns.push(FnItem {
            name: name.clone(),
            module: module.clone(),
            impl_ctx: impl_ctx.map(str::to_string),
            is_test: in_test,
            start_line: item_start,
            end_line,
            params,
            body,
        });
        self.items.push(Item {
            kind: ItemKind::Fn,
            name,
            start_line: item_start,
            end_line,
        });
    }

    fn parse_mod(&mut self, item_start: usize, module: &mut Vec<String>, in_test: bool) {
        self.bump(); // mod
        let name = self.ident_name();
        if self.peek().is_some_and(|t| t.is_punct("{")) {
            self.bump();
            module.push(name.clone());
            self.parse_items(module, None, in_test);
            module.pop();
            self.bump(); // '}'
        } else {
            self.skip_to_semi();
        }
        self.push_item(ItemKind::Mod, name, item_start);
    }

    fn parse_impl(&mut self, item_start: usize, module: &mut Vec<String>, in_test: bool) {
        self.bump(); // impl
                     // Header up to `{`: `impl<T> Type`, `impl Trait for Type`.
        let header_start = self.pos;
        let mut for_pos: Option<usize> = None;
        loop {
            match self.peek() {
                None => return,
                Some(t) if t.is_punct("{") => break,
                Some(t) if t.is_punct(";") => {
                    self.bump();
                    return;
                }
                Some(t) if t.is_punct("<") => self.skip_angle_brackets(),
                Some(t) if t.is_punct("(") => self.skip_balanced("(", ")"),
                Some(t) if t.is_ident("for") => {
                    for_pos = Some(self.pos);
                    self.bump();
                }
                Some(t) if t.is_ident("where") => {
                    // Where clause runs until the `{`.
                    self.bump();
                }
                _ => {
                    self.bump();
                }
            }
        }
        let type_start = for_pos.map_or(header_start, |p| p + 1);
        let ty = last_path_ident(&self.toks[type_start..self.pos]);
        self.bump(); // '{'
        self.parse_items(module, Some(&ty), in_test);
        self.bump(); // '}'
        self.push_item(ItemKind::Impl, ty, item_start);
    }

    fn parse_trait(&mut self, item_start: usize, module: &mut Vec<String>, in_test: bool) {
        self.bump(); // trait
        let name = self.ident_name();
        loop {
            match self.peek() {
                None => return,
                Some(t) if t.is_punct("{") => break,
                Some(t) if t.is_punct(";") => {
                    self.bump();
                    self.push_item(ItemKind::Trait, name, item_start);
                    return;
                }
                Some(t) if t.is_punct("<") => self.skip_angle_brackets(),
                Some(t) if t.is_punct("(") => self.skip_balanced("(", ")"),
                _ => {
                    self.bump();
                }
            }
        }
        self.bump(); // '{'
        self.parse_items(module, Some(&name), in_test);
        self.bump(); // '}'
        self.push_item(ItemKind::Trait, name, item_start);
    }

    fn parse_use(&mut self, item_start: usize, module: &mut Vec<String>) {
        self.bump(); // use
        let mut prefix = Vec::new();
        self.parse_use_tree(&mut prefix, module);
        self.skip_to_semi();
        self.push_item(ItemKind::Use, String::new(), item_start);
    }

    /// Parses one use tree (`a::b::{c, d as e, *}`), emitting imports.
    fn parse_use_tree(&mut self, prefix: &mut Vec<String>, module: &[String]) {
        let depth_at_entry = prefix.len();
        loop {
            match self.peek() {
                None => break,
                Some(t) if t.kind == TokKind::Ident && t.text == "as" => {
                    self.bump();
                    let line = self.line();
                    let alias = self.ident_name();
                    self.imports.push(Import {
                        module: module.to_vec(),
                        alias,
                        path: prefix.clone(),
                        glob: false,
                        line,
                    });
                    prefix.truncate(depth_at_entry);
                    break;
                }
                Some(t) if t.kind == TokKind::Ident => {
                    prefix.push(t.text.clone());
                    self.bump();
                    if self.peek().is_some_and(|t| t.kind == TokKind::PathSep) {
                        self.bump();
                        continue;
                    }
                    if self.peek().is_some_and(|t| t.is_ident("as")) {
                        // Rename: `use a::b as c;` — handled by the `as` arm
                        // on the next iteration, with the full path intact.
                        continue;
                    }
                    // Leaf: `use a::b::c;` imports `c`.
                    let alias = prefix.last().cloned().unwrap_or_default();
                    self.imports.push(Import {
                        module: module.to_vec(),
                        alias,
                        path: prefix.clone(),
                        glob: false,
                        line: t.line,
                    });
                    prefix.truncate(depth_at_entry);
                    break;
                }
                Some(t) if t.is_punct("*") => {
                    self.bump();
                    self.imports.push(Import {
                        module: module.to_vec(),
                        alias: String::new(),
                        path: prefix.clone(),
                        glob: true,
                        line: t.line,
                    });
                    prefix.truncate(depth_at_entry);
                    break;
                }
                Some(t) if t.is_punct("{") => {
                    self.bump();
                    loop {
                        match self.peek() {
                            None => break,
                            Some(t) if t.is_punct("}") => {
                                self.bump();
                                break;
                            }
                            Some(t) if t.is_punct(",") => {
                                self.bump();
                            }
                            Some(t) if t.is_ident("self") => {
                                // `use a::b::{self}` imports `b`.
                                self.bump();
                                let alias = prefix.last().cloned().unwrap_or_default();
                                self.imports.push(Import {
                                    module: module.to_vec(),
                                    alias,
                                    path: prefix.clone(),
                                    glob: false,
                                    line: t.line,
                                });
                            }
                            Some(_) => {
                                let mut sub = prefix.clone();
                                self.parse_use_tree(&mut sub, module);
                            }
                        }
                    }
                    prefix.truncate(depth_at_entry);
                    break;
                }
                Some(_) => break,
            }
        }
    }

    fn ident_name(&mut self) -> String {
        match self.peek() {
            Some(t) if t.kind == TokKind::Ident => {
                let name = t.text.clone();
                self.bump();
                name
            }
            _ => String::new(),
        }
    }

    fn push_item(&mut self, kind: ItemKind, name: String, start_line: usize) {
        let end_line = self.prev_line();
        self.items.push(Item {
            kind,
            name,
            start_line,
            end_line,
        });
    }

    fn prev_line(&self) -> usize {
        if self.pos == 0 {
            return 1;
        }
        self.toks
            .get(self.pos - 1)
            .map_or_else(|| self.line(), |t| t.line)
    }

    /// Skips a balanced `open…close` region including the delimiters.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        if !self.peek().is_some_and(|t| t.is_punct(open)) {
            return;
        }
        self.bump();
        let mut depth = 1u32;
        while let Some(t) = self.bump() {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Skips `<…>` generics, tolerating shift operators by tracking other
    /// delimiters too (a `>` inside parens does not close the generics).
    fn skip_angle_brackets(&mut self) {
        if !self.peek().is_some_and(|t| t.is_punct("<")) {
            return;
        }
        self.bump();
        let mut angle = 1i32;
        let mut paren = 0i32;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "<" if paren == 0 => angle += 1,
                ">" if paren == 0 => {
                    angle -= 1;
                    if angle == 0 {
                        self.bump();
                        return;
                    }
                }
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                ";" | "{" if paren <= 0 => return, // safety: give up on `<` used as less-than
                _ => {}
            }
            self.bump();
        }
    }

    /// Advances to the matching `}` for an already-consumed `{` (leaves the
    /// closing brace unconsumed).
    fn skip_to_matching_brace(&mut self) {
        let mut depth = 1u32;
        while let Some(t) = self.peek() {
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
            self.pos += 1;
        }
    }

    fn skip_to_semi(&mut self) {
        while let Some(t) = self.peek() {
            if t.is_punct(";") {
                self.bump();
                return;
            }
            if t.is_punct("{") {
                self.skip_balanced("{", "}");
                return;
            }
            self.bump();
        }
    }

    fn skip_to_block_or_semi(&mut self) {
        while let Some(t) = self.peek() {
            if t.is_punct(";") {
                self.bump();
                return;
            }
            if t.is_punct("{") {
                self.skip_balanced("{", "}");
                // A struct body may be followed by `;` (tuple structs hit
                // the `;` branch first); we are done either way.
                return;
            }
            if t.is_punct("(") {
                self.skip_balanced("(", ")");
                continue;
            }
            if t.is_punct("<") {
                self.skip_angle_brackets();
                continue;
            }
            self.bump();
        }
    }
}

/// The last plain identifier of a path-ish token run (`a::B<T>` → `B`).
fn last_path_ident(toks: &[Tok]) -> String {
    let mut angle = 0i32;
    let mut last = String::new();
    for t in toks {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            _ if t.kind == TokKind::Ident && angle == 0 && t.text != "where" && t.text != "dyn" => {
                last = t.text.clone();
            }
            _ => {}
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file(lex(src))
    }

    #[test]
    fn recovers_fns_with_spans_and_bodies() {
        let src = "pub fn a(x: u32) -> u32 {\n    x + 1\n}\n\nfn b() {}\n";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "a");
        assert_eq!((p.fns[0].start_line, p.fns[0].end_line), (1, 3));
        assert_eq!(p.fns[1].name, "b");
        assert!(p.fns[0].body.1 > p.fns[0].body.0);
    }

    #[test]
    fn impl_blocks_attach_the_type() {
        let src = "impl<W> Engine<W> { pub fn run(&mut self) {} }\nimpl Clone for Pool { fn clone(&self) -> Pool { todo!() } }";
        let p = parse(src);
        assert_eq!(p.fns[0].impl_ctx.as_deref(), Some("Engine"));
        assert_eq!(p.fns[1].impl_ctx.as_deref(), Some("Pool"));
        assert_eq!(p.fns[1].name, "clone");
    }

    #[test]
    fn cfg_test_mods_mark_fns_as_test() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n    fn helper() {}\n}";
        let p = parse(src);
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("lib").is_test);
        assert!(by_name("t").is_test);
        assert!(by_name("helper").is_test);
        assert_eq!(by_name("helper").module, vec!["tests".to_string()]);
    }

    #[test]
    fn only_test_and_cfg_test_attributes_mark_test_code() {
        let src = "#[cfg(not(test))]\nfn live() {}\n#[cfg_attr(test, inline)]\nfn also_live() {}\n\
                   #[test]\nfn t() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}";
        let p = parse(src);
        let test: Vec<(&str, bool)> = p.fns.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert_eq!(
            test,
            [
                ("live", false),
                ("also_live", false),
                ("t", true),
                ("helper", true)
            ]
        );
        assert_eq!(p.test_spans, [(5, 6), (7, 10)]);
    }

    #[test]
    fn use_trees_flatten_to_imports() {
        let src = "use crate::rules::{Allow, Finding as F};\nuse sebs_sim::SimRng;\nuse super::*;";
        let p = parse(src);
        let find = |a: &str| p.imports.iter().find(|i| i.alias == a).unwrap();
        assert_eq!(find("Allow").path, vec!["crate", "rules", "Allow"]);
        assert_eq!(find("F").path, vec!["crate", "rules", "Finding"]);
        assert_eq!(find("SimRng").path, vec!["sebs_sim", "SimRng"]);
        assert!(p.imports.iter().any(|i| i.glob && i.path == ["super"]));
    }

    #[test]
    fn trait_default_methods_get_trait_context() {
        let src = "pub trait Workload { fn name(&self) -> &str; fn run(&self) { self.name(); } }";
        let p = parse(src);
        let run = p.fns.iter().find(|f| f.name == "run").unwrap();
        assert_eq!(run.impl_ctx.as_deref(), Some("Workload"));
        let name = p.fns.iter().find(|f| f.name == "name").unwrap();
        assert_eq!(name.body.0, name.body.1, "declaration has no body");
    }

    #[test]
    fn const_fn_and_where_clauses_parse() {
        let src = "pub const fn zero() -> u32 { 0 }\nfn g<T>(x: T) -> T where T: Clone { x }";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "zero");
        assert_eq!(p.fns[1].name, "g");
    }

    #[test]
    fn nested_inline_mods_build_module_paths() {
        let src = "mod outer { mod inner { fn deep() {} } fn shallow() {} }";
        let p = parse(src);
        let deep = p.fns.iter().find(|f| f.name == "deep").unwrap();
        assert_eq!(deep.module, vec!["outer", "inner"]);
        let shallow = p.fns.iter().find(|f| f.name == "shallow").unwrap();
        assert_eq!(shallow.module, vec!["outer"]);
    }
}
