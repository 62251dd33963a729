//! The workspace-wide symbol graph.
//!
//! Every `fn` the parser recovered becomes a [`Symbol`] with a stable path
//! (`crate::module::Type::name`). Call edges are built from the token
//! streams:
//!
//! * **path calls** (`helper(…)`, `util::tick(…)`, `Engine::new(…)`) are
//!   resolved exactly — through `use` imports (including renames and
//!   globs), `crate::`/`self::`/`super::` prefixes, child modules and
//!   cross-crate names;
//! * **method calls** (`.acquire(…)`) cannot be typed without full
//!   inference, so they fan out to every workspace `impl` function with
//!   that name (class-hierarchy analysis). This over-approximates — which
//!   is the right direction for a determinism gate: a laundered wall-clock
//!   read is found even when the receiver type is unknown. The one receiver
//!   whose type is known is `self`: inside `impl T`, `self.m(…)` resolves
//!   to `T::m` when `T` defines `m` (inherent methods win in Rust), and
//!   fans out otherwise. Inside a trait's default method `self` is any
//!   implementor, so those calls still fan out.
//!
//! Test functions neither emit nor receive edges: the graph models the
//! product, not the harness.

use crate::parse::{ItemKind, ParsedFile};
use crate::token::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// One source file with its workspace context.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Crate ident (`sebs_sim`), derived from the owning manifest.
    pub crate_ident: String,
    /// Module path of the file inside its crate (`src/a/b.rs` → `[a, b]`).
    pub file_module: Vec<String>,
    /// Test/bench/example code: call targets never resolve into it.
    pub is_external: bool,
    pub parsed: ParsedFile,
}

/// One function in the workspace.
#[derive(Debug, Clone)]
pub struct Symbol {
    pub crate_ident: String,
    pub file: String,
    pub file_idx: usize,
    /// Full module path (file module + inline modules).
    pub module: Vec<String>,
    pub impl_ctx: Option<String>,
    pub name: String,
    pub is_test: bool,
    pub start_line: usize,
    pub end_line: usize,
    /// Token range of the body in the owning file's token stream.
    pub body: (usize, usize),
    /// Token range of the parameter list.
    pub params: (usize, usize),
}

impl Symbol {
    /// The display path: `crate::module::Type::name`.
    pub fn path(&self) -> String {
        let mut parts = vec![self.crate_ident.clone()];
        parts.extend(self.module.iter().cloned());
        if let Some(t) = &self.impl_ctx {
            parts.push(t.clone());
        }
        parts.push(self.name.clone());
        parts.join("::")
    }
}

/// The workspace symbol graph.
pub struct SymbolGraph {
    pub files: Vec<SourceFile>,
    pub symbols: Vec<Symbol>,
    /// Sorted, deduplicated callee ids per symbol.
    pub edges: Vec<Vec<usize>>,
}

/// Derives a file's module path within its crate from the path tail after
/// `src/` (`lib.rs`/`main.rs` → `[]`, `a/mod.rs` → `[a]`, `a/b.rs` →
/// `[a, b]`).
pub fn file_module_path(tail: &str) -> Vec<String> {
    let mut parts: Vec<&str> = tail.split('/').collect();
    match parts.last().copied() {
        Some("lib.rs") | Some("main.rs") | Some("mod.rs") => {
            parts.pop();
        }
        Some(file) => {
            let stem = file.strip_suffix(".rs").unwrap_or(file);
            let last = parts.len() - 1;
            parts[last] = stem;
        }
        None => {}
    }
    parts.iter().map(|s| s.to_string()).collect()
}

impl SymbolGraph {
    /// Builds the graph from parsed files.
    pub fn build(files: Vec<SourceFile>) -> SymbolGraph {
        let mut symbols = Vec::new();
        for (file_idx, f) in files.iter().enumerate() {
            for fun in &f.parsed.fns {
                let mut module = f.file_module.clone();
                module.extend(fun.module.iter().cloned());
                symbols.push(Symbol {
                    crate_ident: f.crate_ident.clone(),
                    file: f.path.clone(),
                    file_idx,
                    module,
                    impl_ctx: fun.impl_ctx.clone(),
                    name: fun.name.clone(),
                    is_test: fun.is_test || f.is_external,
                    start_line: fun.start_line,
                    end_line: fun.end_line,
                    body: fun.body,
                    params: fun.params,
                });
            }
        }

        // Indexes for resolution. Only non-test, non-external functions are
        // viable call targets.
        let mut free_fns: BTreeMap<(String, Vec<String>, String), Vec<usize>> = BTreeMap::new();
        let mut assoc_fns: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut modules: BTreeSet<(String, Vec<String>)> = BTreeSet::new();
        let crate_idents: BTreeSet<String> = files.iter().map(|f| f.crate_ident.clone()).collect();
        let traits: BTreeSet<&str> = files
            .iter()
            .flat_map(|f| &f.parsed.items)
            .filter(|item| item.kind == ItemKind::Trait)
            .map(|item| item.name.as_str())
            .collect();
        for (id, s) in symbols.iter().enumerate() {
            if s.is_test {
                continue;
            }
            // Register every ancestor module of the symbol.
            for k in 0..=s.module.len() {
                modules.insert((s.crate_ident.clone(), s.module[..k].to_vec()));
            }
            match &s.impl_ctx {
                Some(ty) => {
                    assoc_fns
                        .entry((ty.clone(), s.name.clone()))
                        .or_default()
                        .push(id);
                    methods.entry(s.name.clone()).or_default().push(id);
                }
                None => {
                    free_fns
                        .entry((s.crate_ident.clone(), s.module.clone(), s.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }

        let resolver = Resolver {
            free_fns,
            assoc_fns,
            methods,
            modules,
            crate_idents,
        };

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); symbols.len()];
        for (id, s) in symbols.iter().enumerate() {
            if s.is_test {
                continue;
            }
            let f = &files[s.file_idx];
            let calls = extract_calls(&f.parsed.toks[s.body.0..s.body.1]);
            let mut out = Vec::new();
            for call in calls {
                match call {
                    Call::Path(segs) => {
                        out.extend(resolver.resolve_path(&segs, s, f));
                    }
                    Call::Method { name, on_self } => {
                        let own = s
                            .impl_ctx
                            .as_ref()
                            .filter(|ty| on_self && !traits.contains(ty.as_str()))
                            .and_then(|ty| resolver.assoc_fns.get(&(ty.clone(), name.clone())));
                        if let Some(ids) = own.or_else(|| resolver.methods.get(&name)) {
                            out.extend(ids.iter().copied());
                        }
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            out.retain(|&t| t != id);
            edges[id] = out;
        }

        SymbolGraph {
            files,
            symbols,
            edges,
        }
    }

    /// Symbols matching an entry-point spec: (`impl type`, `fn name`).
    /// An empty type matches only free functions; `"*"` matches any context.
    pub fn find_entry_points(&self, specs: &[(&str, &str)]) -> Vec<usize> {
        let mut out = Vec::new();
        for (id, s) in self.symbols.iter().enumerate() {
            if s.is_test {
                continue;
            }
            for (ty, name) in specs {
                let ty_ok = match *ty {
                    "" => s.impl_ctx.is_none(),
                    "*" => true,
                    ty => s.impl_ctx.as_deref() == Some(ty),
                };
                if ty_ok && s.name == *name {
                    out.push(id);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// BFS from `roots`, optionally restricted to files whose path starts
    /// with one of `within` (empty = whole workspace). Returns the
    /// predecessor array: `Some(pred)` for reached non-root symbols,
    /// `Some(id)` (self) for roots, `None` for unreached.
    pub fn reach(&self, roots: &[usize], within: &[&str]) -> Vec<Option<usize>> {
        let allowed = |id: usize| {
            within.is_empty() || within.iter().any(|p| self.symbols[id].file.starts_with(p))
        };
        let mut pred: Vec<Option<usize>> = vec![None; self.symbols.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if pred[r].is_none() && allowed(r) {
                pred[r] = Some(r);
                queue.push(r);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            for &next in &self.edges[cur] {
                if pred[next].is_none() && !self.symbols[next].is_test && allowed(next) {
                    pred[next] = Some(cur);
                    queue.push(next);
                }
            }
        }
        pred
    }

    /// The call chain `root → … → id` as a rendered arrow string.
    pub fn chain(&self, pred: &[Option<usize>], id: usize) -> String {
        let mut parts = Vec::new();
        let mut cur = id;
        loop {
            parts.push(self.symbols[cur].path());
            match pred[cur] {
                Some(p) if p != cur => cur = p,
                _ => break,
            }
        }
        parts.reverse();
        parts.join(" -> ")
    }
}

struct Resolver {
    free_fns: BTreeMap<(String, Vec<String>, String), Vec<usize>>,
    assoc_fns: BTreeMap<(String, String), Vec<usize>>,
    methods: BTreeMap<String, Vec<usize>>,
    modules: BTreeSet<(String, Vec<String>)>,
    crate_idents: BTreeSet<String>,
}

impl Resolver {
    /// Resolves a path call's segments in the context of symbol `s`.
    fn resolve_path(&self, segs: &[String], s: &Symbol, f: &SourceFile) -> Vec<usize> {
        if segs.is_empty() {
            return Vec::new();
        }
        if segs.len() == 1 {
            return self.resolve_single(&segs[0], s, f);
        }
        // `Type::method` where the type is directly known.
        if segs.len() == 2 {
            if let Some(ids) = self.assoc_fns.get(&(segs[0].clone(), segs[1].clone())) {
                return ids.clone();
            }
        }
        let expanded = self.expand(segs, s, f);
        let Some(expanded) = expanded else {
            return Vec::new();
        };
        self.lookup_absolute(&expanded)
    }

    /// A single-name call: same-module free fn, then imports, then globs.
    fn resolve_single(&self, name: &str, s: &Symbol, f: &SourceFile) -> Vec<usize> {
        let key = (s.crate_ident.clone(), s.module.clone(), name.to_string());
        if let Some(ids) = self.free_fns.get(&key) {
            return ids.clone();
        }
        for imp in &f.parsed.imports {
            if imp.alias == name {
                if let Some(exp) = self.expand(&imp.path, s, f) {
                    let hit = self.lookup_absolute(&exp);
                    if !hit.is_empty() {
                        return hit;
                    }
                }
            }
        }
        for imp in f.parsed.imports.iter().filter(|i| i.glob) {
            let mut p = imp.path.clone();
            p.push(name.to_string());
            if let Some(exp) = self.expand(&p, s, f) {
                let hit = self.lookup_absolute(&exp);
                if !hit.is_empty() {
                    return hit;
                }
            }
        }
        Vec::new()
    }

    /// Expands a written path to `[crate_ident, modules…, name]` form.
    fn expand(&self, segs: &[String], s: &Symbol, f: &SourceFile) -> Option<Vec<String>> {
        let head = segs[0].as_str();
        let mut out: Vec<String>;
        match head {
            "crate" => {
                out = vec![s.crate_ident.clone()];
                out.extend(segs[1..].iter().cloned());
            }
            "self" => {
                out = vec![s.crate_ident.clone()];
                out.extend(s.module.iter().cloned());
                out.extend(segs[1..].iter().cloned());
            }
            "super" => {
                let mut module = s.module.clone();
                let mut rest = segs;
                while rest.first().map(String::as_str) == Some("super") {
                    module.pop()?;
                    rest = &rest[1..];
                }
                out = vec![s.crate_ident.clone()];
                out.extend(module);
                out.extend(rest.iter().cloned());
            }
            _ if self.crate_idents.contains(head) => {
                out = segs.to_vec();
            }
            _ => {
                // An import alias for the head segment?
                let alias_path = f
                    .parsed
                    .imports
                    .iter()
                    .find(|i| i.alias == head)
                    .map(|i| i.path.clone());
                if let Some(mut p) = alias_path {
                    p.extend(segs[1..].iter().cloned());
                    // Re-expand once: the import itself may start with
                    // crate/super/self or a crate name.
                    return self.expand(&p, s, f);
                }
                // A child module of the current module?
                let mut as_child = s.module.clone();
                as_child.push(head.to_string());
                if self
                    .modules
                    .contains(&(s.crate_ident.clone(), as_child.clone()))
                {
                    out = vec![s.crate_ident.clone()];
                    out.extend(s.module.iter().cloned());
                    out.extend(segs.iter().cloned());
                } else {
                    return None; // std / unknown external
                }
            }
        }
        Some(out)
    }

    /// Looks up `[crate, modules…, name]`, trying a free fn first and an
    /// associated `Type::name` second.
    fn lookup_absolute(&self, path: &[String]) -> Vec<usize> {
        if path.len() < 2 {
            return Vec::new();
        }
        let (krate, rest) = (path[0].clone(), &path[1..]);
        let name = rest[rest.len() - 1].clone();
        let mods: Vec<String> = rest[..rest.len() - 1].to_vec();
        if let Some(ids) = self
            .free_fns
            .get(&(krate.clone(), mods.clone(), name.clone()))
        {
            return ids.clone();
        }
        if let Some(ty) = mods.last() {
            if let Some(ids) = self.assoc_fns.get(&(ty.clone(), name.clone())) {
                // Prefer matches in the named crate; fall back to any.
                let in_crate: Vec<usize> = ids.iter().copied().filter(|&_id| true).collect();
                return in_crate;
            }
        }
        Vec::new()
    }
}

/// A call site extracted from a token stream.
enum Call {
    /// `a::b::name(` with all written segments.
    Path(Vec<String>),
    /// `.name(`; `on_self` when the receiver is `self` itself.
    Method { name: String, on_self: bool },
}

/// Extracts call sites from a body token slice.
fn extract_calls(toks: &[Tok]) -> Vec<Call> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // Method call: `.name(` or `.name::<T>(`.
        if t.is_punct(".") {
            if let Some(n) = toks.get(i + 1) {
                if n.kind == TokKind::Ident {
                    let mut j = i + 2;
                    if toks.get(j).is_some_and(|t| t.kind == TokKind::PathSep)
                        && toks.get(j + 1).is_some_and(|t| t.is_punct("<"))
                    {
                        j = skip_turbofish(toks, j + 1);
                    }
                    if toks.get(j).is_some_and(|t| t.is_punct("(")) {
                        out.push(Call::Method {
                            name: n.text.clone(),
                            on_self: i > 0 && toks[i - 1].is_ident("self"),
                        });
                    }
                }
            }
            i += 1;
            continue;
        }
        // Path call: Ident (:: Ident)* [::<T>] ( — not preceded by `.` or
        // `fn` (handled above / declarations have no bodies here).
        if t.kind == TokKind::Ident && !is_keyword(&t.text) {
            let mut segs = vec![t.text.clone()];
            let mut j = i + 1;
            loop {
                if toks.get(j).is_some_and(|t| t.kind == TokKind::PathSep) {
                    match toks.get(j + 1) {
                        Some(n) if n.kind == TokKind::Ident => {
                            segs.push(n.text.clone());
                            j += 2;
                            continue;
                        }
                        Some(n) if n.is_punct("<") => {
                            j = skip_turbofish(toks, j + 1);
                            break;
                        }
                        _ => break,
                    }
                }
                break;
            }
            if toks.get(j).is_some_and(|t| t.is_punct("(")) {
                // Macro invocations (`name!(`) never reach here: the `!`
                // breaks the pattern at the `(` check below.
                out.push(Call::Path(segs));
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    out
}

/// Skips `<…>` starting at an opening `<`; returns the index after `>`.
fn skip_turbofish(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            ";" | "{" => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "let"
            | "return"
            | "fn"
            | "mod"
            | "use"
            | "impl"
            | "struct"
            | "enum"
            | "trait"
            | "pub"
            | "mut"
            | "ref"
            | "move"
            | "in"
            | "as"
            | "where"
            | "unsafe"
            | "async"
            | "await"
            | "dyn"
            | "box"
            | "const"
            | "static"
            | "break"
            | "continue"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::token::lex;

    fn file(path: &str, krate: &str, module_tail: &str, src: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            crate_ident: krate.to_string(),
            file_module: file_module_path(module_tail),
            is_external: false,
            parsed: parse_file(lex(src)),
        }
    }

    #[test]
    fn file_module_paths() {
        assert!(file_module_path("lib.rs").is_empty());
        assert_eq!(file_module_path("engine.rs"), vec!["engine"]);
        assert_eq!(file_module_path("graph/mod.rs"), vec!["graph"]);
        assert_eq!(file_module_path("graph/bfs.rs"), vec!["graph", "bfs"]);
    }

    #[test]
    fn cross_crate_two_hop_chain_resolves() {
        let g = SymbolGraph::build(vec![
            file(
                "crates/sim/src/lib.rs",
                "sim",
                "lib.rs",
                "use util::tick;\npub struct Engine;\nimpl Engine { pub fn run(&mut self) { tick(); } }",
            ),
            file(
                "crates/util/src/lib.rs",
                "util",
                "lib.rs",
                "pub fn tick() -> f64 { now_secs() }\nfn now_secs() -> f64 { 0.0 }",
            ),
        ]);
        let roots = g.find_entry_points(&[("Engine", "run")]);
        assert_eq!(roots.len(), 1);
        let pred = g.reach(&roots, &[]);
        let now = g.symbols.iter().position(|s| s.name == "now_secs").unwrap();
        assert!(pred[now].is_some(), "two-hop chain is reachable");
        let chain = g.chain(&pred, now);
        assert_eq!(chain, "sim::Engine::run -> util::tick -> util::now_secs");
    }

    #[test]
    fn method_calls_fan_out_cha_style() {
        let g = SymbolGraph::build(vec![file(
            "crates/a/src/lib.rs",
            "a",
            "lib.rs",
            "pub struct P;\nimpl P { pub fn go(&self, w: &W) { w.execute(); } }\npub struct W;\nimpl W { pub fn execute(&self) { helper(); } }\nfn helper() {}",
        )]);
        let roots = g.find_entry_points(&[("P", "go")]);
        let pred = g.reach(&roots, &[]);
        let helper = g.symbols.iter().position(|s| s.name == "helper").unwrap();
        assert!(pred[helper].is_some(), "CHA edge then path call");
    }

    #[test]
    fn self_method_calls_resolve_to_the_impl_type() {
        let g = SymbolGraph::build(vec![file(
            "crates/a/src/lib.rs",
            "a",
            "lib.rs",
            "pub struct Pool;\n\
             impl Pool { pub fn acquire(&mut self) { self.advance(); } fn advance(&mut self) {} \
             pub fn drain(&self) { self.tick(); } }\n\
             pub struct Platform;\n\
             impl Platform { pub fn advance(&mut self) { pump(); } }\n\
             fn pump() {}\n\
             pub trait Tick { fn tick(&self); fn run(&self) { self.tick(); } }\n\
             impl Tick for Platform { fn tick(&self) { pump(); } }",
        )]);
        let id = |ty: &str, name: &str| {
            g.symbols
                .iter()
                .position(|s| s.impl_ctx.as_deref() == Some(ty) && s.name == name)
                .unwrap()
        };
        let reached_from = |ty: &str, name: &str| g.reach(&g.find_entry_points(&[(ty, name)]), &[]);
        let pred = reached_from("Pool", "acquire");
        assert!(pred[id("Pool", "advance")].is_some());
        assert!(
            pred[id("Platform", "advance")].is_none(),
            "self.advance() in impl Pool reaches only Pool::advance"
        );
        // `Pool` defines no `tick`, so the call fans out as before.
        assert!(reached_from("Pool", "drain")[id("Platform", "tick")].is_some());
        // In a trait's default method `self` is any implementor.
        assert!(reached_from("Tick", "run")[id("Platform", "tick")].is_some());
    }

    #[test]
    fn test_fns_are_invisible() {
        let g = SymbolGraph::build(vec![file(
            "crates/a/src/lib.rs",
            "a",
            "lib.rs",
            "pub fn entry() { target(); }\nfn target() {}\n#[cfg(test)]\nmod tests { fn target() { super::entry(); } }",
        )]);
        let roots = g.find_entry_points(&[("", "entry")]);
        let pred = g.reach(&roots, &[]);
        for (id, s) in g.symbols.iter().enumerate() {
            if s.is_test {
                assert!(pred[id].is_none(), "test fn {} must be unreached", s.path());
            }
        }
    }

    #[test]
    fn crate_path_restriction_bounds_reach() {
        let g = SymbolGraph::build(vec![
            file(
                "crates/sim/src/lib.rs",
                "sim",
                "lib.rs",
                "use util::far;\npub fn run() { near(); far(); }\nfn near() {}",
            ),
            file(
                "crates/util/src/lib.rs",
                "util",
                "lib.rs",
                "pub fn far() {}",
            ),
        ]);
        let roots = g.find_entry_points(&[("", "run")]);
        let pred = g.reach(&roots, &["crates/sim/"]);
        let near = g.symbols.iter().position(|s| s.name == "near").unwrap();
        let far = g.symbols.iter().position(|s| s.name == "far").unwrap();
        assert!(pred[near].is_some());
        assert!(pred[far].is_none(), "restriction excludes other crates");
    }
}
