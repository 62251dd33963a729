//! `sebs-audit` — dependency-free hermeticity & determinism linting.
//!
//! The workspace promises two properties that ordinary tests cannot enforce:
//! it builds **offline** (no registry dependencies anywhere) and it runs
//! **deterministically** (no wall clocks, ambient randomness or hash-order
//! iteration in the simulation core). This crate checks both statically with
//! a hand-rolled analysis engine — no `syn`, no `toml`, no dependencies at
//! all — so the auditor itself can never violate the policy it enforces.
//!
//! Each file is lexed ([`token`]) and parsed ([`parse`]) once, and two
//! layers read that one result:
//!
//! 1. **lexical rules** ([`rules`]) match token sequences line by line
//!    (wall-clock, ambient-randomness, panic-hygiene, …);
//! 2. **flow rules** ([`taint`]) run on a workspace-wide symbol graph
//!    ([`graph`]) of every parsed file: cross-crate determinism taint,
//!    RNG stream discipline, float total order and hot-path allocation.
//!
//! Use it as a library (the CI gate runs [`audit_workspace`] in-process):
//!
//! ```no_run
//! let report = sebs_audit::audit_workspace(std::path::Path::new(".")).unwrap();
//! assert!(report.findings.is_empty(), "{}", report.to_text());
//! ```
//!
//! or as a binary: `cargo run -p sebs-audit -- --workspace [--format json]`.

pub mod graph;
pub mod parse;
pub mod report;
pub mod rules;
pub mod taint;
pub mod token;
pub mod toml;

pub use report::Report;
pub use rules::{Allow, Finding, Rule, ALLOW_WINDOW};

use graph::{SourceFile, SymbolGraph};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never descended into. `fixtures` holds mini-trees seeded
/// with deliberate violations for the auditor's own tests.
const SKIP_DIRS: [&str; 5] = ["target", ".git", ".claude", "node_modules", "fixtures"];

/// Audits every `Cargo.toml` and `*.rs` file under `root`.
///
/// Findings covered by an `audit:allow` comment are moved into the report's
/// allow accounting instead of being reported as violations; allows that
/// suppress nothing are reported as stale. Results are sorted by
/// (file, line, rule) so output is stable across runs.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading files.
pub fn audit_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_files(root, root, &mut files)?;
    files.sort();

    // Pass 1: crate idents from manifest package names (hyphens become
    // underscores, matching what `use` paths spell).
    let mut crate_dirs: Vec<(String, String)> = Vec::new(); // (dir prefix, ident)
    for rel in &files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if !rel_str.ends_with("Cargo.toml") {
            continue;
        }
        let source = fs::read_to_string(root.join(rel))?;
        let doc = toml::TomlDoc::parse(&source);
        for section in doc.sections_where(|n| n == "package") {
            for entry in &section.entries {
                if entry.key == "name" {
                    if let toml::TomlValue::Str(name) = &entry.value {
                        let dir = rel_str.trim_end_matches("Cargo.toml").to_string();
                        crate_dirs.push((dir, name.replace('-', "_")));
                    }
                }
            }
        }
    }
    // Longest prefix first, so nested packages win over the workspace root.
    crate_dirs.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then(a.0.cmp(&b.0)));

    // Pass 2: lex and parse each Rust file once; the lexical rules read the
    // result here, the flow rules through the graph.
    let mut findings = Vec::new();
    let mut allows = Vec::new();
    let mut sources: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut parsed_files: Vec<SourceFile> = Vec::new();
    let mut lines_scanned = 0usize;
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if rel_str.ends_with("Cargo.toml") {
            findings.extend(rules::audit_manifest(&rel_str, &source));
            continue;
        }
        let lines: Vec<String> = source.lines().map(str::to_string).collect();
        lines_scanned += lines.len();
        let parsed = parse::parse_file(token::lex(&source));
        let (f, a) = rules::audit_rust_file(&rel_str, &lines, &parsed);
        findings.extend(f);
        allows.extend(a);

        let scope = rules::FileScope::classify(&rel_str);
        parsed_files.push(SourceFile {
            path: rel_str.clone(),
            crate_ident: crate_ident_for(&rel_str, &crate_dirs),
            file_module: graph::file_module_path(module_tail(&rel_str)),
            is_external: !scope.library,
            parsed,
        });
        sources.insert(rel_str, lines);
    }

    // Pass 3: the symbol graph and the flow rules.
    let graph = SymbolGraph::build(parsed_files);
    findings.extend(taint::run_flow_rules(&graph, &sources));

    // Attribute every finding to its innermost enclosing symbol and
    // fingerprint it.
    for f in &mut findings {
        if f.symbol.is_empty() {
            if let Some(s) = enclosing_symbol(&graph, &f.file, f.line) {
                f.symbol = s;
            }
        }
        f.fingerprint = rules::fingerprint(f.rule, &f.symbol, &f.file, &f.snippet);
    }

    // Widen allows to the item they bind to; window stays the fallback.
    bind_allows_to_items(&mut allows, &graph, &sources);

    let (suppressed, live): (Vec<Finding>, Vec<Finding>) = findings
        .into_iter()
        .partition(|f| rules::is_suppressed(f, &allows));
    let stale_allows: Vec<Allow> = allows
        .iter()
        .filter(|a| {
            !suppressed.iter().any(|f| {
                f.rule.name() == a.rule
                    && f.file == a.file
                    && f.line >= a.line
                    && f.line <= a.scope_end
            })
        })
        .cloned()
        .collect();

    let mut report = Report {
        findings: live,
        allows,
        stale_allows,
        suppressed_count: suppressed.len(),
        files_scanned: files.len(),
        lines_scanned,
        symbol_count: graph.symbols.len(),
    };
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .allows
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
        .stale_allows
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// The crate ident owning `path`: longest matching manifest dir, with the
/// `crates/<name>/` directory as fallback.
fn crate_ident_for(path: &str, crate_dirs: &[(String, String)]) -> String {
    for (dir, ident) in crate_dirs {
        if path.starts_with(dir.as_str()) {
            return ident.clone();
        }
    }
    match path
        .strip_prefix("crates/")
        .and_then(|p| p.split('/').next())
    {
        Some(name) => name.replace('-', "_"),
        None => "workspace_root".to_string(),
    }
}

/// The path tail used to derive a file's module path: everything after the
/// last `src/` component (integration tests and such get their stem).
fn module_tail(path: &str) -> &str {
    match path.rsplit_once("/src/") {
        Some((_, tail)) => tail,
        None => path.rsplit('/').next().unwrap_or(path),
    }
}

/// The innermost symbol in `file` whose span contains `line`.
fn enclosing_symbol(graph: &SymbolGraph, file: &str, line: usize) -> Option<String> {
    graph
        .symbols
        .iter()
        .filter(|s| s.file == file && s.start_line <= line && line <= s.end_line)
        .max_by_key(|s| s.start_line)
        .map(|s| s.path())
}

/// Binds each allow to the next parsed item when only trivia (blank lines,
/// comments, attributes) separates them; the allow then covers the whole
/// item span. Otherwise the `ALLOW_WINDOW` fallback set by the parser
/// stands.
fn bind_allows_to_items(
    allows: &mut [Allow],
    graph: &SymbolGraph,
    sources: &BTreeMap<String, Vec<String>>,
) {
    for a in allows.iter_mut() {
        let Some(file) = graph.files.iter().find(|f| f.path == a.file) else {
            continue;
        };
        let Some(lines) = sources.get(&a.file) else {
            continue;
        };
        // The nearest item starting at or below the allow line.
        let Some(item) = file
            .parsed
            .items
            .iter()
            .filter(|i| i.start_line >= a.line)
            .min_by_key(|i| i.start_line)
        else {
            continue;
        };
        let gap_is_trivia = (a.line + 1..item.start_line).all(|n| {
            let text = lines.get(n - 1).map(String::as_str).unwrap_or("").trim();
            text.is_empty()
                || text.starts_with("//")
                || text.starts_with("#[")
                || text.starts_with("#![")
        });
        if gap_is_trivia {
            a.scope_end = a.scope_end.max(item.end_line);
        }
    }
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_files(root, &path, out)?;
        } else if name == "Cargo.toml" || name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`; falls back to `start` when none is found.
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            let doc = toml::TomlDoc::parse(&text);
            if doc.sections_where(|n| n == "workspace").next().is_some() {
                return dir;
            }
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_audit_runs_on_this_repo() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
        let report = audit_workspace(&root).expect("workspace is readable");
        assert!(report.files_scanned > 50, "walker found the workspace");
        assert!(report.symbol_count > 100, "the graph saw the workspace");
    }

    #[test]
    fn crate_idents_resolve_from_manifests() {
        let dirs = vec![
            ("crates/sim/".to_string(), "sebs_sim".to_string()),
            ("".to_string(), "root".to_string()),
        ];
        assert_eq!(crate_ident_for("crates/sim/src/lib.rs", &dirs), "sebs_sim");
        assert_eq!(crate_ident_for("crates/new/src/lib.rs", &dirs), "root");
        assert_eq!(crate_ident_for("crates/new/src/lib.rs", &[]), "new");
    }
}
