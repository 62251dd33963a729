//! The audit rule families and the suppression mechanism.
//!
//! Four families, mirroring the workspace policy documented in DESIGN.md:
//!
//! * **registry-deps** — every dependency in every manifest must resolve
//!   inside the repository (`path = …` or `workspace = true`); registry
//!   version strings and git dependencies break offline builds.
//! * **wall-clock** — `Instant::now` / `SystemTime::now` are forbidden
//!   in every file, also under the alias a `use` gives either type;
//!   simulated components must take time from the virtual clock so runs
//!   are reproducible.
//! * **ambient-randomness** — OS-seeded randomness (`thread_rng`,
//!   `from_entropy`, `getrandom`, `RandomState`, any `rand::` path) is
//!   forbidden; all randomness flows from a [`SimRng`] seed.
//! * **hash-iteration** — `HashMap`/`HashSet` are forbidden in the
//!   deterministic core crates (sim, platform, storage, core) because their
//!   iteration order varies run to run; `BTreeMap`/`BTreeSet` replace them.
//! * **panic-hygiene** — `.unwrap()` / `.expect(` in non-test library code
//!   must either be refactored away or carry an explicit
//!   `audit:allow(panic-hygiene)` justification.
//! * **instant-usage** — naming `std::time::Instant` at all (imports,
//!   grouped or renamed ones included, and type positions, not just
//!   `::now()` calls) is forbidden in every file;
//!   wall-time measurement belongs to the bench harness,
//!   and each of its timer sites carries an explicit
//!   `audit:allow(instant-usage)` so every host-clock read stays visible
//!   in the audit report.
//! * **failure-probability** — drawing against a `*_rate` probability in
//!   the deterministic core (`.gen…` and `_rate` on one line) is reserved
//!   for the fault injector (`crates/resilience/src/fault.rs`); ad-hoc
//!   failure draws elsewhere fragment the failure model and must either
//!   move behind a [`FaultPlan`] or carry an explicit allow naming the
//!   paper section they reproduce.
//!
//! The six lexical families match token sequences of the shared
//! [`crate::token`] stream line by line, so a forbidden name inside a
//! comment or string never fires; a pattern fires at most once per line,
//! and only when all its tokens sit on that line. "Test code" is what the
//! parser marks: items under `#[test]` or `#[cfg(test)]`.
//!
//! Four *flow* families run on the workspace symbol graph instead of single
//! lines — **determinism-taint**, **rng-stream-discipline**,
//! **float-total-order** and **hot-path-allocation**; see [`crate::taint`]
//! for their semantics.
//!
//! A finding can be suppressed with a comment:
//!
//! ```text
//! // audit:allow(rule-name): why this occurrence is sound
//! ```
//!
//! An allow binds to the next *item* the parser recovers (only blank lines,
//! comments and attributes may separate them) and covers that whole item;
//! in non-item contexts — inside a function body, in a manifest — it falls
//! back to covering the same line and the next [`ALLOW_WINDOW`] lines.
//! Every allow is counted and carried in the report so suppressions stay
//! visible, and an allow that suppresses nothing is reported as *stale*.

use crate::parse::{parse_file, Import, ParsedFile};
use crate::token::{lex, spells, Tok, TokKind};
use crate::toml::{TomlDoc, TomlValue};

/// How many lines below an `audit:allow` comment it still applies to when
/// it does not bind to a parsed item.
pub const ALLOW_WINDOW: usize = 6;

/// The rule families the auditor enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    RegistryDeps,
    WallClock,
    AmbientRandomness,
    HashIteration,
    PanicHygiene,
    InstantUsage,
    FailureProbability,
    DeterminismTaint,
    RngStreamDiscipline,
    FloatTotalOrder,
    HotPathAllocation,
}

impl Rule {
    /// The stable kebab-case name used in reports and allow comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::RegistryDeps => "registry-deps",
            Rule::WallClock => "wall-clock",
            Rule::AmbientRandomness => "ambient-randomness",
            Rule::HashIteration => "hash-iteration",
            Rule::PanicHygiene => "panic-hygiene",
            Rule::InstantUsage => "instant-usage",
            Rule::FailureProbability => "failure-probability",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::RngStreamDiscipline => "rng-stream-discipline",
            Rule::FloatTotalOrder => "float-total-order",
            Rule::HotPathAllocation => "hot-path-allocation",
        }
    }

    /// All rules, in report order.
    pub fn all() -> [Rule; 11] {
        [
            Rule::RegistryDeps,
            Rule::WallClock,
            Rule::AmbientRandomness,
            Rule::HashIteration,
            Rule::PanicHygiene,
            Rule::InstantUsage,
            Rule::FailureProbability,
            Rule::DeterminismTaint,
            Rule::RngStreamDiscipline,
            Rule::FloatTotalOrder,
            Rule::HotPathAllocation,
        ]
    }
}

/// One policy violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Symbol path of the enclosing function (`crate::mod::Type::fn`),
    /// empty when the finding is not inside a recovered symbol.
    pub symbol: String,
    /// Extra context: the taint call chain, duplicate-salt info, ….
    pub detail: String,
    /// Stable fingerprint — `fnv1a64(rule, symbol-or-file, normalized
    /// snippet)` — for diffing reports across runs. Filled by the driver.
    pub fingerprint: String,
}

impl Finding {
    /// A bare lexical finding; flow context and fingerprint come later.
    pub fn new(rule: Rule, file: &str, line: usize, snippet: String) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            snippet,
            symbol: String::new(),
            detail: String::new(),
            fingerprint: String::new(),
        }
    }
}

/// The stable fingerprint of a finding: rule + symbol path (or file when no
/// symbol encloses it) + whitespace-normalized snippet, FNV-1a 64 in hex.
/// Line numbers are deliberately excluded so unrelated edits above a
/// violation do not change its identity.
pub fn fingerprint(rule: Rule, symbol: &str, file: &str, snippet: &str) -> String {
    let anchor = if symbol.is_empty() { file } else { symbol };
    let normalized = snippet.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in [rule.name(), "\u{0}", anchor, "\u{0}", &normalized] {
        for b in part.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// One `audit:allow` suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    pub rule: String,
    pub file: String,
    pub line: usize,
    pub reason: String,
    /// Last line (inclusive) the allow covers. Initialised to the
    /// [`ALLOW_WINDOW`] fallback by [`parse_allows`]; the driver widens it
    /// to the end of the item the allow binds to.
    pub scope_end: usize,
}

/// Extracts `audit:allow(rule): reason` records from per-line comment
/// text ([`crate::token::Lexed::comments`]).
///
/// The marker must open the comment (`// audit:allow(…)`), so prose that
/// merely *mentions* the syntax — like this crate's own documentation —
/// is not treated as a suppression.
pub fn parse_allows(file: &str, comments: &[(usize, String)]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (line, comment) in comments {
        let Some(rest) = comment.trim_start().strip_prefix("audit:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..]
            .strip_prefix(':')
            .map(|r| r.trim().to_string())
            .unwrap_or_default();
        out.push(Allow {
            rule,
            file: file.to_string(),
            line: *line,
            reason,
            scope_end: line + ALLOW_WINDOW,
        });
    }
    out
}

/// `true` when `finding` falls in some allow's scope.
pub fn is_suppressed(finding: &Finding, allows: &[Allow]) -> bool {
    allows.iter().any(|a| {
        a.rule == finding.rule.name()
            && a.file == finding.file
            && finding.line >= a.line
            && finding.line <= a.scope_end
    })
}

/// Scope switches for one Rust file, derived from its workspace path.
#[derive(Debug, Clone, Copy)]
pub struct FileScope {
    /// File is library code: under `crates/*/src/` but not `src/bin/`.
    pub library: bool,
    /// File belongs to a crate whose iteration order must be deterministic.
    pub deterministic_core: bool,
    /// The one file allowed to turn probabilities into failures: the
    /// seeded fault injector.
    pub fault_injector: bool,
}

impl FileScope {
    /// Classifies a workspace-relative path (forward slashes).
    pub fn classify(path: &str) -> FileScope {
        let in_crate_src = path.starts_with("crates/") && path.split('/').nth(2) == Some("src");
        FileScope {
            library: in_crate_src && !path.contains("/src/bin/"),
            deterministic_core: [
                "sim",
                "platform",
                "storage",
                "core",
                "telemetry",
                "resilience",
                "workload-gen",
                "cluster",
            ]
            .iter()
            .any(|c| in_crate_src && path.split('/').nth(1) == Some(*c)),
            fault_injector: path == "crates/resilience/src/fault.rs",
        }
    }
}

const WALL_CLOCK: &[&[&str]] = &[&["Instant", "::", "now"], &["SystemTime", "::", "now"]];
const INSTANT_PATH: &[&[&str]] = &[&["std", "::", "time", "::", "Instant"]];
/// Ambient-randomness sinks: OS-seeded generators and any `rand::` path.
/// Determinism taint names the same sinks.
pub const RANDOMNESS_SINKS: &[&[&str]] = &[
    &["rand", "::"],
    &["thread_rng"],
    &["from_entropy"],
    &["getrandom"],
    &["RandomState"],
];
/// Hash-iteration sinks. Determinism taint names the same sinks.
pub const HASH_SINKS: &[&[&str]] = &[&["HashMap"], &["HashSet"]];
const PANICS: &[&[&str]] = &[&[".", "unwrap", "(", ")"], &[".", "expect", "("]];

/// Audits one Rust source file; returns raw findings (suppression is applied
/// by the caller so allows can be accounted for centrally).
pub fn audit_rust_source(path: &str, source: &str) -> (Vec<Finding>, Vec<Allow>) {
    let lines: Vec<String> = source.lines().map(str::to_string).collect();
    audit_rust_file(path, &lines, &parse_file(lex(source)))
}

/// [`audit_rust_source`] for a file already lexed and parsed; `lines` are
/// its source lines, for snippets.
pub fn audit_rust_file(
    path: &str,
    lines: &[String],
    parsed: &ParsedFile,
) -> (Vec<Finding>, Vec<Allow>) {
    let scope = FileScope::classify(path);
    // The clock rules match names, not only spellings: `<alias>::now` reads
    // the clock of a renamed `Instant` or `SystemTime` import.
    let clock_import = |i: &Import, ty: &str| !i.glob && i.path == ["std", "time", ty];
    let aliased_now: Vec<[&str; 3]> = parsed
        .imports
        .iter()
        .filter(|i| clock_import(i, "Instant") || clock_import(i, "SystemTime"))
        .filter(|i| i.alias != "Instant" && i.alias != "SystemTime")
        .map(|i| [i.alias.as_str(), "::", "now"])
        .collect();
    let mut hits: Vec<(Rule, usize)> = Vec::new();
    for toks in parsed.toks.chunk_by(|a, b| a.line == b.line) {
        let line = toks[0].line;
        let test = parsed.is_test_line(line);
        let mut fire = |rule: Rule, patterns: &[&[&str]]| {
            for p in patterns {
                if (0..toks.len()).any(|i| spells(toks, i, p)) {
                    hits.push((rule, line));
                }
            }
        };
        fire(Rule::WallClock, WALL_CLOCK);
        for call in &aliased_now {
            fire(Rule::WallClock, &[&call[..]]);
        }
        fire(Rule::InstantUsage, INSTANT_PATH);
        fire(Rule::AmbientRandomness, RANDOMNESS_SINKS);
        if scope.deterministic_core {
            fire(Rule::HashIteration, HASH_SINKS);
        }
        if scope.library && !test {
            fire(Rule::PanicHygiene, PANICS);
        }
        if scope.deterministic_core && !scope.fault_injector && !test && draws_against_a_rate(toks)
        {
            hits.push((Rule::FailureProbability, line));
        }
    }
    // An `Instant` import names the type on its line even when grouped
    // (`use std::time::{Duration, Instant};`), where the path is not spelled
    // out.
    for import in parsed.imports.iter().filter(|i| clock_import(i, "Instant")) {
        if !hits.contains(&(Rule::InstantUsage, import.line)) {
            hits.push((Rule::InstantUsage, import.line));
        }
    }
    let findings = hits
        .into_iter()
        .map(|(rule, line)| {
            let snippet = lines.get(line - 1).map(|s| s.trim().to_string());
            Finding::new(rule, path, line, snippet.unwrap_or_default())
        })
        .collect();
    (findings, parse_allows(path, &parsed.comments))
}

/// A `failure-probability` line: an RNG draw (`.gen::<f64>()`,
/// `.gen_bool(…)`, …) next to a `*_rate` probability knob.
fn draws_against_a_rate(toks: &[Tok]) -> bool {
    let draws = toks
        .windows(2)
        .any(|w| w[0].is_punct(".") && w[1].kind == TokKind::Ident && w[1].text.starts_with("gen"));
    draws
        && toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text.contains("_rate"))
}

/// Audits one Cargo manifest for registry (non-path) dependencies.
pub fn audit_manifest(path: &str, source: &str) -> Vec<Finding> {
    let doc = TomlDoc::parse(source);
    let mut findings = Vec::new();
    let originals: Vec<&str> = source.lines().collect();
    for section in doc.sections_where(is_dependency_section) {
        for entry in &section.entries {
            // `dep.workspace = true` / `dep.path = "…"` are the dotted-key
            // spellings of the inline-table forms.
            let dotted_ok = entry.key.rsplit_once('.').is_some_and(|(_, attr)| {
                (attr == "workspace" && entry.value == TomlValue::Bool(true)) || attr == "path"
            });
            if !dotted_ok && !is_hermetic_dep(&entry.value) {
                findings.push(Finding::new(
                    Rule::RegistryDeps,
                    path,
                    entry.line,
                    originals
                        .get(entry.line.saturating_sub(1))
                        .map(|s| s.trim().to_string())
                        .unwrap_or_default(),
                ));
            }
        }
    }
    findings
}

fn is_dependency_section(name: &str) -> bool {
    name == "dependencies"
        || name == "dev-dependencies"
        || name == "build-dependencies"
        || name == "workspace.dependencies"
        || (name.starts_with("target.") && name.ends_with("dependencies"))
}

/// A dependency is hermetic when it resolves inside the repository.
fn is_hermetic_dep(value: &TomlValue) -> bool {
    match value {
        TomlValue::Table(_) => {
            value.get("path").is_some() || value.get("workspace") == Some(&TomlValue::Bool(true))
        }
        // `dep = "1.0"` and anything else pulls from the registry.
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_flagged_in_code_not_comments_or_strings() {
        let src = "\
let t = Instant::now();
// Instant::now() in a comment is fine
let s = \"Instant::now()\";
let u = std::time::SystemTime::now();
";
        let (findings, _) = audit_rust_source("crates/sim/src/x.rs", src);
        let wall: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == Rule::WallClock)
            .collect();
        assert_eq!(wall.len(), 2);
        assert_eq!(wall[0].line, 1);
        assert_eq!(wall[1].line, 4);
    }

    #[test]
    fn cloud_clock_module_is_flagged_like_any_file() {
        let (findings, _) =
            audit_rust_source("crates/cloud/src/clock.rs", "let t = Instant::now();");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::WallClock);
    }

    #[test]
    fn instant_usage_flags_the_path_itself_everywhere() {
        let src = "\
use std::time::Instant;
// std::time::Instant in a comment is fine
fn f(deadline: std::time::Instant) {}
";
        let (findings, _) = audit_rust_source("crates/bench/src/lib.rs", src);
        let instant: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == Rule::InstantUsage)
            .collect();
        assert_eq!(instant.len(), 2);
        assert_eq!(instant[0].line, 1);
        assert_eq!(instant[1].line, 3);
        let (clock, _) = audit_rust_source("crates/cloud/src/clock.rs", src);
        let lines: Vec<usize> = clock
            .iter()
            .filter(|f| f.rule == Rule::InstantUsage)
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![1, 3], "the cloud clock has no exemption");
    }

    #[test]
    fn clock_rules_follow_grouped_and_renamed_imports() {
        let hits = |src: &str| {
            let (findings, _) = audit_rust_source("crates/sim/src/x.rs", src);
            let mut got: Vec<(usize, Rule)> = findings.iter().map(|f| (f.line, f.rule)).collect();
            got.sort();
            got
        };
        let grouped = "\
use std::time::{Duration, Instant};
pub struct Stamp {
    pub t: Instant,
}
";
        assert_eq!(hits(grouped), [(1, Rule::InstantUsage)]);
        let renamed = "\
use std::time::SystemTime as Wall;
use std::time::{Instant as Clock};
use crate::clock::SimClock as Sim;
fn f() {
    let a = Wall::now();
    let b = Clock::now();
    let c = Sim::now();
}
";
        assert_eq!(
            hits(renamed),
            [
                (2, Rule::InstantUsage),
                (5, Rule::WallClock),
                (6, Rule::WallClock)
            ]
        );
    }

    #[test]
    fn instant_usage_suppressed_by_its_own_allow() {
        let src = "\
// audit:allow(instant-usage): bench timer measures host wall time
let start = std::time::Instant::now();
";
        let (findings, allows) = audit_rust_source("crates/bench/src/lib.rs", src);
        let live: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == Rule::InstantUsage && !is_suppressed(f, &allows))
            .collect();
        assert!(live.is_empty(), "allow comment must cover the timer line");
    }

    #[test]
    fn randomness_tokens_respect_boundaries() {
        let (findings, _) = audit_rust_source(
            "tests/tests/x.rs",
            "use operand::x;\nlet r = thread_rng();\n",
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::AmbientRandomness);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn lexical_patterns_match_whole_tokens() {
        let src = "\
use rand::Rng;
use operand::Rng;
let m: HashMap<K, V>;
struct MyHashMapLike;
x.unwrap();
x.unwrap_or(1);
";
        let (findings, _) = audit_rust_source("crates/sim/src/x.rs", src);
        let got: Vec<(usize, Rule)> = findings.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(
            got,
            [
                (1, Rule::AmbientRandomness),
                (3, Rule::HashIteration),
                (5, Rule::PanicHygiene)
            ]
        );
    }

    #[test]
    fn hash_iteration_only_in_core_crates() {
        let src = "use std::collections::HashMap;";
        for core in ["platform", "telemetry"] {
            let (in_core, _) = audit_rust_source(&format!("crates/{core}/src/x.rs"), src);
            assert_eq!(in_core.len(), 1, "{core} is deterministic core");
            assert_eq!(in_core[0].rule, Rule::HashIteration);
        }
        let (in_workloads, _) = audit_rust_source("crates/workloads/src/x.rs", src);
        assert!(in_workloads.is_empty());
    }

    #[test]
    fn panic_hygiene_skips_tests_bins_and_non_library_code() {
        let src = "\
fn lib() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.expect(\"fine in tests\"); }
}
";
        let (findings, _) = audit_rust_source("crates/sim/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
        let (bin, _) = audit_rust_source("crates/bench/src/bin/b.rs", src);
        assert!(bin.iter().all(|f| f.rule != Rule::PanicHygiene));
        let (itest, _) = audit_rust_source("tests/tests/t.rs", "x.unwrap();");
        assert!(itest.is_empty());
    }

    #[test]
    fn test_code_is_every_test_item_and_only_that() {
        let src = "\
#[cfg(test)]
fn helper() { x.unwrap(); }
#[cfg(not(test))]
fn live() { y.unwrap(); }
#[test]
fn t() { z.expect(\"fine\"); }
";
        let (findings, _) = audit_rust_source("crates/sim/src/x.rs", src);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [4], "{findings:?}");
    }

    #[test]
    fn allows_suppress_within_window_and_are_counted() {
        let mut src = String::from(
            "// audit:allow(panic-hygiene): invariant documented here\n\
             fn f() { x.unwrap(); }\n",
        );
        for _ in 0..ALLOW_WINDOW {
            src.push_str("fn pad() {}\n");
        }
        src.push_str("fn g() { y.unwrap(); }\n");
        let (findings, allows) = audit_rust_source("crates/sim/src/x.rs", &src);
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rule, "panic-hygiene");
        assert_eq!(allows[0].reason, "invariant documented here");
        let live: Vec<&Finding> = findings
            .iter()
            .filter(|f| !is_suppressed(f, &allows))
            .collect();
        assert_eq!(live.len(), 1, "only the out-of-window unwrap survives");
        assert_eq!(live[0].line, 2 + ALLOW_WINDOW + 1);
    }

    #[test]
    fn allow_window_expires() {
        let mut src = String::from("// audit:allow(panic-hygiene): up top\n");
        for _ in 0..ALLOW_WINDOW {
            src.push_str("fn pad() {}\n");
        }
        src.push_str("fn f() { x.unwrap(); }\n");
        let (findings, allows) = audit_rust_source("crates/sim/src/x.rs", &src);
        assert_eq!(findings.len(), 1);
        assert!(!is_suppressed(&findings[0], &allows));
    }

    #[test]
    fn failure_probability_draws_flagged_outside_the_injector() {
        let src = "\
if self.rng.gen::<f64>() < self.crash_rate {
    // ad-hoc failure draw
}
";
        let (findings, _) = audit_rust_source("crates/platform/src/x.rs", src);
        let fails: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == Rule::FailureProbability)
            .collect();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].line, 1);
        // The fault injector itself is the sanctioned home for these draws.
        let (injector, _) = audit_rust_source("crates/resilience/src/fault.rs", src);
        assert!(injector.iter().all(|f| f.rule != Rule::FailureProbability));
        // Other resilience files are still deterministic core.
        let (retry, _) = audit_rust_source("crates/resilience/src/retry.rs", src);
        assert!(retry.iter().any(|f| f.rule == Rule::FailureProbability));
        // Non-core crates (workload models draw service rates) are exempt.
        let (workloads, _) = audit_rust_source("crates/workloads/src/x.rs", src);
        assert!(workloads.is_empty());
    }

    #[test]
    fn failure_probability_needs_both_tokens_and_skips_tests() {
        let draws_only = "let x = rng.gen::<f64>();";
        let rate_only = "let r = self.error_rate;";
        for src in [draws_only, rate_only] {
            let (findings, _) = audit_rust_source("crates/sim/src/x.rs", src);
            assert!(
                findings.iter().all(|f| f.rule != Rule::FailureProbability),
                "{src}"
            );
        }
        let test_src = "\
#[cfg(test)]
mod tests {
    fn t() { assert!(rng.gen::<f64>() < plan.crash_rate); }
}
";
        let (findings, _) = audit_rust_source("crates/platform/src/x.rs", test_src);
        assert!(findings.iter().all(|f| f.rule != Rule::FailureProbability));
    }

    #[test]
    fn failure_probability_suppressed_by_allow() {
        let src = "\
// audit:allow(failure-probability): reproduces the paper's availability model
if self.rng_failure.gen::<f64>() < quirks.availability_error_rate {
}
";
        let (findings, allows) = audit_rust_source("crates/platform/src/x.rs", src);
        let live: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == Rule::FailureProbability && !is_suppressed(f, &allows))
            .collect();
        assert!(live.is_empty());
    }

    #[test]
    fn manifest_rules() {
        let src = "\
[dependencies]
good = { path = \"../good\" }
ws = { workspace = true }
bad = \"1.0\"
worse = { version = \"2\", features = [\"x\"] }
git = { git = \"https://example.com/x.git\" }

dotted.workspace = true
dotted-path.path = \"../p\"

[dev-dependencies]
dev-bad = \"0.5\"
";
        let findings = audit_manifest("crates/x/Cargo.toml", src);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![4, 5, 6, 12]);
        assert!(findings.iter().all(|f| f.rule == Rule::RegistryDeps));
    }
}
