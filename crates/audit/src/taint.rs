//! Flow-aware rule families over the workspace symbol graph.
//!
//! The lexical rules in [`crate::rules`] see one line at a time; these four
//! families reason about *reachability*:
//!
//! * **determinism-taint** — any function transitively reachable from a
//!   deterministic-core entry point (`Engine::run`, `invoke_one`, the
//!   exporters) that names a wall-clock, ambient-randomness or
//!   hash-iteration site — in *any* crate — is flagged, with the full call
//!   chain in the finding. This catches the laundering the lexical rules
//!   cannot: a `SystemTime::now()` hidden behind a helper in a non-core
//!   crate that the engine calls.
//! * **rng-stream-discipline** — every literal `SimRng::child` salt must be
//!   distinct within a function (duplicate salts collapse two supposedly
//!   independent streams into one), and `&mut SimRng` must not cross an
//!   experiment-cell boundary (code outside `crates/sim` takes child
//!   streams, never the parent generator).
//! * **float-total-order** — `partial_cmp` on floats is order-unstable the
//!   moment a NaN appears; deterministic comparisons use `f64::total_cmp`.
//! * **hot-path-allocation** — `format!`, `vec!`, `.to_string()`,
//!   `.collect()`, `.partition()`, `.to_vec()`, `Vec::new`,
//!   `Vec::with_capacity` and `Box::new` inside the engine-dispatch and
//!   `invoke_one` call chains; feeds the engine raw-speed campaign by
//!   keeping per-event allocations visible.
//!
//! The taint domain deliberately excludes the sanctioned escape hatches:
//! the seeded fault injector and the bench harness (host wall-time
//! measurement is its whole job, and every timer site there already carries
//! a lexical `instant-usage` allow).

use crate::graph::SymbolGraph;
use crate::rules::{Finding, Rule, HASH_SINKS, RANDOMNESS_SINKS};
use crate::token::{spells, Tok, TokKind};
use std::collections::BTreeMap;

/// Entry points of the deterministic core: `(impl type or "*"/"", fn name)`.
/// `"*"` matches any context, `""` only free functions.
pub const TAINT_ENTRY_POINTS: &[(&str, &str)] = &[
    ("Engine", "run"),
    ("*", "invoke_one"),
    ("*", "chrome_trace_json"),
    ("*", "breakdown_table"),
    ("*", "csv_timeseries"),
    ("*", "prometheus_text"),
    ("ResultStore", "to_json"),
];

/// Entry points whose call chains must stay allocation-lean.
pub const HOT_PATH_ENTRY_POINTS: &[(&str, &str)] = &[("Engine", "run"), ("*", "invoke_one")];

/// File path prefixes the hot-path rule is confined to.
pub const HOT_PATH_CRATES: &[&str] = &[
    "crates/sim/",
    "crates/platform/",
    "crates/telemetry/",
    "crates/trace/",
];

/// Files exempt from taint sink detection: the sanctioned non-determinism.
const SINK_EXEMPT_PREFIXES: &[&str] = &[
    "crates/resilience/src/fault.rs",
    "crates/bench/",
    "crates/audit/",
];

/// Runs all four flow families. `sources` maps workspace-relative paths to
/// their source lines (for snippets).
pub fn run_flow_rules(
    graph: &SymbolGraph,
    sources: &BTreeMap<String, Vec<String>>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    determinism_taint(graph, sources, &mut findings);
    rng_stream_discipline(graph, sources, &mut findings);
    float_total_order(graph, sources, &mut findings);
    hot_path_allocation(graph, sources, &mut findings);
    findings
}

fn snippet(sources: &BTreeMap<String, Vec<String>>, file: &str, line: usize) -> String {
    sources
        .get(file)
        .and_then(|lines| lines.get(line.saturating_sub(1)))
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

/// Which determinism sink starts at token `i`, if any: any mention of a
/// host clock type, or a sink of the lexical randomness and hash rules.
fn sink_kind(toks: &[Tok], i: usize) -> Option<Rule> {
    let spelled = |sinks: &[&[&str]]| sinks.iter().any(|s| spells(toks, i, s));
    if toks[i].is_ident("SystemTime") || toks[i].is_ident("Instant") {
        Some(Rule::WallClock)
    } else if spelled(RANDOMNESS_SINKS) {
        Some(Rule::AmbientRandomness)
    } else if spelled(HASH_SINKS) {
        Some(Rule::HashIteration)
    } else {
        None
    }
}

fn determinism_taint(
    graph: &SymbolGraph,
    sources: &BTreeMap<String, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    let roots = graph.find_entry_points(TAINT_ENTRY_POINTS);
    let pred = graph.reach(&roots, &[]);
    for (id, s) in graph.symbols.iter().enumerate() {
        if pred[id].is_none() || s.is_test {
            continue;
        }
        if SINK_EXEMPT_PREFIXES.iter().any(|p| s.file.starts_with(p)) {
            continue;
        }
        let toks = &graph.files[s.file_idx].parsed.toks;
        let mut last: Option<(usize, String)> = None;
        for range in [s.params, s.body] {
            for i in range.0..range.1 {
                let Some(kind) = sink_kind(toks, i) else {
                    continue;
                };
                let line = toks[i].line;
                let key = (line, toks[i].text.clone());
                if last.as_ref() == Some(&key) {
                    continue; // one finding per (line, token)
                }
                last = Some(key);
                findings.push(Finding {
                    rule: Rule::DeterminismTaint,
                    file: s.file.clone(),
                    line,
                    snippet: snippet(sources, &s.file, line),
                    symbol: s.path(),
                    detail: format!(
                        "{} sink `{}` reachable from deterministic core: {}",
                        kind.name(),
                        toks[i].text,
                        graph.chain(&pred, id)
                    ),
                    fingerprint: String::new(),
                });
            }
        }
    }
}

fn rng_stream_discipline(
    graph: &SymbolGraph,
    sources: &BTreeMap<String, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    for s in &graph.symbols {
        if s.is_test {
            continue;
        }
        let toks = &graph.files[s.file_idx].parsed.toks;

        // Duplicate literal child salts within one function scope.
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        for i in s.body.0..s.body.1.saturating_sub(2) {
            if toks[i].is_ident("child")
                && toks[i + 1].is_punct("(")
                && toks[i + 2].kind == TokKind::Literal
                && toks.get(i + 3).is_some_and(|t| t.is_punct(")"))
            {
                let salt = toks[i + 2].text.clone();
                let line = toks[i + 2].line;
                if let Some(first) = seen.get(&salt) {
                    findings.push(Finding {
                        rule: Rule::RngStreamDiscipline,
                        file: s.file.clone(),
                        line,
                        snippet: snippet(sources, &s.file, line),
                        symbol: s.path(),
                        detail: format!(
                            "duplicate SimRng::child salt {salt} (first used at line {first}); \
                             reused salts collapse independent streams"
                        ),
                        fingerprint: String::new(),
                    });
                } else {
                    seen.insert(salt, line);
                }
            }
        }

        // `&mut SimRng` parameters outside the owning crate.
        if !s.file.starts_with("crates/sim/") {
            for i in s.params.0..s.params.1.saturating_sub(2) {
                if toks[i].is_punct("&")
                    && toks[i + 1].is_ident("mut")
                    && toks[i + 2].is_ident("SimRng")
                {
                    let line = toks[i + 2].line;
                    findings.push(Finding {
                        rule: Rule::RngStreamDiscipline,
                        file: s.file.clone(),
                        line,
                        snippet: snippet(sources, &s.file, line),
                        symbol: s.path(),
                        detail: "`&mut SimRng` crosses an experiment-cell boundary; \
                                 take a child stream (SimRng::child) instead"
                            .to_string(),
                        fingerprint: String::new(),
                    });
                }
            }
        }
    }
}

fn float_total_order(
    graph: &SymbolGraph,
    sources: &BTreeMap<String, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    for s in &graph.symbols {
        if s.is_test {
            continue;
        }
        if s.file.starts_with("crates/audit/") {
            continue; // the auditor's own detectors name the tokens
        }
        let toks = &graph.files[s.file_idx].parsed.toks;
        for i in s.body.0..s.body.1 {
            if toks[i].is_ident("partial_cmp") {
                let line = toks[i].line;
                findings.push(Finding {
                    rule: Rule::FloatTotalOrder,
                    file: s.file.clone(),
                    line,
                    snippet: snippet(sources, &s.file, line),
                    symbol: s.path(),
                    detail: "partial_cmp is order-unstable under NaN; \
                             use f64::total_cmp for deterministic ordering"
                        .to_string(),
                    fingerprint: String::new(),
                });
            }
        }
    }
}

fn hot_path_allocation(
    graph: &SymbolGraph,
    sources: &BTreeMap<String, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    let roots = graph.find_entry_points(HOT_PATH_ENTRY_POINTS);
    let pred = graph.reach(&roots, HOT_PATH_CRATES);
    for (id, s) in graph.symbols.iter().enumerate() {
        if pred[id].is_none() || s.is_test {
            continue;
        }
        let toks = &graph.files[s.file_idx].parsed.toks;
        for i in s.body.0..s.body.1 {
            let what = alloc_site(toks, i);
            let Some(what) = what else { continue };
            let line = toks[i].line;
            findings.push(Finding {
                rule: Rule::HotPathAllocation,
                file: s.file.clone(),
                line,
                snippet: snippet(sources, &s.file, line),
                symbol: s.path(),
                detail: format!(
                    "{} on the engine hot path: {}",
                    what,
                    graph.chain(&pred, id)
                ),
                fingerprint: String::new(),
            });
        }
    }
}

/// Allocating method calls: `.name(`, or `.name::<…>(` with a turbofish.
const ALLOC_METHODS: &[(&str, &str)] = &[
    ("to_string", ".to_string() allocation"),
    ("collect", ".collect() allocation"),
    ("partition", ".partition() allocation"),
    ("to_vec", ".to_vec() allocation"),
];

/// Allocating associated functions: `Type::name(`.
const ALLOC_CONSTRUCTORS: &[(&str, &str, &str)] = &[
    ("Vec", "new", "Vec::new allocation"),
    ("Vec", "with_capacity", "Vec::with_capacity allocation"),
    ("Box", "new", "Box::new allocation"),
];

/// Allocating macros: `name!` followed by its opening delimiter.
const ALLOC_MACROS: &[(&str, &str)] =
    &[("format", "format! allocation"), ("vec", "vec! allocation")];

/// Recognises an allocation site starting at token `i`.
fn alloc_site(toks: &[Tok], i: usize) -> Option<&'static str> {
    let at = |k: usize| toks.get(i + k);
    let t = &toks[i];
    if t.is_punct(".") {
        let name = at(1)?;
        let called = at(2).is_some_and(|n| n.is_punct("(") || n.is_punct("::"));
        return ALLOC_METHODS
            .iter()
            .find(|(method, _)| called && name.is_ident(method))
            .map(|(_, what)| *what);
    }
    if at(1).is_some_and(|n| n.kind == TokKind::PathSep) {
        let name = at(2)?;
        let called = at(3).is_some_and(|n| n.is_punct("("));
        return ALLOC_CONSTRUCTORS
            .iter()
            .find(|(ty, f, _)| called && t.is_ident(ty) && name.is_ident(f))
            .map(|(_, _, what)| *what);
    }
    let invoked = at(1).is_some_and(|n| n.is_punct("!"))
        && at(2).is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"));
    ALLOC_MACROS
        .iter()
        .find(|(name, _)| invoked && t.is_ident(name))
        .map(|(_, what)| *what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{file_module_path, SourceFile, SymbolGraph};
    use crate::parse::parse_file;
    use crate::token::lex;

    fn graph(files: &[(&str, &str, &str)]) -> (SymbolGraph, BTreeMap<String, Vec<String>>) {
        let mut sources = BTreeMap::new();
        let mut sf = Vec::new();
        for (path, krate, src) in files {
            sources.insert(
                path.to_string(),
                src.lines().map(|l| l.to_string()).collect(),
            );
            let tail = path.split("/src/").nth(1).unwrap_or("lib.rs");
            sf.push(SourceFile {
                path: path.to_string(),
                crate_ident: krate.to_string(),
                file_module: file_module_path(tail),
                is_external: false,
                parsed: parse_file(lex(src)),
            });
        }
        (SymbolGraph::build(sf), sources)
    }

    #[test]
    fn taint_reports_cross_crate_chain() {
        let (g, src) = graph(&[
            (
                "crates/sim/src/lib.rs",
                "sim",
                "use util::tick;\npub struct Engine;\nimpl Engine { pub fn run(&mut self) { tick(); } }",
            ),
            (
                "crates/util/src/lib.rs",
                "util",
                "pub fn tick() -> u64 { SystemTime::now() }",
            ),
        ]);
        let f = run_flow_rules(&g, &src);
        let taint: Vec<&Finding> = f
            .iter()
            .filter(|f| f.rule == Rule::DeterminismTaint)
            .collect();
        assert_eq!(taint.len(), 1);
        assert!(taint[0].detail.contains("sim::Engine::run -> util::tick"));
        assert_eq!(taint[0].symbol, "util::tick");
    }

    #[test]
    fn unreachable_sinks_are_not_tainted() {
        let (g, src) = graph(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub struct Engine;\nimpl Engine { pub fn run(&mut self) {} }\nfn orphan() -> u64 { SystemTime::now() }",
        )]);
        let f = run_flow_rules(&g, &src);
        assert!(f.iter().all(|f| f.rule != Rule::DeterminismTaint));
    }

    #[test]
    fn duplicate_child_salts_flagged_once() {
        let (g, src) = graph(&[(
            "crates/core/src/lib.rs",
            "sebs",
            "pub fn cell(rng: &SimRng) { let a = rng.child(7); let b = rng.child(7); let c = rng.child(8); }",
        )]);
        let f = run_flow_rules(&g, &src);
        let rngf: Vec<&Finding> = f
            .iter()
            .filter(|f| f.rule == Rule::RngStreamDiscipline)
            .collect();
        assert_eq!(rngf.len(), 1);
        assert!(rngf[0].detail.contains("salt 7"));
    }

    #[test]
    fn mut_simrng_param_outside_sim_crate_flagged() {
        let (g, src) = graph(&[(
            "crates/platform/src/lib.rs",
            "plat",
            "pub fn shared(rng: &mut SimRng) {}",
        )]);
        let f = run_flow_rules(&g, &src);
        assert!(f
            .iter()
            .any(|f| f.rule == Rule::RngStreamDiscipline && f.detail.contains("boundary")));
        // The owning crate may hold the parent stream.
        let (g2, src2) = graph(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn own(rng: &mut SimRng) {}",
        )]);
        let f2 = run_flow_rules(&g2, &src2);
        assert!(f2.iter().all(|f| f.rule != Rule::RngStreamDiscipline));
    }

    #[test]
    fn partial_cmp_flagged_outside_tests() {
        let (g, src) = graph(&[(
            "crates/metrics/src/lib.rs",
            "metrics",
            "pub fn top(xs: &mut Vec<f64>) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n#[cfg(test)]\nmod tests { fn t(a: f64, b: f64) { let _ = a.partial_cmp(&b); } }",
        )]);
        let f = run_flow_rules(&g, &src);
        let ff: Vec<&Finding> = f
            .iter()
            .filter(|f| f.rule == Rule::FloatTotalOrder)
            .collect();
        assert_eq!(ff.len(), 1);
        assert_eq!(ff[0].line, 1);
    }

    /// Hot-path findings for a hot `step` body and a cold `idle` body.
    fn hot_findings(step_body: &str, idle_body: &str) -> Vec<Finding> {
        let src = format!(
            "pub struct Engine;\nimpl Engine {{ pub fn run(&mut self) {{ step(); }} }}\n\
             fn step() {{ {step_body} }}\nfn idle() {{ {idle_body} }}"
        );
        let (g, src) = graph(&[("crates/sim/src/engine.rs", "sim", &src)]);
        run_flow_rules(&g, &src)
            .into_iter()
            .filter(|f| f.rule == Rule::HotPathAllocation)
            .collect()
    }

    #[test]
    fn hot_path_flags_collect_calls_with_and_without_turbofish() {
        let body = "let a: Vec<u8> = xs.iter().copied().collect();\n\
                    let b = xs.iter().collect::<Vec<_>>();";
        let hot = hot_findings(body, body);
        assert_eq!(hot.len(), 2, "{hot:?}");
        assert!(hot
            .iter()
            .all(|f| f.detail.starts_with(".collect() allocation")));
        assert!(hot.iter().all(|f| f.symbol.ends_with("step")));
    }

    #[test]
    fn hot_path_flags_partition_calls() {
        let body = "let (a, b): (Vec<u8>, Vec<u8>) = xs.into_iter().partition(|x| *x > 0);";
        let hot = hot_findings(body, body);
        assert_eq!(hot.len(), 1, "{hot:?}");
        assert!(hot[0].detail.starts_with(".partition() allocation"));
    }

    #[test]
    fn hot_path_flags_to_vec_calls() {
        let hot = hot_findings("let v = xs.to_vec();", "let v = xs.to_vec();");
        assert_eq!(hot.len(), 1, "{hot:?}");
        assert!(hot[0].detail.starts_with(".to_vec() allocation"));
    }

    #[test]
    fn hot_path_flags_vec_macros_but_not_a_vec_binding() {
        let body = "let v = vec![0u8; 4];\nlet w = vec!(1, 2);\nlet same = vec != other;";
        let hot = hot_findings(body, body);
        assert_eq!(hot.len(), 2, "{hot:?}");
        assert!(hot.iter().all(|f| f.detail.starts_with("vec! allocation")));
    }

    #[test]
    fn hot_path_flags_vec_with_capacity() {
        let body = "let v: Vec<u8> = Vec::with_capacity(8);";
        let hot = hot_findings(body, body);
        assert_eq!(hot.len(), 1, "{hot:?}");
        assert!(hot[0].detail.starts_with("Vec::with_capacity allocation"));
    }

    #[test]
    fn hot_path_follows_invoke_one_into_telemetry() {
        let (g, src) = graph(&[
            (
                "crates/platform/src/platform.rs",
                "sebs_platform",
                "pub struct FaasPlatform { hub: MetricsHub }
\
                 impl FaasPlatform { fn invoke_one(&mut self) { self.hub.observe_ms(4.0); } }",
            ),
            (
                "crates/telemetry/src/hub.rs",
                "sebs_telemetry",
                "pub struct MetricsHub;
\
                 impl MetricsHub { pub fn observe_ms(&mut self, ms: f64) { let b = vec![ms]; } }",
            ),
        ]);
        let hot: Vec<Finding> = run_flow_rules(&g, &src)
            .into_iter()
            .filter(|f| f.rule == Rule::HotPathAllocation)
            .collect();
        assert_eq!(hot.len(), 1, "{hot:?}");
        assert_eq!(hot[0].file, "crates/telemetry/src/hub.rs");
        assert!(
            hot[0].detail.ends_with(
                "FaasPlatform::invoke_one -> sebs_telemetry::hub::MetricsHub::observe_ms"
            ),
            "{}",
            hot[0].detail
        );
    }

    #[test]
    fn hot_path_follows_invoke_one_into_trace_collection() {
        let (g, src) = graph(&[
            (
                "crates/platform/src/platform.rs",
                "sebs_platform",
                "pub struct FaasPlatform { traces: TraceCollector }\n\
                 impl FaasPlatform { fn invoke_one(&mut self) { self.traces.keep(\"f\"); } }",
            ),
            (
                "crates/trace/src/sink.rs",
                "sebs_trace",
                "pub struct TraceCollector;\n\
                 impl TraceCollector { pub fn keep(&mut self, f: &str) { let s = f.to_string(); } }",
            ),
        ]);
        let hot: Vec<Finding> = run_flow_rules(&g, &src)
            .into_iter()
            .filter(|f| f.rule == Rule::HotPathAllocation)
            .collect();
        assert_eq!(hot.len(), 1, "{hot:?}");
        assert_eq!(hot[0].file, "crates/trace/src/sink.rs");
        assert!(
            hot[0]
                .detail
                .ends_with("FaasPlatform::invoke_one -> sebs_trace::sink::TraceCollector::keep"),
            "{}",
            hot[0].detail
        );
    }

    #[test]
    fn hot_path_allocation_confined_to_engine_chains() {
        let (g, src) = graph(&[(
            "crates/sim/src/engine.rs",
            "sim",
            "pub struct Engine;\nimpl Engine { pub fn run(&mut self) { step(); } }\nfn step() { let v: Vec<u32> = Vec::new(); }\nfn cold() { let w: Vec<u32> = Vec::new(); }",
        )]);
        let f = run_flow_rules(&g, &src);
        let hot: Vec<&Finding> = f
            .iter()
            .filter(|f| f.rule == Rule::HotPathAllocation)
            .collect();
        assert_eq!(hot.len(), 1, "{hot:?}");
        assert!(hot[0].detail.contains("Engine::run"));
        assert!(hot[0].symbol.ends_with("step"));
    }
}
