//! The `sebs report` renderer: one self-contained document per fleet
//! replay, merging the summary rows, sketch percentiles, phase profile,
//! metrics totals and exemplar traces.
//!
//! The renderer is a pure function of an already-deterministic
//! [`FleetResult`]: sections appear in a fixed order, every table is
//! sorted by its canonical key and floats print with fixed precision —
//! so the emitted bytes are identical for every `--jobs` value, which
//! the CI determinism matrix byte-diffs.

use std::fmt::Write;

use sebs_telemetry::SeriesKey;
use sebs_trace::breakdown_table;

use crate::config::SuiteConfig;
use crate::experiments::fleet::{FleetConfig, FleetResult};

/// Output flavors of the report document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// GitHub-flavored markdown.
    Markdown,
    /// A self-contained HTML page (inline styles, no external assets).
    Html,
}

impl ReportFormat {
    /// Parses a CLI `--format` value.
    pub fn parse(s: &str) -> Option<ReportFormat> {
        match s {
            "md" | "markdown" => Some(ReportFormat::Markdown),
            "html" => Some(ReportFormat::Html),
            _ => None,
        }
    }
}

/// An ordered, renderer-agnostic report: a title plus sections.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    title: String,
    sections: Vec<Section>,
}

#[derive(Debug, Clone, PartialEq)]
enum Section {
    /// A heading with `(key, value)` facts.
    Facts(String, Vec<(String, String)>),
    /// A heading with an aligned table: column names plus rows.
    Table(String, Vec<String>, Vec<Vec<String>>),
    /// A heading with preformatted text (rendered verbatim).
    Verbatim(String, String),
    /// A heading with one paragraph of prose.
    Prose(String, String),
}

/// Fixed-precision float formatting: the single point deciding how every
/// number in the report prints, so exports stay byte-stable.
fn num(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        // An integral value below 1e15 is exact as an `i64`, whose digits
        // are those of `{v:.0}` and print faster; only a negative zero
        // needs its sign kept.
        if v == 0.0 && v.is_sign_negative() {
            "-0".to_string()
        } else {
            (v as i64).to_string()
        }
    } else {
        format!("{v:.3}")
    }
}

/// Builds the report for one fleet replay.
pub fn fleet_report(config: &SuiteConfig, fleet: &FleetConfig, result: &FleetResult) -> Report {
    let mut sections = Vec::new();

    sections.push(Section::Facts(
        "Run configuration".to_string(),
        vec![
            ("provider".to_string(), fleet.provider.to_string()),
            ("seed".to_string(), config.seed.to_string()),
            ("functions".to_string(), fleet.functions.to_string()),
            (
                "target invocations".to_string(),
                fleet.target_invocations.to_string(),
            ),
            ("horizon (s)".to_string(), num(fleet.horizon.as_secs_f64())),
            ("cells".to_string(), fleet.cells.to_string()),
            ("zipf exponent".to_string(), num(fleet.zipf_exponent)),
        ],
    ));

    sections.push(Section::Facts(
        "Fleet summary".to_string(),
        vec![
            ("invocations".to_string(), result.invocations().to_string()),
            ("cold-start rate".to_string(), num(result.cold_start_rate())),
            ("failure rate".to_string(), num(result.failure_rate())),
            ("mean warm pool".to_string(), num(result.mean_warm_pool())),
            ("total cost (USD)".to_string(), num(result.total_cost_usd())),
        ],
    ));

    let sketch = result.latency_sketch();
    sections.push(Section::Table(
        "Client latency (sketch, ms)".to_string(),
        vec!["quantile".to_string(), "latency_ms".to_string()],
        vec![
            vec!["min".to_string(), num(sketch.min())],
            vec!["p50".to_string(), num(sketch.p50())],
            vec!["p90".to_string(), num(sketch.percentile(90.0))],
            vec!["p95".to_string(), num(sketch.p95())],
            vec!["p99".to_string(), num(sketch.p99())],
            vec!["p99.9".to_string(), num(sketch.percentile(99.9))],
            vec!["max".to_string(), num(sketch.max())],
        ],
    ));
    sections.push(Section::Prose(
        "Sketch accuracy".to_string(),
        format!(
            "Quantiles are estimated from a log-bucketed sketch over {} successful \
             invocations with a relative error bound of {:.1}%; min and max are exact.",
            sketch.count(),
            sebs_metrics::QuantileSketch::RELATIVE_ERROR * 100.0
        ),
    ));

    let cell_rows: Vec<Vec<String>> = result
        .series
        .iter()
        .map(|s| {
            vec![
                s.index.to_string(),
                s.functions.to_string(),
                s.invocations.to_string(),
                s.cold_starts.to_string(),
                s.failures.to_string(),
                num(s.client_latency.p50()),
                num(s.client_latency.p99()),
                num(s.cost_usd),
            ]
        })
        .collect();
    sections.push(Section::Table(
        "Per-cell results".to_string(),
        [
            "cell",
            "functions",
            "invocations",
            "cold",
            "failures",
            "p50_ms",
            "p99_ms",
            "cost_usd",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        cell_rows,
    ));

    if !result.profile.is_empty() {
        let rows = result
            .profile
            .rows()
            .into_iter()
            .map(|(label, events, total_ms, mean_ms)| {
                vec![
                    label.to_string(),
                    events.to_string(),
                    num(total_ms),
                    num(mean_ms),
                ]
            })
            .collect();
        sections.push(Section::Table(
            "Phase profile (sim time)".to_string(),
            ["phase", "events", "total_ms", "mean_ms"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows,
        ));
    }

    if !result.metrics.is_empty() {
        // Counters summed across cells, in canonical key order. Every
        // chunk lists its counters in key order, so a stable sort of the
        // concatenation merges those runs and keeps equal keys in chunk
        // order; each total is summed in that order from zero.
        let mut counters: Vec<(&SeriesKey, f64)> = result
            .metrics
            .chunks()
            .iter()
            .flat_map(|chunk| chunk.counters.iter().map(|(key, value)| (&**key, *value)))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(b.0));
        let rows = counters
            .chunk_by(|a, b| a.0 == b.0)
            .map(|same_key| {
                let key = same_key[0].0;
                let total = same_key.iter().fold(0.0, |sum, (_, value)| sum + value);
                vec![key.name.clone(), label_cell(key), num(total)]
            })
            .collect();
        sections.push(Section::Table(
            "Metrics counters (fleet totals)".to_string(),
            ["counter", "labels", "total"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows,
        ));
    }

    if !result.traces.is_empty() {
        sections.push(Section::Prose(
            "Exemplar traces".to_string(),
            format!(
                "{} sampled exemplar traces ({} spans): a per-function reservoir plus the \
                 slowest and failing invocations of each cell.",
                result.traces.len(),
                result.traces.span_count()
            ),
        ));
        sections.push(Section::Verbatim(
            "Latency breakdown across exemplars".to_string(),
            breakdown_table(&result.traces),
        ));
        let mut slowest: Vec<&sebs_trace::InvocationTrace> =
            result.traces.traces().iter().collect();
        slowest.sort_by_key(|t| (std::cmp::Reverse(t.root.duration.as_nanos()), t.cell, t.seq));
        let rows = slowest
            .iter()
            .take(10)
            .map(|t| {
                vec![
                    t.benchmark.clone(),
                    t.cell.map_or("-".to_string(), |c| c.to_string()),
                    t.seq.to_string(),
                    num(t.root.duration.as_millis_f64()),
                ]
            })
            .collect();
        sections.push(Section::Table(
            "Slowest exemplars".to_string(),
            ["benchmark", "cell", "seq", "duration_ms"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows,
        ));
    }

    Report {
        title: format!("SeBS fleet report — {}", fleet.provider),
        sections,
    }
}

impl Report {
    /// Renders the report in the requested format.
    pub fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Markdown => self.render_markdown(),
            ReportFormat::Html => self.render_html(),
        }
    }

    fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        for section in &self.sections {
            out.push('\n');
            match section {
                Section::Facts(title, facts) => {
                    let _ = write!(out, "## {title}\n\n");
                    for (k, v) in facts {
                        let _ = writeln!(out, "- **{k}**: {v}");
                    }
                }
                Section::Table(title, columns, rows) => {
                    let _ = write!(out, "## {title}\n\n");
                    markdown_row(&mut out, columns);
                    out.push('|');
                    for _ in columns {
                        out.push_str(" --- |");
                    }
                    out.push('\n');
                    for row in rows {
                        markdown_row(&mut out, row);
                    }
                }
                Section::Verbatim(title, text) => {
                    let _ = write!(out, "## {title}\n\n```\n{}\n```\n", text.trim_end());
                }
                Section::Prose(title, text) => {
                    let _ = write!(out, "## {title}\n\n{text}\n");
                }
            }
        }
        out
    }

    fn render_html(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!("<h1>{}</h1>\n", escape(&self.title)));
        for section in &self.sections {
            match section {
                Section::Facts(title, facts) => {
                    body.push_str(&format!("<h2>{}</h2>\n<ul>\n", escape(title)));
                    for (k, v) in facts {
                        body.push_str(&format!("<li><b>{}</b>: {}</li>\n", escape(k), escape(v)));
                    }
                    body.push_str("</ul>\n");
                }
                Section::Table(title, columns, rows) => {
                    body.push_str(&format!("<h2>{}</h2>\n<table>\n<tr>", escape(title)));
                    for c in columns {
                        body.push_str(&format!("<th>{}</th>", escape(c)));
                    }
                    body.push_str("</tr>\n");
                    for row in rows {
                        body.push_str("<tr>");
                        for cell in row {
                            body.push_str(&format!("<td>{}</td>", escape(cell)));
                        }
                        body.push_str("</tr>\n");
                    }
                    body.push_str("</table>\n");
                }
                Section::Verbatim(title, text) => {
                    body.push_str(&format!(
                        "<h2>{}</h2>\n<pre>{}</pre>\n",
                        escape(title),
                        escape(text.trim_end())
                    ));
                }
                Section::Prose(title, text) => {
                    body.push_str(&format!(
                        "<h2>{}</h2>\n<p>{}</p>\n",
                        escape(title),
                        escape(text)
                    ));
                }
            }
        }
        format!(
            "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>{}</title>\n\
             <style>\nbody{{font-family:sans-serif;margin:2em;max-width:70em}}\n\
             table{{border-collapse:collapse;margin:1em 0}}\n\
             th,td{{border:1px solid #999;padding:0.3em 0.7em;text-align:right}}\n\
             th{{background:#eee}}\ntd:first-child,th:first-child{{text-align:left}}\n\
             pre{{background:#f6f6f6;padding:1em;overflow-x:auto}}\n</style>\n</head>\n\
             <body>\n{}</body>\n</html>\n",
            escape(&self.title),
            body
        )
    }
}

/// The `k=v,k=v` label cell of a counter row, written into one string.
fn label_cell(key: &SeriesKey) -> String {
    let len = key.labels.iter().map(|(k, v)| k.len() + v.len() + 2).sum();
    let mut cell = String::with_capacity(len);
    for (k, v) in &key.labels {
        if !cell.is_empty() {
            cell.push(',');
        }
        cell.push_str(k);
        cell.push('=');
        cell.push_str(v);
    }
    cell
}

/// Appends one markdown table row. A `|` inside a cell is escaped as
/// `\|`, so a name holding one cannot split its cell and shift the row.
fn markdown_row(out: &mut String, cells: &[String]) {
    out.push('|');
    for cell in cells {
        out.push(' ');
        for (i, part) in cell.split('|').enumerate() {
            if i > 0 {
                out.push_str("\\|");
            }
            out.push_str(part);
        }
        out.push_str(" |");
    }
    out.push('\n');
}

/// Minimal HTML escaping for text nodes.
fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_platform::ProviderKind;
    use sebs_trace::SamplerSpec;

    fn sample_report() -> (SuiteConfig, FleetConfig, FleetResult) {
        let config = SuiteConfig::fast()
            .with_seed(13)
            .with_metrics(true)
            .with_trace_sampling(SamplerSpec::fleet_default())
            .with_profile(true);
        let fleet = FleetConfig {
            provider: ProviderKind::Aws,
            functions: 30,
            target_invocations: 800,
            horizon: sebs_sim::SimDuration::from_secs(600),
            zipf_exponent: 1.1,
            cells: 4,
        };
        let model = fleet.synthetic_model(config.seed);
        let result = crate::experiments::fleet::run_fleet(&config, &fleet, &model);
        (config, fleet, result)
    }

    #[test]
    fn markdown_report_contains_every_section() {
        let (config, fleet, result) = sample_report();
        let md = fleet_report(&config, &fleet, &result).render(ReportFormat::Markdown);
        for heading in [
            "# SeBS fleet report — aws",
            "## Run configuration",
            "## Fleet summary",
            "## Client latency (sketch, ms)",
            "## Per-cell results",
            "## Phase profile (sim time)",
            "## Metrics counters (fleet totals)",
            "## Exemplar traces",
            "## Slowest exemplars",
        ] {
            assert!(md.contains(heading), "missing {heading:?}\n{md}");
        }
        assert!(md.contains("| p99 |"));
        assert!(md.contains("pool.acquire"));
    }

    #[test]
    fn html_report_is_self_contained() {
        let (config, fleet, result) = sample_report();
        let html = fleet_report(&config, &fleet, &result).render(ReportFormat::Html);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<style>"));
        assert!(html.contains("<table>"));
        assert!(html.ends_with("</html>\n"));
        assert!(!html.contains("href="), "no external assets");
    }

    #[test]
    fn report_bytes_are_jobs_invariant() {
        let (config, fleet, result) = sample_report();
        let md1 = fleet_report(&config, &fleet, &result).render(ReportFormat::Markdown);
        for jobs in [2, 8] {
            let config_j = config.clone().with_jobs(jobs);
            let model = fleet.synthetic_model(config_j.seed);
            let result_j = crate::experiments::fleet::run_fleet(&config_j, &fleet, &model);
            let md_j = fleet_report(&config_j, &fleet, &result_j).render(ReportFormat::Markdown);
            assert_eq!(md1, md_j, "report bytes differ at jobs={jobs}");
        }
    }

    #[test]
    fn integral_numbers_print_as_fixed_point_does() {
        let powers = (0..50).map(|e| 2f64.powi(e) + 1.0);
        let edges = [0.0, -0.0, 123_456_789.0, 1e15 - 1.0];
        for v in powers.chain(edges) {
            assert_eq!(num(v), format!("{v:.0}"), "{v:e}");
            assert_eq!(num(-v), format!("{:.0}", -v), "{:e}", -v);
        }
        assert_eq!(num(-0.0), "-0");
        assert_eq!(num(1e15), "1000000000000000.000");
        assert_eq!(num(0.5), "0.500");
    }

    #[test]
    fn format_parsing() {
        assert_eq!(ReportFormat::parse("md"), Some(ReportFormat::Markdown));
        assert_eq!(
            ReportFormat::parse("markdown"),
            Some(ReportFormat::Markdown)
        );
        assert_eq!(ReportFormat::parse("html"), Some(ReportFormat::Html));
        assert_eq!(ReportFormat::parse("pdf"), None);
    }

    #[test]
    fn a_pipe_in_an_imported_name_stays_inside_its_cell() {
        // `--import` takes function names verbatim from the CSV, so a name
        // may hold the markdown column separator.
        let mut csv = String::from("function,offset_ms,duration_ms,memory_mb\n");
        for i in 0..100 {
            csv.push_str(&format!(
                "a|b,{},120,256\nplain,{},80,256\n",
                i * 3000,
                i * 3000 + 700
            ));
        }
        let model = sebs_workload_gen::parse_csv(&csv, None).unwrap();
        let config = SuiteConfig::fast()
            .with_seed(13)
            .with_metrics(true)
            .with_trace_sampling(SamplerSpec::fleet_default())
            .with_profile(true);
        let fleet = FleetConfig {
            provider: ProviderKind::Aws,
            functions: model.functions.len(),
            target_invocations: 200,
            horizon: model.horizon,
            zipf_exponent: 1.1,
            cells: 2,
        };
        let result = crate::experiments::fleet::run_fleet(&config, &fleet, &model);
        let md = fleet_report(&config, &fleet, &result).render(ReportFormat::Markdown);
        assert!(md.contains("function=a\\|b"), "{md}");
        assert!(md.contains("| a\\|b |"), "{md}");
        // Every row of a table has as many column separators (unescaped
        // pipes) as its header.
        let separators = |line: &str| line.replace("\\|", "").matches('|').count();
        for table in md.split("\n\n").filter(|block| block.starts_with('|')) {
            let mut lines = table.lines();
            let header = separators(lines.next().unwrap());
            for row in lines {
                assert_eq!(separators(row), header, "{row}");
            }
        }
    }

    #[test]
    fn sections_without_observability_are_omitted() {
        let config = SuiteConfig::fast().with_seed(13);
        let fleet = FleetConfig {
            provider: ProviderKind::Aws,
            functions: 10,
            target_invocations: 200,
            horizon: sebs_sim::SimDuration::from_secs(300),
            zipf_exponent: 1.1,
            cells: 2,
        };
        let model = fleet.synthetic_model(config.seed);
        let result = crate::experiments::fleet::run_fleet(&config, &fleet, &model);
        let md = fleet_report(&config, &fleet, &result).render(ReportFormat::Markdown);
        assert!(!md.contains("## Phase profile"));
        assert!(!md.contains("## Exemplar traces"));
        assert!(md.contains("## Fleet summary"));
    }
}
