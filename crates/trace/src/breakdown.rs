//! The plain-text latency-breakdown table: p50/p95/p99 per phase.

use std::collections::BTreeMap;

use sebs_metrics::{Histogram, TextTable};

use crate::sink::TraceSink;

/// Collects every span's duration (ms) into one histogram per phase name.
///
/// The map is a `BTreeMap`, so iteration — and therefore the rendered
/// table — is alphabetical and deterministic.
pub fn phase_histograms(sink: &TraceSink) -> BTreeMap<&str, Histogram> {
    let mut phases: BTreeMap<&str, Histogram> = BTreeMap::new();
    for trace in sink.traces() {
        trace.root.walk(&mut |span, _| {
            phases
                .entry(span.name.as_str())
                .or_default()
                .push(span.duration.as_millis_f64());
        });
    }
    phases
}

/// Renders the latency-breakdown table: one row per phase with sample
/// count, p50/p95/p99, mean and cumulative time, in alphabetical phase
/// order. Byte-identical for identically ordered sinks.
pub fn breakdown_table(sink: &TraceSink) -> String {
    let mut table = TextTable::new(vec![
        "Phase",
        "Count",
        "p50 [ms]",
        "p95 [ms]",
        "p99 [ms]",
        "Mean [ms]",
        "Total [ms]",
    ]);
    for (name, hist) in phase_histograms(sink) {
        let [p50, p95, p99] = hist.percentiles([50.0, 95.0, 99.0]);
        table.row(vec![
            name.to_string(),
            hist.len().to_string(),
            fmt_ms(p50),
            fmt_ms(p95),
            fmt_ms(p99),
            fmt_ms(hist.mean()),
            fmt_ms(hist.sum()),
        ]);
    }
    format!(
        "Latency breakdown over {} invocations ({} spans)\n{table}",
        sink.len(),
        sink.span_count()
    )
}

fn fmt_ms(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::InvocationTrace;
    use crate::span::TraceSpan;
    use sebs_sim::{SimDuration, SimTime};

    fn sink() -> TraceSink {
        let mut s = TraceSink::new();
        for (seq, exec_ms) in [(0u64, 10u64), (1, 20), (2, 30)] {
            let mut root =
                TraceSpan::new("invocation", SimTime::ZERO, SimDuration::from_millis(100));
            root.push_child(TraceSpan::new(
                "execute",
                SimTime::ZERO,
                SimDuration::from_millis(exec_ms),
            ));
            s.push(InvocationTrace {
                provider: "aws".into(),
                benchmark: "b".into(),
                memory_mb: 128,
                cell: None,
                seq,
                root,
            });
        }
        s
    }

    #[test]
    fn histograms_group_by_phase() {
        let sink = sink();
        let phases = phase_histograms(&sink);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases["invocation"].len(), 3);
        assert_eq!(phases["execute"].p50(), 20.0);
        assert_eq!(phases["execute"].p99(), 30.0);
    }

    #[test]
    fn table_renders_all_phases() {
        let text = breakdown_table(&sink());
        assert!(text.contains("3 invocations"));
        assert!(text.contains("6 spans"));
        assert!(text.contains("execute"));
        assert!(text.contains("invocation"));
        assert!(text.contains("20.000"), "execute p50: {text}");
        // Alphabetical: the execute row precedes the invocation row.
        assert!(text.find("| execute").unwrap() < text.find("| invocation").unwrap());
    }

    #[test]
    fn table_is_deterministic_and_handles_empty() {
        let s = sink();
        assert_eq!(breakdown_table(&s), breakdown_table(&s));
        let empty = breakdown_table(&TraceSink::new());
        assert!(empty.contains("0 invocations"));
    }
}
