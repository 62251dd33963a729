//! Times the `sebs-audit` analysis engine over the real workspace and
//! reports throughput: source lines lexed, parsed and lexically checked per
//! second, and graph symbols built + flow-checked per second.
//!
//! Like the other bench binaries this is a plain timed loop, no criterion.
//! Knobs: `SEBS_BENCH_REPS` (default 5) and `SEBS_BENCH_WARMUP`
//! (default 1) — the audit walks the whole tree each rep, so the defaults
//! stay modest.

use std::path::Path;

use sebs_bench::{env_usize, sample};

fn main() {
    sebs_bench::timed("audit_throughput", run);
}

fn run() {
    let root = sebs_audit::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
    // A median needs at least one timed pass.
    let reps = env_usize("SEBS_BENCH_REPS", 5).max(1);
    let warmup = env_usize("SEBS_BENCH_WARMUP", 1);
    let samples = sample(reps, warmup, || {
        let report = std::hint::black_box(sebs_audit::audit_workspace(&root))
            .expect("workspace is readable");
        (report.lines_scanned, report.symbol_count)
    });
    let (median, (lines, symbols)) = samples[samples.len() / 2];
    let secs = median.as_secs_f64().max(1e-9);

    println!("== audit engine throughput (median of {reps} reps) ==");
    println!("full audit pass                      {median:>12.3?}");
    println!(
        "lines scanned   {lines:>8}  ->  {:>12.0} lines/s",
        lines as f64 / secs
    );
    println!(
        "graph symbols   {symbols:>8}  ->  {:>12.0} symbols/s",
        symbols as f64 / secs
    );
}
