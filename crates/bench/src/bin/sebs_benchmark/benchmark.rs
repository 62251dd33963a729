//! `sebs_benchmark` — the repository benchmark.
//!
//! It replays four fixed workloads through their public entry points
//! (`run_fleet`, `fleet_report`, `run_cluster`, `run_perf_cost_grid`).
//! For each, it reports host-time end-to-end metrics, checks the outputs
//! are correct, and then runs a separate traced pass that times every
//! layer from outside. The load is an offline trace replay with simulated
//! arrival times, so the end-to-end metric is simulated requests completed
//! per host second at a fixed trace size, not latency at an arrival rate.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/sebs_benchmark/Cargo.toml -- \
//!     [--seed 2021] [--seconds 30] [--out DIR] [--smoke]
//! ... -- --workload NAME --seed N --seconds S --trace 0|1 [--out DIR] [--smoke]
//! ... -- compare A/summary.json B/summary.json [--spec BENCHMARK.json]
//! ```
//!
//! Without `--workload`, every workload runs twice, in child processes of
//! its own: untraced (`--trace 0`), then traced (`--trace 1`). The
//! results merge into `DIR/summary.json`, the input of `compare`. With
//! `--workload`, one process runs one workload and prints, as its last
//! stdout line, `{"correct", "attempted", "failed", "metrics"}`. The
//! metrics are the end-to-end ones with `--trace 0` and the per-layer ones
//! with `--trace 1`.
//!
//! **Untraced run.** One untimed warm-up repetition at one worker gives
//! the reference output. Then repetitions alternate between two
//! workers (`requests_per_s`) and one worker (`requests_per_s_1t`) until
//! `--seconds` is spent. A one-worker repetition takes 0.2–0.6 s, so a
//! run holds dozens of them. The set-up (model or grid construction) is
//! rebuilt and timed between repetitions. Each repetition's rate and each
//! set-up time is scaled to a reference host speed by a probe timed around
//! it (see [`speed`]), and a metric is the median of its scaled values,
//! with quartiles alongside. `peak_rss_mb` is the process's `VmHWM` right
//! after the warm-up. Worker threads never exceed 2, or `nproc` when that
//! is smaller.
//!
//! **Workloads** (all on AWS):
//! * `fleet-dense` — Azure-2019 fleet, 1,000 functions, ~3.7×10⁵
//!   invocations over 40 min, 16 cells, observability off. The warm path
//!   of `FaasPlatform::invoke`, serial trace generation and the skewed cell
//!   runner. Pool, cold-start and kernel changes should not move it.
//! * `fleet-observed` — the same shape at ~5.6×10⁴ invocations over
//!   30 min with metrics every 60 s, sampled traces, the phase profiler and
//!   the rendered `sebs report`. It is dominated by the telemetry and trace
//!   hooks, so a change that speeds the plain path but slows the hooks
//!   shows up here.
//! * `cluster-chaos` — the default cluster sweep: 27 cells of 3 schedulers
//!   × 3 keep-alive policies × host-fault rates {0, 0.15, 0.4} on 8 hosts
//!   × 4 CPUs with `backoff(3)` retries, 200 functions, ~5.7×10³ chains
//!   per cell over 30 min. This is where the pool, cold-start, keep-alive,
//!   scheduler and retry layers work.
//! * `suite-kernels` — Perf-Cost over the 10 Python benchmarks × {aws,
//!   gcp} × 1024 MB, `Scale::Test`, a fixed 20 cold and 20 warm samples
//!   per series, ~900 samples. It is the only workload where kernel and
//!   storage work dominate, so platform changes should not move it.
//!
//! **Checks** (each failure counts in `failed`). Every repetition's output
//! is byte-identical to the reference, whatever the worker count: the
//! `ResultStore` JSON, or the report for fleet-observed. Per cell,
//! cold + warm = invocations (fleet) or served attempts (cluster), and
//! attempts ≥ chains ≥ successes. Per sample, benchmark ≤ provider ≤
//! client time. The traced mirror reproduces the untraced result
//! bit-for-bit. Every suite cell's first decorated burst equals
//! `Suite::invoke_burst` on a twin suite.
//!
//! **Traced run.** See [`traced`] for the mirrors and [`spans`] for the
//! recorder. The README in this directory maps each per-layer metric to
//! the end-to-end metric it should move.

mod compare;
mod spans;
mod speed;
mod stats;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use sebs::SuiteConfig;
use sebs_metrics::Json;

use spans::{now_ns, Recorder};
use speed::SpeedProbe;
use stats::Spread;
use workloads::{Checks, Kind, Output, Setup};

/// End-to-end metrics and their units, as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 4] = [
    ("requests_per_s", "req/s"),
    ("requests_per_s_1t", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, as listed in `BENCHMARK.json`. A
/// layer a workload never calls reads 0.
const PER_LAYER: [(&str, &str); 54] = [
    ("workload-gen.generate_ms", "ms"),
    ("platform.invoke_self_ns_p50", "ns"),
    ("platform.invoke_self_ns_tail", "ns"),
    ("platform.invoke_calls", "count"),
    ("platform.invoke_ms", "ms"),
    ("platform.advance_ms", "ms"),
    ("platform.observe_pool_ms", "ms"),
    ("platform.deploy_ms", "ms"),
    ("platform.take_metrics_ms", "ms"),
    ("platform.take_traces_ms", "ms"),
    ("workloads.execute_ns_p50", "ns"),
    ("workloads.execute_ns_tail", "ns"),
    ("workloads.execute_calls", "count"),
    ("workloads.execute_ms", "ms"),
    ("workloads.dynamic-html.execute_us_p50", "us"),
    ("workloads.uploader.execute_us_p50", "us"),
    ("workloads.thumbnailer.execute_us_p50", "us"),
    ("workloads.video-processing.execute_us_p50", "us"),
    ("workloads.compression.execute_us_p50", "us"),
    ("workloads.data-vis.execute_us_p50", "us"),
    ("workloads.image-recognition.execute_us_p50", "us"),
    ("workloads.graph-pagerank.execute_us_p50", "us"),
    ("workloads.graph-mst.execute_us_p50", "us"),
    ("workloads.graph-bfs.execute_us_p50", "us"),
    ("storage.requests", "count"),
    ("storage.bytes", "bytes"),
    ("storage.prepare_ms", "ms"),
    ("core.runner.max_cell_share", "fraction"),
    ("telemetry.invoke_overhead_ns", "ns"),
    ("telemetry.merge_ms", "ms"),
    ("trace.merge_ms", "ms"),
    ("core.report.render_ms", "ms"),
    ("trace.kept", "count"),
    ("telemetry.series", "count"),
    ("cluster.invoke_resilient_self_ns_p50", "ns"),
    ("cluster.invoke_resilient_self_ns_tail", "ns"),
    ("cluster.invoke_resilient_calls", "count"),
    ("cluster.invoke_resilient_ms", "ms"),
    ("cluster.advance_ms", "ms"),
    ("cluster.sync_clocks_ms", "ms"),
    ("cluster.observe_pool_ms", "ms"),
    ("cluster.deploy_ms", "ms"),
    ("resilience.attempts_per_chain", "attempts/chain"),
    ("cluster.failover_hops", "count"),
    ("cluster.shed", "count"),
    ("cluster.crashes", "count"),
    ("metrics.export_ms", "ms"),
    ("sim.requests", "count"),
    ("sim.cold_starts", "count"),
    ("sim.failures", "count"),
    ("sim.p99_ms", "ms"),
    ("sim.cost_usd", "USD"),
    ("traced.requests_per_s", "req/s"),
    ("trace_overhead_pct", "%"),
];

/// After each pair of repetitions the set-up is rebuilt and timed for
/// about this long (at least once, at most [`MAX_SETUPS_PER_SLICE`]
/// times), so the `setup_s` median spans the whole run rather than its
/// first moments.
const SETUP_SLICE_NS: u64 = 10_000_000;
const MAX_SETUPS_PER_SLICE: usize = 1000;

/// Timed repetitions per worker count never drop below this.
const MIN_REPS: usize = 3;

/// Command-line options.
struct Opts {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            workload: None,
            seed: 2021,
            seconds: 30.0,
            trace: false,
            out: PathBuf::from("sebs_benchmark_out"),
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                opts.smoke = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    opts.workload =
                        Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => opts.seed = value.parse().map_err(bad)?,
                "--seconds" => {
                    opts.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or(format!("bad value for --seconds: {value}"))?
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                "--out" => opts.out = PathBuf::from(value),
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        Ok(opts)
    }

    fn budget_ns(&self) -> u64 {
        (self.seconds * 1e9) as u64
    }
}

/// One reported metric: its value and the spread of the repetitions it
/// was taken from.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    spread: Spread,
}

/// What one workload process measured.
struct Outcome {
    checks: Checks,
    metrics: Vec<Metric>,
    /// The host's slowdown against the reference around each repetition.
    slowdown: Option<Spread>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return exit(compare::run(&args[1..]));
    }
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("sebs_benchmark: {e}");
            return exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("sebs_benchmark: cannot create {}: {e}", opts.out.display());
        return exit(2);
    }
    match opts.workload {
        Some(kind) => {
            let outcome = run_workload(kind, &opts);
            write_detail(kind, &opts, &outcome);
            for m in &outcome.metrics {
                let s = m.spread;
                println!(
                    "{}: {} = {} {} (median {}, p25 {}, p75 {}, max {}, n = {})",
                    kind.name(),
                    m.name,
                    m.value,
                    m.unit,
                    s.median,
                    s.p25,
                    s.p75,
                    s.max,
                    s.n
                );
            }
            if let Some(s) = outcome.slowdown {
                println!(
                    "{}: host slowdown against the reference (median {}, p25 {}, p75 {}, n = {})",
                    kind.name(),
                    s.median,
                    s.p25,
                    s.p75,
                    s.n
                );
            }
            println!("{}", result_line(&outcome));
            exit(0)
        }
        None => exit(run_all(&opts)),
    }
}

fn exit(code: i32) -> ExitCode {
    ExitCode::from(u8::try_from(code).unwrap_or(1))
}

/// Worker threads for the parallel repetitions: 2, or fewer cores.
fn max_jobs() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc, nproc.min(2))
}

/// `VmHWM` (peak resident set) of this process in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A metric read once.
fn single(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        spread: Spread {
            median: value,
            p25: value,
            p75: value,
            max: value,
            n: 1,
        },
    }
}

/// Runs one workload in this process: the untraced measurement, or with
/// `--trace 1` the traced pass.
fn run_workload(kind: Kind, opts: &Opts) -> Outcome {
    let (nproc, jobs) = max_jobs();
    println!(
        "{}: seed {}, nproc {nproc}, up to {jobs} workers, {} s budget{}",
        kind.name(),
        opts.seed,
        opts.seconds,
        if opts.smoke { ", smoke sizes" } else { "" }
    );
    let mut checks = Checks::default();
    let setup = workloads::setup(kind, opts.seed, opts.smoke);

    // The warm-up repetition is the reference every other output must
    // match. The peak resident set is read right after it: it runs at one
    // worker, so the peak does not depend on how two workers' cells overlap.
    let (_, reference) = setup.rep(1);
    let rss = peak_rss_mb();
    reference.check(&mut checks);
    let canonical = reference.canonical();

    // Every rate and set-up time is scaled to the reference host speed by
    // the probe readings around it (see `speed`).
    let mut speed = SpeedProbe::new();
    let mut slowdowns = Vec::new();
    let mut setup_s = Vec::new();
    let min_reps = if opts.smoke { 1 } else { MIN_REPS };
    let worker_counts: &[usize] = if opts.trace { &[1] } else { &[jobs, 1] };
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); worker_counts.len()];
    let measure = now_ns();
    loop {
        for (&j, rates) in worker_counts.iter().zip(&mut rates) {
            let (ns, out) = setup.rep(j);
            let slowdown = speed.slowdown();
            slowdowns.push(slowdown);
            rates.push(out.requests() as f64 / (ns.max(1) as f64 / 1e9) * slowdown);
            out.check(&mut checks);
            checks.expect(out.canonical() == canonical, || {
                format!(
                    "{}: output at {j} worker(s) differs from the reference",
                    kind.name()
                )
            });
        }
        if !opts.trace {
            let mut slice_ns = Vec::new();
            let slice = now_ns();
            for _ in 0..MAX_SETUPS_PER_SLICE {
                let start = now_ns();
                let built = workloads::setup(kind, opts.seed, opts.smoke);
                slice_ns.push(now_ns().saturating_sub(start));
                drop(built);
                if now_ns().saturating_sub(slice) >= SETUP_SLICE_NS {
                    break;
                }
            }
            let slowdown = speed.slowdown();
            setup_s.extend(slice_ns.iter().map(|&ns| ns as f64 / 1e9 / slowdown));
        }
        let done = rates[0].len();
        let spent = now_ns().saturating_sub(measure);
        if done >= min_reps && spent + spent / done as u64 > opts.budget_ns() {
            break;
        }
    }

    // Every metric is the median of its scaled repetitions: the scaling
    // removes most of the neighbours' load, and the median what is left.
    let median = |values: &[f64]| Spread::of(values).map(|s| (s.median, s));
    let metrics = if opts.trace {
        let untraced = median(&rates[0]).map_or(0.0, |(v, _)| v);
        traced_metrics(
            kind,
            &setup,
            &reference,
            untraced,
            &mut speed,
            opts,
            &mut checks,
        )
    } else {
        checks.expect(rss.is_some(), || "VmHWM is unreadable".into());
        let measured = [
            median(&rates[0]),
            median(&rates[1]),
            median(&setup_s),
            rss.and_then(|v| Spread::of(&[v])).map(|s| (s.median, s)),
        ];
        END_TO_END
            .iter()
            .zip(measured)
            .filter_map(|((name, unit), m)| {
                m.map(|(value, spread)| Metric {
                    name: name.to_string(),
                    unit,
                    value,
                    spread,
                })
            })
            .collect()
    };
    for m in &metrics {
        checks.expect(m.value.is_finite(), || format!("{} is not finite", m.name));
    }
    Outcome {
        checks,
        metrics,
        slowdown: Spread::of(&slowdowns),
    }
}

/// The traced pass and the per-layer metrics derived from it.
fn traced_metrics(
    kind: Kind,
    setup: &Setup,
    reference: &Output,
    untraced_rate: f64,
    speed: &mut SpeedProbe,
    opts: &Opts,
    checks: &mut Checks,
) -> Vec<Metric> {
    let rec = Recorder::new();
    let pass = traced::run(setup, &rec, checks);
    let slowdown = speed.slowdown();
    checks.expect(pass.output == *reference, || {
        format!("{}: the traced mirror changed the result", kind.name())
    });

    // Hooks-on minus hooks-off needs the same trace replayed with
    // observability off; that replay must match the observed one.
    let plain = match setup {
        Setup::Fleet {
            config,
            fleet,
            model,
            report: true,
        } => {
            let plain_setup = Setup::Fleet {
                config: SuiteConfig::default().with_seed(config.seed),
                fleet: fleet.clone(),
                model: model.clone(),
                report: false,
            };
            let plain_rec = Recorder::new();
            let plain_pass = traced::run(&plain_setup, &plain_rec, checks);
            let same_series = match (&plain_pass.output, reference) {
                (Output::Fleet { result: a, .. }, Output::Fleet { result: b, .. }) => {
                    a.series == b.series
                }
                _ => false,
            };
            checks.expect(same_series, || {
                "observability changed the fleet results".to_string()
            });
            Some(plain_rec)
        }
        _ => None,
    };

    let mut values = traced::layer_metrics(&rec, plain.as_ref(), &pass, reference);
    // Scaled to the reference host speed, like the untraced rate.
    let traced_rate = values.get("traced.requests_per_s").copied().unwrap_or(0.0) * slowdown;
    values.insert("traced.requests_per_s".into(), traced_rate);
    values.insert(
        "trace_overhead_pct".into(),
        if traced_rate > 0.0 {
            (untraced_rate / traced_rate - 1.0) * 100.0
        } else {
            0.0
        },
    );

    let path = opts.out.join(format!("{}.trace.json", kind.name()));
    if let Err(e) = std::fs::write(&path, rec.raw_json().to_string_pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
    }

    for name in values.keys() {
        checks.expect(PER_LAYER.iter().any(|(n, _)| n == name), || {
            format!("per-layer metric {name} is not declared")
        });
    }
    PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = values.get(*name).copied();
            checks.expect(value.is_some(), || {
                format!("per-layer metric {name} was not measured")
            });
            single(name, unit, value.unwrap_or(0.0))
        })
        .collect()
}

/// A number as JSON: shortest round-trip digits; non-finite as 0 (the
/// finiteness check has already failed the run).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The single-line result the benchmark prints last.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.failed == 0 && outcome.checks.attempted > 0,
        outcome.checks.attempted.max(1),
        outcome.checks.failed,
        metrics.join(", ")
    )
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| {
                let s = m.spread;
                (
                    m.name.clone(),
                    Json::Object(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                        ("median".into(), Json::Num(s.median)),
                        ("p25".into(), Json::Num(s.p25)),
                        ("p75".into(), Json::Num(s.p75)),
                        ("max".into(), Json::Num(s.max)),
                        ("n".into(), Json::Num(s.n as f64)),
                    ]),
                )
            })
            .collect(),
    )
}

fn detail_path(out: &Path, kind: Kind, trace: bool) -> PathBuf {
    let part = if trace { "layers" } else { "e2e" };
    out.join(format!("{}.{part}.json", kind.name()))
}

/// Writes the workload's full result (with quartiles) for `run_all`.
fn write_detail(kind: Kind, opts: &Opts, outcome: &Outcome) {
    let (nproc, jobs) = max_jobs();
    let doc = Json::Object(vec![
        ("workload".into(), Json::Str(kind.name().into())),
        ("seed".into(), Json::Num(opts.seed as f64)),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("jobs".into(), Json::Num(jobs as f64)),
        (
            "attempted".into(),
            Json::Num(outcome.checks.attempted as f64),
        ),
        ("failed".into(), Json::Num(outcome.checks.failed as f64)),
        (
            "host_slowdown".into(),
            outcome.slowdown.map_or(Json::Null, |s| Json::Num(s.median)),
        ),
        ("metrics".into(), metrics_json(&outcome.metrics)),
    ]);
    let path = detail_path(&opts.out, kind, opts.trace);
    if let Err(e) = std::fs::write(&path, doc.to_string_pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// Runs every workload untraced and traced, each in a child process, and
/// merges the results into `DIR/summary.json`.
fn run_all(opts: &Opts) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("sebs_benchmark: cannot locate this executable: {e}");
            return 2;
        }
    };
    let (nproc, jobs) = max_jobs();
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for kind in Kind::ALL {
        let mut merged = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", kind.name()])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&opts.out)
                .stdin(Stdio::null());
            if opts.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status();
            let detail = std::fs::read_to_string(detail_path(&opts.out, kind, trace))
                .ok()
                .and_then(|t| Json::parse(&t).ok());
            let (Ok(status), Some(detail)) = (status, detail) else {
                eprintln!("{}: the child process produced no result", kind.name());
                return 1;
            };
            if !status.success() {
                eprintln!("{}: the child process failed ({status})", kind.name());
                return 1;
            }
            let field = |k: &str| detail.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            attempted += field("attempted");
            failed += field("failed");
            let group = if trace { "per_layer" } else { "metrics" };
            merged.push((
                group.to_string(),
                detail.get("metrics").cloned().unwrap_or(Json::Null),
            ));
        }
        let correct = failed == 0.0 && attempted > 0.0;
        all_correct &= correct;
        let mut entry = vec![
            ("correct".to_string(), Json::Bool(correct)),
            ("attempted".to_string(), Json::Num(attempted)),
            ("failed".to_string(), Json::Num(failed)),
        ];
        entry.extend(merged);
        workloads.push((kind.name().to_string(), Json::Object(entry)));
    }
    let summary = Json::Object(vec![
        ("seed".into(), Json::Num(opts.seed as f64)),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("jobs".into(), Json::Num(jobs as f64)),
        ("seconds".into(), Json::Num(opts.seconds)),
        ("workloads".into(), Json::Object(workloads)),
    ]);
    let path = opts.out.join("summary.json");
    if let Err(e) = std::fs::write(&path, summary.to_string_pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
        return 2;
    }
    println!(
        "wrote {} ({})",
        path.display(),
        if all_correct {
            "every check passed"
        } else {
            "CHECKS FAILED"
        }
    );
    i32::from(!all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn spec() -> Json {
        Json::parse(include_str!("../../../../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
    fn declared(list: &str) -> Vec<(String, String)> {
        spec()
            .get(list)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_prints() {
        let workloads: Vec<String> = spec()
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(workloads, ours);
        let pairs = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
        assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
        for bench in workloads::BENCHES {
            let name = format!("workloads.{bench}.execute_us_p50");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }

    #[test]
    fn smoke_runs_every_workload_with_valid_output() {
        let opts = |trace| Opts {
            workload: None,
            seed: 7,
            seconds: 0.0,
            trace,
            out: std::env::temp_dir().join(format!("sebs_benchmark_smoke_{}", std::process::id())),
            smoke: true,
        };
        std::fs::create_dir_all(opts(false).out).expect("temp dir");
        for kind in Kind::ALL {
            for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let outcome = run_workload(kind, &opts(trace));
                let line = result_line(&outcome);
                let doc = Json::parse(&line).expect("the result line is JSON");
                assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{line}");
                assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
                assert!(doc.get("attempted").and_then(Json::as_f64) >= Some(1.0));
                let Some(Json::Object(metrics)) = doc.get("metrics") else {
                    panic!("no metrics object: {line}");
                };
                let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
                let expected: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
                assert_eq!(names, expected, "{} trace={trace}", kind.name());
                for (name, m) in metrics {
                    assert!(valid_name(name), "{name}");
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    assert!(valid_unit(unit), "{name}: unit {unit:?}");
                    assert!(m
                        .get("value")
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite));
                }
            }
        }
        let _ = std::fs::remove_dir_all(opts(false).out);
    }
}
