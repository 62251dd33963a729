//! The `sebs` command-line tool — the counterpart of the SeBS toolkit's
//! CLI (paper §5.2): list benchmarks, deploy-and-invoke them on a chosen
//! (simulated) provider, and run the paper's experiments.
//!
//! ```text
//! sebs list
//! sebs invoke <benchmark> [--provider aws|azure|gcp] [--memory MB]
//!             [--language python|nodejs] [--scale test|small|large]
//!             [--repetitions N] [--cold] [--trigger http|sdk|event|timer]
//! sebs experiment <local|perf-cost|eviction-model|invocation-overhead>
//!             [--provider ...] [--samples N] [--seed N]
//! ```

use std::process::ExitCode;

use sebs::experiments::{
    run_availability, run_cluster, run_eviction_model, run_fleet, run_invocation_overhead,
    run_local_characterization, run_perf_cost_grid, ClusterSweepConfig, EvictionExperimentConfig,
    FleetConfig, LabeledPolicy,
};
use sebs::runner::available_jobs;
use sebs::{fleet_report, ExperimentGrid, ParallelRunner, ReportFormat, Suite, SuiteConfig};
use sebs_cluster::{KeepAliveKind, SchedulerKind};
use sebs_metrics::TextTable;
use sebs_platform::{
    FaasPlatform, FunctionConfig, ProviderKind, ProviderProfile, StartKind, TriggerKind,
};
use sebs_resilience::{FaultPlan, RetryPolicy};
use sebs_sim::SimDuration;
use sebs_telemetry::{csv_timeseries, prometheus_text, MetricsSink};
use sebs_trace::{breakdown_table, chrome_trace_json, SamplerSpec, TraceSink};
use sebs_workload_gen::TraceModel;
use sebs_workloads::{all_workloads, Language, Scale};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Options::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "list" => cmd_list(),
        "invoke" => cmd_invoke(&opts),
        "experiment" => cmd_experiment(&opts),
        "availability" => cmd_availability(&opts),
        "cluster" => cmd_cluster(&opts),
        "fleet" => cmd_fleet(&opts),
        "report" => cmd_report(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "sebs — serverless benchmark suite (simulated clouds)

USAGE:
    sebs list
    sebs invoke <benchmark> [--provider aws|azure|gcp] [--memory MB]
                [--language python|nodejs] [--scale test|small|large]
                [--repetitions N] [--cold] [--trigger http|sdk|event|timer]
    sebs experiment <local|perf-cost|eviction-model|invocation-overhead>
                [--provider P] [--samples N] [--seed N] [--scale S]
                [--jobs N]                    (worker threads; default: all cores;
                                               results are identical for any N)
                [--csv FILE] [--json FILE]    (perf-cost only)
    sebs availability <benchmark> [--provider P] [--memory MB] [--samples N]
                [--fault-rates R1,R2,...]     (sandbox-crash rates to sweep;
                                               default 0,0.05,0.25)
                [--faults SPEC] [--retry SPEC] [--jobs N] [--seed N]
                [--csv FILE] [--json FILE] [--trace FILE] [--metrics FILE]
    sebs cluster [--provider P] [--hosts N] [--cpus N] [--queue N]
                [--contention F]              (per-co-located-invocation I/O
                                               inflation; 0 disables)
                [--schedulers S1,S2,...]      (least-loaded, random-<k>,
                                               locality; default all three)
                [--keepalives K1,K2,...]      (provider, fixed-<secs>, hybrid;
                                               default all three)
                [--host-fault-rates R1,...]   (host-crash intensities;
                                               default 0,0.15,0.4)
                [--functions N] [--invocations N] [--horizon-secs S]
                [--zipf EXP] [--retry SPEC]   (same keys as invoke; default
                                               attempts=3)
                [--jobs N] [--seed N]
                [--csv FILE] [--json FILE] [--trace FILE] [--trace-format F]
                Sweeps scheduler x keep-alive x host-fault intensity on a
                multi-host region: cold-start rate vs wasted warm GB-s
                (the SitW Pareto frontier), availability, goodput and
                cost per extra nine. Byte-identical for any --jobs.
    sebs fleet  [--provider P] [--functions N] [--invocations N]
                [--horizon-secs S] [--zipf EXP] [--cells N]
                [--import FILE]               (replay an external trace CSV —
                                               `function,offset_ms[,duration_ms
                                               [,memory_mb]]`; missing file
                                               falls back to the synthetic
                                               Azure-2019-shaped fleet)
                [--metrics-interval-secs S]   (gauge sampling cadence;
                                               default 60 at fleet scale)
                [--jobs N] [--seed N] [--csv FILE] [--json FILE]
                [--trace FILE] [--trace-format F] [--metrics FILE]
                [--metrics-format F]
    sebs report [fleet flags as above]
                [--out FILE]                  (write the report; default:
                                               stdout)
                [--format md|html]            (markdown default; html is a
                                               single self-contained page)
                Runs the fleet replay with bounded observability always on
                (sketch percentiles, sampled exemplar traces, phase
                profile, metrics) and renders one report document.
                Byte-identical for any --jobs.

    invoke also accepts deterministic chaos knobs:
                [--faults SPEC]               (seeded fault plan, e.g.
                                               crash=0.05,storage=0.02,stall=2.5,
                                               corrupt=0.01,outage=10..20@1.0,
                                               storm=5..15@0.8; an empty spec
                                               is bit-identical to no faults)
                [--retry SPEC]                (client retry policy, e.g.
                                               attempts=3,base=50,cap=800,
                                               jitter=0.5,budget=100,
                                               deadline=10000,hedge=0.95,
                                               breaker=5@30000)

    perf-cost accepts several benchmarks (`sebs experiment perf-cost a b c`),
    a comma-separated memory list (`--memory 128,512,1024`) and
    `--provider all`; the grid cells run in parallel across --jobs threads.

    invoke and `experiment perf-cost` also accept:
                [--trace FILE]                (write per-invocation traces;
                                               byte-identical for any --jobs)
                [--trace-format chrome|table] (chrome: trace_event JSON for
                                               Perfetto/chrome://tracing;
                                               table: latency breakdown with
                                               p50/p95/p99 per phase)
                [--metrics FILE]              (write fleet-wide sim-time
                                               metrics; byte-identical for
                                               any --jobs and never changes
                                               benchmark results)
                [--metrics-format prom|csv]   (prom: Prometheus text
                                               snapshot; csv: sampled
                                               time series)";

#[derive(Debug, Clone)]
struct Options {
    positional: Vec<String>,
    /// First provider — the single-provider commands use this.
    provider: ProviderKind,
    /// Full provider list (`--provider all` expands to all three).
    providers: Vec<ProviderKind>,
    /// First memory size — the single-config commands use this.
    memory: u32,
    /// Full memory list (`--memory` accepts a comma-separated list).
    memories: Vec<u32>,
    language: Language,
    scale: Scale,
    repetitions: usize,
    cold: bool,
    trigger: TriggerKind,
    samples: usize,
    seed: u64,
    jobs: usize,
    csv: Option<String>,
    json: Option<String>,
    trace: Option<String>,
    trace_format: TraceFormat,
    metrics: Option<String>,
    metrics_format: MetricsFormat,
    faults: FaultPlan,
    /// Set only by `--retry`: commands with their own default policy
    /// fall back to it when this is `None`.
    retry: Option<RetryPolicy>,
    fault_rates: Vec<f64>,
    functions: usize,
    invocations: u64,
    horizon: SimDuration,
    zipf: f64,
    cells: usize,
    import: Option<String>,
    metrics_interval: SimDuration,
    out: Option<String>,
    report_format: ReportFormat,
    hosts: u32,
    host_cpus: u32,
    queue_depth: u32,
    contention: f64,
    schedulers: Vec<SchedulerKind>,
    keepalives: Vec<KeepAliveKind>,
    host_fault_rates: Vec<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Chrome,
    Table,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Prom,
    Csv,
}

/// The `--horizon-secs` default. `sebs cluster` swaps in its sweep's own
/// horizon while the flag is left at it.
const DEFAULT_HORIZON: SimDuration = SimDuration::from_secs(7200);

/// Parses a whole number of seconds (0 counts as 1) for `flag`, refusing
/// counts the simulator clock cannot hold rather than letting them wrap.
fn parse_secs(flag: &str, raw: &str) -> Result<SimDuration, String> {
    let secs = raw
        .parse::<u64>()
        .map_err(|e| format!("bad {flag}: {e}"))?
        .max(1);
    SimDuration::checked_from_secs(secs).ok_or_else(|| {
        format!(
            "bad {flag}: {secs} s does not fit the simulator clock (at most {} s)",
            u64::MAX / 1_000_000_000
        )
    })
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            positional: Vec::new(),
            provider: ProviderKind::Aws,
            providers: vec![ProviderKind::Aws],
            memory: 512,
            memories: vec![512],
            language: Language::Python,
            scale: Scale::Test,
            repetitions: 1,
            cold: false,
            trigger: TriggerKind::Http,
            samples: 30,
            seed: 2021,
            jobs: available_jobs(),
            csv: None,
            json: None,
            trace: None,
            trace_format: TraceFormat::Chrome,
            metrics: None,
            metrics_format: MetricsFormat::Prom,
            faults: FaultPlan::empty(),
            retry: None,
            fault_rates: vec![0.0, 0.05, 0.25],
            functions: 1000,
            invocations: 100_000,
            horizon: DEFAULT_HORIZON,
            zipf: 1.1,
            cells: 16,
            import: None,
            metrics_interval: SimDuration::from_secs(60),
            out: None,
            report_format: ReportFormat::Markdown,
            hosts: 8,
            host_cpus: 4,
            queue_depth: 8,
            contention: 0.03,
            schedulers: vec![
                SchedulerKind::LeastLoaded,
                SchedulerKind::RandomK(2),
                SchedulerKind::Locality,
            ],
            keepalives: vec![
                KeepAliveKind::Provider,
                KeepAliveKind::Fixed(600),
                KeepAliveKind::Hybrid,
            ],
            host_fault_rates: vec![0.0, 0.15, 0.4],
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--provider" => {
                    o.providers = match value("--provider")?.as_str() {
                        "aws" => vec![ProviderKind::Aws],
                        "azure" => vec![ProviderKind::Azure],
                        "gcp" => vec![ProviderKind::Gcp],
                        "all" => vec![ProviderKind::Aws, ProviderKind::Azure, ProviderKind::Gcp],
                        p => return Err(format!("unknown provider `{p}`")),
                    };
                    o.provider = o.providers[0];
                }
                "--memory" => {
                    let list = value("--memory")?;
                    o.memories = list
                        .split(',')
                        .map(|m| m.trim().parse())
                        .collect::<Result<Vec<u32>, _>>()
                        .map_err(|e| format!("bad --memory: {e}"))?;
                    o.memory = *o
                        .memories
                        .first()
                        .ok_or_else(|| "bad --memory: empty list".to_string())?;
                }
                "--language" => {
                    o.language = match value("--language")?.as_str() {
                        "python" => Language::Python,
                        "nodejs" => Language::NodeJs,
                        l => return Err(format!("unknown language `{l}`")),
                    }
                }
                "--scale" => {
                    o.scale = match value("--scale")?.as_str() {
                        "test" => Scale::Test,
                        "small" => Scale::Small,
                        "large" => Scale::Large,
                        s => return Err(format!("unknown scale `{s}`")),
                    }
                }
                "--repetitions" => {
                    o.repetitions = value("--repetitions")?
                        .parse()
                        .map_err(|e| format!("bad --repetitions: {e}"))?
                }
                "--samples" => {
                    o.samples = value("--samples")?
                        .parse()
                        .map_err(|e| format!("bad --samples: {e}"))?
                }
                "--seed" => {
                    o.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?
                }
                "--jobs" => {
                    o.jobs = value("--jobs")?
                        .parse::<usize>()
                        .map_err(|e| format!("bad --jobs: {e}"))?
                        .max(1)
                }
                "--cold" => o.cold = true,
                "--csv" => o.csv = Some(value("--csv")?),
                "--json" => o.json = Some(value("--json")?),
                "--trace" => o.trace = Some(value("--trace")?),
                "--trace-format" => {
                    o.trace_format = match value("--trace-format")?.as_str() {
                        "chrome" => TraceFormat::Chrome,
                        "table" => TraceFormat::Table,
                        f => return Err(format!("unknown trace format `{f}`")),
                    }
                }
                "--faults" => {
                    o.faults = FaultPlan::parse(&value("--faults")?)
                        .map_err(|e| format!("bad --faults: {e}"))?
                }
                "--retry" => {
                    o.retry = Some(
                        RetryPolicy::parse(&value("--retry")?)
                            .map_err(|e| format!("bad --retry: {e}"))?,
                    )
                }
                "--fault-rates" => {
                    let list = value("--fault-rates")?;
                    o.fault_rates = list
                        .split(',')
                        .map(|r| r.trim().parse())
                        .collect::<Result<Vec<f64>, _>>()
                        .map_err(|e| format!("bad --fault-rates: {e}"))?;
                    if o.fault_rates.is_empty() {
                        return Err("bad --fault-rates: empty list".to_string());
                    }
                    if let Some(bad) = o.fault_rates.iter().find(|r| !(0.0..=1.0).contains(*r)) {
                        return Err(format!("bad --fault-rates: {bad} outside [0, 1]"));
                    }
                }
                "--functions" => {
                    o.functions = value("--functions")?
                        .parse::<usize>()
                        .map_err(|e| format!("bad --functions: {e}"))?
                        .max(1)
                }
                "--invocations" => {
                    o.invocations = value("--invocations")?
                        .parse::<u64>()
                        .map_err(|e| format!("bad --invocations: {e}"))?
                        .max(1)
                }
                "--horizon-secs" => {
                    o.horizon = parse_secs("--horizon-secs", &value("--horizon-secs")?)?
                }
                "--zipf" => {
                    o.zipf = value("--zipf")?
                        .parse::<f64>()
                        .map_err(|e| format!("bad --zipf: {e}"))?;
                    if !o.zipf.is_finite() || o.zipf < 0.0 {
                        return Err(format!("bad --zipf: {} must be finite and >= 0", o.zipf));
                    }
                }
                "--cells" => {
                    o.cells = value("--cells")?
                        .parse::<usize>()
                        .map_err(|e| format!("bad --cells: {e}"))?
                        .max(1)
                }
                "--hosts" => {
                    o.hosts = value("--hosts")?
                        .parse::<u32>()
                        .map_err(|e| format!("bad --hosts: {e}"))?
                        .max(1)
                }
                "--cpus" => {
                    o.host_cpus = value("--cpus")?
                        .parse::<u32>()
                        .map_err(|e| format!("bad --cpus: {e}"))?
                        .max(1)
                }
                "--queue" => {
                    o.queue_depth = value("--queue")?
                        .parse::<u32>()
                        .map_err(|e| format!("bad --queue: {e}"))?
                }
                "--contention" => {
                    o.contention = value("--contention")?
                        .parse::<f64>()
                        .map_err(|e| format!("bad --contention: {e}"))?;
                    if !o.contention.is_finite() || o.contention < 0.0 {
                        return Err(format!(
                            "bad --contention: {} must be finite and >= 0",
                            o.contention
                        ));
                    }
                }
                "--schedulers" => {
                    o.schedulers = value("--schedulers")?
                        .split(',')
                        .map(|s| SchedulerKind::parse(s.trim()))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| format!("bad --schedulers: {e}"))?;
                    if o.schedulers.is_empty() {
                        return Err("bad --schedulers: empty list".to_string());
                    }
                }
                "--keepalives" => {
                    o.keepalives = value("--keepalives")?
                        .split(',')
                        .map(|s| KeepAliveKind::parse(s.trim()))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| format!("bad --keepalives: {e}"))?;
                    if o.keepalives.is_empty() {
                        return Err("bad --keepalives: empty list".to_string());
                    }
                }
                "--host-fault-rates" => {
                    let list = value("--host-fault-rates")?;
                    o.host_fault_rates = list
                        .split(',')
                        .map(|r| r.trim().parse())
                        .collect::<Result<Vec<f64>, _>>()
                        .map_err(|e| format!("bad --host-fault-rates: {e}"))?;
                    if o.host_fault_rates.is_empty() {
                        return Err("bad --host-fault-rates: empty list".to_string());
                    }
                    if let Some(bad) = o
                        .host_fault_rates
                        .iter()
                        .find(|r| !(0.0..=1.0).contains(*r))
                    {
                        return Err(format!("bad --host-fault-rates: {bad} outside [0, 1]"));
                    }
                }
                "--import" => o.import = Some(value("--import")?),
                "--out" => o.out = Some(value("--out")?),
                "--format" => {
                    let f = value("--format")?;
                    o.report_format = ReportFormat::parse(&f)
                        .ok_or_else(|| format!("unknown report format `{f}`"))?
                }
                "--metrics-interval-secs" => {
                    o.metrics_interval = parse_secs(
                        "--metrics-interval-secs",
                        &value("--metrics-interval-secs")?,
                    )?
                }
                "--metrics" => o.metrics = Some(value("--metrics")?),
                "--metrics-format" => {
                    o.metrics_format = match value("--metrics-format")?.as_str() {
                        "prom" => MetricsFormat::Prom,
                        "csv" => MetricsFormat::Csv,
                        f => return Err(format!("unknown metrics format `{f}`")),
                    }
                }
                "--trigger" => {
                    o.trigger = match value("--trigger")?.as_str() {
                        "http" => TriggerKind::Http,
                        "sdk" => TriggerKind::Sdk,
                        "event" => TriggerKind::StorageEvent,
                        "timer" => TriggerKind::Timer,
                        t => return Err(format!("unknown trigger `{t}`")),
                    }
                }
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag `{flag}`"));
                }
                positional => o.positional.push(positional.to_string()),
            }
        }
        Ok(o)
    }
}

fn cmd_list() -> Result<(), String> {
    let mut table = TextTable::new(vec!["Category", "Benchmark", "Language", "Default memory"]);
    for reg in all_workloads() {
        let spec = reg.workload.spec();
        table.row(vec![
            reg.category.to_string(),
            spec.name.clone(),
            spec.language.to_string(),
            format!("{} MB", spec.default_memory_mb),
        ]);
    }
    print!("{table}");
    Ok(())
}

fn cmd_invoke(o: &Options) -> Result<(), String> {
    let benchmark = o
        .positional
        .first()
        .ok_or("invoke needs a benchmark name (try `sebs list`)")?;
    let mut suite = Suite::new(
        SuiteConfig::default()
            .with_seed(o.seed)
            .with_trace(o.trace.is_some())
            .with_metrics(o.metrics.is_some())
            .with_faults(o.faults.clone())
            .with_retry(o.retry.clone().unwrap_or_default()),
    );
    let handle = suite
        .deploy(o.provider, benchmark, o.language, o.memory, o.scale)
        .map_err(|e| e.to_string())?;
    println!(
        "deployed {benchmark} ({}) on {} at {} MB",
        o.language, o.provider, o.memory
    );
    let resilient = o.retry.as_ref().is_some_and(|p| !p.is_none());
    for i in 0..o.repetitions.max(1) {
        if o.cold {
            suite.enforce_cold_start(&handle);
        }
        let r = if resilient {
            // Under a retry policy the chain drives the invocation (HTTP
            // trigger); report the final attempt plus the chain shape.
            let chain = suite.invoke_resilient(&handle);
            println!(
                "#{i}: chain of {} attempt(s), outcome {:?}, effective client {}{}{}",
                chain.billed_attempts(),
                chain.outcome,
                chain.client_time,
                if chain.hedged { ", hedged" } else { "" },
                if chain.breaker_rejected {
                    ", rejected by open breaker"
                } else {
                    ""
                },
            );
            let Some(last) = chain.attempts.last().cloned() else {
                suite.advance(o.provider, SimDuration::from_secs(1));
                continue;
            };
            last
        } else {
            suite
                .invoke_burst_via(&handle, 1, o.trigger)
                .pop()
                .expect("one record per invocation")
        };
        println!(
            "#{i}: {:?} [{}] benchmark {} | provider {} | client {} | {} B out | ${:.8}",
            r.outcome,
            match r.start {
                StartKind::Cold => "cold",
                StartKind::Warm => "warm",
            },
            r.benchmark_time,
            r.provider_time,
            r.client_time,
            r.response_bytes,
            r.bill.total_usd(),
        );
        suite.advance(o.provider, SimDuration::from_secs(1));
    }
    if let Some(path) = &o.trace {
        let mut sink = TraceSink::new();
        sink.extend(suite.take_traces());
        sink.sort_canonical();
        write_trace(path, o.trace_format, &sink)?;
    }
    if let Some(path) = &o.metrics {
        write_metrics(path, o.metrics_format, &suite.take_metrics())?;
    }
    Ok(())
}

/// Serializes a trace sink in the selected format.
fn write_trace(path: &str, format: TraceFormat, sink: &TraceSink) -> Result<(), String> {
    let body = match format {
        TraceFormat::Chrome => chrome_trace_json(sink),
        TraceFormat::Table => breakdown_table(sink),
    };
    std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote {} traces to {path}", sink.len());
    Ok(())
}

/// Serializes a metrics sink in the selected format.
fn write_metrics(path: &str, format: MetricsFormat, sink: &MetricsSink) -> Result<(), String> {
    let body = match format {
        MetricsFormat::Prom => prometheus_text(sink),
        MetricsFormat::Csv => csv_timeseries(sink),
    };
    std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "wrote metrics for {} platform(s) ({} sample points) to {path}",
        sink.len(),
        sink.point_count()
    );
    Ok(())
}

fn cmd_experiment(o: &Options) -> Result<(), String> {
    let name = o.positional.first().ok_or(
        "experiment needs a name: local | perf-cost | eviction-model | invocation-overhead",
    )?;
    let config = SuiteConfig::default()
        .with_seed(o.seed)
        .with_samples(o.samples);
    match name.as_str() {
        "local" => {
            for row in run_local_characterization(o.samples, o.scale, o.seed) {
                println!(
                    "{:<20} {:<7} cold {:>8.1} ms  warm {:>8.2} ms  {:>8.1}M instr  {:>5.1}% cpu",
                    row.benchmark,
                    row.language.to_string(),
                    row.cold_ms.median(),
                    row.warm_ms.median(),
                    row.instructions / 1e6,
                    row.cpu_utilization * 100.0
                );
            }
        }
        "perf-cost" => {
            let benchmarks: Vec<(&str, Language)> = if o.positional.len() > 1 {
                o.positional[1..]
                    .iter()
                    .map(|b| (b.as_str(), o.language))
                    .collect()
            } else {
                vec![("graph-bfs", o.language)]
            };
            let grid = ExperimentGrid::new(&benchmarks, &o.providers, &o.memories);
            let config = config
                .with_jobs(o.jobs)
                .with_trace(o.trace.is_some())
                .with_metrics(o.metrics.is_some());
            let result = run_perf_cost_grid(&config, &grid, o.scale, &ParallelRunner::new(o.jobs));
            for s in &result.series {
                println!(
                    "{} {} {} MB [{:?}]: median client {:.1} ms, cost/M ${:.2}, {} failures",
                    s.benchmark,
                    s.provider,
                    s.memory_mb,
                    s.start,
                    s.median_client_ms(),
                    s.cost_of_million_usd(),
                    s.failures
                );
            }
            let store = result.to_store();
            if let Some(path) = &o.csv {
                std::fs::write(path, sebs_metrics::csv::to_csv(store.rows()))
                    .map_err(|e| format!("writing {path}: {e}"))?;
                println!("wrote {} rows to {path}", store.len());
            }
            if let Some(path) = &o.json {
                std::fs::write(path, store.to_json())
                    .map_err(|e| format!("writing {path}: {e}"))?;
                println!("wrote {} rows to {path}", store.len());
            }
            if let Some(path) = &o.trace {
                write_trace(path, o.trace_format, &result.traces)?;
            }
            if let Some(path) = &o.metrics {
                write_metrics(path, o.metrics_format, &result.metrics)?;
            }
        }
        "eviction-model" => {
            let mut suite = Suite::new(config);
            let result = run_eviction_model(
                &mut suite,
                EvictionExperimentConfig::paper_default(o.provider),
            );
            match result.fit {
                Some(fit) => println!(
                    "fitted eviction period P = {:.1} s with R^2 = {:.4} over {} observations",
                    fit.period_secs, fit.r_squared, fit.n
                ),
                None => println!("no model could be fitted"),
            }
        }
        "invocation-overhead" => {
            let mut suite = Suite::new(config);
            let result = run_invocation_overhead(
                &mut suite,
                o.provider,
                &sebs::experiments::invocation_overhead::paper_payload_sizes(),
                (o.samples / 5).max(2),
            );
            println!(
                "clock sync: offset {:.3} s after {} exchanges (converged: {})",
                result.sync.offset_secs, result.sync.exchanges, result.sync.converged
            );
            for (label, fit) in [("warm", result.warm_fit), ("cold", result.cold_fit)] {
                if let Some(f) = fit {
                    println!(
                        "{label}: overhead = {:.1} ms + {:.1} ms/MB, adj R^2 = {:.3}",
                        f.intercept,
                        f.slope * 1e6,
                        f.adjusted_r_squared
                    );
                }
            }
        }
        other => return Err(format!("unknown experiment `{other}`")),
    }
    Ok(())
}

/// Runs the availability sweep (fault intensity × retry policy) and
/// prints one line per cell. The whole sweep — stdout, CSV/JSON exports,
/// traces and metrics — is byte-identical for every `--jobs` value.
fn cmd_availability(o: &Options) -> Result<(), String> {
    let benchmark = o
        .positional
        .first()
        .ok_or("availability needs a benchmark name (try `sebs list`)")?;
    let config = SuiteConfig::default()
        .with_seed(o.seed)
        .with_samples(o.samples)
        .with_jobs(o.jobs)
        .with_trace(o.trace.is_some())
        .with_metrics(o.metrics.is_some())
        .with_faults(o.faults.clone());
    let policies = availability_policies(o);
    let suite = Suite::new(config);
    let result = run_availability(
        &suite,
        benchmark,
        o.language,
        o.provider,
        o.memory,
        o.scale,
        &o.fault_rates,
        &policies,
    );
    if result.series.is_empty() {
        return Err(format!(
            "{} rejects {benchmark} at {} MB",
            o.provider, o.memory
        ));
    }
    for s in &result.series {
        println!(
            "fault {:>5.2} {:<10} avail {:>6.2}% (raw {:>6.2}%) goodput {:.3} x{:.2} \
             p50 {:>8.1} ms p99 {:>8.1} ms ${:.8}",
            s.fault_rate,
            s.policy,
            s.effective_availability() * 100.0,
            s.raw_availability() * 100.0,
            s.goodput(),
            s.amplification(),
            s.client_percentile_ms(50.0),
            s.client_percentile_ms(99.0),
            s.cost_usd,
        );
    }
    for s in &result.series {
        if s.policy == policies[0].label {
            continue;
        }
        if let Some(per_nine) = result.cost_per_nine(s.fault_rate, &policies[0].label, &s.policy) {
            println!(
                "fault {:>5.2} {:<10} pays ${:.8} per extra nine of availability",
                s.fault_rate, s.policy, per_nine
            );
        }
    }
    let store = result.to_store();
    if let Some(path) = &o.csv {
        std::fs::write(path, sebs_metrics::csv::to_csv(store.rows()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {} rows to {path}", store.len());
    }
    if let Some(path) = &o.json {
        std::fs::write(path, store.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {} rows to {path}", store.len());
    }
    if let Some(path) = &o.trace {
        write_trace(path, o.trace_format, &result.traces)?;
    }
    if let Some(path) = &o.metrics {
        write_metrics(path, o.metrics_format, &result.metrics)?;
    }
    Ok(())
}

/// The availability sweep's policies: the default no-retry versus
/// backoff-3 columns, or no-retry against exactly the `--retry` policy.
fn availability_policies(o: &Options) -> Vec<LabeledPolicy> {
    match &o.retry {
        None => LabeledPolicy::default_sweep(),
        Some(policy) => vec![
            LabeledPolicy::new("no-retry", RetryPolicy::none()),
            LabeledPolicy::new("retry", policy.clone()),
        ],
    }
}

/// The cluster sweep the CLI flags describe. `--retry` replaces the
/// sweep's default `backoff(3)` policy whenever it is given, even when it
/// parses to [`RetryPolicy::none`].
fn cluster_sweep(o: &Options) -> ClusterSweepConfig {
    let mut sweep = ClusterSweepConfig::new(o.provider);
    sweep.hosts = o.hosts;
    sweep.host_cpus = o.host_cpus;
    sweep.queue_depth = o.queue_depth;
    sweep.contention = o.contention;
    sweep.functions = o.functions.min(200);
    sweep.target_invocations = o.invocations.min(50_000);
    sweep.horizon = o.horizon;
    sweep.zipf_exponent = o.zipf;
    sweep.schedulers = o.schedulers.clone();
    sweep.keepalives = o.keepalives.clone();
    sweep.host_fault_rates = o.host_fault_rates.clone();
    if let Some(policy) = &o.retry {
        sweep.retry = policy.clone();
    }
    // The fleet/cluster defaults share Options fields; the fleet-scale
    // defaults (1000 fns / 10⁵ invocations) are too heavy for a
    // 27-cell sweep, so fall back to the sweep's own sizing when the
    // flags were left untouched.
    if o.functions == 1000 && o.invocations == 100_000 {
        let d = ClusterSweepConfig::new(o.provider);
        sweep.functions = d.functions;
        sweep.target_invocations = d.target_invocations;
    }
    if o.horizon == DEFAULT_HORIZON {
        sweep.horizon = ClusterSweepConfig::new(o.provider).horizon;
    }
    sweep
}

/// Runs the scheduler × keep-alive × host-fault sweep on a multi-host
/// region and prints one line per cell plus the Pareto breakdown.
/// Stdout and every export are byte-identical for any `--jobs`.
fn cmd_cluster(o: &Options) -> Result<(), String> {
    let config = SuiteConfig::default()
        .with_seed(o.seed)
        .with_jobs(o.jobs)
        .with_trace(o.trace.is_some());
    let sweep = cluster_sweep(o);
    let model = sweep.synthetic_model(o.seed);
    let result = run_cluster(&config, &sweep, &model);
    for s in &result.series {
        println!(
            "cell {:>3}: fault {:>5.2} {:<13} {:<12} cold {:>6.2}% wasted {:>10.1} GB-s \
             avail {:>7.3}% (raw {:>7.3}%) goodput {:.3} hops {:>4} shed {:>4} ${:.6}",
            s.index,
            s.host_fault_rate,
            s.scheduler,
            s.keepalive,
            s.cold_start_rate() * 100.0,
            s.wasted_warm_gb_s,
            s.effective_availability() * 100.0,
            s.raw_availability() * 100.0,
            s.goodput(),
            s.failover_hops,
            s.shed,
            s.cost_usd,
        );
    }
    for s in &result.series {
        if let Some(per_nine) = s.cost_per_extra_nine() {
            println!(
                "cell {:>3}: failover pays ${:.8} per extra nine of availability",
                s.index, per_nine
            );
        }
    }
    println!(
        "cluster: {} hosts x {} cpus on {} | {} cells | {} chains",
        sweep.hosts,
        sweep.host_cpus,
        o.provider,
        result.series.len(),
        result.series.iter().map(|s| s.chains).sum::<usize>(),
    );
    let store = result.to_store();
    if let Some(path) = &o.csv {
        std::fs::write(path, sebs_metrics::csv::to_csv(store.rows()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {} rows to {path}", store.len());
    }
    if let Some(path) = &o.json {
        std::fs::write(path, store.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {} rows to {path}", store.len());
    }
    if let Some(path) = &o.trace {
        write_trace(path, o.trace_format, &result.traces)?;
    }
    Ok(())
}

/// Builds the fleet knobs and trace model from the CLI flags, resolving
/// `--import` (both `fleet` and `report` share this path). Progress notes
/// go to stderr so stdout stays byte-stable for the determinism matrix.
///
/// # Errors
///
/// Fails when the import cannot be read or parsed, or names a function
/// the provider refuses to deploy.
fn fleet_model(o: &Options) -> Result<(FleetConfig, TraceModel), String> {
    let mut fleet = FleetConfig {
        provider: o.provider,
        functions: o.functions,
        target_invocations: o.invocations,
        horizon: o.horizon,
        zipf_exponent: o.zipf,
        cells: o.cells,
    };
    let imported = match &o.import {
        Some(path) => sebs_workload_gen::import_csv(std::path::Path::new(path), None)
            .map_err(|e| e.to_string())?,
        None => None,
    };
    let model = match imported {
        Some(m) => {
            // An imported trace brings its own fleet size and horizon.
            fleet.functions = m.functions.len();
            fleet.horizon = m.horizon;
            eprintln!(
                "imported {} function(s) over {} from {}",
                m.functions.len(),
                m.horizon,
                o.import.as_deref().unwrap_or_default()
            );
            check_deployable(o.provider, &m)?;
            m
        }
        None => {
            if let Some(path) = &o.import {
                eprintln!("trace {path} not found; using the synthetic Azure-2019-shaped fleet");
            }
            fleet.synthetic_model(o.seed)
        }
    };
    Ok((fleet, model))
}

/// Rejects a model holding a function `provider` refuses to deploy, such
/// as an imported memory size outside its limits. `run_fleet` would drop
/// that function's whole cell without a word. Synthetic fleets draw only
/// sizes every provider accepts, so only imports need the check.
fn check_deployable(provider: ProviderKind, model: &TraceModel) -> Result<(), String> {
    let mut platform = FaasPlatform::new(ProviderProfile::for_kind(provider), 0);
    for f in &model.functions {
        let p = &f.profile;
        platform
            .deploy(FunctionConfig::new(&p.name, p.language, p.memory_mb))
            .map_err(|e| {
                format!(
                    "function `{}` cannot be deployed on {provider}: {e}",
                    p.name
                )
            })?;
    }
    Ok(())
}

/// Runs the trace-driven fleet replay and prints a per-cell breakdown
/// plus a fleet summary. The whole replay — stdout, CSV/JSON exports,
/// traces and metrics — is byte-identical for every `--jobs` value.
fn cmd_fleet(o: &Options) -> Result<(), String> {
    let config = SuiteConfig::default()
        .with_seed(o.seed)
        .with_jobs(o.jobs)
        .with_trace(o.trace.is_some())
        .with_metrics(o.metrics.is_some())
        .with_metrics_interval(o.metrics_interval);
    let (fleet, model) = fleet_model(o)?;
    let result = run_fleet(&config, &fleet, &model);
    for s in &result.series {
        let occ = if s.warm_pool_samples.is_empty() {
            0.0
        } else {
            s.warm_pool_samples.iter().sum::<u64>() as f64 / s.warm_pool_samples.len() as f64
        };
        println!(
            "cell {:>3}: {:>5} fn {:>8} inv {:>7} cold {:>4} failed  warm-pool {:>8.1}  ${:.6}",
            s.index, s.functions, s.invocations, s.cold_starts, s.failures, occ, s.cost_usd,
        );
    }
    println!(
        "fleet: {} functions, {} invocations over {} on {}",
        fleet.functions,
        result.invocations(),
        fleet.horizon,
        o.provider,
    );
    println!(
        "cold-start rate {:.3}% | failure rate {:.3}% | mean warm pool {:.1} | \
         p50 {:.1} ms p95 {:.1} ms p99 {:.1} ms | total ${:.6}",
        result.cold_start_rate() * 100.0,
        result.failure_rate() * 100.0,
        result.mean_warm_pool(),
        result.latency_percentile_ms(50.0),
        result.latency_percentile_ms(95.0),
        result.latency_percentile_ms(99.0),
        result.total_cost_usd(),
    );
    let store = result.to_store();
    if let Some(path) = &o.csv {
        std::fs::write(path, sebs_metrics::csv::to_csv(store.rows()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {} rows to {path}", store.len());
    }
    if let Some(path) = &o.json {
        std::fs::write(path, store.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {} rows to {path}", store.len());
    }
    if let Some(path) = &o.trace {
        write_trace(path, o.trace_format, &result.traces)?;
    }
    if let Some(path) = &o.metrics {
        write_metrics(path, o.metrics_format, &result.metrics)?;
    }
    Ok(())
}

/// Runs the fleet replay with bounded observability always on — metrics,
/// sampled exemplar traces and the phase profiler — and renders one
/// self-contained report document. The rendered bytes are identical for
/// every `--jobs` value.
fn cmd_report(o: &Options) -> Result<(), String> {
    let config = SuiteConfig::default()
        .with_seed(o.seed)
        .with_jobs(o.jobs)
        .with_metrics(true)
        .with_metrics_interval(o.metrics_interval)
        .with_trace_sampling(SamplerSpec::fleet_default())
        .with_profile(true);
    let (fleet, model) = fleet_model(o)?;
    let result = run_fleet(&config, &fleet, &model);
    let rendered = fleet_report(&config, &fleet, &result).render(o.report_format);
    match &o.out {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {} bytes to {path}", rendered.len());
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(&owned)
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.provider, ProviderKind::Aws);
        assert_eq!(o.providers, vec![ProviderKind::Aws]);
        assert_eq!(o.memory, 512);
        assert_eq!(o.memories, vec![512]);
        assert_eq!(o.language, Language::Python);
        assert_eq!(o.scale, Scale::Test);
        assert_eq!(o.trigger, TriggerKind::Http);
        assert_eq!(o.jobs, available_jobs());
        assert!(!o.cold);
        assert!(o.csv.is_none() && o.json.is_none());
        assert!(o.trace.is_none());
        assert_eq!(o.trace_format, TraceFormat::Chrome);
        assert!(o.metrics.is_none());
        assert_eq!(o.metrics_format, MetricsFormat::Prom);
    }

    #[test]
    fn full_flag_set() {
        let o = parse(&[
            "graph-bfs",
            "--provider",
            "gcp",
            "--memory",
            "2048",
            "--language",
            "nodejs",
            "--scale",
            "small",
            "--repetitions",
            "7",
            "--cold",
            "--trigger",
            "sdk",
            "--samples",
            "99",
            "--seed",
            "5",
            "--jobs",
            "3",
            "--csv",
            "a.csv",
            "--json",
            "b.json",
            "--trace",
            "t.json",
            "--trace-format",
            "table",
            "--metrics",
            "m.csv",
            "--metrics-format",
            "csv",
        ])
        .unwrap();
        assert_eq!(o.positional, vec!["graph-bfs"]);
        assert_eq!(o.provider, ProviderKind::Gcp);
        assert_eq!(o.providers, vec![ProviderKind::Gcp]);
        assert_eq!(o.memory, 2048);
        assert_eq!(o.memories, vec![2048]);
        assert_eq!(o.jobs, 3);
        assert_eq!(o.language, Language::NodeJs);
        assert_eq!(o.scale, Scale::Small);
        assert_eq!(o.repetitions, 7);
        assert!(o.cold);
        assert_eq!(o.trigger, TriggerKind::Sdk);
        assert_eq!(o.samples, 99);
        assert_eq!(o.seed, 5);
        assert_eq!(o.csv.as_deref(), Some("a.csv"));
        assert_eq!(o.json.as_deref(), Some("b.json"));
        assert_eq!(o.trace.as_deref(), Some("t.json"));
        assert_eq!(o.trace_format, TraceFormat::Table);
        assert_eq!(o.metrics.as_deref(), Some("m.csv"));
        assert_eq!(o.metrics_format, MetricsFormat::Csv);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&["--provider", "ibm"]).unwrap_err().contains("ibm"));
        assert!(parse(&["--memory", "lots"])
            .unwrap_err()
            .contains("--memory"));
        assert!(parse(&["--memory"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
        assert!(parse(&["--trigger", "carrier-pigeon"])
            .unwrap_err()
            .contains("carrier-pigeon"));
        assert!(parse(&["--trace-format", "flamegraph"])
            .unwrap_err()
            .contains("flamegraph"));
        assert!(parse(&["--metrics-format", "influx"])
            .unwrap_err()
            .contains("influx"));
        assert!(parse(&["--metrics"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn positionals_accumulate_in_order() {
        let o = parse(&["experiment-name", "benchmark-name"]).unwrap();
        assert_eq!(o.positional, vec!["experiment-name", "benchmark-name"]);
    }

    #[test]
    fn provider_all_expands_to_every_provider() {
        let o = parse(&["--provider", "all"]).unwrap();
        assert_eq!(
            o.providers,
            vec![ProviderKind::Aws, ProviderKind::Azure, ProviderKind::Gcp]
        );
        assert_eq!(o.provider, ProviderKind::Aws, "first provider wins");
    }

    #[test]
    fn memory_accepts_a_comma_separated_list() {
        let o = parse(&["--memory", "128, 512,1024"]).unwrap();
        assert_eq!(o.memories, vec![128, 512, 1024]);
        assert_eq!(o.memory, 128, "first size wins");
        assert!(parse(&["--memory", "128,big"])
            .unwrap_err()
            .contains("--memory"));
    }

    #[test]
    fn resilience_flags_default_to_no_ops() {
        let o = parse(&[]).unwrap();
        assert!(o.faults.is_empty());
        assert!(o.retry.is_none());
        assert_eq!(o.fault_rates, vec![0.0, 0.05, 0.25]);
    }

    #[test]
    fn cluster_honours_every_retry_key() {
        let spec = "attempts=3,hedge=0.9,breaker=5@30000";
        let mut args = vec!["--retry", spec];
        args.extend(
            "--functions 2 --invocations 20 --horizon-secs 60 --schedulers least-loaded \
             --keepalives provider --host-fault-rates 0 --jobs 1"
                .split_whitespace(),
        );
        let o = parse(&args).unwrap();
        assert_eq!(cluster_sweep(&o).retry, RetryPolicy::parse(spec).unwrap());
        cmd_cluster(&o).expect("the cluster runs hedges and the breaker");
    }

    #[test]
    fn retry_attempts_one_replaces_the_default_policies() {
        // `attempts=1` parses to exactly `RetryPolicy::none()`; it must
        // still replace each command's default policy.
        let o = parse(&["--retry", "attempts=1"]).unwrap();
        assert_eq!(o.retry, Some(RetryPolicy::none()));
        assert!(cluster_sweep(&o).retry.is_none(), "no cluster retries");
        let policies = availability_policies(&o);
        assert_eq!(policies.len(), 2);
        assert!(policies.iter().all(|p| p.policy.is_none()));
        // Without `--retry` the defaults stay.
        let o = parse(&[]).unwrap();
        assert_eq!(cluster_sweep(&o).retry, RetryPolicy::backoff(3));
        assert_eq!(availability_policies(&o), LabeledPolicy::default_sweep());
    }

    #[test]
    fn faults_and_retry_specs_parse() {
        let o = parse(&[
            "--faults",
            "crash=0.05,storage=0.02,outage=10..20@1.0",
            "--retry",
            "attempts=3,base=50,jitter=0.5",
            "--fault-rates",
            "0, 0.1,0.5",
        ])
        .unwrap();
        assert_eq!(o.faults.sandbox_crash_rate, 0.05);
        assert_eq!(o.faults.storage_error_rate, 0.02);
        assert_eq!(o.faults.outages.len(), 1);
        let retry = o.retry.expect("--retry was given");
        assert_eq!(retry.max_attempts, 3);
        assert_eq!(retry.jitter, 0.5);
        assert_eq!(o.fault_rates, vec![0.0, 0.1, 0.5]);
    }

    #[test]
    fn bad_resilience_specs_are_rejected() {
        assert!(parse(&["--faults", "crash=2.0"])
            .unwrap_err()
            .contains("--faults"));
        assert!(parse(&["--retry", "attempts=0"])
            .unwrap_err()
            .contains("--retry"));
        assert!(parse(&["--fault-rates", "0.1,big"])
            .unwrap_err()
            .contains("--fault-rates"));
        assert!(parse(&["--fault-rates", "1.5"])
            .unwrap_err()
            .contains("outside [0, 1]"));
        assert!(parse(&["--faults"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn fleet_flags_parse_with_defaults_and_overrides() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.functions, 1000);
        assert_eq!(o.invocations, 100_000);
        assert_eq!(o.horizon, SimDuration::from_secs(7200));
        assert_eq!(o.zipf, 1.1);
        assert_eq!(o.cells, 16);
        assert!(o.import.is_none());
        assert_eq!(o.metrics_interval, SimDuration::from_secs(60));
        let o = parse(&[
            "--functions",
            "250",
            "--invocations",
            "5000",
            "--horizon-secs",
            "600",
            "--zipf",
            "0.9",
            "--cells",
            "4",
            "--import",
            "trace.csv",
            "--metrics-interval-secs",
            "10",
        ])
        .unwrap();
        assert_eq!(o.functions, 250);
        assert_eq!(o.invocations, 5000);
        assert_eq!(o.horizon, SimDuration::from_secs(600));
        assert_eq!(o.zipf, 0.9);
        assert_eq!(o.cells, 4);
        assert_eq!(o.import.as_deref(), Some("trace.csv"));
        assert_eq!(o.metrics_interval, SimDuration::from_secs(10));
        assert_eq!(parse(&["--cells", "0"]).unwrap().cells, 1, "clamped up");
        assert!(parse(&["--zipf", "-1"]).unwrap_err().contains("--zipf"));
        assert!(parse(&["--functions", "many"])
            .unwrap_err()
            .contains("--functions"));
    }

    #[test]
    fn fleet_rejects_an_imported_function_the_provider_cannot_deploy() {
        // Resolves `--import` of a CSV holding `rows`, as `fleet` does.
        let import = |tag: &str, rows: &str| {
            let path = std::env::temp_dir()
                .join(format!("sebs-cli-import-{tag}-{}.csv", std::process::id()));
            std::fs::write(
                &path,
                format!("function,offset_ms,duration_ms,memory_mb\n{rows}"),
            )
            .unwrap();
            let o = parse(&["--import", path.to_str().unwrap(), "--cells", "2"]).unwrap();
            let result = fleet_model(&o);
            std::fs::remove_file(&path).unwrap();
            result
        };
        let err = import(
            "bad",
            "a,0,100,128\nb,10,100,128\nc,20,100,64\nd,30,100,256\ne,40,100,128\nf,50,100,512\n",
        )
        .unwrap_err();
        assert!(
            err.contains("function `c`") && err.contains("64 MB"),
            "the error names the function and the provider's reason: {err}"
        );
        let (fleet, model) = import("ok", "a,0,100,128\nb,10,100,256\n").unwrap();
        assert_eq!((fleet.functions, model.functions.len()), (2, 2));
    }

    #[test]
    fn durations_past_the_simulator_clock_are_rejected_naming_the_flag() {
        let max = u64::MAX / 1_000_000_000;
        for flag in ["--horizon-secs", "--metrics-interval-secs"] {
            let err = parse(&[flag, &(max + 1).to_string()]).unwrap_err();
            assert!(err.contains(flag) && err.contains("does not fit"), "{err}");
            assert!(parse(&[flag, &max.to_string()]).is_ok(), "{flag} {max}");
        }
        // The largest accepted horizon and interval replay and render the
        // report without overflowing the clock.
        let out = std::env::temp_dir().join(format!("sebs-cli-max-{}.md", std::process::id()));
        let max = max.to_string();
        let o = parse(&[
            "--horizon-secs",
            &max,
            "--metrics-interval-secs",
            &max,
            "--functions",
            "3",
            "--invocations",
            "30",
            "--cells",
            "1",
            "--jobs",
            "1",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        cmd_report(&o).unwrap();
        let report = std::fs::read_to_string(&out).unwrap();
        std::fs::remove_file(&out).unwrap();
        assert!(report.contains("18446744073"), "the horizon is reported");
    }

    #[test]
    fn report_flags_parse() {
        let o = parse(&[]).unwrap();
        assert!(o.out.is_none());
        assert_eq!(o.report_format, ReportFormat::Markdown);
        let o = parse(&["--out", "report.html", "--format", "html"]).unwrap();
        assert_eq!(o.out.as_deref(), Some("report.html"));
        assert_eq!(o.report_format, ReportFormat::Html);
        assert_eq!(
            parse(&["--format", "markdown"]).unwrap().report_format,
            ReportFormat::Markdown
        );
        assert!(parse(&["--format", "pdf"]).unwrap_err().contains("pdf"));
        assert!(parse(&["--out"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn jobs_parse_and_clamp() {
        assert_eq!(parse(&["--jobs", "8"]).unwrap().jobs, 8);
        assert_eq!(parse(&["--jobs", "0"]).unwrap().jobs, 1, "clamped up");
        assert!(parse(&["--jobs", "many"]).unwrap_err().contains("--jobs"));
    }
}
