//! The `sebs` command-line tool — the counterpart of the SeBS toolkit's
//! CLI (paper §5.2): list benchmarks, deploy-and-invoke them on a chosen
//! (simulated) provider, and run the paper's experiments.
//!
//! Each subcommand takes exactly the flags it honours from its [`Flags`]
//! and then calls [`Flags::finish`], which rejects anything left over
//! before any work starts. `sebs help` lists every command's flags.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use sebs::experiments::{
    run_availability, run_cluster, run_eviction_model, run_fleet, run_invocation_overhead,
    run_local_characterization, run_perf_cost_grid, ClusterSweepConfig, EvictionExperimentConfig,
    FleetConfig, LabeledPolicy,
};
use sebs::runner::available_jobs;
use sebs::{fleet_report, ExperimentGrid, ParallelRunner, ReportFormat, Suite, SuiteConfig};
use sebs_cluster::{KeepAliveKind, SchedulerKind};
use sebs_metrics::{ResultStore, TextTable};
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
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let f = Flags::new(command, rest);
    let result = match command.as_str() {
        "list" => cmd_list(f),
        "invoke" => cmd_invoke(f),
        "experiment" => cmd_experiment(f),
        "availability" => cmd_availability(f),
        "cluster" => cmd_cluster(f),
        "fleet" => cmd_fleet(f),
        "report" => cmd_report(f),
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
                [--seed N] [--faults SPEC] [--retry SPEC]
                [--trace FILE] [--trace-format F]
                [--metrics FILE] [--metrics-format F]
    sebs experiment local [--samples N] [--scale S] [--seed N]
    sebs experiment perf-cost [<benchmark>...] [--provider P|all]
                [--memory MB,MB,...] [--language L] [--scale S]
                [--samples N] [--seed N]
                [--jobs N]                    (worker threads; default: all cores;
                                               results are identical for any N)
                [--csv FILE] [--json FILE] [--trace FILE] [--trace-format F]
                [--metrics FILE] [--metrics-format F]
    sebs experiment eviction-model [--provider P] [--seed N]
    sebs experiment invocation-overhead [--provider P] [--samples N] [--seed N]
    sebs availability <benchmark> [--provider P] [--memory MB]
                [--language L] [--scale S] [--samples N]
                [--fault-rates R1,R2,...]     (sandbox-crash rates to sweep;
                                               default 0,0.05,0.25)
                [--faults SPEC] [--retry SPEC] [--jobs N] [--seed N]
                [--csv FILE] [--json FILE] [--trace FILE] [--trace-format F]
                [--metrics FILE] [--metrics-format F]
    sebs cluster [--provider P] [--hosts N] [--cpus N] [--queue N]
                [--contention F]              (per-co-located-invocation I/O
                                               inflation; 0 disables)
                [--schedulers S1,S2,...]      (least-loaded, random-<k>,
                                               locality; k <= 64; default
                                               all three)
                [--keepalives K1,K2,...]      (provider, fixed-<secs>, hybrid;
                                               default all three)
                [--host-fault-rates R1,...]   (host-crash intensities;
                                               default 0,0.15,0.4)
                [--functions N] [--invocations N] [--horizon-secs S]
                                              (default 24, 2400 and 1800;
                                               at most 200 and 50000)
                [--zipf EXP] [--retry SPEC]   (default attempts=3)
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
    sebs report [--provider P] [--functions N] [--invocations N]
                [--horizon-secs S] [--zipf EXP] [--cells N] [--import FILE]
                [--metrics-interval-secs S] [--jobs N] [--seed N]
                [--out FILE]                  (write the report; default:
                                               stdout)
                [--format md|html]            (markdown default; html is a
                                               single self-contained page)
                Runs the fleet replay with bounded observability always on
                (sketch percentiles, sampled exemplar traces, phase
                profile, metrics) and renders one report document.
                Byte-identical for any --jobs.

    A flag a command does not take is an error; a repeated flag's last
    value wins.

    --faults SPEC   seeded fault plan, e.g. crash=0.05,storage=0.02,
                    stall=2.5,corrupt=0.01,outage=10..20@1.0,storm=5..15@0.8;
                    an empty spec is bit-identical to no faults
    --retry SPEC    client retry policy, e.g. attempts=3,base=50,cap=800,
                    jitter=0.5,budget=100,deadline=10000,hedge=0.95,
                    breaker=5@30000 (durations in ms)
    --trace FILE    per-invocation traces, byte-identical for any --jobs;
                    --trace-format chrome (trace_event JSON for
                    Perfetto/chrome://tracing, the default) or table
                    (latency breakdown with p50/p95/p99 per phase)
    --metrics FILE  fleet-wide sim-time metrics, byte-identical for any
                    --jobs and never changing results; --metrics-format
                    prom (Prometheus text snapshot, the default) or csv
                    (sampled time series)";

/// One subcommand's arguments: its positionals and its `(flag, value)`
/// pairs in command-line order. `--cold` is the only switch; every other
/// `--flag` takes the next argument as its value.
struct Flags {
    /// The command as errors name it, e.g. `experiment perf-cost`.
    command: String,
    positional: Vec<String>,
    /// `None` for `--cold` and for a flag that ends the command line.
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    fn new(command: &str, args: &[String]) -> Flags {
        let mut f = Flags {
            command: command.to_string(),
            positional: Vec::new(),
            pairs: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--cold" {
                f.pairs.push((arg.clone(), None));
            } else if arg.starts_with("--") {
                f.pairs.push((arg.clone(), it.next().cloned()));
            } else {
                f.positional.push(arg.clone());
            }
        }
        f
    }

    /// Fails on the first flag or argument the command has not taken.
    fn finish(self) -> Result<(), String> {
        let extra = match (self.pairs.first(), self.positional.first()) {
            (Some((flag, _)), _) => flag.clone(),
            (None, Some(arg)) => format!("`{arg}`"),
            (None, None) => return Ok(()),
        };
        Err(format!("`sebs {}` does not take {extra}", self.command))
    }

    /// The next positional argument, or the error `missing`.
    fn arg(&mut self, missing: &str) -> Result<String, String> {
        if self.positional.is_empty() {
            return Err(missing.to_string());
        }
        Ok(self.positional.remove(0))
    }

    /// Takes every occurrence of `flag` and returns the last one's value.
    fn take(&mut self, flag: &str) -> Result<Option<String>, String> {
        let mut last = None;
        self.pairs.retain(|(name, value)| {
            let hit = name == flag;
            if hit {
                last = Some(value.clone());
            }
            !hit
        });
        last.map(|v| v.ok_or_else(|| format!("{flag} needs a value")))
            .transpose()
    }

    /// Whether the switch `flag` was given.
    fn switch(&mut self, flag: &str) -> bool {
        let before = self.pairs.len();
        self.pairs.retain(|(name, _)| name != flag);
        self.pairs.len() < before
    }

    /// `flag` read by `read`, or `default` when it is absent.
    fn get<T>(
        &mut self,
        flag: &str,
        default: T,
        read: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        match self.take(flag)? {
            Some(value) => read(&value).map_err(|e| format!("bad {flag}: {e}")),
            None => Ok(default),
        }
    }

    fn num<T: FromStr>(&mut self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.get(flag, default, parse)
    }

    /// A comma-separated list, each trimmed item read by `item`.
    fn list<T>(
        &mut self,
        flag: &str,
        default: Vec<T>,
        item: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.get(flag, default, |v| {
            v.split(',').map(|s| item(s.trim())).collect()
        })
    }

    /// A list of rates in `[0, 1]`.
    fn rates(&mut self, flag: &str, default: Vec<f64>) -> Result<Vec<f64>, String> {
        self.list(flag, default, |r| match parse::<f64>(r)? {
            r if (0.0..=1.0).contains(&r) => Ok(r),
            r => Err(format!("{r} outside [0, 1]")),
        })
    }

    /// A finite, non-negative number.
    fn non_negative(&mut self, flag: &str, default: f64) -> Result<f64, String> {
        self.get(flag, default, |v| match parse::<f64>(v)? {
            x if x.is_finite() && x >= 0.0 => Ok(x),
            x => Err(format!("{x} must be finite and >= 0")),
        })
    }

    /// A whole number of seconds (0 counts as 1) that the simulator clock
    /// can hold, rather than letting it wrap.
    fn secs(&mut self, flag: &str, default: SimDuration) -> Result<SimDuration, String> {
        self.get(flag, default, |v| {
            let secs = parse::<u64>(v)?.max(1);
            SimDuration::checked_from_secs(secs).ok_or_else(|| {
                format!(
                    "{secs} s does not fit the simulator clock (at most {} s)",
                    u64::MAX / 1_000_000_000
                )
            })
        })
    }

    /// `--provider`: one of `aws`, `azure`, `gcp`, or `all` three.
    fn providers(&mut self) -> Result<Vec<ProviderKind>, String> {
        self.get("--provider", vec![ProviderKind::Aws], |p| match p {
            "aws" => Ok(vec![ProviderKind::Aws]),
            "azure" => Ok(vec![ProviderKind::Azure]),
            "gcp" => Ok(vec![ProviderKind::Gcp]),
            "all" => Ok(vec![
                ProviderKind::Aws,
                ProviderKind::Azure,
                ProviderKind::Gcp,
            ]),
            p => Err(format!("unknown provider `{p}`")),
        })
    }

    /// The first `--provider`, for the single-provider commands.
    fn provider(&mut self) -> Result<ProviderKind, String> {
        Ok(self.providers()?[0])
    }

    /// `--memory`: a comma-separated list of sizes in MB.
    fn memories(&mut self) -> Result<Vec<u32>, String> {
        self.list("--memory", vec![512], parse)
    }

    /// The first `--memory`, for the single-config commands.
    fn memory(&mut self) -> Result<u32, String> {
        Ok(self.memories()?[0])
    }

    fn language(&mut self) -> Result<Language, String> {
        self.get("--language", Language::Python, |l| match l {
            "python" => Ok(Language::Python),
            "nodejs" => Ok(Language::NodeJs),
            l => Err(format!("unknown language `{l}`")),
        })
    }

    fn scale(&mut self) -> Result<Scale, String> {
        self.get("--scale", Scale::Test, |s| match s {
            "test" => Ok(Scale::Test),
            "small" => Ok(Scale::Small),
            "large" => Ok(Scale::Large),
            s => Err(format!("unknown scale `{s}`")),
        })
    }

    fn trigger(&mut self) -> Result<TriggerKind, String> {
        self.get("--trigger", TriggerKind::Http, |t| match t {
            "http" => Ok(TriggerKind::Http),
            "sdk" => Ok(TriggerKind::Sdk),
            "event" => Ok(TriggerKind::StorageEvent),
            "timer" => Ok(TriggerKind::Timer),
            t => Err(format!("unknown trigger `{t}`")),
        })
    }

    fn seed(&mut self) -> Result<u64, String> {
        self.num("--seed", 2021)
    }

    /// `--jobs`, clamped to at least 1; all cores by default.
    fn jobs(&mut self) -> Result<usize, String> {
        Ok(self.num("--jobs", available_jobs())?.max(1))
    }

    /// `--samples`: at least 1, since a summary needs a sample.
    fn samples(&mut self) -> Result<usize, String> {
        self.get("--samples", 30, |v| match parse(v)? {
            0 => Err("must be at least 1".to_string()),
            n => Ok(n),
        })
    }

    fn faults(&mut self) -> Result<FaultPlan, String> {
        self.get("--faults", FaultPlan::empty(), FaultPlan::parse)
    }

    /// `--retry`, `None` when absent: commands with their own default
    /// policy keep it then.
    fn retry(&mut self) -> Result<Option<RetryPolicy>, String> {
        self.get("--retry", None, |v| RetryPolicy::parse(v).map(Some))
    }
}

/// `v` parsed with [`str::parse`], its error as text.
fn parse<T: FromStr>(v: &str) -> Result<T, String>
where
    T::Err: Display,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum TraceFormat {
    #[default]
    Chrome,
    Table,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum MetricsFormat {
    #[default]
    Prom,
    Csv,
}

/// The export files a command was asked for.
#[derive(Debug, Default)]
struct Outputs {
    csv: Option<String>,
    json: Option<String>,
    trace: Option<String>,
    trace_format: TraceFormat,
    metrics: Option<String>,
    metrics_format: MetricsFormat,
}

impl Outputs {
    /// Takes the export flags among `--csv`, `--json`, `--trace` and
    /// `--metrics` that the command lists in `takes`, with the format flag
    /// of each of the last two.
    fn read(f: &mut Flags, takes: &[&str]) -> Result<Outputs, String> {
        let mut path = |flag: &str| {
            if takes.contains(&flag) {
                f.take(flag)
            } else {
                Ok(None)
            }
        };
        let mut out = Outputs {
            csv: path("--csv")?,
            json: path("--json")?,
            trace: path("--trace")?,
            metrics: path("--metrics")?,
            ..Outputs::default()
        };
        if takes.contains(&"--trace") {
            out.trace_format = f.get("--trace-format", TraceFormat::Chrome, |v| match v {
                "chrome" => Ok(TraceFormat::Chrome),
                "table" => Ok(TraceFormat::Table),
                v => Err(format!("unknown trace format `{v}`")),
            })?;
        }
        if takes.contains(&"--metrics") {
            out.metrics_format = f.get("--metrics-format", MetricsFormat::Prom, |v| match v {
                "prom" => Ok(MetricsFormat::Prom),
                "csv" => Ok(MetricsFormat::Csv),
                v => Err(format!("unknown metrics format `{v}`")),
            })?;
        }
        Ok(out)
    }

    /// Writes every requested export, in the order CSV, JSON, traces,
    /// metrics, and names each file on stdout.
    fn write(
        &self,
        rows: &ResultStore,
        traces: &TraceSink,
        metrics: &MetricsSink,
    ) -> Result<(), String> {
        let write = |path: &str, body: String| {
            std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))
        };
        if let Some(path) = &self.csv {
            write(path, sebs_metrics::csv::to_csv(rows.rows()))?;
            println!("wrote {} rows to {path}", rows.len());
        }
        if let Some(path) = &self.json {
            write(path, rows.to_json())?;
            println!("wrote {} rows to {path}", rows.len());
        }
        if let Some(path) = &self.trace {
            write(
                path,
                match self.trace_format {
                    TraceFormat::Chrome => chrome_trace_json(traces),
                    TraceFormat::Table => breakdown_table(traces),
                },
            )?;
            println!("wrote {} traces to {path}", traces.len());
        }
        if let Some(path) = &self.metrics {
            write(
                path,
                match self.metrics_format {
                    MetricsFormat::Prom => prometheus_text(metrics),
                    MetricsFormat::Csv => csv_timeseries(metrics),
                },
            )?;
            println!(
                "wrote metrics for {} platform(s) ({} sample points) to {path}",
                metrics.len(),
                metrics.point_count()
            );
        }
        Ok(())
    }
}

fn cmd_list(f: Flags) -> Result<(), String> {
    f.finish()?;
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

fn cmd_invoke(mut f: Flags) -> Result<(), String> {
    let benchmark = f.arg("invoke needs a benchmark name (try `sebs list`)")?;
    let (provider, memory, language, scale) =
        (f.provider()?, f.memory()?, f.language()?, f.scale()?);
    let repetitions: usize = f.num("--repetitions", 1)?;
    let (cold, trigger, retry) = (f.switch("--cold"), f.trigger()?, f.retry()?);
    let out = Outputs::read(&mut f, &["--trace", "--metrics"])?;
    let config = SuiteConfig::default()
        .with_seed(f.seed()?)
        .with_trace(out.trace.is_some())
        .with_metrics(out.metrics.is_some())
        .with_faults(f.faults()?)
        .with_retry(retry.clone().unwrap_or_default());
    f.finish()?;
    let mut suite = Suite::new(config);
    let handle = suite
        .deploy(provider, &benchmark, language, memory, scale)
        .map_err(|e| e.to_string())?;
    println!("deployed {benchmark} ({language}) on {provider} at {memory} MB");
    let resilient = retry.as_ref().is_some_and(|p| !p.is_none());
    for i in 0..repetitions.max(1) {
        if cold {
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
                suite.advance(provider, SimDuration::from_secs(1));
                continue;
            };
            last
        } else {
            suite
                .invoke_burst_via(&handle, 1, trigger)
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
        suite.advance(provider, SimDuration::from_secs(1));
    }
    let mut traces = TraceSink::new();
    traces.extend(suite.take_traces());
    traces.sort_canonical();
    out.write(&ResultStore::new(), &traces, &suite.take_metrics())
}

fn cmd_experiment(mut f: Flags) -> Result<(), String> {
    let name =
        f.arg("experiment needs a name: local | perf-cost | eviction-model | invocation-overhead")?;
    f.command = format!("experiment {name}");
    let seed = f.seed()?;
    match name.as_str() {
        "local" => {
            let (samples, scale) = (f.samples()?, f.scale()?);
            f.finish()?;
            for row in run_local_characterization(samples, scale, seed) {
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
            let (names, language) = (std::mem::take(&mut f.positional), f.language()?);
            let mut benchmarks: Vec<(&str, Language)> =
                names.iter().map(|b| (b.as_str(), language)).collect();
            if benchmarks.is_empty() {
                benchmarks.push(("graph-bfs", language));
            }
            let grid = ExperimentGrid::new(&benchmarks, &f.providers()?, &f.memories()?);
            let (scale, jobs) = (f.scale()?, f.jobs()?);
            let out = Outputs::read(&mut f, &["--csv", "--json", "--trace", "--metrics"])?;
            let config = SuiteConfig::default()
                .with_seed(seed)
                .with_samples(f.samples()?)
                .with_jobs(jobs)
                .with_trace(out.trace.is_some())
                .with_metrics(out.metrics.is_some());
            f.finish()?;
            let result = run_perf_cost_grid(&config, &grid, scale, &ParallelRunner::new(jobs));
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
            out.write(&result.to_store(), &result.traces, &result.metrics)?;
        }
        "eviction-model" => {
            let provider = f.provider()?;
            f.finish()?;
            let mut suite = Suite::new(SuiteConfig::default().with_seed(seed));
            let result = run_eviction_model(
                &mut suite,
                EvictionExperimentConfig::paper_default(provider),
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
            let (provider, samples) = (f.provider()?, f.samples()?);
            f.finish()?;
            let mut suite = Suite::new(SuiteConfig::default().with_seed(seed));
            let result = run_invocation_overhead(
                &mut suite,
                provider,
                &sebs::experiments::invocation_overhead::paper_payload_sizes(),
                (samples / 5).max(2),
            );
            println!(
                "clock sync: offset {:.3} s after {} exchanges (converged: {})",
                result.sync.offset_secs, result.sync.exchanges, result.sync.converged
            );
            for (label, fit) in [("warm", result.warm_fit), ("cold", result.cold_fit)] {
                if let Some(fit) = fit {
                    println!(
                        "{label}: overhead = {:.1} ms + {:.1} ms/MB, adj R^2 = {:.3}",
                        fit.intercept,
                        fit.slope * 1e6,
                        fit.adjusted_r_squared
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
fn cmd_availability(mut f: Flags) -> Result<(), String> {
    let benchmark = f.arg("availability needs a benchmark name (try `sebs list`)")?;
    let (provider, memory, language, scale) =
        (f.provider()?, f.memory()?, f.language()?, f.scale()?);
    let (fault_rates, policies) = availability_axes(&mut f)?;
    let out = Outputs::read(&mut f, &["--csv", "--json", "--trace", "--metrics"])?;
    let config = SuiteConfig::default()
        .with_seed(f.seed()?)
        .with_samples(f.samples()?)
        .with_jobs(f.jobs()?)
        .with_trace(out.trace.is_some())
        .with_metrics(out.metrics.is_some())
        .with_faults(f.faults()?);
    f.finish()?;
    let suite = Suite::new(config);
    let result = run_availability(
        &suite,
        &benchmark,
        language,
        provider,
        memory,
        scale,
        &fault_rates,
        &policies,
    );
    if result.series.is_empty() {
        return Err(format!("{provider} rejects {benchmark} at {memory} MB"));
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
    out.write(&result.to_store(), &result.traces, &result.metrics)
}

/// The availability sweep's axes: the `--fault-rates` to sweep, and the
/// default no-retry versus backoff-3 columns or no-retry against exactly
/// the `--retry` policy.
fn availability_axes(f: &mut Flags) -> Result<(Vec<f64>, Vec<LabeledPolicy>), String> {
    let rates = f.rates("--fault-rates", vec![0.0, 0.05, 0.25])?;
    let policies = match f.retry()? {
        None => LabeledPolicy::default_sweep(),
        Some(policy) => vec![
            LabeledPolicy::new("no-retry", RetryPolicy::none()),
            LabeledPolicy::new("retry", policy),
        ],
    };
    Ok((rates, policies))
}

/// The cluster sweep the flags describe: [`ClusterSweepConfig::new`]'s
/// value for every flag left out, and every given value honoured, with
/// the fleet clamped to 200 functions and 50,000 invocations. `--retry`
/// replaces the default `backoff(3)` policy whenever it is given, even
/// when it parses to [`RetryPolicy::none`].
fn cluster_sweep(f: &mut Flags) -> Result<ClusterSweepConfig, String> {
    let mut s = ClusterSweepConfig::new(f.provider()?);
    s.hosts = f.num("--hosts", s.hosts)?.max(1);
    s.host_cpus = f.num("--cpus", s.host_cpus)?.max(1);
    s.queue_depth = f.num("--queue", s.queue_depth)?;
    s.contention = f.non_negative("--contention", s.contention)?;
    s.functions = f.num("--functions", s.functions)?.clamp(1, 200);
    s.target_invocations = f
        .num("--invocations", s.target_invocations)?
        .clamp(1, 50_000);
    s.horizon = f.secs("--horizon-secs", s.horizon)?;
    s.zipf_exponent = f.non_negative("--zipf", s.zipf_exponent)?;
    s.schedulers = f.list("--schedulers", s.schedulers, SchedulerKind::parse)?;
    s.keepalives = f.list("--keepalives", s.keepalives, KeepAliveKind::parse)?;
    s.host_fault_rates = f.rates("--host-fault-rates", s.host_fault_rates)?;
    s.retry = f.retry()?.unwrap_or(s.retry);
    Ok(s)
}

/// Runs the scheduler × keep-alive × host-fault sweep on a multi-host
/// region and prints one line per cell plus the Pareto breakdown.
/// Stdout and every export are byte-identical for any `--jobs`.
fn cmd_cluster(mut f: Flags) -> Result<(), String> {
    let sweep = cluster_sweep(&mut f)?;
    let out = Outputs::read(&mut f, &["--csv", "--json", "--trace"])?;
    let seed = f.seed()?;
    let config = SuiteConfig::default()
        .with_seed(seed)
        .with_jobs(f.jobs()?)
        .with_trace(out.trace.is_some());
    f.finish()?;
    let model = sweep.synthetic_model(seed);
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
        sweep.provider,
        result.series.len(),
        result.series.iter().map(|s| s.chains).sum::<usize>(),
    );
    out.write(&result.to_store(), &result.traces, &MetricsSink::new())
}

/// The flags `fleet` and `report` share: the suite's seed, jobs and
/// metrics interval, the fleet knobs ([`FleetConfig::new`]'s value for
/// each one left out) and the `--import` path.
fn fleet_flags(f: &mut Flags) -> Result<(SuiteConfig, FleetConfig, Option<String>), String> {
    let config = SuiteConfig::default()
        .with_seed(f.seed()?)
        .with_jobs(f.jobs()?)
        .with_metrics_interval(f.secs("--metrics-interval-secs", SimDuration::from_secs(60))?);
    let mut fleet = FleetConfig::new(f.provider()?);
    fleet.functions = f.num("--functions", fleet.functions)?.max(1);
    fleet.target_invocations = f.num("--invocations", fleet.target_invocations)?.max(1);
    fleet.horizon = f.secs("--horizon-secs", fleet.horizon)?;
    fleet.zipf_exponent = f.non_negative("--zipf", fleet.zipf_exponent)?;
    fleet.cells = f.num("--cells", fleet.cells)?.max(1);
    Ok((config, fleet, f.take("--import")?))
}

/// Builds the trace model for `fleet`, resolving `--import`: an imported
/// trace brings its own fleet size and horizon. Progress notes go to
/// stderr so stdout stays byte-stable for the determinism matrix.
///
/// # Errors
///
/// Fails when the import cannot be read or parsed, or names a function
/// the provider refuses to deploy.
fn fleet_model(
    mut fleet: FleetConfig,
    import: Option<&str>,
    seed: u64,
) -> Result<(FleetConfig, TraceModel), String> {
    let imported = match import {
        Some(path) => sebs_workload_gen::import_csv(std::path::Path::new(path), None)
            .map_err(|e| e.to_string())?,
        None => None,
    };
    let model = match imported {
        Some(m) => {
            fleet.functions = m.functions.len();
            fleet.horizon = m.horizon;
            eprintln!(
                "imported {} function(s) over {} from {}",
                m.functions.len(),
                m.horizon,
                import.unwrap_or_default()
            );
            check_deployable(fleet.provider, &m)?;
            m
        }
        None => {
            if let Some(path) = import {
                eprintln!("trace {path} not found; using the synthetic Azure-2019-shaped fleet");
            }
            fleet.synthetic_model(seed)
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
fn cmd_fleet(mut f: Flags) -> Result<(), String> {
    let (config, fleet, import) = fleet_flags(&mut f)?;
    let out = Outputs::read(&mut f, &["--csv", "--json", "--trace", "--metrics"])?;
    f.finish()?;
    let config = config
        .with_trace(out.trace.is_some())
        .with_metrics(out.metrics.is_some());
    let (fleet, model) = fleet_model(fleet, import.as_deref(), config.seed)?;
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
        fleet.provider,
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
    out.write(&result.to_store(), &result.traces, &result.metrics)
}

/// Runs the fleet replay with bounded observability always on — metrics,
/// sampled exemplar traces and the phase profiler — and renders one
/// self-contained report document. The rendered bytes are identical for
/// every `--jobs` value.
fn cmd_report(mut f: Flags) -> Result<(), String> {
    let (config, fleet, import) = fleet_flags(&mut f)?;
    let out = f.take("--out")?;
    let format = f.get("--format", ReportFormat::Markdown, |v| {
        ReportFormat::parse(v).ok_or_else(|| format!("unknown report format `{v}`"))
    })?;
    f.finish()?;
    let config = config
        .with_metrics(true)
        .with_trace_sampling(SamplerSpec::fleet_default())
        .with_profile(true);
    let (fleet, model) = fleet_model(fleet, import.as_deref(), config.seed)?;
    let result = run_fleet(&config, &fleet, &model);
    let rendered = fleet_report(&config, &fleet, &result).render(format);
    match &out {
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

    /// The flags of `sebs <command> <line>`, split at whitespace.
    fn flags(command: &str, line: &str) -> Flags {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Flags::new(command, &args)
    }

    impl Flags {
        /// Adds `flag value` verbatim, for values holding spaces or paths.
        fn with(mut self, flag: &str, value: &str) -> Flags {
            self.pairs.push((flag.to_string(), Some(value.to_string())));
            self
        }
    }

    /// A file path in the temp directory, private to this test process.
    fn temp(name: &str) -> String {
        let path = std::env::temp_dir().join(format!("sebs-cli-{}-{name}", std::process::id()));
        path.to_str().unwrap().to_string()
    }

    /// Reads and removes the file at `path`.
    fn take_file(path: &str) -> String {
        let body = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        body
    }

    const ALL_OUTPUTS: &[&str] = &["--csv", "--json", "--trace", "--metrics"];
    type Command = fn(Flags) -> Result<(), String>;

    #[test]
    fn defaults() {
        let mut f = flags("invoke", "");
        assert_eq!(f.providers().unwrap(), vec![ProviderKind::Aws]);
        assert_eq!(f.provider().unwrap(), ProviderKind::Aws);
        assert_eq!(
            (f.memories().unwrap(), f.memory().unwrap()),
            (vec![512], 512)
        );
        assert_eq!(f.language().unwrap(), Language::Python);
        assert_eq!(f.scale().unwrap(), Scale::Test);
        assert_eq!(f.trigger().unwrap(), TriggerKind::Http);
        assert_eq!((f.seed().unwrap(), f.samples().unwrap()), (2021, 30));
        assert_eq!(f.jobs().unwrap(), available_jobs());
        assert!(!f.switch("--cold"));
        let out = Outputs::read(&mut f, ALL_OUTPUTS).unwrap();
        assert!(out.csv.is_none() && out.json.is_none());
        assert!(out.trace.is_none() && out.metrics.is_none());
        assert_eq!(out.trace_format, TraceFormat::Chrome);
        assert_eq!(out.metrics_format, MetricsFormat::Prom);
        f.finish().unwrap();
    }

    #[test]
    fn full_flag_set() {
        let mut f = flags(
            "any",
            "graph-bfs --provider gcp --memory 2048 --language nodejs --scale small \
             --repetitions 7 --cold --trigger sdk --samples 99 --seed 5 --jobs 3 --csv a.csv \
             --json b.json --trace t.json --trace-format table --metrics m.csv \
             --metrics-format csv",
        );
        assert_eq!(f.arg("a benchmark").unwrap(), "graph-bfs");
        assert_eq!(f.providers().unwrap(), vec![ProviderKind::Gcp]);
        assert_eq!(f.memories().unwrap(), vec![2048]);
        assert_eq!(f.language().unwrap(), Language::NodeJs);
        assert_eq!(f.scale().unwrap(), Scale::Small);
        assert_eq!(f.num::<usize>("--repetitions", 1).unwrap(), 7);
        assert!(f.switch("--cold"));
        assert_eq!(f.trigger().unwrap(), TriggerKind::Sdk);
        assert_eq!((f.samples().unwrap(), f.seed().unwrap()), (99, 5));
        assert_eq!(f.jobs().unwrap(), 3);
        let out = Outputs::read(&mut f, ALL_OUTPUTS).unwrap();
        assert_eq!(
            (out.csv.unwrap(), out.json.unwrap()),
            ("a.csv".into(), "b.json".into())
        );
        assert_eq!(out.trace.as_deref(), Some("t.json"));
        assert_eq!(out.trace_format, TraceFormat::Table);
        assert_eq!(out.metrics.as_deref(), Some("m.csv"));
        assert_eq!(out.metrics_format, MetricsFormat::Csv);
        f.finish().unwrap();

        // `invoke` takes every flag it documents, and honours the formats.
        let (trace, metrics) = (temp("full-trace.txt"), temp("full-metrics.csv"));
        let line = "dynamic-html --provider gcp --memory 256 --language nodejs --scale small \
                    --repetitions 2 --cold --trigger sdk --seed 5 --faults crash=0.1 \
                    --retry attempts=2 --trace-format table --metrics-format csv";
        let f = flags("invoke", line).with("--trace", &trace);
        cmd_invoke(f.with("--metrics", &metrics)).unwrap();
        assert!(take_file(&trace).starts_with("Latency breakdown"));
        let metrics = take_file(&metrics);
        assert!(
            metrics.starts_with("t_secs,cell,provider,metric"),
            "{metrics}"
        );
        assert!(metrics.contains(",gcp,"), "run on the given provider");
    }

    #[test]
    fn errors_are_descriptive() {
        let err = |line: &str, read: fn(&mut Flags) -> Result<(), String>| {
            read(&mut flags("any", line)).unwrap_err()
        };
        assert!(err("--provider ibm", |f| f.providers().map(drop)).contains("ibm"));
        assert!(err("--memory lots", |f| f.memories().map(drop)).contains("--memory"));
        assert!(err("--memory", |f| f.memories().map(drop)).contains("needs a value"));
        assert!(err("--language cobol", |f| f.language().map(drop)).contains("cobol"));
        assert!(err("--scale huge", |f| f.scale().map(drop)).contains("huge"));
        let trigger = err("--trigger carrier-pigeon", |f| f.trigger().map(drop));
        assert!(trigger.contains("carrier-pigeon"));
        let outputs = |f: &mut Flags| Outputs::read(f, ALL_OUTPUTS).map(drop);
        assert!(err("--trace-format flamegraph", outputs).contains("flamegraph"));
        assert!(err("--metrics-format influx", outputs).contains("influx"));
        assert!(err("--metrics", outputs).contains("needs a value"));
        let unknown = flags("fleet", "--frobnicate").finish().unwrap_err();
        assert_eq!(unknown, "`sebs fleet` does not take --frobnicate");
    }

    #[test]
    fn positionals_accumulate_in_order() {
        let mut f = flags("experiment", "experiment-name benchmark-name");
        assert_eq!(f.arg("none left").unwrap(), "experiment-name");
        assert_eq!(f.arg("none left").unwrap(), "benchmark-name");
        assert_eq!(f.arg("none left").unwrap_err(), "none left");
        f.finish().unwrap();
        let stray = flags("cluster", "stray").finish().unwrap_err();
        assert_eq!(stray, "`sebs cluster` does not take `stray`");
    }

    #[test]
    fn provider_all_expands_to_every_provider() {
        let all = flags("any", "--provider all").providers().unwrap();
        assert_eq!(
            all,
            [ProviderKind::Aws, ProviderKind::Azure, ProviderKind::Gcp]
        );
        let first = flags("any", "--provider all").provider().unwrap();
        assert_eq!(first, ProviderKind::Aws, "first provider wins");
    }

    #[test]
    fn memory_accepts_a_comma_separated_list() {
        let list = || flags("any", "").with("--memory", "128, 512,1024");
        assert_eq!(list().memories().unwrap(), vec![128, 512, 1024]);
        assert_eq!(list().memory().unwrap(), 128, "first size wins");
        let bad = flags("any", "--memory 128,big").memories().unwrap_err();
        assert!(bad.contains("--memory"), "{bad}");
    }

    #[test]
    fn resilience_flags_default_to_no_ops() {
        let mut f = flags("availability", "");
        assert!(f.faults().unwrap().is_empty());
        assert!(f.retry().unwrap().is_none());
        let (rates, policies) = availability_axes(&mut f).unwrap();
        assert_eq!(rates, vec![0.0, 0.05, 0.25]);
        assert_eq!(policies, LabeledPolicy::default_sweep());
    }

    #[test]
    fn cluster_honours_every_retry_key() {
        let spec = "attempts=3,hedge=0.9,breaker=5@30000";
        let line = format!(
            "--retry {spec} --functions 2 --invocations 20 --horizon-secs 60 \
             --schedulers least-loaded --keepalives provider --host-fault-rates 0 --jobs 1"
        );
        let sweep = cluster_sweep(&mut flags("cluster", &line)).unwrap();
        assert_eq!(sweep.retry, RetryPolicy::parse(spec).unwrap());
        cmd_cluster(flags("cluster", &line)).expect("the cluster runs hedges and the breaker");
    }

    #[test]
    fn retry_attempts_one_replaces_the_default_policies() {
        // `attempts=1` parses to exactly `RetryPolicy::none()`; it must
        // still replace each command's default policy.
        let once = || flags("any", "--retry attempts=1");
        assert_eq!(once().retry().unwrap(), Some(RetryPolicy::none()));
        let sweep = cluster_sweep(&mut once()).unwrap();
        assert!(sweep.retry.is_none(), "no cluster retries");
        let (_, policies) = availability_axes(&mut once()).unwrap();
        assert_eq!(policies.len(), 2);
        assert!(policies.iter().all(|p| p.policy.is_none()));
        // Without `--retry` the defaults stay.
        let sweep = cluster_sweep(&mut flags("cluster", "")).unwrap();
        assert_eq!(sweep.retry, RetryPolicy::backoff(3));
        let (_, policies) = availability_axes(&mut flags("availability", "")).unwrap();
        assert_eq!(policies, LabeledPolicy::default_sweep());
    }

    #[test]
    fn faults_and_retry_specs_parse() {
        let mut f = flags(
            "availability",
            "--faults crash=0.05,storage=0.02,outage=10..20@1.0 \
             --retry attempts=3,base=50,jitter=0.5",
        )
        .with("--fault-rates", "0, 0.1,0.5");
        let faults = f.faults().unwrap();
        assert_eq!(faults.sandbox_crash_rate, 0.05);
        assert_eq!(faults.storage_error_rate, 0.02);
        assert_eq!(faults.outages.len(), 1);
        let retry = f.retry().unwrap().expect("--retry was given");
        assert_eq!((retry.max_attempts, retry.jitter), (3, 0.5));
        assert_eq!(availability_axes(&mut f).unwrap().0, vec![0.0, 0.1, 0.5]);
        f.finish().unwrap();
    }

    #[test]
    fn bad_resilience_specs_are_rejected() {
        let faults = |line| flags("any", line).faults().unwrap_err();
        assert!(faults("--faults crash=2.0").contains("--faults"));
        assert!(faults("--faults").contains("needs a value"));
        let outage = faults("--faults outage=0..inf@1");
        assert!(outage.contains("--faults") && outage.contains("outage window end inf s"));
        let retry = flags("any", "--retry attempts=0").retry().unwrap_err();
        assert!(retry.contains("--retry"), "{retry}");
        let rates = |list| availability_axes(&mut flags("any", list)).unwrap_err();
        assert!(rates("--fault-rates 0.1,big").contains("--fault-rates"));
        assert!(rates("--fault-rates 1.5").contains("outside [0, 1]"));
        assert!(rates("--fault-rates NaN").contains("outside [0, 1]"));
    }

    #[test]
    fn fleet_flags_parse_with_defaults_and_overrides() {
        let (config, fleet, import) = fleet_flags(&mut flags("fleet", "")).unwrap();
        assert_eq!(fleet, FleetConfig::new(ProviderKind::Aws));
        assert_eq!((fleet.functions, fleet.target_invocations), (1000, 100_000));
        assert_eq!(fleet.horizon, SimDuration::from_secs(7200));
        assert_eq!((fleet.zipf_exponent, fleet.cells, import), (1.1, 16, None));
        assert_eq!(config.metrics_interval, SimDuration::from_secs(60));
        let mut f = flags(
            "fleet",
            "--functions 250 --invocations 5000 --horizon-secs 600 --zipf 0.9 --cells 4 \
             --import trace.csv --metrics-interval-secs 10 --provider gcp",
        );
        let (config, fleet, import) = fleet_flags(&mut f).unwrap();
        f.finish().unwrap();
        assert_eq!(fleet.provider, ProviderKind::Gcp);
        assert_eq!((fleet.functions, fleet.target_invocations), (250, 5000));
        assert_eq!(fleet.horizon, SimDuration::from_secs(600));
        assert_eq!((fleet.zipf_exponent, fleet.cells), (0.9, 4));
        assert_eq!(import.as_deref(), Some("trace.csv"));
        assert_eq!(config.metrics_interval, SimDuration::from_secs(10));
        let fleet = |line| fleet_flags(&mut flags("fleet", line)).map(|(_, f, _)| f);
        assert_eq!(fleet("--cells 0").unwrap().cells, 1, "clamped up");
        assert!(fleet("--zipf -1").unwrap_err().contains("--zipf"));
        assert!(fleet("--functions many")
            .unwrap_err()
            .contains("--functions"));
    }

    #[test]
    fn fleet_rejects_an_imported_function_the_provider_cannot_deploy() {
        // Resolves `--import` of a CSV holding `rows`, as `fleet` does.
        let import = |tag: &str, rows: &str| {
            let path = temp(&format!("import-{tag}.csv"));
            let csv = format!("function,offset_ms,duration_ms,memory_mb\n{rows}");
            std::fs::write(&path, csv).unwrap();
            let mut f = flags("fleet", "--cells 2").with("--import", &path);
            let (config, fleet, import) = fleet_flags(&mut f).unwrap();
            let result = fleet_model(fleet, import.as_deref(), config.seed);
            std::fs::remove_file(&path).unwrap();
            result
        };
        let rows = "a,0,100,128\nb,10,100,128\nc,20,100,64\nd,30,100,256\ne,40,100,128\n";
        let err = import("bad", rows).unwrap_err();
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
        type Read = fn(&str) -> Result<(), String>;
        let fleet: Read = |line| fleet_flags(&mut flags("fleet", line)).map(drop);
        let sweep: Read = |line| cluster_sweep(&mut flags("cluster", line)).map(drop);
        for (read, flag, prefix) in [
            (fleet, "--horizon-secs", ""),
            (fleet, "--metrics-interval-secs", ""),
            (sweep, "--horizon-secs", ""),
            (sweep, "--keepalives", "fixed-"),
        ] {
            read(&format!("{flag} {prefix}{max}")).unwrap();
            let err = read(&format!("{flag} {prefix}{}", max + 1)).unwrap_err();
            assert!(err.contains(flag) && err.contains("does not fit"), "{err}");
        }
        sweep("--retry deadline=18446744073709").unwrap();
        let err = sweep("--retry deadline=18446744073710").unwrap_err();
        assert!(err.contains("--retry") && err.contains("deadline"), "{err}");
        // The largest accepted horizon and interval replay and render the
        // report without overflowing the clock.
        let out = temp("max.md");
        let line = format!(
            "--horizon-secs {max} --metrics-interval-secs {max} --functions 3 --invocations 30 \
             --cells 1 --jobs 1"
        );
        cmd_report(flags("report", &line).with("--out", &out)).unwrap();
        assert!(
            take_file(&out).contains("18446744073"),
            "the horizon is reported"
        );
    }

    #[test]
    fn report_flags_parse() {
        let render = |tag: &str, format: &str| {
            let out = temp(tag);
            let line =
                format!("--functions 3 --invocations 30 --horizon-secs 60 --jobs 1 {format}");
            cmd_report(flags("report", &line).with("--out", &out)).unwrap();
            take_file(&out)
        };
        let markdown = render("default.md", "");
        assert!(markdown.starts_with("# SeBS fleet report"), "{markdown}");
        assert_eq!(render("named.md", "--format markdown"), markdown);
        assert!(render("page.html", "--format html").starts_with("<!DOCTYPE html>"));
        let err = |line| cmd_report(flags("report", line)).unwrap_err();
        assert!(err("--format pdf").contains("pdf"));
        assert!(err("--out").contains("needs a value"));
    }

    #[test]
    fn jobs_parse_and_clamp() {
        let jobs = |line| flags("any", line).jobs();
        assert_eq!(jobs("--jobs 8").unwrap(), 8);
        assert_eq!(jobs("--jobs 0").unwrap(), 1, "clamped up");
        assert!(jobs("--jobs many").unwrap_err().contains("--jobs"));
        assert_eq!(jobs("--jobs 2 --jobs 5").unwrap(), 5, "the last one wins");
    }

    #[test]
    fn a_flag_the_command_does_not_take_is_rejected_naming_both() {
        let cases: [(Command, &str, &str, &str); 6] = [
            (
                cmd_cluster,
                "cluster",
                "--metrics m.prom",
                "cluster` does not take --metrics",
            ),
            (
                cmd_cluster,
                "cluster",
                "--memory 256",
                "cluster` does not take --memory",
            ),
            (
                cmd_report,
                "report",
                "--trace t.json",
                "report` does not take --trace",
            ),
            (
                cmd_invoke,
                "invoke",
                "thumbnailer --csv x.csv",
                "invoke` does not take --csv",
            ),
            (
                cmd_experiment,
                "experiment",
                "perf-cost graph-bfs --faults crash=0.9",
                "experiment perf-cost` does not take --faults",
            ),
            (cmd_list, "list", "--cold", "list` does not take --cold"),
        ];
        for (command, name, line, err) in cases {
            assert_eq!(command(flags(name, line)), Err(format!("`sebs {err}")));
        }
    }

    #[test]
    fn cluster_sizing_flags_keep_the_sweep_defaults_independently() {
        let sweep = |line| cluster_sweep(&mut flags("cluster", line)).unwrap();
        let default = ClusterSweepConfig::new(ProviderKind::Aws);
        assert_eq!(sweep(""), default);
        let size = |s: ClusterSweepConfig| (s.functions, s.target_invocations, s.horizon);
        let (functions, invocations, horizon) = size(default);
        assert_eq!(size(sweep("--functions 1000")), (200, invocations, horizon));
        assert_eq!(
            size(sweep("--invocations 100000")),
            (functions, 50_000, horizon)
        );
        let hours = (functions, invocations, SimDuration::from_secs(7200));
        assert_eq!(size(sweep("--horizon-secs 7200")), hours);
    }

    #[test]
    fn a_queue_that_overflows_cpus_plus_queue_in_u32_still_admits() {
        // 4 CPUs + a 4294967292-deep queue is 2^32 slots per host: the
        // whole replay is served, not shed as if no host had room.
        let json = temp("huge-queue.json");
        let line = "--cpus 4 --functions 24 --invocations 2400 --schedulers least-loaded \
                    --keepalives provider --host-fault-rates 0 --queue 4294967292 --jobs 1";
        cmd_cluster(flags("cluster", line).with("--json", &json)).unwrap();
        let store = ResultStore::from_json(&take_file(&json)).unwrap();
        let metric = |name: &str| {
            let row = store.rows().iter().find(|m| m.metric == name);
            row.unwrap().value
        };
        assert_eq!(metric("chains"), 3526.0);
        assert_eq!(metric("shed"), 0.0);
        assert_eq!(metric("effective_availability"), 1.0);
    }

    #[test]
    fn zero_samples_are_rejected_by_every_command_that_takes_them() {
        let cases: [(Command, &str, &str); 4] = [
            (cmd_experiment, "experiment", "perf-cost"),
            (cmd_experiment, "experiment", "local"),
            (cmd_experiment, "experiment", "invocation-overhead"),
            (cmd_availability, "availability", "dynamic-html"),
        ];
        for (command, name, arg) in cases {
            let err = command(flags(name, &format!("{arg} --samples 0"))).unwrap_err();
            assert_eq!(err, "bad --samples: must be at least 1", "{name} {arg}");
        }
        assert_eq!(flags("any", "--samples 1").samples().unwrap(), 1);
    }
}
