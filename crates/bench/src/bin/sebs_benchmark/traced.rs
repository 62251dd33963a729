//! The traced pass: mirrors of the three replay loops (`run_fleet`,
//! `run_cluster`, `run_perf_cost_grid`) that record a span around every
//! call they make into a layer's public API, with every [`Workload`]
//! wrapped in a timing decorator. It runs at one worker, in a process of
//! its own, and must reproduce the untraced result bit-for-bit — which
//! also proves the mirrors still match the loops they copy.

use std::collections::BTreeMap;

use sebs::experiments::cluster::{cluster_cells, ClusterCell};
use sebs::experiments::{
    ClusterSeries, ClusterSweepConfig, ClusterSweepResult, FleetCellSeries, FleetConfig,
    FleetResult, PerfCostResult, PerfCostSeries,
};
use sebs::{fleet_report, ExperimentGrid, GridCell, ReportFormat, SuiteConfig};
use sebs_cluster::{ClusterConfig, ClusterPlatform};
use sebs_metrics::QuantileSketch;
use sebs_platform::{
    FaasPlatform, FunctionConfig, FunctionId, InvocationOutcome, InvocationRecord, ProviderKind,
    ProviderProfile, StartKind, TriggerKind,
};
use sebs_sim::{Phase, PhaseProfiler, SimDuration, SimRng, SimTime, StreamRng};
use sebs_stats::median_ci;
use sebs_storage::ObjectStorage;
use sebs_telemetry::MetricsSink;
use sebs_trace::TraceSink;
use sebs_workload_gen::{Arrival, SyntheticFunction, TraceModel};
use sebs_workloads::{
    workload_by_name, InvocationCtx, Payload, Response, Scale, Workload, WorkloadError,
    WorkloadSpec,
};

use crate::spans::{now_ns, Recorder};
use crate::workloads::{Checks, Output, Setup, BENCHES};

/// Occupancy samples per horizon, as in the replay loops.
const OCCUPANCY_SAMPLES: u64 = 64;

/// Times every `execute` of the wrapped workload as a `workloads.execute`
/// span (plus an optional per-benchmark aggregate) and counts the storage
/// requests and bytes the kernel reported.
struct Timed<'a, W: ?Sized> {
    inner: &'a W,
    rec: &'a Recorder,
    /// Extra aggregate for this workload's `execute` calls.
    key: Option<String>,
}

impl<W: Workload + ?Sized> Workload for Timed<'_, W> {
    fn spec(&self) -> WorkloadSpec {
        self.inner.spec()
    }

    fn prepare(
        &self,
        scale: Scale,
        rng: &mut StreamRng,
        storage: &mut dyn ObjectStorage,
    ) -> Payload {
        self.inner.prepare(scale, rng, storage)
    }

    fn execute(
        &self,
        payload: &Payload,
        ctx: &mut InvocationCtx<'_>,
    ) -> Result<Response, WorkloadError> {
        self.rec.open_at("workloads.execute", 1, now_ns());
        let out = self.inner.execute(payload, ctx);
        let self_ns = self.rec.close_at(now_ns());
        if let Some(key) = &self.key {
            self.rec.observe(key, self_ns);
        }
        let c = ctx.counters();
        self.rec.count("storage.requests", c.storage_requests);
        self.rec.count(
            "storage.bytes",
            c.storage_bytes_read + c.storage_bytes_written,
        );
        out
    }
}

/// What the traced pass measured besides the recorder's spans.
pub struct Pass {
    /// The mirror's result; must equal the untraced repetition's.
    pub output: Output,
    /// Host time of the traced replay (ns).
    pub wall_ns: u64,
    /// Host time of each experiment cell (ns), in cell order.
    pub cell_ns: Vec<u64>,
}

/// Replays `setup` through its mirror with spans on, at one worker.
pub fn run(setup: &Setup, rec: &Recorder, checks: &mut Checks) -> Pass {
    let start = now_ns();
    let mut cell_ns = Vec::new();
    let output = match setup {
        Setup::Fleet {
            config,
            fleet,
            model,
            report,
        } => {
            let result = fleet_mirror(rec, config, fleet, model, &mut cell_ns);
            let report = report.then(|| {
                rec.time("core.report.render", || {
                    fleet_report(config, fleet, &result).render(ReportFormat::Markdown)
                })
            });
            Output::Fleet { result, report }
        }
        Setup::Cluster {
            config,
            sweep,
            model,
        } => Output::Cluster(cluster_mirror(rec, config, sweep, model, &mut cell_ns)),
        Setup::Suite { config, grid } => {
            Output::Suite(suite_mirror(rec, config, grid, &mut cell_ns, checks))
        }
    };
    rec.time("metrics.export", || output.canonical());
    Pass {
        output,
        wall_ns: now_ns().saturating_sub(start),
        cell_ns,
    }
}

/// The per-layer metrics of one traced pass. `plain` is the recorder of
/// an observability-off pass over the same trace (fleet-observed only).
pub fn layer_metrics(
    rec: &Recorder,
    plain: Option<&Recorder>,
    pass: &Pass,
    reference: &Output,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    let agg = |name: &str| rec.agg(name);

    put(
        "workload-gen.generate_ms",
        rec.self_ms("workload-gen.generate"),
    );
    for (span, prefix) in [
        ("platform.invoke", "platform.invoke_self"),
        ("workloads.execute", "workloads.execute"),
        ("cluster.invoke_resilient", "cluster.invoke_resilient_self"),
    ] {
        let a = agg(span);
        put(
            &format!("{prefix}_ns_p50"),
            a.as_ref().map_or(0.0, |a| a.p50_ns()),
        );
        put(
            &format!("{prefix}_ns_tail"),
            a.as_ref().map_or(0.0, |a| a.tail_ns()),
        );
        put(
            &format!("{span}_calls"),
            a.as_ref().map_or(0.0, |a| a.calls as f64),
        );
        put(&format!("{span}_ms"), rec.self_ms(span));
    }
    for span in [
        "platform.advance",
        "platform.observe_pool",
        "platform.deploy",
        "platform.take_metrics",
        "platform.take_traces",
        "storage.prepare",
        "telemetry.merge",
        "trace.merge",
        "core.report.render",
        "cluster.advance",
        "cluster.sync_clocks",
        "cluster.observe_pool",
        "cluster.deploy",
        "metrics.export",
    ] {
        put(&format!("{span}_ms"), rec.self_ms(span));
    }
    for bench in BENCHES {
        let p50 = agg(&format!("workloads.{bench}.execute")).map_or(0.0, |a| a.p50_ns());
        put(&format!("workloads.{bench}.execute_us_p50"), p50 / 1e3);
    }
    put("storage.requests", rec.counter("storage.requests") as f64);
    put("storage.bytes", rec.counter("storage.bytes") as f64);

    let cells: u64 = pass.cell_ns.iter().sum();
    let max_cell = pass.cell_ns.iter().copied().max().unwrap_or(0);
    put(
        "core.runner.max_cell_share",
        if cells == 0 {
            0.0
        } else {
            max_cell as f64 / cells as f64
        },
    );

    let per_invoke = |r: &Recorder| {
        r.agg("platform.invoke")
            .filter(|a| a.calls > 0)
            .map_or(0.0, |a| a.self_ns as f64 / a.calls as f64)
    };
    put(
        "telemetry.invoke_overhead_ns",
        plain.map_or(0.0, |p| per_invoke(rec) - per_invoke(p)),
    );

    let (kept, series) = match &pass.output {
        Output::Fleet { result, .. } => (result.traces.len(), telemetry_series(&result.metrics)),
        Output::Cluster(r) => (r.traces.len(), 0),
        Output::Suite(r) => (r.traces.len(), telemetry_series(&r.metrics)),
    };
    put("trace.kept", kept as f64);
    put("telemetry.series", series as f64);

    let (attempts, hops, shed, crashes) = match &pass.output {
        Output::Cluster(r) => r.series.iter().fold((0, 0, 0, 0), |acc, s| {
            (
                acc.0 + s.attempts as u64,
                acc.1 + s.failover_hops,
                acc.2 + s.shed,
                acc.3 + s.crashes,
            )
        }),
        // Without a retry policy every request is exactly one attempt.
        other => (other.requests(), 0, 0, 0),
    };
    let requests = pass.output.requests();
    put(
        "resilience.attempts_per_chain",
        attempts as f64 / requests.max(1) as f64,
    );
    put("cluster.failover_hops", hops as f64);
    put("cluster.shed", shed as f64);
    put("cluster.crashes", crashes as f64);

    for (name, v) in reference.sim_metrics() {
        put(name, v);
    }
    put(
        "traced.requests_per_s",
        requests as f64 / (pass.wall_ns.max(1) as f64 / 1e9),
    );
    m
}

fn telemetry_series(sink: &MetricsSink) -> usize {
    sink.chunks()
        .iter()
        .map(|c| c.counters.len() + c.gauges.len() + c.histograms.len())
        .sum()
}

/// FNV-1a over a function name: `run_fleet`'s cell-partitioning hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Mirror of `run_fleet` (sequential).
fn fleet_mirror(
    rec: &Recorder,
    config: &SuiteConfig,
    fleet: &FleetConfig,
    model: &TraceModel,
    cell_ns: &mut Vec<u64>,
) -> FleetResult {
    let trace = rec.time("workload-gen.generate", || model.generate(config.seed));
    let cells = fleet.cells.max(1);
    let cell_of_fn: Vec<usize> = model
        .functions
        .iter()
        .map(|f| (fnv1a(f.profile.name.as_bytes()) % cells as u64) as usize)
        .collect();
    let mut fns_per_cell: Vec<Vec<usize>> = vec![Vec::new(); cells];
    for (i, &c) in cell_of_fn.iter().enumerate() {
        fns_per_cell[c].push(i);
    }
    // Arrivals keep their trace position as the request id of their spans.
    let mut arrivals_per_cell: Vec<Vec<(u64, Arrival)>> = vec![Vec::new(); cells];
    for (k, a) in trace.arrivals.iter().enumerate() {
        if let Some(&c) = cell_of_fn.get(a.function as usize) {
            arrivals_per_cell[c].push((k as u64, *a));
        }
    }
    drop(trace);

    let mut series = Vec::new();
    let mut traces = TraceSink::new();
    let mut metrics = MetricsSink::new();
    let mut profile = PhaseProfiler::new();
    for i in 0..cells {
        let start = now_ns();
        let cell = fleet_cell(
            rec,
            config,
            fleet,
            model,
            i,
            &fns_per_cell[i],
            &arrivals_per_cell[i],
        );
        cell_ns.push(now_ns().saturating_sub(start));
        if let Some((cell_series, cell_traces, cell_metrics, cell_profile)) = cell {
            series.push(cell_series);
            rec.time("trace.merge", || traces.merge(cell_traces));
            rec.time("telemetry.merge", || metrics.merge(cell_metrics));
            if let Some(p) = cell_profile {
                profile.merge(&p);
                profile.record(Phase::RunnerMerge, SimDuration::ZERO);
            }
        }
    }
    rec.time("trace.merge", || traces.sort_canonical());
    rec.time("telemetry.merge", || metrics.sort_canonical());
    FleetResult {
        provider: fleet.provider,
        series,
        traces,
        metrics,
        profile,
    }
}

type FleetCell = (
    FleetCellSeries,
    TraceSink,
    MetricsSink,
    Option<PhaseProfiler>,
);

/// Mirror of `run_fleet`'s per-cell replay.
fn fleet_cell(
    rec: &Recorder,
    config: &SuiteConfig,
    fleet: &FleetConfig,
    model: &TraceModel,
    index: usize,
    fn_indices: &[usize],
    arrivals: &[(u64, Arrival)],
) -> Option<FleetCell> {
    let seed = SimRng::new(config.seed).child(index as u64).seed();
    let mut platform = FaasPlatform::new(ProviderProfile::for_kind(fleet.provider), seed);
    platform.set_tracing(config.trace);
    if let Some(spec) = config.trace_sampler {
        platform.enable_trace_sampling(spec);
    }
    if config.profile {
        platform.enable_profiling();
    }
    if config.metrics {
        platform.enable_metrics(config.metrics_interval);
    }

    let mut functions: BTreeMap<u32, (FunctionId, SyntheticFunction)> = BTreeMap::new();
    for &fi in fn_indices {
        let profile = &model.functions[fi].profile;
        let cfg = FunctionConfig::new(&profile.name, profile.language, profile.memory_mb);
        let id = rec.time("platform.deploy", || platform.deploy(cfg)).ok()?;
        let ops_per_ms = platform
            .profile()
            .compute_rate(profile.memory_mb, profile.language)
            / 1000.0;
        functions.insert(
            fi as u32,
            (id, SyntheticFunction::from_profile(profile, ops_per_ms)),
        );
    }
    let deployed: BTreeMap<u32, (FunctionId, Timed<'_, SyntheticFunction>)> = functions
        .iter()
        .map(|(fi, (id, w))| {
            (
                *fi,
                (
                    *id,
                    Timed {
                        inner: w,
                        rec,
                        key: None,
                    },
                ),
            )
        })
        .collect();

    let mut series = FleetCellSeries {
        index,
        functions: fn_indices.len(),
        invocations: 0,
        cold_starts: 0,
        warm_starts: 0,
        failures: 0,
        client_latency: QuantileSketch::new(),
        cost_usd: 0.0,
        warm_pool_samples: Vec::new(),
    };

    let sample_every =
        SimDuration::from_nanos((fleet.horizon.as_nanos() / OCCUPANCY_SAMPLES).max(1_000_000_000));
    let mut next_sample = SimTime::ZERO.saturating_add(sample_every);
    let end = SimTime::ZERO.saturating_add(fleet.horizon);
    let payload = Payload::empty();

    let observe = |platform: &mut FaasPlatform,
                   series: &mut FleetCellSeries,
                   upto: SimTime,
                   next_sample: &mut SimTime| {
        while *next_sample <= upto && *next_sample <= end {
            let gap = next_sample.saturating_duration_since(platform.now());
            rec.time("platform.advance", || platform.advance(gap));
            let warm: usize =
                rec.time_calls("platform.observe_pool", deployed.len() as u64, || {
                    deployed
                        .values()
                        .map(|(id, _)| platform.observe_pool(*id).warm)
                        .sum()
                });
            series.warm_pool_samples.push(warm as u64);
            *next_sample = next_sample.saturating_add(sample_every);
        }
    };

    for &(request, a) in arrivals {
        observe(&mut platform, &mut series, a.at, &mut next_sample);
        let gap = a.at.saturating_duration_since(platform.now());
        rec.time("platform.advance", || platform.advance(gap));
        let Some((id, workload)) = deployed.get(&a.function) else {
            continue;
        };
        rec.set_request(Some(request));
        let record = rec.time("platform.invoke", || {
            platform.invoke(*id, workload, &payload)
        });
        rec.set_request(None);
        series.invocations += 1;
        match record.start {
            StartKind::Cold => series.cold_starts += 1,
            StartKind::Warm => series.warm_starts += 1,
        }
        if matches!(record.outcome, InvocationOutcome::Success) {
            series
                .client_latency
                .push(record.client_time.as_millis_f64());
        } else {
            series.failures += 1;
        }
        series.cost_usd += record.bill.total_usd();
    }
    observe(&mut platform, &mut series, end, &mut next_sample);
    let rest = end.saturating_duration_since(platform.now());
    rec.time("platform.advance", || platform.advance(rest));

    let mut traces = TraceSink::new();
    let taken = rec.time("platform.take_traces", || platform.take_traces());
    traces.extend(taken.into_iter().map(|mut t| {
        t.cell = Some(index as u64);
        t
    }));
    let mut metrics = MetricsSink::new();
    if let Some(mut chunk) = rec.time("platform.take_metrics", || platform.take_metrics()) {
        chunk.cell = Some(index as u64);
        metrics.push(chunk);
    }
    let profile = platform.take_profile();
    Some((series, traces, metrics, profile))
}

/// Mirror of `run_cluster` (sequential).
fn cluster_mirror(
    rec: &Recorder,
    config: &SuiteConfig,
    sweep: &ClusterSweepConfig,
    model: &TraceModel,
    cell_ns: &mut Vec<u64>,
) -> ClusterSweepResult {
    let trace = rec.time("workload-gen.generate", || model.generate(config.seed));
    let mut series = Vec::new();
    let mut traces = TraceSink::new();
    for cell in &cluster_cells(sweep) {
        let start = now_ns();
        let sampled = cluster_cell(rec, config, sweep, model, &trace.arrivals, cell);
        cell_ns.push(now_ns().saturating_sub(start));
        if let Some((cell_series, cell_traces)) = sampled {
            series.push(cell_series);
            rec.time("trace.merge", || traces.merge(cell_traces));
        }
    }
    rec.time("trace.merge", || traces.sort_canonical());
    ClusterSweepResult {
        provider: sweep.provider,
        series,
        traces,
    }
}

/// Mirror of `run_cluster`'s per-cell replay.
fn cluster_cell(
    rec: &Recorder,
    config: &SuiteConfig,
    sweep: &ClusterSweepConfig,
    model: &TraceModel,
    arrivals: &[Arrival],
    cell: &ClusterCell,
) -> Option<(ClusterSeries, TraceSink)> {
    let seed = SimRng::new(config.seed).child(cell.index as u64).seed();
    let cluster_config = ClusterConfig::new(sweep.provider)
        .with_hosts(sweep.hosts)
        .with_cpus(sweep.host_cpus)
        .with_queue_depth(sweep.queue_depth)
        .with_contention(sweep.contention)
        .with_scheduler(cell.scheduler)
        .with_keepalive(cell.keepalive);
    let mut cluster = ClusterPlatform::new(cluster_config, seed);
    cluster.set_retry_policy(sweep.retry.clone());
    cluster.set_faults(sweep.fault_plan(cell.host_fault_rate), seed);
    cluster.set_tracing(config.trace);

    let mut functions: Vec<(FunctionId, SyntheticFunction, u32)> =
        Vec::with_capacity(model.functions.len());
    for f in &model.functions {
        let profile = &f.profile;
        let cfg = FunctionConfig::new(&profile.name, profile.language, profile.memory_mb);
        let id = rec.time("cluster.deploy", || cluster.deploy(cfg)).ok()?;
        let ops_per_ms = cluster.hosts()[0]
            .platform()
            .profile()
            .compute_rate(profile.memory_mb, profile.language)
            / 1000.0;
        functions.push((
            id,
            SyntheticFunction::from_profile(profile, ops_per_ms),
            profile.memory_mb,
        ));
    }
    let deployed: Vec<(FunctionId, Timed<'_, SyntheticFunction>, u32)> = functions
        .iter()
        .map(|(id, w, mb)| {
            (
                *id,
                Timed {
                    inner: w,
                    rec,
                    key: None,
                },
                *mb,
            )
        })
        .collect();

    let mut series = ClusterSeries {
        index: cell.index,
        scheduler: cell.scheduler.label(),
        keepalive: cell.keepalive.label(),
        host_fault_rate: cell.host_fault_rate,
        chains: 0,
        successes: 0,
        first_attempt_successes: 0,
        attempts: 0,
        cold_starts: 0,
        warm_hits: 0,
        shed: 0,
        unavailable: 0,
        crash_failures: 0,
        crashes: 0,
        failover_hops: 0,
        prewarms: 0,
        retunes: 0,
        client_latency: QuantileSketch::new(),
        cost_usd: 0.0,
        first_attempt_cost_usd: 0.0,
        wasted_warm_gb_s: 0.0,
        host_stats: Vec::new(),
    };

    let sample_every =
        SimDuration::from_nanos((sweep.horizon.as_nanos() / OCCUPANCY_SAMPLES).max(1_000_000_000));
    let sample_secs = sample_every.as_secs_f64();
    let mut next_sample = SimTime::ZERO.saturating_add(sample_every);
    let end = SimTime::ZERO.saturating_add(sweep.horizon);
    let payload = Payload::empty();

    let observe = |cluster: &mut ClusterPlatform,
                   series: &mut ClusterSeries,
                   upto: SimTime,
                   next_sample: &mut SimTime| {
        while *next_sample <= upto && *next_sample <= end {
            let gap = next_sample.saturating_duration_since(cluster.now());
            rec.time("cluster.advance", || cluster.advance(gap));
            rec.time("cluster.sync_clocks", || cluster.sync_host_clocks());
            let hosts = cluster.hosts().len();
            let calls = (hosts * deployed.len()) as u64;
            let idle_mb: u64 = rec.time_calls("cluster.observe_pool", calls, || {
                let mut idle_mb: u64 = 0;
                for host in 0..hosts {
                    for (id, _, memory_mb) in &deployed {
                        idle_mb +=
                            cluster.observe_pool(host, *id).idle as u64 * u64::from(*memory_mb);
                    }
                }
                idle_mb
            });
            series.wasted_warm_gb_s += idle_mb as f64 / 1024.0 * sample_secs;
            *next_sample = next_sample.saturating_add(sample_every);
        }
    };

    for (request, a) in arrivals.iter().enumerate() {
        observe(&mut cluster, &mut series, a.at, &mut next_sample);
        let gap = a.at.saturating_duration_since(cluster.now());
        rec.time("cluster.advance", || cluster.advance(gap));
        let Some((id, workload, _)) = deployed.get(a.function as usize) else {
            continue;
        };
        rec.set_request(Some(request as u64));
        let chain = rec.time("cluster.invoke_resilient", || {
            cluster.invoke_resilient(*id, workload, &payload)
        });
        rec.set_request(None);
        series.chains += 1;
        series.attempts += chain.billed_attempts();
        series.cost_usd += chain.total_cost_usd();
        if let Some(first) = chain.attempts.first() {
            series.first_attempt_cost_usd += first.bill.total_usd();
            if first.outcome.is_success() {
                series.first_attempt_successes += 1;
            }
        }
        if chain.succeeded() {
            series.successes += 1;
            series
                .client_latency
                .push(chain.client_time.as_millis_f64());
        }
    }
    observe(&mut cluster, &mut series, end, &mut next_sample);
    let rest = end.saturating_duration_since(cluster.now());
    rec.time("cluster.advance", || cluster.advance(rest));

    let stats = cluster.stats();
    series.shed = stats.shed;
    series.unavailable = stats.unavailable;
    series.crash_failures = stats.crash_failures;
    series.failover_hops = stats.failover_hops;
    series.prewarms = stats.prewarms;
    series.retunes = stats.retunes;
    for host in cluster.hosts() {
        let h = host.stats();
        series.cold_starts += h.cold_starts;
        series.warm_hits += h.warm_hits;
        series.crashes += h.crashes;
        series.host_stats.push(h);
    }

    let mut traces = TraceSink::new();
    traces.extend(cluster.take_traces().into_iter().map(|mut t| {
        t.cell = Some(cell.index as u64);
        t
    }));
    Some((series, traces))
}

/// Mirror of `run_perf_cost_grid` (sequential).
fn suite_mirror(
    rec: &Recorder,
    config: &SuiteConfig,
    grid: &ExperimentGrid,
    cell_ns: &mut Vec<u64>,
    checks: &mut Checks,
) -> PerfCostResult {
    let mut series = Vec::new();
    let mut traces = TraceSink::new();
    let mut metrics = MetricsSink::new();
    for cell in &grid.cells() {
        let start = now_ns();
        let sampled = suite_cell(rec, config, cell, Scale::Test, checks);
        cell_ns.push(now_ns().saturating_sub(start));
        if let Some((cold, warm, cell_traces, cell_metrics)) = sampled {
            series.push(cold);
            series.push(warm);
            rec.time("trace.merge", || traces.merge(cell_traces));
            rec.time("telemetry.merge", || metrics.merge(cell_metrics));
        }
    }
    rec.time("trace.merge", || traces.sort_canonical());
    rec.time("telemetry.merge", || metrics.sort_canonical());
    PerfCostResult {
        series,
        traces,
        metrics,
    }
}

type SuiteCell = (PerfCostSeries, PerfCostSeries, TraceSink, MetricsSink);

/// Mirror of `run_perf_cost_grid`'s per-cell sampling. Bursts go straight
/// to the provider's platform with the timed workload — what
/// `Suite::invoke_burst` does with the registered one — and the first
/// burst is checked against `Suite::invoke_burst` on a twin suite.
fn suite_cell(
    rec: &Recorder,
    config: &SuiteConfig,
    cell: &GridCell,
    scale: Scale,
    checks: &mut Checks,
) -> Option<SuiteCell> {
    let samples = config.samples;
    let batch = config.batch_size.max(1);
    let ci_frac = config.ci_target_fraction;
    let level = config.confidence;
    let max_samples = config.max_samples;

    let mut suite = cell.suite(config);
    let provider = cell.provider;
    let benchmark = cell.benchmark.as_str();
    let handle = rec
        .time("storage.prepare", || {
            suite.deploy(provider, benchmark, cell.language, cell.memory_mb, scale)
        })
        .ok()?;
    let inner = workload_by_name(benchmark, cell.language)?;
    let timed = Timed {
        inner: inner.as_ref(),
        rec,
        key: Some(format!("workloads.{benchmark}.execute")),
    };
    let burst = |suite: &mut sebs::Suite, n: usize| -> Vec<InvocationRecord> {
        let payloads = vec![handle.payload.clone(); n];
        rec.time_calls("platform.invoke", n as u64, || {
            suite.platform_mut(provider).invoke_burst_via(
                handle.function,
                &timed,
                &payloads,
                TriggerKind::Http,
            )
        })
    };

    let mut cold = new_series(provider, benchmark, cell.memory_mb, StartKind::Cold);
    let mut warm = new_series(provider, benchmark, cell.memory_mb, StartKind::Warm);

    let mut rounds = 0usize;
    let max_rounds = 4 * max_samples / batch.max(1) + 16;
    while cold.client_ms.len() < samples
        && cold.client_ms.len() + cold.failures < max_samples
        && rounds < max_rounds
    {
        rounds += 1;
        suite.enforce_cold_start(&handle);
        let n = batch.min(samples);
        let records = burst(&mut suite, n);
        if rounds == 1 {
            let mut twin = cell.suite(config);
            let twin_records = twin
                .deploy(provider, benchmark, cell.language, cell.memory_mb, scale)
                .map(|h| {
                    twin.enforce_cold_start(&h);
                    twin.invoke_burst(&h, n)
                });
            checks.expect(twin_records.as_ref() == Ok(&records), || {
                format!(
                    "{benchmark} on {provider}: decorated burst differs from Suite::invoke_burst"
                )
            });
        }
        absorb(&mut cold, &records, StartKind::Cold);
        rec.time("platform.advance", || {
            suite.advance(provider, SimDuration::from_secs(2))
        });
    }

    let mut target = samples;
    let mut rounds = 0usize;
    while warm.client_ms.len() < target
        && warm.client_ms.len() + warm.failures < max_samples
        && rounds < max_rounds
    {
        rounds += 1;
        let records = burst(&mut suite, batch.min(target));
        absorb(&mut warm, &records, StartKind::Warm);
        rec.time("platform.advance", || {
            suite.advance(provider, SimDuration::from_secs(2))
        });
        if warm.client_ms.len() >= target {
            if let Some(ci) = median_ci(&warm.client_ms, level) {
                if !ci.is_within_of_median(ci_frac) && target < max_samples {
                    target = (target * 2).min(max_samples);
                }
            }
        }
    }
    cold.client_ci = median_ci(&cold.client_ms, level);
    warm.client_ci = median_ci(&warm.client_ms, level);

    let mut traces = TraceSink::new();
    let taken = rec.time("platform.take_traces", || suite.take_traces());
    traces.extend(taken.into_iter().map(|mut t| {
        t.cell = Some(cell.index as u64);
        t
    }));
    let mut metrics = rec.time("platform.take_metrics", || suite.take_metrics());
    for chunk in metrics.chunks_mut() {
        chunk.cell = Some(cell.index as u64);
    }
    Some((cold, warm, traces, metrics))
}

fn new_series(
    provider: ProviderKind,
    benchmark: &str,
    memory_mb: u32,
    start: StartKind,
) -> PerfCostSeries {
    PerfCostSeries {
        provider,
        benchmark: benchmark.to_string(),
        memory_mb,
        start,
        client_ms: Vec::new(),
        provider_ms: Vec::new(),
        benchmark_ms: Vec::new(),
        cost_usd: Vec::new(),
        used_memory_mb: Vec::new(),
        billed_memory_mb: Vec::new(),
        failures: 0,
        client_ci: None,
    }
}

fn absorb(series: &mut PerfCostSeries, records: &[InvocationRecord], want: StartKind) {
    for r in records {
        if !r.outcome.is_success() {
            series.failures += 1;
            continue;
        }
        if r.start != want {
            continue;
        }
        series.client_ms.push(r.client_time.as_millis_f64());
        series.provider_ms.push(r.provider_time.as_millis_f64());
        series.benchmark_ms.push(r.benchmark_time.as_millis_f64());
        series.cost_usd.push(r.bill.total_usd());
        series.used_memory_mb.push(r.used_memory_mb as f64);
        series.billed_memory_mb.push(r.bill.billed_memory_mb as f64);
    }
}
