//! The Cluster experiment: scheduler × keep-alive × host-fault sweep on
//! a multi-host region (beyond the paper; Serverless-in-the-Wild-style
//! policy comparison plus fault-domain failover).
//!
//! Each cell boots a [`ClusterPlatform`] — N hosts with bounded CPU and
//! admission capacity — with one placement policy, one keep-alive
//! policy and one host-fault intensity, then replays the same synthetic
//! fleet trace through the cluster's retrying dispatch loop. The sweep
//! reports the SitW Pareto frontier (cold-start rate vs wasted warm
//! GB-s) alongside availability, goodput, and the cost of each extra
//! nine the retry policy buys back over the raw first-attempt score.
//!
//! The sweep is embarrassingly parallel in the house pattern: cells are
//! enumerated canonically (fault-rate-major, then scheduler, then
//! keep-alive), each runs on an independent cell-salted cluster, and
//! every export — rows and traces — is byte-identical for any `--jobs`.

use sebs_cluster::{ClusterConfig, ClusterPlatform, HostStats, KeepAliveKind, SchedulerKind};
use sebs_metrics::{Measurement, QuantileSketch, ResultStore};
use sebs_platform::{FunctionConfig, FunctionId, ProviderKind};
use sebs_resilience::{FaultPlan, HostCrashWindow, RetryPolicy};
use sebs_sim::{SimDuration, SimRng, SimTime};
use sebs_trace::TraceSink;
use sebs_workload_gen::{SyntheticFunction, SyntheticSpec, TraceModel};
use sebs_workloads::Payload;

use super::replay::{Event, ReplayStream};
use crate::config::SuiteConfig;
use crate::runner::ParallelRunner;

/// Knobs of the cluster sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSweepConfig {
    /// Target provider profile for every host.
    pub provider: ProviderKind,
    /// Hosts per region.
    pub hosts: u32,
    /// CPU slots per host.
    pub host_cpus: u32,
    /// Admission-queue depth per host beyond the CPU slots.
    pub queue_depth: u32,
    /// Co-location contention fraction per already-running invocation.
    pub contention: f64,
    /// Fleet size for the synthetic generator.
    pub functions: usize,
    /// Expected total invocations for the synthetic generator.
    pub target_invocations: u64,
    /// Trace horizon.
    pub horizon: SimDuration,
    /// Zipf popularity exponent for the synthetic generator.
    pub zipf_exponent: f64,
    /// Placement policies to sweep (axis 2).
    pub schedulers: Vec<SchedulerKind>,
    /// Keep-alive policies to sweep (axis 3).
    pub keepalives: Vec<KeepAliveKind>,
    /// Host-crash intensities to sweep (axis 1; each nonzero intensity
    /// compiles into two crash windows across the horizon).
    pub host_fault_rates: Vec<f64>,
    /// Cluster-level retry policy driving failover.
    pub retry: RetryPolicy,
}

impl ClusterSweepConfig {
    /// Defaults sized for the acceptance bar: 3 schedulers × 3
    /// keep-alive policies × 3 fault intensities on an 8-host region.
    pub fn new(provider: ProviderKind) -> ClusterSweepConfig {
        ClusterSweepConfig {
            provider,
            hosts: 8,
            host_cpus: 4,
            queue_depth: 8,
            contention: 0.03,
            functions: 24,
            target_invocations: 2_400,
            horizon: SimDuration::from_secs(1800),
            zipf_exponent: 1.1,
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
            retry: RetryPolicy::backoff(3),
        }
    }

    /// The synthetic Azure-2019-shaped model for these knobs.
    pub fn synthetic_model(&self, seed: u64) -> TraceModel {
        let mut spec =
            SyntheticSpec::azure_2019(self.functions, self.target_invocations, self.horizon);
        spec.zipf_exponent = self.zipf_exponent;
        spec.build_model(seed)
    }

    /// The fault plan for one intensity: two host-crash windows —
    /// 25%–40% and 60%–70% of the horizon — each hitting every host with
    /// probability `rate`. Zero intensity yields an empty plan.
    pub fn fault_plan(&self, rate: f64) -> FaultPlan {
        if rate <= 0.0 {
            return FaultPlan::empty();
        }
        let at = |frac: f64| SimTime::ZERO + self.horizon.mul_f64(frac);
        FaultPlan {
            host_crashes: vec![
                HostCrashWindow {
                    start: at(0.25),
                    end: at(0.40),
                    rate,
                },
                HostCrashWindow {
                    start: at(0.60),
                    end: at(0.70),
                    rate,
                },
            ],
            ..FaultPlan::empty()
        }
    }
}

/// One cell of the sweep: a (host-fault intensity, scheduler,
/// keep-alive) triple at its canonical index.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterCell {
    /// Canonical position — the seed salt and merge key.
    pub index: usize,
    /// Host-crash intensity.
    pub host_fault_rate: f64,
    /// Placement policy.
    pub scheduler: SchedulerKind,
    /// Keep-alive policy.
    pub keepalive: KeepAliveKind,
}

/// Enumerates the sweep cells in canonical order (fault-rate-major, then
/// scheduler, then keep-alive).
pub fn cluster_cells(sweep: &ClusterSweepConfig) -> Vec<ClusterCell> {
    let mut out = Vec::with_capacity(
        sweep.host_fault_rates.len() * sweep.schedulers.len() * sweep.keepalives.len(),
    );
    for &rate in &sweep.host_fault_rates {
        for &scheduler in &sweep.schedulers {
            for &keepalive in &sweep.keepalives {
                out.push(ClusterCell {
                    index: out.len(),
                    host_fault_rate: rate,
                    scheduler,
                    keepalive,
                });
            }
        }
    }
    out
}

/// Measured outcomes of one cell's replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSeries {
    /// Canonical cell index — the seed salt and merge key.
    pub index: usize,
    /// Scheduler label.
    pub scheduler: String,
    /// Keep-alive label.
    pub keepalive: String,
    /// Host-crash intensity.
    pub host_fault_rate: f64,
    /// Attempt chains driven (logical invocations).
    pub chains: usize,
    /// Chains whose final outcome was a success.
    pub successes: usize,
    /// Chains that succeeded on their very first attempt.
    pub first_attempt_successes: usize,
    /// Billed attempts across all chains.
    pub attempts: usize,
    /// Served attempts that hit a cold start (summed over hosts).
    pub cold_starts: u64,
    /// Served attempts that hit a warm container.
    pub warm_hits: u64,
    /// Arrivals shed by full admission queues.
    pub shed: u64,
    /// Arrivals rejected with every host down.
    pub unavailable: u64,
    /// Attempts lost mid-flight to host crashes.
    pub crash_failures: u64,
    /// Host crashes applied from the compiled schedule.
    pub crashes: u64,
    /// Retried attempts that moved to a different host.
    pub failover_hops: u64,
    /// Sandboxes pre-warmed by the keep-alive policy.
    pub prewarms: u64,
    /// Keep-alive retunes applied.
    pub retunes: u64,
    /// Effective client time (ms) of successful chains, sketched.
    pub client_latency: QuantileSketch,
    /// Total cost across every billed attempt (USD).
    pub cost_usd: f64,
    /// Cost of first attempts only (what a no-retry client would pay).
    pub first_attempt_cost_usd: f64,
    /// Idle warm memory integrated over the horizon (GB·s) — the SitW
    /// "wasted memory" axis of the Pareto frontier.
    pub wasted_warm_gb_s: f64,
    /// Per-host telemetry, ascending host id.
    pub host_stats: Vec<HostStats>,
}

impl ClusterSeries {
    /// Fraction of served attempts that were cold starts.
    pub fn cold_start_rate(&self) -> f64 {
        let served = self.cold_starts + self.warm_hits;
        if served == 0 {
            return 0.0;
        }
        self.cold_starts as f64 / served as f64
    }

    /// Fraction of chains that ended in a success (after retries).
    pub fn effective_availability(&self) -> f64 {
        if self.chains == 0 {
            return 0.0;
        }
        self.successes as f64 / self.chains as f64
    }

    /// Fraction of chains whose first attempt succeeded.
    pub fn raw_availability(&self) -> f64 {
        if self.chains == 0 {
            return 0.0;
        }
        self.first_attempt_successes as f64 / self.chains as f64
    }

    /// Useful work per billed attempt.
    pub fn goodput(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        self.successes as f64 / self.attempts as f64
    }

    /// Nines of effective availability.
    pub fn nines(&self) -> f64 {
        nines_of(self.effective_availability())
    }

    /// Nines of raw (first-attempt) availability.
    pub fn raw_nines(&self) -> f64 {
        nines_of(self.raw_availability())
    }

    /// Cost of each extra nine failover bought back within this cell:
    /// the retry surcharge divided by the nines gained over the raw
    /// first-attempt availability. `None` when no finite nine was gained
    /// (e.g. a fault-free cell that was already perfect).
    pub fn cost_per_extra_nine(&self) -> Option<f64> {
        let gained = self.nines() - self.raw_nines();
        if !gained.is_finite() || gained <= 0.0 {
            return None;
        }
        Some((self.cost_usd - self.first_attempt_cost_usd) / gained)
    }
}

fn nines_of(availability: f64) -> f64 {
    if availability >= 1.0 {
        f64::INFINITY
    } else {
        -(1.0 - availability).log10()
    }
}

/// Full result of one cluster sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSweepResult {
    /// Provider the region ran on.
    pub provider: ProviderKind,
    /// One series per cell, in canonical order.
    pub series: Vec<ClusterSeries>,
    /// Cluster traces (reschedule hops included) in canonical cell order
    /// — empty unless [`SuiteConfig::trace`] was set.
    pub traces: TraceSink,
}

impl ClusterSweepResult {
    /// Finds the series for one (rate, scheduler, keep-alive) triple.
    pub fn series(&self, rate: f64, scheduler: &str, keepalive: &str) -> Option<&ClusterSeries> {
        self.series.iter().find(|s| {
            s.host_fault_rate == rate && s.scheduler == scheduler && s.keepalive == keepalive
        })
    }

    /// The (cold-start rate, wasted warm GB·s) Pareto points at one
    /// fault intensity, one per (scheduler, keep-alive) combination, in
    /// canonical cell order.
    pub fn pareto_points(&self, rate: f64) -> Vec<(String, f64, f64)> {
        self.series
            .iter()
            .filter(|s| s.host_fault_rate == rate)
            .map(|s| {
                (
                    format!("{}/{}", s.scheduler, s.keepalive),
                    s.cold_start_rate(),
                    s.wasted_warm_gb_s,
                )
            })
            .collect()
    }

    /// Flattens the result into metric rows: one block per cell (tagged
    /// with cell index, scheduler, keep-alive and fault intensity) plus
    /// per-host rows. Byte-identical for every worker count.
    pub fn to_store(&self) -> ResultStore {
        let mut store = ResultStore::new();
        let provider = self.provider.to_string();
        for s in &self.series {
            let tag = |m: Measurement| {
                m.with_tag("cell", s.index.to_string())
                    .with_tag("scheduler", s.scheduler.clone())
                    .with_tag("keepalive", s.keepalive.clone())
                    .with_tag("host_fault", format!("{:.6}", s.host_fault_rate))
            };
            let mut push = |metric: &str, value: f64| {
                store.push(tag(Measurement::new(
                    "cluster",
                    "cluster-replay",
                    &provider,
                    metric,
                    value,
                )));
            };
            push("chains", s.chains as f64);
            push("attempts", s.attempts as f64);
            push("cold_start_rate", s.cold_start_rate());
            push("wasted_warm_gb_s", s.wasted_warm_gb_s);
            push("effective_availability", s.effective_availability());
            push("raw_availability", s.raw_availability());
            push("goodput", s.goodput());
            push("shed", s.shed as f64);
            push("unavailable", s.unavailable as f64);
            push("crashes", s.crashes as f64);
            push("crash_failures", s.crash_failures as f64);
            push("failover_hops", s.failover_hops as f64);
            push("prewarms", s.prewarms as f64);
            push("retunes", s.retunes as f64);
            push("client_p50_ms", s.client_latency.p50());
            push("client_p95_ms", s.client_latency.p95());
            push("client_p99_ms", s.client_latency.p99());
            push("cost_usd", s.cost_usd);
            push(
                "cost_per_extra_nine_usd",
                s.cost_per_extra_nine().unwrap_or(0.0),
            );
            for h in &s.host_stats {
                let row = |metric: &str, value: f64| {
                    tag(Measurement::new(
                        "cluster",
                        "cluster-replay",
                        &provider,
                        metric,
                        value,
                    ))
                    .with_tag("host", h.id.to_string())
                };
                store.push(row("host_served", h.served as f64));
                store.push(row("host_cold_starts", h.cold_starts as f64));
                store.push(row("host_crashes", h.crashes as f64));
                store.push(row("host_crash_failures", h.crash_failures as f64));
            }
        }
        store.sort_by_tag_index("cell");
        store
    }
}

/// Runs the cluster sweep with the worker count from
/// [`SuiteConfig::jobs`]. The trace is generated once (deterministically
/// in [`SuiteConfig::seed`]) and every cell replays the same arrivals on
/// its own cell-salted region.
pub fn run_cluster(
    config: &SuiteConfig,
    sweep: &ClusterSweepConfig,
    model: &TraceModel,
) -> ClusterSweepResult {
    let trace = model.generate(config.seed);
    let cells = cluster_cells(sweep);
    let runner = ParallelRunner::new(config.jobs);
    let sampled = runner.run(cells.len(), |i| {
        sample_cell(config, sweep, model, &trace.arrivals, &cells[i])
    });
    let mut series = Vec::new();
    let mut traces = TraceSink::new();
    for (cell_series, cell_traces) in sampled.into_iter().flatten() {
        series.push(cell_series);
        traces.merge(cell_traces);
    }
    traces.sort_canonical();
    ClusterSweepResult {
        provider: sweep.provider,
        series,
        traces,
    }
}

/// Replays one cell on its own seeded region; `None` when the provider
/// rejects a deployment.
fn sample_cell(
    config: &SuiteConfig,
    sweep: &ClusterSweepConfig,
    model: &TraceModel,
    arrivals: &[sebs_workload_gen::Arrival],
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

    let mut deployed: Vec<(FunctionId, SyntheticFunction, u32)> =
        Vec::with_capacity(model.functions.len());
    for f in &model.functions {
        let profile = &f.profile;
        let cfg = FunctionConfig::new(&profile.name, profile.language, profile.memory_mb);
        let id = cluster.deploy(cfg).ok()?;
        let ops_per_ms = cluster.hosts()[0]
            .platform()
            .profile()
            .compute_rate(profile.memory_mb, profile.language)
            / 1000.0;
        deployed.push((
            id,
            SyntheticFunction::from_profile(profile, ops_per_ms),
            profile.memory_mb,
        ));
    }

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

    let replay = ReplayStream::new(arrivals, sweep.horizon);
    let sample_secs = replay.period().as_secs_f64();
    let payload = Payload::empty();
    for ev in replay {
        cluster.advance(ev.at().saturating_duration_since(cluster.now()));
        match ev {
            Event::Sample(_) => {
                cluster.sync_host_clocks();
                let mut idle_mb: u64 = 0;
                for host in 0..cluster.hosts().len() {
                    for (id, _, memory_mb) in &deployed {
                        idle_mb +=
                            cluster.observe_pool(host, *id).idle as u64 * u64::from(*memory_mb);
                    }
                }
                series.wasted_warm_gb_s += idle_mb as f64 / 1024.0 * sample_secs;
            }
            Event::Arrival(a) => {
                let Some((id, workload, _)) = deployed.get(a.function as usize) else {
                    continue;
                };
                let chain = cluster.invoke_resilient(*id, workload, &payload);
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
            Event::End(_) => {}
        }
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep() -> ClusterSweepConfig {
        let mut sweep = ClusterSweepConfig::new(ProviderKind::Aws);
        sweep.functions = 8;
        sweep.target_invocations = 4_000;
        sweep.horizon = SimDuration::from_secs(600);
        sweep.schedulers = vec![SchedulerKind::LeastLoaded, SchedulerKind::Locality];
        sweep.keepalives = vec![KeepAliveKind::Provider, KeepAliveKind::Hybrid];
        sweep.host_fault_rates = vec![0.0, 0.5];
        sweep.hosts = 4;
        sweep
    }

    fn run(config: SuiteConfig, sweep: &ClusterSweepConfig) -> ClusterSweepResult {
        let model = sweep.synthetic_model(config.seed);
        run_cluster(&config, sweep, &model)
    }

    #[test]
    fn cells_enumerate_rate_major() {
        let sweep = small_sweep();
        let cells = cluster_cells(&sweep);
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].host_fault_rate, 0.0);
        assert_eq!(cells[0].scheduler, SchedulerKind::LeastLoaded);
        assert_eq!(cells[0].keepalive, KeepAliveKind::Provider);
        assert_eq!(cells[1].keepalive, KeepAliveKind::Hybrid);
        assert_eq!(cells[4].host_fault_rate, 0.5);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn sweep_reports_pareto_and_availability() {
        let sweep = small_sweep();
        let result = run(SuiteConfig::fast().with_seed(17), &sweep);
        assert_eq!(result.series.len(), 8);
        for s in &result.series {
            assert!(s.chains > 0, "cell {} replayed nothing", s.index);
            assert!(s.wasted_warm_gb_s >= 0.0);
        }
        let calm = result.series(0.0, "least-loaded", "provider").unwrap();
        assert_eq!(calm.crashes, 0, "no faults at zero intensity");
        assert_eq!(calm.effective_availability(), 1.0);
        let stormy = result.series(0.5, "least-loaded", "provider").unwrap();
        assert!(stormy.crashes > 0, "intensity 0.5 on 4 hosts should crash");
        assert!(
            stormy.crash_failures > 0,
            "crashes should catch in-flight invocations at this load"
        );
        assert!(
            stormy.raw_availability() < 1.0,
            "crashes fail first attempts"
        );
        assert!(
            stormy.effective_availability() > stormy.raw_availability(),
            "failover buys back availability"
        );
        assert!(stormy.failover_hops > 0, "retries moved hosts");
        // Perfect recovery makes the gained nines infinite, and the
        // cost-per-nine metric is then deliberately undefined.
        match stormy.cost_per_extra_nine() {
            Some(c) => assert!(c >= 0.0, "{c}"),
            None => assert_eq!(stormy.effective_availability(), 1.0),
        }
        let points = result.pareto_points(0.0);
        assert_eq!(points.len(), 4, "one Pareto point per policy pair");
    }

    #[test]
    fn results_are_byte_identical_across_jobs() {
        let sweep = small_sweep();
        let sequential = run(
            SuiteConfig::fast()
                .with_seed(23)
                .with_trace(true)
                .with_jobs(1),
            &sweep,
        );
        for jobs in [2, 8] {
            let parallel = run(
                SuiteConfig::fast()
                    .with_seed(23)
                    .with_trace(true)
                    .with_jobs(jobs),
                &sweep,
            );
            assert_eq!(parallel.series, sequential.series, "jobs={jobs}");
            assert_eq!(
                parallel.to_store().to_json(),
                sequential.to_store().to_json(),
                "jobs={jobs}"
            );
            assert_eq!(parallel.traces, sequential.traces, "jobs={jobs}");
        }
    }

    #[test]
    fn store_rows_carry_cell_policy_and_host_tags() {
        let sweep = small_sweep();
        let result = run(SuiteConfig::fast().with_seed(5), &sweep);
        let store = result.to_store();
        assert!(!store.is_empty());
        let rates = store.values(
            "cold_start_rate",
            Some("cluster-replay"),
            Some("aws"),
            &[("scheduler", "locality"), ("keepalive", "hybrid")],
        );
        assert_eq!(rates.len(), 2, "one row per fault intensity");
        let host0 = store.values(
            "host_served",
            Some("cluster-replay"),
            Some("aws"),
            &[("host", "0"), ("cell", "0")],
        );
        assert_eq!(host0.len(), 1);
        let back = sebs_metrics::ResultStore::from_json(&store.to_json()).unwrap();
        assert_eq!(back, store);
    }
}
