//! The Perf-Cost experiment (paper §6.2/§6.3): cost and performance of
//! FaaS executions across providers and memory configurations.
//!
//! For each (provider, benchmark, memory) the driver samples `N` cold
//! invocations — enforcing container eviction between batches — and `N`
//! warm invocations, batched `batch_size` at a time so that no two samples
//! of a batch share a sandbox (the paper uses batches of 50). Sample counts
//! grow adaptively until the 95% CI of the warm client time is within 5%
//! of the median (capped), reproducing the paper's methodology.
//!
//! The grid is embarrassingly parallel: every cell runs on an independent
//! suite with a cell-salted seed ([`GridCell::suite`]) and the results are
//! merged in canonical cell order, so output is byte-identical for every
//! worker count (see [`crate::runner`]).

use sebs_metrics::{Measurement, ResultStore};
use sebs_platform::{InvocationRecord, ProviderKind, StartKind};
use sebs_sim::SimDuration;
use sebs_stats::{median_ci, ConfidenceInterval, Summary};
use sebs_telemetry::MetricsSink;
use sebs_trace::TraceSink;
use sebs_workloads::{Language, Scale};

use crate::config::SuiteConfig;
use crate::runner::{ExperimentGrid, GridCell, Observations, ParallelRunner};
use crate::suite::Suite;

/// One sampled series: a (provider, benchmark, memory, start-kind) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfCostSeries {
    /// Provider.
    pub provider: ProviderKind,
    /// Benchmark name.
    pub benchmark: String,
    /// Memory configuration in MB.
    pub memory_mb: u32,
    /// Cold or warm samples.
    pub start: StartKind,
    /// Client-time samples (ms), successful invocations only.
    pub client_ms: Vec<f64>,
    /// Provider-time samples (ms).
    pub provider_ms: Vec<f64>,
    /// Benchmark-time samples (ms).
    pub benchmark_ms: Vec<f64>,
    /// Per-invocation total cost (USD).
    pub cost_usd: Vec<f64>,
    /// Measured memory usage (MB).
    pub used_memory_mb: Vec<f64>,
    /// Billed memory (MB).
    pub billed_memory_mb: Vec<f64>,
    /// Number of failed invocations (availability/OOM/throttling).
    pub failures: usize,
    /// Confidence interval of the median client time, when computable.
    pub client_ci: Option<ConfidenceInterval>,
}

impl PerfCostSeries {
    /// Summary of client times.
    pub fn client_summary(&self) -> Summary {
        Summary::from_values(&self.client_ms)
    }

    /// Median client time in ms.
    pub fn median_client_ms(&self) -> f64 {
        self.client_summary().median()
    }

    /// Median provider-reported time in ms — the Figure 3 performance
    /// metric (client time additionally carries the client-to-region RTT,
    /// which differs per provider).
    pub fn median_provider_ms(&self) -> f64 {
        Summary::from_values(&self.provider_ms).median()
    }

    /// Median function-body time in ms.
    pub fn median_benchmark_ms(&self) -> f64 {
        Summary::from_values(&self.benchmark_ms).median()
    }

    /// Mean cost of one million executions (USD) at this configuration —
    /// the paper's Figure 5a metric.
    pub fn cost_of_million_usd(&self) -> f64 {
        if self.cost_usd.is_empty() {
            return f64::NAN;
        }
        self.cost_usd.iter().sum::<f64>() / self.cost_usd.len() as f64 * 1e6
    }

    /// Failure rate over all attempted invocations.
    pub fn failure_rate(&self) -> f64 {
        let total = self.client_ms.len() + self.failures;
        if total == 0 {
            0.0
        } else {
            self.failures as f64 / total as f64
        }
    }
}

/// Full result of one Perf-Cost run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfCostResult {
    /// All sampled series.
    pub series: Vec<PerfCostSeries>,
    /// Per-invocation traces in canonical cell order — empty unless
    /// [`SuiteConfig::trace`] was set.
    pub traces: TraceSink,
    /// Fleet-wide metrics chunks in canonical cell order — empty unless
    /// [`SuiteConfig::metrics`] was set.
    pub metrics: MetricsSink,
}

impl PerfCostResult {
    /// Flattens the result into metric rows for storage/export — the
    /// suite's equivalent of the toolkit's cached JSON results.
    pub fn to_store(&self) -> ResultStore {
        let mut store = ResultStore::new();
        for (cell, s) in self.series.iter().enumerate() {
            let start = match s.start {
                StartKind::Cold => "cold",
                StartKind::Warm => "warm",
            };
            let tag = |m: Measurement| {
                m.with_tag("cell", cell.to_string())
                    .with_tag("memory_mb", s.memory_mb.to_string())
                    .with_tag("start", start)
            };
            let provider = s.provider.to_string();
            for (metric, values) in [
                ("client_time_ms", &s.client_ms),
                ("provider_time_ms", &s.provider_ms),
                ("benchmark_time_ms", &s.benchmark_ms),
                ("cost_usd", &s.cost_usd),
                ("used_memory_mb", &s.used_memory_mb),
            ] {
                for &v in values {
                    store.push(tag(Measurement::new(
                        "perf-cost",
                        &s.benchmark,
                        &provider,
                        metric,
                        v,
                    )));
                }
            }
            store.push(tag(Measurement::new(
                "perf-cost",
                &s.benchmark,
                &provider,
                "failures",
                s.failures as f64,
            )));
        }
        // Rows are pushed in series order already, but the sort is the
        // exported guarantee: any store carrying `cell` tags serializes in
        // canonical cell order no matter how its rows were merged.
        store.sort_by_tag_index("cell");
        store
    }

    /// Finds a series.
    pub fn series(
        &self,
        provider: ProviderKind,
        benchmark: &str,
        memory_mb: u32,
        start: StartKind,
    ) -> Option<&PerfCostSeries> {
        self.series.iter().find(|s| {
            s.provider == provider
                && s.benchmark == benchmark
                && s.memory_mb == memory_mb
                && s.start == start
        })
    }
}

/// Runs Perf-Cost for the given benchmarks × providers × memory sizes,
/// with the worker count from [`SuiteConfig::jobs`] (default 1).
///
/// Memory sizes that a provider rejects (e.g. 3008 MB on GCP's tier list)
/// are skipped for that provider, as the paper does. The passed suite only
/// supplies the configuration: every grid cell runs on an independent
/// suite with a cell-salted seed, which is what makes the grid
/// parallelizable without changing its output.
pub fn run_perf_cost(
    suite: &Suite,
    benchmarks: &[(&str, Language)],
    providers: &[ProviderKind],
    memories_mb: &[u32],
    scale: Scale,
) -> PerfCostResult {
    let grid = ExperimentGrid::new(benchmarks, providers, memories_mb);
    let runner = ParallelRunner::new(suite.config().jobs);
    run_perf_cost_grid(suite.config(), &grid, scale, &runner)
}

/// Runs Perf-Cost over an explicit [`ExperimentGrid`] on `runner`'s worker
/// threads. The result — including its [`PerfCostResult::to_store`] JSON —
/// is byte-identical for every worker count.
pub fn run_perf_cost_grid(
    config: &SuiteConfig,
    grid: &ExperimentGrid,
    scale: Scale,
    runner: &ParallelRunner,
) -> PerfCostResult {
    let cells = grid.cells();
    let (pairs, observed) =
        runner.run_cells(cells.len(), |i| sample_cell(config, &cells[i], scale));
    PerfCostResult {
        series: pairs.into_iter().flatten().collect(),
        traces: observed.traces,
        metrics: observed.metrics,
    }
}

/// Samples one grid cell on its own cell-seeded suite; `None` when the
/// provider rejects the configuration.
fn sample_cell(
    config: &SuiteConfig,
    cell: &GridCell,
    scale: Scale,
) -> Option<([PerfCostSeries; 2], Observations)> {
    let samples = config.samples;
    let batch = config.batch_size.max(1);
    let ci_frac = config.ci_target_fraction;
    let level = config.confidence;
    let max_samples = config.max_samples;

    let mut suite = cell.suite(config);
    let provider = cell.provider;
    let benchmark = cell.benchmark.as_str();
    let handle = suite
        .deploy(provider, benchmark, cell.language, cell.memory_mb, scale)
        .ok()?; // configuration not offered by this provider

    let mut cold = new_series(provider, benchmark, cell.memory_mb, StartKind::Cold);
    let mut warm = new_series(provider, benchmark, cell.memory_mb, StartKind::Warm);

    // Cold sampling: evict between batches. The rounds guard bounds the
    // loop even under pathological profiles where most records are
    // skipped (wrong start kind).
    let mut rounds = 0usize;
    let max_rounds = 4 * max_samples / batch.max(1) + 16;
    while cold.client_ms.len() < samples
        && cold.client_ms.len() + cold.failures < max_samples
        && rounds < max_rounds
    {
        rounds += 1;
        suite.enforce_cold_start(&handle);
        let records = suite.invoke_burst(&handle, batch.min(samples));
        absorb(&mut cold, &records, StartKind::Cold);
        suite.advance(provider, SimDuration::from_secs(2));
    }

    // Warm sampling: warm the pool once, then batch without letting
    // containers idle past eviction. Adaptive growth until the CI
    // stopping rule fires.
    let mut target = samples;
    let mut rounds = 0usize;
    while warm.client_ms.len() < target
        && warm.client_ms.len() + warm.failures < max_samples
        && rounds < max_rounds
    {
        rounds += 1;
        let records = suite.invoke_burst(&handle, batch.min(target));
        absorb(&mut warm, &records, StartKind::Warm);
        suite.advance(provider, SimDuration::from_secs(2));
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

    let observed =
        Observations::of_cell(cell.index, suite.take_traces(), suite.take_metrics(), None);
    Some(([cold, warm], observed))
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
        // The first warm batch after a cold enforce may contain cold
        // entries (and GCP mixes spurious colds into warm batches); keep
        // only the requested kind, as the paper's sampling does.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SuiteConfig;

    fn tiny_suite() -> Suite {
        Suite::new(SuiteConfig::fast().with_seed(101))
    }

    #[test]
    fn produces_cold_and_warm_series() {
        let mut suite = tiny_suite();
        let result = run_perf_cost(
            &mut suite,
            &[("graph-bfs", Language::Python)],
            &[ProviderKind::Aws],
            &[512],
            Scale::Test,
        );
        assert_eq!(result.series.len(), 2);
        let cold = result
            .series(ProviderKind::Aws, "graph-bfs", 512, StartKind::Cold)
            .unwrap();
        let warm = result
            .series(ProviderKind::Aws, "graph-bfs", 512, StartKind::Warm)
            .unwrap();
        assert!(cold.client_ms.len() >= 20);
        assert!(warm.client_ms.len() >= 20);
        assert!(
            cold.median_client_ms() > warm.median_client_ms(),
            "cold {} vs warm {}",
            cold.median_client_ms(),
            warm.median_client_ms()
        );
    }

    #[test]
    fn aws_beats_gcp_on_storage_bound_benchmarks() {
        // Figure 3's headline: AWS fastest, with the largest GCP slowdown
        // on storage-bandwidth-bound benchmarks.
        let mut suite = tiny_suite();
        let result = run_perf_cost(
            &mut suite,
            &[("thumbnailer", Language::Python)],
            &[ProviderKind::Aws, ProviderKind::Gcp],
            &[1024],
            Scale::Test,
        );
        let aws = result
            .series(ProviderKind::Aws, "thumbnailer", 1024, StartKind::Warm)
            .unwrap();
        let gcp = result
            .series(ProviderKind::Gcp, "thumbnailer", 1024, StartKind::Warm)
            .unwrap();
        assert!(
            gcp.median_provider_ms() > aws.median_provider_ms(),
            "gcp {} should trail aws {}",
            gcp.median_provider_ms(),
            aws.median_provider_ms()
        );
    }

    #[test]
    fn memory_sweep_speeds_up_compute_until_plateau() {
        let mut suite = tiny_suite();
        let result = run_perf_cost(
            &mut suite,
            &[("graph-pagerank", Language::Python)],
            &[ProviderKind::Aws],
            &[128, 1024, 3008],
            Scale::Test,
        );
        let t = |mem: u32| {
            result
                .series(ProviderKind::Aws, "graph-pagerank", mem, StartKind::Warm)
                .unwrap()
                .median_benchmark_ms()
        };
        assert!(t(128) > 2.0 * t(1024), "128 {} vs 1024 {}", t(128), t(1024));
        assert!(t(1024) >= t(3008) * 0.8, "the curve flattens");
    }

    #[test]
    fn unsupported_memory_configs_are_skipped() {
        let mut suite = tiny_suite();
        let result = run_perf_cost(
            &mut suite,
            &[("graph-bfs", Language::Python)],
            &[ProviderKind::Gcp],
            &[3008], // not a GCP tier
            Scale::Test,
        );
        assert!(result.series.is_empty());
    }

    #[test]
    fn result_store_round_trips_through_json() {
        let mut suite = tiny_suite();
        let result = run_perf_cost(
            &mut suite,
            &[("dynamic-html", Language::Python)],
            &[ProviderKind::Aws],
            &[256],
            Scale::Test,
        );
        let store = result.to_store();
        assert!(!store.is_empty());
        let warm_times = store.values(
            "client_time_ms",
            Some("dynamic-html"),
            Some("aws"),
            &[("start", "warm"), ("memory_mb", "256")],
        );
        let series = result
            .series(ProviderKind::Aws, "dynamic-html", 256, StartKind::Warm)
            .unwrap();
        assert_eq!(warm_times, series.client_ms);
        let back = sebs_metrics::ResultStore::from_json(&store.to_json()).unwrap();
        assert_eq!(back, store);
    }

    #[test]
    fn traces_are_collected_per_cell_in_canonical_order() {
        let suite = Suite::new(SuiteConfig::fast().with_seed(101).with_trace(true));
        let result = run_perf_cost(
            &suite,
            &[("dynamic-html", Language::Python)],
            &[ProviderKind::Aws, ProviderKind::Gcp],
            &[256],
            Scale::Test,
        );
        assert!(!result.traces.is_empty());
        let cells: Vec<Option<u64>> = result.traces.traces().iter().map(|t| t.cell).collect();
        assert!(cells.iter().all(Option::is_some), "every trace is tagged");
        assert!(cells.windows(2).all(|w| w[0] <= w[1]), "canonical order");
        // Without the knob the sink stays empty.
        let quiet = run_perf_cost(
            &tiny_suite(),
            &[("dynamic-html", Language::Python)],
            &[ProviderKind::Aws],
            &[256],
            Scale::Test,
        );
        assert!(quiet.traces.is_empty());
    }

    #[test]
    fn metrics_are_collected_per_cell_in_canonical_order() {
        let suite = Suite::new(SuiteConfig::fast().with_seed(101).with_metrics(true));
        let result = run_perf_cost(
            &suite,
            &[("dynamic-html", Language::Python)],
            &[ProviderKind::Aws, ProviderKind::Gcp],
            &[256],
            Scale::Test,
        );
        assert!(!result.metrics.is_empty());
        let cells: Vec<Option<u64>> = result.metrics.chunks().iter().map(|c| c.cell).collect();
        assert!(cells.iter().all(Option::is_some), "every chunk is tagged");
        assert!(cells.windows(2).all(|w| w[0] <= w[1]), "canonical order");
        assert!(result.metrics.point_count() > 0, "gauges were sampled");
        // Collection changes no simulation result.
        let quiet = run_perf_cost(
            &tiny_suite(),
            &[("dynamic-html", Language::Python)],
            &[ProviderKind::Aws, ProviderKind::Gcp],
            &[256],
            Scale::Test,
        );
        assert!(quiet.metrics.is_empty());
        assert_eq!(quiet.series, result.series, "metrics on/off: same series");
    }

    #[test]
    fn cost_metrics_are_populated() {
        let mut suite = tiny_suite();
        let result = run_perf_cost(
            &mut suite,
            &[("dynamic-html", Language::Python)],
            &[ProviderKind::Aws],
            &[256],
            Scale::Test,
        );
        let warm = result
            .series(ProviderKind::Aws, "dynamic-html", 256, StartKind::Warm)
            .unwrap();
        assert!(warm.cost_of_million_usd() > 0.0);
        assert!(warm.failure_rate() < 0.5);
        assert!(warm.billed_memory_mb.iter().all(|&m| m == 256.0));
    }
}
