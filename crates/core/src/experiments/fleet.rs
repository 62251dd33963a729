//! The Fleet experiment: trace-driven replay of a function fleet.
//!
//! Where every other driver synthesizes its own small invocation
//! stream, this one replays a [`TraceModel`] — thousands of functions
//! with Zipf-skewed popularity, bursty/diurnal arrivals and
//! heavy-tailed durations (the published Azure Functions 2019 shape, or
//! an imported CSV trace) — through the full platform/pool/telemetry
//! stack, reporting the fleet-level quantities the paper's per-function
//! experiments cannot see: aggregate cold-start rate, warm-pool
//! occupancy over time, per-percentile client latency and total cost.
//!
//! Parallelism follows the house pattern: functions are partitioned
//! into a **fixed** number of experiment cells by a stable hash of
//! their name (never by worker count), each cell replays its share on
//! an independent platform seeded with a cell-salted `SimRng::child`,
//! and traces/metrics/rows merge in canonical cell order — so every
//! export is byte-identical for any `--jobs`.

use sebs_metrics::{Measurement, QuantileSketch, ResultStore};
use sebs_platform::{
    FaasPlatform, FunctionConfig, FunctionId, InvocationOutcome, ProviderKind, ProviderProfile,
    StartKind,
};
use sebs_sim::{fnv1a, PhaseProfiler, SimDuration, SimRng};
use sebs_telemetry::MetricsSink;
use sebs_trace::TraceSink;
use sebs_workload_gen::{SyntheticFunction, SyntheticSpec, TraceModel};
use sebs_workloads::Payload;

use super::replay::{Event, ReplayStream};
use crate::config::SuiteConfig;
use crate::runner::{Observations, ParallelRunner};

/// Knobs of the fleet replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Target provider.
    pub provider: ProviderKind,
    /// Fleet size for the synthetic generator.
    pub functions: usize,
    /// Expected total invocations for the synthetic generator.
    pub target_invocations: u64,
    /// Trace horizon.
    pub horizon: SimDuration,
    /// Zipf popularity exponent for the synthetic generator.
    pub zipf_exponent: f64,
    /// Number of experiment cells the fleet is hash-partitioned into.
    /// Fixed independently of `--jobs`; results depend on this value
    /// (it decides which functions share a platform), never on the
    /// worker count.
    pub cells: usize,
}

impl FleetConfig {
    /// Defaults sized for the acceptance bar: 10⁵ invocations across
    /// 1,000 functions over two simulated hours.
    pub fn new(provider: ProviderKind) -> FleetConfig {
        FleetConfig {
            provider,
            functions: 1000,
            target_invocations: 100_000,
            horizon: SimDuration::from_secs(7200),
            zipf_exponent: 1.1,
            cells: 16,
        }
    }

    /// The synthetic Azure-2019-shaped model for these knobs.
    pub fn synthetic_model(&self, seed: u64) -> TraceModel {
        let mut spec =
            SyntheticSpec::azure_2019(self.functions, self.target_invocations, self.horizon);
        spec.zipf_exponent = self.zipf_exponent;
        spec.build_model(seed)
    }
}

/// Measured outcomes of one cell's replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCellSeries {
    /// Canonical cell index — the seed salt and merge key.
    pub index: usize,
    /// Functions deployed in this cell.
    pub functions: usize,
    /// Invocations replayed.
    pub invocations: usize,
    /// Invocations served by a freshly booted container.
    pub cold_starts: usize,
    /// Invocations served by a warm container.
    pub warm_starts: usize,
    /// Invocations that did not end in success.
    pub failures: usize,
    /// Client latency (ms) of every successful invocation, folded into a
    /// fixed-memory log-bucketed sketch (≤1% relative error on
    /// percentiles) — the fleet path never keeps per-invocation samples.
    pub client_latency: QuantileSketch,
    /// Total cost across all billed invocations (USD).
    pub cost_usd: f64,
    /// Warm containers alive in this cell at each occupancy sample.
    pub warm_pool_samples: Vec<u64>,
}

/// Full result of a fleet replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Provider the fleet ran on.
    pub provider: ProviderKind,
    /// One series per cell, in canonical cell order.
    pub series: Vec<FleetCellSeries>,
    /// Per-invocation traces in canonical cell order — empty unless
    /// [`SuiteConfig::trace`] was set.
    pub traces: TraceSink,
    /// Fleet-wide metrics chunks in canonical cell order — empty unless
    /// [`SuiteConfig::metrics`] was set.
    pub metrics: MetricsSink,
    /// Merged sim-time phase profile across all cells — empty unless
    /// [`SuiteConfig::profile`] was set. Identical for every merge order
    /// and worker count.
    pub profile: PhaseProfiler,
}

impl FleetResult {
    /// Total invocations replayed.
    pub fn invocations(&self) -> usize {
        self.series.iter().map(|s| s.invocations).sum()
    }

    /// Fraction of invocations that hit a cold start.
    pub fn cold_start_rate(&self) -> f64 {
        let n = self.invocations();
        if n == 0 {
            return 0.0;
        }
        let cold: usize = self.series.iter().map(|s| s.cold_starts).sum();
        cold as f64 / n as f64
    }

    /// Fraction of invocations that did not succeed.
    pub fn failure_rate(&self) -> f64 {
        let n = self.invocations();
        if n == 0 {
            return 0.0;
        }
        let failed: usize = self.series.iter().map(|s| s.failures).sum();
        failed as f64 / n as f64
    }

    /// Mean warm containers alive across the fleet (averaged over the
    /// occupancy sample grid, summed over cells).
    pub fn mean_warm_pool(&self) -> f64 {
        let samples = self
            .series
            .iter()
            .map(|s| s.warm_pool_samples.len())
            .max()
            .unwrap_or(0);
        if samples == 0 {
            return 0.0;
        }
        let total: u64 = self
            .series
            .iter()
            .flat_map(|s| s.warm_pool_samples.iter())
            .sum();
        total as f64 / samples as f64
    }

    /// The merged client-latency sketch across all cells.
    pub fn latency_sketch(&self) -> QuantileSketch {
        let mut merged = QuantileSketch::new();
        for s in &self.series {
            merged.merge(&s.client_latency);
        }
        merged
    }

    /// The `p`-th percentile of client latency (ms) over all successful
    /// invocations, estimated from the merged sketch (≤1% relative
    /// error; the min and max are exact).
    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        self.latency_sketch().percentile(p)
    }

    /// Total cost of the replay (USD).
    pub fn total_cost_usd(&self) -> f64 {
        self.series.iter().map(|s| s.cost_usd).sum()
    }

    /// Flattens the result into metric rows: one block per cell (tagged
    /// with its canonical index) plus a fleet-level summary block tagged
    /// `cell = <cells>` so it sorts last. Byte-identical for every
    /// worker count.
    pub fn to_store(&self) -> ResultStore {
        let mut store = ResultStore::new();
        let provider = self.provider.to_string();
        for s in &self.series {
            let mut push = |metric: &str, value: f64| {
                store.push(
                    Measurement::new("fleet", "fleet-replay", &provider, metric, value)
                        .with_tag("cell", s.index.to_string()),
                );
            };
            push("functions", s.functions as f64);
            push("invocations", s.invocations as f64);
            push("cold_starts", s.cold_starts as f64);
            push("warm_starts", s.warm_starts as f64);
            push("failures", s.failures as f64);
            push("cost_usd", s.cost_usd);
            push("client_p50_ms", s.client_latency.p50());
            push("client_p95_ms", s.client_latency.p95());
            push("client_p99_ms", s.client_latency.p99());
            let occ = if s.warm_pool_samples.is_empty() {
                0.0
            } else {
                s.warm_pool_samples.iter().sum::<u64>() as f64 / s.warm_pool_samples.len() as f64
            };
            push("warm_pool_mean", occ);
        }
        let summary_cell = self.series.len().to_string();
        let mut push = |metric: &str, value: f64| {
            store.push(
                Measurement::new("fleet", "fleet-replay", &provider, metric, value)
                    .with_tag("cell", summary_cell.clone()),
            );
        };
        push("fleet_invocations", self.invocations() as f64);
        push("fleet_cold_start_rate", self.cold_start_rate());
        push("fleet_failure_rate", self.failure_rate());
        push("fleet_warm_pool_mean", self.mean_warm_pool());
        push("fleet_p50_ms", self.latency_percentile_ms(50.0));
        push("fleet_p95_ms", self.latency_percentile_ms(95.0));
        push("fleet_p99_ms", self.latency_percentile_ms(99.0));
        push("fleet_cost_usd", self.total_cost_usd());
        store.sort_by_tag_index("cell");
        store
    }
}

/// Replays `model` with the worker count from [`SuiteConfig::jobs`].
///
/// Functions are hash-partitioned into [`FleetConfig::cells`] cells, and
/// each cell replays its share on an independent cell-salted platform.
/// A cell streams its functions' arrivals from [`TraceModel::arrivals`]
/// (deterministically in [`SuiteConfig::seed`]) as it replays them, so
/// no trace is built and memory stays flat in the invocation count.
///
/// A cell holding a function the provider refuses to deploy is dropped
/// from the result whole: its functions and invocations appear nowhere.
/// Callers replaying an imported trace should check deployability first,
/// as `sebs fleet` and `sebs report` do.
pub fn run_fleet(config: &SuiteConfig, fleet: &FleetConfig, model: &TraceModel) -> FleetResult {
    let cells = fleet.cells.max(1);
    let mut fns_per_cell: Vec<Vec<usize>> = vec![Vec::new(); cells];
    for (i, f) in model.functions.iter().enumerate() {
        fns_per_cell[(fnv1a(f.profile.name.as_bytes()) % cells as u64) as usize].push(i);
    }

    let (series, observed) = ParallelRunner::new(config.jobs).run_cells(cells, |i| {
        sample_cell(config, fleet, model, i, &fns_per_cell[i])
    });
    FleetResult {
        provider: fleet.provider,
        series,
        traces: observed.traces,
        metrics: observed.metrics,
        profile: observed.profile.unwrap_or_default(),
    }
}

/// Replays one cell on its own seeded platform; `None` when the
/// provider rejects a deployment (synthetic fleets only use sizes every
/// provider accepts, so this is an imported-trace concern).
fn sample_cell(
    config: &SuiteConfig,
    fleet: &FleetConfig,
    model: &TraceModel,
    index: usize,
    fn_indices: &[usize],
) -> Option<(FleetCellSeries, Observations)> {
    let seed = SimRng::new(config.seed).child(index as u64).seed();
    let mut platform = FaasPlatform::new(ProviderProfile::for_kind(fleet.provider), seed);
    config.install_observers(&mut platform);
    if config.profile {
        platform.enable_profiling();
    }

    // The cell's functions in deploy order, and each model function's
    // position among them (`u32::MAX` for functions of other cells), so
    // an arrival finds its function by two indexed loads.
    let mut deployed: Vec<(FunctionId, SyntheticFunction)> = Vec::with_capacity(fn_indices.len());
    let mut position = vec![u32::MAX; model.functions.len()];
    for &fi in fn_indices {
        let profile = &model.functions[fi].profile;
        let cfg = FunctionConfig::new(&profile.name, profile.language, profile.memory_mb);
        let id = platform.deploy(cfg).ok()?;
        let ops_per_ms = platform
            .profile()
            .compute_rate(profile.memory_mb, profile.language)
            / 1000.0;
        position[fi] = deployed.len() as u32;
        deployed.push((id, SyntheticFunction::from_profile(profile, ops_per_ms)));
    }

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

    let payload = Payload::empty();
    let arrivals = model.arrivals(config.seed, fn_indices);
    for ev in ReplayStream::new(arrivals, fleet.horizon) {
        platform.advance(ev.at().saturating_duration_since(platform.now()));
        match ev {
            Event::Sample(_) => {
                let warm: usize = deployed
                    .iter()
                    .map(|(id, _)| platform.observe_pool(*id).warm)
                    .sum();
                series.warm_pool_samples.push(warm as u64);
            }
            Event::Arrival(a) => {
                let Some((id, workload)) = position
                    .get(a.function as usize)
                    .and_then(|&p| deployed.get(p as usize))
                else {
                    continue;
                };
                let record = platform.invoke(*id, workload, &payload);
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
            Event::End(_) => {}
        }
    }

    let observed = Observations::of_cell(
        index,
        platform.take_traces(),
        platform.take_metrics(),
        platform.take_profile(),
    );
    Some((series, observed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::Phase;

    fn small_fleet() -> FleetConfig {
        FleetConfig {
            provider: ProviderKind::Aws,
            functions: 60,
            target_invocations: 3_000,
            horizon: SimDuration::from_secs(1800),
            zipf_exponent: 1.1,
            cells: 8,
        }
    }

    fn run(config: SuiteConfig) -> (FleetResult, FleetConfig) {
        let fleet = small_fleet();
        let model = fleet.synthetic_model(config.seed);
        (run_fleet(&config, &fleet, &model), fleet)
    }

    #[test]
    fn replay_reports_fleet_level_quantities() {
        let (result, fleet) = run(SuiteConfig::fast().with_seed(21));
        let n = result.invocations();
        let expected = fleet.target_invocations as f64;
        assert!(
            (n as f64 - expected).abs() < 0.15 * expected,
            "replayed {n}, expected ≈{expected}"
        );
        assert_eq!(
            result.series.iter().map(|s| s.functions).sum::<usize>(),
            fleet.functions,
            "every function lands in exactly one cell"
        );
        assert!(result.series.len() > 1, "fleet spreads over cells");
        let rate = result.cold_start_rate();
        assert!(rate > 0.0 && rate < 0.5, "cold-start rate {rate}");
        assert!(result.mean_warm_pool() > 0.0);
        let (p50, p95, p99) = (
            result.latency_percentile_ms(50.0),
            result.latency_percentile_ms(95.0),
            result.latency_percentile_ms(99.0),
        );
        assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99, "{p50}/{p95}/{p99}");
        assert!(result.total_cost_usd() > 0.0);
        assert!(result.failure_rate() < 0.05, "{}", result.failure_rate());
    }

    #[test]
    fn results_are_byte_identical_across_jobs() {
        let (sequential, _) = run(SuiteConfig::fast().with_seed(31).with_jobs(1));
        for jobs in [2, 4] {
            let (parallel, _) = run(SuiteConfig::fast().with_seed(31).with_jobs(jobs));
            assert_eq!(parallel.series, sequential.series, "jobs={jobs}");
            assert_eq!(
                parallel.to_store().to_json(),
                sequential.to_store().to_json(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn observability_is_bit_invisible_and_bounded() {
        use sebs_trace::SamplerSpec;
        let fleet = small_fleet();
        let base = SuiteConfig::fast().with_seed(31);
        let model = fleet.synthetic_model(base.seed);
        let plain = run_fleet(&base, &fleet, &model);
        let observed = run_fleet(
            &base
                .clone()
                .with_metrics(true)
                .with_trace_sampling(SamplerSpec::fleet_default())
                .with_profile(true),
            &fleet,
            &model,
        );
        assert_eq!(
            observed.series, plain.series,
            "sampling + profiling + metrics are bit-invisible to results"
        );
        assert!(plain.traces.is_empty() && plain.profile.is_empty());
        assert!(!observed.traces.is_empty());
        // Each cell owns a sampler, so the fleet-wide ceiling is the
        // per-function reservoirs plus per-cell slowest/error exemplars.
        let spec = SamplerSpec::fleet_default();
        let bound =
            spec.reservoir_per_fn * fleet.functions + fleet.cells * (spec.slowest_k + spec.error_k);
        assert!(
            observed.traces.len() <= bound,
            "kept {} traces (bound {bound}) across {} invocations",
            observed.traces.len(),
            observed.invocations()
        );
        assert_eq!(
            observed.profile.stat(Phase::RunnerMerge).events,
            observed.series.len() as u64,
            "one merge event per cell"
        );
        assert!(observed.profile.stat(Phase::PoolAcquire).events > 0);
        assert!(observed.profile.stat(Phase::Billing).events > 0);
    }

    #[test]
    fn store_carries_cell_rows_and_fleet_summary() {
        let (result, _) = run(SuiteConfig::fast().with_seed(5));
        let store = result.to_store();
        assert!(!store.is_empty());
        let summary_cell = result.series.len().to_string();
        let total = store.values(
            "fleet_invocations",
            Some("fleet-replay"),
            Some("aws"),
            &[("cell", summary_cell.as_str())],
        );
        assert_eq!(total.len(), 1);
        assert_eq!(total[0], result.invocations() as f64);
        let per_cell = store.values("invocations", Some("fleet-replay"), Some("aws"), &[]);
        assert_eq!(per_cell.len(), result.series.len());
        assert_eq!(per_cell.iter().sum::<f64>(), total[0]);
        let back = sebs_metrics::ResultStore::from_json(&store.to_json()).unwrap();
        assert_eq!(back, store);
    }

    #[test]
    fn zipf_popularity_shows_up_in_cold_start_skew() {
        // The head function is hot enough to stay warm; deep-tail
        // functions are invoked so rarely that almost every hit is cold.
        let config = SuiteConfig::fast().with_seed(9);
        let fleet = small_fleet();
        let model = fleet.synthetic_model(config.seed);
        let trace = model.generate(config.seed);
        let counts = trace.invocations_per_function(fleet.functions);
        assert!(
            counts[0] > 10 * counts[fleet.functions - 1].max(1),
            "head {} vs tail {}",
            counts[0],
            counts[fleet.functions - 1]
        );
    }
}
