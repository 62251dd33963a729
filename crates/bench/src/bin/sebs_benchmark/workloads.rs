//! The four replay workloads: their sizes, their one-time set-up, one
//! repetition through the public entry point, and the correctness checks
//! every repetition's output must pass.

use sebs::experiments::{
    run_cluster, run_fleet, run_perf_cost_grid, ClusterSweepConfig, ClusterSweepResult,
    FleetConfig, FleetResult, PerfCostResult,
};
use sebs::{fleet_report, ExperimentGrid, ParallelRunner, ReportFormat, SuiteConfig};
use sebs_metrics::QuantileSketch;
use sebs_platform::{ProviderKind, StartKind};
use sebs_sim::SimDuration;
use sebs_trace::SamplerSpec;
use sebs_workload_gen::TraceModel;
use sebs_workloads::{Language, Scale};

use crate::spans::now_ns;

/// The ten Python benchmarks of the paper's Table 3.
pub const BENCHES: [&str; 10] = [
    "dynamic-html",
    "uploader",
    "thumbnailer",
    "video-processing",
    "compression",
    "data-vis",
    "image-recognition",
    "graph-pagerank",
    "graph-mst",
    "graph-bfs",
];

/// Benchmarks of the `--smoke` suite grid.
const SMOKE_BENCHES: [&str; 2] = ["dynamic-html", "graph-bfs"];

/// Seed of the synthetic fleet models. A fleet's shape (which functions
/// are hot, bursty, long or large) is part of the workload's definition;
/// `--seed` drives the trace expansion and every platform's randomness.
/// A per-seed fleet would make the measured rate depend on which
/// functions happen to be hot and bursty.
const FLEET_MODEL_SEED: u64 = 2021;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FleetDense,
    FleetObserved,
    ClusterChaos,
    SuiteKernels,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::FleetDense,
        Kind::FleetObserved,
        Kind::ClusterChaos,
        Kind::SuiteKernels,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::FleetDense => "fleet-dense",
            Kind::FleetObserved => "fleet-observed",
            Kind::ClusterChaos => "cluster-chaos",
            Kind::SuiteKernels => "suite-kernels",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Everything built once before the first repetition.
pub enum Setup {
    Fleet {
        config: SuiteConfig,
        fleet: FleetConfig,
        model: TraceModel,
        /// Render the `sebs report` markdown as part of each repetition.
        report: bool,
    },
    Cluster {
        config: SuiteConfig,
        sweep: ClusterSweepConfig,
        model: TraceModel,
    },
    Suite {
        config: SuiteConfig,
        grid: ExperimentGrid,
    },
}

/// Builds the workload's model or grid; `smoke` shrinks it to toy size.
pub fn setup(kind: Kind, seed: u64, smoke: bool) -> Setup {
    let base = SuiteConfig::default().with_seed(seed);
    match kind {
        Kind::FleetDense | Kind::FleetObserved => {
            let observed = kind == Kind::FleetObserved;
            // Sizes keep a one-worker repetition near 0.3 s, so a run holds
            // dozens of repetitions; the short horizons keep the arrivals
            // dense enough that the warm path stays warm.
            let mut fleet = FleetConfig::new(ProviderKind::Aws);
            fleet.horizon = SimDuration::from_secs(if observed { 1800 } else { 2400 });
            fleet.target_invocations = if observed { 50_000 } else { 330_000 };
            if smoke {
                fleet.functions = 50;
                fleet.target_invocations /= 1000;
                fleet.horizon = SimDuration::from_secs(1800);
                fleet.cells = 4;
            }
            let config = if observed {
                base.with_metrics(true)
                    .with_metrics_interval(SimDuration::from_secs(60))
                    .with_trace_sampling(SamplerSpec::fleet_default())
                    .with_profile(true)
            } else {
                base
            };
            let model = fleet.synthetic_model(FLEET_MODEL_SEED);
            Setup::Fleet {
                config,
                fleet,
                model,
                report: observed,
            }
        }
        Kind::ClusterChaos => {
            let mut sweep = ClusterSweepConfig::new(ProviderKind::Aws);
            // One one-worker repetition of all 27 cells takes about 0.4 s.
            sweep.functions = 200;
            sweep.target_invocations = 5_000;
            sweep.horizon = SimDuration::from_secs(1800);
            if smoke {
                sweep.functions = 8;
                sweep.target_invocations = 150;
                sweep.horizon = SimDuration::from_secs(600);
                sweep.hosts = 4;
            }
            let model = sweep.synthetic_model(FLEET_MODEL_SEED);
            Setup::Cluster {
                config: base,
                sweep,
                model,
            }
        }
        Kind::SuiteKernels => {
            let (benches, providers): (&[&str], &[ProviderKind]) = if smoke {
                (&SMOKE_BENCHES, &[ProviderKind::Aws])
            } else {
                (&BENCHES, &[ProviderKind::Aws, ProviderKind::Gcp])
            };
            let benches: Vec<(&str, Language)> =
                benches.iter().map(|b| (*b, Language::Python)).collect();
            let grid = ExperimentGrid::new(&benches, providers, &[1024]);
            let mut config = base.with_samples(if smoke { 2 } else { 20 });
            // Every series stops at its fixed sample count. The adaptive
            // CI rule would double a seed-dependent subset of series, and
            // the changing mix of light and heavy kernels would move the
            // request rate from seed to seed by more than the host's noise.
            config.max_samples = config.samples;
            Setup::Suite { config, grid }
        }
    }
}

/// The result of one repetition.
#[derive(PartialEq)]
pub enum Output {
    Fleet {
        result: FleetResult,
        report: Option<String>,
    },
    Cluster(ClusterSweepResult),
    Suite(PerfCostResult),
}

impl Setup {
    /// Runs one repetition through the public entry point with `jobs`
    /// workers; returns the host nanoseconds it took and its output.
    pub fn rep(&self, jobs: usize) -> (u64, Output) {
        let start = now_ns();
        let out = match self {
            Setup::Fleet {
                config,
                fleet,
                model,
                report,
            } => {
                let config = config.clone().with_jobs(jobs);
                let result = run_fleet(&config, fleet, model);
                let report = report
                    .then(|| fleet_report(&config, fleet, &result).render(ReportFormat::Markdown));
                Output::Fleet { result, report }
            }
            Setup::Cluster {
                config,
                sweep,
                model,
            } => Output::Cluster(run_cluster(&config.clone().with_jobs(jobs), sweep, model)),
            Setup::Suite { config, grid } => Output::Suite(run_perf_cost_grid(
                config,
                grid,
                Scale::Test,
                &ParallelRunner::new(jobs),
            )),
        };
        (now_ns().saturating_sub(start), out)
    }
}

/// Correctness-check tally; `failed / attempted` is the error rate.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one check, reporting it on stderr when it fails.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

impl Output {
    /// Simulated requests replayed: invocations for the fleet, client
    /// chains for the cluster, recorded samples for the suite grid.
    pub fn requests(&self) -> u64 {
        match self {
            Output::Fleet { result, .. } => result.invocations() as u64,
            Output::Cluster(r) => r.series.iter().map(|s| s.chains as u64).sum(),
            Output::Suite(r) => r
                .series
                .iter()
                .map(|s| (s.client_ms.len() + s.failures) as u64)
                .sum(),
        }
    }

    /// The bytes that must not depend on the worker count: the rendered
    /// report when there is one, else the `ResultStore` JSON.
    pub fn canonical(&self) -> String {
        match self {
            Output::Fleet {
                report: Some(report),
                ..
            } => report.clone(),
            Output::Fleet { result, .. } => result.to_store().to_json(),
            Output::Cluster(r) => r.to_store().to_json(),
            Output::Suite(r) => r.to_store().to_json(),
        }
    }

    /// Structural invariants of the simulated results.
    pub fn check(&self, checks: &mut Checks) {
        checks.expect(self.requests() > 0, || {
            "the replay served no requests".into()
        });
        match self {
            Output::Fleet { result, .. } => {
                for s in &result.series {
                    checks.expect(s.cold_starts + s.warm_starts == s.invocations, || {
                        format!("fleet cell {}: cold + warm != invocations", s.index)
                    });
                }
            }
            Output::Cluster(r) => {
                for s in &r.series {
                    checks.expect(s.attempts >= s.chains && s.chains >= s.successes, || {
                        format!("cluster cell {}: attempts >= chains >= successes", s.index)
                    });
                    let served: u64 = s.host_stats.iter().map(|h| h.served).sum();
                    checks.expect(s.cold_starts + s.warm_hits == served, || {
                        format!("cluster cell {}: cold + warm != served", s.index)
                    });
                }
            }
            Output::Suite(r) => {
                for s in &r.series {
                    let n = s.client_ms.len();
                    let ordered = n > 0
                        && [&s.provider_ms, &s.benchmark_ms, &s.cost_usd]
                            .iter()
                            .all(|v| v.len() == n)
                        && (0..n).all(|i| {
                            s.benchmark_ms[i] <= s.provider_ms[i]
                                && s.provider_ms[i] <= s.client_ms[i]
                        });
                    checks.expect(ordered, || {
                        format!(
                            "{} on {} ({:?}): benchmark <= provider <= client time",
                            s.benchmark, s.provider, s.start
                        )
                    });
                }
            }
        }
    }

    /// Simulated outcomes: a speed-only change must leave them
    /// bit-identical.
    pub fn sim_metrics(&self) -> Vec<(&'static str, f64)> {
        let (cold, failures, latency, cost): (u64, u64, QuantileSketch, f64) = match self {
            Output::Fleet { result, .. } => (
                result.series.iter().map(|s| s.cold_starts as u64).sum(),
                result.series.iter().map(|s| s.failures as u64).sum(),
                result.latency_sketch(),
                result.total_cost_usd(),
            ),
            Output::Cluster(r) => {
                let mut latency = QuantileSketch::new();
                for s in &r.series {
                    latency.merge(&s.client_latency);
                }
                (
                    r.series.iter().map(|s| s.cold_starts).sum(),
                    r.series
                        .iter()
                        .map(|s| s.chains.saturating_sub(s.successes) as u64)
                        .sum(),
                    latency,
                    r.series.iter().map(|s| s.cost_usd).sum(),
                )
            }
            Output::Suite(r) => {
                let mut latency = QuantileSketch::new();
                for v in r.series.iter().flat_map(|s| &s.client_ms) {
                    latency.push(*v);
                }
                (
                    r.series
                        .iter()
                        .filter(|s| s.start == StartKind::Cold)
                        .map(|s| s.client_ms.len() as u64)
                        .sum(),
                    r.series.iter().map(|s| s.failures as u64).sum(),
                    latency,
                    r.series.iter().flat_map(|s| &s.cost_usd).sum(),
                )
            }
        };
        vec![
            ("sim.requests", self.requests() as f64),
            ("sim.cold_starts", cold as f64),
            ("sim.failures", failures as f64),
            ("sim.p99_ms", latency.p99()),
            ("sim.cost_usd", cost),
        ]
    }
}
