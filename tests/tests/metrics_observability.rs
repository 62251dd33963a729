//! Cross-crate checks of the telemetry subsystem: exports must be
//! byte-identical for every worker count, collection must never change a
//! simulation result, and the sampled warm-pool occupancy series must be
//! rich enough to re-derive the provider's eviction half-life (Figure 7)
//! without looking at the policy itself.

use sebs::experiments::run_perf_cost_grid;
use sebs::{ExperimentGrid, ParallelRunner, Suite, SuiteConfig};
use sebs_platform::{FaasPlatform, ProviderKind, ProviderProfile};
use sebs_sim::SimDuration;
use sebs_telemetry::{csv_timeseries, prometheus_text, MetricsChunk, DEFAULT_SAMPLE_INTERVAL};
use sebs_workloads::{Language, Scale};

const SEED: u64 = 2024;

#[test]
fn exports_are_byte_identical_for_any_worker_count() {
    let grid = ExperimentGrid::new(
        &[("dynamic-html", Language::Python)],
        &[ProviderKind::Aws, ProviderKind::Gcp],
        &[256],
    );
    let export = |jobs: usize| {
        let config = SuiteConfig::fast()
            .with_seed(SEED)
            .with_jobs(jobs)
            .with_metrics(true);
        let result = run_perf_cost_grid(&config, &grid, Scale::Test, &ParallelRunner::new(jobs));
        (
            prometheus_text(&result.metrics),
            csv_timeseries(&result.metrics),
        )
    };
    let (prom, csv) = export(1);
    assert!(prom.contains("# TYPE"), "prometheus export has families");
    assert!(
        csv.starts_with("t_secs,cell,provider,metric,labels,value"),
        "csv export has the header row"
    );
    for jobs in [2, 8] {
        assert_eq!(export(jobs), (prom.clone(), csv.clone()), "jobs={jobs}");
    }
}

#[test]
fn metrics_collection_never_changes_suite_results() {
    let run = |metrics: bool| {
        let mut suite = Suite::new(SuiteConfig::fast().with_seed(SEED).with_metrics(metrics));
        let handle = suite
            .deploy(
                ProviderKind::Gcp,
                "dynamic-html",
                Language::Python,
                256,
                Scale::Test,
            )
            .unwrap();
        let mut records = suite.invoke_burst(&handle, 3);
        suite.advance(ProviderKind::Gcp, SimDuration::from_secs(2));
        suite.enforce_cold_start(&handle);
        records.push(suite.invoke(&handle));
        suite.advance(ProviderKind::Gcp, SimDuration::from_secs(500));
        records.extend(suite.invoke_burst(&handle, 2));
        records
    };
    assert_eq!(run(false), run(true), "metrics are pure observation");
}

/// Figure 7's shape, recovered from telemetry alone: warm 16 containers,
/// let them idle, and read the eviction half-life off the sampled
/// `sebs_containers_warm` series — successive halvings of the occupancy
/// must be one policy period apart, within 5%.
#[test]
fn warm_pool_series_recovers_the_eviction_half_life() {
    let expected = 380.0; // AWS HalfLife period (Table 2 / Figure 7)
    let mut suite = Suite::new(SuiteConfig::fast().with_seed(SEED).with_metrics(true));
    let handle = suite
        .deploy(
            ProviderKind::Aws,
            "dynamic-html",
            Language::Python,
            512,
            Scale::Test,
        )
        .unwrap();
    let records = suite.invoke_burst(&handle, 16);
    assert!(records.iter().all(|r| r.outcome.is_success()));
    suite.advance(ProviderKind::Aws, SimDuration::from_secs(1600));

    let sink = suite.take_metrics();
    let chunk = &sink.chunks()[0];
    let occupancy: Vec<(f64, f64)> = chunk
        .points
        .iter()
        .filter(|p| {
            p.series.name == "sebs_containers_warm"
                && p.series.labels == [("pool".to_string(), "fn:0".to_string())]
        })
        .map(|p| (p.at.as_secs_f64(), p.value))
        .collect();
    assert!(occupancy.len() >= 1500, "one sample per sim-second");

    let peak = occupancy.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    assert_eq!(peak, 16.0, "all 16 burst containers were warm at once");
    // First instant the occupancy drops to (or below) each halving level.
    let halving_time = |level: f64| {
        occupancy
            .iter()
            .find(|&&(_, v)| v <= level)
            .map(|&(t, _)| t)
            .unwrap_or_else(|| panic!("occupancy never reached {level}"))
    };
    let t1 = halving_time(8.0);
    let t2 = halving_time(4.0);
    let t3 = halving_time(2.0);
    for (label, estimate) in [
        ("first halving", t1),
        ("second spacing", t2 - t1),
        ("third spacing", t3 - t2),
    ] {
        assert!(
            (estimate - expected).abs() / expected <= 0.05,
            "{label}: estimated period {estimate:.1} s vs policy {expected} s"
        );
    }
}

#[test]
fn monitoring_fidelity_gauges_mirror_the_paper_table() {
    // (provider, reports memory per invocation, memory values reliable):
    // the Figure 5b caveats, exported as info-gauges so a metrics consumer
    // can tell which providers' memory series are usable.
    let gauge = |chunk: &MetricsChunk, name: &str| {
        chunk
            .gauges
            .iter()
            .find(|(k, _)| k.name == name)
            .unwrap_or_else(|| panic!("{name} gauge"))
            .1
    };
    for (kind, reports, reliable) in [
        (ProviderKind::Aws, 1.0, 1.0),
        (ProviderKind::Azure, 1.0, 0.0),
        (ProviderKind::Gcp, 0.0, 1.0),
    ] {
        let mut platform = FaasPlatform::new(ProviderProfile::for_kind(kind), SEED);
        platform.enable_metrics(DEFAULT_SAMPLE_INTERVAL);
        let chunk = platform.take_metrics().expect("metrics are enabled");
        assert_eq!(
            gauge(&chunk, "sebs_monitoring_reports_memory"),
            reports,
            "{kind:?}"
        );
        assert_eq!(
            gauge(&chunk, "sebs_monitoring_memory_reliable"),
            reliable,
            "{kind:?}"
        );
        assert_eq!(
            gauge(&chunk, "sebs_concurrency_limit"),
            ProviderProfile::for_kind(kind).limits.concurrency as f64,
            "{kind:?}"
        );
    }
}
