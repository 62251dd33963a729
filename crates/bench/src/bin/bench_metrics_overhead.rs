//! Timed benchmark of the telemetry overhead: runs the same perf-cost
//! grid with metrics disabled and enabled, checks the measured series are
//! byte-identical either way (metrics are purely observational), and
//! reports the relative wall-clock cost of registry updates and gauge
//! sampling.
//!
//! The grid is dominated by the workload kernels, so a second pass times
//! the metric hooks themselves: the fleet-observed replay shape (1,000
//! functions, ~5×10⁴ invocations over 30 simulated minutes, metrics every
//! 60 s), again with metrics off and on, reporting the instrumented
//! replay's invocations per wall-clock second as
//! `fleet_invocations_per_sec`.
//!
//! Knobs: `SEBS_SAMPLES`, `SEBS_SCALE`, `SEBS_SEED`, `SEBS_JOBS` (see the
//! crate docs).

use std::time::Duration;

use sebs::experiments::fleet::{run_fleet, FleetConfig};
use sebs::experiments::run_perf_cost_grid;
use sebs::{ExperimentGrid, ParallelRunner, SuiteConfig};
use sebs_bench::BenchEnv;
use sebs_platform::ProviderKind;
use sebs_sim::SimDuration;
use sebs_telemetry::prometheus_text;
use sebs_workloads::Language;

fn main() {
    sebs_bench::timed_with("bench_metrics_overhead", run);
}

fn run() -> Vec<(String, f64)> {
    let env = BenchEnv::from_env();
    println!("{}", env.banner("metrics overhead"));

    let grid = ExperimentGrid::new(
        &[
            ("graph-bfs", Language::Python),
            ("thumbnailer", Language::Python),
        ],
        &[ProviderKind::Aws, ProviderKind::Azure, ProviderKind::Gcp],
        &[128, 1024],
    );
    println!("grid: {} cells, metrics off vs on", grid.len());

    let timed = |config: &SuiteConfig| -> (String, usize, String, Duration) {
        let (result, elapsed) = stopwatch(|| {
            run_perf_cost_grid(config, &grid, env.scale, &ParallelRunner::new(env.jobs))
        });
        (
            result.to_store().to_json(),
            result.metrics.point_count(),
            prometheus_text(&result.metrics),
            elapsed,
        )
    };

    let base = env.suite_config();
    let (json_off, n_off, _, t_off) = timed(&base.clone().with_metrics(false));
    let (json_on, n_on, prom, t_on) = timed(&base.with_metrics(true));

    let identical = json_off == json_on;
    let overhead = t_on.as_secs_f64() / t_off.as_secs_f64().max(1e-9) - 1.0;
    println!("metrics off      {t_off:>12.3?} ({n_off} points)");
    println!("metrics on       {t_on:>12.3?} ({n_on} points)");
    println!(
        "overhead {:.1}% | results byte-identical: {}",
        overhead * 100.0,
        if identical { "yes" } else { "NO — BUG" }
    );
    assert!(n_off == 0 && n_on > 0, "metrics must be opt-in");
    assert!(
        prom.contains("sebs_invocations_total"),
        "export carries the invocation counters"
    );
    assert!(
        identical,
        "enabling metrics must not change any measured result"
    );

    // Throughput of the instrumented run: telemetry points collected per
    // wall-clock second. Higher is better, so bench_check gates it without
    // the wall-time floor.
    let points_per_sec = n_on as f64 / t_on.as_secs_f64().max(1e-9);
    println!("throughput       {points_per_sec:>12.0} points/sec");

    let fleet_invocations_per_sec = fleet_pass(&env);
    vec![
        ("points_per_sec".to_string(), points_per_sec),
        (
            "fleet_invocations_per_sec".to_string(),
            fleet_invocations_per_sec,
        ),
    ]
}

/// Replays the fleet-observed shape with metrics off and on, checks both
/// give the same results, and returns the instrumented replay rate.
fn fleet_pass(env: &BenchEnv) -> f64 {
    let mut fleet = FleetConfig::new(ProviderKind::Aws);
    fleet.horizon = SimDuration::from_secs(1800);
    fleet.target_invocations = 50_000;
    let model = fleet.synthetic_model(env.seed);

    let timed = |config: &SuiteConfig| -> (String, usize, usize, Duration) {
        let (result, elapsed) = stopwatch(|| run_fleet(config, &fleet, &model));
        (
            result.to_store().to_json(),
            result.invocations(),
            result.metrics.point_count(),
            elapsed,
        )
    };

    let base = env
        .suite_config()
        .with_metrics_interval(SimDuration::from_secs(60));
    let (json_off, invocations, n_off, t_off) = timed(&base.clone().with_metrics(false));
    let (json_on, _, n_on, t_on) = timed(&base.with_metrics(true));

    let identical = json_off == json_on;
    println!(
        "fleet: {} functions, {invocations} invocations over {:.0}s, metrics every 60s",
        fleet.functions,
        fleet.horizon.as_secs_f64()
    );
    println!("fleet metrics off {t_off:>11.3?} ({n_off} points)");
    println!("fleet metrics on  {t_on:>11.3?} ({n_on} points)");
    assert!(n_off == 0 && n_on > 0, "metrics must be opt-in");
    assert!(
        identical,
        "enabling metrics must not change any fleet result"
    );
    let invocations_per_sec = invocations as f64 / t_on.as_secs_f64().max(1e-9);
    println!("fleet throughput {invocations_per_sec:>12.0} invocations/sec");
    invocations_per_sec
}

/// Runs `f`, returning its result and the host time it took.
fn stopwatch<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    // audit:allow(wall-clock): benchmark binary measures host time
    // audit:allow(instant-usage): benchmark binary measures host time
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}
