//! A fully observed fleet replay pays a few bytes per sampled metric
//! point: the points of one series share its key, so a tenfold finer
//! metric interval must not multiply the process's peak resident set.
//!
//! This file holds a single test, so the process's `VmHWM` is its alone.

use sebs::experiments::{run_fleet, FleetConfig};
use sebs::{fleet_report, ReportFormat, SuiteConfig};
use sebs_platform::ProviderKind;
use sebs_sim::SimDuration;
use sebs_trace::SamplerSpec;

/// Peak-memory growth allowed per added sampled point. A point is its
/// instant, its value and a shared reference to its series key (24 B);
/// the rest is the vector's growth slack.
const MAX_BYTES_PER_POINT: u64 = 64;

/// `VmHWM` (peak resident set) of this process in kB; `None` where
/// `/proc/self/status` is missing.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn observed_fleet_peak_memory_grows_by_a_few_bytes_per_metric_point() {
    if peak_rss_kb().is_none() {
        eprintln!("skipped: /proc/self/status has no VmHWM on this platform");
        return;
    }
    let mut fleet = FleetConfig::new(ProviderKind::Aws);
    fleet.functions = 200;
    fleet.target_invocations = 20_000;
    fleet.horizon = SimDuration::from_secs(3600);
    // Replays and renders the fleet as `sebs report` does, with gauges
    // sampled every `interval_secs`; returns the sampled point count and
    // the peak RSS afterwards.
    let replay = |interval_secs: u64| -> (u64, u64) {
        let config = SuiteConfig::default()
            .with_seed(2021)
            .with_jobs(1)
            .with_metrics(true)
            .with_metrics_interval(SimDuration::from_secs(interval_secs))
            .with_trace_sampling(SamplerSpec::fleet_default())
            .with_profile(true);
        let model = fleet.synthetic_model(config.seed);
        let result = run_fleet(&config, &fleet, &model);
        let report = fleet_report(&config, &fleet, &result).render(ReportFormat::Markdown);
        assert!(!report.is_empty());
        let points = result.metrics.point_count() as u64;
        (points, peak_rss_kb().unwrap_or(u64::MAX))
    };
    let (coarse_points, coarse_kb) = replay(60);
    let (fine_points, fine_kb) = replay(6);
    assert!(
        fine_points >= 9 * coarse_points,
        "a tenth of the interval samples about ten times the points: {coarse_points} -> {fine_points}"
    );
    let added = fine_points - coarse_points;
    let grown = fine_kb.saturating_sub(coarse_kb) * 1024;
    assert!(
        grown <= MAX_BYTES_PER_POINT * added,
        "peak RSS grew from {coarse_kb} kB to {fine_kb} kB for {added} more points \
         ({} B per point)",
        grown / added.max(1)
    );
}
