//! The fleet replay runs in flat memory: replaying ten times as many
//! invocations must not raise the process's peak resident set, because
//! each cell streams its arrivals instead of building the whole trace.
//!
//! This file holds a single test, so the process's `VmHWM` is its alone.

use sebs::experiments::{run_fleet, FleetConfig};
use sebs::SuiteConfig;
use sebs_platform::ProviderKind;

/// `VmHWM` (peak resident set) of this process in kB; `None` where
/// `/proc/self/status` is missing.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn fleet_replay_peak_memory_is_flat_in_the_invocation_count() {
    if peak_rss_kb().is_none() {
        eprintln!("skipped: /proc/self/status has no VmHWM on this platform");
        return;
    }
    let config = SuiteConfig::fast().with_seed(2021).with_jobs(1);
    // Replays a 200-function fleet; returns the peak RSS afterwards.
    let replay = |invocations: u64| -> u64 {
        let mut fleet = FleetConfig::new(ProviderKind::Aws);
        fleet.functions = 200;
        fleet.target_invocations = invocations;
        let model = fleet.synthetic_model(config.seed);
        let result = run_fleet(&config, &fleet, &model);
        let n = result.invocations() as f64;
        assert!(
            (n - invocations as f64).abs() < 0.2 * invocations as f64,
            "replayed {n} invocations, expected about {invocations}"
        );
        peak_rss_kb().unwrap_or(u64::MAX)
    };
    let small = replay(20_000);
    let large = replay(200_000);
    assert!(
        large <= small + 1024,
        "peak RSS grew from {small} kB to {large} kB when the replay grew tenfold"
    );
}
