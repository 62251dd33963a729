//! The replays allocate nothing per fleet invocation and a small constant
//! per cluster chain. A counting global allocator measures each replay at
//! two sizes at one worker; the difference cancels set-up, deployment and
//! metric registration, which do not grow with the replay. Sampled tracing
//! costs a constant per trace it keeps, over the same replay without it.
//!
//! This file holds a single test, so the allocator counts its replays
//! alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sebs::experiments::{run_cluster, run_fleet, ClusterSweepConfig, FleetConfig};
use sebs::SuiteConfig;
use sebs_platform::ProviderKind;
use sebs_sim::SimDuration;
use sebs_trace::SamplerSpec;

/// Counts every allocation, zeroed allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged; the counter is the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `replay`, returning its result and the allocations it made.
fn counted<T>(replay: impl FnOnce() -> T) -> (T, f64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = replay();
    (out, (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64)
}

/// Allocations per invocation of a 200-function fleet, taken between
/// 5,000 and 25,000 target invocations.
fn fleet_allocations_per_invocation(config: &SuiteConfig) -> f64 {
    let replay = |invocations: u64| {
        let mut fleet = FleetConfig::new(ProviderKind::Aws);
        fleet.functions = 200;
        fleet.target_invocations = invocations;
        let model = fleet.synthetic_model(config.seed);
        let (result, allocations) = counted(|| run_fleet(config, &fleet, &model));
        (result.invocations() as f64, allocations)
    };
    let (small, small_allocs) = replay(5_000);
    let (large, large_allocs) = replay(25_000);
    assert!(large > small + 10_000.0, "{small} -> {large} invocations");
    (large_allocs - small_allocs) / (large - small)
}

/// Allocations per kept trace that `SamplerSpec::fleet_default()` adds
/// to a 25,000-invocation replay of a 200-function fleet.
fn sampled_allocations_per_kept_trace(config: &SuiteConfig) -> f64 {
    let mut fleet = FleetConfig::new(ProviderKind::Aws);
    fleet.functions = 200;
    fleet.target_invocations = 25_000;
    let model = fleet.synthetic_model(config.seed);
    let (plain, plain_allocs) = counted(|| run_fleet(config, &fleet, &model));
    let sampled_config = config
        .clone()
        .with_trace_sampling(SamplerSpec::fleet_default());
    let (sampled, sampled_allocs) = counted(|| run_fleet(&sampled_config, &fleet, &model));
    assert_eq!(plain.invocations(), sampled.invocations());
    let kept = sampled.traces.len() as f64;
    assert!(kept > 1_000.0, "{kept} kept traces");
    (sampled_allocs - plain_allocs) / kept
}

/// Chains, attempts and allocations of the default sweep's nine
/// scheduler × keep-alive cells at one host-fault rate, with the trace
/// and the horizon both `scale` times the default, so the arrival rate
/// and every cell's load stay the same.
fn cluster_sweep(config: &SuiteConfig, rate: f64, scale: u64) -> (f64, f64, f64) {
    let mut sweep = ClusterSweepConfig::new(ProviderKind::Aws);
    sweep.target_invocations *= scale;
    sweep.horizon = sweep.horizon * scale;
    sweep.host_fault_rates = vec![rate];
    let model = sweep.synthetic_model(config.seed);
    let (result, allocations) = counted(|| run_cluster(config, &sweep, &model));
    assert_eq!(
        result.series.len(),
        9,
        "three schedulers × three keep-alives"
    );
    let chains: usize = result.series.iter().map(|s| s.chains).sum();
    let attempts: usize = result.series.iter().map(|s| s.attempts).sum();
    (chains as f64, attempts as f64, allocations)
}

#[test]
fn replays_stay_within_their_allocation_budgets() {
    let config = SuiteConfig::fast().with_seed(2021).with_jobs(1);
    for (label, config) in [
        ("observability off", config.clone()),
        (
            "metrics on",
            config
                .clone()
                .with_metrics(true)
                .with_metrics_interval(SimDuration::from_secs(60)),
        ),
    ] {
        let per = fleet_allocations_per_invocation(&config);
        // Sketch buckets and pools grow a little with the replay; one
        // allocation per invocation would read 1.0.
        assert!(
            per < 0.01,
            "fleet with {label}: {per:.4} allocations per invocation"
        );
    }

    // A kept trace's span tree is built once, at the drain: its names,
    // args and child lists, about 38 allocations in all with the
    // sampler's maps. A trace the sampler drops or evicts is never built
    // (building every admitted trace's tree cost 158 per kept trace).
    let per_kept = sampled_allocations_per_kept_trace(&config);
    assert!(
        per_kept < 45.0,
        "sampled tracing: {per_kept:.1} allocations per kept trace"
    );

    // A chain keeps two vectors, its attempts and their start offsets; a
    // retry adds its wait and, after a host crash, the failure message.
    // Per-host pools, sketch buckets and keep-alive windows still grow
    // as the run lengthens, by about 0.01 per chain over these sizes.
    for rate in [0.0, 0.4] {
        let (small_chains, small_attempts, small_allocs) = cluster_sweep(&config, rate, 1);
        let (large_chains, large_attempts, large_allocs) = cluster_sweep(&config, rate, 3);
        let chains = large_chains - small_chains;
        let extra_attempts = ((large_attempts - small_attempts) - chains).max(0.0);
        let allocations = large_allocs - small_allocs;
        assert!(chains > 30_000.0, "{small_chains} -> {large_chains} chains");
        assert!(
            allocations <= 2.05 * chains + 2.0 * extra_attempts,
            "cluster at host-fault rate {rate}: {:.3} allocations per chain, \
             {:.4} extra attempts per chain",
            allocations / chains,
            extra_attempts / chains
        );
    }
}
