//! Golden outputs of the cluster sweep.
//!
//! One traced `run_cluster` on a region small enough to overflow: three
//! 1-CPU hosts with a queue of one, every scheduler × keep-alive pair, and
//! host-fault rates of 0, 0.5 and 1.0 under a hedging retry policy. The
//! fleet is the Azure-2019 model plus two timer functions whose fixed
//! gaps (300 s and 420 s) put the hybrid keep-alive into its long-gap
//! regime, where it prewarms. The store JSON and the Chrome trace JSON
//! are pinned as their FNV-1a; the coverage asserts make sure the pinned
//! values still reach prewarms, retunes, shedding, no-host rejections,
//! failover hops and hedges, so a reshape of the sweep cannot drop a
//! branch silently. A refactor of dispatch, placement or keep-alive must
//! leave both values unchanged.

use sebs::config::SuiteConfig;
use sebs::experiments::cluster::{
    run_cluster, ClusterSeries, ClusterSweepConfig, ClusterSweepResult,
};
use sebs_cluster::{KeepAliveKind, SchedulerKind};
use sebs_platform::ProviderKind;
use sebs_resilience::RetryPolicy;
use sebs_sim::{fnv1a, Dist, SimDuration, SimTime};
use sebs_trace::chrome_trace_json;
use sebs_workload_gen::{ArrivalProcess, FleetFunction, FunctionProfile};

const HORIZON_S: u64 = 3_600;

/// FNV-1a of `to_store().to_json()`.
const STORE_FNV: u64 = 0xd34e_a1ce_d5cc_21ec;
/// FNV-1a of `chrome_trace_json(&result.traces)`.
const TRACES_FNV: u64 = 0x045a_c121_c543_d05e;

/// A timer function fired at `k · period_s` seconds for `k` from 1 to
/// `horizon_s / period_s - 1`.
fn timer(name: &str, period_s: u64, horizon_s: u64) -> FleetFunction {
    let times = (1..horizon_s / period_s)
        .map(|k| SimTime::ZERO + SimDuration::from_secs(k * period_s))
        .collect();
    FleetFunction {
        profile: FunctionProfile::new(name, 256, Dist::Constant(40.0)),
        arrivals: ArrivalProcess::Replay { times },
        diurnal: None,
    }
}

fn sweep() -> ClusterSweepConfig {
    let mut sweep = ClusterSweepConfig::new(ProviderKind::Aws);
    sweep.hosts = 3;
    sweep.host_cpus = 1;
    sweep.queue_depth = 1;
    sweep.functions = 8;
    sweep.target_invocations = 3_000;
    sweep.horizon = SimDuration::from_secs(HORIZON_S);
    sweep.schedulers = vec![
        SchedulerKind::LeastLoaded,
        SchedulerKind::RandomK(2),
        SchedulerKind::Locality,
    ];
    sweep.keepalives = vec![
        KeepAliveKind::Provider,
        KeepAliveKind::Fixed(600),
        KeepAliveKind::Hybrid,
    ];
    sweep.host_fault_rates = vec![0.0, 0.5, 1.0];
    sweep.retry = RetryPolicy::parse("attempts=3,base=50,cap=400,jitter=0.5,hedge=0.9")
        .expect("valid retry policy");
    sweep
}

fn observe() -> ClusterSweepResult {
    let config = SuiteConfig::fast()
        .with_seed(2021)
        .with_jobs(2)
        .with_trace(true);
    let sweep = sweep();
    let mut model = sweep.synthetic_model(config.seed);
    model.functions.push(timer("timer-a", 300, HORIZON_S));
    model.functions.push(timer("timer-b", 420, HORIZON_S));
    run_cluster(&config, &sweep, &model)
}

/// Every branch of dispatch and keep-alive is reached, so the pinned
/// values cover them.
fn assert_every_branch(result: &ClusterSweepResult) {
    for s in &result.series {
        let cell = format!("{}/{} at {}", s.scheduler, s.keepalive, s.host_fault_rate);
        assert!(s.shed > 0, "{cell}: nothing shed");
        if s.keepalive == "hybrid" {
            assert!(s.prewarms > 0, "{cell}: no prewarm");
            assert!(s.retunes > 0, "{cell}: no retune");
        } else {
            assert_eq!((s.prewarms, s.retunes), (0, 0), "{cell}");
        }
        if s.host_fault_rate == 1.0 {
            assert!(s.unavailable > 0, "{cell}: no no-host rejection");
        }
        if s.host_fault_rate == 0.0 {
            assert_eq!(s.crashes, 0, "{cell}");
        }
    }
    let partial = |f: fn(&ClusterSeries) -> u64| {
        result
            .series
            .iter()
            .filter(|s| s.host_fault_rate == 0.5)
            .any(|s| f(s) > 0)
    };
    assert!(partial(|s| s.unavailable), "no no-host rejection at 0.5");
    assert!(partial(|s| s.failover_hops), "no failover hop at 0.5");
    let hedged = result
        .traces
        .traces()
        .iter()
        .filter(|t| {
            t.root
                .children
                .iter()
                .any(|c| c.args.iter().any(|(k, v)| k == "hedge" && v == "true"))
        })
        .count();
    assert!(hedged > 0, "no hedged chain among the traces");
}

#[test]
fn the_cluster_sweep_matches_its_golden_outputs() {
    let result = observe();
    assert_every_branch(&result);
    let store = fnv1a(result.to_store().to_json().as_bytes());
    let traces = fnv1a(chrome_trace_json(&result.traces).as_bytes());
    assert_eq!(
        (store, traces),
        (STORE_FNV, TRACES_FNV),
        "observed store {store:#018x}, traces {traces:#018x}"
    );
}
