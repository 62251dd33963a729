//! Timed benchmark of the cluster sweep: scheduler × keep-alive ×
//! host-fault cells on an 8-host region, replayed sequentially and with
//! `SEBS_JOBS` workers, checking the serialized [`ResultStore`]s are
//! byte-identical and reporting the chains the parallel sweep replayed per
//! wall-clock second as `chains_per_sec`.
//!
//! Knobs: `SEBS_SEED`, `SEBS_JOBS` (see the crate docs).
//!
//! [`ResultStore`]: sebs_metrics::ResultStore

use std::time::Duration;

use sebs::experiments::{run_cluster, ClusterSweepConfig};
use sebs_bench::BenchEnv;
use sebs_cluster::{KeepAliveKind, SchedulerKind};
use sebs_platform::ProviderKind;

fn main() {
    sebs_bench::timed_with("bench_cluster_replay", run);
}

fn run() -> Vec<(String, f64)> {
    let env = BenchEnv::from_env();
    println!("{}", env.banner("cluster replay"));

    let mut sweep = ClusterSweepConfig::new(ProviderKind::Aws);
    sweep.schedulers = vec![
        SchedulerKind::LeastLoaded,
        SchedulerKind::RandomK(2),
        SchedulerKind::Locality,
    ];
    sweep.keepalives = vec![KeepAliveKind::Provider, KeepAliveKind::Hybrid];
    sweep.host_fault_rates = vec![0.0, 0.4];
    let model = sweep.synthetic_model(env.seed);

    let timed = |jobs: usize| -> (String, usize, Duration) {
        let config = env.suite_config().with_jobs(jobs);
        // audit:allow(wall-clock): benchmark binary measures host time
        // audit:allow(instant-usage): benchmark binary measures host time
        let start = std::time::Instant::now();
        let result = run_cluster(&config, &sweep, &model);
        let elapsed = start.elapsed();
        let chains = result.series.iter().map(|s| s.chains).sum();
        (result.to_store().to_json(), chains, elapsed)
    };

    let (json_seq, _, t_seq) = timed(1);
    let (json_par, chains, t_par) = timed(env.jobs);
    let cells = sweep.schedulers.len() * sweep.keepalives.len() * sweep.host_fault_rates.len();
    println!(
        "cluster: {} hosts x {} cpus, {} cells, {} chains over {:.0}s",
        sweep.hosts,
        sweep.host_cpus,
        cells,
        chains,
        sweep.horizon.as_secs_f64(),
    );

    let identical = json_seq == json_par;
    let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
    let chains_per_sec = chains as f64 / t_par.as_secs_f64().max(1e-9);
    println!("jobs=1           {t_seq:>12.3?}");
    println!("jobs={:<12} {t_par:>12.3?}", env.jobs);
    println!(
        "speedup {speedup:.2}x | {chains_per_sec:.0} chains/s | output byte-identical: {}",
        if identical { "yes" } else { "NO — BUG" }
    );
    assert!(
        identical,
        "parallel sweep must serialize byte-identically to the sequential sweep"
    );
    vec![("chains_per_sec".to_string(), chains_per_sec)]
}
