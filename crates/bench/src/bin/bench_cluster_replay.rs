//! Timed benchmark of the cluster sweep: scheduler × keep-alive ×
//! host-fault cells on an 8-host region, replayed once sequentially and
//! [`PARALLEL_RUNS`] times with `SEBS_JOBS` workers, checking every
//! parallel run's serialized [`ResultStore`] is byte-identical to the
//! sequential one and reporting the chains the median parallel run
//! replayed per wall-clock second as `chains_per_sec`. A single ~0.1 s
//! sweep swings by a third on a shared 2-CPU host; a stall that hits one
//! of several runs does not move their median.
//!
//! Knobs: `SEBS_SEED`, `SEBS_JOBS` (see the crate docs).
//!
//! [`ResultStore`]: sebs_metrics::ResultStore

use std::time::Duration;

use sebs::experiments::{run_cluster, ClusterSweepConfig};
use sebs_bench::BenchEnv;
use sebs_cluster::{KeepAliveKind, SchedulerKind};
use sebs_platform::ProviderKind;

/// Timed parallel sweeps per process; the gate reads their median.
const PARALLEL_RUNS: usize = 5;

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
    let mut runs: Vec<(usize, Duration)> = (0..PARALLEL_RUNS)
        .map(|_| {
            let (json_par, chains, t_par) = timed(env.jobs);
            assert!(
                json_par == json_seq,
                "parallel sweep must serialize byte-identically to the sequential sweep"
            );
            (chains, t_par)
        })
        .collect();
    runs.sort_by_key(|&(_, t)| t);
    let (chains, t_par) = runs[PARALLEL_RUNS / 2];
    let cells = sweep.schedulers.len() * sweep.keepalives.len() * sweep.host_fault_rates.len();
    println!(
        "cluster: {} hosts x {} cpus, {} cells, {} chains over {:.0}s",
        sweep.hosts,
        sweep.host_cpus,
        cells,
        chains,
        sweep.horizon.as_secs_f64(),
    );

    let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
    let chains_per_sec = chains as f64 / t_par.as_secs_f64().max(1e-9);
    println!("jobs=1           {t_seq:>12.3?}");
    println!(
        "jobs={:<12} {t_par:>12.3?} median of {PARALLEL_RUNS} (fastest {:.3?}, slowest {:.3?})",
        env.jobs,
        runs[0].1,
        runs[PARALLEL_RUNS - 1].1
    );
    println!(
        "speedup {speedup:.2}x | {chains_per_sec:.0} chains/s | every parallel run byte-identical: yes"
    );
    vec![("chains_per_sec".to_string(), chains_per_sec)]
}
