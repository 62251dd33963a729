//! Timed benchmark of the fleet replay: replays the synthetic
//! Azure-2019-shaped fleet (1,000 functions, ~10⁵ invocations over two
//! simulated hours) sequentially and with `SEBS_JOBS` workers, checks the
//! serialized [`ResultStore`]s are byte-identical, and reports replayed
//! invocations per wall-clock second as `invocations_per_sec`.
//!
//! Knobs: `SEBS_SEED`, `SEBS_JOBS` (see the crate docs).
//!
//! [`ResultStore`]: sebs_metrics::ResultStore

use std::time::Duration;

use sebs::experiments::{run_fleet, FleetConfig};
use sebs_bench::BenchEnv;
use sebs_platform::ProviderKind;

fn main() {
    sebs_bench::timed_with("bench_fleet_replay", run);
}

fn run() -> Vec<(String, f64)> {
    let env = BenchEnv::from_env();
    println!("{}", env.banner("fleet replay"));

    let fleet = FleetConfig::new(ProviderKind::Aws);
    let model = fleet.synthetic_model(env.seed);

    let timed = |jobs: usize| -> (String, usize, Duration) {
        let config = env.suite_config().with_jobs(jobs);
        // audit:allow(wall-clock): benchmark binary measures host time
        // audit:allow(instant-usage): benchmark binary measures host time
        let start = std::time::Instant::now();
        let result = run_fleet(&config, &fleet, &model);
        let elapsed = start.elapsed();
        (result.to_store().to_json(), result.invocations(), elapsed)
    };

    let (json_seq, invocations, t_seq) = timed(1);
    let (json_par, _, t_par) = timed(env.jobs);
    println!(
        "fleet: {} functions, {} invocations over {:.0}s, {} cells",
        fleet.functions,
        invocations,
        fleet.horizon.as_secs_f64(),
        fleet.cells
    );

    let identical = json_seq == json_par;
    let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
    let invocations_per_sec = invocations as f64 / t_par.as_secs_f64().max(1e-9);
    println!("jobs=1           {t_seq:>12.3?}");
    println!("jobs={:<12} {t_par:>12.3?}", env.jobs);
    println!(
        "speedup {speedup:.2}x | {invocations_per_sec:.0} invocations/s | output byte-identical: {}",
        if identical { "yes" } else { "NO — BUG" }
    );
    assert!(
        identical,
        "parallel replay must serialize byte-identically to the sequential replay"
    );
    vec![("invocations_per_sec".to_string(), invocations_per_sec)]
}
