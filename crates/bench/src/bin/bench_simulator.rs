//! Plain timed benchmarks of the simulator itself: how fast the platform
//! model processes invocations, plus an **ablation** of the eviction policy
//! (the DESIGN.md-flagged design choice: providers as data, mechanisms as
//! code — swapping the eviction policy changes Figure 7's shape without
//! touching the platform).
//!
//! Like `bench_kernels`, this replaces the former criterion harness with a
//! dependency-free timer. Knobs: `SEBS_BENCH_REPS` (default 11) and
//! `SEBS_BENCH_WARMUP` (default 2).

use sebs_bench::bench;
use sebs_platform::{EvictionPolicy, FaasPlatform, FunctionConfig, ProviderProfile};
use sebs_sim::{Dist, SimDuration};
use sebs_workloads::templating::DynamicHtml;
use sebs_workloads::{Language, Scale};

fn main() {
    sebs_bench::timed("bench_simulator", run);
}

fn run() {
    println!("== platform warm bursts ==");
    for burst in [1usize, 10, 50] {
        let wl = DynamicHtml::new(Language::Python);
        let mut platform = FaasPlatform::new(ProviderProfile::aws(), 1);
        let fid = platform
            .deploy(FunctionConfig::new("html", Language::Python, 256))
            .expect("deploys");
        let payload = platform.prepare(&wl, Scale::Test);
        let payloads = vec![payload; burst];
        platform.invoke_burst(fid, &wl, &payloads); // warm the pool
        bench(&format!("warm_burst/{burst}"), || {
            platform.advance(SimDuration::from_secs(1));
            platform.invoke_burst(fid, &wl, &payloads)
        });
    }

    println!("== eviction policy ablation ==");
    let policies: Vec<(&str, EvictionPolicy)> = vec![
        (
            "half_life_380s",
            EvictionPolicy::HalfLife {
                period: SimDuration::from_secs(380),
            },
        ),
        (
            "idle_timeout_10min",
            EvictionPolicy::IdleTimeout {
                timeout: SimDuration::from_secs(600),
                jitter_ms: Dist::Uniform {
                    lo: 0.0,
                    hi: 60_000.0,
                },
            },
        ),
        ("never", EvictionPolicy::Never),
    ];
    for (name, policy) in policies {
        let wl = DynamicHtml::new(Language::Python);
        let mut profile = ProviderProfile::aws();
        profile.eviction = policy.clone();
        let mut platform = FaasPlatform::new(profile, 7);
        let fid = platform
            .deploy(FunctionConfig::new("html", Language::Python, 256))
            .expect("deploys");
        let payload = platform.prepare(&wl, Scale::Test);
        let payloads = vec![payload; 16];
        bench(&format!("probe_cycle/{name}"), || {
            platform.enforce_cold_start(fid);
            platform.invoke_burst(fid, &wl, &payloads);
            platform.advance(SimDuration::from_secs(400));
            platform.warm_containers(fid)
        });
    }
}
