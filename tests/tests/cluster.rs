//! Cluster fault-domain integration tests: crash-schedule purity,
//! results unchanged by tracing, single-box bit-identity of the degenerate
//! 1-host region (retry policy knobs included), trace placement of
//! retries, warm-pool eviction on crash, and failover of retried attempts
//! onto survivors.

use sebs::config::SuiteConfig;
use sebs::experiments::cluster::{run_cluster, ClusterSweepConfig};
use sebs_cluster::{ClusterConfig, ClusterPlatform, KeepAliveKind, SchedulerKind};
use sebs_platform::{
    FaasPlatform, FunctionConfig, FunctionErrorKind, InvocationOutcome, ProviderKind,
    ProviderProfile, StartKind,
};
use sebs_resilience::{FaultPlan, RetryPolicy};
use sebs_sim::{SimDuration, SimTime};
use sebs_workloads::templating::DynamicHtml;
use sebs_workloads::{Language, Scale};

fn at(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

fn crash_plan(start: u64, end: u64, rate: f64) -> FaultPlan {
    FaultPlan::parse(&format!("host={start}..{end}@{rate}")).expect("valid plan")
}

#[test]
fn crash_schedule_is_a_pure_function_of_plan_and_seed() {
    let plan = crash_plan(60, 120, 0.5);
    let schedule = |seed: u64, churn: bool| {
        let mut cluster =
            ClusterPlatform::new(ClusterConfig::new(ProviderKind::Aws).with_hosts(8), seed);
        if churn {
            // Deploys and invocations before the plan lands must not
            // perturb the compiled schedule.
            let wl = DynamicHtml::new(Language::Python);
            let id = cluster
                .deploy(FunctionConfig::new("churn", Language::Python, 256))
                .expect("deploys");
            let payload = cluster.prepare(&wl, Scale::Test);
            for _ in 0..5 {
                cluster.invoke(id, &wl, &payload);
                cluster.advance(SimDuration::from_millis(50));
            }
        }
        cluster.set_faults(plan.clone(), seed);
        cluster.crash_schedule().to_vec()
    };
    assert_eq!(
        schedule(7, false),
        schedule(7, false),
        "same seed, same schedule"
    );
    assert_eq!(
        schedule(7, false),
        schedule(7, true),
        "prior invocation history is invisible to the schedule"
    );
    assert_ne!(schedule(7, false), schedule(8, false), "the seed matters");
    for event in schedule(7, false) {
        assert_eq!(event.at, at(60));
        assert_eq!(event.until, at(120));
        assert!(event.host < 8);
    }
}

#[test]
fn cluster_sweep_is_byte_identical_across_jobs() {
    let mut sweep = ClusterSweepConfig::new(ProviderKind::Aws);
    sweep.functions = 6;
    sweep.target_invocations = 300;
    sweep.horizon = SimDuration::from_secs(600);
    sweep.hosts = 4;
    sweep.schedulers = vec![SchedulerKind::LeastLoaded, SchedulerKind::RandomK(2)];
    sweep.keepalives = vec![KeepAliveKind::Provider, KeepAliveKind::Hybrid];
    sweep.host_fault_rates = vec![0.0, 0.4];
    let run = |jobs: usize| {
        let config = SuiteConfig::fast()
            .with_seed(41)
            .with_jobs(jobs)
            .with_trace(true);
        let model = sweep.synthetic_model(config.seed);
        let result = run_cluster(&config, &sweep, &model);
        (result.to_store().to_json(), result.traces, result.series)
    };
    let (json1, traces1, series1) = run(1);
    for jobs in [2, 8] {
        let (json, traces, series) = run(jobs);
        assert_eq!(json, json1, "store JSON identical at jobs={jobs}");
        assert_eq!(traces, traces1, "traces identical at jobs={jobs}");
        assert_eq!(series, series1, "series identical at jobs={jobs}");
    }
}

#[test]
fn cluster_tracing_never_changes_results() {
    let mut sweep = ClusterSweepConfig::new(ProviderKind::Aws);
    sweep.functions = 6;
    sweep.target_invocations = 300;
    sweep.horizon = SimDuration::from_secs(600);
    sweep.hosts = 4;
    sweep.schedulers = vec![SchedulerKind::LeastLoaded, SchedulerKind::RandomK(2)];
    sweep.keepalives = vec![KeepAliveKind::Provider, KeepAliveKind::Hybrid];
    sweep.host_fault_rates = vec![0.0, 0.4];
    let run = |trace: bool| {
        let config = SuiteConfig::fast().with_seed(43).with_trace(trace);
        let model = sweep.synthetic_model(config.seed);
        run_cluster(&config, &sweep, &model)
    };
    let (on, off) = (run(true), run(false));
    assert!(!on.traces.is_empty(), "tracing on collects cluster traces");
    assert!(off.traces.is_empty(), "tracing off collects none");
    assert_eq!(
        on.series, off.series,
        "series identical with tracing on/off"
    );
    assert_eq!(
        on.to_store().to_json(),
        off.to_store().to_json(),
        "store JSON identical with tracing on/off"
    );
}

/// The degenerate region — one host, effectively unbounded capacity,
/// zero contention, draw-free scheduler, provider keep-alive, no host
/// faults — must reproduce the bare single-box platform bit for bit.
#[test]
fn single_box_cluster_matches_bare_platform() {
    let seed = 2021;
    let wl = DynamicHtml::new(Language::Python);
    let cfg = FunctionConfig::new("dynamic-html", Language::Python, 256);

    // Grid-style: repeated invocations with fixed think time.
    {
        let mut bare = FaasPlatform::new(ProviderProfile::aws(), seed);
        let bare_id = bare.deploy(cfg.clone()).expect("deploys");
        let bare_payload = bare.prepare(&wl, Scale::Test);
        let mut cluster = ClusterPlatform::new(ClusterConfig::single_box(ProviderKind::Aws), seed);
        let cluster_id = cluster.deploy(cfg.clone()).expect("deploys");
        let cluster_payload = cluster.prepare(&wl, Scale::Test);
        assert_eq!(bare_payload, cluster_payload, "identical prepared payloads");
        for i in 0..20 {
            let b = bare.invoke(bare_id, &wl, &bare_payload);
            let c = cluster.invoke(cluster_id, &wl, &cluster_payload);
            assert_eq!(b, c, "record {i} must be bit-identical");
            let gap = SimDuration::from_millis(200);
            bare.advance(gap);
            cluster.advance(gap);
        }
    }

    // Availability-style: retry chains under injected sandbox faults
    // (host-crash windows absent; everything else forwards to the box).
    {
        let plan = FaultPlan::parse("crash=0.3").expect("valid plan");
        let policy = RetryPolicy::backoff(3);
        let mut bare = FaasPlatform::new(ProviderProfile::aws(), seed);
        bare.set_faults(plan.clone());
        bare.set_retry_policy(policy.clone());
        let bare_id = bare.deploy(cfg.clone()).expect("deploys");
        let bare_payload = bare.prepare(&wl, Scale::Test);
        let mut cluster = ClusterPlatform::new(ClusterConfig::single_box(ProviderKind::Aws), seed);
        cluster.set_faults(plan, seed);
        cluster.set_retry_policy(policy);
        let cluster_id = cluster.deploy(cfg.clone()).expect("deploys");
        let cluster_payload = cluster.prepare(&wl, Scale::Test);
        for i in 0..20 {
            let b = bare.invoke_with_policy(bare_id, &wl, &bare_payload);
            let c = cluster.invoke_resilient(cluster_id, &wl, &cluster_payload);
            assert_eq!(b.attempts, c.attempts, "chain {i} attempts");
            assert_eq!(b.waits, c.waits, "chain {i} waits");
            assert_eq!(b.outcome, c.outcome, "chain {i} outcome");
            assert_eq!(b.client_time, c.client_time, "chain {i} client time");
            let gap = SimDuration::from_millis(250);
            bare.advance(gap);
            cluster.advance(gap);
        }
    }

    // Every knob at once: both invokers run the same driver, so hedges,
    // breaker rejections, budget and deadline line up chain for chain.
    // Jitter stays 0 because the two draw it from different streams.
    {
        let plan = FaultPlan::parse("crash=0.35").expect("valid plan");
        let policy = RetryPolicy::parse(
            "attempts=4,base=50,cap=400,budget=40,deadline=3000,hedge=0.5,breaker=3@2000",
        )
        .expect("valid policy");
        let mut bare = FaasPlatform::new(ProviderProfile::aws(), seed);
        bare.set_faults(plan.clone());
        bare.set_retry_policy(policy.clone());
        let bare_id = bare.deploy(cfg.clone()).expect("deploys");
        let bare_payload = bare.prepare(&wl, Scale::Test);
        let mut cluster = ClusterPlatform::new(ClusterConfig::single_box(ProviderKind::Aws), seed);
        cluster.set_faults(plan, seed);
        cluster.set_retry_policy(policy);
        cluster.set_tracing(true);
        let cluster_id = cluster.deploy(cfg).expect("deploys");
        let cluster_payload = cluster.prepare(&wl, Scale::Test);
        let (mut hedged, mut rejected, mut retried) = (0, 0, 0);
        for i in 0..120 {
            let b = bare.invoke_with_policy(bare_id, &wl, &bare_payload);
            let c = cluster.invoke_resilient(cluster_id, &wl, &cluster_payload);
            assert_eq!(b, c, "chain {i}");
            hedged += usize::from(b.hedged);
            rejected += usize::from(b.breaker_rejected);
            retried += usize::from(!b.waits.is_empty());
            let gap = SimDuration::from_millis(250);
            bare.advance(gap);
            cluster.advance(gap);
        }
        assert!(hedged > 0, "hedges ran");
        assert!(rejected > 0, "the breaker rejected chains");
        assert!(retried > 0, "chains retried");
        // Every chain is traced, and each hedge child is marked and fits
        // inside its chain's span.
        let traces = cluster.take_traces();
        assert_eq!(traces.len(), 120);
        let hedge_arg = ("hedge".to_string(), "true".to_string());
        let hedge_spans = traces
            .iter()
            .inspect(|t| assert_eq!(t.root.validate(), Ok(())))
            .filter(|t| t.root.children.iter().any(|c| c.args.contains(&hedge_arg)))
            .count();
        assert_eq!(hedge_spans, hedged);
    }
}

/// Cluster trace children sit where the driver placed them: each retry
/// starts after the previous attempt's extent plus its own backoff wait,
/// not an average of the waits.
#[test]
fn cluster_traces_place_each_retry_after_its_own_wait() {
    let mut cluster = ClusterPlatform::new(ClusterConfig::new(ProviderKind::Aws), 3);
    cluster.set_faults(FaultPlan::transient(1.0), 3);
    cluster.set_retry_policy(RetryPolicy::backoff(3));
    cluster.set_tracing(true);
    let wl = DynamicHtml::new(Language::Python);
    let id = cluster
        .deploy(FunctionConfig::new("dynamic-html", Language::Python, 256))
        .expect("deploys");
    let payload = cluster.prepare(&wl, Scale::Test);
    let chain = cluster.invoke_resilient(id, &wl, &payload);
    assert_eq!(chain.billed_attempts(), 3);
    assert_eq!(
        chain.waits,
        vec![SimDuration::from_millis(100), SimDuration::from_millis(200)]
    );
    let traces = cluster.take_traces();
    let root = &traces.last().expect("one trace per chain").root;
    assert_eq!(root.name, "cluster-invoke");
    assert_eq!(root.validate(), Ok(()));
    assert_eq!(root.children.len(), 3);
    for (k, pair) in root.children.windows(2).enumerate() {
        assert_eq!(
            pair[1].start,
            pair[0].end() + chain.waits[k],
            "attempt-{} starts after attempt-{k} and its wait",
            k + 1
        );
    }
    assert_eq!(
        root.end(),
        root.children[2].end(),
        "the root ends with the chain"
    );
}

/// Finds a seed whose compiled schedule crashes host 0 (the host the
/// locality scheduler keeps warm) while sparing at least one other host.
/// The scan is deterministic, so the test is too.
fn seed_crashing_host0(plan: &FaultPlan, hosts: u32) -> u64 {
    for seed in 0..256 {
        let mut cluster = ClusterPlatform::new(
            ClusterConfig::new(ProviderKind::Aws).with_hosts(hosts),
            seed,
        );
        cluster.set_faults(plan.clone(), seed);
        let schedule = cluster.crash_schedule();
        let crashes_host0 = schedule.iter().any(|e| e.host == 0);
        if crashes_host0 && (schedule.len() as u32) < hosts {
            return seed;
        }
    }
    panic!("no seed in 0..256 crashes host 0 while sparing another");
}

#[test]
fn crash_evicts_warm_pool_and_failover_lands_on_survivors() {
    let plan = crash_plan(60, 300, 0.5);
    let hosts = 4;
    let seed = seed_crashing_host0(&plan, hosts);

    let config = ClusterConfig::new(ProviderKind::Aws)
        .with_hosts(hosts)
        .with_scheduler(SchedulerKind::Locality);
    let mut cluster = ClusterPlatform::new(config, seed);
    cluster.set_faults(plan, seed);
    cluster.set_retry_policy(RetryPolicy::backoff(3));
    let wl = DynamicHtml::new(Language::Python);
    let id = cluster
        .deploy(FunctionConfig::new("dynamic-html", Language::Python, 256))
        .expect("deploys");
    let payload = cluster.prepare(&wl, Scale::Test);

    // Warm up: locality pins every invocation to host 0, leaving it the
    // only host with warm containers.
    for _ in 0..10 {
        let record = cluster.invoke(id, &wl, &payload);
        assert!(record.outcome.is_success());
        cluster.advance(SimDuration::from_millis(500));
    }
    assert!(
        cluster.observe_pool(0, id).warm > 0,
        "host 0 holds the warm pool"
    );
    for host in 1..hosts as usize {
        assert_eq!(
            cluster.observe_pool(host, id).warm,
            0,
            "locality kept host {host} cold"
        );
    }

    // Walk to just before the crash and launch a chain whose first
    // attempt spans the crash instant.
    let lead = SimDuration::from_millis(1);
    let gap = (at(60) - cluster.now()) - lead;
    cluster.advance(gap);
    let chain = cluster.invoke_resilient(id, &wl, &payload);

    let first = chain.attempts.first().expect("at least one attempt");
    assert!(
        matches!(
            &first.outcome,
            InvocationOutcome::FunctionError {
                kind: FunctionErrorKind::HostCrash,
                ..
            }
        ),
        "first attempt dies with the host: {:?}",
        first.outcome
    );
    assert_eq!(
        first.bill.total_usd(),
        0.0,
        "a crash-killed attempt bills nothing"
    );
    assert!(
        first.benchmark_time <= first.provider_time && first.provider_time <= first.client_time,
        "the cut attempt keeps the paper's time ordering: benchmark {} ≤ provider {} ≤ client {}",
        first.benchmark_time,
        first.provider_time,
        first.client_time
    );
    assert_eq!(
        first.response_bytes, 0,
        "a crash-killed attempt delivers no response"
    );
    assert!(chain.attempts.len() >= 2, "the chain retried");
    assert!(chain.outcome.is_success(), "failover completed the chain");
    let last = chain.attempts.last().expect("non-empty");
    assert_eq!(
        last.start,
        StartKind::Cold,
        "the surviving host had no warm container — failover pays a cold start"
    );
    assert!(
        cluster.stats().failover_hops >= 1,
        "the retry moved to a different host"
    );
    assert_eq!(cluster.stats().crash_failures, 1);

    // The dead host's warm pool is gone; it stopped serving.
    assert_eq!(
        cluster.observe_pool(0, id).warm,
        0,
        "crash evicted host 0's warm pool"
    );
    assert!(!cluster.hosts()[0].is_up(cluster.now()));
    assert!(cluster.hosts()[0].stats().crashes >= 1);

    // Post-crash arrivals keep completing on survivors while host 0 is
    // down, and host 0 serves again — cold — after recovery.
    for _ in 0..5 {
        let record = cluster.invoke(id, &wl, &payload);
        assert!(record.outcome.is_success(), "{:?}", record.outcome);
        cluster.advance(SimDuration::from_millis(500));
    }
    assert_eq!(
        cluster.hosts()[0].stats().served,
        10,
        "host 0 serves nothing while down"
    );
    let recovery_gap = at(301).saturating_duration_since(cluster.now());
    cluster.advance(recovery_gap);
    assert!(cluster.hosts()[0].is_up(cluster.now()));
}

#[test]
fn overload_sheds_deterministically_into_throttled() {
    // One CPU, queue depth 1: the third concurrent arrival is shed.
    let config = ClusterConfig::new(ProviderKind::Aws)
        .with_hosts(1)
        .with_cpus(1)
        .with_queue_depth(1);
    let mut cluster = ClusterPlatform::new(config, 5);
    let wl = DynamicHtml::new(Language::Python);
    let id = cluster
        .deploy(FunctionConfig::new("dynamic-html", Language::Python, 256))
        .expect("deploys");
    let payload = cluster.prepare(&wl, Scale::Test);

    // Back-to-back arrivals with no cluster-clock progress pile onto the
    // single host until its admission queue fills.
    let mut outcomes = Vec::new();
    for _ in 0..4 {
        outcomes.push(cluster.invoke(id, &wl, &payload).outcome);
    }
    assert!(outcomes[0].is_success());
    assert!(outcomes[1].is_success(), "{:?}", outcomes[1]);
    assert!(
        outcomes[2..]
            .iter()
            .all(|o| matches!(o, InvocationOutcome::Throttled)),
        "overload degrades into Throttled: {outcomes:?}"
    );
    assert_eq!(cluster.stats().shed, 2);

    // Shedding is deterministic: the same run sheds the same arrivals.
    let mut replay = ClusterPlatform::new(
        ClusterConfig::new(ProviderKind::Aws)
            .with_hosts(1)
            .with_cpus(1)
            .with_queue_depth(1),
        5,
    );
    let id2 = replay
        .deploy(FunctionConfig::new("dynamic-html", Language::Python, 256))
        .expect("deploys");
    let payload2 = replay.prepare(&wl, Scale::Test);
    let replayed: Vec<_> = (0..4)
        .map(|_| replay.invoke(id2, &wl, &payload2).outcome)
        .collect();
    assert_eq!(replayed, outcomes);
}
