//! The simulated FaaS platform: deployment, triggers, scheduling,
//! execution, failures and billing in one place.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::rc::Rc;

use sebs_cloud::DriftingClock;
use sebs_resilience::{FaultInjector, FaultPlan, InjectionCounts, RetryPolicy};
use sebs_sim::rng::{Rng, StreamRng};
use sebs_sim::{PhaseProfiler, SimDuration, SimRng, SimTime};
use sebs_storage::{ObjectStorage, SimObjectStore};
use sebs_telemetry::{CounterId, GaugeId, HistogramId, MetricsChunk, MetricsHub};
use sebs_trace::{InvocationTrace, SamplerSpec, TraceCollector};
use sebs_workloads::{Payload, Workload};

use crate::chain::{Attempt, AttemptKind, RetryDriver};
use crate::function::{FunctionConfig, FunctionId};
use crate::invocation::{AttemptChain, InvocationOutcome, InvocationRecord, StartKind};
use crate::pool::{ContainerPool, PoolObservation};
use crate::provider::ProviderProfile;
use crate::trigger::TriggerKind;

mod invoke;
mod spans;

use spans::KeptTrace;

/// Errors raised at deployment time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The requested memory violates the provider's policy.
    InvalidMemory(String),
    /// The code package exceeds the provider's limit (the paper's
    /// image-recognition fights AWS's 250 MB uncompressed limit).
    PackageTooLarge {
        /// Requested package size.
        bytes: u64,
        /// Provider limit.
        limit: u64,
    },
    /// The language runtime is not offered.
    UnsupportedLanguage,
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::InvalidMemory(m) => write!(f, "invalid memory configuration: {m}"),
            DeployError::PackageTooLarge { bytes, limit } => {
                write!(f, "code package of {bytes} B exceeds the {limit} B limit")
            }
            DeployError::UnsupportedLanguage => f.write_str("language not supported"),
        }
    }
}

impl std::error::Error for DeployError {}

#[derive(Debug, Clone)]
struct Deployed {
    config: FunctionConfig,
    effective_memory_mb: u32,
    /// Position of the function's container pool in `FaasPlatform::pools`.
    pool: usize,
}

/// The metrics hub plus handles to the series the hot paths write, so an
/// invocation or a sample boundary writes by index, never by name.
struct PlatformMetrics {
    hub: MetricsHub,
    /// Per-invocation series, by `FunctionId`.
    functions: Vec<FunctionSeries>,
    /// Occupancy series, by position in `FaasPlatform::pools`.
    pools: Vec<PoolSeries>,
    /// `sebs_storage_requests_total` by op (get, put, list), then
    /// `sebs_storage_bytes_total` by direction (in, out).
    storage: [CounterId; 5],
    /// `sebs_faults_injected_total`, in `InjectionCounts::entries` order.
    faults: [CounterId; 4],
}

impl PlatformMetrics {
    /// Wraps a hub, resolving the platform-wide storage and fault series.
    fn new(mut hub: MetricsHub) -> PlatformMetrics {
        let storage = [
            ("sebs_storage_requests_total", ("op", "get")),
            ("sebs_storage_requests_total", ("op", "put")),
            ("sebs_storage_requests_total", ("op", "list")),
            ("sebs_storage_bytes_total", ("direction", "in")),
            ("sebs_storage_bytes_total", ("direction", "out")),
        ]
        .map(|(name, label)| hub.counter(name, &[label]));
        let faults = InjectionCounts::default()
            .entries()
            .map(|(kind, _)| hub.counter("sebs_faults_injected_total", &[("kind", kind)]));
        PlatformMetrics {
            hub,
            functions: Vec::new(),
            pools: Vec::new(),
            storage,
            faults,
        }
    }

    /// Resolves the series of the next deployed function.
    fn track_function(&mut self, name: &str) {
        let series = FunctionSeries::resolve(&mut self.hub, name);
        self.functions.push(series);
    }

    /// Resolves the series of the next created pool.
    fn track_pool(&mut self, name: &str) {
        let series = PoolSeries::resolve(&mut self.hub, name);
        self.pools.push(series);
    }
}

/// Sets each counter whose external total has moved off zero. Counter
/// snapshots at zero stay absent (Prometheus convention: a counter series
/// appears on first increment) — otherwise an untouched platform would
/// export all-zero storage counters and never count as idle.
fn set_totals(hub: &mut MetricsHub, ids: &[CounterId], totals: &[u64]) {
    for (&id, &total) in ids.iter().zip(totals) {
        if total > 0 {
            hub.set_counter(id, total as f64);
        }
    }
}

/// The `start` label of an invocation's start and latency series, by
/// [`start_ordinal`].
const START_LABELS: [&str; 3] = ["spurious_cold", "cold", "warm"];

fn start_ordinal(start: StartKind, spurious: bool) -> usize {
    match (start, spurious) {
        (StartKind::Cold, true) => 0,
        (StartKind::Cold, false) => 1,
        (StartKind::Warm, _) => 2,
    }
}

/// Handles to one function's per-invocation series.
struct FunctionSeries {
    /// `sebs_invocations_total`, by `InvocationOutcome::ordinal`.
    invocations: [CounterId; InvocationOutcome::LABELS.len()],
    /// `sebs_starts_total`, by `start_ordinal`.
    starts: [CounterId; START_LABELS.len()],
    /// `sebs_invocation_latency_ms`, by `start_ordinal`.
    latency: [HistogramId; START_LABELS.len()],
    billed_ms: CounterId,
    gb_seconds: CounterId,
    cost_usd: CounterId,
    egress_bytes: CounterId,
    burst: GaugeId,
}

impl FunctionSeries {
    fn resolve(hub: &mut MetricsHub, name: &str) -> FunctionSeries {
        let fun = [("function", name)];
        FunctionSeries {
            invocations: InvocationOutcome::LABELS.map(|outcome| {
                hub.counter(
                    "sebs_invocations_total",
                    &[("function", name), ("outcome", outcome)],
                )
            }),
            starts: START_LABELS.map(|kind| {
                hub.counter("sebs_starts_total", &[("function", name), ("kind", kind)])
            }),
            latency: START_LABELS.map(|start| {
                hub.histogram(
                    "sebs_invocation_latency_ms",
                    &[("function", name), ("start", start)],
                )
            }),
            billed_ms: hub.counter("sebs_billed_duration_ms_total", &fun),
            gb_seconds: hub.counter("sebs_billed_gb_seconds_total", &fun),
            cost_usd: hub.counter("sebs_cost_usd_total", &fun),
            egress_bytes: hub.counter("sebs_egress_bytes_total", &fun),
            burst: hub.gauge("sebs_burst_concurrency", &fun),
        }
    }
}

/// Handles to one container pool's series.
struct PoolSeries {
    /// `sebs_containers_{warm,idle,active}`.
    occupancy: [GaugeId; 3],
    /// `sebs_pool_{cold_starts,warm_hits,evictions}_total`.
    totals: [CounterId; 3],
}

impl PoolSeries {
    fn resolve(hub: &mut MetricsHub, pool: &str) -> PoolSeries {
        let labels = [("pool", pool)];
        PoolSeries {
            occupancy: [
                "sebs_containers_warm",
                "sebs_containers_idle",
                "sebs_containers_active",
            ]
            .map(|name| hub.gauge(name, &labels)),
            totals: [
                "sebs_pool_cold_starts_total",
                "sebs_pool_warm_hits_total",
                "sebs_pool_evictions_total",
            ]
            .map(|name| hub.counter(name, &labels)),
        }
    }
}

/// A deterministic simulation of one provider's FaaS offering.
///
/// # Example
///
/// ```
/// use sebs_platform::{FaasPlatform, FunctionConfig, ProviderProfile};
/// use sebs_workloads::{Language, Scale, Workload};
/// use sebs_workloads::templating::DynamicHtml;
///
/// let mut platform = FaasPlatform::new(ProviderProfile::aws(), 42);
/// let wl = DynamicHtml::new(Language::Python);
/// let fid = platform
///     .deploy(FunctionConfig::new("dynamic-html", Language::Python, 256))
///     .unwrap();
/// let payload = platform.prepare(&wl, Scale::Test);
/// let cold = platform.invoke(fid, &wl, &payload);
/// let warm = platform.invoke(fid, &wl, &payload);
/// assert!(cold.client_time > warm.client_time, "cold starts cost extra");
/// ```
pub struct FaasPlatform {
    profile: ProviderProfile,
    // Deployments are shared, not cloned, per invocation: `invoke_one`
    // holds an `Rc` while it mutates pools and RNG streams, so the hot
    // path never copies a `FunctionConfig`.
    functions: Vec<Rc<Deployed>>,
    // Pools sit in deployment order and each `Deployed` stores its pool's
    // position, so no invocation looks a pool up by name. The name index
    // (`fn:<id>` or `app:<name>`) serves only function-app sharing at
    // deploy time and the labels of pools deployed before metrics were
    // enabled.
    pools: Vec<ContainerPool>,
    pool_index: BTreeMap<String, usize>,
    storage: SimObjectStore,
    now: SimTime,
    server_clock: DriftingClock,
    // Independent RNG streams per concern keep runs reproducible no matter
    // how callers interleave operations.
    rng_pool: StreamRng,
    rng_cold: StreamRng,
    rng_net: StreamRng,
    rng_exec: StreamRng,
    rng_failure: StreamRng,
    rng_memory: StreamRng,
    /// Client-side bandwidth to the provider's endpoints, bytes/second.
    client_bandwidth_bps: f64,
    // Co-location contention multiplier applied on top of the per-function
    // concurrency factor (cluster hosts raise it with their load); 1.0 is
    // arithmetically invisible, keeping the single-box path bit-identical.
    host_contention: f64,
    // Tracing is strictly observational: it consumes no randomness (a
    // sampler draws from its own streams) and no host time, so results are
    // identical with it on or off.
    traces: TraceCollector<KeptTrace>,
    // Sim-time phase profiling shares the tracing contract: preallocated,
    // no RNG draw, no wall-clock read, zero cost when `None`.
    profiler: Option<PhaseProfiler>,
    // Metrics collection shares the tracing contract: purely observational,
    // no RNG draw and no wall-clock read, so results never change with it.
    metrics: Option<PlatformMetrics>,
    // The platform's root seed, kept so fault injection and retry state
    // can derive their own dedicated streams lazily.
    seed: u64,
    // Fault injection: `None` (or an empty plan) is bit-identical to a
    // platform built before the subsystem existed — the injector draws
    // from its own stream and only when a rate is non-zero.
    faults: Option<FaultInjector>,
    // Client-side resilience: `None` (the `RetryPolicy::none()` mapping)
    // makes `invoke_with_policy` a plain `invoke` with no extra draws.
    retry: Option<RetryDriver>,
}

impl std::fmt::Debug for FaasPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaasPlatform")
            .field("provider", &self.profile.kind)
            .field("functions", &self.functions.len())
            .field("now", &self.now)
            .finish()
    }
}

impl FaasPlatform {
    /// Boots a platform with the given provider profile and seed.
    pub fn new(profile: ProviderProfile, seed: u64) -> FaasPlatform {
        let root = SimRng::new(seed);
        let mut clock_rng = root.stream("server-clock");
        // Server clocks are offset by up to ±30 s with ppm-scale skew.
        let offset = clock_rng.gen_range(-30.0..30.0);
        let skew = clock_rng.gen_range(-20e-6..20e-6);
        FaasPlatform {
            profile,
            functions: Vec::new(),
            pools: Vec::new(),
            pool_index: BTreeMap::new(),
            storage: SimObjectStore::default_model(),
            now: SimTime::ZERO,
            server_clock: DriftingClock::new(offset, skew),
            rng_pool: root.stream("pool"),
            rng_cold: root.stream("coldstart"),
            rng_net: root.stream("network"),
            rng_exec: root.stream("exec"),
            rng_failure: root.stream("failure"),
            rng_memory: root.stream("memory"),
            client_bandwidth_bps: 30e6,
            host_contention: 1.0,
            traces: TraceCollector::default(),
            profiler: None,
            metrics: None,
            seed,
            faults: None,
            retry: None,
        }
    }

    /// Installs a fault plan. An empty plan removes the injector entirely,
    /// restoring bit-identical behavior to a platform that never had one;
    /// a non-empty plan compiles into a [`FaultInjector`] drawing from the
    /// dedicated `fault-injector` stream of the platform's seed.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(FaultInjector::new(
                plan,
                SimRng::new(self.seed).stream("fault-injector"),
            ))
        };
    }

    /// The fault plan in force (empty when no injector is installed).
    pub fn fault_plan(&self) -> FaultPlan {
        self.faults
            .as_ref()
            .map_or_else(FaultPlan::empty, |f| f.plan().clone())
    }

    /// How many faults of each kind have been injected so far.
    pub fn fault_counts(&self) -> InjectionCounts {
        self.faults
            .as_ref()
            .map_or_else(InjectionCounts::default, |f| f.counts())
    }

    /// How many RNG values fault injection has consumed — stays at zero
    /// for empty plans, the observable half of the bit-identity guarantee.
    pub fn fault_draws(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.draws())
    }

    /// Installs a fresh [`RetryDriver`] for the policy, drawing jitter
    /// from the `retry-backoff` stream of the platform seed.
    /// [`RetryPolicy::none`] removes it entirely: the wrapper then
    /// performs exactly one plain `invoke` and touches no extra
    /// randomness.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = (!policy.is_none())
            .then(|| RetryDriver::new(policy, SimRng::new(self.seed).stream("retry-backoff")));
    }

    /// Switches per-invocation trace collection on or off. Collection is
    /// purely observational — it never touches an RNG stream, so toggling
    /// it cannot change any simulation result.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.traces.set_enabled(enabled);
    }

    /// Switches tracing on with a bounded [`sebs_trace::TraceSampler`]
    /// instead of full collection: memory stays fixed no matter how many
    /// invocations run, and [`FaasPlatform::take_traces`] returns the
    /// sampled set. The sampler draws only from dedicated `trace-reservoir`
    /// streams of the platform seed, so — like plain tracing — enabling it
    /// cannot change any simulation result.
    pub fn enable_trace_sampling(&mut self, spec: SamplerSpec) {
        self.traces.enable_sampling(spec, self.seed);
    }

    /// Drains the traces collected so far, in invocation order. With a
    /// sampler installed, this is the bounded kept set (reservoir sample,
    /// slowest exemplars, error exemplars), still in invocation order.
    pub fn take_traces(&mut self) -> Vec<InvocationTrace> {
        self.traces.take()
    }

    /// Switches on the sim-time phase profiler. Recording is
    /// allocation-free and reads no wall clock, so — like tracing — it is
    /// invisible to simulation results.
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(PhaseProfiler::new());
    }

    /// Takes the accumulated phase profile, leaving profiling enabled
    /// with fresh counters.
    pub fn take_profile(&mut self) -> Option<PhaseProfiler> {
        self.profiler.as_mut().map(std::mem::take)
    }

    /// Enables fleet-wide metrics collection with gauge sampling every
    /// `interval` of sim time. Like tracing, collection is purely
    /// observational — no RNG stream is touched and no wall clock is read,
    /// so enabling it cannot change any simulation result.
    ///
    /// Every deployed function's and pool's series is resolved to a handle
    /// here (and each later one at deploy), so recording writes by index.
    pub fn enable_metrics(&mut self, interval: SimDuration) {
        let mut hub = MetricsHub::new(interval);
        self.set_info_gauges(&mut hub);
        let mut metrics = PlatformMetrics::new(hub);
        for f in &self.functions {
            metrics.track_function(&f.config.name);
        }
        let mut pool_names = vec![""; self.pools.len()];
        for (name, &at) in &self.pool_index {
            pool_names[at] = name;
        }
        for name in pool_names {
            metrics.track_pool(name);
        }
        self.metrics = Some(metrics);
    }

    /// Static platform facts, exported once as info-gauges: the
    /// concurrency ceiling the burst gauges are judged against, and the
    /// monitoring-fidelity caveats behind Figure 5b (Azure's memory
    /// numbers exist but are garbage; GCP reports none at all).
    fn set_info_gauges(&self, hub: &mut MetricsHub) {
        let mon = crate::monitoring::MonitoringApi::for_kind(self.profile.kind);
        hub.gauge_set(
            "sebs_concurrency_limit",
            &[],
            self.profile.limits.concurrency as f64,
        );
        hub.gauge_set(
            "sebs_monitoring_reports_memory",
            &[],
            mon.reports_memory() as u64 as f64,
        );
        hub.gauge_set(
            "sebs_monitoring_memory_reliable",
            &[],
            mon.memory_reliable() as u64 as f64,
        );
    }

    /// Drains the metrics collected so far as one provider-tagged chunk,
    /// re-arming an empty hub with the same interval. Observed gauges and
    /// counters are refreshed as of the current instant first, so the
    /// final snapshot reflects the platform state at drain time. Sampling
    /// resumes at the first interval boundary after the ones already
    /// taken. Returns `None` when collection is disabled.
    pub fn take_metrics(&mut self) -> Option<MetricsChunk> {
        self.refresh_observed_metrics(self.now);
        let mut metrics = self.metrics.take()?;
        let chunk = metrics.hub.take_chunk(&self.profile.kind.to_string());
        self.set_info_gauges(&mut metrics.hub);
        self.metrics = Some(metrics);
        Some(chunk)
    }

    /// Fires the gauge sampler for every interval boundary `<= upto`,
    /// refreshing the observed pool and storage metrics at each boundary.
    fn pump_metrics(&mut self, upto: SimTime) {
        loop {
            let Some(due) = self.metrics.as_ref().and_then(|m| m.hub.next_due(upto)) else {
                return;
            };
            self.refresh_observed_metrics(due);
            if let Some(metrics) = self.metrics.as_mut() {
                metrics.hub.sample_at(due);
            }
        }
    }

    /// Re-reads every externally-maintained metric source — pool occupancy
    /// and statistics, storage statistics — into the hub, as of instant
    /// `t`. Pure observation: pools are not advanced and no RNG is drawn.
    fn refresh_observed_metrics(&mut self, t: SimTime) {
        let Some(metrics) = self.metrics.as_mut() else {
            return;
        };
        let hub = &mut metrics.hub;
        for (pool, series) in self.pools.iter().zip(&metrics.pools) {
            let obs = pool.observe(t);
            for (id, value) in series
                .occupancy
                .into_iter()
                .zip([obs.warm, obs.idle, obs.active])
            {
                hub.set_gauge(id, value as f64);
            }
            let totals = [pool.cold_starts, pool.warm_hits, pool.evictions];
            set_totals(hub, &series.totals, &totals);
        }
        let s = self.storage.stats();
        let storage = [s.gets, s.puts, s.lists, s.bytes_in, s.bytes_out];
        set_totals(hub, &metrics.storage, &storage);
        if let Some(faults) = self.faults.as_ref() {
            let counts = faults.counts().entries().map(|(_, count)| count);
            set_totals(hub, &metrics.faults, &counts);
        }
    }

    /// Records the per-invocation event metrics for one completed (or
    /// rejected) invocation.
    fn record_invocation_metrics(&mut self, record: &InvocationRecord, spurious: bool) {
        let Some(PlatformMetrics { hub, functions, .. }) = self.metrics.as_mut() else {
            return;
        };
        let series = &functions[record.function.0 as usize];
        hub.add(series.invocations[record.outcome.ordinal()], 1.0);
        if record.container.is_none() {
            // Rejected before a sandbox was acquired (payload limit,
            // throttle, availability): no start, no bill.
            return;
        }
        let start = start_ordinal(record.start, spurious);
        hub.add(series.starts[start], 1.0);
        hub.observe(series.latency[start], record.client_time.as_millis_f64());
        hub.add(
            series.billed_ms,
            record.bill.billed_duration.as_millis_f64(),
        );
        let gb_s = record.bill.billed_memory_mb as f64 / 1024.0
            * record.bill.billed_duration.as_secs_f64();
        hub.add(series.gb_seconds, gb_s);
        hub.add(series.cost_usd, record.bill.total_usd());
        hub.add(series.egress_bytes, record.response_bytes as f64);
        hub.set_gauge(series.burst, record.concurrency as f64);
    }

    /// The provider profile in force.
    pub fn profile(&self) -> &ProviderProfile {
        &self.profile
    }

    /// Mutable profile access for ablation studies (e.g. swapping the
    /// eviction policy before any deployment).
    pub fn profile_mut(&mut self) -> &mut ProviderProfile {
        &mut self.profile
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the platform clock (evictions apply lazily). When metrics
    /// are enabled, the gauge sampler fires for every interval boundary
    /// the clock crosses.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
        self.pump_metrics(self.now);
    }

    /// The platform's persistent object storage.
    pub fn storage_mut(&mut self) -> &mut SimObjectStore {
        &mut self.storage
    }

    /// The server-side clock (drifting relative to the client).
    pub fn server_clock(&self) -> DriftingClock {
        self.server_clock
    }

    /// Deploys a function.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] when the configuration violates the
    /// provider's Table 2 limits.
    pub fn deploy(&mut self, config: FunctionConfig) -> Result<FunctionId, DeployError> {
        if !self.profile.languages.contains(&config.language) {
            return Err(DeployError::UnsupportedLanguage);
        }
        if config.code_package_bytes > self.profile.limits.code_package_bytes {
            return Err(DeployError::PackageTooLarge {
                bytes: config.code_package_bytes,
                limit: self.profile.limits.code_package_bytes,
            });
        }
        let effective = self
            .profile
            .memory
            .validate(config.memory_mb)
            .map_err(DeployError::InvalidMemory)?;
        let id = FunctionId(self.functions.len() as u32);
        let pool_key = match (&config.app, self.profile.quirks.function_apps) {
            (Some(app), true) => format!("app:{app}"),
            _ => format!("fn:{}", id.0),
        };
        let pool = match self.pool_index.entry(pool_key) {
            Entry::Occupied(shared) => *shared.get(),
            Entry::Vacant(slot) => {
                if let Some(metrics) = self.metrics.as_mut() {
                    metrics.track_pool(slot.key());
                }
                self.pools
                    .push(ContainerPool::new(self.profile.eviction.clone()));
                *slot.insert(self.pools.len() - 1)
            }
        };
        if let Some(metrics) = self.metrics.as_mut() {
            metrics.track_function(&config.name);
        }
        self.functions.push(Rc::new(Deployed {
            config,
            effective_memory_mb: effective,
            pool,
        }));
        Ok(id)
    }

    /// Runs a workload's `prepare` step against the platform's storage,
    /// returning the invocation payload.
    pub fn prepare(&mut self, workload: &dyn Workload, scale: sebs_workloads::Scale) -> Payload {
        let mut rng = self.rng_exec.clone();
        self.rng_exec.gen::<u64>(); // decorrelate from later invocations
        workload.prepare(scale, &mut rng, &mut self.storage)
    }

    /// Kills all warm containers of a function — the suite's forced cold
    /// start (SeBS updates the function configuration on AWS / publishes a
    /// new version on Azure and GCP to achieve this).
    pub fn enforce_cold_start(&mut self, id: FunctionId) {
        let pool = self.pool_of(id);
        self.pools[pool].evict_all();
    }

    /// Kills all warm containers of **every** function — the cluster's
    /// host-crash switch: a dead machine loses its entire warm pool at
    /// once. RNG-free, like [`FaasPlatform::enforce_cold_start`].
    pub fn evict_all_containers(&mut self) {
        for pool in &mut self.pools {
            pool.evict_all();
        }
    }

    /// Replaces the eviction policy of a function's container pool — the
    /// hook keep-alive policies use to (re)tune how long this function's
    /// idle containers survive. Existing containers keep their state; the
    /// new policy applies from the next pool advance.
    pub fn set_pool_policy(&mut self, id: FunctionId, policy: crate::eviction::EvictionPolicy) {
        let pool = self.pool_of(id);
        self.pools[pool].set_policy(policy);
    }

    /// Sets the co-location contention multiplier: the extra slowdown a
    /// cluster host applies to I/O when other invocations are packed onto
    /// the same machine. `1.0` (the default) is arithmetically invisible —
    /// the single-box platform stays bit-identical.
    pub fn set_contention(&mut self, factor: f64) {
        self.host_contention = factor.max(1.0);
    }

    /// Pre-warms one container for a function at the current sim-time: the
    /// pool acquires and immediately releases a sandbox, so the *next*
    /// arrival finds it idle and warm. This is the prewarm half of
    /// hybrid-histogram keep-alive; it consumes pool-stream RNG like any
    /// acquisition, so it is only driven by policies that opted in.
    /// Returns `true` when the prewarm actually created a container (a
    /// warm pool is left untouched rather than touched, so prewarming an
    /// already-warm function does not refresh its idle clock).
    pub fn prewarm(&mut self, id: FunctionId) -> bool {
        let now = self.now;
        let pool = self.pool_of(id);
        let pool = &mut self.pools[pool];
        pool.advance(now, &mut self.rng_pool);
        if pool.idle_count() > 0 {
            return false;
        }
        let acquired = pool.acquire(now, &mut self.rng_pool, 0.0, true);
        pool.release(acquired.id(), now);
        acquired.is_cold()
    }

    /// Number of warm containers currently alive for a function (after
    /// applying evictions at the current time) — the probe of the
    /// Eviction-Model experiment.
    pub fn warm_containers(&mut self, id: FunctionId) -> usize {
        let pool = self.pool_of(id);
        self.pools[pool].warm_count(self.now, &mut self.rng_pool)
    }

    /// Read-only snapshot of a function's container pool at the current
    /// time: warm/idle/active counts with evictions applied virtually.
    /// Unlike [`FaasPlatform::warm_containers`] this draws no RNG and
    /// mutates nothing, so fleet experiments can sample occupancy
    /// without perturbing the eviction schedule.
    pub fn observe_pool(&self, id: FunctionId) -> PoolObservation {
        self.pools[self.pool_of(id)].observe(self.now)
    }

    /// Position of a deployed function's container pool in `pools`.
    fn pool_of(&self, id: FunctionId) -> usize {
        self.functions[id.0 as usize].pool
    }

    /// Number of deployed functions.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// Invokes a function once: exactly a burst of one over HTTP, with its
    /// container released in place.
    pub fn invoke(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payload: &Payload,
    ) -> InvocationRecord {
        let trigger = self.profile.trigger.resolve(TriggerKind::Http);
        let (record, release) = self.invoke_one(id, workload, payload, 0, 1, trigger);
        if let Some((container, at)) = release {
            let pool = self.pool_of(id);
            self.pools[pool].release(container, at);
        }
        record
    }

    /// Invokes a function once under the installed [`RetryPolicy`],
    /// returning the full [`AttemptChain`].
    ///
    /// With no policy installed ([`RetryPolicy::none`]) this is exactly
    /// one plain [`FaasPlatform::invoke`] — same draws, same clock, same
    /// records. With a policy, the [`RetryDriver`] runs the chain: the
    /// platform clock advances by each attempt's client time plus the
    /// wait, so breaker cooldowns and container lifecycles see real time
    /// passing. **Every launched attempt is billed** — the chain's cost
    /// is the sum over attempts, exactly what the cloud would charge.
    pub fn invoke_with_policy(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payload: &Payload,
    ) -> AttemptChain {
        let chain_start = self.now;
        let mut driver = self.retry.take();
        let mut invoker = BoxInvoker {
            platform: self,
            id,
            workload,
            payload,
        };
        let (chain, timeline) = match driver.as_mut() {
            Some(driver) => driver.run(&mut invoker),
            None => RetryDriver::single(&mut invoker),
        };
        self.retry = driver;
        if chain.attempts.len() > 1 {
            let deployed = &self.functions[id.0 as usize];
            let failed = !chain.outcome.is_success();
            let name = &deployed.config.name;
            if let Some(pending) = self.traces.admit(name, timeline.extent, failed) {
                let kept = KeptTrace::chain(
                    deployed,
                    self.profile.kind,
                    pending.seq(),
                    &chain,
                    &timeline,
                    chain_start,
                );
                self.traces.keep(pending, kept);
            }
        }
        chain
    }

    /// Invokes a function with `payloads.len()` concurrent requests.
    ///
    /// Returns one record per request, in submission order. The platform
    /// clock does **not** advance (the driver controls time).
    pub fn invoke_burst(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payloads: &[Payload],
    ) -> Vec<InvocationRecord> {
        self.invoke_burst_via(id, workload, payloads, TriggerKind::Http)
    }

    /// Like [`FaasPlatform::invoke_burst`], with an explicit trigger kind.
    /// SDK triggers fall back to HTTP on providers without SDK invocation
    /// (Azure, as in the paper's toolkit); storage-event and timer
    /// triggers originate inside the cloud and skip the client RTT.
    pub fn invoke_burst_via(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payloads: &[Payload],
        trigger: TriggerKind,
    ) -> Vec<InvocationRecord> {
        let trigger = self.profile.trigger.resolve(trigger);
        let n = payloads.len() as u32;
        let mut records = Vec::with_capacity(payloads.len());
        // Containers are released only after the whole burst has acquired
        // its own, so no request of a burst reuses another's sandbox.
        let mut releases = Vec::with_capacity(payloads.len());
        for (i, payload) in payloads.iter().enumerate() {
            let (record, release) = self.invoke_one(id, workload, payload, i as u32, n, trigger);
            records.push(record);
            releases.extend(release);
        }
        let pool = self.pool_of(id);
        let pool = &mut self.pools[pool];
        for (container, at) in releases {
            pool.release(container, at);
        }
        records
    }
}

/// The single box as an [`Attempt`] target: every attempt is one plain
/// invoke, and its extent is the client time.
struct BoxInvoker<'a> {
    platform: &'a mut FaasPlatform,
    id: FunctionId,
    workload: &'a dyn Workload,
    payload: &'a Payload,
}

impl Attempt for BoxInvoker<'_> {
    fn now(&self) -> SimTime {
        self.platform.now
    }

    fn advance(&mut self, d: SimDuration) {
        self.platform.advance(d);
    }

    fn attempt(&mut self, _kind: AttemptKind) -> (InvocationRecord, SimDuration) {
        let record = self.platform.invoke(self.id, self.workload, self.payload);
        let extent = record.client_time;
        (record, extent)
    }

    fn metrics(&mut self) -> Option<(&mut MetricsHub, &str)> {
        let platform = &mut *self.platform;
        let hub = &mut platform.metrics.as_mut()?.hub;
        Some((hub, &platform.functions[self.id.0 as usize].config.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::FunctionErrorKind;
    use sebs_sim::Phase;
    use sebs_telemetry::{SeriesKey, DEFAULT_SAMPLE_INTERVAL};
    use sebs_workloads::templating::DynamicHtml;
    use sebs_workloads::uploader::Uploader;
    use sebs_workloads::{Language, Scale};

    fn aws() -> FaasPlatform {
        FaasPlatform::new(ProviderProfile::aws(), 1234)
    }

    fn deploy_html(p: &mut FaasPlatform, mem: u32) -> (FunctionId, DynamicHtml, Payload) {
        let wl = DynamicHtml::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("dynamic-html", Language::Python, mem))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        (fid, wl, payload)
    }

    #[test]
    fn deploy_validates_table2_limits() {
        let mut p = aws();
        assert!(matches!(
            p.deploy(FunctionConfig::new("f", Language::Python, 100)),
            Err(DeployError::InvalidMemory(_))
        ));
        assert!(matches!(
            p.deploy(
                FunctionConfig::new("f", Language::Python, 256).with_code_package(300_000_000)
            ),
            Err(DeployError::PackageTooLarge { .. })
        ));
        assert!(p
            .deploy(FunctionConfig::new("f", Language::Python, 256))
            .is_ok());
        let err = DeployError::PackageTooLarge { bytes: 2, limit: 1 };
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn cold_then_warm_and_time_ordering() {
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 1792);
        let cold = p.invoke(fid, &wl, &payload);
        assert_eq!(cold.start, StartKind::Cold);
        assert!(cold.outcome.is_success());
        assert!(cold.benchmark_time <= cold.provider_time);
        assert!(cold.provider_time <= cold.client_time);
        p.advance(SimDuration::from_secs(5));
        let warm = p.invoke(fid, &wl, &payload);
        assert_eq!(warm.start, StartKind::Warm);
        assert!(
            cold.provider_time > warm.provider_time * 2,
            "cold {} vs warm {}",
            cold.provider_time,
            warm.provider_time
        );
    }

    #[test]
    fn memory_scales_performance() {
        let mut p = aws();
        let (fid_small, wl, payload) = deploy_html(&mut p, 128);
        let fid_big = p
            .deploy(FunctionConfig::new(
                "dynamic-html-big",
                Language::Python,
                1792,
            ))
            .unwrap();
        // Warm both.
        p.invoke(fid_small, &wl, &payload);
        p.invoke(fid_big, &wl, &payload);
        p.advance(SimDuration::from_secs(2));
        let small = p.invoke(fid_small, &wl, &payload);
        let big = p.invoke(fid_big, &wl, &payload);
        assert!(
            small.benchmark_time > big.benchmark_time * 8,
            "128 MB {} should be ~14x slower than 1792 MB {}",
            small.benchmark_time,
            big.benchmark_time
        );
    }

    #[test]
    fn burst_spawns_parallel_containers() {
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let payloads = vec![payload; 10];
        let records = p.invoke_burst(fid, &wl, &payloads);
        assert_eq!(records.len(), 10);
        assert!(records.iter().all(|r| r.start == StartKind::Cold));
        let mut ids: Vec<_> = records.iter().map(|r| r.container.unwrap()).collect();
        ids.dedup();
        assert_eq!(ids.len(), 10, "no sandbox is shared within a burst");
        assert_eq!(p.warm_containers(fid), 10);
        // A later burst of 10 is fully warm.
        p.advance(SimDuration::from_secs(10));
        let again = p.invoke_burst(fid, &wl, &payloads);
        assert!(again.iter().all(|r| r.start == StartKind::Warm));
    }

    #[test]
    fn concurrency_limit_throttles() {
        let mut p = FaasPlatform::new(ProviderProfile::gcp(), 7);
        let wl = DynamicHtml::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("f", Language::Python, 256))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        let payloads = vec![payload; 120];
        let records = p.invoke_burst(fid, &wl, &payloads);
        let throttled = records
            .iter()
            .filter(|r| matches!(r.outcome, InvocationOutcome::Throttled))
            .count();
        assert_eq!(throttled, 20, "GCP's 100-function limit");
    }

    #[test]
    fn availability_errors_under_heavy_concurrency() {
        let mut p = FaasPlatform::new(ProviderProfile::gcp(), 11);
        let wl = DynamicHtml::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("f", Language::Python, 256))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        let records = p.invoke_burst(fid, &wl, &vec![payload; 100]);
        let errors = records
            .iter()
            .filter(|r| matches!(r.outcome, InvocationOutcome::ServiceUnavailable))
            .count();
        assert!(errors > 0, "GCP drops some of a 100-wide burst");
        assert!(errors < 30);
    }

    #[test]
    fn payload_limit_enforced() {
        let mut p = aws();
        let (fid, wl, _) = deploy_html(&mut p, 256);
        let huge = Payload {
            body: sebs_sim::bytes::Bytes::from(vec![0u8; 7_000_000]),
            params: vec![("size".into(), "10".into())],
        };
        let r = p.invoke(fid, &wl, &huge);
        assert!(matches!(
            r.outcome,
            InvocationOutcome::PayloadTooLarge {
                limit: 6_000_000,
                ..
            }
        ));
    }

    #[test]
    fn enforce_cold_start_works() {
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        p.invoke(fid, &wl, &payload);
        p.advance(SimDuration::from_secs(1));
        assert_eq!(p.warm_containers(fid), 1);
        p.enforce_cold_start(fid);
        assert_eq!(p.warm_containers(fid), 0);
        let r = p.invoke(fid, &wl, &payload);
        assert_eq!(r.start, StartKind::Cold);
    }

    #[test]
    fn observe_pool_is_read_only_and_counts_deployments() {
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        assert_eq!(p.function_count(), 1);
        assert_eq!(p.observe_pool(fid), PoolObservation::default());
        let records = p.invoke_burst(fid, &wl, &vec![payload.clone(); 4]);
        assert_eq!(records.len(), 4);
        p.advance(SimDuration::from_secs(1));
        let obs = p.observe_pool(fid);
        assert_eq!(obs.warm, 4);
        // Observation never draws RNG or advances evictions: a platform
        // that samples occupancy many times stays bit-identical to one
        // that never looks.
        let run = |probes: usize| {
            let mut p = aws();
            let (fid, wl, payload) = deploy_html(&mut p, 256);
            for _ in 0..probes {
                let _ = p.observe_pool(fid);
            }
            let r = p.invoke(fid, &wl, &payload);
            for _ in 0..probes {
                let _ = p.observe_pool(fid);
            }
            p.advance(SimDuration::from_secs(500));
            (r, p.observe_pool(fid).warm, p.warm_containers(fid))
        };
        assert_eq!(run(0), run(64));
    }

    #[test]
    fn eviction_halves_warm_pool_over_time() {
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let records = p.invoke_burst(fid, &wl, &vec![payload; 8]);
        assert_eq!(records.len(), 8);
        p.advance(SimDuration::from_secs(400));
        assert_eq!(p.warm_containers(fid), 4);
        p.advance(SimDuration::from_secs(380));
        assert_eq!(p.warm_containers(fid), 2);
    }

    #[test]
    fn azure_function_apps_share_pools() {
        let mut p = FaasPlatform::new(ProviderProfile::azure(), 5);
        let wl = DynamicHtml::new(Language::Python);
        let f1 = p
            .deploy(FunctionConfig::new("f1", Language::Python, 512).in_app("shared-app"))
            .unwrap();
        let f2 = p
            .deploy(FunctionConfig::new("f2", Language::Python, 512).in_app("shared-app"))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        let r1 = p.invoke(f1, &wl, &payload);
        assert_eq!(r1.start, StartKind::Cold);
        p.advance(SimDuration::from_secs(1));
        // f2 rides f1's warm instance (less frequent cold starts, §3.3) —
        // modulo Azure's small spurious-cold probability.
        let mut warm_seen = false;
        for _ in 0..5 {
            p.advance(SimDuration::from_secs(1));
            if p.invoke(f2, &wl, &payload).start == StartKind::Warm {
                warm_seen = true;
                break;
            }
        }
        assert!(warm_seen, "function-app sharing should yield warm hits");
    }

    #[test]
    fn function_app_members_index_one_shared_pool() {
        let mut p = FaasPlatform::new(ProviderProfile::azure(), 5);
        p.enable_metrics(SimDuration::from_secs(1));
        let wl = DynamicHtml::new(Language::Python);
        let mut deploy = |name: &str| {
            let config = FunctionConfig::new(name, Language::Python, 512).in_app("shared-app");
            p.deploy(config).unwrap()
        };
        let (f1, f2) = (deploy("f1"), deploy("f2"));
        let payload = p.prepare(&wl, Scale::Test);
        assert_eq!(p.invoke(f1, &wl, &payload).start, StartKind::Cold);
        p.advance(SimDuration::from_secs(30));
        let seen = p.observe_pool(f2);
        assert_eq!((seen.warm, seen.idle), (1, 1), "f2 sees f1's container");
        assert_eq!(p.observe_pool(f1), seen);

        // f2 starts on the shared pool too: both members write its series.
        assert!(p.invoke(f2, &wl, &payload).outcome.is_success());
        p.advance(SimDuration::from_secs(1));

        let chunk = p.take_metrics().expect("metrics enabled");
        let pools: Vec<&SeriesKey> = chunk
            .gauges
            .iter()
            .map(|(key, _)| &**key)
            .filter(|key| key.name == "sebs_containers_warm")
            .collect();
        let shared = [("pool".to_string(), "app:shared-app".to_string())];
        assert_eq!(pools.len(), 1, "one series for the shared pool: {pools:?}");
        assert_eq!(pools[0].labels, shared);
        let pool_series = chunk
            .counters
            .iter()
            .chain(&chunk.gauges)
            .map(|(key, _)| &**key)
            .chain(chunk.points.iter().map(|pt| &*pt.series))
            .filter(|key| key.labels.iter().any(|(label, _)| label == "pool"));
        assert!(pool_series.clone().all(|key| key.labels == shared));
        let total = |name: &str| {
            chunk
                .counters
                .iter()
                .find(|(key, _)| key.name == name)
                .map_or(0.0, |(_, v)| *v)
        };
        let starts = total("sebs_pool_cold_starts_total") + total("sebs_pool_warm_hits_total");
        assert_eq!(starts, 2.0, "f1's cold start and f2's start, one pool");
        let members: Vec<&str> = chunk
            .counters
            .iter()
            .filter(|(key, _)| key.name == "sebs_invocations_total")
            .flat_map(|(key, _)| &key.labels)
            .filter(|(label, _)| label == "function")
            .map(|(_, name)| name.as_str())
            .collect();
        assert_eq!(members, ["f1", "f2"], "per-function series stay apart");

        p.enforce_cold_start(f1);
        assert_eq!(p.observe_pool(f2), PoolObservation::default());
    }

    #[test]
    fn enabling_metrics_after_deploy_gives_the_same_chunk() {
        let run = |enable_first: bool| {
            let mut p = FaasPlatform::new(ProviderProfile::azure(), 9);
            if enable_first {
                p.enable_metrics(SimDuration::from_secs(1));
            }
            let ids: Vec<FunctionId> = [("solo", None), ("b", Some("app")), ("c", Some("app"))]
                .into_iter()
                .map(|(name, app)| {
                    let config = FunctionConfig::new(name, Language::Python, 512);
                    let config = match app {
                        Some(app) => config.in_app(app),
                        None => config,
                    };
                    p.deploy(config).unwrap()
                })
                .collect();
            if !enable_first {
                p.enable_metrics(SimDuration::from_secs(1));
            }
            let wl = DynamicHtml::new(Language::Python);
            let payload = p.prepare(&wl, Scale::Test);
            for (step, &id) in ids.iter().cycle().take(12).enumerate() {
                p.invoke(id, &wl, &payload);
                p.advance(SimDuration::from_millis(400 * step as u64));
            }
            p.take_metrics().expect("metrics enabled")
        };
        let (before, after) = (run(true), run(false));
        assert!(!before.points.is_empty());
        assert_eq!(before, after);
        assert_eq!(format!("{before:?}"), format!("{after:?}"));
    }

    #[test]
    fn handles_outlive_a_drain_and_series_return_on_their_next_write() {
        let mut p = aws();
        p.enable_metrics(SimDuration::from_secs(10));
        let (fid, wl, payload) = deploy_html(&mut p, 512);
        let per_invocation = |chunk: &MetricsChunk| -> Vec<String> {
            let keys = chunk
                .counters
                .iter()
                .chain(&chunk.gauges)
                .map(|(k, _)| &**k);
            keys.chain(chunk.histograms.iter().map(|(k, _)| &**k))
                .chain(chunk.points.iter().map(|pt| &*pt.series))
                .filter(|k| k.labels.iter().any(|(label, _)| label == "function"))
                .map(|k| k.name.clone())
                .collect()
        };
        p.invoke(fid, &wl, &payload);
        p.advance(SimDuration::from_secs(10));
        assert!(!per_invocation(&p.take_metrics().expect("metrics enabled")).is_empty());

        // No invocation since the drain: every per-invocation series is
        // dormant, in the snapshot and in the samples alike.
        p.advance(SimDuration::from_secs(30));
        let quiet = p.take_metrics().expect("metrics enabled");
        assert_eq!(per_invocation(&quiet), Vec::<String>::new());
        assert!(!quiet.points.is_empty(), "the pool series were sampled");

        // The next invocation writes through the handles resolved at
        // deploy, and each series holds that invocation alone.
        let record = p.invoke(fid, &wl, &payload);
        let next = p.take_metrics().expect("metrics enabled");
        let counter = |name: &str| {
            next.counters
                .iter()
                .find(|(k, _)| k.name == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(counter("sebs_invocations_total"), Some(1.0));
        assert_eq!(
            counter("sebs_billed_duration_ms_total"),
            Some(record.bill.billed_duration.as_millis_f64())
        );
        assert_eq!(next.histograms.len(), 1);
        assert_eq!(next.histograms[0].1.count(), 1);
    }

    #[test]
    fn azure_concurrency_penalty_inflates_provider_time() {
        let mut p = FaasPlatform::new(ProviderProfile::azure(), 31);
        let wl = DynamicHtml::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("f", Language::Python, 512))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        // Sequential warm baseline.
        p.invoke(fid, &wl, &payload);
        p.advance(SimDuration::from_secs(1));
        let solo = p.invoke(fid, &wl, &payload);
        // Concurrent batch.
        p.advance(SimDuration::from_secs(1));
        let burst = p.invoke_burst(fid, &wl, &vec![payload.clone(); 20]);
        let warm_in_burst: Vec<_> = burst
            .iter()
            .filter(|r| r.start == StartKind::Warm && r.outcome.is_success())
            .collect();
        assert!(!warm_in_burst.is_empty());
        let mean_burst = warm_in_burst
            .iter()
            .map(|r| r.provider_time.as_secs_f64())
            .sum::<f64>()
            / warm_in_burst.len() as f64;
        let gap_burst = mean_burst - warm_in_burst[0].benchmark_time.as_secs_f64();
        let gap_solo = solo.provider_time.as_secs_f64() - solo.benchmark_time.as_secs_f64();
        assert!(
            gap_burst > 2.0 * gap_solo,
            "concurrent Azure overhead {gap_burst:.4}s vs sequential {gap_solo:.4}s"
        );
    }

    #[test]
    fn io_bound_workload_has_io_dominated_profile() {
        let mut p = aws();
        let wl = Uploader::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("uploader", Language::Python, 1024))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        let r = p.invoke(fid, &wl, &payload);
        assert!(r.outcome.is_success());
        assert!(
            r.io_time > (r.benchmark_time - r.io_time) * 2,
            "uploader must be I/O bound: io {} of {}",
            r.io_time,
            r.benchmark_time
        );
    }

    #[test]
    fn bills_are_positive_and_rounded() {
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let r = p.invoke(fid, &wl, &payload);
        assert!(r.bill.total_usd() > 0.0);
        assert_eq!(r.bill.billed_duration.as_millis() % 100, 0);
        assert_eq!(r.bill.billed_memory_mb, 256);
    }

    #[test]
    fn timestamps_reflect_clock_drift() {
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let r = p.invoke(fid, &wl, &payload);
        let offset = p.server_clock().offset_secs();
        // The naive overhead estimate is polluted by the offset; correcting
        // with the true offset yields a small positive overhead.
        let corrected = r.invocation_overhead_secs(offset);
        assert!(corrected > 0.0 && corrected < 30.0, "corrected {corrected}");
        assert!(r.t_recv_client > r.t_send_client);
    }

    #[test]
    fn sdk_trigger_skips_api_fees_and_azure_falls_back() {
        use crate::trigger::TriggerKind;
        // AWS: SDK responses carry no API-unit fee.
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let http = p
            .invoke_burst_via(fid, &wl, std::slice::from_ref(&payload), TriggerKind::Http)
            .pop()
            .unwrap();
        p.advance(SimDuration::from_secs(1));
        let sdk = p
            .invoke_burst_via(fid, &wl, std::slice::from_ref(&payload), TriggerKind::Sdk)
            .pop()
            .unwrap();
        assert!(http.bill.egress_usd > 0.0);
        assert_eq!(sdk.bill.egress_usd, 0.0);

        // Azure: SDK resolves to HTTP, so the gateway fee structure stays.
        let mut az = FaasPlatform::new(ProviderProfile::azure(), 3);
        let wl = DynamicHtml::new(Language::Python);
        let fid = az
            .deploy(FunctionConfig::new("f", Language::Python, 512))
            .unwrap();
        let payload = az.prepare(&wl, Scale::Test);
        let r = az
            .invoke_burst_via(fid, &wl, std::slice::from_ref(&payload), TriggerKind::Sdk)
            .pop()
            .unwrap();
        assert!(r.outcome.is_success());
    }

    #[test]
    fn internal_triggers_skip_the_wan() {
        use crate::trigger::TriggerKind;
        let mut p = aws();
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        p.invoke(fid, &wl, &payload); // warm
        p.advance(SimDuration::from_secs(1));
        let http = p
            .invoke_burst_via(fid, &wl, std::slice::from_ref(&payload), TriggerKind::Http)
            .pop()
            .unwrap();
        p.advance(SimDuration::from_secs(1));
        let timer = p
            .invoke_burst_via(fid, &wl, std::slice::from_ref(&payload), TriggerKind::Timer)
            .pop()
            .unwrap();
        // No 100+ ms client RTT on the timer path; but event delivery is
        // not free either.
        assert!(
            timer.client_time < http.client_time,
            "timer {} vs http {}",
            timer.client_time,
            http.client_time
        );
        assert!(timer.client_time > timer.provider_time);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut p = FaasPlatform::new(ProviderProfile::aws(), seed);
            let (fid, wl, payload) = deploy_html(&mut p, 512);
            let a = p.invoke(fid, &wl, &payload);
            p.advance(SimDuration::from_secs(3));
            let b = p.invoke(fid, &wl, &payload);
            (a.client_time, b.client_time, a.bill.total_usd())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn tracing_never_changes_results() {
        let run = |tracing: bool| {
            let mut p = FaasPlatform::new(ProviderProfile::gcp(), 77);
            p.set_tracing(tracing);
            let wl = Uploader::new(Language::Python);
            let fid = p
                .deploy(FunctionConfig::new("uploader", Language::Python, 512))
                .unwrap();
            let payload = p.prepare(&wl, Scale::Test);
            let burst = p.invoke_burst(fid, &wl, &vec![payload.clone(); 4]);
            p.advance(SimDuration::from_secs(2));
            let warm = p.invoke(fid, &wl, &payload);
            (
                burst.iter().map(|r| r.client_time).collect::<Vec<_>>(),
                warm.client_time,
                warm.bill.total_usd(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn metrics_never_change_results() {
        let run = |metrics: bool| {
            let mut p = FaasPlatform::new(ProviderProfile::gcp(), 77);
            if metrics {
                p.enable_metrics(DEFAULT_SAMPLE_INTERVAL);
            }
            let wl = Uploader::new(Language::Python);
            let fid = p
                .deploy(FunctionConfig::new("uploader", Language::Python, 512))
                .unwrap();
            let payload = p.prepare(&wl, Scale::Test);
            let burst = p.invoke_burst(fid, &wl, &vec![payload.clone(); 4]);
            p.advance(SimDuration::from_secs(2));
            let warm = p.invoke(fid, &wl, &payload);
            p.advance(SimDuration::from_secs(500));
            let later = p.invoke(fid, &wl, &payload);
            (
                burst.iter().map(|r| r.client_time).collect::<Vec<_>>(),
                warm.client_time,
                later.client_time,
                later.bill.total_usd(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn sampling_and_profiling_never_change_results() {
        let run = |observe: bool| {
            let mut p = FaasPlatform::new(ProviderProfile::gcp(), 77);
            if observe {
                p.enable_trace_sampling(SamplerSpec::fleet_default());
                p.enable_profiling();
            }
            let wl = Uploader::new(Language::Python);
            let fid = p
                .deploy(FunctionConfig::new("uploader", Language::Python, 512))
                .unwrap();
            let payload = p.prepare(&wl, Scale::Test);
            let burst = p.invoke_burst(fid, &wl, &vec![payload.clone(); 4]);
            p.advance(SimDuration::from_secs(2));
            let warm = p.invoke(fid, &wl, &payload);
            (
                burst.iter().map(|r| r.client_time).collect::<Vec<_>>(),
                warm.client_time,
                warm.bill.total_usd(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn trace_sampling_bounds_kept_traces() {
        let spec = SamplerSpec {
            reservoir_per_fn: 2,
            slowest_k: 3,
            error_k: 2,
        };
        let mut p = aws();
        p.enable_trace_sampling(spec);
        let (fid, wl, payload) = deploy_html(&mut p, 512);
        for _ in 0..40 {
            p.invoke(fid, &wl, &payload);
            p.advance(SimDuration::from_millis(200));
        }
        let traces = p.take_traces();
        assert!(!traces.is_empty(), "sampling implies tracing");
        assert!(
            traces.len() <= spec.max_kept(1),
            "the sampler is active, yet it kept {} of 40 traces",
            traces.len()
        );
        let seqs: Vec<u64> = traces.iter().map(|t| t.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "sampled traces come out in invocation order");
    }

    #[test]
    fn phase_profile_accounts_cold_starts_storage_and_billing() {
        let mut p = aws();
        p.enable_profiling();
        let wl = Uploader::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("uploader", Language::Python, 512))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        let cold = p.invoke(fid, &wl, &payload);
        assert_eq!(cold.start, StartKind::Cold);
        p.advance(SimDuration::from_secs(2));
        p.invoke(fid, &wl, &payload);

        let profile = p.take_profile().expect("profiling enabled");
        let pool = profile.stat(Phase::PoolAcquire);
        assert_eq!(pool.events, 2, "one acquire per invocation");
        assert!(!pool.sim_time.is_zero(), "cold init time accounted");
        let storage = profile.stat(Phase::StorageOp);
        assert!(storage.events > 0, "uploader issues storage requests");
        assert_eq!(profile.stat(Phase::Billing).events, 2);
        assert!(!profile.stat(Phase::Billing).sim_time.is_zero());
        assert!(
            p.take_profile().expect("still enabled").is_empty(),
            "take_profile resets the counters"
        );
    }

    #[test]
    fn metrics_capture_starts_occupancy_and_billing() {
        let mut p = aws();
        p.enable_metrics(SimDuration::from_secs(1));
        let (fid, wl, payload) = deploy_html(&mut p, 512);
        let burst = p.invoke_burst(fid, &wl, &vec![payload.clone(); 4]);
        assert_eq!(burst.len(), 4);
        p.advance(SimDuration::from_secs(5));
        let warm = p.invoke(fid, &wl, &payload);
        assert_eq!(warm.start, StartKind::Warm);

        let chunk = p.take_metrics().expect("metrics enabled");
        assert_eq!(chunk.provider, "aws");
        let counter = |name: &str, labels: &[(&str, &str)]| {
            let key = sebs_telemetry::SeriesKey::new(name, labels);
            chunk
                .counters
                .iter()
                .find(|(k, _)| **k == key)
                .map(|(_, v)| *v)
        };
        assert_eq!(
            counter(
                "sebs_starts_total",
                &[("function", "dynamic-html"), ("kind", "cold")]
            ),
            Some(4.0)
        );
        assert_eq!(
            counter(
                "sebs_starts_total",
                &[("function", "dynamic-html"), ("kind", "warm")]
            ),
            Some(1.0)
        );
        assert_eq!(
            counter(
                "sebs_invocations_total",
                &[("function", "dynamic-html"), ("outcome", "success")]
            ),
            Some(5.0)
        );
        let billed = counter(
            "sebs_billed_duration_ms_total",
            &[("function", "dynamic-html")],
        )
        .unwrap();
        let expected: f64 = burst
            .iter()
            .chain(std::iter::once(&warm))
            .map(|r| r.bill.billed_duration.as_millis_f64())
            .sum();
        assert!((billed - expected).abs() < 1e-9);

        // The sampled series saw all 4 containers warm while the clock
        // advanced past the burst.
        let max_warm = chunk
            .points
            .iter()
            .filter(|pt| {
                pt.series.name == "sebs_containers_warm"
                    && pt.series.labels == vec![("pool".to_string(), "fn:0".to_string())]
            })
            .map(|pt| pt.value)
            .fold(0.0f64, f64::max);
        assert_eq!(max_warm, 4.0);

        // Static info-gauges reflect AWS monitoring fidelity and limits.
        let gauge = |name: &str| {
            let key = sebs_telemetry::SeriesKey::new(name, &[]);
            chunk
                .gauges
                .iter()
                .find(|(k, _)| **k == key)
                .map(|(_, v)| *v)
        };
        assert_eq!(gauge("sebs_concurrency_limit"), Some(1000.0));
        assert_eq!(gauge("sebs_monitoring_reports_memory"), Some(1.0));
        assert_eq!(gauge("sebs_monitoring_memory_reliable"), Some(1.0));

        // take_metrics drains and re-arms: event-driven series and sampled
        // points are gone; only absolute pool/storage snapshots reappear.
        let again = p.take_metrics().expect("still enabled");
        assert!(again.points.is_empty());
        assert!(again
            .counters
            .iter()
            .all(|(k, _)| !k.name.starts_with("sebs_starts")
                && !k.name.starts_with("sebs_invocations")));
    }

    #[test]
    fn sampling_resumes_after_a_metrics_drain_instead_of_replaying_past_ticks() {
        let mut p = aws();
        p.enable_metrics(SimDuration::from_secs(10));
        let (fid, wl, payload) = deploy_html(&mut p, 512);
        p.invoke(fid, &wl, &payload);
        p.advance(SimDuration::from_secs(100));
        let first = p.take_metrics().expect("metrics enabled");
        let stamps = |chunk: &MetricsChunk| {
            let mut secs: Vec<u64> = chunk
                .points
                .iter()
                .map(|pt| pt.at.as_millis() / 1000)
                .collect();
            secs.dedup();
            secs
        };
        assert_eq!(stamps(&first), (1..=10).map(|i| i * 10).collect::<Vec<_>>());
        // One more second crosses no boundary: 100 s was already sampled.
        p.advance(SimDuration::from_secs(1));
        let second = p.take_metrics().expect("metrics enabled");
        assert_eq!(stamps(&second), Vec::<u64>::new());
        p.advance(SimDuration::from_secs(9));
        let third = p.take_metrics().expect("metrics enabled");
        assert_eq!(stamps(&third), vec![110]);
    }

    #[test]
    fn metrics_flag_spurious_cold_starts() {
        // Azure/GCP-style spurious colds: probability 1 makes every warm
        // candidate get ignored.
        let mut p = FaasPlatform::new(ProviderProfile::gcp(), 5);
        p.profile_mut().quirks.spurious_cold_start = 1.0;
        p.enable_metrics(SimDuration::from_secs(1));
        let wl = DynamicHtml::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("f", Language::Python, 256))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        p.invoke(fid, &wl, &payload);
        p.advance(SimDuration::from_secs(1));
        p.invoke(fid, &wl, &payload); // cold despite a warm candidate
        let chunk = p.take_metrics().unwrap();
        let spurious = chunk
            .counters
            .iter()
            .find(|(k, _)| {
                k.name == "sebs_starts_total"
                    && k.labels
                        .contains(&("kind".to_string(), "spurious_cold".to_string()))
            })
            .map(|(_, v)| *v);
        assert_eq!(spurious, Some(1.0));
    }

    #[test]
    fn trace_tree_tiles_the_invocation() {
        let mut p = aws();
        p.set_tracing(true);
        let (fid, wl, payload) = deploy_html(&mut p, 512);
        let cold = p.invoke(fid, &wl, &payload);
        p.advance(SimDuration::from_secs(2));
        let warm = p.invoke(fid, &wl, &payload);
        let traces = p.take_traces();
        assert_eq!(traces.len(), 2);
        assert!(p.take_traces().is_empty(), "take_traces drains");

        let t = &traces[0];
        assert_eq!((t.provider.as_str(), t.seq), ("aws", 0));
        assert_eq!(t.benchmark, "dynamic-html");
        assert_eq!(t.memory_mb, 512);
        assert_eq!(t.cell, None);
        assert_eq!(t.root.validate(), Ok(()));
        assert_eq!(t.root.duration, cold.client_time);
        // Cold start decomposes under sandbox.acquire.
        let acquire = t.root.find("sandbox.acquire").unwrap();
        assert_eq!(acquire.args[0], ("start".into(), "cold".into()));
        let phase_sum: SimDuration = acquire.children.iter().map(|c| c.duration).sum();
        assert_eq!(phase_sum, acquire.duration);
        assert!(t.root.find("cold.runtime-boot").is_some());
        // The provider phase matches the record.
        let exec = t.root.find("execute").unwrap();
        assert!(t.root.find("exec.compute").is_some());
        assert!(
            exec.duration + acquire.duration <= cold.provider_time + SimDuration::from_nanos(1)
        );

        // Warm invocation: no cold children, zero-length acquire.
        let w = &traces[1];
        assert_eq!(w.seq, 1);
        assert_eq!(w.root.duration, warm.client_time);
        let acquire = w.root.find("sandbox.acquire").unwrap();
        assert_eq!(acquire.duration, SimDuration::ZERO);
        assert!(acquire.children.is_empty());
    }

    #[test]
    fn io_bound_trace_records_storage_spans() {
        let mut p = aws();
        p.set_tracing(true);
        let wl = Uploader::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("uploader", Language::Python, 1024))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        let r = p.invoke(fid, &wl, &payload);
        assert!(r.outcome.is_success());
        let traces = p.take_traces();
        let root = &traces[0].root;
        let put = root.find("storage.put").expect("uploader uploads");
        assert!(put.args.iter().any(|(k, _)| k == "object"));
        assert!(put.args.iter().any(|(k, _)| k == "bytes"));
        assert!(put.args.iter().any(|(k, _)| k == "transfer_ms"));
        assert_eq!(root.validate(), Ok(()));
    }

    #[test]
    fn a_kept_trace_is_laid_out_from_the_state_at_its_invocation() {
        let run = |swap_store: bool| {
            let mut p = aws();
            p.set_tracing(true);
            let wl = Uploader::new(Language::Python);
            let fid = p
                .deploy(FunctionConfig::new("uploader", Language::Python, 1024))
                .unwrap();
            let payload = p.prepare(&wl, Scale::Test);
            p.invoke(fid, &wl, &payload);
            if swap_store {
                // The tree is built at the drain, after the store changed.
                *p.storage_mut() = SimObjectStore::default_model().with_bandwidth_scale(0.5);
            }
            p.take_traces()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn rejected_invocations_leave_root_only_traces() {
        let mut p = FaasPlatform::new(ProviderProfile::gcp(), 7);
        p.set_tracing(true);
        let wl = DynamicHtml::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("f", Language::Python, 256))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        let records = p.invoke_burst(fid, &wl, &vec![payload; 120]);
        let traces = p.take_traces();
        assert_eq!(traces.len(), records.len(), "every request gets a trace");
        let throttled: Vec<_> = traces
            .iter()
            .filter(|t| {
                t.root
                    .args
                    .iter()
                    .any(|(k, v)| k == "outcome" && v == "throttled")
            })
            .collect();
        assert_eq!(throttled.len(), 20);
        assert!(throttled.iter().all(|t| t.root.children.is_empty()));
    }

    #[test]
    fn empty_fault_plan_and_none_policy_are_bit_identical() {
        let run = |configure: bool| {
            let mut p = aws();
            if configure {
                p.set_faults(FaultPlan::empty());
                p.set_retry_policy(RetryPolicy::none());
            }
            let (fid, wl, payload) = deploy_html(&mut p, 256);
            let chain = p.invoke_with_policy(fid, &wl, &payload);
            let mut records = p.invoke_burst(fid, &wl, &vec![payload; 8]);
            records.extend(chain.attempts);
            (records, p.fault_draws())
        };
        let (base, _) = run(false);
        let (configured, draws) = run(true);
        assert_eq!(base, configured);
        assert_eq!(draws, 0);
    }

    #[test]
    fn injected_sandbox_crashes_fail_retryably_and_are_billed() {
        let mut p = aws();
        p.set_faults(FaultPlan::transient(1.0));
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let r = p.invoke(fid, &wl, &payload);
        assert!(matches!(
            r.outcome,
            InvocationOutcome::FunctionError {
                kind: FunctionErrorKind::SandboxCrash,
                ..
            }
        ));
        assert!(r.outcome.retryable());
        assert!(
            r.bill.total_usd() > 0.0,
            "crashed executions are billed like any function error"
        );
        assert_eq!(p.fault_counts().sandbox_crash, 1);
    }

    #[test]
    fn outage_windows_reject_with_the_quirk_penalty() {
        let mut p = aws();
        p.set_faults(FaultPlan {
            outages: vec![sebs_resilience::OutageWindow {
                start: SimTime::ZERO,
                end: SimTime::ZERO + SimDuration::from_secs(60),
                severity: 1.0,
            }],
            ..FaultPlan::empty()
        });
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let r = p.invoke(fid, &wl, &payload);
        assert_eq!(r.outcome, InvocationOutcome::ServiceUnavailable);
        assert_eq!(
            r.bill.total_usd(),
            0.0,
            "rejected before a sandbox: not billed"
        );
        assert_eq!(p.fault_draws(), 0, "hard outages are draw-free");
        // Outside the window the platform behaves normally.
        p.advance(SimDuration::from_secs(120));
        let r = p.invoke(fid, &wl, &payload);
        assert!(r.outcome.is_success());
    }

    #[test]
    fn storms_force_cold_starts_even_on_aws() {
        let mut p = aws();
        p.set_faults(FaultPlan {
            storms: vec![sebs_resilience::StormWindow {
                start: SimTime::ZERO,
                end: SimTime::ZERO + SimDuration::from_secs(3600),
                spurious_cold: 1.0,
            }],
            ..FaultPlan::empty()
        });
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        for _ in 0..5 {
            let r = p.invoke(fid, &wl, &payload);
            assert_eq!(
                r.start,
                StartKind::Cold,
                "the storm churns every warm candidate"
            );
            p.advance(SimDuration::from_secs(1));
        }
    }

    #[test]
    fn storage_faults_surface_as_transient_function_errors() {
        let mut p = aws();
        p.set_faults(FaultPlan {
            storage_error_rate: 1.0,
            ..FaultPlan::empty()
        });
        let wl = Uploader::new(Language::Python);
        let fid = p
            .deploy(FunctionConfig::new("uploader", Language::Python, 256))
            .unwrap();
        let payload = p.prepare(&wl, Scale::Test);
        let r = p.invoke(fid, &wl, &payload);
        assert!(matches!(
            r.outcome,
            InvocationOutcome::FunctionError {
                kind: FunctionErrorKind::TransientStorage,
                ..
            }
        ));
        assert!(r.outcome.retryable());
    }

    #[test]
    fn retry_policy_recovers_from_transient_faults_and_bills_every_attempt() {
        let mut p = aws();
        p.set_faults(FaultPlan::transient(0.6));
        p.set_retry_policy(RetryPolicy::backoff(6));
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let mut recovered = 0u32;
        let mut multi_attempt = 0u32;
        for _ in 0..20 {
            let chain = p.invoke_with_policy(fid, &wl, &payload);
            if chain.succeeded() {
                recovered += 1;
            }
            if chain.billed_attempts() > 1 {
                multi_attempt += 1;
                assert_eq!(chain.waits.len(), chain.billed_attempts() - 1);
                let summed: f64 = chain.attempts.iter().map(|a| a.bill.total_usd()).sum();
                assert!((chain.total_cost_usd() - summed).abs() < 1e-15);
                assert!(chain.total_cost_usd() > chain.attempts[0].bill.total_usd());
            }
            p.advance(SimDuration::from_secs(1));
        }
        assert!(
            recovered >= 18,
            "6 attempts at p=0.6 recover almost always: {recovered}"
        );
        assert!(
            multi_attempt > 5,
            "p=0.6 forces frequent retries: {multi_attempt}"
        );
    }

    #[test]
    fn chain_traces_record_attempts_and_backoffs() {
        let mut p = aws();
        p.set_tracing(true);
        p.set_faults(FaultPlan::transient(1.0));
        p.set_retry_policy(RetryPolicy::backoff(3));
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let chain = p.invoke_with_policy(fid, &wl, &payload);
        assert_eq!(chain.billed_attempts(), 3);
        assert!(!chain.succeeded());
        let traces = p.take_traces();
        let chain_trace = traces
            .iter()
            .find(|t| t.root.name == "invoke.chain")
            .expect("a chain trace is emitted for multi-attempt chains");
        assert_eq!(chain_trace.root.validate(), Ok(()));
        let attempts = chain_trace
            .root
            .children
            .iter()
            .filter(|c| c.name == "attempt")
            .count();
        let waits = chain_trace
            .root
            .children
            .iter()
            .filter(|c| c.name == "backoff.wait")
            .count();
        assert_eq!(attempts, 3);
        assert_eq!(waits, 2);
        // Each attempt also left its own regular invocation trace.
        assert_eq!(
            traces
                .iter()
                .filter(|t| t.root.name == "invocation")
                .count(),
            3
        );
    }

    #[test]
    fn breaker_trips_open_and_rejects_locally() {
        let mut p = aws();
        p.set_faults(FaultPlan::transient(1.0));
        p.set_retry_policy(RetryPolicy {
            breaker: Some(sebs_resilience::BreakerConfig {
                failure_threshold: 2,
                cooldown: SimDuration::from_secs(3600),
            }),
            ..RetryPolicy::backoff(2)
        });
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let first = p.invoke_with_policy(fid, &wl, &payload);
        assert!(!first.succeeded());
        assert!(!first.breaker_rejected);
        let second = p.invoke_with_policy(fid, &wl, &payload);
        assert!(second.breaker_rejected, "two failures tripped the breaker");
        assert_eq!(second.billed_attempts(), 0);
        assert_eq!(second.total_cost_usd(), 0.0);
        assert_eq!(second.outcome, InvocationOutcome::ServiceUnavailable);
    }

    #[test]
    fn hedging_races_a_second_attempt_past_the_quantile() {
        let mut p = aws();
        p.set_retry_policy(RetryPolicy {
            hedge_after_quantile: Some(0.5),
            ..RetryPolicy::backoff(2)
        });
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let mut hedges = 0u32;
        for _ in 0..40 {
            let chain = p.invoke_with_policy(fid, &wl, &payload);
            assert!(chain.succeeded());
            if chain.hedged {
                hedges += 1;
                assert_eq!(
                    chain.billed_attempts(),
                    2,
                    "the hedge is a real billed attempt"
                );
                if chain.hedge_won {
                    assert!(
                        chain.client_time < chain.attempts[0].client_time,
                        "a winning hedge shortens the effective latency"
                    );
                }
            }
            p.advance(SimDuration::from_millis(100));
        }
        assert!(
            hedges > 0,
            "a p50 hedge threshold fires on roughly half the attempts"
        );
    }

    #[test]
    fn a_hedge_uses_up_no_retry_and_skips_no_backoff_step() {
        let mut p = FaasPlatform::new(ProviderProfile::aws(), 2021);
        p.set_faults(FaultPlan::transient(0.6));
        p.set_retry_policy(RetryPolicy::parse("attempts=4,hedge=0.1").unwrap());
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let mut hedged_with_two_waits = 0;
        for _ in 0..400 {
            let chain = p.invoke_with_policy(fid, &wl, &payload);
            // The wait before retry k+1 is backoff_for(k): 100 ms doubling.
            for (k, wait) in chain.waits.iter().enumerate() {
                assert_eq!(*wait, SimDuration::from_millis(100 << k), "{chain:?}");
            }
            // A hedge is one extra billed attempt, never a spent retry.
            let primaries = chain.billed_attempts() - usize::from(chain.hedged);
            assert_eq!(primaries, chain.waits.len() + 1);
            if !chain.succeeded() && chain.outcome.retryable() {
                assert_eq!(primaries, 4, "a retryable failure uses every attempt");
            }
            if chain.hedged && chain.waits.len() >= 2 {
                hedged_with_two_waits += 1;
            }
            p.advance(SimDuration::from_secs(1));
        }
        assert!(hedged_with_two_waits > 0, "the case is exercised");
    }

    #[test]
    fn retry_budget_caps_total_retries() {
        let mut p = aws();
        p.set_faults(FaultPlan::transient(1.0));
        p.set_retry_policy(RetryPolicy {
            retry_budget: Some(3),
            ..RetryPolicy::backoff(4)
        });
        let (fid, wl, payload) = deploy_html(&mut p, 256);
        let first = p.invoke_with_policy(fid, &wl, &payload);
        assert_eq!(first.billed_attempts(), 4, "full budget available");
        let second = p.invoke_with_policy(fid, &wl, &payload);
        assert_eq!(
            second.billed_attempts(),
            1,
            "budget exhausted: no retries remain"
        );
    }
}
