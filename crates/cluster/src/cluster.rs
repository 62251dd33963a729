//! The region: N hosts, a scheduler, a keep-alive controller, a compiled
//! host-crash schedule, and the shared [`RetryDriver`] that drives
//! failover onto surviving hosts.

use sebs_platform::platform::DeployError;
use sebs_platform::{
    Attempt, AttemptChain, AttemptKind, ChainTimeline, FunctionConfig, FunctionErrorKind,
    FunctionId, InvocationOutcome, InvocationRecord, PoolObservation, ProviderKind,
    ProviderProfile, RetryDriver, StartKind,
};
use sebs_resilience::{FaultPlan, RetryPolicy};
use sebs_sim::rng::{Rng, StreamRng};
use sebs_sim::{SimDuration, SimRng, SimTime};
use sebs_trace::{InvocationTrace, TraceCollector, TraceSpan};
use sebs_workloads::{Payload, Workload};

use crate::host::Host;
use crate::keepalive::{HybridHistogram, KeepAliveKind};
use crate::scheduler::{HostView, SchedulerKind};

/// Shape of the region.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Provider profile every host runs.
    pub provider: ProviderKind,
    /// Number of hosts.
    pub hosts: u32,
    /// CPU slots per host.
    pub host_cpus: u32,
    /// Admission-queue depth per host beyond the CPU slots; an arrival
    /// finding `cpus + queue_depth` invocations in flight is shed
    /// (`Throttled`).
    pub queue_depth: u32,
    /// Co-location contention: each invocation already running on the
    /// chosen host inflates the new invocation's I/O time by this
    /// fraction (0.0 = none, bit-identical to the single box).
    pub contention: f64,
    /// Placement policy.
    pub scheduler: SchedulerKind,
    /// Container-retention policy.
    pub keepalive: KeepAliveKind,
}

impl ClusterConfig {
    /// An 8-host region with 4 CPUs + depth-8 queues per host, no
    /// contention, least-loaded placement and the provider's own
    /// keep-alive.
    pub fn new(provider: ProviderKind) -> ClusterConfig {
        ClusterConfig {
            provider,
            hosts: 8,
            host_cpus: 4,
            queue_depth: 8,
            contention: 0.0,
            scheduler: SchedulerKind::LeastLoaded,
            keepalive: KeepAliveKind::Provider,
        }
    }

    /// The degenerate 1-host region that reproduces the single-box
    /// platform bit-for-bit: one host with effectively unbounded CPUs and
    /// queue, zero contention, a draw-free scheduler and the provider
    /// baseline keep-alive.
    pub fn single_box(provider: ProviderKind) -> ClusterConfig {
        ClusterConfig {
            provider,
            hosts: 1,
            host_cpus: u32::MAX / 4,
            queue_depth: u32::MAX / 4,
            contention: 0.0,
            scheduler: SchedulerKind::LeastLoaded,
            keepalive: KeepAliveKind::Provider,
        }
    }

    /// Builder: number of hosts.
    pub fn with_hosts(mut self, hosts: u32) -> ClusterConfig {
        self.hosts = hosts.max(1);
        self
    }

    /// Builder: CPU slots per host.
    pub fn with_cpus(mut self, cpus: u32) -> ClusterConfig {
        self.host_cpus = cpus.max(1);
        self
    }

    /// Builder: queue depth per host.
    pub fn with_queue_depth(mut self, depth: u32) -> ClusterConfig {
        self.queue_depth = depth;
        self
    }

    /// Builder: co-location contention fraction.
    pub fn with_contention(mut self, contention: f64) -> ClusterConfig {
        self.contention = contention.max(0.0);
        self
    }

    /// Builder: placement policy.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> ClusterConfig {
        self.scheduler = scheduler;
        self
    }

    /// Builder: keep-alive policy.
    pub fn with_keepalive(mut self, keepalive: KeepAliveKind) -> ClusterConfig {
        self.keepalive = keepalive;
        self
    }
}

/// One compiled host crash: `host` goes down at `at` and recovers at
/// `until`. The schedule is a pure function of (plan, seed, host count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The crashing host's index.
    pub host: u32,
    /// Crash instant (warm pool evicted, in-flight work lost).
    pub at: SimTime,
    /// Recovery instant (inclusive: the host serves again at `until`).
    pub until: SimTime,
}

/// Cluster-wide telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Arrivals shed because every live host's queue was full.
    pub shed: u64,
    /// Arrivals rejected because no host was alive.
    pub unavailable: u64,
    /// Invocations lost mid-flight to a host crash.
    pub crash_failures: u64,
    /// Retries that landed on a different host than the chain's previous
    /// first attempt or retry (failover reschedules; hedges never count).
    pub failover_hops: u64,
    /// Sandboxes pre-warmed by the keep-alive policy.
    pub prewarms: u64,
    /// Keep-alive retunes applied across all hosts.
    pub retunes: u64,
}

struct FnMeta {
    name: String,
    memory_mb: u32,
}

/// Where one attempt of a chain ran, kept for its trace span.
struct AttemptPlacement {
    host: Option<u32>,
    queue_wait: SimDuration,
    failover_hop: bool,
}

/// A region of hosts behind one dispatch loop. See the crate docs for
/// the determinism contract.
pub struct ClusterPlatform {
    config: ClusterConfig,
    hosts: Vec<Host>,
    /// The candidate slate of the current dispatch, kept between
    /// dispatches so building it allocates nothing.
    slate: Vec<HostView>,
    /// The gap histograms of the `hybrid` keep-alive; `None` for every
    /// other keep-alive, which keeps no state.
    hybrid: Option<HybridHistogram>,
    functions: Vec<FnMeta>,
    now: SimTime,
    seed: u64,
    rng_sched: StreamRng,
    crash_events: Vec<CrashEvent>,
    next_crash: usize,
    // `None` (the `RetryPolicy::none()` mapping) runs one plain attempt.
    retry: Option<RetryDriver>,
    traces: TraceCollector<InvocationTrace>,
    stats: ClusterStats,
}

impl std::fmt::Debug for ClusterPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterPlatform")
            .field("provider", &self.config.provider)
            .field("hosts", &self.hosts.len())
            .field("now", &self.now)
            .finish()
    }
}

impl ClusterPlatform {
    /// Boots the region. Every host runs the same provider profile with
    /// the same seed (see the crate docs); the cluster's own streams
    /// (`cluster-sched`, `cluster-retry`, `host-fault`) are derived from
    /// the same seed under names no single-box concern uses.
    pub fn new(config: ClusterConfig, seed: u64) -> ClusterPlatform {
        let root = SimRng::new(seed);
        let hosts: Vec<Host> = (0..config.hosts.max(1))
            .map(|id| {
                Host::new(
                    id,
                    ProviderProfile::for_kind(config.provider),
                    seed,
                    config.host_cpus,
                    config.queue_depth,
                )
            })
            .collect();
        ClusterPlatform {
            slate: Vec::with_capacity(hosts.len()),
            hybrid: (config.keepalive == KeepAliveKind::Hybrid).then(HybridHistogram::default),
            hosts,
            functions: Vec::new(),
            now: SimTime::ZERO,
            seed,
            rng_sched: root.stream("cluster-sched"),
            crash_events: Vec::new(),
            next_crash: 0,
            retry: None,
            traces: TraceCollector::default(),
            stats: ClusterStats::default(),
            config,
        }
    }

    /// Installs a fault plan: `host_crashes` windows compile into the
    /// per-host crash schedule on the dedicated `host-fault` stream of a
    /// fresh rng for the cluster seed (so the schedule is a pure function
    /// of plan, seed and host count, independent of anything invoked
    /// before the call); every other fault kind is forwarded to each
    /// host's own injector.
    pub fn set_faults(&mut self, plan: FaultPlan, seed: u64) {
        let mut rng = SimRng::new(seed).stream("host-fault");
        self.crash_events = compile_crash_schedule(&plan, self.hosts.len() as u32, &mut rng);
        self.next_crash = 0;
        let mut host_plan = plan;
        host_plan.host_crashes.clear();
        for host in &mut self.hosts {
            host.platform.set_faults(host_plan.clone());
        }
    }

    /// Installs a fresh [`RetryDriver`] for the policy behind
    /// [`ClusterPlatform::invoke_resilient`], drawing jitter from the
    /// `cluster-retry` stream of the cluster seed. Every knob the single
    /// box honours applies here too: attempts, backoff, budget,
    /// deadline, hedging and the circuit breaker.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = (!policy.is_none())
            .then(|| RetryDriver::new(policy, SimRng::new(self.seed).stream("cluster-retry")));
    }

    /// Enables reschedule-hop tracing: each resilient invocation emits a
    /// `cluster-invoke` root span with one child per attempt (host,
    /// outcome, queue wait). Observational only — no RNG, no behaviour
    /// change.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.traces.set_enabled(enabled);
    }

    /// Drains collected cluster traces.
    pub fn take_traces(&mut self) -> Vec<InvocationTrace> {
        self.traces.take()
    }

    /// The compiled host-crash schedule, sorted by (time, host).
    pub fn crash_schedule(&self) -> &[CrashEvent] {
        &self.crash_events
    }

    /// Cluster-wide counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// The hosts, for per-host telemetry.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// The region shape.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Current cluster time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances cluster time (host platforms advance lazily at their next
    /// dispatch).
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Advances every host platform to the cluster clock — an
    /// observability helper so pool occupancy snapshots reflect cluster
    /// time on hosts that have not dispatched recently. RNG-free; does
    /// not change invocation results.
    pub fn sync_host_clocks(&mut self) {
        let now = self.now;
        for host in &mut self.hosts {
            let pnow = host.platform.now();
            if now > pnow {
                host.platform.advance(now - pnow);
            }
        }
    }

    /// Deploys a function on every host (same id everywhere) and installs
    /// the keep-alive policy's initial pool policy, if any.
    ///
    /// # Errors
    ///
    /// Returns the first host's [`DeployError`] when the configuration
    /// violates provider limits.
    pub fn deploy(&mut self, config: FunctionConfig) -> Result<FunctionId, DeployError> {
        let meta = FnMeta {
            name: config.name.clone(),
            memory_mb: config.memory_mb,
        };
        let mut id = FunctionId(0);
        for host in &mut self.hosts {
            id = host.platform.deploy(config.clone())?;
        }
        if let Some(policy) = self.config.keepalive.initial_policy() {
            for host in &mut self.hosts {
                host.platform.set_pool_policy(id, policy.clone());
            }
        }
        self.functions.push(meta);
        Ok(id)
    }

    /// Runs a workload's `prepare` on every host's storage (hosts share
    /// the seed, so the generated objects and payload are identical) and
    /// returns the payload.
    pub fn prepare(&mut self, workload: &dyn Workload, scale: sebs_workloads::Scale) -> Payload {
        let mut payload = None;
        for host in &mut self.hosts {
            payload = Some(host.platform.prepare(workload, scale));
        }
        // audit:allow(panic-hygiene): the cluster always has >= 1 host, so the loop ran
        payload.expect("cluster has at least one host")
    }

    /// Pool occupancy of `function` on `host` (RNG-free snapshot at the
    /// host's clock).
    pub fn observe_pool(&self, host: usize, function: FunctionId) -> PoolObservation {
        self.hosts[host].observe_pool(function)
    }

    /// Invokes once through the cluster (scheduling, queueing, crash
    /// interrupts — but no retries). One logical arrival for the
    /// keep-alive controller.
    pub fn invoke(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payload: &Payload,
    ) -> InvocationRecord {
        let mut chain = self.drive(None, id, workload, payload);
        chain
            .attempts
            .pop()
            // audit:allow(panic-hygiene): a chain without a driver is exactly one attempt
            .expect("a plain invoke launches one attempt")
    }

    /// Invokes once under the installed [`RetryPolicy`]: the shared
    /// [`RetryDriver`] re-schedules failed retryable attempts — after
    /// backoff — on whatever host the scheduler then picks, which is how
    /// failover lands on survivors. The cluster clock advances by each
    /// failed attempt's extent (queue wait plus client time) plus its
    /// wait; the final attempt leaves the clock untouched (the caller
    /// owns time).
    pub fn invoke_resilient(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payload: &Payload,
    ) -> AttemptChain {
        let mut driver = self.retry.take();
        let chain = self.drive(driver.as_mut(), id, workload, payload);
        self.retry = driver;
        chain
    }

    /// Runs one chain through `driver` (one plain attempt without one)
    /// and records its `cluster-invoke` trace.
    fn drive(
        &mut self,
        driver: Option<&mut RetryDriver>,
        id: FunctionId,
        workload: &dyn Workload,
        payload: &Payload,
    ) -> AttemptChain {
        let chain_start = self.now;
        let mut invoker = ClusterInvoker {
            cluster: self,
            id,
            workload,
            payload,
            prev_host: None,
            placements: Vec::new(),
        };
        let (chain, timeline) = match driver {
            Some(driver) => driver.run(&mut invoker),
            None => RetryDriver::single(&mut invoker),
        };
        let placements = invoker.placements;
        self.record_trace(id, chain_start, &chain, &timeline, &placements);
        chain
    }

    /// Keep-alive bookkeeping for one logical arrival: prewarm decision
    /// from prior history, then record the arrival (possibly retuning
    /// every host's pool policy).
    fn arrival_bookkeeping(&mut self, id: FunctionId) -> bool {
        let Some(hybrid) = &mut self.hybrid else {
            return false;
        };
        let prewarm = hybrid.wants_prewarm(id.0, self.now);
        if let Some(policy) = hybrid.observe_arrival(id.0, self.now) {
            self.stats.retunes += 1;
            for host in &mut self.hosts {
                host.platform.set_pool_policy(id, policy.clone());
            }
        }
        prewarm
    }

    /// Applies every compiled crash event at or before `now`.
    fn sync_crashes(&mut self, now: SimTime) {
        while self.next_crash < self.crash_events.len() {
            let event = self.crash_events[self.next_crash];
            if event.at > now {
                break;
            }
            self.hosts[event.host as usize].crash(event.until);
            self.next_crash += 1;
        }
    }

    /// One dispatch: sync crashes, build the candidate slate, schedule,
    /// queue, invoke, and apply the crash-interrupt check. Returns the
    /// record, the chosen host (none when shed or no host was up) and
    /// the queue wait.
    fn dispatch(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payload: &Payload,
        prewarm: bool,
    ) -> (InvocationRecord, Option<u32>, SimDuration) {
        let at = self.now;
        self.sync_crashes(at);

        self.slate.clear();
        let mut any_alive = false;
        for host in &mut self.hosts {
            if !host.is_up(at) {
                continue;
            }
            any_alive = true;
            host.prune_inflight(at);
            if !host.has_capacity() {
                continue;
            }
            self.slate.push(HostView {
                id: host.id(),
                inflight: host.inflight(),
                running: host.running(),
                cpus: host.cpus(),
                warm_for_function: host.observe_pool(id).idle,
            });
        }
        if !any_alive {
            self.stats.unavailable += 1;
            return self.rejected(id, payload, InvocationOutcome::ServiceUnavailable);
        }
        if self.slate.is_empty() {
            self.stats.shed += 1;
            return self.rejected(id, payload, InvocationOutcome::Throttled);
        }

        // The scheduler only runs — and may only draw — on a real choice.
        let picked = if self.slate.len() == 1 {
            self.slate[0].id
        } else {
            self.config.scheduler.pick(&self.slate, &mut self.rng_sched)
        };
        let idx = picked as usize;
        let queue_wait = self.hosts[idx].queue_wait(at);
        let dispatch = at + queue_wait;
        let running = self.hosts[idx].running();
        let factor = 1.0 + self.config.contention * running as f64;

        let host = &mut self.hosts[idx];
        host.platform.set_contention(factor);
        let platform_now = host.platform.now();
        if dispatch > platform_now {
            host.platform.advance(dispatch - platform_now);
        }
        if prewarm && host.platform.prewarm(id) {
            self.stats.prewarms += 1;
        }
        let mut record = host.platform.invoke(id, workload, payload);

        // Crash-interrupt: the schedule is known up front, so an
        // invocation spanning its host's next crash dies at the crash
        // instant — pools evicted, nothing billed or answered, retryable.
        let end = dispatch + record.client_time;
        let interrupting = self.crash_events[self.next_crash..]
            .iter()
            .find(|e| e.host == picked && e.at <= end)
            .copied();
        if let Some(event) = interrupting {
            let outcome = InvocationOutcome::FunctionError {
                kind: FunctionErrorKind::HostCrash,
                message: format!("host {picked} crashed mid-invocation"),
            };
            let mut cut = InvocationRecord::unanswered(
                id,
                outcome,
                dispatch,
                event.at.saturating_duration_since(dispatch),
                record.configured_memory_mb,
                record.payload_bytes,
                record.concurrency,
            );
            cut.start = record.start;
            cut.container = record.container;
            record = cut;
            host.count_crash_failure();
            self.stats.crash_failures += 1;
        } else {
            host.push_inflight(end);
            host.count_served(record.start == StartKind::Cold);
        }
        (record, Some(picked), queue_wait)
    }

    /// A synthesized rejection record (shed or no-host): nothing ran,
    /// nothing is billed, zero client time.
    fn rejected(
        &self,
        id: FunctionId,
        payload: &Payload,
        outcome: InvocationOutcome,
    ) -> (InvocationRecord, Option<u32>, SimDuration) {
        let memory = self.functions.get(id.0 as usize).map_or(0, |f| f.memory_mb);
        let record = InvocationRecord::unanswered(
            id,
            outcome,
            self.now,
            SimDuration::ZERO,
            memory,
            payload.size_bytes(),
            1,
        );
        (record, None, SimDuration::ZERO)
    }

    /// Emits the `cluster-invoke` span tree for one chain: a child per
    /// attempt, placed from the driver's timeline and carrying host,
    /// outcome, start kind and queue wait, so failover hops and hedges
    /// are visible in exported traces.
    fn record_trace(
        &mut self,
        id: FunctionId,
        chain_start: SimTime,
        chain: &AttemptChain,
        timeline: &ChainTimeline,
        placements: &[AttemptPlacement],
    ) {
        let meta = &self.functions[id.0 as usize];
        let failed = !chain.outcome.is_success();
        let Some(pending) = self.traces.admit(&meta.name, timeline.extent, failed) else {
            return;
        };
        let mut root = TraceSpan::new("cluster-invoke", chain_start, timeline.extent)
            .with_arg("function", meta.name.clone())
            .with_arg("attempts", chain.attempts.len().to_string())
            .with_arg("waits", chain.waits.len().to_string());
        let attempts = chain.attempts.iter().zip(&timeline.starts).zip(placements);
        for (i, ((record, offset), placed)) in attempts.enumerate() {
            let mut child = TraceSpan::new(
                format!("attempt-{i}"),
                chain_start + *offset,
                placed.queue_wait + record.client_time,
            )
            .with_arg("outcome", outcome_tag(&record.outcome))
            .with_arg(
                "queue_wait_ms",
                format!("{:.3}", placed.queue_wait.as_secs_f64() * 1e3),
            );
            child = match placed.host {
                Some(h) => child.with_arg("host", h.to_string()),
                None => child.with_arg("host", "none"),
            };
            if placed.failover_hop {
                child = child.with_arg("failover_hop", "true");
            }
            let start = if record.start == StartKind::Cold {
                "cold"
            } else {
                "warm"
            };
            child = child.with_arg("start", start);
            if chain.hedged && i == 1 {
                child = child.with_arg("hedge", "true");
            }
            root.push_child(child);
        }
        let trace = InvocationTrace {
            provider: self.config.provider.to_string(),
            benchmark: meta.name.clone(),
            memory_mb: meta.memory_mb,
            cell: None,
            seq: pending.seq(),
            root,
        };
        self.traces.keep(pending, trace);
    }
}

/// The region as an [`Attempt`] target for one chain: the first attempt
/// is the keep-alive controller's logical arrival (and the only one that
/// may prewarm), and a retry landing on a different host than the
/// previous first attempt or retry counts as a failover hop.
struct ClusterInvoker<'a> {
    cluster: &'a mut ClusterPlatform,
    id: FunctionId,
    workload: &'a dyn Workload,
    payload: &'a Payload,
    prev_host: Option<u32>,
    /// Filled only while tracing.
    placements: Vec<AttemptPlacement>,
}

impl Attempt for ClusterInvoker<'_> {
    fn now(&self) -> SimTime {
        self.cluster.now
    }

    fn advance(&mut self, d: SimDuration) {
        self.cluster.advance(d);
    }

    fn attempt(&mut self, kind: AttemptKind) -> (InvocationRecord, SimDuration) {
        let prewarm = kind == AttemptKind::First && self.cluster.arrival_bookkeeping(self.id);
        let (record, host, queue_wait) =
            self.cluster
                .dispatch(self.id, self.workload, self.payload, prewarm);
        let mut failover_hop = false;
        if let Some(h) = host.filter(|_| kind != AttemptKind::Hedge) {
            failover_hop = self.prev_host.is_some_and(|prev| prev != h);
            self.cluster.stats.failover_hops += u64::from(failover_hop);
            self.prev_host = Some(h);
        }
        if self.cluster.traces.is_enabled() {
            self.placements.push(AttemptPlacement {
                host,
                queue_wait,
                failover_hop,
            });
        }
        let extent = queue_wait + record.client_time;
        (record, extent)
    }
}

fn outcome_tag(outcome: &InvocationOutcome) -> String {
    match outcome {
        InvocationOutcome::FunctionError { kind, .. } => kind.as_str().to_string(),
        other => other.label().to_string(),
    }
}

/// Compiles the plan's host-crash windows into a concrete schedule: for
/// each window in plan order, each host (ascending) draws once against
/// the window's intensity — a certain hit (≥ 1) still consumes the draw,
/// matching the injector's convention, so intensity sweeps stay aligned.
fn compile_crash_schedule(plan: &FaultPlan, hosts: u32, rng: &mut StreamRng) -> Vec<CrashEvent> {
    let mut events = Vec::new();
    for window in &plan.host_crashes {
        let intensity = window.rate;
        if intensity <= 0.0 {
            continue;
        }
        for host in 0..hosts {
            let draw: f64 = rng.gen();
            if intensity >= 1.0 || draw < intensity {
                events.push(CrashEvent {
                    host,
                    at: window.start,
                    until: window.end,
                });
            }
        }
    }
    events.sort_by_key(|e| (e.at, e.host));
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_resilience::HostCrashWindow;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn plan(windows: &[(u64, u64, f64)]) -> FaultPlan {
        FaultPlan {
            host_crashes: windows
                .iter()
                .map(|(s, e, r)| HostCrashWindow {
                    start: at(*s),
                    end: at(*e),
                    rate: *r,
                })
                .collect(),
            ..FaultPlan::empty()
        }
    }

    #[test]
    fn crash_schedule_is_pure_and_seeded() {
        let p = plan(&[(30, 90, 0.5), (200, 260, 1.0)]);
        let compile = |seed: u64| {
            let mut rng = SimRng::new(seed).stream("host-fault");
            compile_crash_schedule(&p, 8, &mut rng)
        };
        assert_eq!(compile(7), compile(7), "same (plan, seed) → same schedule");
        assert_ne!(compile(7), compile(8), "the seed matters");
        let full = compile(7);
        assert_eq!(
            full.iter().filter(|e| e.at == at(200)).count(),
            8,
            "rate 1.0 hits every host"
        );
        let hit = full.iter().filter(|e| e.at == at(30)).count();
        assert!(hit < 8, "rate 0.5 should spare someone at 8 hosts");
        // Sorted by (time, host).
        let mut sorted = full.clone();
        sorted.sort_by_key(|e| (e.at, e.host));
        assert_eq!(full, sorted);
    }

    #[test]
    fn zero_rate_windows_draw_nothing() {
        let p = plan(&[(30, 90, 0.0)]);
        let mut rng = SimRng::new(7).stream("host-fault");
        let pristine = rng.clone();
        assert!(compile_crash_schedule(&p, 8, &mut rng).is_empty());
        assert_eq!(rng, pristine, "zero-intensity windows must not draw");
    }

    #[test]
    fn cluster_boots_with_config() {
        let cluster = ClusterPlatform::new(ClusterConfig::new(ProviderKind::Aws), 42);
        assert_eq!(cluster.hosts().len(), 8);
        assert_eq!(cluster.now(), SimTime::ZERO);
        assert!(cluster.crash_schedule().is_empty());
    }
}
