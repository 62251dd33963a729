//! The box's invocation path, one method per phase: admission,
//! acquisition, execution and classification. `invoke_one` drives them and
//! is the one place that bills, timestamps and reports to the profiler,
//! the trace collector and the metrics. Results depend on the order of the
//! draws from each RNG stream, so a phase keeps its draws where they are.

#![deny(clippy::too_many_lines)]

use std::borrow::Cow;
use std::rc::Rc;

use sebs_resilience::FaultyStore;
use sebs_sim::rng::Rng;
use sebs_sim::{Phase, SimDuration, SimTime};
use sebs_storage::{Bandwidth, ObjectStorage};
use sebs_workloads::{InvocationCtx, IoEvent, Payload, Response, Workload, WorkloadError};

use super::spans::{Invocation, KeptTrace};
use super::{Deployed, FaasPlatform};
use crate::coldstart::ColdStartBreakdown;
use crate::container::ContainerId;
use crate::function::FunctionId;
use crate::invocation::{FunctionErrorKind, InvocationOutcome, InvocationRecord, StartKind};
use crate::trigger::TriggerKind;

/// The network legs of an admitted request.
pub(super) struct Legs {
    /// The client's round trip; zero for triggers inside the cloud.
    pub(super) rtt: SimDuration,
    pub(super) trigger_overhead: SimDuration,
    pub(super) req_transfer: SimDuration,
}

/// The sandbox an admitted request runs in.
struct Acquisition {
    container: ContainerId,
    /// `None` for a warm start.
    cold: Option<ColdStartBreakdown>,
    /// Cold while an idle container survived: GCP's spurious colds (§6.1).
    spurious: bool,
}

/// What the function body did, turned into time and memory.
struct Execution {
    result: Result<Response, WorkloadError>,
    instructions: u64,
    storage_requests: u64,
    /// Compute plus I/O time under this allocation.
    benchmark_time: SimDuration,
    io_time: SimDuration,
    used_mb: u32,
    io: RecordedIo,
}

/// The body's storage operations and what scales them.
pub(super) struct RecordedIo {
    /// Recorded only while tracing.
    pub(super) events: Vec<IoEvent>,
    pub(super) contention: f64,
    pub(super) io_scale: f64,
    pub(super) bandwidth: Bandwidth,
}

/// The verdict on a request that ran.
struct Verdict {
    sandbox_overhead: SimDuration,
    /// The concurrency penalty of the burst's peers.
    penalty: SimDuration,
    outcome: InvocationOutcome,
    /// Cut at the limit on a timeout.
    benchmark_time: SimDuration,
    /// The response of a success; nothing otherwise.
    response_bytes: u64,
}

/// The phase results a served request's span tree is laid out from.
pub(super) struct Served {
    pub(super) legs: Legs,
    /// `None` for a warm start.
    pub(super) cold: Option<ColdStartBreakdown>,
    /// The sandbox overhead plus the concurrency penalty.
    pub(super) overhead: SimDuration,
    pub(super) io: RecordedIo,
}

impl FaasPlatform {
    /// Runs one request of a burst of `concurrency`. Returns its record and,
    /// when it acquired a container, the container with the instant the
    /// caller must release it at.
    pub(super) fn invoke_one(
        &mut self,
        id: FunctionId,
        workload: &dyn Workload,
        payload: &Payload,
        index: u32,
        concurrency: u32,
        trigger: TriggerKind,
    ) -> (InvocationRecord, Option<(ContainerId, SimTime)>) {
        // Shared, not cloned: the hot path never copies a `FunctionConfig`.
        let deployed = Rc::clone(&self.functions[id.0 as usize]);
        let memory = deployed.effective_memory_mb;
        let (record, served, spurious) = match self.admit(payload, index, concurrency, trigger) {
            Err((outcome, client_time)) => {
                let record = InvocationRecord::unanswered(
                    id,
                    outcome,
                    self.now,
                    client_time,
                    memory,
                    payload.size_bytes(),
                    concurrency,
                );
                (record, None, false)
            }
            Ok(legs) => {
                let acquired = self.acquire(&deployed);
                let run = self.execute(&deployed, workload, payload, &acquired, concurrency);
                let verdict = self.classify(&deployed, &run, concurrency);
                let cold_init = acquired.cold.map_or(SimDuration::ZERO, |b| b.total());
                let overhead = verdict.sandbox_overhead + verdict.penalty;
                // The execution phase is billed; sandbox provisioning and
                // runtime boot are not.
                let billed = verdict.benchmark_time + overhead;
                let provider_time = billed + cold_init;
                let client_time = legs.rtt
                    + legs.trigger_overhead
                    + legs.req_transfer
                    + self.wan_transfer(trigger, verdict.response_bytes)
                    + provider_time;
                let bill = self.profile.billing.bill_via(
                    billed,
                    memory,
                    run.used_mb,
                    verdict.response_bytes,
                    trigger.uses_api_gateway(),
                );
                if let Some(p) = self.profiler.as_mut() {
                    p.record(Phase::PoolAcquire, cold_init);
                    p.record_events(Phase::StorageOp, run.storage_requests, run.io_time);
                    p.record(Phase::Billing, bill.billed_duration);
                }
                // The body's start on the server clock, for clock sync.
                let start_delay = legs.rtt / 2
                    + legs.trigger_overhead
                    + legs.req_transfer
                    + cold_init
                    + verdict.sandbox_overhead / 2;
                let record = InvocationRecord {
                    function: id,
                    start: acquired.cold.map_or(StartKind::Warm, |_| StartKind::Cold),
                    outcome: verdict.outcome,
                    submitted_at: self.now,
                    benchmark_time: verdict.benchmark_time,
                    provider_time,
                    client_time,
                    instructions: run.instructions,
                    io_time: run.io_time,
                    used_memory_mb: run.used_mb,
                    configured_memory_mb: memory,
                    payload_bytes: payload.size_bytes(),
                    response_bytes: verdict.response_bytes,
                    container: Some(acquired.container),
                    concurrency,
                    bill,
                    t_send_client: self.now.as_secs_f64(),
                    t_start_server: self.server_clock.read(self.now + start_delay),
                    t_recv_client: (self.now + client_time).as_secs_f64(),
                };
                let served = Served {
                    legs,
                    cold: acquired.cold,
                    overhead,
                    io: run.io,
                };
                (record, Some(served), acquired.spurious)
            }
        };
        let release = record.container.zip(Some(self.now + record.provider_time));
        let (name, failed) = (&deployed.config.name, !record.outcome.is_success());
        if let Some(pending) = self.traces.admit(name, record.client_time, failed) {
            let kept = KeptTrace::Invocation(Invocation {
                deployed,
                provider: self.profile.kind,
                record: record.clone(),
                served,
            });
            self.traces.keep(pending, kept);
        }
        self.record_invocation_metrics(&record, spurious);
        (record, release)
    }

    /// Admission: draws the network legs, then checks the payload and
    /// concurrency limits, outage windows and availability under heavy
    /// concurrency (§6.2 Q3). A rejection carries its outcome and client time.
    fn admit(
        &mut self,
        payload: &Payload,
        index: u32,
        concurrency: u32,
        trigger: TriggerKind,
    ) -> Result<Legs, (InvocationOutcome, SimDuration)> {
        let rtt = if trigger.crosses_wan() {
            self.profile.client_rtt_ms.sample_millis(&mut self.rng_net)
        } else {
            SimDuration::ZERO
        };
        let trigger_overhead = self.profile.trigger.overhead(&mut self.rng_net, trigger);
        let req_transfer = self.wan_transfer(trigger, payload.size_bytes());
        let limits = &self.profile.limits;
        if payload.size_bytes() > limits.payload_bytes {
            let outcome = InvocationOutcome::PayloadTooLarge {
                bytes: payload.size_bytes(),
                limit: limits.payload_bytes,
            };
            return Err((outcome, rtt));
        }
        if index >= limits.concurrency {
            return Err((InvocationOutcome::Throttled, rtt + req_transfer));
        }
        // The short-circuit keeps the historic `rng_failure` draw sequence
        // intact whenever no outage fires.
        let outage = self
            .faults
            .as_mut()
            .is_some_and(|f| f.sample_outage(self.now));
        let quirks = &self.profile.quirks;
        // audit:allow(failure-probability): the paper's §6.2 Q3 availability
        // model — rate, threshold and penalty are provider Quirks, not an
        // ad-hoc fault source.
        if outage
            || (concurrency > quirks.availability_threshold
                && self.rng_failure.gen::<f64>() < quirks.availability_error_rate)
        {
            let client_time = rtt + req_transfer + quirks.unavailable_penalty;
            return Err((InvocationOutcome::ServiceUnavailable, client_time));
        }
        Ok(Legs {
            rtt,
            trigger_overhead,
            req_transfer,
        })
    }

    /// Acquisition: a sandbox from the function's pool, and its cold-start
    /// breakdown. A storm window raises the spurious-cold probability and
    /// forces the probabilistic path even on providers with deterministic
    /// warm reuse; outside every window the arguments are the historic ones.
    fn acquire(&mut self, deployed: &Deployed) -> Acquisition {
        let storm_boost = self
            .faults
            .as_ref()
            .map_or(0.0, |f| f.storm_boost(self.now));
        let quirks = &self.profile.quirks;
        let pool = &mut self.pools[deployed.pool];
        let acquired = pool.acquire(
            self.now,
            &mut self.rng_pool,
            quirks.spurious_cold_start.max(storm_boost),
            quirks.deterministic_warm_reuse && storm_boost == 0.0,
        );
        // A regular cold start only happens when the pool is dry.
        let spurious = acquired.is_cold() && pool.idle_count() > 0;
        let memory = deployed.effective_memory_mb;
        let cold = acquired.is_cold().then(|| {
            self.profile.cold_start.sample_breakdown(
                &mut self.rng_cold,
                deployed.config.language,
                self.profile.cpu.share(memory),
                memory,
                deployed.config.code_package_bytes,
                deployed.config.init_work,
                self.profile.ops_per_sec_full_cpu,
            )
        });
        Acquisition {
            container: acquired.id(),
            cold,
            spurious,
        }
    }

    /// Execution: runs the body, then turns its counters into time under
    /// this allocation and its footprint into memory (runtime baseline plus
    /// peak). Warm containers keep workload caches (e.g. a loaded model).
    fn execute(
        &mut self,
        deployed: &Deployed,
        workload: &dyn Workload,
        payload: &Payload,
        acquired: &Acquisition,
        concurrency: u32,
    ) -> Execution {
        let exec_payload = with_cache_param(payload, acquired.cold.is_none());
        let mut exec_rng = self.rng_exec.clone();
        self.rng_exec.gen::<u64>(); // decorrelate subsequent invocations
        let tracing = self.traces.is_enabled();
        let mut run_body = |storage: &mut dyn ObjectStorage| {
            let mut ctx = InvocationCtx::new(storage, &mut exec_rng);
            if tracing {
                ctx.enable_io_recording();
            }
            let result = workload.execute(&exec_payload, &mut ctx);
            (
                result,
                ctx.counters(),
                ctx.io_time(),
                ctx.peak_alloc_bytes(),
                ctx.into_io_events(),
            )
        };
        // Storage faults interpose only when the plan actually has any, so
        // the fault-free data path is byte-for-byte the historic one.
        let (result, counters, raw_io, peak_alloc, events) = match self
            .faults
            .as_mut()
            .filter(|f| f.plan().has_storage_faults())
        {
            Some(injector) => run_body(&mut FaultyStore::new(&mut self.storage, injector)),
            None => run_body(&mut self.storage),
        };
        let memory = deployed.effective_memory_mb;
        let language = deployed.config.language;
        let compute_rate = self.profile.compute_rate(memory, language);
        let compute_time = SimDuration::from_secs_f64(counters.instructions as f64 / compute_rate);
        let io_scale = self.profile.io_scale(memory);
        // A host contention of 1.0 leaves the product bit-identical.
        let contention =
            (1.0 + 0.05 * ((concurrency.saturating_sub(1)).min(16) as f64)) * self.host_contention;
        let io_time = raw_io.mul_f64(contention / io_scale);
        let runtime_base_mb = match language {
            sebs_workloads::Language::Python => 36.0 + 4.0 * self.rng_memory.gen::<f64>(),
            sebs_workloads::Language::NodeJs => 26.0 + 4.0 * self.rng_memory.gen::<f64>(),
        };
        let used_mb = (runtime_base_mb + peak_alloc as f64 / (1024.0 * 1024.0)).ceil() as u32;
        Execution {
            result,
            instructions: counters.instructions,
            storage_requests: counters.storage_requests,
            benchmark_time: compute_time + io_time,
            io_time,
            used_mb,
            io: RecordedIo {
                events,
                contention,
                io_scale,
                bandwidth: self.storage.bandwidth(),
            },
        }
    }

    /// Classification: samples the sandbox's overheads, draws the injected
    /// execution faults, and decides the outcome, the timeout cut and the
    /// response the client receives.
    fn classify(&mut self, deployed: &Deployed, run: &Execution, concurrency: u32) -> Verdict {
        let memory = deployed.effective_memory_mb;
        let quirks = &self.profile.quirks;
        let oom_limit = if quirks.strict_oom {
            memory as f64
        } else {
            memory as f64 * quirks.oom_slack_factor
        };
        let limit = self.profile.limits.timeout;
        let timeout = deployed.config.timeout.unwrap_or(limit).min(limit);
        let sandbox_overhead = self
            .profile
            .runtime_overhead_ms
            .sample_millis(&mut self.rng_net);
        let penalty = quirks
            .concurrency_penalty_ms_per_peer
            .sample_millis(&mut self.rng_net)
            .mul_f64(concurrency.saturating_sub(1) as f64);
        // Injected execution faults: the workload ran to completion (so
        // every downstream RNG stream drew exactly as usual), but the
        // sandbox crashed or the payload arrived corrupted — the attempt
        // is billed like any function error.
        let injected = self.faults.as_mut().and_then(|f| {
            let corrupt = f.sample_corrupt_payload();
            let crash = f.sample_sandbox_crash();
            if corrupt {
                Some(FunctionErrorKind::CorruptPayload)
            } else {
                crash.then_some(FunctionErrorKind::SandboxCrash)
            }
        });
        let outcome = match (injected, &run.result) {
            (Some(FunctionErrorKind::CorruptPayload), _) => InvocationOutcome::FunctionError {
                kind: FunctionErrorKind::CorruptPayload,
                // audit:allow(hot-path-allocation): failure-path message, allocates only when an invocation fails
                message: "request payload corrupted in flight".to_string(),
            },
            (Some(_), _) => InvocationOutcome::FunctionError {
                kind: FunctionErrorKind::SandboxCrash,
                // audit:allow(hot-path-allocation): failure-path message, allocates only when an invocation fails
                message: "sandbox crashed mid-execution".to_string(),
            },
            (None, Err(e)) => InvocationOutcome::FunctionError {
                kind: classify_workload_error(e),
                // audit:allow(hot-path-allocation): failure-path message, allocates only when an invocation fails
                message: e.to_string(),
            },
            (None, Ok(_)) if run.used_mb as f64 > oom_limit => InvocationOutcome::OutOfMemory {
                used_mb: run.used_mb,
                limit_mb: memory,
            },
            (None, Ok(_)) if run.benchmark_time > timeout => InvocationOutcome::Timeout,
            (None, Ok(_)) => InvocationOutcome::Success,
        };
        let response_bytes = match &run.result {
            Ok(resp) if outcome.is_success() => resp.size_bytes(),
            _ => 0,
        };
        // Timeouts are cut off at the limit; OOM kills happen mid-run.
        let benchmark_time = if matches!(outcome, InvocationOutcome::Timeout) {
            timeout
        } else {
            run.benchmark_time
        };
        Verdict {
            sandbox_overhead,
            penalty,
            outcome,
            benchmark_time,
            response_bytes,
        }
    }

    /// The time `bytes` take over the client's link; zero for triggers
    /// that originate inside the cloud.
    fn wan_transfer(&self, trigger: TriggerKind, bytes: u64) -> SimDuration {
        if trigger.crosses_wan() {
            SimDuration::from_secs_f64(bytes as f64 / self.client_bandwidth_bps)
        } else {
            SimDuration::ZERO
        }
    }
}

/// Maps a workload failure onto its structured, retry-relevant class.
fn classify_workload_error(e: &WorkloadError) -> FunctionErrorKind {
    match e {
        WorkloadError::Storage(_) => FunctionErrorKind::Storage,
        WorkloadError::TransientStorage(_) => FunctionErrorKind::TransientStorage,
        WorkloadError::BadPayload(_) => FunctionErrorKind::BadRequest,
    }
}

/// Overrides the `model-cached` parameter so warm containers keep loaded
/// artifacts (the paper's image-recognition keeps the model in the language
/// worker between invocations). Payloads without the parameter — the vast
/// majority — are borrowed as-is, so the rewrite costs nothing.
// audit:allow(hot-path-allocation): clones only model-caching payloads, which carry the parameter
fn with_cache_param(payload: &Payload, warm: bool) -> Cow<'_, Payload> {
    if !payload.params.iter().any(|(k, _)| k == "model-cached") {
        return Cow::Borrowed(payload);
    }
    let mut p = payload.clone();
    let value = if warm { "true" } else { "false" };
    if let Some(slot) = p.params.iter_mut().find(|(k, _)| k == "model-cached") {
        slot.1 = value.to_string();
    }
    Cow::Owned(p)
}
