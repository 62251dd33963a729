//! Invocation records — the platform-side measurement unit.
//!
//! Every invocation produces an [`InvocationRecord`] carrying the paper's
//! three time levels (§5.1 "Benchmark, Provider and Client Time"):
//!
//! * **benchmark time** — work performed by the function body only,
//! * **provider time** — benchmark time plus the sandbox/language-worker
//!   overhead (and, on a cold start, initialization), what the cloud's own
//!   measurement API would report,
//! * **client time** — end-to-end latency observed by the invoking client,
//!   including the trigger, network and scheduling.

use sebs_sim::{SimDuration, SimTime};

use crate::billing::InvocationBill;
use crate::container::ContainerId;
use crate::function::FunctionId;

/// Whether the invocation hit a warm sandbox or forced a cold start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StartKind {
    /// Reused a warm container.
    Warm,
    /// Booted a new container.
    Cold,
}

/// Why a function body failed, structured so retry classification never
/// string-matches error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionErrorKind {
    /// A required storage object was missing or a storage call failed
    /// permanently (retrying re-reads the same missing object).
    Storage,
    /// A storage call failed transiently (injected fault) — retryable.
    TransientStorage,
    /// The payload was malformed for this benchmark — retrying resends
    /// the same bad request.
    BadRequest,
    /// The sandbox crashed mid-execution (injected fault) — retryable.
    SandboxCrash,
    /// The request payload was corrupted in flight (injected fault) —
    /// retryable, the client still holds the pristine payload.
    CorruptPayload,
    /// The host running the invocation crashed mid-execution (cluster
    /// fault domain) — retryable; a retried attempt lands on a surviving
    /// host, cold.
    HostCrash,
}

impl FunctionErrorKind {
    /// Stable kebab-case tag for trace args and metrics labels.
    pub fn as_str(self) -> &'static str {
        match self {
            FunctionErrorKind::Storage => "storage",
            FunctionErrorKind::TransientStorage => "transient-storage",
            FunctionErrorKind::BadRequest => "bad-request",
            FunctionErrorKind::SandboxCrash => "sandbox-crash",
            FunctionErrorKind::CorruptPayload => "corrupt-payload",
            FunctionErrorKind::HostCrash => "host-crash",
        }
    }

    /// Whether a retry can plausibly succeed.
    pub fn retryable(self) -> bool {
        match self {
            FunctionErrorKind::TransientStorage
            | FunctionErrorKind::SandboxCrash
            | FunctionErrorKind::CorruptPayload
            | FunctionErrorKind::HostCrash => true,
            FunctionErrorKind::Storage | FunctionErrorKind::BadRequest => false,
        }
    }

    /// Every variant, for exhaustiveness tests and metrics pre-registration.
    pub const ALL: [FunctionErrorKind; 6] = [
        FunctionErrorKind::Storage,
        FunctionErrorKind::TransientStorage,
        FunctionErrorKind::BadRequest,
        FunctionErrorKind::SandboxCrash,
        FunctionErrorKind::CorruptPayload,
        FunctionErrorKind::HostCrash,
    ];
}

/// Terminal status of an invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum InvocationOutcome {
    /// Completed successfully.
    Success,
    /// Killed: memory usage exceeded the allocation (GCP's strict OOM,
    /// §6.2 Q3 "Reliability").
    OutOfMemory {
        /// Measured usage at the kill.
        used_mb: u32,
        /// The configured limit.
        limit_mb: u32,
    },
    /// Exceeded the platform's execution time limit.
    Timeout,
    /// Rejected: platform concurrency limit reached.
    Throttled,
    /// Transient service unavailability (§6.2 Q3 "Availability").
    ServiceUnavailable,
    /// The payload exceeded the trigger's size limit.
    PayloadTooLarge {
        /// Offending payload size.
        bytes: u64,
        /// The trigger limit.
        limit: u64,
    },
    /// The function body itself returned an error.
    FunctionError {
        /// Structured failure class driving retry decisions.
        kind: FunctionErrorKind,
        /// Human-readable detail for logs and traces.
        message: String,
    },
}

impl InvocationOutcome {
    /// `true` only for successful completions.
    pub fn is_success(&self) -> bool {
        matches!(self, InvocationOutcome::Success)
    }

    /// Every [`InvocationOutcome::label`], indexed by
    /// [`InvocationOutcome::ordinal`] — for metrics pre-registration.
    pub(crate) const LABELS: [&'static str; 7] = [
        "success",
        "oom",
        "timeout",
        "throttled",
        "unavailable",
        "payload-too-large",
        "function-error",
    ];

    /// The variant's position in [`InvocationOutcome::LABELS`].
    pub(crate) fn ordinal(&self) -> usize {
        match self {
            InvocationOutcome::Success => 0,
            InvocationOutcome::OutOfMemory { .. } => 1,
            InvocationOutcome::Timeout => 2,
            InvocationOutcome::Throttled => 3,
            InvocationOutcome::ServiceUnavailable => 4,
            InvocationOutcome::PayloadTooLarge { .. } => 5,
            InvocationOutcome::FunctionError { .. } => 6,
        }
    }

    /// Stable kebab-case label for trace args and log lines.
    pub fn label(&self) -> &'static str {
        InvocationOutcome::LABELS[self.ordinal()]
    }

    /// Whether a client retry can plausibly change the outcome.
    ///
    /// `Throttled` and `ServiceUnavailable` are transient by definition;
    /// function errors delegate to their [`FunctionErrorKind`]. `Timeout`
    /// is *not* retryable here: the simulated workload is deterministic,
    /// so a retry would time out identically. OOM and oversized payloads
    /// fail the same way every time.
    pub fn retryable(&self) -> bool {
        match self {
            InvocationOutcome::Throttled | InvocationOutcome::ServiceUnavailable => true,
            InvocationOutcome::FunctionError { kind, .. } => kind.retryable(),
            InvocationOutcome::Success
            | InvocationOutcome::OutOfMemory { .. }
            | InvocationOutcome::Timeout
            | InvocationOutcome::PayloadTooLarge { .. } => false,
        }
    }
}

/// Full measurement record of one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationRecord {
    /// The invoked function.
    pub function: FunctionId,
    /// Cold or warm.
    pub start: StartKind,
    /// Terminal status.
    pub outcome: InvocationOutcome,
    /// Submission time on the simulation clock.
    pub submitted_at: SimTime,
    /// Function-body execution time (compute + storage I/O).
    pub benchmark_time: SimDuration,
    /// Provider-reported time (benchmark + sandbox overhead + cold init).
    pub provider_time: SimDuration,
    /// End-to-end client latency.
    pub client_time: SimDuration,
    /// Abstract instructions executed by the kernel.
    pub instructions: u64,
    /// Time the body spent waiting on storage/external I/O.
    pub io_time: SimDuration,
    /// Measured memory usage in MB.
    pub used_memory_mb: u32,
    /// Configured memory in MB.
    pub configured_memory_mb: u32,
    /// Request payload size in bytes.
    pub payload_bytes: u64,
    /// Response size in bytes.
    pub response_bytes: u64,
    /// The serving container (if one was assigned).
    pub container: Option<ContainerId>,
    /// Number of invocations in flight in the same burst.
    pub concurrency: u32,
    /// The bill (zero-cost entries for failed invocations that are not
    /// billed).
    pub bill: InvocationBill,
    /// Client clock reading when the request was sent (seconds).
    pub t_send_client: f64,
    /// *Server* clock reading when the function body started (seconds) —
    /// offset from the client clock, as in the paper's §6.4 setup.
    pub t_start_server: f64,
    /// Client clock reading when the response arrived (seconds).
    pub t_recv_client: f64,
}

impl InvocationRecord {
    /// The record of an attempt that got no response: rejected before a
    /// sandbox was acquired, shed, or cut off by a host crash. Nothing is
    /// billed, the benchmark and provider times are zero, and the client
    /// waited `client_time` from `submitted_at`.
    pub fn unanswered(
        function: FunctionId,
        outcome: InvocationOutcome,
        submitted_at: SimTime,
        client_time: SimDuration,
        configured_memory_mb: u32,
        payload_bytes: u64,
        concurrency: u32,
    ) -> InvocationRecord {
        InvocationRecord {
            function,
            start: StartKind::Warm,
            outcome,
            submitted_at,
            benchmark_time: SimDuration::ZERO,
            provider_time: SimDuration::ZERO,
            client_time,
            instructions: 0,
            io_time: SimDuration::ZERO,
            used_memory_mb: 0,
            configured_memory_mb,
            payload_bytes,
            response_bytes: 0,
            container: None,
            concurrency,
            bill: InvocationBill::default(),
            t_send_client: submitted_at.as_secs_f64(),
            t_start_server: 0.0,
            t_recv_client: (submitted_at + client_time).as_secs_f64(),
        }
    }

    /// The invocation overhead the paper estimates in Figure 6: time from
    /// client send to function start, computed from the (drift-corrected)
    /// timestamps. `offset` is the estimated server-minus-client clock
    /// offset in seconds.
    pub fn invocation_overhead_secs(&self, offset: f64) -> f64 {
        (self.t_start_server - offset) - self.t_send_client
    }

    /// Cold/warm ratio helper: client time in seconds.
    pub fn client_secs(&self) -> f64 {
        self.client_time.as_secs_f64()
    }
}

/// The client-visible result of a [`crate::RetryDriver`] chain
/// (`FaasPlatform::invoke_with_policy`, the cluster's `invoke_resilient`):
/// every attempt the policy launched (each one billed by the platform
/// exactly like a standalone invocation), the backoff waits between them,
/// and the effective end-to-end outcome the caller observed.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptChain {
    /// Every attempt, in launch order (the hedge attempt, if any, follows
    /// the primary attempt it raced).
    pub attempts: Vec<InvocationRecord>,
    /// Backoff wait before each retry: `waits[k]` precedes retry *k*+1,
    /// which is `attempts[k+1]`, or `attempts[k+2]` when a hedge ran
    /// (hedges have no wait and no entry here).
    pub waits: Vec<SimDuration>,
    /// Whether a hedge attempt was launched.
    pub hedged: bool,
    /// Whether the hedge attempt produced the effective response.
    pub hedge_won: bool,
    /// Whether the circuit breaker rejected the call locally (no attempts
    /// were launched and nothing was billed).
    pub breaker_rejected: bool,
    /// The effective outcome the client observed.
    pub outcome: InvocationOutcome,
    /// End-to-end client latency across all attempts and waits (a
    /// winning hedge counts from the first send to its answer).
    pub client_time: SimDuration,
}

impl AttemptChain {
    /// Whether the chain ended in success.
    pub fn succeeded(&self) -> bool {
        self.outcome.is_success()
    }

    /// How many attempts the platform billed (all of them — retries and
    /// hedges are real invocations).
    pub fn billed_attempts(&self) -> usize {
        self.attempts.len()
    }

    /// Total cost across every attempt.
    pub fn total_cost_usd(&self) -> f64 {
        self.attempts.iter().map(|a| a.bill.total_usd()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::billing::BillingModel;

    fn record() -> InvocationRecord {
        InvocationRecord {
            function: FunctionId(0),
            start: StartKind::Warm,
            outcome: InvocationOutcome::Success,
            submitted_at: SimTime::from_secs(1),
            benchmark_time: SimDuration::from_millis(50),
            provider_time: SimDuration::from_millis(60),
            client_time: SimDuration::from_millis(200),
            instructions: 1_000_000,
            io_time: SimDuration::from_millis(10),
            used_memory_mb: 100,
            configured_memory_mb: 256,
            payload_bytes: 1024,
            response_bytes: 2048,
            container: Some(ContainerId(1)),
            concurrency: 1,
            bill: BillingModel::aws().bill(SimDuration::from_millis(60), 256, 100, 2048),
            t_send_client: 100.0,
            t_start_server: 100.12,
            t_recv_client: 100.2,
        }
    }

    #[test]
    fn outcome_success_check() {
        assert!(InvocationOutcome::Success.is_success());
        assert!(!InvocationOutcome::Timeout.is_success());
        assert!(!InvocationOutcome::OutOfMemory {
            used_mb: 300,
            limit_mb: 256
        }
        .is_success());
    }

    #[test]
    fn overhead_uses_drift_corrected_timestamps() {
        let r = record();
        // True server-client offset 0.05 s → overhead = 0.12 − 0.05 = 0.07.
        let est = r.invocation_overhead_secs(0.05);
        assert!((est - 0.07).abs() < 1e-12);
        // Ignoring drift overestimates.
        assert!(r.invocation_overhead_secs(0.0) > est);
    }

    #[test]
    fn time_levels_are_ordered() {
        let r = record();
        assert!(r.benchmark_time <= r.provider_time);
        assert!(r.provider_time <= r.client_time);
        assert!((r.client_secs() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn an_unanswered_attempt_bills_nothing_and_keeps_time_order() {
        let r = InvocationRecord::unanswered(
            FunctionId(3),
            InvocationOutcome::Throttled,
            SimTime::from_secs(2),
            SimDuration::from_millis(40),
            256,
            1024,
            4,
        );
        assert!(r.benchmark_time <= r.provider_time && r.provider_time <= r.client_time);
        assert_eq!(
            (r.response_bytes, r.container, r.bill.total_usd()),
            (0, None, 0.0)
        );
        assert_eq!((r.t_send_client, r.t_recv_client), (2.0, 2.04));
        assert_eq!(
            (r.configured_memory_mb, r.payload_bytes, r.concurrency),
            (256, 1024, 4)
        );
    }

    #[test]
    fn function_error_kinds_are_exhaustive_with_stable_tags() {
        // `ALL` must cover every variant: this match fails to compile if a
        // variant is added without extending the list and classification.
        for kind in FunctionErrorKind::ALL {
            let (tag, retryable) = match kind {
                FunctionErrorKind::Storage => ("storage", false),
                FunctionErrorKind::TransientStorage => ("transient-storage", true),
                FunctionErrorKind::BadRequest => ("bad-request", false),
                FunctionErrorKind::SandboxCrash => ("sandbox-crash", true),
                FunctionErrorKind::CorruptPayload => ("corrupt-payload", true),
                FunctionErrorKind::HostCrash => ("host-crash", true),
            };
            assert_eq!(kind.as_str(), tag);
            assert_eq!(kind.retryable(), retryable, "{tag}");
        }
        let tags: std::collections::BTreeSet<_> =
            FunctionErrorKind::ALL.iter().map(|k| k.as_str()).collect();
        assert_eq!(
            tags.len(),
            FunctionErrorKind::ALL.len(),
            "tags must be unique"
        );
    }

    #[test]
    fn outcome_retryability_classification() {
        assert!(InvocationOutcome::Throttled.retryable());
        assert!(InvocationOutcome::ServiceUnavailable.retryable());
        assert!(!InvocationOutcome::Success.retryable());
        assert!(!InvocationOutcome::Timeout.retryable());
        assert!(!InvocationOutcome::OutOfMemory {
            used_mb: 300,
            limit_mb: 256
        }
        .retryable());
        assert!(!InvocationOutcome::PayloadTooLarge {
            bytes: 10,
            limit: 5
        }
        .retryable());
        assert!(InvocationOutcome::FunctionError {
            kind: FunctionErrorKind::SandboxCrash,
            message: "sandbox crashed".into(),
        }
        .retryable());
        assert!(!InvocationOutcome::FunctionError {
            kind: FunctionErrorKind::BadRequest,
            message: "bad payload".into(),
        }
        .retryable());
        assert_eq!(
            InvocationOutcome::FunctionError {
                kind: FunctionErrorKind::Storage,
                message: String::new(),
            }
            .label(),
            "function-error"
        );
    }
}
