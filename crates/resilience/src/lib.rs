//! # sebs-resilience — deterministic faults and client-side recovery
//!
//! The paper's reliability probes (§6.2 Q3) observe platform failures from
//! the outside; this crate makes failures and recovery *first-class,
//! deterministic subsystems* of the simulation:
//!
//! * [`FaultPlan`] / [`FaultInjector`] — declarative, seeded fault rules
//!   (transient sandbox crashes, storage errors and latency inflation,
//!   provider outage/brownout windows, cold-start storms, payload
//!   corruption) that the platform and [`sebs_storage::ObjectStorage`]
//!   consult at fixed interception points. Every probability draw comes
//!   from one dedicated RNG stream, and a draw happens *only* when the
//!   corresponding rate is non-zero — so an empty plan is bit-identical to
//!   faults-off, the same guarantee the trace and telemetry layers give.
//! * [`RetryPolicy`] / [`CircuitBreaker`] / [`HedgeTracker`] — the client
//!   side: bounded retries with exponential backoff and deterministic
//!   jitter, a retry budget, an optional per-invocation deadline, a
//!   closed→open→half-open circuit breaker, and latency-quantile request
//!   hedging. This crate holds the policy and its state machines only; the
//!   one loop that runs them is `sebs_platform::RetryDriver`, shared by the
//!   single-box `invoke_with_policy` and the cluster's `invoke_resilient`.
//!   It records every attempt, so cost models bill retries and hedges like
//!   the cloud would.

pub mod fault;
pub mod retry;

pub use fault::{
    FaultInjector, FaultPlan, FaultyStore, HostCrashWindow, InjectionCounts, OutageWindow,
    StormWindow,
};
pub use retry::{BreakerConfig, BreakerState, CircuitBreaker, HedgeTracker, RetryPolicy};
