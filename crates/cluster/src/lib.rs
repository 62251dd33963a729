//! Multi-host cluster fault domains on top of [`sebs_platform`].
//!
//! The single-box [`sebs_platform::FaasPlatform`] models one infinite
//! machine: containers never compete for a CPU and nothing short of an
//! injected fault can take capacity away. Real fleets are built from
//! *hosts* — bounded machines that co-locate containers, queue work when
//! full, and occasionally die, taking every warm container and in-flight
//! invocation with them. This crate adds that layer:
//!
//! - [`ClusterPlatform`]: a region of N [`Host`]s, each wrapping its own
//!   `FaasPlatform` with per-host CPU capacity, a bounded admission
//!   queue, and co-location contention.
//! - [`SchedulerKind`]: placement — least-loaded, random-k
//!   (power-of-k-choices) and locality (Hermes-style warm-container
//!   affinity with packing), each a variant matched at dispatch.
//! - [`KeepAliveKind`]: container retention — the provider's own
//!   eviction model, a fixed idle timeout, and a hybrid histogram (a
//!   Serverless-in-the-Wild style per-function idle-gap histogram driving
//!   keep-alive and prewarming, the only policy that keeps state).
//! - Host fault domains: `FaultPlan::host_crashes` windows compile into a
//!   seeded per-host crash/recovery schedule — a pure function of
//!   (plan, seed, host count). A crash evicts the host's entire warm
//!   pool and fails in-flight invocations with the retryable
//!   `host-crash` error; client retries land on surviving hosts, cold.
//!   [`ClusterPlatform::invoke_resilient`] runs the same
//!   `sebs_platform::RetryDriver` as the single box, so every
//!   `RetryPolicy` knob applies: backoff, budget, deadline, hedging and
//!   the circuit breaker.
//! - Overload shedding: a host admits at most `cpus + queue_depth`
//!   concurrent invocations; beyond that the cluster degrades into
//!   `Throttled` instead of queueing unboundedly, and with every host
//!   down an arrival is rejected as the retryable `ServiceUnavailable`.
//!
//! Determinism contract: every host shares the cluster seed (hosts are
//! statistically identical machines whose streams diverge with their
//! invocation history), the scheduler draws from a dedicated
//! `cluster-sched` stream **only when more than one candidate host
//! exists**, and the cluster's retry driver draws backoff jitter from
//! `cluster-retry`. A 1-host cluster with the provider keep-alive, zero
//! contention and an unbounded queue is therefore bit-identical to the
//! bare single-box platform.

mod cluster;
mod host;
mod keepalive;
mod scheduler;

pub use cluster::{ClusterConfig, ClusterPlatform, ClusterStats, CrashEvent};
pub use host::{Host, HostStats};
pub use keepalive::KeepAliveKind;
pub use scheduler::{SchedulerKind, MAX_RANDOM_K};
