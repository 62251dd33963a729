//! The FaaS platform model (paper §2) — a deterministic simulator of
//! commercial Function-as-a-Service offerings.
//!
//! The paper's abstract platform model has five components; each maps to a
//! module here:
//!
//! 1. **Triggers** — [`invocation`] models HTTP/SDK invocation including
//!    payload transfer and gateway overheads.
//! 2. **Execution environment** — [`container`] + [`pool`] model sandbox
//!    lifecycle (cold init, warm reuse, eviction) and [`coldstart`] the
//!    startup latency.
//! 3. **Persistent storage** — provided by `sebs-storage`, attached per
//!    platform instance.
//! 4. **Ephemeral storage** — also from `sebs-storage`.
//! 5. **Invocation system** — [`platform::FaasPlatform`] ties scheduling,
//!    concurrency limits, failures and billing together; [`chain`] holds
//!    the one client-side retry driver it shares with the cluster.
//!
//! Provider differences are *data*: a [`provider::ProviderProfile`] bundles
//! the policies of Table 2 (memory/CPU allocation, billing, limits,
//! behavioral quirks), with built-in profiles for AWS Lambda, Azure
//! Functions and Google Cloud Functions.

pub mod billing;
pub mod chain;
pub mod coldstart;
pub mod container;
pub mod eviction;
pub mod function;
pub mod invocation;
pub mod monitoring;
pub mod platform;
pub mod pool;
pub mod provider;
pub mod trigger;
pub mod vm;

pub use billing::{BillingModel, InvocationBill};
pub use chain::{Attempt, AttemptKind, ChainTimeline, RetryDriver};
pub use coldstart::{ColdStartBreakdown, ColdStartModel};
pub use container::{Container, ContainerId, ContainerState};
pub use eviction::EvictionPolicy;
pub use function::{FunctionConfig, FunctionId};
pub use invocation::{
    AttemptChain, FunctionErrorKind, InvocationOutcome, InvocationRecord, StartKind,
};
pub use monitoring::{MonitoredInvocation, MonitoringApi};
pub use platform::FaasPlatform;
pub use pool::{ContainerPool, PoolObservation};
pub use provider::{ProviderKind, ProviderProfile};
pub use trigger::{TriggerKind, TriggerModel};
pub use vm::VirtualMachine;
