//! Deterministic per-invocation tracing.
//!
//! The paper measures FaaS latency from outside the black box and argues it
//! decomposes into policy-driven phases: trigger dispatch, sandbox
//! acquisition (with the §2 ❺ cold-start breakdown), function execution,
//! storage I/O and billing. This crate makes that decomposition *visible*
//! for every simulated invocation instead of only in aggregate.
//!
//! * [`TraceSpan`] — one phase as a `[start, start+duration)` interval in
//!   **sim-time**, with string arguments and nested children.
//! * [`InvocationTrace`] — the span tree of one invocation plus its
//!   canonical coordinates (grid cell, per-platform sequence number).
//! * [`TraceCollector`] — one platform's collection, for the single box and
//!   the cluster alike: it numbers traces, admits each from its
//!   coordinates, keeps a [`TraceRecord`] for all of them or for those a
//!   [`TraceSampler`] admits, and builds span trees only for the records
//!   still kept when it drains.
//! * [`TraceSink`] — a per-worker collection that merges in canonical cell
//!   order, exactly like `ResultStore`; serialized traces are therefore
//!   byte-identical for every `--jobs` value.
//! * [`chrome`] — Chrome `trace_event` JSON, loadable in Perfetto or
//!   `about:tracing`.
//! * [`breakdown`] — a plain-text latency-breakdown table with p50/p95/p99
//!   per phase.
//!
//! # Determinism contract
//!
//! Traces never consume randomness and never read host time: every number
//! in a trace is a pure function of the suite seed and the cell index.
//! Collecting traces must not change any simulation result, and the
//! exported bytes must not depend on thread count or scheduling.

pub mod breakdown;
pub mod chrome;
pub mod sampler;
pub mod sink;
pub mod span;

pub use breakdown::breakdown_table;
pub use chrome::chrome_trace_json;
pub use sampler::{Admission, SamplerSpec, TraceSampler};
pub use sink::{InvocationTrace, Pending, TraceCollector, TraceRecord, TraceSink};
pub use span::TraceSpan;
