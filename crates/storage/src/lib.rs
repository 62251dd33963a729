//! Storage substrates for SeBS-RS.
//!
//! The paper's platform model (§2) distinguishes persistent and ephemeral
//! storage; both are reproduced here:
//!
//! * **❸ persistent storage** ([`object`]) — S3 / Blob Storage / Cloud
//!   Storage equivalents: high throughput, high latency. A unified
//!   [`ObjectStorage`] trait plays the role of the paper's "translation
//!   layer that exposes a single API" across providers.
//! * **❹ ephemeral storage** ([`ephemeral`]) — Redis-class in-memory
//!   key-value store with µs-scale latency and lifetime bound to a VM.
//!
//! Every operation returns both its *result* and its simulated *latency*,
//! so workloads remain pure functions of their inputs while the platform
//! accumulates realistic time.

pub mod ephemeral;
pub mod object;

pub use ephemeral::EphemeralKv;
pub use object::{Bandwidth, ObjectStorage, SimObjectStore, StorageError, StorageOp, StorageStats};
